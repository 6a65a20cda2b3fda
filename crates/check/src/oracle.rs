//! The differential and metamorphic oracle: decides whether one fuzz
//! case passes.
//!
//! Eight independent verdicts feed [`run_case`]:
//!
//! 0. **Lint** — the static analyzer (`vsched-analyze`, quick budget)
//!    examines the case's built SAN model and policy before anything is
//!    simulated; Error-severity findings or failed conservation
//!    certificates fail the case fast, with the structural diagnostic
//!    instead of a downstream symptom.
//! 1. **Invariants** — one run per engine with an
//!    [`InvariantChecker`] attached
//!    (gang/skew contracts enabled per the case's policy).
//! 2. **Differential** — both engines produce a [`MetricsReport`] over
//!    the case's replications; every per-VCPU/per-PCPU column must agree
//!    within `tol_floor + ci_factor · (hwₐ + hw_b)`. The engines share
//!    semantics but not code paths, so a disagreement localizes a bug to
//!    one of them. A suspected disagreement is re-judged at triple the
//!    replications before it is reported, which de-flakes bimodal
//!    configurations whose few-replication means can land on opposite
//!    modes per engine.
//! 3. **Parallel determinism** — the direct engine with `jobs = 1` must
//!    produce a byte-identical report to `jobs = 3` (the replication
//!    engine's core promise).
//! 4. **Metamorphic** — VM-rotation invariance (per-VM availability is a
//!    property of the VM's spec, not its index; checked distributionally
//!    because workload RNG streams are keyed by VM index) and time-unit
//!    co-scaling (doubling every time dimension of a derived
//!    deterministic variant leaves the reported *fractions* in place up
//!    to boundary effects).
//! 5. **Incremental** — the SAN engine's dependency-indexed incremental
//!    reevaluation core must be bit-identical to the full-rescan
//!    reference mode on the same seed (final marking, run statistics,
//!    and every metric's bit pattern).
//! 6. **Env** — a `vsched-env` episode driven by the case's policy *fed
//!    from observations* must be bit-identical to the monolithic
//!    `run_replication` on both engines (same cumulative metrics — any
//!    divergence in RNG draws or markings would change them), and a
//!    replay of the recorded actions must reproduce the episode's
//!    observation, reward, and fingerprint streams exactly.
//! 7. **Trace** — cases that carry a churn scenario
//!    ([`FuzzCase::trace`]) replay it through `vsched-trace` on both
//!    engines: one invariant-checked segmented run per engine (the §11
//!    catalogue must hold across retire/re-admit boundaries), the
//!    Direct-vs-SAN differential on the bridged reports (same tolerance
//!    and confirm pass as verdict 2), and `jobs = 1` vs `jobs = 3`
//!    fingerprint bit-identity — determinism under churn is the trace
//!    frontend's headline claim.
//!
//! Tolerances are calibrated so a 200-case run makes ~6000 comparisons
//! with a near-zero false-positive budget; see [`OracleOpts`].

use std::cell::RefCell;
use std::rc::Rc;

use vsched_core::san_model::SanSystem;
use vsched_core::{
    CoreError, Engine, ExperimentBuilder, Fnv, MetricsReport, PolicyKind, Simulation, SystemConfig,
};
use vsched_trace::{TraceExperiment, TraceReport, TraceSchedule};

use crate::case::{FuzzCase, LoadSpec};
use crate::invariant::InvariantChecker;

/// What went wrong with a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The static analyzer rejected the case's model or policy before any
    /// simulation ran.
    Lint,
    /// The invariant checker vetoed a run.
    Invariant,
    /// The two engines disagree beyond tolerance.
    Differential,
    /// A metamorphic relation (rotation, co-scaling, parallel
    /// determinism) does not hold.
    Metamorphic,
    /// The SAN engine's incremental reevaluation core diverged from the
    /// full-rescan reference mode on the same seed.
    Incremental,
    /// A `vsched-env` episode diverged from the monolithic run, or a
    /// replay of its recorded actions diverged from the episode.
    Env,
    /// A traced (churn) replay diverged: an invariant broke across a
    /// membership boundary, the engines disagreed on the traced metrics,
    /// or a parallel trace run was not bit-identical.
    Trace,
    /// A run errored outright (bad config, engine failure).
    Error,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Lint => "lint",
            FailureKind::Invariant => "invariant",
            FailureKind::Differential => "differential",
            FailureKind::Metamorphic => "metamorphic",
            FailureKind::Incremental => "incremental",
            FailureKind::Env => "env",
            FailureKind::Trace => "trace",
            FailureKind::Error => "error",
        };
        f.write_str(s)
    }
}

/// One oracle complaint about a case.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The verdict family.
    pub kind: FailureKind,
    /// Human-readable specifics (invariant name, metric column, deltas).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// The oracle's verdict on one case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Which case this is.
    pub case_index: u64,
    /// Everything the oracle objected to (empty = pass).
    pub failures: Vec<Failure>,
    /// FNV-1a hash over the bit patterns of both engines' reports —
    /// two replays of the same case must produce the same digest.
    pub digest: String,
}

impl CaseOutcome {
    /// Whether the case passed every verdict.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Oracle tolerances and verdict toggles.
#[derive(Debug, Clone)]
pub struct OracleOpts {
    /// Confidence level of the per-column intervals.
    pub ci_level: f64,
    /// Absolute tolerance floor added to every differential comparison —
    /// absorbs genuine seed-to-seed variance that tiny half-widths
    /// under-report at 3 replications.
    pub tol_floor: f64,
    /// Multiplier on the sum of the two half-widths.
    pub ci_factor: f64,
    /// Tolerance for the co-scaling relation (boundary effects are
    /// O(timeslice / horizon), so this is looser than `tol_floor`).
    pub scaling_tol: f64,
    /// Run the static lint pass (quick budget) on the case's built SAN
    /// model and policy before simulating, failing fast on Error findings.
    pub check_lint: bool,
    /// Run the invariant-checked passes.
    pub check_invariants: bool,
    /// Run the jobs=1 vs jobs=3 determinism pass.
    pub check_parallel_determinism: bool,
    /// Run the rotation and co-scaling metamorphic passes.
    pub check_metamorphic: bool,
    /// Run the SAN engine once with incremental reevaluation (the
    /// default) and once in full-rescan reference mode, and require the
    /// final marking, run statistics, and every metric to be
    /// bit-identical — the incremental core's headline correctness claim.
    pub check_incremental: bool,
    /// Drive a `vsched-env` episode with the case's policy on both
    /// engines, compare its metrics bit-for-bit with the monolithic run,
    /// and replay its recorded actions — the environment's episode-replay
    /// determinism claim.
    pub check_env: bool,
    /// Replay the case's churn scenario (if any) through the trace
    /// frontend on both engines: invariant-checked segmented runs, the
    /// Direct-vs-SAN differential on the bridged reports, and
    /// fingerprint bit-identity across `--jobs`.
    pub check_trace: bool,
}

impl Default for OracleOpts {
    fn default() -> Self {
        OracleOpts {
            ci_level: 0.95,
            tol_floor: 0.025,
            ci_factor: 3.0,
            scaling_tol: 0.05,
            check_lint: true,
            check_invariants: true,
            check_parallel_determinism: true,
            check_metamorphic: true,
            check_incremental: true,
            check_env: true,
            check_trace: true,
        }
    }
}

/// Runs one case through every enabled verdict.
#[must_use]
pub fn run_case(case: &FuzzCase, opts: &OracleOpts) -> CaseOutcome {
    let mut failures = Vec::new();
    let config = match case.system_config() {
        Ok(c) => c,
        Err(e) => {
            return CaseOutcome {
                case_index: case.case_index,
                failures: vec![Failure {
                    kind: FailureKind::Error,
                    detail: format!("config: {e}"),
                }],
                digest: String::from("-"),
            };
        }
    };

    if opts.check_lint {
        // Static pass first: a structurally broken model (dead activity,
        // nonconserving gate, policy-contract breach) fails fast with the
        // lint diagnostic instead of burning simulation budget on it.
        let lint_failures = lint_case(&config, case);
        if !lint_failures.is_empty() {
            return CaseOutcome {
                case_index: case.case_index,
                failures: lint_failures,
                digest: String::from("-"),
            };
        }
    }

    if opts.check_invariants {
        failures.extend(checked_runs(&config, case));
    }

    let direct = report(&config, case, Engine::Direct, 1, opts.ci_level);
    let san = report(&config, case, Engine::San, 1, opts.ci_level);
    let mut digest_reports: Vec<&MetricsReport> = Vec::new();
    match (&direct, &san) {
        (Ok(d), Ok(s)) => {
            let diffs = compare_reports("direct-vs-san", d, s, opts);
            if !diffs.is_empty() {
                // Confirmation pass. Some configurations are genuinely
                // bimodal — e.g. Balance + barrier can wedge a VM behind
                // a starved sibling for the whole window in *either*
                // engine — and at few replications the two engines can
                // collapse onto opposite modes, which reads as a huge
                // differential with tiny half-widths. Re-judging with
                // triple the replications lets both engines sample both
                // modes: a real engine bug is a deterministic bias and
                // survives, a mode-split coincidence does not.
                let reps = case.replications * 3;
                let confirm = (
                    report_with_reps(&config, case, Engine::Direct, 1, opts.ci_level, reps),
                    report_with_reps(&config, case, Engine::San, 1, opts.ci_level, reps),
                );
                match confirm {
                    (Ok(d3), Ok(s3)) => {
                        failures.extend(compare_reports("direct-vs-san", &d3, &s3, opts));
                    }
                    _ => failures.extend(diffs),
                }
            }
            digest_reports.push(d);
            digest_reports.push(s);
        }
        _ => {
            for (name, r) in [("direct", &direct), ("san", &san)] {
                if let Err(e) = r {
                    failures.push(Failure {
                        kind: FailureKind::Error,
                        detail: format!("{name} engine: {e}"),
                    });
                }
            }
        }
    }
    let digest = digest_of(&digest_reports);

    if opts.check_parallel_determinism {
        if let Ok(seq) = &direct {
            match report(&config, case, Engine::Direct, 3, opts.ci_level) {
                Ok(par) => {
                    let same = serde_json::to_string(seq).ok() == serde_json::to_string(&par).ok();
                    if !same {
                        failures.push(Failure {
                            kind: FailureKind::Metamorphic,
                            detail: "jobs=1 and jobs=3 reports differ — parallel replication \
                                     is not deterministic"
                                .into(),
                        });
                    }
                }
                Err(e) => failures.push(Failure {
                    kind: FailureKind::Error,
                    detail: format!("jobs=3 run: {e}"),
                }),
            }
        }
    }

    if opts.check_metamorphic {
        if let Ok(d) = &direct {
            failures.extend(rotation_check(&config, case, d, opts));
        }
        failures.extend(scaling_check(case, opts));
    }

    if opts.check_incremental {
        failures.extend(incremental_check(&config, case));
    }

    if opts.check_env {
        failures.extend(env_check(&config, case));
    }

    if opts.check_trace {
        failures.extend(trace_check(case, opts));
    }

    CaseOutcome {
        case_index: case.case_index,
        failures,
        digest,
    }
}

/// Runs `config` under `policy` on both engines and returns every
/// differential complaint — the oracle behind the engines-agree
/// integration tier.
///
/// # Errors
///
/// Propagates engine errors (the caller decides whether an errored run
/// is itself a failure).
pub fn engines_agree(
    config: &SystemConfig,
    policy: &PolicyKind,
    warmup: u64,
    horizon: u64,
    seed: u64,
    replications: usize,
    opts: &OracleOpts,
) -> Result<Vec<Failure>, CoreError> {
    let build = |engine| {
        ExperimentBuilder::new(config.clone(), policy.clone())
            .engine(engine)
            .warmup(warmup)
            .horizon(horizon)
            .seed(seed)
            .stopping_rule(vsched_stats::StoppingRule::new(opts.ci_level, 0.05))
            .replications_exact(replications)
            .run()
    };
    let direct = build(Engine::Direct)?;
    let san = build(Engine::San)?;
    Ok(compare_reports("direct-vs-san", &direct, &san, opts))
}

/// The quick static pass over the case's built model and policy. Returns
/// only deny-worthy findings: Error-severity diagnostics and failed
/// certificates; Allow/Warn noise never blocks a fuzz case.
fn lint_case(config: &SystemConfig, case: &FuzzCase) -> Vec<Failure> {
    let target = format!("case-{}", case.case_index);
    let report = match vsched_analyze::lint_config(
        &target,
        config,
        &case.policy,
        &vsched_analyze::AnalyzeOpts::quick(),
    ) {
        Ok(report) => report,
        Err(e) => {
            return vec![Failure {
                kind: FailureKind::Error,
                detail: format!("lint pass: {e}"),
            }];
        }
    };
    let mut failures: Vec<Failure> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == vsched_analyze::Severity::Error)
        .map(|d| Failure {
            kind: FailureKind::Lint,
            detail: format!("[{}] {}: {}", d.lint, d.subject, d.message),
        })
        .collect();
    failures.extend(
        report
            .certificates
            .iter()
            .filter(|c| !c.passed)
            .map(|c| Failure {
                kind: FailureKind::Lint,
                detail: format!("certificate `{}` failed: {}", c.name, c.detail),
            }),
    );
    failures
}

/// Incremental-vs-full-rescan differential on the SAN engine: the same
/// case and seed run once with the dependency-indexed incremental
/// reevaluation core (the default) and once in full-rescan reference
/// mode. The two are bit-identical by construction — skipped activities
/// are provable no-ops and per-activity RNG streams make the event
/// sequence independent of who rescans — so *any* divergence in the
/// final marking, the run statistics, or any metric's bit pattern is a
/// bug in the dependency index or the dirty tracking.
fn incremental_check(config: &SystemConfig, case: &FuzzCase) -> Vec<Failure> {
    let ticks = case.warmup + case.horizon;
    let run = |full: bool| {
        let mut sys = SanSystem::new(config.clone(), case.policy.create(), case.seed)?;
        sys.set_full_rescan(full);
        sys.run(ticks)?;
        let m = sys.metrics();
        let bits: Vec<u64> = m
            .vcpu_availability
            .iter()
            .chain(&m.vcpu_utilization)
            .chain(&m.pcpu_utilization)
            .chain(&m.vcpu_spin)
            .map(|v| v.to_bits())
            .collect();
        // Visits differ between the modes by design: only the work done
        // (completions and aborts) is compared.
        let stats = sys.simulator().stats();
        Ok::<_, CoreError>((
            sys.simulator().marking().as_slice().to_vec(),
            (stats.completions, stats.aborts),
            bits,
        ))
    };
    match (run(false), run(true)) {
        (Ok(inc), Ok(full)) => {
            let mut failures = Vec::new();
            if inc.0 != full.0 {
                failures.push(Failure {
                    kind: FailureKind::Incremental,
                    detail: "final marking differs between incremental and full-rescan modes"
                        .into(),
                });
            }
            if inc.1 != full.1 {
                failures.push(Failure {
                    kind: FailureKind::Incremental,
                    detail: format!(
                        "(completions, aborts) differ: incremental {:?} vs full-rescan {:?}",
                        inc.1, full.1
                    ),
                });
            }
            if inc.2 != full.2 {
                failures.push(Failure {
                    kind: FailureKind::Incremental,
                    detail: "metric bit patterns differ between incremental and full-rescan \
                             modes"
                        .into(),
                });
            }
            failures
        }
        (ra, rb) => [("incremental", ra), ("full-rescan", rb)]
            .into_iter()
            .filter_map(|(name, r)| {
                r.err().map(|e| Failure {
                    kind: FailureKind::Error,
                    detail: format!("{name} SAN run: {e}"),
                })
            })
            .collect(),
    }
}

/// Episode-vs-monolithic differential through `vsched-env`: the case's
/// policy drives a gym-style episode *fed from observations* (masked to
/// its declared snapshot view) on each engine, and the episode's
/// cumulative metrics must match `run_replication` bit-for-bit — the
/// paused engine surfaces exactly the epochs it would consult the policy
/// at, with views that differ only in fields the contract says it never
/// reads, so
/// any divergence (in metrics, and therefore in markings or RNG draws)
/// is a bug in the environment layer. The recorded actions are then
/// replayed: the observation digest, reward stream, and terminal
/// fingerprint must reproduce exactly — the episode-replay determinism
/// claim.
fn env_check(config: &SystemConfig, case: &FuzzCase) -> Vec<Failure> {
    let mut failures = Vec::new();
    for (label, engine) in [("direct", Engine::Direct), ("san", Engine::San)] {
        let scenario = vsched_env::Scenario::new(config.clone())
            .engine(engine)
            .warmup(case.warmup)
            .horizon(case.horizon);
        let mut policy = case.policy.create();
        let fields = policy.snapshot_view();
        let mut env = vsched_env::Env::new(scenario.clone())
            .fields(fields)
            .agent_name("env-verdict");
        let run = match vsched_env::drive_policy(&mut env, policy.as_mut(), case.seed) {
            Ok(run) => run,
            Err(e) => {
                failures.push(Failure {
                    kind: FailureKind::Error,
                    detail: format!("[{label}] env episode: {e}"),
                });
                continue;
            }
        };
        match ExperimentBuilder::new(config.clone(), case.policy.clone())
            .engine(engine)
            .warmup(case.warmup)
            .horizon(case.horizon)
            .seed(case.seed)
            .run_replication(0)
        {
            Ok(mono) => {
                if mono != run.end.metrics {
                    failures.push(Failure {
                        kind: FailureKind::Env,
                        detail: format!(
                            "[{label}] episode metrics diverge from the monolithic run"
                        ),
                    });
                }
            }
            Err(e) => failures.push(Failure {
                kind: FailureKind::Error,
                detail: format!("[{label}] monolithic reference run: {e}"),
            }),
        }
        let mut replay_env = vsched_env::Env::new(scenario).fields(fields);
        match vsched_env::replay_actions(&mut replay_env, &run.actions, case.seed) {
            Ok(replay) => {
                if replay.obs_digest != run.obs_digest {
                    failures.push(Failure {
                        kind: FailureKind::Env,
                        detail: format!("[{label}] replayed observation stream diverges"),
                    });
                }
                if replay.rewards != run.rewards {
                    failures.push(Failure {
                        kind: FailureKind::Env,
                        detail: format!("[{label}] replayed reward stream diverges"),
                    });
                }
                if replay.end.fingerprint != run.end.fingerprint {
                    failures.push(Failure {
                        kind: FailureKind::Env,
                        detail: format!("[{label}] replayed terminal fingerprint diverges"),
                    });
                }
            }
            Err(e) => failures.push(Failure {
                kind: FailureKind::Error,
                detail: format!("[{label}] env replay: {e}"),
            }),
        }
    }
    failures
}

/// The trace verdict: replays the case's churn scenario through the
/// trace frontend on both engines. Empty for purely static cases. Three
/// claims are checked: the §11 invariant catalogue holds across
/// retire/re-admit boundaries (one checked segmented run per engine),
/// the engines agree on the traced metrics within the differential
/// tolerance (with the same triple-replication confirm pass as the
/// static differential — churn phases can be just as bimodal), and
/// parallel replication is bit-identical (`jobs = 1` vs `jobs = 3`
/// fingerprints).
fn trace_check(case: &FuzzCase, opts: &OracleOpts) -> Vec<Failure> {
    if case.trace.is_empty() {
        return Vec::new();
    }
    let schedule = match case.trace_schedule() {
        Ok(s) => s,
        Err(e) => {
            return vec![Failure {
                kind: FailureKind::Error,
                detail: format!("trace compile: {e}"),
            }];
        }
    };
    let mut failures = traced_invariant_runs(case, &schedule);

    let experiment = |engine: Engine, reps: usize, jobs: usize| {
        TraceExperiment::new(schedule.clone(), case.policy.clone())
            .engine(engine)
            .warmup(case.warmup)
            .horizon(case.horizon)
            .seed(case.seed)
            .replications(reps)
            .jobs(jobs)
            .run()
    };
    let (vcpus, pcpus) = (schedule.config().total_vcpus(), schedule.config().pcpus());
    let bridged = |r: &TraceReport| r.metrics_report(vcpus, pcpus, opts.ci_level);
    // Traced divergences carry the trace verdict's kind, whatever
    // comparison surfaced them.
    let as_trace = |fs: Vec<Failure>| {
        fs.into_iter().map(|f| Failure {
            kind: FailureKind::Trace,
            detail: f.detail,
        })
    };

    let direct = experiment(Engine::Direct, case.replications, 1);
    let san = experiment(Engine::San, case.replications, 1);
    match (&direct, &san) {
        (Ok(d), Ok(s)) => {
            match experiment(Engine::Direct, case.replications, 3) {
                Ok(par) => {
                    if par.fingerprint != d.fingerprint {
                        failures.push(Failure {
                            kind: FailureKind::Trace,
                            detail: "jobs=1 and jobs=3 trace fingerprints differ — parallel \
                                     trace replication is not deterministic"
                                .into(),
                        });
                    }
                }
                Err(e) => failures.push(Failure {
                    kind: FailureKind::Error,
                    detail: format!("trace jobs=3 run: {e}"),
                }),
            }
            match (bridged(d), bridged(s)) {
                (Ok(dr), Ok(sr)) => {
                    let diffs = compare_reports("trace direct-vs-san", &dr, &sr, opts);
                    if !diffs.is_empty() {
                        let reps = case.replications * 3;
                        let confirm = (
                            experiment(Engine::Direct, reps, 1),
                            experiment(Engine::San, reps, 1),
                        );
                        match confirm {
                            (Ok(d3), Ok(s3)) => {
                                match (bridged(&d3), bridged(&s3)) {
                                    (Ok(dr3), Ok(sr3)) => failures.extend(as_trace(
                                        compare_reports("trace direct-vs-san", &dr3, &sr3, opts),
                                    )),
                                    _ => failures.extend(as_trace(diffs)),
                                }
                            }
                            _ => failures.extend(as_trace(diffs)),
                        }
                    }
                }
                (dr, sr) => {
                    for (name, r) in [("direct", dr), ("san", sr)] {
                        if let Err(e) = r {
                            failures.push(Failure {
                                kind: FailureKind::Error,
                                detail: format!("trace {name} report: {e}"),
                            });
                        }
                    }
                }
            }
        }
        _ => {
            for (name, r) in [("direct", &direct), ("san", &san)] {
                if let Err(e) = r {
                    failures.push(Failure {
                        kind: FailureKind::Error,
                        detail: format!("trace {name} engine: {e}"),
                    });
                }
            }
        }
    }
    failures
}

/// One invariant-checked trace replay per engine, through the loop
/// `TraceExperiment` runs ([`vsched_trace::replay`]): the same
/// engine-agnostic [`InvariantChecker`] that rides static runs observes
/// every tick of the churn replay — retired VCPUs must go (and stay)
/// INACTIVE holding no PCPU, transitions across re-admission must be
/// legal, and the policy contracts (gang atomicity, skew bound) must
/// survive membership changes.
fn traced_invariant_runs(case: &FuzzCase, schedule: &TraceSchedule) -> Vec<Failure> {
    let total = case.warmup + case.horizon;
    let mut failures = Vec::new();
    for (engine, kind) in [("direct", Engine::Direct), ("san", Engine::San)] {
        let ck = Rc::new(RefCell::new(InvariantChecker::for_policy(
            schedule.config(),
            &case.policy,
        )));
        let result = Simulation::new_dynamic(
            kind,
            schedule.config().clone(),
            case.policy.create(),
            case.seed,
        )
        .and_then(|mut sim| {
            sim.attach_observer(Box::new(Rc::clone(&ck)));
            vsched_trace::replay(&mut sim, schedule, case.warmup, case.horizon)
        });
        match result {
            Ok(()) => debug_assert_eq!(ck.borrow().ticks_checked(), total),
            Err(CoreError::InvariantViolation {
                invariant,
                tick,
                reason,
            }) => failures.push(Failure {
                kind: FailureKind::Trace,
                detail: format!(
                    "[{engine}] invariant `{invariant}` at tick {tick} under churn: {reason}"
                ),
            }),
            Err(e) => failures.push(Failure {
                kind: FailureKind::Error,
                detail: format!("[{engine}] traced checked run: {e}"),
            }),
        }
    }
    failures
}

/// One invariant-checked run per engine.
fn checked_runs(config: &SystemConfig, case: &FuzzCase) -> Vec<Failure> {
    let mut failures = Vec::new();
    let ticks = case.warmup + case.horizon;
    for (engine, kind) in [("direct", Engine::Direct), ("san", Engine::San)] {
        let ck = Rc::new(RefCell::new(InvariantChecker::for_policy(
            config,
            &case.policy,
        )));
        let result = Simulation::new(kind, config.clone(), case.policy.create(), case.seed)
            .and_then(|mut sim| {
                sim.attach_observer(Box::new(Rc::clone(&ck)));
                sim.run(ticks)
            });
        match result {
            Ok(()) => debug_assert_eq!(ck.borrow().ticks_checked(), ticks),
            Err(CoreError::InvariantViolation {
                invariant,
                tick,
                reason,
            }) => failures.push(Failure {
                kind: FailureKind::Invariant,
                detail: format!("[{engine}] `{invariant}` at tick {tick}: {reason}"),
            }),
            Err(e) => failures.push(Failure {
                kind: FailureKind::Error,
                detail: format!("[{engine}] checked run: {e}"),
            }),
        }
    }
    failures
}

fn report(
    config: &SystemConfig,
    case: &FuzzCase,
    engine: Engine,
    jobs: usize,
    level: f64,
) -> Result<MetricsReport, CoreError> {
    report_with_reps(config, case, engine, jobs, level, case.replications)
}

fn report_with_reps(
    config: &SystemConfig,
    case: &FuzzCase,
    engine: Engine,
    jobs: usize,
    level: f64,
    replications: usize,
) -> Result<MetricsReport, CoreError> {
    ExperimentBuilder::new(config.clone(), case.policy.clone())
        .engine(engine)
        .warmup(case.warmup)
        .horizon(case.horizon)
        .seed(case.seed)
        .stopping_rule(vsched_stats::StoppingRule::new(level, 0.05))
        .replications_exact(replications)
        .jobs(jobs)
        .run()
}

/// Column-by-column differential comparison of two reports.
#[must_use]
pub fn compare_reports(
    label: &str,
    a: &MetricsReport,
    b: &MetricsReport,
    opts: &OracleOpts,
) -> Vec<Failure> {
    let mut failures = Vec::new();
    let groups: [(
        &str,
        &[vsched_stats::ConfidenceInterval],
        &[vsched_stats::ConfidenceInterval],
    ); 4] = [
        (
            "vcpu_availability",
            &a.vcpu_availability,
            &b.vcpu_availability,
        ),
        ("vcpu_utilization", &a.vcpu_utilization, &b.vcpu_utilization),
        ("pcpu_utilization", &a.pcpu_utilization, &b.pcpu_utilization),
        ("vcpu_spin", &a.vcpu_spin, &b.vcpu_spin),
    ];
    for (metric, ca, cb) in groups {
        if ca.len() != cb.len() {
            failures.push(Failure {
                kind: FailureKind::Differential,
                detail: format!("{label}: {metric} arity {} vs {}", ca.len(), cb.len()),
            });
            continue;
        }
        for (i, (ia, ib)) in ca.iter().zip(cb).enumerate() {
            let delta = (ia.mean - ib.mean).abs();
            let tol = opts.tol_floor + opts.ci_factor * (ia.half_width + ib.half_width);
            if delta > tol {
                failures.push(Failure {
                    kind: FailureKind::Differential,
                    detail: format!(
                        "{label}: {metric}[{i}] {:.4} vs {:.4} (Δ {delta:.4} > tol {tol:.4})",
                        ia.mean, ib.mean
                    ),
                });
            }
        }
    }
    failures
}

/// VM-rotation invariance: per-VM availability follows the VM's *spec*,
/// not its index. This is a *fairness* property, so it is only asserted
/// for the policies that guarantee order-independent long-run shares —
/// round-robin, credit, and BVT. The rest are legitimately
/// order-sensitive: FCFS breaks ties at the saturated start by arrival
/// order (VCPU index) and without preemption the bias persists by
/// design; SEDF and balance break deadline/load ties by index; strict
/// and relaxed co-scheduling suffer order-dependent gang fragmentation
/// (the paper's §IV starvation observation) where which gang fits the
/// idle PCPUs first decides who runs at all. Fully deterministic cases
/// (deterministic load plus `sync_every`) are also exempt: zero-variance
/// phase-locking makes even a fair policy's index tie-breaking visible
/// beyond statistical tolerance.
fn rotation_check(
    config: &SystemConfig,
    case: &FuzzCase,
    base: &MetricsReport,
    opts: &OracleOpts,
) -> Vec<Failure> {
    let order_fair = matches!(
        case.policy,
        PolicyKind::RoundRobin | PolicyKind::Credit { .. } | PolicyKind::Bvt { .. }
    );
    if case.vms.len() < 2 || !order_fair {
        return Vec::new();
    }
    let deterministic =
        matches!(case.load, LoadSpec::Deterministic { .. }) && case.sync.every.is_some();
    if deterministic {
        return Vec::new();
    }
    let mut rotated_case = case.clone();
    rotated_case.vms.rotate_left(1);
    let rotated_config = match rotated_case.system_config() {
        Ok(c) => c,
        Err(e) => {
            return vec![Failure {
                kind: FailureKind::Error,
                detail: format!("rotated config: {e}"),
            }];
        }
    };
    let rotated = match report(
        &rotated_config,
        &rotated_case,
        Engine::Direct,
        1,
        opts.ci_level,
    ) {
        Ok(r) => r,
        Err(e) => {
            return vec![Failure {
                kind: FailureKind::Error,
                detail: format!("rotated run: {e}"),
            }];
        }
    };
    // Original VM v maps to rotated VM (v + n - 1) % n. Even a fair
    // policy hands out whole timeslices, and which VM index gets the
    // final partial slice of the observation window is rotation-
    // dependent — an O(timeslice / horizon) boundary effect the
    // tolerance must carry explicitly (the envelope's largest slices are
    // a visible 30/800 of the default window).
    let slice_frac = case.timeslice as f64 / case.horizon as f64;
    let n = case.vms.len();
    let mut failures = Vec::new();
    for vm in 0..n {
        let rot_vm = (vm + n - 1) % n;
        let (mean_a, hw_a) = vm_availability(base, config, vm);
        let (mean_b, hw_b) = vm_availability(&rotated, &rotated_config, rot_vm);
        let delta = (mean_a - mean_b).abs();
        let tol = opts.tol_floor + opts.ci_factor * (hw_a + hw_b) + slice_frac;
        if delta > tol {
            failures.push(Failure {
                kind: FailureKind::Metamorphic,
                detail: format!(
                    "rotation: VM {} availability {mean_a:.4} vs {mean_b:.4} at rotated index \
                     {rot_vm} (Δ {delta:.4} > tol {tol:.4})",
                    vm + 1
                ),
            });
        }
    }
    failures
}

/// Availability-weighted mean of a per-VCPU per-active-time ratio:
/// Σ availᵢ·valueᵢ / Σ availᵢ. Continuous across starvation boundaries,
/// unlike the unweighted mean (see [`scaling_check`]).
fn weighted_by_availability(report: &MetricsReport, values: &[f64]) -> f64 {
    let avail = report.vcpu_availability_means();
    let den: f64 = avail.iter().sum();
    if den == 0.0 {
        return 0.0;
    }
    avail.iter().zip(values).map(|(a, v)| a * v).sum::<f64>() / den
}

/// Mean availability of one VM (mean over its VCPUs) plus the mean
/// half-width of those VCPUs' intervals.
fn vm_availability(report: &MetricsReport, config: &SystemConfig, vm: usize) -> (f64, f64) {
    let stats = &report.vcpu_availability[config.vm_vcpus(vm)];
    let mean = stats.iter().map(|s| s.mean).sum::<f64>() / stats.len() as f64;
    let hw = stats.iter().map(|s| s.half_width).sum::<f64>() / stats.len() as f64;
    (mean, hw)
}

/// Time-unit co-scaling on a derived deterministic variant: fix the load
/// to its central value, a deterministic sync pattern, and the barrier
/// mechanism, then double every time dimension (load, timeslice, warmup,
/// horizon, and the policy's own time parameters). All reported
/// *fractions* must agree within [`OracleOpts::scaling_tol`] — they are
/// dimensionless in the tick unit up to O(timeslice / horizon) boundary
/// effects.
///
/// The variant always uses barriers because spinlock contention does not
/// co-scale: *which* VCPU holds the lock at the instant of a deschedule
/// is a knife-edge phase condition, and the one-tick lock-handoff and
/// unblock latencies stay one tick while everything else doubles, so the
/// whole contention pattern can reorganize (observed spin fractions
/// drifting 2–3× on SEDF gangs). Spin correctness is covered by the
/// differential verdict instead, where both engines face the same
/// phases.
fn scaling_check(case: &FuzzCase, opts: &OracleOpts) -> Vec<Failure> {
    let mut base = case.clone();
    let central = match case.load {
        LoadSpec::Deterministic { value } => value,
        LoadSpec::Uniform { low, high } => (low + high) / 2.0,
        LoadSpec::Exponential { mean } => mean,
    };
    base.load = LoadSpec::Deterministic {
        value: central.round().max(1.0),
    };
    base.sync.every = Some(4);
    base.sync.probability = 0.0;
    base.sync.mechanism = vsched_core::SyncMechanism::Barrier;

    let mut scaled = base.clone();
    scaled.load = LoadSpec::Deterministic {
        value: 2.0 * central.round().max(1.0),
    };
    scaled.timeslice *= 2;
    scaled.warmup *= 2;
    scaled.horizon *= 2;
    scaled.policy = scale_policy(&base.policy);

    let run = |c: &FuzzCase| {
        c.system_config()
            .and_then(|cfg| report(&cfg, c, Engine::Direct, 1, opts.ci_level))
    };
    let (a, b) = match (run(&base), run(&scaled)) {
        (Ok(a), Ok(b)) => (a, b),
        (ra, rb) => {
            return [("base", ra), ("scaled", rb)]
                .into_iter()
                .filter_map(|(name, r)| {
                    r.err().map(|e| Failure {
                        kind: FailureKind::Error,
                        detail: format!("co-scaling {name} run: {e}"),
                    })
                })
                .collect();
        }
    };
    // Utilization and spin are ratios *per active time*, so they are
    // averaged weighted by availability (total useful time over total
    // active time). The unweighted mean is discontinuous at a starvation
    // boundary: a VCPU that a weight-based policy starves outright
    // reports utilization 0 by convention, while the same VCPU getting a
    // 1% sliver in the co-scaled variant reports utilization 1 — an O(1)
    // jump in the average from an O(timeslice/horizon) behavior change.
    let pairs = [
        (
            "avg_vcpu_availability",
            a.avg_vcpu_availability(),
            b.avg_vcpu_availability(),
        ),
        (
            "availability-weighted vcpu_utilization",
            weighted_by_availability(&a, &a.vcpu_utilization_means()),
            weighted_by_availability(&b, &b.vcpu_utilization_means()),
        ),
        (
            "avg_pcpu_utilization",
            a.avg_pcpu_utilization(),
            b.avg_pcpu_utilization(),
        ),
        (
            "availability-weighted vcpu_spin",
            weighted_by_availability(&a, &a.vcpu_spin_means()),
            weighted_by_availability(&b, &b.vcpu_spin_means()),
        ),
    ];
    // Like the rotation check, boundary effects are one partial slice
    // per window: carry the O(timeslice / horizon) term explicitly so a
    // timeslice-30 case is not judged by a timeslice-2 yardstick.
    let tol = opts.scaling_tol + base.timeslice as f64 / base.horizon as f64;
    pairs
        .into_iter()
        .filter(|(_, x, y)| (x - y).abs() > tol)
        .map(|(metric, x, y)| Failure {
            kind: FailureKind::Metamorphic,
            detail: format!(
                "co-scaling: {metric} {x:.4} vs {y:.4} after doubling all time units \
                 (Δ {:.4} > tol {tol:.4})",
                (x - y).abs(),
            ),
        })
        .collect()
}

/// Doubles a policy's time-dimension parameters.
fn scale_policy(policy: &PolicyKind) -> PolicyKind {
    match *policy {
        PolicyKind::RelaxedCo {
            skew_threshold,
            skew_resume,
        } => PolicyKind::RelaxedCo {
            skew_threshold: skew_threshold * 2,
            skew_resume: skew_resume * 2,
        },
        PolicyKind::Credit { refill_period } => PolicyKind::Credit {
            refill_period: refill_period * 2,
        },
        PolicyKind::Sedf { period } => PolicyKind::Sedf { period: period * 2 },
        PolicyKind::Bvt { max_lag } => PolicyKind::Bvt {
            max_lag: max_lag * 2,
        },
        ref p => p.clone(),
    }
}

/// FNV-1a over the bit patterns of every interval in the given reports.
fn digest_of(reports: &[&MetricsReport]) -> String {
    let mut h = Fnv::new();
    for r in reports {
        for group in [
            &r.vcpu_availability,
            &r.vcpu_utilization,
            &r.pcpu_utilization,
            &r.vcpu_spin,
        ] {
            for ci in group.iter() {
                h.push(ci.mean.to_bits());
                h.push(ci.half_width.to_bits());
            }
        }
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CaseGen;

    #[test]
    fn a_generated_case_passes_the_full_oracle() {
        let case = CaseGen::new(11).case(0);
        let outcome = run_case(&case, &OracleOpts::default());
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        assert_ne!(outcome.digest, "-");
    }

    #[test]
    fn replaying_a_case_reproduces_the_digest() {
        let case = CaseGen::new(5).case(2);
        let opts = OracleOpts {
            check_invariants: false,
            check_parallel_determinism: false,
            check_metamorphic: false,
            ..OracleOpts::default()
        };
        let a = run_case(&case, &opts);
        let b = run_case(&case, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_case_is_an_error_outcome() {
        let mut case = CaseGen::new(5).case(0);
        case.pcpus = 0;
        let outcome = run_case(&case, &OracleOpts::default());
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].kind, FailureKind::Error);
    }

    #[test]
    fn trace_verdict_passes_on_generated_churn_cases() {
        let g = CaseGen::new(11);
        let case = (0..50)
            .map(|i| g.case(i))
            .find(|c| !c.trace.is_empty())
            .expect("roughly half the generated cases carry a trace");
        let failures = trace_check(&case, &OracleOpts::default());
        assert!(failures.is_empty(), "failures: {failures:?}");
    }

    #[test]
    fn trace_verdict_skips_static_cases_and_types_bad_traces() {
        let mut case = CaseGen::new(11).case(0);
        case.trace.clear();
        assert!(trace_check(&case, &OracleOpts::default()).is_empty());

        // A hand-edited reproducer with an impossible sequence surfaces
        // as a typed Error failure, not a panic.
        case.trace = vec![crate::case::TraceEventCase {
            at: 100,
            vm: 0,
            op: crate::case::TraceOpCase::Arrive,
        }];
        let failures = trace_check(&case, &OracleOpts::default());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FailureKind::Error);
        assert!(failures[0].detail.contains("trace compile"), "{failures:?}");
    }

    #[test]
    fn compare_reports_flags_divergent_columns() {
        let case = CaseGen::new(3).case(1);
        let config = case.system_config().unwrap();
        let a = super::report(&config, &case, Engine::Direct, 1, 0.95).unwrap();
        let mut b = a.clone();
        b.vcpu_availability[0].mean += 0.5;
        let failures = compare_reports("t", &a, &b, &OracleOpts::default());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FailureKind::Differential);
        assert!(failures[0].detail.contains("vcpu_availability[0]"));
        assert!(compare_reports("t", &a, &a, &OracleOpts::default()).is_empty());
    }
}
