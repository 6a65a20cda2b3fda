//! The verify bridge: exhaustive-state model checking of paper models.
//!
//! `vsched-analyze`'s [`verify_model`] is model-agnostic — it explores a
//! SAN's reachable states and proves whatever certificates its hooks
//! supply. This module binds it to the paper model:
//!
//! * **state** — the flat marking, the embedded policy's snapshot
//!   ([`vsched_core::sched::PolicyState`]), and the invariant checker's
//!   per-VCPU progress ledger as the auxiliary vector;
//! * **edges** — every explored tick edge resumes a fresh
//!   [`InvariantChecker`] at the source snapshot
//!   ([`InvariantChecker::resume_at`]) and steps it once, proving the
//!   runtime catalogue of DESIGN.md §11 on *every* reachable edge rather
//!   than one sampled trajectory;
//! * **cross-check** — the exact place bounds and liveness verdicts are
//!   compared against the structural pass (Farkas semiflow bounds,
//!   bounded-walk enablement); disagreements surface as `stale-bound`.
//!
//! Counterexamples are bridged into the fuzz-reproducer schema
//! ([`VerifyCounterexample`] riding [`Reproducer::verify`]) so
//! `vsched fuzz --replay` re-executes them: the recorded firing trace is
//! replayed step-by-step on the SAN model (bit-identical final marking),
//! and the same scenario is run on both engines, which must agree on the
//! failure.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use vsched_analyze::incidence::explore;
use vsched_analyze::{
    cross_check, replay_trace, semiflow_bounds, verify_model, AnalyzeOpts, Diagnostic, TraceStep,
    VerifyHooks, VerifyOpts, VerifyReport,
};
use vsched_core::observe::TickObserver;
use vsched_core::san_model::{build_analysis_model, AnalysisModel};
use vsched_core::{CoreError, Engine, PolicyKind, Simulation, SystemConfig};
use vsched_san::{Marking, PlaceId};

use crate::case::{FuzzCase, Reproducer};
use crate::invariant::InvariantChecker;

/// One firing of a serialized counterexample trace — the reproducer-file
/// mirror of [`TraceStep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VerifyStep {
    /// Activity index in the built model.
    pub activity: usize,
    /// Activity name (cross-checked on replay).
    pub name: String,
    /// Case completed (0 for single-case activities).
    pub case: usize,
    /// Seed of the fresh RNG stream the firing's gates drew from.
    pub seed: u64,
    /// Whether this was a timed firing (a tick boundary).
    pub timed: bool,
    /// Tick layer the firing belongs to.
    pub tick: u64,
}

/// A machine-checkable verifier counterexample in reproducer form: the
/// concrete SAN firing sequence from the initial marking to the violating
/// state, plus the marking it must end in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VerifyCounterexample {
    /// The certificate the trace refutes (e.g. `deadlock-freedom`).
    pub certificate: String,
    /// What broke at the end of the trace.
    pub detail: String,
    /// Horizon (in ticks) of the verification run that found it.
    pub horizon: u64,
    /// The concrete firing sequence.
    pub trace: Vec<VerifyStep>,
    /// The flat marking the trace replays to, bit-exactly.
    pub final_marking: Vec<i64>,
}

impl VerifyCounterexample {
    /// Converts an analyzer counterexample into reproducer form.
    #[must_use]
    pub fn from_analysis(cx: &vsched_analyze::Counterexample, horizon: u64) -> Self {
        VerifyCounterexample {
            certificate: cx.certificate.clone(),
            detail: cx.detail.clone(),
            horizon,
            trace: cx
                .trace
                .iter()
                .map(|s| VerifyStep {
                    activity: s.activity,
                    name: s.name.clone(),
                    case: s.case,
                    seed: s.seed,
                    timed: s.timed,
                    tick: s.tick,
                })
                .collect(),
            final_marking: cx.final_marking.clone(),
        }
    }

    /// The trace in the analyzer's replay vocabulary.
    #[must_use]
    pub fn trace_steps(&self) -> Vec<TraceStep> {
        self.trace
            .iter()
            .map(|s| TraceStep {
                activity: s.activity,
                name: s.name.clone(),
                case: s.case,
                seed: s.seed,
                timed: s.timed,
                tick: s.tick,
            })
            .collect()
    }
}

/// The result of one bridged verification run.
pub struct VerifyRun {
    /// The built model the run explored (kept so reports can be rendered
    /// with place and activity names).
    pub analysis: AnalysisModel,
    /// The verifier's report: outcome, certificates, exact bounds.
    pub report: VerifyReport,
    /// `stale-bound` findings from cross-checking the exact results
    /// against the structural pass (empty when the passes agree).
    pub cross_findings: Vec<Diagnostic>,
    /// Structural (Farkas semiflow) per-place bounds, for reporting the
    /// exact reachable bounds alongside the structural claims.
    pub structural_bounds: Vec<Option<i64>>,
    /// The first counterexample in reproducer form, when the run found
    /// any.
    pub counterexample: Option<VerifyCounterexample>,
}

impl VerifyRun {
    /// The report's JSON ([`VerifyReport::to_json`]) with the two parts
    /// the text report adds from the cross-check: every `place_bounds`
    /// entry gains a `structural_bound` (`null` when the structural pass
    /// found none), and a `cross_check` array lists the findings as
    /// `{lint, subject, message}`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut body = self.report.to_json(&self.analysis.model);
        let Value::Map(fields) = &mut body else {
            unreachable!("a verify report is a JSON object")
        };
        for (key, value) in fields.iter_mut() {
            if let ("place_bounds", Value::Seq(entries)) = (key.as_str(), value) {
                for (p, entry) in entries.iter_mut().enumerate() {
                    if let Value::Map(entry) = entry {
                        let structural = self.structural_bounds.get(p).copied().flatten();
                        entry.push(("structural_bound".into(), json!(structural)));
                    }
                }
            }
        }
        let findings = self.cross_findings.iter().map(|d| {
            json!({
                "lint": d.lint,
                "subject": d.subject.clone(),
                "message": d.message.clone(),
            })
        });
        fields.push(("cross_check".into(), Value::Seq(findings.collect())));
        body
    }
}

/// The DESIGN.md §11 catalogue as verifier certificates: every name
/// [`InvariantChecker`] can report, so a clean run lists each as PASS.
fn invariant_catalogue() -> Vec<(String, String)> {
    [
        (
            "clock-monotonicity",
            "observed ticks advance by exactly one on every edge",
        ),
        (
            "exclusive-assignment",
            "every PCPU/VCPU assignment is mutual and exclusive",
        ),
        (
            "transition-legality",
            "VCPU status, timeslice and stint transitions are legal",
        ),
        (
            "gang-atomicity",
            "SCS gangs are all-active or all-inactive at every end of tick",
        ),
        (
            "skew-bound",
            "RCS sibling progress skew stays within threshold + slack",
        ),
        (
            "accounting-closure",
            "busy + ready + inactive tallies close over checked ticks",
        ),
        (
            "snapshot-shape",
            "snapshots carry exactly the configured VCPUs and PCPUs",
        ),
    ]
    .into_iter()
    .map(|(n, d)| (n.to_string(), d.to_string()))
    .collect()
}

/// Converts a checker error into the verifier's `(certificate, detail)`
/// vocabulary.
fn invariant_failure(err: CoreError) -> (String, String) {
    match err {
        CoreError::InvariantViolation {
            invariant,
            tick,
            reason,
        } => (invariant, format!("at tick {tick}: {reason}")),
        other => ("invariant-check".to_string(), other.to_string()),
    }
}

/// Rebuilds a full marking from a flat token snapshot.
fn marking_of(template: &Marking, tokens: &[i64]) -> Marking {
    let mut m = template.clone();
    for (p, &t) in tokens.iter().enumerate() {
        m.set(PlaceId::from_index(p), t);
    }
    m
}

/// Exhaustively verifies `config` under `policy`: builds the paper model,
/// explores every reachable state up to the horizon, proves the runtime
/// invariant catalogue on every edge plus deadlock-freedom, exact place
/// bounds and activity liveness, and cross-checks the exact results
/// against the structural pass.
///
/// # Errors
///
/// [`CoreError`] if the model cannot be built.
pub fn verify_config(
    target: &str,
    config: &SystemConfig,
    policy: &PolicyKind,
    opts: &VerifyOpts,
) -> Result<VerifyRun, CoreError> {
    let mut analysis = build_analysis_model(config, policy.create())?;
    let num_places = analysis.model.num_places();

    let report = {
        let layout = analysis.layout.clone();
        let template = analysis.model.initial_marking();
        let clock = layout.clock.index();
        let probe = analysis.error_probe();
        let analysis_ref = &analysis;
        let hooks = VerifyHooks {
            save_policy: Some(Box::new(move || analysis_ref.save_policy_state())),
            load_policy: Some(Box::new(move |s| analysis_ref.load_policy_state(s))),
            check_initial: Some(Box::new({
                let layout = layout.clone();
                let template = template.clone();
                move |m: &[i64]| {
                    let mk = marking_of(&template, m);
                    let vcpus = layout.vcpu_views(&mk, config);
                    let pcpus = layout.pcpu_views(&mk, config);
                    let mut ck = InvariantChecker::for_policy(config, policy);
                    match ck.on_tick(m[clock] as u64, &vcpus, &pcpus) {
                        Ok(()) => Ok(ck.progress().to_vec()),
                        Err(e) => Err(invariant_failure(e)),
                    }
                }
            })),
            edge_check: Some(Box::new({
                let layout = layout.clone();
                let template = template.clone();
                move |_layer, src: &[i64], dst: &[i64], aux: &[u64]| {
                    let src_tick = src[clock] as u64;
                    let dst_tick = dst[clock] as u64;
                    if dst_tick != src_tick + 1 {
                        // A timed firing that is not a clock tick (e.g. a
                        // timed workload generator): not a tick edge, the
                        // catalogue does not constrain it.
                        return Ok(aux.to_vec());
                    }
                    let src_views = layout.vcpu_views(&marking_of(&template, src), config);
                    let dst_m = marking_of(&template, dst);
                    let dst_views = layout.vcpu_views(&dst_m, config);
                    let dst_pcpus = layout.pcpu_views(&dst_m, config);
                    let mut ck = InvariantChecker::for_policy(config, policy);
                    ck.resume_at(src_tick, src_views, aux.to_vec());
                    match ck.on_tick(dst_tick, &dst_views, &dst_pcpus) {
                        Ok(()) => Ok(ck.progress().to_vec()),
                        Err(e) => Err(invariant_failure(e)),
                    }
                }
            })),
            invariants: invariant_catalogue(),
            probe_error: Some(Box::new(move || probe().map(|e| e.to_string()))),
        };
        verify_model(target, &analysis.model, &hooks, opts)
    };

    // Cross-check against the structural pass on the same model: Farkas
    // semiflow bounds vs exact reachable maxima, bounded-walk enablement
    // vs exact liveness.
    let (cross_findings, structural_bounds) = {
        let exploration = explore(&mut analysis.model, &[], &AnalyzeOpts::default());
        let columns: Vec<Vec<i64>> = exploration
            .columns
            .iter()
            .map(|c| c.delta.clone())
            .collect();
        let structural = semiflow_bounds(
            &columns,
            analysis.model.initial_marking().as_slice(),
            num_places,
        );
        let findings = cross_check(
            &analysis.model,
            &report,
            &structural,
            &exploration.enabled_ever,
        );
        (findings, structural)
    };

    let counterexample = report
        .counterexamples
        .first()
        .map(|cx| VerifyCounterexample::from_analysis(cx, opts.horizon));
    Ok(VerifyRun {
        analysis,
        report,
        cross_findings,
        structural_bounds,
        counterexample,
    })
}

/// The planted-deadlock fixture: the 2 VM x 2 VCPU x 2 PCPU paper model
/// with a fully deterministic workload, under a fault-injection wrapper
/// that sabotages Round-Robin's decision at tick 3. Both engines reject
/// the decision; the SAN halts into a dead marking the verifier must
/// catch as a `deadlock-freedom` counterexample.
#[must_use]
pub fn deadlock_fixture_case() -> FuzzCase {
    let policy = PolicyKind::Fault {
        at_tick: 3,
        inner: Box::new(PolicyKind::RoundRobin),
    };
    FuzzCase::verify_scenario(2, 2, 2, 5, policy, 8)
}

/// Verifies the planted-deadlock fixture and packages the counterexample
/// as a replayable reproducer (see [`replay_verify_counterexample`]).
///
/// # Errors
///
/// [`CoreError`] if the fixture model cannot be built.
pub fn verify_fixture(opts: &VerifyOpts) -> Result<(Reproducer, VerifyRun), CoreError> {
    let case = deadlock_fixture_case();
    let config = case.system_config()?;
    let run = verify_config("fixture:deadlock", &config, &case.policy, opts)?;
    let failures = run
        .report
        .counterexamples
        .iter()
        .map(|cx| format!("verify: {}: {}", cx.certificate, cx.detail))
        .collect();
    let rep = Reproducer {
        case,
        failures,
        verify: run.counterexample.clone(),
    };
    Ok((rep, run))
}

/// The outcome of replaying a verifier counterexample.
#[derive(Debug, Clone)]
pub struct VerifyReplay {
    /// The certificate the replayed trace refutes.
    pub certificate: String,
    /// Number of firings replayed.
    pub trace_len: usize,
    /// The marking the replay ended in (bit-identical to the recorded
    /// one, or the replay would have failed).
    pub replayed_marking: Vec<i64>,
    /// The direct engine's error over the counterexample horizon, if any.
    pub direct_error: Option<String>,
    /// The SAN engine's error over the counterexample horizon, if any.
    pub san_error: Option<String>,
}

impl VerifyReplay {
    /// Whether both engines failed the same way (same error text modulo
    /// the tick at which each engine surfaces it).
    #[must_use]
    pub fn engines_agree(&self) -> bool {
        match (&self.direct_error, &self.san_error) {
            (None, None) => true,
            (Some(d), Some(s)) => {
                // Engines may surface the violation at off-by-one ticks;
                // the policy + reason must match.
                d == s || {
                    let stem = |e: &str| e.split(" at tick ").next().unwrap_or(e).to_string();
                    stem(d) == stem(s)
                }
            }
            _ => false,
        }
    }
}

/// Replays a reproducer's verifier counterexample:
///
/// 1. rebuilds the case's SAN model and re-fires the recorded trace
///    step-by-step, requiring a bit-identical final marking;
/// 2. runs the same scenario on both engines over the counterexample's
///    horizon and reports each engine's error.
///
/// # Errors
///
/// A human-readable description of the first divergence: a reproducer
/// without a verify counterexample, an invalid case, or a trace that no
/// longer replays (stale reproducer after a model change).
pub fn replay_verify_counterexample(rep: &Reproducer) -> Result<VerifyReplay, String> {
    let vcx = rep
        .verify
        .as_ref()
        .ok_or_else(|| "reproducer carries no verify counterexample".to_string())?;
    let config = rep
        .case
        .system_config()
        .map_err(|e| format!("invalid case: {e}"))?;
    let analysis = build_analysis_model(&config, rep.case.policy.create())
        .map_err(|e| format!("model build failed: {e}"))?;
    let replayed = replay_trace(&analysis.model, &vcx.trace_steps())?;
    if replayed != vcx.final_marking {
        return Err(format!(
            "trace replayed to {replayed:?} but the reproducer recorded {:?}",
            vcx.final_marking
        ));
    }
    let engine_error = |engine| {
        Simulation::new(
            engine,
            config.clone(),
            rep.case.policy.create(),
            rep.case.seed,
        )
        .and_then(|mut sim| sim.run(vcx.horizon))
        .err()
        .map(|e| e.to_string())
    };
    let direct_error = engine_error(Engine::Direct);
    let san_error = engine_error(Engine::San);
    Ok(VerifyReplay {
        certificate: vcx.certificate.clone(),
        trace_len: vcx.trace.len(),
        replayed_marking: replayed,
        direct_error,
        san_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsched_analyze::VerifyOutcome;

    /// The 2 VM x 2 VCPU x 2 PCPU paper model on the verifier's
    /// deterministic (RNG-free) workload.
    fn paper_2x2x2() -> SystemConfig {
        FuzzCase::verify_scenario(2, 2, 2, 5, PolicyKind::RoundRobin, 0)
            .system_config()
            .expect("valid config")
    }

    #[test]
    fn paper_model_proves_clean_for_every_builtin_policy() {
        let config = paper_2x2x2();
        let opts = VerifyOpts {
            horizon: 6,
            ..VerifyOpts::default()
        };
        for policy in PolicyKind::all() {
            let run = verify_config(policy.label(), &config, &policy, &opts).expect("model builds");
            assert_eq!(
                run.report.outcome(),
                VerifyOutcome::Proved,
                "{}: {:?} ({:?})",
                policy.label(),
                run.report.inconclusive,
                run.report
                    .counterexamples
                    .iter()
                    .map(|cx| (&cx.certificate, &cx.detail))
                    .collect::<Vec<_>>()
            );
            assert!(
                run.report.certificates.iter().all(|c| c.passed),
                "{}: {:?}",
                policy.label(),
                run.report
                    .certificates
                    .iter()
                    .filter(|c| !c.passed)
                    .map(|c| (&c.name, &c.detail))
                    .collect::<Vec<_>>()
            );
            // The seven-invariant catalogue + the engine certificates are
            // all present by name.
            for (name, _) in invariant_catalogue() {
                assert!(
                    run.report.certificates.iter().any(|c| c.name == name),
                    "{name} missing"
                );
            }
            assert!(run.counterexample.is_none());
        }
    }

    #[test]
    fn deadlock_fixture_roundtrips_and_replays_on_both_engines() {
        let (rep, run) = verify_fixture(&VerifyOpts {
            horizon: 8,
            ..VerifyOpts::default()
        })
        .expect("fixture builds");
        assert_eq!(run.report.outcome(), VerifyOutcome::Violated);
        let vcx = rep.verify.as_ref().expect("counterexample recorded");
        assert_eq!(vcx.certificate, "deadlock-freedom");
        assert!(
            vcx.detail.contains("policy violation"),
            "deadlock detail names the recorded violation: {}",
            vcx.detail
        );
        assert!(!vcx.trace.is_empty());

        // Round-trip through the reproducer file format.
        let json = rep.to_json();
        let back: Reproducer = serde_json::from_str(&json).expect("reproducer parses");
        assert_eq!(back, rep);

        // The parsed reproducer replays bit-identically and both engines
        // reject the same sabotaged decision.
        let replay = replay_verify_counterexample(&back).expect("trace replays");
        assert_eq!(replay.replayed_marking, vcx.final_marking);
        assert_eq!(replay.trace_len, vcx.trace.len());
        let direct = replay.direct_error.as_deref().expect("direct engine fails");
        let san = replay.san_error.as_deref().expect("SAN engine fails");
        assert!(
            direct.contains("preemption of unknown VCPU index"),
            "{direct}"
        );
        assert!(san.contains("preemption of unknown VCPU index"), "{san}");
        assert!(replay.engines_agree(), "{direct} vs {san}");
    }

    #[test]
    fn legacy_reproducers_without_verify_still_parse() {
        let rep = Reproducer {
            case: deadlock_fixture_case(),
            failures: vec![],
            verify: None,
        };
        let json = rep.to_json();
        assert!(
            !json.contains("\"verify\""),
            "absent counterexamples are skipped, keeping old readers working"
        );
        let back: Reproducer = serde_json::from_str(&json).expect("parses");
        assert!(back.verify.is_none());
    }

    #[test]
    fn replay_rejects_reproducers_without_a_counterexample() {
        let rep = Reproducer {
            case: deadlock_fixture_case(),
            failures: vec![],
            verify: None,
        };
        let err = replay_verify_counterexample(&rep).unwrap_err();
        assert!(err.contains("no verify counterexample"), "{err}");
    }

    #[test]
    fn state_cap_yields_inconclusive_with_nothing_proved() {
        let config = paper_2x2x2();
        let run = verify_config(
            "capped",
            &config,
            &PolicyKind::RoundRobin,
            &VerifyOpts {
                horizon: 6,
                max_states: 2,
                ..VerifyOpts::default()
            },
        )
        .unwrap();
        assert_eq!(run.report.outcome(), VerifyOutcome::Inconclusive);
        assert!(run.report.certificates.iter().all(|c| !c.passed));
        assert!(
            run.cross_findings.is_empty(),
            "truncated exact data must not raise stale-bound findings"
        );
    }
}
