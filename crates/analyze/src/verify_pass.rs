//! Exhaustive-state verification of built SAN models.
//!
//! The walks in [`crate::incidence`] *sample* behavior; this pass
//! enumerates it. From the initial marking it explores every reachable
//! state up to a tick horizon under a **timed abstraction**:
//!
//! * **instantaneous cascades are exhaustive** — at each unstable marking
//!   every activity of the top enabled priority is fired in every order
//!   (the engine's declaration-order tie-break is one interleaving of the
//!   set explored here), every probabilistic case with positive weight is
//!   followed, and every stochastic gate is probed under one deterministic
//!   RNG stream derived from [`VerifyOpts::seed`];
//! * **timed activities are abstracted to enabled-set successors** — each
//!   enabled timed activity contributes one successor branch per case,
//!   ignoring durations; a layer of the search is one timed firing
//!   ("tick" for the paper model, whose only timed activity is the
//!   period-1 `Clock`).
//!
//! States are deduplicated on their own encoding: the flat marking, the
//! embedded policy's [`PolicyState`] encoding, and the checker's auxiliary
//! vector. Every stored state was first reached by a concrete firing
//! sequence from its parent, so counterexample traces replay verbatim.
//!
//! On the explored graph the pass proves, as named certificates:
//! per-edge invariants supplied by [`VerifyHooks::edge_check`] (the
//! runtime checker's seven-invariant catalogue when driven from
//! `vsched-check`), deadlock-freedom (no reachable dead marking before
//! the horizon), exact per-place token bounds, and exact activity
//! liveness (the `never-enabled` heuristic promoted to a verdict). Bounds
//! and liveness are folded over the markings the search visited, and
//! nothing else.
//! [`cross_check`] compares the exact results against the structural
//! bounds and bounded-walk coverage of [`crate::model_pass`] and raises
//! `stale-bound` where they disagree. A stochastic gate is explored under
//! its one probe stream only — for fully deterministic models (the
//! verifier's intended diet) the exploration is exhaustive.

use std::collections::{HashMap, HashSet};

use serde_json::{json, Value};
use vsched_core::sched::PolicyState;
use vsched_des::Xoshiro256StarStar;
use vsched_san::{ActivityId, Marking, Model};

use crate::lints::{Certificate, Diagnostic, STALE_BOUND};

/// Budget and semantics of one verification run.
#[derive(Debug, Clone)]
pub struct VerifyOpts {
    /// Timed layers to explore (clock ticks for the paper model). States
    /// at the horizon are recorded but not expanded.
    pub horizon: u64,
    /// Cap on stored states; exceeding it makes the run inconclusive
    /// rather than silently partial.
    pub max_states: usize,
    /// Base seed the probe stream of every firing is derived from.
    pub seed: u64,
    /// Record every visited marking in [`VerifyReport::visited_markings`].
    /// Off by default — the set can dwarf the state store — and used by
    /// coverage cross-checks that compare bounded walks against the
    /// exhaustive visit set.
    pub record_markings: bool,
}

impl Default for VerifyOpts {
    fn default() -> Self {
        VerifyOpts {
            horizon: 16,
            max_states: 200_000,
            seed: 0x5EED,
            record_markings: false,
        }
    }
}

/// Outcome of an edge or initial-state check: the successor's auxiliary
/// vector, or `(certificate name, detail)` on violation.
pub type CheckOutcome = Result<Vec<u64>, (String, String)>;

/// Restores a policy snapshot before a probe firing; `false` = rejected.
pub type PolicyLoader<'a> = Box<dyn Fn(&PolicyState) -> bool + 'a>;

/// Checks a root state and produces its auxiliary vector.
pub type InitialCheck<'a> = Box<dyn Fn(&[i64]) -> CheckOutcome + 'a>;

/// Callbacks binding the generic search to a concrete model's semantics.
/// All fields default to absent — a bare model is explored for deadlocks,
/// bounds, and liveness only.
#[derive(Default)]
pub struct VerifyHooks<'a> {
    /// Snapshots the embedded policy. Returning `None` (the policy has no
    /// snapshot support) makes the run inconclusive.
    pub save_policy: Option<Box<dyn Fn() -> Option<PolicyState> + 'a>>,
    /// Restores a policy snapshot before a probe firing. Returning `false`
    /// (snapshot rejected) makes the run inconclusive.
    pub load_policy: Option<PolicyLoader<'a>>,
    /// Checks a root state and produces its auxiliary vector.
    pub check_initial: Option<InitialCheck<'a>>,
    /// Checks one stable-to-stable edge: `(dst layer, src marking, dst
    /// marking, src aux)`. The paper bridge resumes the runtime invariant
    /// checker here, proving its catalogue on every reachable edge.
    #[allow(clippy::type_complexity)]
    pub edge_check: Option<Box<dyn Fn(u64, &[i64], &[i64], &[u64]) -> CheckOutcome + 'a>>,
    /// `(name, description)` of each certificate `edge_check` can fail, so
    /// the report lists them as PASS when no counterexample names them.
    pub invariants: Vec<(String, String)>,
    /// Polled when a dead marking is found, to enrich the deadlock detail
    /// (the paper model's policy-violation cell).
    pub probe_error: Option<Box<dyn Fn() -> Option<String> + 'a>>,
}

/// Verdict of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Every certificate holds on the full explored state space.
    Proved,
    /// At least one certificate has a counterexample.
    Violated,
    /// The search was cut short (state cap, unsupported policy snapshot,
    /// invalid case weights); verdicts are not exhaustive.
    Inconclusive,
}

impl VerifyOutcome {
    /// Lowercase name used in text and JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyOutcome::Proved => "proved",
            VerifyOutcome::Violated => "violated",
            VerifyOutcome::Inconclusive => "inconclusive",
        }
    }
}

/// One firing of a counterexample trace. Traces are concrete: replaying
/// the steps in order from the initial marking with the recorded seeds
/// reproduces the final marking exactly ([`replay_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Activity index in the model.
    pub activity: usize,
    /// Activity name (cross-checked on replay).
    pub name: String,
    /// Case completed (0 for single-case activities).
    pub case: usize,
    /// Seed of the fresh RNG stream the firing's gates drew from.
    pub seed: u64,
    /// Whether this was a timed firing (a layer boundary).
    pub timed: bool,
    /// Layer the firing belongs to (the layer being entered for timed
    /// steps, the layer being closed for instantaneous ones).
    pub tick: u64,
}

/// A machine-checkable violation witness.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The certificate this witness refutes.
    pub certificate: String,
    /// What broke at the end of the trace.
    pub detail: String,
    /// Concrete firing sequence from the initial marking.
    pub trace: Vec<TraceStep>,
    /// The marking the trace ends in.
    pub final_marking: Vec<i64>,
}

/// The result of one verification run.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Target name (config/policy label or fixture name).
    pub target: String,
    /// Overall verdict (defaults to inconclusive until the run finishes).
    pub outcome: Option<VerifyOutcome>,
    /// Horizon the run used.
    pub horizon: u64,
    /// States stored.
    pub states_stored: usize,
    /// Successor states generated before deduplication.
    pub states_generated: usize,
    /// Markings visited, including instantaneous-cascade transients.
    pub markings_seen: usize,
    /// Per-place maximum token count over every visited marking (cascade
    /// transients included).
    pub place_bounds: Vec<i64>,
    /// Exact per-activity liveness: was the activity enabled at any
    /// visited marking?
    pub enabled_ever: Vec<bool>,
    /// Every visited marking — present only when [`VerifyOpts::record_markings`]
    /// is set. Coverage cross-checks use this to prove bounded walks visit
    /// a subset of the reachable space.
    pub visited_markings: Option<HashSet<Vec<i64>>>,
    /// Named certificates, most specific first.
    pub certificates: Vec<Certificate>,
    /// First counterexample per failed certificate.
    pub counterexamples: Vec<Counterexample>,
    /// Why the run is inconclusive, when it is.
    pub inconclusive: Option<String>,
}

impl VerifyReport {
    /// The verdict, treating an unfinished report as inconclusive.
    #[must_use]
    pub fn outcome(&self) -> VerifyOutcome {
        self.outcome.unwrap_or(VerifyOutcome::Inconclusive)
    }

    /// The report as a JSON value with stable field order.
    #[must_use]
    pub fn to_json(&self, model: &Model) -> Value {
        json!({
            "target": self.target.clone(),
            "outcome": self.outcome().as_str(),
            "horizon": self.horizon,
            "states_stored": self.states_stored,
            "states_generated": self.states_generated,
            "markings_seen": self.markings_seen,
            "place_bounds": Value::Seq(
                self.place_bounds
                    .iter()
                    .enumerate()
                    .map(|(p, &b)| {
                        json!({
                            "place": model.place_name(place_at(p)),
                            "bound": b,
                        })
                    })
                    .collect()
            ),
            "never_enabled": Value::Seq(
                self.never_enabled(model)
                    .into_iter()
                    .map(|n| Value::Str(n.to_string()))
                    .collect()
            ),
            "certificates": Value::Seq(
                self.certificates
                    .iter()
                    .map(|c| {
                        json!({
                            "name": c.name.clone(),
                            "description": c.description.clone(),
                            "passed": c.passed,
                            "detail": c.detail.clone(),
                        })
                    })
                    .collect()
            ),
            "counterexamples": Value::Seq(
                self.counterexamples
                    .iter()
                    .map(|cx| {
                        json!({
                            "certificate": cx.certificate.clone(),
                            "detail": cx.detail.clone(),
                            "trace_len": cx.trace.len(),
                        })
                    })
                    .collect()
            ),
            "inconclusive": self.inconclusive.clone(),
        })
    }

    /// Names of activities never enabled at any visited marking — the
    /// exact verdict behind the `never-enabled` heuristic.
    #[must_use]
    pub fn never_enabled<'m>(&self, model: &'m Model) -> Vec<&'m str> {
        self.enabled_ever
            .iter()
            .enumerate()
            .filter(|&(_, &e)| !e)
            .map(|(i, _)| model.activity(ActivityId::from_index(i)).name())
            .collect()
    }

    /// Multi-line human-readable rendering.
    #[must_use]
    pub fn render_text(&self, model: &Model) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "verify {}: {} — {} states stored ({} generated, {} markings seen), \
             horizon {}",
            self.target,
            self.outcome().as_str().to_uppercase(),
            self.states_stored,
            self.states_generated,
            self.markings_seen,
            self.horizon,
        );
        if let Some(reason) = &self.inconclusive {
            let _ = writeln!(out, "  inconclusive: {reason}");
        }
        for c in &self.certificates {
            let verdict = if c.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(
                out,
                "  certificate {} [{verdict}]: {}",
                c.name, c.description
            );
            if !c.detail.is_empty() {
                let _ = writeln!(out, "    {}", c.detail);
            }
        }
        for cx in &self.counterexamples {
            let _ = writeln!(
                out,
                "  counterexample for {}: {} firings ending at {}",
                cx.certificate,
                cx.trace.len(),
                cx.detail
            );
        }
        let never = self.never_enabled(model);
        if never.is_empty() {
            let _ = writeln!(out, "  liveness: every activity enabled somewhere");
        } else {
            let _ = writeln!(out, "  liveness: never enabled: {}", never.join(", "));
        }
        out
    }
}

/// One stored state with its concrete discovery path.
struct StoredState {
    marking: Vec<i64>,
    policy: Option<PolicyState>,
    aux: Vec<u64>,
    tick: u64,
    /// Parent state index, or `usize::MAX` for roots.
    parent: usize,
    /// Concrete firing sequence from the parent's stable marking.
    steps: Vec<TraceStep>,
}

/// Exploration statistics shared across every visited marking.
struct Stats {
    bounds: Vec<i64>,
    enabled_ever: Vec<bool>,
    markings_seen: usize,
    /// Visit set, when recording is requested.
    visited: Option<HashSet<Vec<i64>>>,
}

impl Stats {
    /// Folds one visited marking into the place bounds and the activity
    /// liveness verdicts.
    fn note_marking(&mut self, model: &Model, m: &Marking) {
        self.markings_seen += 1;
        for (b, &t) in self.bounds.iter_mut().zip(m.as_slice()) {
            *b = (*b).max(t);
        }
        if let Some(visited) = &mut self.visited {
            visited.insert(m.as_slice().to_vec());
        }
        for (id, spec) in model.activities() {
            if !self.enabled_ever[id.index()] && spec.enabled(m) {
                self.enabled_ever[id.index()] = true;
            }
        }
    }
}

/// An error that aborts the search as inconclusive.
struct Abort(String);

/// Exhaustively explores `model` up to the horizon and proves the
/// certificate catalogue on the result; hooks bind policy snapshots and
/// per-edge checks.
#[must_use]
pub fn verify_model(
    target: &str,
    model: &Model,
    hooks: &VerifyHooks,
    opts: &VerifyOpts,
) -> VerifyReport {
    let num_places = model.num_places();
    let mut report = VerifyReport {
        target: target.to_string(),
        horizon: opts.horizon,
        place_bounds: vec![0; num_places],
        enabled_ever: vec![false; model.num_activities()],
        ..VerifyReport::default()
    };
    let mut stats = Stats {
        bounds: vec![0; num_places],
        enabled_ever: vec![false; model.num_activities()],
        markings_seen: 0,
        visited: opts.record_markings.then(HashSet::new),
    };
    let seed = probe_seed(opts.seed);

    let mut states: Vec<StoredState> = Vec::new();
    let mut seen: HashMap<Vec<i64>, usize> = HashMap::new();
    let mut generated = 0usize;
    // First counterexample per certificate name, in discovery order.
    let mut counterexamples: Vec<Counterexample> = Vec::new();

    let run = (|| -> Result<(), Abort> {
        // Roots: the instantaneous closure of the initial marking.
        let policy0 = save_policy(hooks)?;
        let init = model.initial_marking();
        let roots = cascade(model, hooks, &init, &policy0, 0, opts, &mut stats)?;
        for (m, pol, steps) in roots {
            generated += 1;
            let aux = match hooks.check_initial.as_ref().map(|f| f(&m)) {
                None => Vec::new(),
                Some(Ok(aux)) => aux,
                Some(Err((name, detail))) => {
                    record_counterexample(
                        &mut counterexamples,
                        name,
                        detail,
                        steps.clone(),
                        m.clone(),
                    );
                    continue;
                }
            };
            insert_state(
                &mut states,
                &mut seen,
                StoredState {
                    marking: m,
                    policy: pol,
                    aux,
                    tick: 0,
                    parent: usize::MAX,
                    steps,
                },
            );
        }

        // BFS by construction: successors always live one layer deeper, so
        // insertion order is layer order.
        let mut next = 0usize;
        while next < states.len() {
            let id = next;
            next += 1;
            if states[id].tick >= opts.horizon {
                continue;
            }
            if states.len() > opts.max_states {
                return Err(Abort(format!(
                    "state cap exceeded: more than {} canonical states before horizon {}",
                    opts.max_states, opts.horizon
                )));
            }
            let src_marking = states[id].marking.clone();
            let src_policy = states[id].policy.clone();
            let src_aux = states[id].aux.clone();
            let dst_tick = states[id].tick + 1;

            let m = marking_from(model, &src_marking);
            let timed = timed_frontier(model, &m);
            if timed.is_empty() {
                // A stable marking with nothing enabled at all: dead.
                let mut detail = "no activity is enabled — the model can never advance".to_string();
                if let Some(msg) = hooks.probe_error.as_ref().and_then(|f| f()) {
                    detail = format!("{detail} (recorded policy violation: {msg})");
                }
                record_counterexample(
                    &mut counterexamples,
                    "deadlock-freedom".to_string(),
                    detail,
                    trace_to(&states, id),
                    src_marking.clone(),
                );
                continue;
            }

            for act in timed {
                let fired = fire_cases(model, hooks, &m, &src_policy, act, seed)?;
                for (m2, pol2, case) in fired {
                    let step = TraceStep {
                        activity: act.index(),
                        name: model.activity(act).name().to_string(),
                        case,
                        seed,
                        timed: true,
                        tick: dst_tick,
                    };
                    let stable = cascade(model, hooks, &m2, &pol2, dst_tick, opts, &mut stats)?;
                    for (dst, pol_dst, mut steps) in stable {
                        generated += 1;
                        steps.insert(0, step.clone());
                        let aux = match hooks
                            .edge_check
                            .as_ref()
                            .map(|f| f(dst_tick, &src_marking, &dst, &src_aux))
                        {
                            None => Vec::new(),
                            Some(Ok(aux)) => aux,
                            Some(Err((name, detail))) => {
                                let mut trace = trace_to(&states, id);
                                trace.extend(steps.clone());
                                record_counterexample(
                                    &mut counterexamples,
                                    name,
                                    detail,
                                    trace,
                                    dst.clone(),
                                );
                                continue;
                            }
                        };
                        insert_state(
                            &mut states,
                            &mut seen,
                            StoredState {
                                marking: dst,
                                policy: pol_dst,
                                aux,
                                tick: dst_tick,
                                parent: id,
                                steps,
                            },
                        );
                    }
                }
            }
        }
        Ok(())
    })();

    report.states_stored = states.len();
    report.states_generated = generated;
    report.markings_seen = stats.markings_seen;
    report.place_bounds = stats.bounds;
    report.enabled_ever = stats.enabled_ever;
    report.visited_markings = stats.visited;

    let exhaustive = match run {
        Ok(()) => true,
        Err(Abort(reason)) => {
            report.inconclusive = Some(reason);
            false
        }
    };

    // Certificates: the hook-supplied invariant catalogue, then
    // deadlock-freedom, then the exact bounds/liveness verdicts.
    let failed = |name: &str| {
        counterexamples
            .iter()
            .find(|cx| cx.certificate == name)
            .map(|cx| cx.detail.clone())
    };
    for (name, description) in &hooks.invariants {
        let failure = failed(name);
        report.certificates.push(Certificate {
            name: name.clone(),
            description: description.clone(),
            passed: failure.is_none() && exhaustive,
            detail: failure.unwrap_or_else(|| {
                report
                    .inconclusive
                    .as_ref()
                    .map(|r| format!("not proved: {r}"))
                    .unwrap_or_default()
            }),
        });
    }
    let deadlock_failure = failed("deadlock-freedom");
    report.certificates.push(Certificate {
        name: "deadlock-freedom".to_string(),
        description: format!(
            "no reachable dead marking within {} timed layers",
            opts.horizon
        ),
        passed: deadlock_failure.is_none() && exhaustive,
        detail: deadlock_failure.unwrap_or_else(|| {
            report
                .inconclusive
                .as_ref()
                .map(|r| format!("not proved: {r}"))
                .unwrap_or_default()
        }),
    });
    report.certificates.push(Certificate {
        name: "place-bounds".to_string(),
        description: "exact per-place token bounds over every visited marking".to_string(),
        passed: exhaustive,
        detail: if exhaustive {
            String::new()
        } else {
            "bounds cover only the truncated exploration".to_string()
        },
    });
    let never: Vec<&str> = report.never_enabled(model);
    report.certificates.push(Certificate {
        name: "activity-liveness".to_string(),
        description: "exact enablement verdict for every activity".to_string(),
        passed: exhaustive,
        detail: if never.is_empty() {
            "every activity is enabled at some reachable marking".to_string()
        } else {
            format!("exactly never enabled: {}", never.join(", "))
        },
    });

    report.counterexamples = counterexamples;
    report.outcome = Some(if !report.counterexamples.is_empty() {
        VerifyOutcome::Violated
    } else if !exhaustive {
        VerifyOutcome::Inconclusive
    } else {
        VerifyOutcome::Proved
    });
    report
}

/// Cross-checks the exact results against the structural pass: a
/// structural place bound below an exactly reached token count, or a
/// bounded-walk `never-enabled` claim on an activity the exhaustive
/// search did enable, is a stale claim (`stale-bound`, Error).
///
/// The opposite directions are *not* findings: structural bounds may
/// legitimately exceed the horizon-bounded exact maximum, and a walk may
/// visit markings beyond the verifier's horizon.
#[must_use]
pub fn cross_check(
    model: &Model,
    report: &VerifyReport,
    structural_bounds: &[Option<i64>],
    walk_enabled: &[bool],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if report.outcome() == VerifyOutcome::Inconclusive {
        return out; // truncated exact data proves nothing about staleness
    }
    for (p, &exact) in report.place_bounds.iter().enumerate() {
        let Some(Some(claimed)) = structural_bounds.get(p) else {
            continue;
        };
        if exact > *claimed {
            out.push(Diagnostic::new(
                STALE_BOUND,
                model.place_name(place_at(p)).to_string(),
                format!(
                    "exhaustive exploration reached {exact} tokens but the structural \
                     semiflow bound claims at most {claimed} — the structural analysis \
                     (and anything built on it, e.g. dead-activity) is stale"
                ),
            ));
        }
    }
    for (i, &walk) in walk_enabled.iter().enumerate() {
        let exact = report.enabled_ever.get(i).copied().unwrap_or(false);
        if !walk && exact {
            out.push(Diagnostic::new(
                STALE_BOUND,
                model.activity(ActivityId::from_index(i)).name().to_string(),
                "bounded walks never enabled this activity but exhaustive exploration \
                 did — the never-enabled heuristic is stale at this budget"
                    .to_string(),
            ));
        }
    }
    out
}

/// Replays a counterexample trace from the initial marking and returns the
/// final marking. Fails loudly on any divergence: unknown activity, name
/// mismatch, firing while disabled, or a case that is unreachable under
/// the recorded seed.
///
/// The model must be freshly built (embedded policy in its initial state):
/// along one concrete path the policy evolves deterministically from the
/// recorded firings and seeds, so no snapshots are needed.
///
/// # Errors
///
/// A human-readable description of the first divergence.
pub fn replay_trace(model: &Model, trace: &[TraceStep]) -> Result<Vec<i64>, String> {
    let mut m = model.initial_marking();
    for (i, step) in trace.iter().enumerate() {
        if step.activity >= model.num_activities() {
            return Err(format!(
                "step {i}: activity index {} out of range",
                step.activity
            ));
        }
        let act = ActivityId::from_index(step.activity);
        let spec = model.activity(act);
        if spec.name() != step.name {
            return Err(format!(
                "step {i}: activity {} is named `{}`, trace says `{}`",
                step.activity,
                spec.name(),
                step.name
            ));
        }
        if !spec.enabled(&m) {
            return Err(format!(
                "step {i}: `{}` is not enabled at the replayed marking",
                step.name
            ));
        }
        let mut rng = Xoshiro256StarStar::seed_from(step.seed);
        let Some(weights) = model.probe_cases(act, &mut m, &mut rng) else {
            return Err(format!(
                "step {i}: `{}` has invalid case weights",
                step.name
            ));
        };
        if step.case >= weights.len() || weights[step.case] <= 0.0 {
            return Err(format!(
                "step {i}: case {} of `{}` has no positive weight",
                step.case, step.name
            ));
        }
        model.probe_complete_case(act, step.case, &mut m, &mut rng);
    }
    Ok(m.as_slice().to_vec())
}

// ----- Search internals ---------------------------------------------------

/// Explores every maximal instantaneous firing sequence from `m0` and
/// returns the stable markings reached, each with its policy snapshot and
/// concrete firing steps. Interleavings that converge to the same
/// `(marking, policy)` pair are merged on the fly, so commuting cascades
/// stay polynomial.
#[allow(clippy::type_complexity)]
fn cascade(
    model: &Model,
    hooks: &VerifyHooks,
    m0: &Marking,
    pol0: &Option<PolicyState>,
    tick: u64,
    opts: &VerifyOpts,
    stats: &mut Stats,
) -> Result<Vec<(Vec<i64>, Option<PolicyState>, Vec<TraceStep>)>, Abort> {
    let seed = probe_seed(opts.seed);
    let mut stable = Vec::new();
    let mut seen: HashSet<Vec<i64>> = HashSet::new();
    seen.insert(encode(m0.as_slice(), pol0, &[]));
    let mut work: Vec<(Marking, Option<PolicyState>, Vec<TraceStep>)> =
        vec![(m0.clone(), pol0.clone(), Vec::new())];
    while let Some((m, pol, steps)) = work.pop() {
        stats.note_marking(model, &m);
        let inst = instantaneous_frontier(model, &m);
        if inst.is_empty() {
            stable.push((m.as_slice().to_vec(), pol, steps));
            continue;
        }
        if seen.len() > opts.max_states {
            return Err(Abort(format!(
                "instantaneous cascade exceeded {} markings at layer {tick} — \
                 possible zeno loop",
                opts.max_states
            )));
        }
        for act in inst {
            let fired = fire_cases(model, hooks, &m, &pol, act, seed)?;
            for (m2, pol2, case) in fired {
                if !seen.insert(encode(m2.as_slice(), &pol2, &[])) {
                    continue;
                }
                let mut s2 = steps.clone();
                s2.push(TraceStep {
                    activity: act.index(),
                    name: model.activity(act).name().to_string(),
                    case,
                    seed,
                    timed: false,
                    tick,
                });
                work.push((m2, pol2, s2));
            }
        }
    }
    Ok(stable)
}

/// Fires `act` from `(m, pol)` under one seed, following every case with
/// positive weight. Returns `(marking, policy, case)` per branch.
#[allow(clippy::type_complexity)]
fn fire_cases(
    model: &Model,
    hooks: &VerifyHooks,
    m: &Marking,
    pol: &Option<PolicyState>,
    act: ActivityId,
    seed: u64,
) -> Result<Vec<(Marking, Option<PolicyState>, usize)>, Abort> {
    load_policy(hooks, pol)?;
    let mut probe = m.clone();
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    let Some(weights) = model.probe_cases(act, &mut probe, &mut rng) else {
        return Err(Abort(format!(
            "`{}` produced invalid case weights on a reachable marking",
            model.activity(act).name()
        )));
    };
    let mut out = Vec::new();
    for (case, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        load_policy(hooks, pol)?;
        let mut m2 = m.clone();
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let _ = model.probe_cases(act, &mut m2, &mut rng);
        model.probe_complete_case(act, case, &mut m2, &mut rng);
        let pol2 = save_policy(hooks)?;
        out.push((m2, pol2, case));
    }
    Ok(out)
}

/// Inserts a state under its encoding; duplicates are dropped.
fn insert_state(
    states: &mut Vec<StoredState>,
    seen: &mut HashMap<Vec<i64>, usize>,
    state: StoredState,
) {
    let key = encode(&state.marking, &state.policy, &state.aux);
    if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(key) {
        e.insert(states.len());
        states.push(state);
    }
}

/// Flat, unambiguous state encoding: marking, policy snapshot, aux — each
/// section length-prefixed.
fn encode(marking: &[i64], policy: &Option<PolicyState>, aux: &[u64]) -> Vec<i64> {
    let mut out = Vec::with_capacity(marking.len() + aux.len() + 8);
    out.extend_from_slice(marking);
    match policy {
        None => out.push(-1),
        Some(p) => {
            out.push(-2);
            p.encode_into(&mut out);
        }
    }
    out.push(aux.len() as i64);
    out.extend(aux.iter().map(|&v| v as i64));
    out
}

/// The enabled instantaneous activities of the top enabled priority, in
/// declaration order (every ordering of this set is explored).
fn instantaneous_frontier(model: &Model, m: &Marking) -> Vec<ActivityId> {
    let mut top: Option<i32> = None;
    let mut out: Vec<ActivityId> = Vec::new();
    for (id, spec) in model.activities() {
        let Some(p) = spec.timing().priority() else {
            continue;
        };
        if !spec.enabled(m) {
            continue;
        }
        match top {
            Some(t) if p < t => {}
            Some(t) if p == t => out.push(id),
            _ => {
                top = Some(p);
                out = vec![id];
            }
        }
    }
    out
}

/// The enabled timed activities (the abstraction's successor branches).
/// Only meaningful at stable markings.
fn timed_frontier(model: &Model, m: &Marking) -> Vec<ActivityId> {
    model
        .activities()
        .filter(|(_, spec)| spec.timing().priority().is_none() && spec.enabled(m))
        .map(|(id, _)| id)
        .collect()
}

/// Rebuilds a full trace from the parent chain.
fn trace_to(states: &[StoredState], id: usize) -> Vec<TraceStep> {
    let mut chain = Vec::new();
    let mut cur = id;
    while cur != usize::MAX {
        chain.push(cur);
        cur = states[cur].parent;
    }
    chain.reverse();
    chain
        .into_iter()
        .flat_map(|i| states[i].steps.iter().cloned())
        .collect()
}

/// Records the first counterexample per certificate name.
fn record_counterexample(
    out: &mut Vec<Counterexample>,
    certificate: String,
    detail: String,
    trace: Vec<TraceStep>,
    final_marking: Vec<i64>,
) {
    if out.iter().any(|cx| cx.certificate == certificate) {
        return;
    }
    out.push(Counterexample {
        certificate,
        detail,
        trace,
        final_marking,
    });
}

/// Saves the embedded policy's state through the hook.
fn save_policy(hooks: &VerifyHooks) -> Result<Option<PolicyState>, Abort> {
    match &hooks.save_policy {
        None => Ok(None),
        Some(f) => f().map(Some).ok_or_else(|| {
            Abort("the policy does not support state snapshots (save_state returned None)".into())
        }),
    }
}

/// Restores a policy snapshot through the hook.
fn load_policy(hooks: &VerifyHooks, pol: &Option<PolicyState>) -> Result<(), Abort> {
    match (&hooks.load_policy, pol) {
        (Some(f), Some(p)) => {
            if f(p) {
                Ok(())
            } else {
                Err(Abort(
                    "the policy rejected one of its own state snapshots".into(),
                ))
            }
        }
        _ => Ok(()),
    }
}

/// The probe stream's seed: the splitmix64 finalizer of the base seed.
fn probe_seed(base: u64) -> u64 {
    let x = (base ^ (base >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Clones the model's initial marking and overwrites it with `tokens`.
fn marking_from(model: &Model, tokens: &[i64]) -> Marking {
    let mut m = model.initial_marking();
    for (p, &t) in tokens.iter().enumerate() {
        m.set(place_at(p), t);
    }
    m
}

/// Rebuilds a `PlaceId` from a raw marking index.
fn place_at(index: usize) -> vsched_san::PlaceId {
    vsched_san::PlaceId::from_index(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsched_san::ModelBuilder;

    /// `pump` moves one token per layer from an infinite well into `acc`.
    fn counter_model() -> Model {
        let mut mb = ModelBuilder::new();
        let src = mb.place("src", 1).unwrap();
        let acc = mb.place("acc", 0).unwrap();
        mb.activity("pump")
            .unwrap()
            .timed(vsched_des::Dist::Deterministic { value: 1.0 })
            .input_arc(src, 1)
            .output_arc(src, 1)
            .output_arc(acc, 1)
            .done()
            .unwrap();
        let _ = acc;
        mb.build().unwrap()
    }

    #[test]
    fn counter_model_is_proved_with_exact_bounds() {
        let model = counter_model();
        let opts = VerifyOpts {
            horizon: 5,
            ..VerifyOpts::default()
        };
        let report = verify_model("counter", &model, &VerifyHooks::default(), &opts);
        assert_eq!(report.outcome(), VerifyOutcome::Proved);
        assert_eq!(report.states_stored, 6, "initial + one per layer");
        assert_eq!(report.place_bounds, vec![1, 5], "src stays 1, acc hits 5");
        assert!(report.never_enabled(&model).is_empty());
        assert!(report.certificates.iter().all(|c| c.passed));
    }

    #[test]
    fn deadlock_is_caught_with_a_replayable_trace() {
        let mut mb = ModelBuilder::new();
        let fuel = mb.place("fuel", 3).unwrap();
        mb.activity("burn")
            .unwrap()
            .timed(vsched_des::Dist::Deterministic { value: 1.0 })
            .input_arc(fuel, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let report = verify_model(
            "burnout",
            &model,
            &VerifyHooks::default(),
            &VerifyOpts {
                horizon: 10,
                ..VerifyOpts::default()
            },
        );
        assert_eq!(report.outcome(), VerifyOutcome::Violated);
        let cx = report
            .counterexamples
            .iter()
            .find(|cx| cx.certificate == "deadlock-freedom")
            .expect("deadlock counterexample");
        assert_eq!(cx.trace.len(), 3, "three burns empty the tank");
        assert_eq!(cx.final_marking, vec![0]);
        let replayed = replay_trace(&model, &cx.trace).expect("trace replays");
        assert_eq!(replayed, cx.final_marking, "bit-identical replay");
        let cert = report
            .certificates
            .iter()
            .find(|c| c.name == "deadlock-freedom")
            .unwrap();
        assert!(!cert.passed);
    }

    #[test]
    fn all_instantaneous_interleavings_are_explored() {
        // One token, two same-priority contenders: both outcomes must be
        // reached even though the engine itself would deterministically
        // pick `grab_a` (declaration order).
        let mut mb = ModelBuilder::new();
        let t = mb.place("t", 1).unwrap();
        let a = mb.place("a", 0).unwrap();
        let b = mb.place("b", 0).unwrap();
        mb.activity("grab_a")
            .unwrap()
            .instantaneous(5)
            .input_arc(t, 1)
            .output_arc(a, 1)
            .done()
            .unwrap();
        mb.activity("grab_b")
            .unwrap()
            .instantaneous(5)
            .input_arc(t, 1)
            .output_arc(b, 1)
            .done()
            .unwrap();
        // Keep the `a` branch alive so only the `b` branch deadlocks.
        mb.activity("spin_a")
            .unwrap()
            .timed(vsched_des::Dist::Deterministic { value: 1.0 })
            .input_arc(a, 1)
            .output_arc(a, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let report = verify_model(
            "race",
            &model,
            &VerifyHooks::default(),
            &VerifyOpts {
                horizon: 3,
                ..VerifyOpts::default()
            },
        );
        assert_eq!(report.outcome(), VerifyOutcome::Violated);
        assert_eq!(
            report.place_bounds,
            vec![1, 1, 1],
            "both grab outcomes visited"
        );
        let cx = &report.counterexamples[0];
        assert_eq!(cx.certificate, "deadlock-freedom");
        assert_eq!(
            cx.trace.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["grab_b"],
            "the counterexample takes the non-engine interleaving"
        );
        assert_eq!(replay_trace(&model, &cx.trace).unwrap(), cx.final_marking);
    }

    #[test]
    fn every_positive_weight_case_is_followed() {
        let mut mb = ModelBuilder::new();
        let coin = mb.place("coin", 1).unwrap();
        let heads = mb.place("heads", 0).unwrap();
        let tails = mb.place("tails", 0).unwrap();
        mb.activity("flip")
            .unwrap()
            .timed(vsched_des::Dist::Deterministic { value: 1.0 })
            .input_arc(coin, 1)
            .case(0.5)
            .output_arc(heads, 1)
            .case(0.5)
            .output_arc(tails, 1)
            .done()
            .unwrap();
        // Both outcomes stay alive so the flip branch point is the only
        // interesting structure.
        for (name, p) in [("spin_h", heads), ("spin_t", tails)] {
            mb.activity(name)
                .unwrap()
                .timed(vsched_des::Dist::Deterministic { value: 1.0 })
                .input_arc(p, 1)
                .output_arc(p, 1)
                .done()
                .unwrap();
        }
        let model = mb.build().unwrap();
        let report = verify_model(
            "flip",
            &model,
            &VerifyHooks::default(),
            &VerifyOpts {
                horizon: 2,
                ..VerifyOpts::default()
            },
        );
        assert_eq!(report.outcome(), VerifyOutcome::Proved);
        assert_eq!(
            report.place_bounds,
            vec![1, 1, 1],
            "heads and tails both reached — case enumeration, not sampling"
        );
    }

    #[test]
    fn state_cap_is_inconclusive_not_success() {
        let model = counter_model();
        let report = verify_model(
            "counter",
            &model,
            &VerifyHooks::default(),
            &VerifyOpts {
                horizon: 10,
                max_states: 2,
                ..VerifyOpts::default()
            },
        );
        assert_eq!(report.outcome(), VerifyOutcome::Inconclusive);
        assert!(report
            .inconclusive
            .as_deref()
            .unwrap()
            .contains("state cap"));
        assert!(
            report.certificates.iter().all(|c| !c.passed),
            "nothing is proved by a truncated search"
        );
    }

    /// Two structurally identical random halves sharing a fuel tank. Every
    /// timed activity burns one fuel token, so `fuel` layers exhaust the
    /// reachable space and a bounded walk can never outrun the verifier's
    /// horizon.
    fn mirrored_random_model(seed: u64, fuel: i64) -> Model {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let n = 2 + rng.next_below(3) as usize;
        let tokens: Vec<i64> = (0..n).map(|_| rng.next_below(3) as i64).collect();
        // Instantaneous moves only push tokens to strictly higher place
        // indices, so cascades terminate by construction.
        let num_moves = rng.next_below(3) as usize;
        let moves: Vec<(usize, usize)> = (0..num_moves)
            .map(|_| {
                let src = rng.next_below((n - 1) as u64) as usize;
                let dst = src + 1 + rng.next_below((n - 1 - src) as u64) as usize;
                (src, dst)
            })
            .collect();
        let num_ticks = 1 + rng.next_below(2) as usize;
        let ticks: Vec<(usize, usize)> = (0..num_ticks)
            .map(|_| {
                (
                    rng.next_below(n as u64) as usize,
                    rng.next_below(n as u64) as usize,
                )
            })
            .collect();

        let mut mb = ModelBuilder::new();
        let fuel_place = mb.place("fuel", fuel).unwrap();
        let mut halves = Vec::new();
        for half in ["a", "b"] {
            let places: Vec<_> = tokens
                .iter()
                .enumerate()
                .map(|(i, &t)| mb.place(&format!("p{i}_{half}"), t).unwrap())
                .collect();
            halves.push(places);
        }
        for (half, places) in ["a", "b"].iter().zip(&halves) {
            for (i, &(src, dst)) in moves.iter().enumerate() {
                mb.activity(&format!("move{i}_{half}"))
                    .unwrap()
                    .instantaneous(5)
                    .input_arc(places[src], 1)
                    .output_arc(places[dst], 1)
                    .done()
                    .unwrap();
            }
            for (i, &(src, dst)) in ticks.iter().enumerate() {
                mb.activity(&format!("tick{i}_{half}"))
                    .unwrap()
                    .timed(vsched_des::Dist::Deterministic { value: 1.0 })
                    .input_arc(fuel_place, 1)
                    .input_arc(places[src], 1)
                    .output_arc(places[dst], 1)
                    .done()
                    .unwrap();
            }
        }
        mb.build().unwrap()
    }

    #[test]
    fn bounded_walks_visit_a_subset_of_the_exhaustive_space() {
        for seed in [1u64, 7, 23, 91, 204] {
            let fuel = 3i64;
            let mut model = mirrored_random_model(seed, fuel);
            let report = verify_model(
                "mirror",
                &model,
                &VerifyHooks::default(),
                &VerifyOpts {
                    horizon: fuel as u64,
                    record_markings: true,
                    ..VerifyOpts::default()
                },
            );
            assert_ne!(report.outcome(), VerifyOutcome::Inconclusive, "seed {seed}");
            let visited = report.visited_markings.as_ref().expect("recording on");
            // Every marking a bounded walk samples lies inside the
            // exhaustively verified space.
            let walk = crate::incidence::explore(
                &mut model,
                &[],
                &crate::AnalyzeOpts {
                    walks: 4,
                    steps: 64,
                    ..crate::AnalyzeOpts::default()
                },
            );
            assert!(!walk.visited.is_empty(), "seed {seed}");
            for m in &walk.visited {
                assert!(
                    visited.contains(m),
                    "seed {seed}: walk marking {m:?} outside the exhaustive set"
                );
            }
        }
    }

    #[test]
    fn edge_check_failures_become_certificates_with_traces() {
        let model = counter_model();
        let hooks = VerifyHooks {
            invariants: vec![("acc-cap".to_string(), "acc never exceeds 2".to_string())],
            edge_check: Some(Box::new(|_tick, _src, dst: &[i64], _aux| {
                if dst[1] > 2 {
                    Err(("acc-cap".to_string(), format!("acc reached {}", dst[1])))
                } else {
                    Ok(Vec::new())
                }
            })),
            ..VerifyHooks::default()
        };
        let report = verify_model(
            "capped",
            &model,
            &hooks,
            &VerifyOpts {
                horizon: 5,
                ..VerifyOpts::default()
            },
        );
        assert_eq!(report.outcome(), VerifyOutcome::Violated);
        let cx = report
            .counterexamples
            .iter()
            .find(|cx| cx.certificate == "acc-cap")
            .expect("violation recorded");
        assert_eq!(cx.trace.len(), 3, "shortest witness: three pumps");
        assert_eq!(replay_trace(&model, &cx.trace).unwrap(), cx.final_marking);
        let cert = report
            .certificates
            .iter()
            .find(|c| c.name == "acc-cap")
            .unwrap();
        assert!(!cert.passed);
        assert!(cert.detail.contains("acc reached 3"));
        // The violating edge is not expanded: deadlock-freedom still holds
        // on the good subgraph.
        assert!(report
            .certificates
            .iter()
            .any(|c| c.name == "deadlock-freedom" && c.passed));
    }

    #[test]
    fn replay_rejects_corrupt_traces() {
        let model = counter_model();
        let good = TraceStep {
            activity: 0,
            name: "pump".to_string(),
            case: 0,
            seed: 1,
            timed: true,
            tick: 1,
        };
        let renamed = TraceStep {
            name: "pmup".to_string(),
            ..good.clone()
        };
        assert!(replay_trace(&model, &[renamed]).is_err());
        let out_of_range = TraceStep {
            activity: 7,
            ..good.clone()
        };
        assert!(replay_trace(&model, &[out_of_range]).is_err());
        let bad_case = TraceStep { case: 3, ..good };
        assert!(replay_trace(&model, &[bad_case]).is_err());
    }

    #[test]
    fn cross_check_flags_stale_claims_only() {
        let model = counter_model();
        let report = verify_model(
            "counter",
            &model,
            &VerifyHooks::default(),
            &VerifyOpts {
                horizon: 4,
                ..VerifyOpts::default()
            },
        );
        // acc reaches 4; a structural claim of 2 is stale, a claim of 10
        // is legitimate slack; a walk that never saw `pump` enabled is a
        // stale never-enabled verdict.
        let diags = cross_check(&model, &report, &[Some(1), Some(2)], &[false]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.lint == "stale-bound"));
        assert!(diags.iter().any(|d| d.subject == "acc"));
        assert!(diags.iter().any(|d| d.subject == "pump"));
        let clean = cross_check(&model, &report, &[Some(1), Some(10)], &[true]);
        assert!(clean.is_empty(), "slack is not staleness: {clean:?}");
    }
}
