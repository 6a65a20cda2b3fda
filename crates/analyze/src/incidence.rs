//! Incidence-matrix extraction by bounded concrete exploration.
//!
//! The incidence matrix of a SAN has one column per way an activity can
//! change the marking. For a **linear** activity (no gate functions, fixed
//! case weights) each case's column is known exactly from its arcs. A
//! **gated** activity hides part of its marking change inside `FnMut`
//! closures, so its columns are *observed*: random walks from the initial
//! marking fire enabled activities under the engine's priority rules and
//! record every distinct marking delta the activity produces. Observed
//! columns make downstream conclusions sound with respect to the explored
//! behavior rather than all behavior — the model pass says so where it
//! matters.
//!
//! The walks double as the checking engine for declared relation
//! invariants (every visited marking) and as the driver for instantaneous
//! commutation probes (same-priority pairs fired in both orders on cloned
//! markings with identical RNG streams).

use std::collections::HashSet;

use vsched_core::san_model::{InvariantKind, ModelInvariant};
use vsched_des::Xoshiro256StarStar;
use vsched_san::{ActivityId, Marking, Model};

use crate::lints::{
    Diagnostic, CONFUSED_INSTANTANEOUS, INVALID_CASE_WEIGHTS, NONCONSERVING_GATE, STALE_READ_SET,
    STALE_WRITE_SET,
};
use crate::AnalyzeOpts;

/// One column of the incidence matrix.
#[derive(Debug, Clone)]
pub struct Column {
    /// The activity this column belongs to.
    pub activity: ActivityId,
    /// Display label (`name`, `name#case`, or `name?` for observed).
    pub label: String,
    /// Whether the column is exact (from arcs) or observed (from probing).
    pub exact: bool,
    /// Marking delta per place, indexed by place index.
    pub delta: Vec<i64>,
}

/// Everything the walks learned about the model.
#[derive(Debug)]
pub struct Exploration {
    /// All incidence columns: exact ones first, then observed ones in
    /// discovery order.
    pub columns: Vec<Column>,
    /// Number of exact columns.
    pub linear_columns: usize,
    /// Number of observed columns.
    pub probed_columns: usize,
    /// Per activity: was it ever enabled in a visited marking?
    pub enabled_ever: Vec<bool>,
    /// Per activity: did it ever fire?
    pub fired_ever: Vec<bool>,
    /// Per activity and case: was the case ever selected?
    pub case_seen: Vec<Vec<bool>>,
    /// Per declared invariant: first relation failure, as
    /// `(subject, detail)`. `None` means every check passed.
    pub relation_failures: Vec<Option<(String, String)>>,
    /// Findings raised during exploration (`invalid-case-weights`,
    /// `confused-instantaneous`, relation `nonconserving-gate`).
    pub diagnostics: Vec<Diagnostic>,
    /// Markings visited across all walks (including the initial one).
    pub markings_visited: usize,
    /// Every visited marking, in visit order (duplicates included). The
    /// verify pass compares this against its exhaustive visit set to
    /// cross-check that bounded walks never escape the reachable space it
    /// enumerates.
    pub visited: Vec<Vec<i64>>,
}

/// Runs the bounded exploration. `expected` supplies the relation
/// invariants to check at every visited marking (linear invariants are
/// checked against the columns by the model pass instead).
pub fn explore(model: &mut Model, expected: &[ModelInvariant], opts: &AnalyzeOpts) -> Exploration {
    let num_activities = model.num_activities();
    let num_places = model.num_places();
    let mut exp = Exploration {
        columns: Vec::new(),
        linear_columns: 0,
        probed_columns: 0,
        enabled_ever: vec![false; num_activities],
        fired_ever: vec![false; num_activities],
        case_seen: (0..num_activities)
            .map(|i| vec![false; model.activity(ActivityId::from_index(i)).num_cases()])
            .collect(),
        relation_failures: vec![None; expected.len()],
        diagnostics: Vec::new(),
        markings_visited: 0,
        visited: Vec::new(),
    };

    // Exact columns and static weight checks, straight from the specs.
    for (id, spec) in model.activities() {
        if spec.has_gate_functions() || spec.has_dynamic_case_weights() {
            continue;
        }
        if let Some(w) = spec.fixed_case_weights() {
            let total: f64 = w.iter().sum();
            if w.len() > 1 && !(total > 0.0 && total.is_finite()) {
                exp.diagnostics.push(Diagnostic::new(
                    INVALID_CASE_WEIGHTS,
                    spec.name(),
                    format!("fixed case weights {w:?} have non-positive total {total}"),
                ));
            }
        }
        for case in 0..spec.num_cases() {
            let mut delta = vec![0i64; num_places];
            for &(p, w) in spec.input_arcs() {
                delta[p.index()] -= w;
            }
            for &(p, w) in spec.case_output_arcs(case) {
                delta[p.index()] += w;
            }
            let label = if spec.num_cases() == 1 {
                spec.name().to_string()
            } else {
                format!("{}#{case}", spec.name())
            };
            exp.columns.push(Column {
                activity: id,
                label,
                exact: true,
                delta,
            });
        }
    }
    exp.linear_columns = exp.columns.len();

    let initial = model.initial_marking();
    check_relations(&mut exp, expected, &initial, "initial marking");
    exp.markings_visited += 1;
    exp.visited.push(initial.as_slice().to_vec());

    let mut seen_deltas: Vec<HashSet<Vec<i64>>> = vec![HashSet::new(); num_activities];
    let mut probed_pairs: HashSet<(usize, usize)> = HashSet::new();
    let mut probes_left = opts.commutation_probes;
    let mut weight_failed: Vec<bool> = vec![false; num_activities];
    let mut stale_flagged: Vec<bool> = vec![false; num_activities];
    let mut write_flagged: Vec<bool> = vec![false; num_activities];
    let mut read_probes_left = opts.read_set_probes;
    if read_probes_left > 0 {
        read_probes_left -= 1;
        check_read_sets(model, &initial, &mut exp, &mut stale_flagged);
    }

    for walk in 0..opts.walks {
        let mut rng = Xoshiro256StarStar::seed_from(
            opts.seed ^ (walk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut marking = initial.clone();
        'walk: for step in 0..opts.steps {
            let (candidates, instantaneous) = frontier(model, &marking, &mut exp.enabled_ever);
            if candidates.is_empty() {
                break; // deadlock or quiescence: the walk is over
            }

            // Commutation probe: two same-priority instantaneous activities
            // fired in both orders on clones, identical RNG streams.
            if instantaneous && candidates.len() >= 2 && probes_left > 0 {
                let a = candidates[pick(&mut rng, candidates.len())];
                let mut b = candidates[pick(&mut rng, candidates.len())];
                if a == b {
                    b = candidates
                        [(candidates.iter().position(|&c| c == a).unwrap() + 1) % candidates.len()];
                }
                let key = (a.min(b), a.max(b));
                if a != b && !probed_pairs.contains(&key) {
                    probed_pairs.insert(key);
                    probes_left -= 1;
                    let probe_seed = opts
                        .seed
                        .wrapping_add((walk as u64) << 32)
                        .wrapping_add(step as u64);
                    if let Some(msg) = commutation_mismatch(model, &marking, a, b, probe_seed) {
                        let names = format!(
                            "{} / {}",
                            model.activity(ActivityId::from_index(a)).name(),
                            model.activity(ActivityId::from_index(b)).name()
                        );
                        exp.diagnostics
                            .push(Diagnostic::new(CONFUSED_INSTANTANEOUS, names, msg));
                    }
                }
            }

            let idx = candidates[pick(&mut rng, candidates.len())];
            let act = ActivityId::from_index(idx);
            let before = marking.clone();
            let Some(case) = model.probe_fire(act, &mut marking, &mut rng) else {
                if !weight_failed[idx] {
                    weight_failed[idx] = true;
                    exp.diagnostics.push(Diagnostic::new(
                        INVALID_CASE_WEIGHTS,
                        model.activity(act).name(),
                        "dynamic case weights returned a non-positive/non-finite total \
                         (or the wrong arity) on a reachable marking"
                            .to_string(),
                    ));
                }
                break 'walk; // the marking absorbed a partial firing
            };
            exp.fired_ever[idx] = true;
            exp.case_seen[idx][case] = true;
            exp.markings_visited += 1;
            exp.visited.push(marking.as_slice().to_vec());

            let spec = model.activity(act);
            if spec.has_gate_functions() || spec.has_dynamic_case_weights() {
                let delta: Vec<i64> = marking
                    .as_slice()
                    .iter()
                    .zip(before.as_slice())
                    .map(|(&after, &b)| after - b)
                    .collect();
                // Write-set cross-check: an observed marking change outside
                // the activity's declared write footprint is a stale
                // declaration (once per activity).
                if !write_flagged[idx] {
                    if let Some(writes) = spec.declared_writes() {
                        let escaped = delta
                            .iter()
                            .enumerate()
                            .find(|&(p, &d)| d != 0 && writes.binary_search(&place_at(p)).is_err());
                        if let Some((p, &d)) = escaped {
                            write_flagged[idx] = true;
                            exp.diagnostics.push(Diagnostic::new(
                                STALE_WRITE_SET,
                                spec.name(),
                                format!(
                                    "a firing changed place `{}` by {d:+}, but the declared \
                                     write-set omits it",
                                    model.place_name(place_at(p))
                                ),
                            ));
                        }
                    }
                }
                if seen_deltas[idx].insert(delta.clone()) {
                    exp.columns.push(Column {
                        activity: act,
                        label: format!("{}?", spec.name()),
                        exact: false,
                        delta,
                    });
                }
            }
            let subject = model.activity(act).name().to_string();
            check_relations(&mut exp, expected, &marking, &subject);

            // Read-set cross-check at a thin sample of visited markings
            // (staggered across walks so the budget is not spent on one
            // walk's opening steps).
            if read_probes_left > 0 && (step + 7 * walk) % 29 == 0 {
                read_probes_left -= 1;
                check_read_sets(model, &marking, &mut exp, &mut stale_flagged);
            }
        }
    }
    exp.probed_columns = exp.columns.len() - exp.linear_columns;
    exp
}

/// The activities eligible to fire next under engine semantics: the
/// highest-priority enabled instantaneous group if any, otherwise all
/// enabled timed activities. Also records enablement for `never-enabled`.
fn frontier(model: &Model, marking: &Marking, enabled_ever: &mut [bool]) -> (Vec<usize>, bool) {
    let mut timed = Vec::new();
    let mut inst: Vec<(i32, usize)> = Vec::new();
    for (id, spec) in model.activities() {
        if !spec.enabled(marking) {
            continue;
        }
        enabled_ever[id.index()] = true;
        match spec.timing().priority() {
            Some(p) => inst.push((p, id.index())),
            None => timed.push(id.index()),
        }
    }
    if let Some(&(top, _)) = inst.iter().max_by_key(|&&(p, _)| p) {
        (
            inst.iter()
                .filter(|&&(p, _)| p == top)
                .map(|&(_, i)| i)
                .collect(),
            true,
        )
    } else {
        (timed, false)
    }
}

/// Fires `a` then `b` and `b` then `a` on clones of `marking`, each order
/// with a fresh RNG seeded from `probe_seed`, and reports how the outcomes
/// differ (`None` if they commute).
fn commutation_mismatch(
    model: &mut Model,
    marking: &Marking,
    a: usize,
    b: usize,
    probe_seed: u64,
) -> Option<String> {
    let fire_both = |model: &mut Model, first: usize, second: usize| -> Option<Marking> {
        let mut m = marking.clone();
        let mut rng = Xoshiro256StarStar::seed_from(probe_seed);
        model.probe_fire(ActivityId::from_index(first), &mut m, &mut rng)?;
        if !model.activity(ActivityId::from_index(second)).enabled(&m) {
            return None; // `first` disabled `second`: a conflict, not confusion
        }
        model.probe_fire(ActivityId::from_index(second), &mut m, &mut rng)?;
        Some(m)
    };
    let ab = fire_both(model, a, b);
    let ba = fire_both(model, b, a);
    match (ab, ba) {
        (Some(m1), Some(m2)) if m1.as_slice() != m2.as_slice() => {
            let diff: Vec<String> = m1
                .as_slice()
                .iter()
                .zip(m2.as_slice())
                .enumerate()
                .filter(|(_, (x, y))| x != y)
                .map(|(i, (x, y))| format!("{}: {x} vs {y}", model.place_name(place_at(i))))
                .take(4)
                .collect();
            Some(format!(
                "firing orders yield different markings ({})",
                diff.join(", ")
            ))
        }
        (Some(_), None) | (None, Some(_)) => {
            Some("one firing order disables the partner activity, the other does not".to_string())
        }
        _ => None,
    }
}

/// Cross-checks every *declared* enablement read-set against the model's
/// actual behavior at `marking`: each place outside the declared set is
/// perturbed by ±1 (never below zero) and the activity's `enabled()`
/// verdict and rate multiplier must not move. A place that does move the
/// verdict is a stale declaration — the incremental reevaluation core
/// would skip a reevaluation the closure needs — and is reported as
/// `stale-read-set` (once per activity). Activities without a declared
/// read-set are on the simulator's conservative always-revisit list and
/// have nothing to cross-check.
fn check_read_sets(model: &Model, marking: &Marking, exp: &mut Exploration, flagged: &mut [bool]) {
    let mut scratch = marking.clone();
    for (id, spec) in model.activities() {
        if flagged[id.index()] {
            continue;
        }
        let Some(reads) = spec.enablement_reads() else {
            continue;
        };
        let base_enabled = spec.enabled(marking);
        let base_rate = spec.rate_multiplier(marking);
        'places: for p in 0..model.num_places() {
            let place = place_at(p);
            if reads.binary_search(&place).is_ok() {
                continue;
            }
            let original = scratch.tokens(place);
            for delta in [1i64, -1] {
                let perturbed = original + delta;
                if perturbed < 0 {
                    continue;
                }
                scratch.set(place, perturbed);
                let moved = spec.enabled(&scratch) != base_enabled
                    || spec.rate_multiplier(&scratch).to_bits() != base_rate.to_bits();
                scratch.set(place, original);
                if moved {
                    flagged[id.index()] = true;
                    exp.diagnostics.push(Diagnostic::new(
                        STALE_READ_SET,
                        spec.name(),
                        format!(
                            "enablement depends on place `{}` (perturbing {original} -> \
                             {perturbed} flips enabled()/rate), but the declared read-set \
                             omits it",
                            model.place_name(place)
                        ),
                    ));
                    break 'places;
                }
            }
        }
    }
}

/// Rebuilds a `PlaceId` from a raw marking index (diagnostics only).
fn place_at(index: usize) -> vsched_san::PlaceId {
    // PlaceId's constructor is crate-private; go through the public
    // index-preserving route.
    vsched_san::PlaceId::from_index(index)
}

/// Checks every declared relation invariant on `marking`, recording the
/// first failure per invariant and a `nonconserving-gate` finding.
fn check_relations(
    exp: &mut Exploration,
    expected: &[ModelInvariant],
    marking: &Marking,
    subject: &str,
) {
    for (i, inv) in expected.iter().enumerate() {
        if exp.relation_failures[i].is_some() {
            continue;
        }
        if let InvariantKind::Relation(check) = &inv.kind {
            if let Err(detail) = check(marking) {
                exp.relation_failures[i] = Some((subject.to_string(), detail.clone()));
                exp.diagnostics.push(Diagnostic::new(
                    NONCONSERVING_GATE,
                    subject,
                    format!("invariant `{}` violated: {detail}", inv.name),
                ));
            }
        }
    }
}

/// Uniform index in `0..len` from one RNG draw.
fn pick(rng: &mut Xoshiro256StarStar, len: usize) -> usize {
    debug_assert!(len > 0);
    ((rng.next_f64() * len as f64) as usize).min(len - 1)
}
