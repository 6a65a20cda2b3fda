//! Activities: the transitions of a SAN.

use vsched_des::{Dist, Xoshiro256StarStar};

use crate::gate::{InputGate, OutputGate};
use crate::marking::{Marking, PlaceId, ReadSet};

/// Handle to an activity in a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) usize);

impl ActivityId {
    /// Index of this activity in the model's activity table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index (inverse of
    /// [`ActivityId::index`]). Only meaningful for the model whose
    /// iteration produced the index — used by structural analysis tools
    /// that store activities by position.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ActivityId(index)
    }
}

/// How an activity completes once enabled.
pub enum Timing {
    /// Completes after a random delay drawn from the distribution when the
    /// activity becomes enabled.
    Timed(Dist),
    /// Completes immediately; among simultaneously enabled instantaneous
    /// activities, higher `priority` completes first.
    Instantaneous {
        /// Completion priority (higher first).
        priority: i32,
    },
}

impl std::fmt::Debug for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Timing::Timed(d) => write!(f, "Timed({d:?})"),
            Timing::Instantaneous { priority } => {
                write!(f, "Instantaneous(priority={priority})")
            }
        }
    }
}

impl Timing {
    /// Completion priority of an instantaneous activity (`None` for timed).
    #[must_use]
    pub fn priority(&self) -> Option<i32> {
        match self {
            Timing::Timed(_) => None,
            Timing::Instantaneous { priority } => Some(*priority),
        }
    }
}

/// Marking-dependent case-weight function: fills `out` (cleared by the
/// caller) with one weight per case. The buffer-filling shape lets the
/// simulator reuse one scratch allocation across all completions.
pub type WeightFn = Box<dyn Fn(&Marking, &mut Vec<f64>)>;

/// Marking-dependent rate-multiplier function.
pub type RateFn = Box<dyn Fn(&Marking) -> f64>;

/// Probability weights of an activity's cases.
pub enum CaseWeights {
    /// Fixed weights (need not be normalized).
    Fixed(Vec<f64>),
    /// Marking-dependent weights, re-evaluated at each completion.
    Dynamic(WeightFn),
}

impl std::fmt::Debug for CaseWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseWeights::Fixed(w) => write!(f, "Fixed({w:?})"),
            CaseWeights::Dynamic(_) => write!(f, "Dynamic(..)"),
        }
    }
}

/// One case (probabilistic outcome) of an activity.
#[derive(Debug, Default)]
pub struct CaseSpec {
    /// Tokens produced into places when this case is chosen.
    pub(crate) output_arcs: Vec<(PlaceId, i64)>,
    /// Output gates executed when this case is chosen, in order.
    pub(crate) output_gates: Vec<OutputGate>,
}

/// Full definition of an activity.
pub struct ActivitySpec {
    pub(crate) name: String,
    pub(crate) timing: Timing,
    /// Tokens required from (and consumed out of) places.
    pub(crate) input_arcs: Vec<(PlaceId, i64)>,
    /// Test arcs: the activity is enabled only while each place holds at
    /// least the given number of tokens. They move no tokens.
    pub(crate) test_arcs: Vec<(PlaceId, i64)>,
    /// Inhibitor arcs: the activity is enabled only while each place holds
    /// fewer than the given number of tokens. They move no tokens.
    pub(crate) inhibitor_arcs: Vec<(PlaceId, i64)>,
    pub(crate) input_gates: Vec<InputGate>,
    pub(crate) cases: Vec<CaseSpec>,
    pub(crate) case_weights: CaseWeights,
    /// Optional marking-dependent rate multiplier (Mobius's
    /// marking-dependent rates): the sampled delay is divided by this
    /// factor at activation; a non-positive factor disables the activity.
    pub(crate) rate_fn: Option<RateFn>,
    /// Places the rate multiplier declares it reads (enablement-relevant:
    /// a non-positive multiplier disables the activity).
    pub(crate) rate_reads: ReadSet,
    /// Places the dynamic case-weight function declares it reads. Weights
    /// are only evaluated while this very activity fires, so this is
    /// analysis metadata — it does not enter the dependency index.
    pub(crate) weight_reads: ReadSet,
}

impl std::fmt::Debug for ActivitySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivitySpec")
            .field("name", &self.name)
            .field("timing", &self.timing)
            .field("input_arcs", &self.input_arcs)
            .field("test_arcs", &self.test_arcs)
            .field("inhibitor_arcs", &self.inhibitor_arcs)
            .field("input_gates", &self.input_gates)
            .field("cases", &self.cases.len())
            .field("case_weights", &self.case_weights)
            .finish()
    }
}

impl ActivitySpec {
    /// Activity name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the activity is enabled in `marking`: every input and test
    /// arc is covered, every inhibitor arc's place holds fewer tokens than
    /// its weight, every input-gate predicate holds, and (for activities
    /// with a marking-dependent rate) the rate multiplier is positive.
    #[must_use]
    pub fn enabled(&self, marking: &Marking) -> bool {
        self.arc_conditions()
            .all(|(p, w, inhibitor)| marking.has(p, w) != inhibitor)
            && self.closures_hold(marking)
    }

    /// The closure half of [`ActivitySpec::enabled`]: every input-gate
    /// predicate holds and the rate multiplier, if any, is positive.
    pub(crate) fn closures_hold(&self, marking: &Marking) -> bool {
        self.input_gates.iter().all(|g| g.holds(marking))
            && self.rate_fn.as_ref().is_none_or(|f| f(marking) > 0.0)
    }

    /// The arc half of [`ActivitySpec::enabled`], one threshold condition
    /// per arc: `(place, weight, inhibitor)` holds while the place has at
    /// least `weight` tokens, or fewer for an inhibitor arc. Input arcs
    /// come first, then test arcs, then inhibitor arcs.
    pub(crate) fn arc_conditions(&self) -> impl Iterator<Item = (PlaceId, i64, bool)> + '_ {
        let at_least = self.input_arcs.iter().chain(&self.test_arcs);
        at_least
            .map(|&(p, w)| (p, w, false))
            .chain(self.inhibitor_arcs.iter().map(|&(p, w)| (p, w, true)))
    }

    /// The rate multiplier in `marking` (1.0 when none is configured).
    #[must_use]
    pub fn rate_multiplier(&self, marking: &Marking) -> f64 {
        self.rate_fn.as_ref().map_or(1.0, |f| f(marking))
    }

    /// How the activity completes.
    #[must_use]
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// The input arcs: `(place, weight)` pairs consumed at completion.
    #[must_use]
    pub fn input_arcs(&self) -> &[(PlaceId, i64)] {
        &self.input_arcs
    }

    /// The test arcs: `(place, weight)` pairs the activity needs covered
    /// to be enabled, without consuming them.
    #[must_use]
    pub fn test_arcs(&self) -> &[(PlaceId, i64)] {
        &self.test_arcs
    }

    /// The inhibitor arcs: `(place, weight)` pairs that disable the
    /// activity while the place holds at least `weight` tokens.
    #[must_use]
    pub fn inhibitor_arcs(&self) -> &[(PlaceId, i64)] {
        &self.inhibitor_arcs
    }

    /// Number of probabilistic cases.
    #[must_use]
    pub fn num_cases(&self) -> usize {
        self.cases.len()
    }

    /// Output arcs of case `case`: `(place, weight)` pairs produced.
    ///
    /// # Panics
    ///
    /// Panics if `case >= self.num_cases()`.
    #[must_use]
    pub fn case_output_arcs(&self, case: usize) -> &[(PlaceId, i64)] {
        &self.cases[case].output_arcs
    }

    /// Whether any output gate runs at completion — i.e. the marking
    /// change is not fully described by the arcs.
    #[must_use]
    pub fn has_gate_functions(&self) -> bool {
        self.cases.iter().any(|c| !c.output_gates.is_empty())
    }

    /// Whether case weights are marking-dependent.
    #[must_use]
    pub fn has_dynamic_case_weights(&self) -> bool {
        matches!(self.case_weights, CaseWeights::Dynamic(_))
    }

    /// The fixed case weights, if the weights are not marking-dependent.
    #[must_use]
    pub fn fixed_case_weights(&self) -> Option<&[f64]> {
        match &self.case_weights {
            CaseWeights::Fixed(w) => Some(w),
            CaseWeights::Dynamic(_) => None,
        }
    }

    /// Every place [`ActivitySpec::enabled`] may read — input-, test- and
    /// inhibitor-arc places, declared guard-predicate reads, and declared
    /// rate-multiplier reads — sorted and deduplicated. `None` if any
    /// enablement closure (a gate predicate, or the rate multiplier) left
    /// its read-set undeclared: the activity is then *conservative* and
    /// must be revisited after every state change.
    #[must_use]
    pub fn enablement_reads(&self) -> Option<Vec<PlaceId>> {
        let mut out = self.closure_reads()?;
        out.extend(self.arc_conditions().map(|(p, _, _)| p));
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    /// The places the enabling closures declare they read — guard
    /// predicates and the rate multiplier — sorted and deduplicated, or
    /// `None` if any of them left its read-set undeclared.
    pub(crate) fn closure_reads(&self) -> Option<Vec<PlaceId>> {
        let mut out: Vec<PlaceId> = Vec::new();
        for gate in &self.input_gates {
            out.extend_from_slice(gate.reads().as_declared()?);
        }
        if self.rate_fn.is_some() {
            out.extend_from_slice(self.rate_reads.as_declared()?);
        }
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    /// The rate multiplier's declared read-set.
    #[must_use]
    pub fn rate_reads(&self) -> &ReadSet {
        &self.rate_reads
    }

    /// The dynamic case-weight function's declared read-set.
    #[must_use]
    pub fn weight_reads(&self) -> &ReadSet {
        &self.weight_reads
    }

    /// Every place a completion of this activity may write — input-arc and
    /// output-arc places plus the declared write-sets of every output
    /// gate — sorted and deduplicated. `None` if any output gate left its
    /// write-set undeclared: the activity's write footprint is then
    /// unknown. The `stale-write-set` lint checks declared footprints
    /// against observed firings.
    #[must_use]
    pub fn declared_writes(&self) -> Option<Vec<PlaceId>> {
        let mut out: Vec<PlaceId> = self.input_arcs.iter().map(|&(p, _)| p).collect();
        for case in &self.cases {
            out.extend(case.output_arcs.iter().map(|&(p, _)| p));
            for gate in &case.output_gates {
                out.extend_from_slice(gate.writes().as_declared()?);
            }
        }
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    /// The first half of the SAN completion rule: consumes the input
    /// arcs, then evaluates the case weights on the marking that results.
    /// Fixed weights come back as declared; a dynamic weight function
    /// fills `scratch` (cleared first). `None` if it produced a weight
    /// count other than the case count.
    ///
    /// The simulator, the probes and the CTMC explorer all complete an
    /// activity with this half, a case choice, and
    /// [`ActivitySpec::produce_outputs`], so they agree on the order.
    #[inline]
    pub(crate) fn consume_inputs<'a>(
        &'a self,
        marking: &mut Marking,
        scratch: &'a mut Vec<f64>,
    ) -> Option<&'a [f64]> {
        for &(p, w) in &self.input_arcs {
            marking.add(p, -w);
        }
        match &self.case_weights {
            CaseWeights::Fixed(w) => Some(w),
            CaseWeights::Dynamic(f) => {
                scratch.clear();
                f(marking, scratch);
                (scratch.len() == self.cases.len()).then_some(scratch)
            }
        }
    }

    /// Picks a case from the `weights` [`ActivitySpec::consume_inputs`]
    /// returned: a lone fixed case without a draw, otherwise one weighted
    /// draw from `rng`. `None` if the weights' total is not positive and
    /// finite.
    #[inline]
    pub(crate) fn choose_case(
        &self,
        weights: &[f64],
        rng: &mut Xoshiro256StarStar,
    ) -> Option<usize> {
        if matches!(&self.case_weights, CaseWeights::Fixed(w) if w.len() == 1) {
            return Some(0);
        }
        let total: f64 = weights.iter().sum();
        if !(total > 0.0 && total.is_finite()) {
            return None;
        }
        let mut target = rng.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        Some(weights.len() - 1)
    }

    /// The second half of the SAN completion rule: produces case `case`'s
    /// output arcs, then runs its output gates in order with `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `case` is out of range.
    #[inline]
    pub(crate) fn produce_outputs(
        &self,
        case: usize,
        marking: &mut Marking,
        rng: &mut Xoshiro256StarStar,
    ) {
        let case = &self.cases[case];
        for &(p, w) in &case.output_arcs {
            marking.add(p, w);
        }
        for gate in &case.output_gates {
            gate.run(marking, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn marking(init: &[i64]) -> Marking {
        let names = Rc::new((0..init.len()).map(|i| format!("p{i}")).collect::<Vec<_>>());
        Marking::new(init.to_vec(), names)
    }

    fn spec(input_arcs: Vec<(PlaceId, i64)>, gates: Vec<InputGate>) -> ActivitySpec {
        ActivitySpec {
            name: "a".into(),
            timing: Timing::Instantaneous { priority: 0 },
            input_arcs,
            test_arcs: Vec::new(),
            inhibitor_arcs: Vec::new(),
            input_gates: gates,
            cases: vec![CaseSpec::default()],
            case_weights: CaseWeights::Fixed(vec![1.0]),
            rate_fn: None,
            rate_reads: ReadSet::All,
            weight_reads: ReadSet::All,
        }
    }

    #[test]
    fn enabled_by_arcs() {
        let s = spec(vec![(PlaceId(0), 2)], vec![]);
        assert!(!s.enabled(&marking(&[1])));
        assert!(s.enabled(&marking(&[2])));
    }

    #[test]
    fn test_and_inhibitor_arcs_are_thresholds() {
        let mut s = spec(vec![], vec![]);
        s.test_arcs = vec![(PlaceId(0), 2)];
        s.inhibitor_arcs = vec![(PlaceId(1), 1)];
        assert!(s.enabled(&marking(&[2, 0])));
        assert!(s.enabled(&marking(&[5, 0])));
        assert!(!s.enabled(&marking(&[1, 0])), "test arc uncovered");
        assert!(!s.enabled(&marking(&[2, 1])), "inhibitor place occupied");
        assert_eq!(s.enablement_reads(), Some(vec![PlaceId(0), PlaceId(1)]));
        assert_eq!(s.input_arcs(), []);
    }

    #[test]
    fn enabled_by_gates() {
        let s = spec(
            vec![],
            vec![InputGate::guard("g", |m| m.tokens(PlaceId(0)) % 2 == 0)],
        );
        assert!(s.enabled(&marking(&[4])));
        assert!(!s.enabled(&marking(&[3])));
    }

    #[test]
    fn all_conditions_required() {
        let s = spec(
            vec![(PlaceId(0), 1)],
            vec![InputGate::guard("g", |m| m.tokens(PlaceId(1)) > 0)],
        );
        assert!(!s.enabled(&marking(&[1, 0])));
        assert!(!s.enabled(&marking(&[0, 1])));
        assert!(s.enabled(&marking(&[1, 1])));
    }

    #[test]
    fn debug_output() {
        let s = spec(vec![], vec![]);
        let d = format!("{s:?}");
        assert!(d.contains("Instantaneous"));
    }

    #[test]
    fn enablement_reads_requires_every_closure_declared() {
        // Arc-only activity: fully declared by construction.
        let s = spec(vec![(PlaceId(0), 1), (PlaceId(0), 2)], vec![]);
        assert_eq!(s.enablement_reads(), Some(vec![PlaceId(0)]));

        // Undeclared guard: conservative.
        let s = spec(vec![(PlaceId(0), 1)], vec![InputGate::guard("g", |_| true)]);
        assert_eq!(s.enablement_reads(), None);

        // Declared guard: union of arcs and guard reads, sorted + deduped.
        let mut guard = InputGate::guard("g", |_| true);
        guard.set_reads(ReadSet::Declared(vec![PlaceId(1), PlaceId(2)]));
        let s = spec(vec![(PlaceId(2), 1)], vec![guard]);
        assert_eq!(s.enablement_reads(), Some(vec![PlaceId(1), PlaceId(2)]));

        // Undeclared rate multiplier: conservative.
        let mut s = spec(vec![], vec![]);
        s.rate_fn = Some(Box::new(|_| 1.0));
        assert_eq!(s.enablement_reads(), None);
        s.rate_reads = ReadSet::Declared(vec![PlaceId(3)]);
        assert_eq!(s.enablement_reads(), Some(vec![PlaceId(3)]));
    }
}
