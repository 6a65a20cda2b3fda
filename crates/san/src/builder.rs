//! Model construction: places, activities, and scoped submodels.

use std::collections::HashMap;
use std::rc::Rc;

use vsched_des::{Dist, Xoshiro256StarStar};

use crate::activity::{ActivityId, ActivitySpec, CaseSpec, CaseWeights, RateFn, Timing, WeightFn};
use crate::error::SanError;
use crate::gate::{InputGate, OutputGate};
use crate::marking::{Marking, PlaceId, ReadSet};

/// A complete, validated SAN model ready for simulation.
///
/// Produced by [`ModelBuilder::build`]. The model owns the gate closures, so
/// it is not `Clone`; each replication builds its own model.
pub struct Model {
    pub(crate) names: Rc<Vec<String>>,
    pub(crate) initial: Vec<i64>,
    pub(crate) activities: Vec<ActivitySpec>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("places", &self.names.len())
            .field("activities", &self.activities.len())
            .finish()
    }
}

impl Model {
    /// The initial marking of the model.
    #[must_use]
    pub fn initial_marking(&self) -> Marking {
        Marking::new(self.initial.clone(), Rc::clone(&self.names))
    }

    /// Number of places.
    #[must_use]
    pub fn num_places(&self) -> usize {
        self.names.len()
    }

    /// Number of activities.
    #[must_use]
    pub fn num_activities(&self) -> usize {
        self.activities.len()
    }

    /// Looks up a place id by fully qualified name.
    #[must_use]
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(PlaceId::from_index)
    }

    /// Looks up an activity id by fully qualified name.
    #[must_use]
    pub fn activity_by_name(&self, name: &str) -> Option<ActivityId> {
        self.activities
            .iter()
            .position(|a| a.name == name)
            .map(ActivityId)
    }

    /// Fully qualified name of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` was not issued by this model's builder.
    #[must_use]
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.names[place.index()]
    }

    /// Iterates over all places as `(id, name)` pairs.
    pub fn places(&self) -> impl Iterator<Item = (PlaceId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (PlaceId::from_index(i), n.as_str()))
    }

    /// The definition of activity `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this model's builder.
    #[must_use]
    pub fn activity(&self, id: ActivityId) -> &ActivitySpec {
        &self.activities[id.0]
    }

    /// Iterates over all activities as `(id, spec)` pairs.
    pub fn activities(&self) -> impl Iterator<Item = (ActivityId, &ActivitySpec)> {
        self.activities
            .iter()
            .enumerate()
            .map(|(i, a)| (ActivityId(i), a))
    }

    /// Activities whose enablement may depend on `place` (an input, test
    /// or inhibitor arc, or a declared read), in ascending index order.
    /// Conservative activities (see [`Model::conservative_activities`])
    /// are *not* listed here.
    pub fn enablement_dependents(&self, place: PlaceId) -> impl Iterator<Item = ActivityId> + '_ {
        self.activities()
            .filter(move |(_, a)| {
                a.enablement_reads()
                    .is_some_and(|reads| reads.binary_search(&place).is_ok())
            })
            .map(|(id, _)| id)
    }

    /// Activities whose enablement read-set is undeclared — the simulator
    /// re-tests their closures after every firing that leaves their arc
    /// conditions met. A fully declared model yields an empty iterator.
    pub fn conservative_activities(&self) -> impl Iterator<Item = ActivityId> + '_ {
        self.activities()
            .filter(|(_, a)| a.closure_reads().is_none())
            .map(|(id, _)| id)
    }
}

/// Incremental builder for SAN models.
///
/// A *submodel* is any function that adds places and activities to the
/// builder; [`ModelBuilder::scope`] namespaces the submodel's local names
/// (`vm1/Workload`). Submodels share state by taking place ids from their
/// caller: `vsched-core` declares the join places of the paper's Tables
/// 1–2 once at the parent scope and passes them in.
///
/// See the crate-level example for basic usage.
pub struct ModelBuilder {
    names: Vec<String>,
    by_name: HashMap<String, PlaceId>,
    initial: Vec<i64>,
    activities: Vec<ActivitySpec>,
    activity_names: HashMap<String, ActivityId>,
    scope: Vec<String>,
}

impl Default for ModelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        ModelBuilder {
            names: Vec::new(),
            by_name: HashMap::new(),
            initial: Vec::new(),
            activities: Vec::new(),
            activity_names: HashMap::new(),
            scope: Vec::new(),
        }
    }

    fn qualify(&self, name: &str) -> String {
        if self.scope.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.scope.join("/"), name)
        }
    }

    /// Adds a place with `initial` tokens under the current scope.
    ///
    /// # Errors
    ///
    /// [`SanError::DuplicatePlace`] if the qualified name already exists,
    /// or [`SanError::TooManyPlaces`] if the model already holds 2^32
    /// places.
    pub fn place(&mut self, name: &str, initial: i64) -> Result<PlaceId, SanError> {
        let qualified = self.qualify(name);
        if self.by_name.contains_key(&qualified) {
            return Err(SanError::DuplicatePlace { name: qualified });
        }
        let id = next_place_id(self.names.len(), &qualified)?;
        self.names.push(qualified.clone());
        self.by_name.insert(qualified, id);
        self.initial.push(initial);
        Ok(id)
    }

    /// Runs `f` with names prefixed by `name/` — the submodel idiom.
    ///
    /// ```
    /// use vsched_san::ModelBuilder;
    /// let mut mb = ModelBuilder::new();
    /// let id = mb.scope("vm1", |mb| mb.place("Workload", 0))?;
    /// assert_eq!(mb.build()?.place_by_name("vm1/Workload"), Some(id));
    /// # Ok::<(), vsched_san::SanError>(())
    /// ```
    pub fn scope<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut ModelBuilder) -> Result<T, SanError>,
    ) -> Result<T, SanError> {
        self.scope.push(name.to_string());
        let result = f(self);
        self.scope.pop();
        result
    }

    /// Starts defining an activity. Finish with [`ActivityBuilder::done`].
    ///
    /// # Errors
    ///
    /// [`SanError::DuplicateActivity`] if the qualified name already exists.
    pub fn activity(&mut self, name: &str) -> Result<ActivityBuilder<'_>, SanError> {
        let qualified = self.qualify(name);
        if self.activity_names.contains_key(&qualified) {
            return Err(SanError::DuplicateActivity { name: qualified });
        }
        Ok(ActivityBuilder {
            builder: self,
            name: qualified,
            timing: Timing::Instantaneous { priority: 0 },
            input_arcs: Vec::new(),
            test_arcs: Vec::new(),
            inhibitor_arcs: Vec::new(),
            input_gates: Vec::new(),
            cases: Vec::new(),
            weights: Vec::new(),
            dynamic_weights: None,
            rate_fn: None,
            rate_reads: ReadSet::All,
            weight_reads: ReadSet::All,
            last_closure: LastClosure::None,
            reads_done: false,
            writes_done: false,
            misplaced_reads: false,
            misplaced_writes: false,
        })
    }

    /// Validates and freezes the model.
    ///
    /// # Errors
    ///
    /// Currently infallible for models produced through this builder (all
    /// invariants are enforced at declaration time), but returns `Result`
    /// so future validations are non-breaking.
    pub fn build(self) -> Result<Model, SanError> {
        Ok(Model {
            names: Rc::new(self.names),
            initial: self.initial,
            activities: self.activities,
        })
    }
}

/// The id of a new place `name` in a model that holds `count` places.
///
/// # Errors
///
/// [`SanError::TooManyPlaces`] if a 32-bit [`PlaceId`] cannot address it.
fn next_place_id(count: usize, name: &str) -> Result<PlaceId, SanError> {
    PlaceId::checked(count).ok_or_else(|| SanError::TooManyPlaces {
        name: name.to_string(),
    })
}

/// Which closure a subsequent [`ActivityBuilder::reads`] call describes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LastClosure {
    None,
    /// The most recently added guard.
    Gate,
    /// The most recently added output gate of the current case.
    OutputGate,
    Rate,
    Weights,
}

/// Fluent definition of one activity; created by [`ModelBuilder::activity`].
pub struct ActivityBuilder<'a> {
    builder: &'a mut ModelBuilder,
    name: String,
    timing: Timing,
    input_arcs: Vec<(PlaceId, i64)>,
    test_arcs: Vec<(PlaceId, i64)>,
    inhibitor_arcs: Vec<(PlaceId, i64)>,
    input_gates: Vec<InputGate>,
    cases: Vec<CaseSpec>,
    weights: Vec<f64>,
    dynamic_weights: Option<WeightFn>,
    rate_fn: Option<RateFn>,
    rate_reads: ReadSet,
    weight_reads: ReadSet,
    last_closure: LastClosure,
    /// Whether `.reads(...)` was already attached to the last closure.
    reads_done: bool,
    /// Whether `.writes(...)` was already attached to the last closure.
    writes_done: bool,
    misplaced_reads: bool,
    misplaced_writes: bool,
}

impl<'a> ActivityBuilder<'a> {
    fn set_closure(&mut self, lc: LastClosure) {
        self.last_closure = lc;
        self.reads_done = false;
        self.writes_done = false;
    }

    /// Makes the activity timed with delay distribution `dist`.
    #[must_use]
    pub fn timed(mut self, dist: Dist) -> Self {
        self.timing = Timing::Timed(dist);
        self.set_closure(LastClosure::None);
        self
    }

    /// Makes the activity instantaneous with the given completion priority.
    #[must_use]
    pub fn instantaneous(mut self, priority: i32) -> Self {
        self.timing = Timing::Instantaneous { priority };
        self.set_closure(LastClosure::None);
        self
    }

    /// Scales the activity's rate by a marking-dependent factor (Mobius's
    /// marking-dependent rates): the sampled delay is divided by
    /// `f(marking)` at activation. A non-positive factor disables the
    /// activity. The canonical use is an M/M/c server:
    /// `.timed(exp).rate_multiplier(move |m| m.tokens(q).min(c) as f64)`.
    #[must_use]
    pub fn rate_multiplier(mut self, f: impl Fn(&Marking) -> f64 + 'static) -> Self {
        self.rate_fn = Some(Box::new(f));
        self.set_closure(LastClosure::Rate);
        self
    }

    /// Requires (and consumes) `weight` tokens from `place`.
    #[must_use]
    pub fn input_arc(mut self, place: PlaceId, weight: i64) -> Self {
        self.input_arcs.push((place, weight));
        self.set_closure(LastClosure::None);
        self
    }

    /// Enables the activity only while `place` holds at least `weight`
    /// tokens, without consuming them (a *test arc*).
    #[must_use]
    pub fn test_arc(mut self, place: PlaceId, weight: i64) -> Self {
        self.test_arcs.push((place, weight));
        self.set_closure(LastClosure::None);
        self
    }

    /// Enables the activity only while `place` holds fewer than `weight`
    /// tokens (an *inhibitor arc*; weight 1 means "while `place` is
    /// empty"). It moves no tokens.
    #[must_use]
    pub fn inhibitor_arc(mut self, place: PlaceId, weight: i64) -> Self {
        self.inhibitor_arcs.push((place, weight));
        self.set_closure(LastClosure::None);
        self
    }

    /// Adds an input gate: an enabling predicate.
    #[must_use]
    pub fn guard(mut self, name: &str, predicate: impl Fn(&Marking) -> bool + 'static) -> Self {
        self.input_gates.push(InputGate::guard(name, predicate));
        self.set_closure(LastClosure::Gate);
        self
    }

    /// Declares the places the **immediately preceding** closure reads — a
    /// guard's predicate, an output gate's update, a rate multiplier, or a
    /// dynamic case-weight function:
    ///
    /// ```
    /// # use vsched_san::ModelBuilder;
    /// # let mut mb = ModelBuilder::new();
    /// # let halt = mb.place("halt", 0)?;
    /// # let p = mb.place("p", 1)?;
    /// mb.activity("step")?
    ///     .instantaneous(0)
    ///     .input_arc(p, 1)
    ///     .guard("not_halted", move |m| m.is_empty(halt))
    ///     .reads([halt])
    ///     .done()?;
    /// # Ok::<(), vsched_san::SanError>(())
    /// ```
    ///
    /// A closure without a declaration conservatively "reads everything":
    /// still correct, but its activity is re-tested after every firing
    /// that leaves its arc conditions met, instead of only when a declared
    /// place changes. Declarations on enablement closures (predicates,
    /// rate multipliers) drive the incremental simulator; declarations on
    /// fire-time closures (gate updates, case weights) are checked by
    /// analysis tools only. A threshold on one place is cheaper still as a
    /// [`ActivityBuilder::test_arc`] or [`ActivityBuilder::inhibitor_arc`]:
    /// the simulator counts arc conditions instead of calling a closure.
    ///
    /// Calling `.reads` anywhere else (or twice for one closure) is
    /// reported as [`SanError::MisplacedReads`] by
    /// [`ActivityBuilder::done`].
    #[must_use]
    pub fn reads(mut self, places: impl IntoIterator<Item = PlaceId>) -> Self {
        if self.reads_done {
            self.misplaced_reads = true;
            return self;
        }
        let set = ReadSet::Declared(places.into_iter().collect());
        match self.last_closure {
            LastClosure::Gate => {
                if let Some(g) = self.input_gates.last_mut() {
                    g.set_reads(set);
                }
            }
            LastClosure::OutputGate => {
                if let Some(g) = self
                    .cases
                    .last_mut()
                    .and_then(|c| c.output_gates.last_mut())
                {
                    g.set_reads(set);
                }
            }
            LastClosure::Rate => self.rate_reads = set,
            LastClosure::Weights => self.weight_reads = set,
            LastClosure::None => self.misplaced_reads = true,
        }
        // `last_closure` stays live so `.writes(...)` may follow (or
        // precede) `.reads(...)` on the same gate.
        self.reads_done = true;
        self
    }

    /// Declares the places the **immediately preceding** output gate's
    /// update may write. Purely documentation of the gate's write
    /// footprint (see [`crate::activity::ActivitySpec::declared_writes`]):
    /// the simulator never consults it, and the `vsched-analyze`
    /// `stale-write-set` lint reports a gate observed writing outside its
    /// declared set.
    ///
    /// Calling `.writes` after anything that is not an output gate — a
    /// guard, a rate multiplier, a case-weight function, a non-gate
    /// builder call — or twice for one gate is reported as
    /// [`SanError::MisplacedWrites`] by [`ActivityBuilder::done`].
    #[must_use]
    pub fn writes(mut self, places: impl IntoIterator<Item = PlaceId>) -> Self {
        if self.writes_done {
            self.misplaced_writes = true;
            return self;
        }
        let set: Vec<PlaceId> = places.into_iter().collect();
        match self.last_closure {
            LastClosure::OutputGate => {
                if let Some(g) = self
                    .cases
                    .last_mut()
                    .and_then(|c| c.output_gates.last_mut())
                {
                    g.set_writes(ReadSet::Declared(set));
                }
            }
            // A guard writes nothing; declaring a write-set for it is a
            // modeling error.
            LastClosure::Gate | LastClosure::Rate | LastClosure::Weights | LastClosure::None => {
                self.misplaced_writes = true;
            }
        }
        self.writes_done = true;
        self
    }

    /// Starts a new case with probability `weight`. Output arcs / gates
    /// added afterwards attach to this case.
    #[must_use]
    pub fn case(mut self, weight: f64) -> Self {
        self.cases.push(CaseSpec::default());
        self.weights.push(weight);
        self.set_closure(LastClosure::None);
        self
    }

    /// Replaces fixed case weights with a marking-dependent weight function.
    ///
    /// Convenience wrapper over [`ActivityBuilder::dynamic_case_weights_into`]
    /// for closures that return a fresh `Vec` (the returned weights are
    /// copied into the simulator's scratch buffer each completion).
    #[must_use]
    pub fn dynamic_case_weights(self, f: impl Fn(&Marking) -> Vec<f64> + 'static) -> Self {
        self.dynamic_case_weights_into(move |m, out| out.extend_from_slice(&f(m)))
    }

    /// Replaces fixed case weights with a marking-dependent weight function
    /// that fills a caller-provided buffer — the allocation-free form the
    /// simulator calls with a reused scratch `Vec` (cleared before each
    /// call; push one weight per case).
    #[must_use]
    pub fn dynamic_case_weights_into(
        mut self,
        f: impl Fn(&Marking, &mut Vec<f64>) + 'static,
    ) -> Self {
        self.dynamic_weights = Some(Box::new(f));
        self.set_closure(LastClosure::Weights);
        self
    }

    fn current_case(&mut self) -> &mut CaseSpec {
        if self.cases.is_empty() {
            self.cases.push(CaseSpec::default());
            self.weights.push(1.0);
        }
        self.cases.last_mut().expect("just ensured non-empty")
    }

    /// Produces `weight` tokens into `place` (attached to the current case;
    /// a single default case is created if none was declared).
    #[must_use]
    pub fn output_arc(mut self, place: PlaceId, weight: i64) -> Self {
        self.current_case().output_arcs.push((place, weight));
        self.set_closure(LastClosure::None);
        self
    }

    /// Attaches an output gate to the current case.
    #[must_use]
    pub fn output_gate(
        mut self,
        name: &str,
        function: impl Fn(&mut Marking, &mut Xoshiro256StarStar) + 'static,
    ) -> Self {
        self.current_case()
            .output_gates
            .push(OutputGate::new(name, function));
        self.set_closure(LastClosure::OutputGate);
        self
    }

    /// Finishes the activity and registers it with the model.
    ///
    /// # Errors
    ///
    /// * [`SanError::InvalidArcWeight`] for a non-positive weight on any
    ///   input, test, inhibitor or output arc,
    /// * [`SanError::InvalidCaseWeight`] for non-positive fixed case weights,
    /// * [`SanError::MisplacedReads`] if a `.reads(...)` call did not
    ///   immediately follow a closure-accepting builder call,
    /// * [`SanError::MisplacedWrites`] if a `.writes(...)` call did not
    ///   immediately follow an output gate.
    pub fn done(mut self) -> Result<ActivityId, SanError> {
        if self.misplaced_reads {
            return Err(SanError::MisplacedReads {
                activity: self.name,
            });
        }
        if self.misplaced_writes {
            return Err(SanError::MisplacedWrites {
                activity: self.name,
            });
        }
        if self.cases.is_empty() {
            self.cases.push(CaseSpec::default());
            self.weights.push(1.0);
        }
        for &(_, w) in self
            .input_arcs
            .iter()
            .chain(&self.test_arcs)
            .chain(&self.inhibitor_arcs)
            .chain(self.cases.iter().flat_map(|c| c.output_arcs.iter()))
        {
            if w <= 0 {
                return Err(SanError::InvalidArcWeight {
                    activity: self.name,
                    weight: w,
                });
            }
        }
        let case_weights = match self.dynamic_weights {
            Some(f) => CaseWeights::Dynamic(f),
            None => {
                if self.weights.iter().any(|&w| w <= 0.0 || !w.is_finite()) {
                    return Err(SanError::InvalidCaseWeight {
                        activity: self.name,
                    });
                }
                CaseWeights::Fixed(self.weights)
            }
        };
        let id = ActivityId(self.builder.activities.len());
        self.builder.activity_names.insert(self.name.clone(), id);
        self.builder.activities.push(ActivitySpec {
            name: self.name,
            timing: self.timing,
            input_arcs: self.input_arcs,
            test_arcs: self.test_arcs,
            inhibitor_arcs: self.inhibitor_arcs,
            input_gates: self.input_gates,
            cases: self.cases,
            case_weights,
            rate_fn: self.rate_fn,
            rate_reads: self.rate_reads,
            weight_reads: self.weight_reads,
        });
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_place_rejected() {
        let mut mb = ModelBuilder::new();
        mb.place("p", 0).unwrap();
        assert!(matches!(
            mb.place("p", 1),
            Err(SanError::DuplicatePlace { .. })
        ));
    }

    #[test]
    fn scopes_namespace_places() {
        let mut mb = ModelBuilder::new();
        let a = mb.scope("vm1", |mb| mb.place("x", 1)).unwrap();
        let b = mb.scope("vm2", |mb| mb.place("x", 2)).unwrap();
        assert_ne!(a, b);
        let model = mb.build().unwrap();
        assert_eq!(model.place_by_name("vm1/x"), Some(a));
        assert_eq!(model.place_by_name("vm2/x"), Some(b));
        let m = model.initial_marking();
        assert_eq!(m.tokens(a), 1);
        assert_eq!(m.tokens(b), 2);
    }

    #[test]
    fn nested_scopes() {
        let mut mb = ModelBuilder::new();
        let p = mb
            .scope("sys", |mb| mb.scope("vm1", |mb| mb.place("y", 0)))
            .unwrap();
        let model = mb.build().unwrap();
        assert_eq!(model.place_by_name("sys/vm1/y"), Some(p));
    }

    #[test]
    fn activity_builder_validates_weights() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 0).unwrap();
        let err = mb
            .activity("bad")
            .unwrap()
            .input_arc(p, 0)
            .done()
            .unwrap_err();
        assert!(matches!(err, SanError::InvalidArcWeight { .. }));

        let err = mb.activity("bad2").unwrap().case(0.0).done().unwrap_err();
        assert!(matches!(err, SanError::InvalidCaseWeight { .. }));
    }

    #[test]
    fn test_and_inhibitor_arcs_need_a_positive_weight() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 0).unwrap();
        for (name, weight) in [("t0", 0), ("t-1", -1)] {
            let err = mb
                .activity(name)
                .unwrap()
                .test_arc(p, weight)
                .done()
                .unwrap_err();
            assert_eq!(
                err,
                SanError::InvalidArcWeight {
                    activity: name.into(),
                    weight
                }
            );
        }
        let err = mb
            .activity("i0")
            .unwrap()
            .inhibitor_arc(p, 0)
            .done()
            .unwrap_err();
        assert!(matches!(err, SanError::InvalidArcWeight { weight: 0, .. }));
        let id = mb
            .activity("ok")
            .unwrap()
            .test_arc(p, 1)
            .inhibitor_arc(p, 3)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let spec = model.activity(id);
        assert_eq!(spec.test_arcs(), [(p, 1)]);
        assert_eq!(spec.inhibitor_arcs(), [(p, 3)]);
        assert_eq!(model.enablement_dependents(p).collect::<Vec<_>>(), [id]);
    }

    #[test]
    fn duplicate_activity_rejected() {
        let mut mb = ModelBuilder::new();
        mb.activity("a").unwrap().done().unwrap();
        assert!(matches!(
            mb.activity("a").map(|_| ()),
            Err(SanError::DuplicateActivity { .. })
        ));
    }

    #[test]
    fn default_case_is_created() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 0).unwrap();
        let id = mb.activity("a").unwrap().output_arc(p, 1).done().unwrap();
        let model = mb.build().unwrap();
        assert_eq!(model.activities[id.index()].cases.len(), 1);
    }

    #[test]
    fn model_lookup_by_name() {
        let mut mb = ModelBuilder::new();
        mb.place("p", 0).unwrap();
        mb.activity("act").unwrap().done().unwrap();
        let model = mb.build().unwrap();
        assert!(model.place_by_name("p").is_some());
        assert!(model.place_by_name("nope").is_none());
        assert!(model.activity_by_name("act").is_some());
        assert!(model.activity_by_name("nope").is_none());
        assert_eq!(model.num_places(), 1);
        assert_eq!(model.num_activities(), 1);
    }

    #[test]
    fn reads_attaches_to_preceding_closure() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let q = mb.place("q", 0).unwrap();
        let id = mb
            .activity("a")
            .unwrap()
            .guard("g", move |m| m.tokens(q) == 0)
            .reads([q])
            .input_arc(p, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let spec = model.activity(id);
        assert_eq!(spec.enablement_reads(), Some(vec![p, q]));
        assert_eq!(model.conservative_activities().count(), 0);
        let deps: Vec<_> = model.enablement_dependents(q).collect();
        assert_eq!(deps, vec![id]);
    }

    #[test]
    fn misplaced_reads_rejected() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let err = mb
            .activity("a")
            .unwrap()
            .input_arc(p, 1)
            .reads([p])
            .done()
            .unwrap_err();
        assert!(matches!(err, SanError::MisplacedReads { .. }));

        // A second .reads for the same closure is also misplaced.
        let err = mb
            .activity("b")
            .unwrap()
            .guard("g", |_| true)
            .reads([p])
            .reads([p])
            .done()
            .unwrap_err();
        assert!(matches!(err, SanError::MisplacedReads { .. }));
    }

    #[test]
    fn undeclared_closure_is_conservative() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let a = mb
            .activity("a")
            .unwrap()
            .guard("g", |_| true)
            .input_arc(p, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let conservative: Vec<_> = model.conservative_activities().collect();
        assert_eq!(conservative, vec![a]);
        assert_eq!(
            model.enablement_dependents(p).count(),
            0,
            "conservative activities are not indexed per place"
        );
    }

    #[test]
    fn dependency_index_is_ascending_per_place() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 4).unwrap();
        for name in ["a", "b", "c"] {
            mb.activity(name).unwrap().input_arc(p, 1).done().unwrap();
        }
        let model = mb.build().unwrap();
        let deps: Vec<usize> = model.enablement_dependents(p).map(|a| a.index()).collect();
        assert_eq!(deps, vec![0, 1, 2]);
    }

    #[test]
    fn a_place_past_the_32_bit_id_range_is_a_typed_error() {
        let last = u32::MAX as usize;
        assert_eq!(next_place_id(last, "p"), Ok(PlaceId(u32::MAX)));
        let err = next_place_id(last + 1, "vm/p").unwrap_err();
        assert_eq!(
            err,
            SanError::TooManyPlaces {
                name: "vm/p".into()
            }
        );
        assert!(err.to_string().contains("vm/p"), "{err}");
    }
}
