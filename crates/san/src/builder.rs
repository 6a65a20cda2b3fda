//! Model construction: places, activities, and Mobius-style composition.

use std::collections::HashMap;
use std::rc::Rc;

use vsched_des::{Dist, Xoshiro256StarStar};

use crate::activity::{ActivityId, ActivitySpec, CaseSpec, CaseWeights, RateFn, Timing, WeightFn};
use crate::error::SanError;
use crate::gate::{InputGate, OutputGate};
use crate::marking::{Marking, PlaceId, ReadSet};
use crate::record::RecordRef;

/// Place → dependent-activity index computed at [`ModelBuilder::build`] time
/// from input arcs and declared read-sets. The simulator's incremental
/// reevaluation visits `dependents(p)` for each dirty place `p`, plus every
/// `conservative` activity.
///
/// Stored in CSR (offsets + one flat data array) rather than a `Vec` per
/// place: at 1000-VM scale the per-place `Vec` headers alone cost more
/// cache traffic than the dependent lists themselves, and the hot loop
/// walks several lists per completion.
pub(crate) struct EnableIndex {
    /// `offsets[p] .. offsets[p + 1]` indexes `data` for place `p`.
    offsets: Vec<u32>,
    /// Dependent activity indices, ascending within each place's range.
    data: Vec<u32>,
    /// Activities with an undeclared enablement closure, ascending — the
    /// conservative fallback, revisited after every firing.
    pub(crate) conservative: Vec<u32>,
}

impl EnableIndex {
    fn build(num_places: usize, activities: &[ActivitySpec]) -> Self {
        // Two passes: count per-place degrees, then fill the flat array.
        let mut counts = vec![0u32; num_places];
        let mut conservative = Vec::new();
        let mut reads: Vec<Option<Vec<crate::PlaceId>>> = Vec::with_capacity(activities.len());
        for (i, act) in activities.iter().enumerate() {
            let r = act.enablement_reads();
            match &r {
                Some(places) => {
                    for p in places {
                        counts[p.index()] += 1;
                    }
                }
                None => conservative.push(i as u32),
            }
            reads.push(r);
        }
        let mut offsets = Vec::with_capacity(num_places + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut cursor: Vec<u32> = offsets[..num_places].to_vec();
        let mut data = vec![0u32; total as usize];
        // `enablement_reads` is sorted and deduplicated, and `i` is
        // ascending, so every per-place range ends up ascending too.
        for (i, r) in reads.iter().enumerate() {
            if let Some(places) = r {
                for p in places {
                    let slot = &mut cursor[p.index()];
                    data[*slot as usize] = i as u32;
                    *slot += 1;
                }
            }
        }
        EnableIndex {
            offsets,
            data,
            conservative,
        }
    }

    /// Activities whose enablement may depend on place `p`, ascending.
    #[inline]
    pub(crate) fn dependents(&self, p: usize) -> &[u32] {
        &self.data[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// A complete, validated SAN model ready for simulation.
///
/// Produced by [`ModelBuilder::build`]. The model owns the gate closures, so
/// it is not `Clone`; replicated experiments rebuild the model from a factory
/// closure (see [`crate::experiment`]).
pub struct Model {
    pub(crate) names: Rc<Vec<String>>,
    pub(crate) initial: Vec<i64>,
    pub(crate) activities: Vec<ActivitySpec>,
    pub(crate) enable_index: EnableIndex,
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
        self.names.iter().position(|n| n == name).map(PlaceId)
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
        &self.names[place.0]
    }

    /// Iterates over all places as `(id, name)` pairs.
    pub fn places(&self) -> impl Iterator<Item = (PlaceId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (PlaceId(i), n.as_str()))
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

    /// Activities whose enablement may depend on `place` (input arc or a
    /// declared read), in ascending index order. Conservative activities
    /// (see [`Model::conservative_activities`]) are *not* listed here.
    pub fn enablement_dependents(&self, place: PlaceId) -> impl Iterator<Item = ActivityId> + '_ {
        self.enable_index
            .dependents(place.0)
            .iter()
            .map(|&i| ActivityId(i as usize))
    }

    /// Activities whose enablement read-set is undeclared — the simulator
    /// falls back to rescanning these after every firing. A fully declared
    /// model yields an empty iterator.
    pub fn conservative_activities(&self) -> impl Iterator<Item = ActivityId> + '_ {
        self.enable_index
            .conservative
            .iter()
            .map(|&i| ActivityId(i as usize))
    }
}

/// Incremental builder for SAN models.
///
/// Composition follows Mobius: a *submodel* is any function that adds places
/// and activities to the builder. [`ModelBuilder::scope`] namespaces the
/// submodel's local names (`vm1/Workload`), while
/// [`ModelBuilder::shared_place`] implements **Join**: the first declaration
/// creates the place, later declarations under the same fully qualified name
/// resolve to it — exactly the "join places" of the paper's Tables 1–2.
/// **Replicate** is a loop over scopes.
///
/// See the crate-level example for basic usage.
pub struct ModelBuilder {
    names: Vec<String>,
    by_name: HashMap<String, PlaceId>,
    shared: Vec<bool>,
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
            shared: Vec::new(),
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
    /// [`SanError::DuplicatePlace`] if the qualified name already exists.
    pub fn place(&mut self, name: &str, initial: i64) -> Result<PlaceId, SanError> {
        let qualified = self.qualify(name);
        if self.by_name.contains_key(&qualified) {
            return Err(SanError::DuplicatePlace { name: qualified });
        }
        let id = PlaceId(self.names.len());
        self.names.push(qualified.clone());
        self.by_name.insert(qualified, id);
        self.shared.push(false);
        self.initial.push(initial);
        Ok(id)
    }

    /// Declares a **join place**: creates it on first declaration, returns
    /// the existing id on later declarations of the same qualified name.
    ///
    /// Note the name is qualified against the *current* scope; to share
    /// across sibling scopes, declare the shared place at the parent scope
    /// and pass the id into the submodels (the idiom `vsched-core` uses), or
    /// declare it with an absolute name via [`ModelBuilder::shared_place_abs`].
    ///
    /// # Errors
    ///
    /// [`SanError::SharedPlaceConflict`] if re-declared with a different
    /// initial marking, or [`SanError::DuplicatePlace`] if the name exists
    /// as a non-shared place.
    pub fn shared_place(&mut self, name: &str, initial: i64) -> Result<PlaceId, SanError> {
        let qualified = self.qualify(name);
        self.shared_place_qualified(qualified, initial)
    }

    /// [`ModelBuilder::shared_place`] with an absolute (scope-independent)
    /// name.
    ///
    /// # Errors
    ///
    /// Same as [`ModelBuilder::shared_place`].
    pub fn shared_place_abs(&mut self, name: &str, initial: i64) -> Result<PlaceId, SanError> {
        self.shared_place_qualified(name.to_string(), initial)
    }

    fn shared_place_qualified(
        &mut self,
        qualified: String,
        initial: i64,
    ) -> Result<PlaceId, SanError> {
        if let Some(&id) = self.by_name.get(&qualified) {
            if !self.shared[id.0] {
                return Err(SanError::DuplicatePlace { name: qualified });
            }
            if self.initial[id.0] != initial {
                return Err(SanError::SharedPlaceConflict {
                    name: qualified,
                    existing: self.initial[id.0],
                    requested: initial,
                });
            }
            return Ok(id);
        }
        let id = PlaceId(self.names.len());
        self.names.push(qualified.clone());
        self.by_name.insert(qualified, id);
        self.shared.push(true);
        self.initial.push(initial);
        Ok(id)
    }

    /// Adds a record (Mobius *extended place*): one field place per name,
    /// grouped behind a [`RecordRef`].
    ///
    /// # Errors
    ///
    /// [`SanError::DuplicatePlace`] if any field name collides.
    pub fn record(&mut self, name: &str, fields: &[&str]) -> Result<RecordRef, SanError> {
        let mut ids = Vec::with_capacity(fields.len());
        for field in fields {
            ids.push(self.place(&format!("{name}.{field}"), 0)?);
        }
        Ok(RecordRef::new(name.to_string(), ids))
    }

    /// Looks up a place by name, resolved against the current scope first
    /// and then as an absolute name.
    #[must_use]
    pub fn find_place(&self, name: &str) -> Option<PlaceId> {
        self.by_name
            .get(&self.qualify(name))
            .or_else(|| self.by_name.get(name))
            .copied()
    }

    /// Runs `f` with names prefixed by `name/` — the submodel idiom.
    ///
    /// ```
    /// use vsched_san::ModelBuilder;
    /// let mut mb = ModelBuilder::new();
    /// let ids = mb.scope("vm1", |mb| mb.place("Workload", 0))?;
    /// assert_eq!(mb.find_place("vm1/Workload"), Some(ids));
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

    /// Mobius **Replicate**: instantiates the submodel template `f` once per
    /// scope `name_i` for `i` in `0..n`, collecting the results.
    ///
    /// # Errors
    ///
    /// Propagates the first error from the template.
    pub fn replicate<T>(
        &mut self,
        name: &str,
        n: usize,
        mut f: impl FnMut(&mut ModelBuilder, usize) -> Result<T, SanError>,
    ) -> Result<Vec<T>, SanError> {
        (0..n)
            .map(|i| {
                let scope_name = format!("{name}_{i}");
                self.scope(&scope_name, |mb| f(mb, i))
            })
            .collect()
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
        let enable_index = EnableIndex::build(self.names.len(), &self.activities);
        Ok(Model {
            names: Rc::new(self.names),
            initial: self.initial,
            activities: self.activities,
            enable_index,
        })
    }
}

/// Which closure a subsequent [`ActivityBuilder::reads`] call describes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LastClosure {
    None,
    /// The most recently added input gate (guard or full gate).
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

    /// Adds an input gate with only an enabling predicate.
    #[must_use]
    pub fn guard(mut self, name: &str, predicate: impl Fn(&Marking) -> bool + 'static) -> Self {
        self.input_gates.push(InputGate::guard(name, predicate));
        self.set_closure(LastClosure::Gate);
        self
    }

    /// Adds a full input gate (predicate + completion function).
    #[must_use]
    pub fn input_gate(
        mut self,
        name: &str,
        predicate: impl Fn(&Marking) -> bool + 'static,
        function: impl Fn(&mut Marking, &mut Xoshiro256StarStar) + 'static,
    ) -> Self {
        self.input_gates
            .push(InputGate::new(name, predicate, function));
        self.set_closure(LastClosure::Gate);
        self
    }

    /// Declares the places the **immediately preceding** closure reads — a
    /// guard or input gate's predicate, an output gate's update, a rate
    /// multiplier, or a dynamic case-weight function:
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
    /// still correct, but its activity is rescanned after every firing
    /// instead of only when a declared place changes. Declarations on
    /// enablement closures (predicates, rate multipliers) drive the
    /// incremental simulator; declarations on fire-time closures (gate
    /// updates, case weights) are checked by analysis tools only.
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
                    g.reads = set;
                }
            }
            LastClosure::OutputGate => {
                if let Some(g) = self
                    .cases
                    .last_mut()
                    .and_then(|c| c.output_gates.last_mut())
                {
                    g.reads = set;
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

    /// Declares the places the **immediately preceding** gate function may
    /// write — an input gate's completion function or an output gate's
    /// update. Purely documentation of the gate's write footprint (see
    /// [`crate::activity::ActivitySpec::declared_writes`]): the simulator
    /// never consults it, and the `vsched-analyze` `stale-write-set` lint
    /// reports a gate observed writing outside its declared set.
    ///
    /// Calling `.writes` after anything that is not a gate *function* — a
    /// plain guard, a rate multiplier, a case-weight function, a non-gate
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
            LastClosure::Gate => {
                match self.input_gates.last_mut() {
                    // A guard without a completion function writes nothing;
                    // declaring a write-set for it is a modeling error.
                    Some(g) if g.function.is_some() => g.writes = ReadSet::Declared(set),
                    _ => self.misplaced_writes = true,
                }
            }
            LastClosure::OutputGate => {
                if let Some(g) = self
                    .cases
                    .last_mut()
                    .and_then(|c| c.output_gates.last_mut())
                {
                    g.writes = ReadSet::Declared(set);
                }
            }
            LastClosure::Rate | LastClosure::Weights | LastClosure::None => {
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
    /// * [`SanError::InvalidArcWeight`] for non-positive arc weights,
    /// * [`SanError::InvalidCaseWeight`] for non-positive fixed case weights,
    /// * [`SanError::MisplacedReads`] if a `.reads(...)` call did not
    ///   immediately follow a closure-accepting builder call,
    /// * [`SanError::MisplacedWrites`] if a `.writes(...)` call did not
    ///   immediately follow a gate function.
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
    fn shared_place_joins() {
        let mut mb = ModelBuilder::new();
        let a = mb.shared_place("Blocked", 0).unwrap();
        let b = mb.shared_place("Blocked", 0).unwrap();
        assert_eq!(a, b);
        assert!(matches!(
            mb.shared_place("Blocked", 5),
            Err(SanError::SharedPlaceConflict { .. })
        ));
    }

    #[test]
    fn shared_place_cannot_shadow_normal_place() {
        let mut mb = ModelBuilder::new();
        mb.place("p", 0).unwrap();
        assert!(matches!(
            mb.shared_place("p", 0),
            Err(SanError::DuplicatePlace { .. })
        ));
    }

    #[test]
    fn shared_place_abs_ignores_scope() {
        let mut mb = ModelBuilder::new();
        let outer = mb.shared_place_abs("global", 0).unwrap();
        let inner = mb
            .scope("vm1", |mb| mb.shared_place_abs("global", 0))
            .unwrap();
        assert_eq!(outer, inner);
    }

    #[test]
    fn replicate_stamps_submodels() {
        let mut mb = ModelBuilder::new();
        let ids = mb
            .replicate("vcpu", 3, |mb, i| mb.place("slot", i as i64))
            .unwrap();
        assert_eq!(ids.len(), 3);
        let model = mb.build().unwrap();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(model.place_by_name(&format!("vcpu_{i}/slot")), Some(*id));
            assert_eq!(model.initial_marking().tokens(*id), i as i64);
        }
    }

    #[test]
    fn record_creates_field_places() {
        let mut mb = ModelBuilder::new();
        let rec = mb
            .record("VCPU1_slot", &["remaining_load", "sync_point", "status"])
            .unwrap();
        assert_eq!(rec.arity(), 3);
        let model = mb.build().unwrap();
        assert!(model.place_by_name("VCPU1_slot.remaining_load").is_some());
        assert!(model.place_by_name("VCPU1_slot.status").is_some());
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
    fn find_place_resolves_scoped_then_absolute() {
        let mut mb = ModelBuilder::new();
        let root = mb.place("x", 0).unwrap();
        mb.scope("vm", |mb| {
            let local = mb.place("x", 0)?;
            assert_eq!(mb.find_place("x"), Some(local), "scoped wins");
            Ok(())
        })
        .unwrap();
        assert_eq!(mb.find_place("x"), Some(root));
        assert!(mb.find_place("vm/x").is_some());
    }
}
