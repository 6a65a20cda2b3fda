//! Input and output gates.
//!
//! Gates are where a SAN gains expressiveness over plain Petri nets: an
//! *input gate* adds an arbitrary enabling predicate and a completion-time
//! state update; an *output gate* runs an arbitrary state update for the
//! case it is attached to. In Mobius these are C++ snippets; here they are
//! Rust closures over the [`Marking`].

use vsched_des::Xoshiro256StarStar;

use crate::marking::{Marking, PlaceId, ReadSet};

/// Enabling predicate of an input gate.
///
/// `Send + Sync` so a [`crate::Model`] can cross threads — every gate
/// closure is immutable shared state; gates needing private mutable state
/// (the user-defined scheduling function of the VCPU scheduler keeps its
/// round-robin cursor this way) capture it behind `Arc<Mutex<..>>`.
pub type Predicate = Box<dyn Fn(&Marking) -> bool + Send + Sync>;

/// State-update function of a gate.
///
/// Receives the marking and a dedicated RNG stream so gates can perform
/// stochastic updates (the paper's `WL_Output` gate samples the workload
/// `load` and `sync_point` fields). `Fn + Send + Sync` for the same
/// model-sharing reason as [`Predicate`]; stateful gates capture an
/// `Arc<Mutex<..>>`.
pub type GateFn = Box<dyn Fn(&mut Marking, &mut Xoshiro256StarStar) + Send + Sync>;

/// An input gate: a guard plus a completion-time update.
pub struct InputGate {
    pub(crate) name: String,
    pub(crate) predicate: Predicate,
    pub(crate) function: Option<GateFn>,
    /// Places the gate declares it reads — the predicate *and* the
    /// completion-time update function. Drives the simulator's dependency
    /// index (an undeclared read-set makes the activity's enablement
    /// conservative, revisited after every firing).
    pub(crate) reads: ReadSet,
    /// Places the completion-time update function declares it writes.
    /// Documentation only: the simulator never consults it, and the
    /// `stale-write-set` lint checks it against observed firings.
    pub(crate) writes: ReadSet,
}

impl std::fmt::Debug for InputGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputGate")
            .field("name", &self.name)
            .field("has_function", &self.function.is_some())
            .finish()
    }
}

/// An output gate: a state update executed when its case is chosen.
pub struct OutputGate {
    pub(crate) name: String,
    pub(crate) function: GateFn,
    /// Places the update function declares it reads. Does not enter the
    /// dependency index (output gates run at completion, not at enablement)
    /// but documents what the update function depends on.
    pub(crate) reads: ReadSet,
    /// Places the update function declares it writes (documentation; see
    /// [`InputGate`]).
    pub(crate) writes: ReadSet,
}

impl std::fmt::Debug for OutputGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutputGate")
            .field("name", &self.name)
            .finish()
    }
}

impl InputGate {
    /// Creates an input gate with a predicate only (no completion update).
    pub fn guard(
        name: impl Into<String>,
        predicate: impl Fn(&Marking) -> bool + Send + Sync + 'static,
    ) -> Self {
        InputGate {
            name: name.into(),
            predicate: Box::new(predicate),
            function: None,
            reads: ReadSet::All,
            writes: ReadSet::All,
        }
    }

    /// Creates an input gate with a predicate and a completion function.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(&Marking) -> bool + Send + Sync + 'static,
        function: impl Fn(&mut Marking, &mut Xoshiro256StarStar) + Send + Sync + 'static,
    ) -> Self {
        InputGate {
            name: name.into(),
            predicate: Box::new(predicate),
            function: Some(Box::new(function)),
            reads: ReadSet::All,
            writes: ReadSet::All,
        }
    }

    /// Declares the places the gate reads — predicate and update function
    /// together (builder form).
    #[must_use]
    pub fn with_reads(mut self, places: impl IntoIterator<Item = PlaceId>) -> Self {
        self.reads = ReadSet::Declared(places.into_iter().collect());
        self
    }

    /// Declares the places the update function writes (builder form).
    #[must_use]
    pub fn with_writes(mut self, places: impl IntoIterator<Item = PlaceId>) -> Self {
        self.writes = ReadSet::Declared(places.into_iter().collect());
        self
    }

    /// The gate's declared read-set.
    #[must_use]
    pub fn reads(&self) -> &ReadSet {
        &self.reads
    }

    /// The update function's declared write-set.
    #[must_use]
    pub fn writes(&self) -> &ReadSet {
        &self.writes
    }

    /// Gate name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl OutputGate {
    /// Creates an output gate from its update function.
    pub fn new(
        name: impl Into<String>,
        function: impl Fn(&mut Marking, &mut Xoshiro256StarStar) + Send + Sync + 'static,
    ) -> Self {
        OutputGate {
            name: name.into(),
            function: Box::new(function),
            reads: ReadSet::All,
            writes: ReadSet::All,
        }
    }

    /// Declares the places the update function reads (builder form).
    #[must_use]
    pub fn with_reads(mut self, places: impl IntoIterator<Item = PlaceId>) -> Self {
        self.reads = ReadSet::Declared(places.into_iter().collect());
        self
    }

    /// Declares the places the update function writes (builder form).
    #[must_use]
    pub fn with_writes(mut self, places: impl IntoIterator<Item = PlaceId>) -> Self {
        self.writes = ReadSet::Declared(places.into_iter().collect());
        self
    }

    /// The update function's declared read-set.
    #[must_use]
    pub fn reads(&self) -> &ReadSet {
        &self.reads
    }

    /// The update function's declared write-set.
    #[must_use]
    pub fn writes(&self) -> &ReadSet {
        &self.writes
    }

    /// Gate name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn marking() -> Marking {
        Marking::new(vec![2], Arc::new(vec!["p".into()]))
    }

    #[test]
    fn guard_has_no_function() {
        let g = InputGate::guard("g", |m| m.tokens(crate::PlaceId(0)) > 0);
        assert!(g.function.is_none());
        assert!((g.predicate)(&marking()));
        assert_eq!(g.name(), "g");
    }

    #[test]
    fn gate_function_mutates() {
        let g = OutputGate::new("og", |m, _rng| m.set(crate::PlaceId(0), 9));
        let mut m = marking();
        let mut rng = Xoshiro256StarStar::seed_from(0);
        (g.function)(&mut m, &mut rng);
        assert_eq!(m.tokens(crate::PlaceId(0)), 9);
    }

    #[test]
    fn stateful_gate_closure() {
        // Gates are `Fn`; private mutable state goes behind a shared cell.
        let calls = Arc::new(std::sync::Mutex::new(0i64));
        let cell = Arc::clone(&calls);
        let g = OutputGate::new("counter", move |m, _| {
            let mut c = cell.lock().unwrap();
            *c += 1;
            m.set(crate::PlaceId(0), *c);
        });
        let mut m = marking();
        let mut rng = Xoshiro256StarStar::seed_from(0);
        (g.function)(&mut m, &mut rng);
        (g.function)(&mut m, &mut rng);
        assert_eq!(m.tokens(crate::PlaceId(0)), 2);
    }

    #[test]
    fn debug_impls() {
        let g = InputGate::guard("ig", |_| true);
        assert!(format!("{g:?}").contains("ig"));
        let og = OutputGate::new("og", |_, _| {});
        assert!(format!("{og:?}").contains("og"));
    }
}
