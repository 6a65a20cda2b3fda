//! Input and output gates.
//!
//! Gates are where a SAN gains expressiveness over plain Petri nets: an
//! *input gate* adds an arbitrary enabling predicate; an *output gate*
//! runs an arbitrary state update for the case it is attached to. In
//! Mobius these are C++ snippets; here they are Rust closures over the
//! [`Marking`].
//!
//! An output gate's update receives the marking and a dedicated RNG
//! stream, so it can perform stochastic updates (the paper's `WL_Output`
//! gate samples the workload `load` and `sync_point` fields). Gate
//! closures, predicates included, are `Fn`: a model runs on one thread,
//! and gates needing private mutable state (the user-defined scheduling
//! function of the VCPU scheduler keeps its round-robin cursor this way)
//! capture it behind `Rc<RefCell<..>>`.

use vsched_des::Xoshiro256StarStar;

use crate::marking::{Marking, ReadSet};

/// A gate's name and declared footprint. Analysis tools and diagnostics
/// read it; the simulator's hot path never does.
#[derive(Debug)]
struct GateMeta {
    name: String,
    /// Places the gate declares it reads. On an input gate this covers
    /// the predicate, and it drives the simulator's dependency index (an
    /// undeclared read-set makes the activity's enablement conservative,
    /// revisited after every firing). On an output gate it documents what
    /// the update function depends on and does not enter the index
    /// (output gates run at completion, not at enablement).
    reads: ReadSet,
    /// Places an output gate's update function declares it writes.
    /// Documentation only: the simulator never consults it, and the
    /// `stale-write-set` lint checks it against observed firings. An
    /// input gate writes nothing and leaves it undeclared.
    writes: ReadSet,
}

/// A gate closure and its gate's [`GateMeta`], boxed together: the box the
/// closure needs anyway holds the metadata behind the closure's captures,
/// so a gate adds no allocation for it and a gate inline is only closure
/// pointers. `repr(C)` keeps the captures, which every call reads, at the
/// front of the block.
#[repr(C)]
struct WithMeta<F> {
    f: F,
    meta: GateMeta,
}

/// Access to the [`GateMeta`] boxed with a gate closure.
trait HasMeta {
    fn meta(&self) -> &GateMeta;
    fn meta_mut(&mut self) -> &mut GateMeta;
}

impl<F> HasMeta for WithMeta<F> {
    fn meta(&self) -> &GateMeta {
        &self.meta
    }
    fn meta_mut(&mut self) -> &mut GateMeta {
        &mut self.meta
    }
}

/// An input gate's predicate, with the gate's metadata.
trait GuardFn: HasMeta {
    fn holds(&self, marking: &Marking) -> bool;
}

impl<F: Fn(&Marking) -> bool> GuardFn for WithMeta<F> {
    fn holds(&self, marking: &Marking) -> bool {
        (self.f)(marking)
    }
}

/// An output gate's update function, with the gate's metadata.
trait UpdateFn: HasMeta {
    fn run(&self, marking: &mut Marking, rng: &mut Xoshiro256StarStar);
}

impl<F: Fn(&mut Marking, &mut Xoshiro256StarStar)> UpdateFn for WithMeta<F> {
    fn run(&self, marking: &mut Marking, rng: &mut Xoshiro256StarStar) {
        (self.f)(marking, rng);
    }
}

/// Closure `f` paired with a fresh [`GateMeta`] named `name`, nothing
/// declared yet.
fn with_meta<F>(name: String, f: F) -> WithMeta<F> {
    WithMeta {
        f,
        meta: GateMeta {
            name,
            reads: ReadSet::All,
            writes: ReadSet::All,
        },
    }
}

/// An input gate: a guard over the marking. It moves no tokens.
pub struct InputGate {
    /// The predicate, boxed with the gate's name and declared reads.
    predicate: Box<dyn GuardFn>,
}

impl std::fmt::Debug for InputGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputGate")
            .field("name", &self.name())
            .finish()
    }
}

/// An output gate: a state update executed when its case is chosen.
pub struct OutputGate {
    /// The update function, boxed with the gate's name and declared sets.
    function: Box<dyn UpdateFn>,
}

impl std::fmt::Debug for OutputGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutputGate")
            .field("name", &self.name())
            .finish()
    }
}

impl InputGate {
    /// Creates an input gate from its enabling predicate.
    pub fn guard(name: impl Into<String>, predicate: impl Fn(&Marking) -> bool + 'static) -> Self {
        InputGate {
            predicate: Box::new(with_meta(name.into(), predicate)),
        }
    }

    /// Whether the predicate holds in `marking`.
    #[inline]
    pub(crate) fn holds(&self, marking: &Marking) -> bool {
        self.predicate.holds(marking)
    }

    pub(crate) fn set_reads(&mut self, reads: ReadSet) {
        self.predicate.meta_mut().reads = reads;
    }

    /// The predicate's declared read-set.
    #[must_use]
    pub fn reads(&self) -> &ReadSet {
        &self.predicate.meta().reads
    }

    /// Gate name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.predicate.meta().name
    }
}

impl OutputGate {
    /// Creates an output gate from its update function.
    pub fn new(
        name: impl Into<String>,
        function: impl Fn(&mut Marking, &mut Xoshiro256StarStar) + 'static,
    ) -> Self {
        OutputGate {
            function: Box::new(with_meta(name.into(), function)),
        }
    }

    /// Runs the update function on `marking`.
    #[inline]
    pub(crate) fn run(&self, marking: &mut Marking, rng: &mut Xoshiro256StarStar) {
        self.function.run(marking, rng);
    }

    pub(crate) fn set_reads(&mut self, reads: ReadSet) {
        self.function.meta_mut().reads = reads;
    }

    pub(crate) fn set_writes(&mut self, writes: ReadSet) {
        self.function.meta_mut().writes = writes;
    }

    /// The update function's declared read-set.
    #[must_use]
    pub fn reads(&self) -> &ReadSet {
        &self.function.meta().reads
    }

    /// The update function's declared write-set.
    #[must_use]
    pub fn writes(&self) -> &ReadSet {
        &self.function.meta().writes
    }

    /// Gate name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.function.meta().name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn marking() -> Marking {
        Marking::new(vec![2], Rc::new(vec!["p".into()]))
    }

    #[test]
    fn guard_has_no_function() {
        let g = InputGate::guard("g", |m| m.tokens(crate::PlaceId(0)) > 0);
        assert!(g.holds(&marking()));
        assert_eq!(g.name(), "g");
        assert!(!g.reads().is_declared());
    }

    #[test]
    fn gate_function_mutates() {
        let g = OutputGate::new("og", |m, _rng| m.set(crate::PlaceId(0), 9));
        let mut m = marking();
        let mut rng = Xoshiro256StarStar::seed_from(0);
        g.run(&mut m, &mut rng);
        assert_eq!(m.tokens(crate::PlaceId(0)), 9);
    }

    #[test]
    fn stateful_gate_closure() {
        // Gates are `Fn`; private mutable state goes behind a shared cell.
        let calls = Rc::new(RefCell::new(0i64));
        let cell = Rc::clone(&calls);
        let g = OutputGate::new("counter", move |m, _| {
            let mut c = cell.borrow_mut();
            *c += 1;
            m.set(crate::PlaceId(0), *c);
        });
        let mut m = marking();
        let mut rng = Xoshiro256StarStar::seed_from(0);
        g.run(&mut m, &mut rng);
        g.run(&mut m, &mut rng);
        assert_eq!(m.tokens(crate::PlaceId(0)), 2);
    }

    #[test]
    fn gates_hold_only_closure_pointers_inline() {
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<InputGate>(), 2 * word);
        assert_eq!(std::mem::size_of::<OutputGate>(), 2 * word);
        let p = crate::PlaceId(0);
        let mut g = InputGate::guard("ig", |_| true);
        g.set_reads(ReadSet::Declared(vec![p]));
        assert_eq!(g.name(), "ig");
        assert_eq!(g.reads().as_declared(), Some(&[p][..]));
        let mut og = OutputGate::new("og", |_, _| {});
        og.set_writes(ReadSet::Declared(vec![p]));
        assert_eq!(og.name(), "og");
        assert!(!og.reads().is_declared());
        assert_eq!(og.writes().as_declared(), Some(&[p][..]));
    }

    #[test]
    fn debug_impls() {
        let g = InputGate::guard("ig", |_| true);
        assert!(format!("{g:?}").contains("ig"));
        let og = OutputGate::new("og", |_, _| {});
        assert!(format!("{og:?}").contains("og"));
    }
}
