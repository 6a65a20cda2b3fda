//! Markings: the state of a SAN.

use std::fmt;
use std::rc::Rc;

/// Handle to a place in a model.
///
/// Issued by [`crate::ModelBuilder::place`]; only valid for the model that
/// created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) usize);

impl PlaceId {
    /// Index of this place in the marking vector.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index (inverse of [`PlaceId::index`]).
    /// Only meaningful for the model whose iteration produced the index —
    /// used by structural analysis tools that store places by position.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        PlaceId(index)
    }
}

/// The set of places a closure declares it reads.
///
/// Guards, gate functions, rate multipliers, dynamic case weights and rate
/// rewards are opaque closures; a declared read-set makes their data
/// dependencies visible so the simulator can reevaluate only the activities
/// and rewards a state change can actually affect. A closure without a
/// declaration conservatively [`ReadSet::All`]s — correct, just slower.
#[derive(Debug, Clone, Default)]
pub enum ReadSet {
    /// Conservative fallback: the closure may read any place.
    #[default]
    All,
    /// The closure reads only the listed places.
    Declared(Vec<PlaceId>),
}

impl ReadSet {
    /// Whether the read-set was explicitly declared.
    #[must_use]
    pub fn is_declared(&self) -> bool {
        matches!(self, ReadSet::Declared(_))
    }

    /// The declared places, or `None` for the conservative fallback.
    #[must_use]
    pub fn as_declared(&self) -> Option<&[PlaceId]> {
        match self {
            ReadSet::All => None,
            ReadSet::Declared(places) => Some(places),
        }
    }
}

/// The marking (token assignment) of every place in a model.
///
/// Token counts are `i64` for arithmetic convenience, but the SAN invariant —
/// markings are natural numbers — is enforced: any mutation that would drive
/// a place negative panics with the place's name, which is always a modeling
/// bug, not a runtime condition.
#[derive(Clone)]
pub struct Marking {
    tokens: Vec<i64>,
    names: Rc<Vec<String>>,
    /// First-touch-ordered log of places whose token count changed since the
    /// last [`Marking::clear_dirty`]; only populated while tracking is on.
    dirty: Vec<usize>,
    /// Membership flags for `dirty` (one per place); empty while tracking is
    /// off so untracked markings pay nothing but a branch per mutation.
    dirty_flags: Vec<bool>,
}

impl Marking {
    pub(crate) fn new(initial: Vec<i64>, names: Rc<Vec<String>>) -> Self {
        debug_assert_eq!(initial.len(), names.len());
        Marking {
            tokens: initial,
            names,
            dirty: Vec::new(),
            dirty_flags: Vec::new(),
        }
    }

    /// Switches on dirty-place tracking: from now on every mutation that
    /// changes a token count records the place. Used by the simulator's
    /// incremental reevaluation core.
    pub(crate) fn enable_dirty_tracking(&mut self) {
        self.dirty_flags = vec![false; self.tokens.len()];
    }

    /// Places whose token count changed since the last clear, in first-touch
    /// order. Empty while tracking is off.
    pub(crate) fn dirty(&self) -> &[usize] {
        &self.dirty
    }

    /// Forgets all recorded dirty places.
    pub(crate) fn clear_dirty(&mut self) {
        for &i in &self.dirty {
            self.dirty_flags[i] = false;
        }
        self.dirty.clear();
    }

    #[inline]
    fn record_touch(&mut self, idx: usize) {
        if let Some(flag) = self.dirty_flags.get_mut(idx) {
            if !*flag {
                *flag = true;
                self.dirty.push(idx);
            }
        }
    }

    /// Number of tokens in `place`.
    #[must_use]
    pub fn tokens(&self, place: PlaceId) -> i64 {
        self.tokens[place.0]
    }

    /// Sets `place` to exactly `count` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `count` is negative.
    pub fn set(&mut self, place: PlaceId, count: i64) {
        assert!(
            count >= 0,
            "cannot set place `{}` to negative marking {count}",
            self.names[place.0]
        );
        if self.tokens[place.0] != count {
            self.tokens[place.0] = count;
            self.record_touch(place.0);
        }
    }

    /// Adds `delta` tokens (may be negative).
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative.
    pub fn add(&mut self, place: PlaceId, delta: i64) {
        let new = self.tokens[place.0] + delta;
        assert!(
            new >= 0,
            "place `{}` would go negative: {} + {delta}",
            self.names[place.0],
            self.tokens[place.0]
        );
        if delta != 0 {
            self.tokens[place.0] = new;
            self.record_touch(place.0);
        }
    }

    /// Whether `place` holds at least `count` tokens.
    #[must_use]
    pub fn has(&self, place: PlaceId, count: i64) -> bool {
        self.tokens[place.0] >= count
    }

    /// Whether `place` is empty.
    #[must_use]
    pub fn is_empty(&self, place: PlaceId) -> bool {
        self.tokens[place.0] == 0
    }

    /// Name of `place` (for diagnostics).
    #[must_use]
    pub fn name(&self, place: PlaceId) -> &str {
        &self.names[place.0]
    }

    /// Number of places in the model.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // is_empty(place) queries one place
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the model has no places.
    #[must_use]
    pub fn is_model_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Raw view of all token counts, indexed by [`PlaceId::index`].
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        &self.tokens
    }
}

impl fmt::Debug for Marking {
    /// Renders only non-empty places to keep debug output readable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (i, &t) in self.tokens.iter().enumerate() {
            if t != 0 {
                map.entry(&self.names[i], &t);
            }
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marking(init: &[i64]) -> Marking {
        let names = Rc::new((0..init.len()).map(|i| format!("p{i}")).collect::<Vec<_>>());
        Marking::new(init.to_vec(), names)
    }

    #[test]
    fn basic_access() {
        let mut m = marking(&[1, 0, 5]);
        assert_eq!(m.tokens(PlaceId(0)), 1);
        assert!(m.has(PlaceId(2), 5));
        assert!(!m.has(PlaceId(2), 6));
        assert!(m.is_empty(PlaceId(1)));
        m.set(PlaceId(1), 3);
        assert_eq!(m.tokens(PlaceId(1)), 3);
        m.add(PlaceId(1), -3);
        assert!(m.is_empty(PlaceId(1)));
        assert_eq!(m.len(), 3);
        assert_eq!(m.as_slice(), &[1, 0, 5]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn set_negative_panics() {
        marking(&[0]).set(PlaceId(0), -1);
    }

    #[test]
    #[should_panic(expected = "p0")]
    fn underflow_names_the_place() {
        marking(&[2]).add(PlaceId(0), -3);
    }

    #[test]
    fn debug_shows_nonempty_only() {
        let m = marking(&[0, 7, 0]);
        let s = format!("{m:?}");
        assert!(s.contains("p1"));
        assert!(!s.contains("p0"));
    }

    #[test]
    fn dirty_tracking_records_changes_once() {
        let mut m = marking(&[1, 2, 3]);
        assert!(m.dirty().is_empty(), "tracking off: nothing recorded");
        m.set(PlaceId(0), 5);
        assert!(m.dirty().is_empty());
        m.enable_dirty_tracking();
        m.set(PlaceId(0), 5); // no-op write: value unchanged
        m.add(PlaceId(1), 0); // no-op delta
        assert!(m.dirty().is_empty(), "unchanged values are not dirty");
        m.add(PlaceId(1), 1);
        m.set(PlaceId(2), 0);
        m.add(PlaceId(1), -1);
        assert_eq!(m.dirty(), &[1, 2], "first-touch order, no duplicates");
        m.clear_dirty();
        assert!(m.dirty().is_empty());
        m.set(PlaceId(2), 7);
        assert_eq!(m.dirty(), &[2], "tracking resumes after clear");
    }

    #[test]
    fn read_set_accessors() {
        let all = ReadSet::All;
        assert!(!all.is_declared());
        assert!(all.as_declared().is_none());
        let declared = ReadSet::Declared(vec![PlaceId(3)]);
        assert!(declared.is_declared());
        assert_eq!(declared.as_declared(), Some(&[PlaceId(3)][..]));
    }

    #[test]
    fn clone_is_independent() {
        let m = marking(&[1]);
        let mut c = m.clone();
        c.set(PlaceId(0), 9);
        assert_eq!(m.tokens(PlaceId(0)), 1);
        assert_eq!(c.tokens(PlaceId(0)), 9);
    }
}
