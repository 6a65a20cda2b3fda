//! The data structures of incremental reevaluation: the counted arc
//! conditions, a place → dependents index, and the ordered candidate set
//! one pass drains.

use crate::activity::ActivitySpec;
use crate::marking::{Marking, PlaceId};

/// One arc condition of one activity: a threshold on one place.
#[derive(Debug, Clone, Copy)]
struct Condition {
    /// Holds while the place has at least this many tokens, or fewer for
    /// an inhibitor.
    threshold: i64,
    activity: u32,
    inhibitor: bool,
    /// Truth value at the marking of the last update.
    holds: bool,
}

impl Condition {
    #[inline]
    fn test(&self, tokens: i64) -> bool {
        (tokens >= self.threshold) != self.inhibitor
    }
}

/// Every input, test and inhibitor arc condition of a model, grouped by
/// place, with each activity's count of conditions that fail.
///
/// An input arc of weight `w` counts as "at least `w`", a test arc of
/// weight `k` as "at least `k`", an inhibitor arc of weight `k` as "fewer
/// than `k`". An activity's arcs allow it to be enabled exactly when its
/// count is 0, so after a state change only the conditions on the changed
/// places need a look, and only activities whose count reaches or leaves
/// 0 can change enablement through their arcs.
#[derive(Debug, Default)]
pub(crate) struct ConditionTable {
    /// `offsets[p] .. offsets[p + 1]` indexes `conds` for place `p`.
    offsets: Vec<u32>,
    /// The conditions, grouped by place, in activity order within a place.
    conds: Vec<Condition>,
    /// Per activity, how many of its conditions are false.
    unmet: Vec<u32>,
}

impl ConditionTable {
    /// The conditions of `activities` over `marking`'s places, with their
    /// truth values and counts at `marking`. O(places + arcs).
    pub(crate) fn build(activities: &[ActivitySpec], marking: &Marking) -> Self {
        let num_places = marking.len();
        let mut offsets = vec![0u32; num_places + 1];
        for spec in activities {
            for (p, _, _) in spec.arc_conditions() {
                offsets[p.index() + 1] += 1;
            }
        }
        for p in 0..num_places {
            offsets[p + 1] += offsets[p];
        }
        let mut cursor: Vec<u32> = offsets[..num_places].to_vec();
        let blank = Condition {
            threshold: 0,
            activity: 0,
            inhibitor: false,
            holds: true,
        };
        let mut conds = vec![blank; offsets[num_places] as usize];
        for (a, spec) in activities.iter().enumerate() {
            for (p, threshold, inhibitor) in spec.arc_conditions() {
                let slot = &mut cursor[p.index()];
                conds[*slot as usize] = Condition {
                    threshold,
                    activity: a as u32,
                    inhibitor,
                    holds: true,
                };
                *slot += 1;
            }
        }
        let mut table = ConditionTable {
            offsets,
            conds,
            unmet: vec![0; activities.len()],
        };
        table.refresh(marking);
        table
    }

    /// Recomputes every truth value and count from `marking`.
    pub(crate) fn refresh(&mut self, marking: &Marking) {
        self.unmet.fill(0);
        let tokens = marking.as_slice();
        for (p, &t) in tokens.iter().enumerate() {
            let range = self.offsets[p] as usize..self.offsets[p + 1] as usize;
            for c in &mut self.conds[range] {
                c.holds = c.test(t);
                self.unmet[c.activity as usize] += u32::from(!c.holds);
            }
        }
    }

    /// How many of activity `a`'s conditions fail.
    #[inline]
    pub(crate) fn unmet(&self, a: usize) -> u32 {
        self.unmet[a]
    }

    /// Re-tests the conditions on place `p`, which now holds `tokens`,
    /// and inserts into `moved` every activity whose count reaches or
    /// leaves 0.
    #[inline]
    pub(crate) fn update(&mut self, p: usize, tokens: i64, moved: &mut OrderedSet) {
        let range = self.offsets[p] as usize..self.offsets[p + 1] as usize;
        for c in &mut self.conds[range] {
            let holds = c.test(tokens);
            if holds == c.holds {
                continue;
            }
            c.holds = holds;
            let a = c.activity as usize;
            let unmet = &mut self.unmet[a];
            if holds {
                *unmet -= 1;
                if *unmet == 0 {
                    moved.insert(a);
                }
            } else {
                if *unmet == 0 {
                    moved.insert(a);
                }
                *unmet += 1;
            }
        }
    }
}

/// Place → dependents index: for every place, the items (activities, or
/// rate rewards) whose declared read-set contains it, plus the
/// *conservative* items, whose read-set is undeclared and which therefore
/// depend on every place.
///
/// Stored in CSR (offsets + one flat data array) rather than a `Vec` per
/// place: at 1000-VM scale the per-place `Vec` headers alone cost more
/// cache traffic than the dependent lists themselves, and the hot loop
/// walks several lists per completion.
#[derive(Debug, Default)]
pub(crate) struct DependencyIndex {
    /// `offsets[p] .. offsets[p + 1]` indexes `data` for place `p`.
    offsets: Vec<u32>,
    /// Dependent item indices, ascending within each place's range.
    data: Vec<u32>,
    /// Items with an undeclared read-set, ascending.
    pub(crate) conservative: Vec<u32>,
}

impl DependencyIndex {
    /// Indexes items `0, 1, …` over `num_places` places. `reads` yields
    /// each item's read-set in item order, sorted and deduplicated, or
    /// `None` for a conservative item; it is walked twice.
    pub(crate) fn build<'a, I>(num_places: usize, reads: I) -> Self
    where
        I: IntoIterator<Item = Option<&'a [PlaceId]>>,
        I::IntoIter: Clone,
    {
        let reads = reads.into_iter();
        // Two passes: count per-place degrees, then fill the flat array.
        let mut offsets = vec![0u32; num_places + 1];
        let mut conservative = Vec::new();
        for (i, r) in reads.clone().enumerate() {
            match r {
                Some(places) => {
                    for p in places {
                        offsets[p.index() + 1] += 1;
                    }
                }
                None => conservative.push(i as u32),
            }
        }
        for p in 0..num_places {
            offsets[p + 1] += offsets[p];
        }
        let mut cursor: Vec<u32> = offsets[..num_places].to_vec();
        let mut data = vec![0u32; offsets[num_places] as usize];
        // Each read-set is sorted and deduplicated, and `i` is ascending,
        // so every per-place range ends up ascending too.
        for (i, places) in reads.enumerate() {
            for p in places.unwrap_or_default() {
                let slot = &mut cursor[p.index()];
                data[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        DependencyIndex {
            offsets,
            data,
            conservative,
        }
    }

    /// Items whose read-set contains place `p`, ascending.
    #[inline]
    pub(crate) fn dependents(&self, p: usize) -> &[u32] {
        &self.data[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// A set of indices below a bound that drains in ascending order: the
/// candidates of one reevaluation pass. An insert is O(1) and the set
/// remembers the lowest and highest word it touched, so draining scans
/// only that span, and ascending order comes without a sort.
#[derive(Debug, Default)]
pub(crate) struct OrderedSet {
    words: Vec<u64>,
    /// No word below this one holds a bit.
    lo: usize,
    /// No word at or above this one holds a bit.
    hi: usize,
}

impl OrderedSet {
    /// An empty set for indices below `bound`.
    pub(crate) fn with_bound(bound: usize) -> Self {
        let mut set = OrderedSet::default();
        set.raise_bound(bound);
        set
    }

    /// Makes room for indices below `bound`. The words grow like a `Vec`,
    /// so raising the bound one index at a time costs amortised O(1).
    pub(crate) fn raise_bound(&mut self, bound: usize) {
        let words = bound.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Adds index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` lies beyond the room `with_bound` and `raise_bound`
    /// made (they round the bound up to whole words).
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1 << (i % 64);
        if self.lo >= self.hi {
            (self.lo, self.hi) = (w, w + 1);
        } else {
            self.lo = self.lo.min(w);
            self.hi = self.hi.max(w + 1);
        }
    }

    /// Removes and returns the smallest index, or `None` if the set is
    /// empty.
    #[inline]
    pub(crate) fn pop_first(&mut self) -> Option<usize> {
        while self.lo < self.hi {
            let word = &mut self.words[self.lo];
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.lo * 64 + bit);
            }
            self.lo += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vsched_des::Xoshiro256StarStar;

    fn drain(set: &mut OrderedSet) -> Vec<usize> {
        std::iter::from_fn(|| set.pop_first()).collect()
    }

    #[test]
    fn drains_like_a_btree_set_across_word_boundaries() {
        let mut rng = Xoshiro256StarStar::seed_from(7);
        let mut set = OrderedSet::with_bound(300);
        for round in 0..200 {
            let mut reference = BTreeSet::new();
            // The word edges, then a random batch of any size up to 40.
            let edges = [63, 64, 127, 128, 0, 299];
            let extra = rng.next_below(41) as usize;
            let batch = edges
                .iter()
                .copied()
                .take(round % (edges.len() + 1))
                .chain((0..extra).map(|_| rng.next_below(300) as usize));
            for i in batch {
                set.insert(i);
                reference.insert(i);
            }
            assert_eq!(drain(&mut set), reference.into_iter().collect::<Vec<_>>());
            assert_eq!(set.pop_first(), None, "a drained set is empty");
        }
    }

    #[test]
    fn inserts_below_the_drained_span_are_found() {
        let mut set = OrderedSet::with_bound(256);
        set.insert(200);
        assert_eq!(set.pop_first(), Some(200));
        set.insert(3);
        set.insert(130);
        set.insert(3);
        assert_eq!(drain(&mut set), [3, 130]);
    }

    #[test]
    fn raising_the_bound_keeps_members() {
        let mut set = OrderedSet::with_bound(10);
        set.insert(9);
        set.raise_bound(129);
        set.insert(128);
        set.raise_bound(5);
        assert_eq!(drain(&mut set), [9, 128]);
    }

    #[test]
    fn condition_counts_follow_the_marking_and_report_zero_crossings() {
        let mut mb = crate::ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let q = mb.place("q", 0).unwrap();
        // `a`: input arc p >= 1 and inhibitor q < 1, both met at start;
        // `b`: test arc q >= 2, unmet.
        let a = mb.activity("a").unwrap().input_arc(p, 1);
        a.inhibitor_arc(q, 1).done().unwrap();
        mb.activity("b").unwrap().test_arc(q, 2).done().unwrap();
        let model = mb.build().unwrap();
        let mut marking = model.initial_marking();
        let mut table = ConditionTable::build(&model.activities, &marking);
        let counts = |t: &ConditionTable| (t.unmet(0), t.unmet(1));
        assert_eq!(counts(&table), (0, 1));
        let mut moved = OrderedSet::with_bound(2);
        // `a` leaves 0; `b` stays at 1.
        table.update(q.index(), 1, &mut moved);
        assert_eq!((counts(&table), drain(&mut moved)), ((1, 1), vec![0]));
        // `b` reaches 0; `a`'s inhibitor stays failed.
        table.update(q.index(), 2, &mut moved);
        assert_eq!((counts(&table), drain(&mut moved)), ((1, 0), vec![1]));
        // `a` goes from 1 to 2 failing conditions: no crossing.
        table.update(p.index(), 0, &mut moved);
        assert_eq!((counts(&table), drain(&mut moved)), ((2, 0), vec![]));
        marking.set(q, 2);
        marking.set(p, 0);
        let rebuilt = ConditionTable::build(&model.activities, &marking);
        assert_eq!(counts(&rebuilt), counts(&table));
        table.refresh(&marking);
        assert_eq!(counts(&table), (2, 0));
    }

    #[test]
    fn dependency_index_lists_readers_per_place_and_conservative_items() {
        let (p0, p2) = (PlaceId::from_index(0), PlaceId::from_index(2));
        let reads: Vec<Option<Vec<PlaceId>>> =
            vec![Some(vec![p0, p2]), None, Some(vec![p2]), Some(vec![]), None];
        let index = DependencyIndex::build(3, reads.iter().map(Option::as_deref));
        assert_eq!(index.dependents(0), [0]);
        assert_eq!(index.dependents(1), [] as [u32; 0]);
        assert_eq!(index.dependents(2), [0, 2]);
        assert_eq!(index.conservative, [1, 4]);
    }
}
