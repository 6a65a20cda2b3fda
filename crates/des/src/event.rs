//! A cancellable future-event list with deterministic ordering.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Opaque handle to a scheduled event, used for cancellation.
///
/// Handles are unique for the lifetime of the [`EventQueue`] that issued them;
/// cancelling a handle twice, or after the event fired, is a harmless no-op
/// that returns `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

struct Entry<T> {
    time: SimTime,
    /// Higher priority fires first among events at the same instant.
    priority: i32,
    /// FIFO tie-breaker among events with equal time and priority.
    seq: u64,
    id: EventId,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert time (earliest first), keep
        // priority natural (highest first), invert seq (lowest first).
        other
            .time
            .cmp(&self.time)
            .then_with(|| self.priority.cmp(&other.priority))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The future-event list of a discrete-event simulation.
///
/// Events carry an arbitrary payload `T`. Ordering is deterministic:
///
/// 1. earliest [`SimTime`] first,
/// 2. then highest `priority`,
/// 3. then insertion order (FIFO).
///
/// Cancellation is *lazy*: [`EventQueue::cancel`] marks the handle and the
/// entry is discarded when it reaches the head, so cancel is `O(1)` and pop
/// stays `O(log n)` amortized.
///
/// # Example
///
/// ```
/// use vsched_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let a = q.schedule(SimTime::new(1.0), 0, 'a');
/// let _b = q.schedule(SimTime::new(1.0), 5, 'b'); // same time, higher priority
/// q.cancel(a);
/// assert_eq!(q.pop().map(|(_, _, p)| p), Some('b'));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Ids scheduled but not yet fired or cancelled. Bounds memory to the
    /// number of in-flight events.
    pending: HashSet<EventId>,
    /// Ids cancelled but still physically present in the heap (lazy removal).
    cancelled: HashSet<EventId>,
    next_seq: u64,
    /// Time of the last popped event, tracked only while the monotonicity
    /// check is enabled (see [`EventQueue::enable_monotonicity_check`]).
    last_popped: Option<SimTime>,
    monotonicity_check: bool,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            last_popped: None,
            monotonicity_check: false,
        }
    }

    /// Enables the event-clock monotonicity check: after this call, every
    /// [`EventQueue::pop`] asserts that event times never decrease. A
    /// violation would mean the future-event list is corrupted (a broken
    /// ordering or a mutation of an entry while heaped) and panics rather
    /// than silently running the simulation backwards in time.
    ///
    /// Disabled by default; when disabled the only cost is one untaken
    /// branch per pop.
    pub fn enable_monotonicity_check(&mut self) {
        self.monotonicity_check = true;
    }

    /// Schedules `payload` to fire at `time` with the given `priority`
    /// (higher fires first at equal times). Returns a cancellation handle.
    pub fn schedule(&mut self, time: SimTime, priority: i32, payload: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = EventId(seq);
        self.heap.push(Entry {
            time,
            priority,
            seq,
            id,
            payload,
        });
        self.pending.insert(id);
        id
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.pending.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Number of pending (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The next pending event as `(time, priority, &payload)`, without
    /// removing it.
    #[must_use]
    pub fn peek(&mut self) -> Option<(SimTime, i32, &T)> {
        self.prune();
        self.heap.peek().map(|e| (e.time, e.priority, &e.payload))
    }

    /// Removes and returns the next event as `(time, id, payload)`.
    ///
    /// # Panics
    ///
    /// If the monotonicity check is enabled and the popped event is earlier
    /// than a previously popped one (a corrupted future-event list).
    pub fn pop(&mut self) -> Option<(SimTime, EventId, T)> {
        self.prune();
        let entry = self.heap.pop()?;
        self.pending.remove(&entry.id);
        if self.monotonicity_check {
            if let Some(last) = self.last_popped {
                assert!(
                    entry.time >= last,
                    "event queue monotonicity violated: popped t={:?} after t={:?}",
                    entry.time,
                    last
                );
            }
            self.last_popped = Some(entry.time);
        }
        Some((entry.time, entry.id, entry.payload))
    }

    /// Drops all pending events and resets the monotonicity watermark.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pending.clear();
        self.cancelled.clear();
        self.last_popped = None;
    }

    /// Drops cancelled entries off the head. With nothing cancelled the
    /// head is live, and no id is hashed.
    fn prune(&mut self) {
        while !self.cancelled.is_empty() {
            match self.heap.peek() {
                Some(head) if self.cancelled.remove(&head.id) => {
                    self.heap.pop();
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 0, 3);
        q.schedule(t(1.0), 0, 1);
        q.schedule(t(2.0), 0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn priority_breaks_time_ties() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 0, "low");
        q.schedule(t(1.0), 10, "high");
        assert_eq!(q.pop().unwrap().2, "high");
        assert_eq!(q.pop().unwrap().2, "low");
    }

    #[test]
    fn fifo_breaks_priority_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(1.0), 0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), 0, 'a');
        let b = q.schedule(t(2.0), 0, 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, b);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), 0, ());
        q.pop().unwrap();
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut other: EventQueue<()> = EventQueue::new();
        let foreign = other.schedule(t(1.0), 0, ());
        assert!(!q.cancel(foreign));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), 0, ());
        q.schedule(t(2.0), 0, ());
        q.cancel(a);
        assert_eq!(q.peek().map(|(time, _, _)| time), Some(t(2.0)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 0, ());
        q.schedule(t(2.0), 0, ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn monotonicity_check_accepts_ordered_pops() {
        let mut q = EventQueue::new();
        q.enable_monotonicity_check();
        q.schedule(t(2.0), 0, 'b');
        q.schedule(t(1.0), 0, 'a');
        assert_eq!(q.pop().unwrap().2, 'a');
        // Scheduling in the past *before* anything later fired is legal.
        q.schedule(t(1.5), 0, 'm');
        assert_eq!(q.pop().unwrap().2, 'm');
        assert_eq!(q.pop().unwrap().2, 'b');
        // clear() resets the watermark, so earlier times are fine again.
        q.clear();
        q.schedule(t(0.5), 0, 'z');
        assert_eq!(q.pop().unwrap().2, 'z');
    }

    #[test]
    #[should_panic(expected = "monotonicity violated")]
    fn monotonicity_check_catches_time_regression() {
        let mut q = EventQueue::new();
        q.enable_monotonicity_check();
        q.schedule(t(5.0), 0, ());
        q.pop().unwrap();
        // Scheduling behind the already-fired frontier is exactly the
        // corruption this check exists to catch.
        q.schedule(t(1.0), 0, ());
        q.pop().unwrap();
    }

    #[test]
    fn same_time_pops_priority_descending_then_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), 1, "low-first");
        q.schedule(t(5.0), 9, "high-first");
        q.schedule(t(5.0), 9, "high-second");
        q.schedule(t(5.0), 1, "low-second");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(
            order,
            ["high-first", "high-second", "low-first", "low-second"]
        );
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let mut q = EventQueue::new();
        let low = q.schedule(t(1.0), 2, 10u32);
        q.schedule(t(1.0), 7, 20u32);
        assert_eq!(q.peek(), Some((t(1.0), 7, &20)));
        assert_eq!(q.pop().unwrap().2, 20);
        assert_eq!(q.len(), 1);
        // A cancelled head is skipped, as by `pop`.
        q.cancel(low);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), 0, 5);
        q.schedule(t(1.0), 0, 1);
        assert_eq!(q.pop().unwrap().2, 1);
        q.schedule(t(3.0), 0, 3);
        // Events scheduled at the instant just popped still go first,
        // higher priority first.
        q.schedule(t(1.0), 0, 10);
        q.schedule(t(1.0), 7, 17);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![17, 10, 3, 5]);
    }
}
