//! The simulator's event calendar: the pending completion of every
//! activated activity.
//!
//! Timed completions wait in one [`EventQueue`], all at effective
//! priority `0`. Instantaneous completions never enter it: they wait on a
//! zero-delay agenda, one FIFO per distinct effective priority, which is
//! the current instant's zone and drains before the clock moves.
//! [`Calendar::peek`] merges the two heads by time, then effective
//! priority (highest first), then activation order, which is the order
//! one queue holding every completion would pop.

use std::collections::VecDeque;

use vsched_des::{EventId, EventQueue, SimTime};

use crate::activity::ActivityId;

/// The stamp of an activity with no pending completion.
const IDLE: u64 = u64::MAX;

/// Where an activity's completion waits once activated.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// On the agenda, at this level of `levels`.
    Agenda(u32),
    /// In the timed queue, with its handle at this index of `handles`.
    Timed(u32),
}

/// The completion due next, as [`Calendar::peek`] found it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Due {
    pub(crate) time: SimTime,
    pub(crate) act: ActivityId,
    on_agenda: bool,
}

/// Pending completions, at most one per activity. See the module docs.
pub(crate) struct Calendar {
    /// Timed completions, all at effective priority 0.
    timed: EventQueue<ActivityId>,
    /// The agenda: `(effective priority, FIFO of (activity, stamp))`,
    /// highest first. The levels are fixed when the calendar is built, so
    /// a push or a pop never allocates a level. Each FIFO starts with room
    /// for every activity of its priority pending at once, so a push grows
    /// it only while cancelled entries ahead of it still wait to be
    /// dropped, and a burst of activations mid-run does not.
    levels: Vec<(i32, VecDeque<(u32, u64)>)>,
    /// Per activity: where its completion waits.
    slot: Vec<Slot>,
    /// No level before this index holds an entry.
    top: usize,
    /// Per activity: the activation stamp of its pending completion, or
    /// [`IDLE`]. Among completions due at the same instant with the same
    /// effective priority the lowest stamp fires first, and an agenda
    /// entry is live only while its stamp is the pending one.
    stamps: Vec<u64>,
    /// Per timed activity: the timed queue's handle of its latest
    /// completion, meaningful while the activity is pending.
    handles: Vec<Option<EventId>>,
    /// Stamp of the next activation.
    next_stamp: u64,
}

impl Calendar {
    /// An empty calendar for activities whose effective priorities are
    /// `priorities` (`None` for a timed activity).
    pub(crate) fn new(priorities: &[Option<i32>]) -> Self {
        let mut distinct: Vec<i32> = priorities.iter().flatten().copied().collect();
        distinct.sort_unstable_by(|a, b| b.cmp(a));
        distinct.dedup();
        let mut timed = 0;
        let mut level_sizes = vec![0; distinct.len()];
        let slot = priorities
            .iter()
            .map(|p| match p {
                Some(p) => {
                    let level = distinct.binary_search_by(|d| p.cmp(d));
                    let level = level.expect("every priority has a level");
                    level_sizes[level] += 1;
                    Slot::Agenda(fits_u32(level))
                }
                None => {
                    timed += 1;
                    Slot::Timed(fits_u32(timed - 1))
                }
            })
            .collect();
        Calendar {
            timed: EventQueue::new(),
            top: distinct.len(),
            levels: distinct
                .into_iter()
                .zip(level_sizes)
                .map(|(p, size)| (p, VecDeque::with_capacity(size)))
                .collect(),
            slot,
            stamps: vec![IDLE; priorities.len()],
            handles: vec![None; timed],
            next_stamp: 0,
        }
    }

    /// Enables the timed queue's monotonicity check (see
    /// [`EventQueue::enable_monotonicity_check`]). Agenda entries are due
    /// at the current instant by construction.
    pub(crate) fn enable_monotonicity_check(&mut self) {
        self.timed.enable_monotonicity_check();
    }

    /// Whether activity `act` has a pending completion.
    pub(crate) fn is_pending(&self, act: usize) -> bool {
        self.stamps[act] != IDLE
    }

    /// Number of pending completions.
    pub(crate) fn len(&self) -> usize {
        self.stamps.iter().filter(|&&s| s != IDLE).count()
    }

    /// Schedules the completion of timed activity `act` at `when`.
    pub(crate) fn schedule_timed(&mut self, act: usize, when: SimTime) {
        let Slot::Timed(h) = self.slot[act] else {
            panic!("activity {act} is instantaneous")
        };
        self.stamps[act] = self.stamp(act);
        self.handles[h as usize] = Some(self.timed.schedule(when, 0, ActivityId(act)));
    }

    /// Queues the completion of instantaneous activity `act` at the
    /// current instant, behind every entry of its priority.
    pub(crate) fn schedule_now(&mut self, act: usize) {
        let Slot::Agenda(level) = self.slot[act] else {
            panic!("activity {act} is timed")
        };
        let stamp = self.stamp(act);
        self.stamps[act] = stamp;
        let level = level as usize;
        self.levels[level].1.push_back((fits_u32(act), stamp));
        self.top = self.top.min(level);
    }

    /// The next activation stamp, for an activity with nothing pending.
    fn stamp(&mut self, act: usize) -> u64 {
        debug_assert!(!self.is_pending(act), "one pending completion per activity");
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    /// Discards the pending completion of activity `act`; `false` if it had
    /// none. An agenda entry is left behind: its stamp is no longer
    /// pending, so it is dropped when it reaches the front of its FIFO.
    pub(crate) fn cancel(&mut self, act: usize) -> bool {
        if !self.is_pending(act) {
            return false;
        }
        self.stamps[act] = IDLE;
        if let Slot::Timed(h) = self.slot[act] {
            let event = self.handles[h as usize].expect("a pending timed activity has a handle");
            self.timed.cancel(event);
        }
        true
    }

    /// The completion due next when the clock reads `now`. The agenda's
    /// head is due now; the timed head goes first only when it is due now
    /// too and wins on effective priority (`0` against the head's) or,
    /// tied, on activation order.
    pub(crate) fn peek(&mut self, now: SimTime) -> Option<Due> {
        let instant = self.agenda_head();
        let timed = self.timed.peek().map(|(t, _, &act)| (t, act));
        let (time, act, on_agenda) = match (instant, timed) {
            (Some((priority, act, stamp)), Some((t, timed_act))) => {
                let timed_first =
                    t <= now && (priority < 0 || priority == 0 && self.stamps[timed_act.0] < stamp);
                if timed_first {
                    (t, timed_act, false)
                } else {
                    (now, ActivityId(act), true)
                }
            }
            (Some((_, act, _)), None) => (now, ActivityId(act), true),
            (None, Some((t, act))) => (t, act, false),
            (None, None) => return None,
        };
        Some(Due {
            time,
            act,
            on_agenda,
        })
    }

    /// Removes `due`, which must be what [`Calendar::peek`] returned last,
    /// with no change to the calendar since.
    pub(crate) fn take(&mut self, due: Due) {
        if due.on_agenda {
            let head = self.levels[self.top].1.pop_front();
            debug_assert_eq!(head.map(|(act, _)| act as usize), Some(due.act.0));
        } else {
            let head = self.timed.pop();
            debug_assert_eq!(head.map(|(_, _, act)| act), Some(due.act));
        }
        self.stamps[due.act.0] = IDLE;
    }

    /// The agenda's first live entry, as `(effective priority, activity,
    /// stamp)`; cancelled entries ahead of it are dropped.
    fn agenda_head(&mut self) -> Option<(i32, usize, u64)> {
        while let Some((priority, fifo)) = self.levels.get_mut(self.top) {
            while let Some(&(act, stamp)) = fifo.front() {
                if self.stamps[act as usize] == stamp {
                    return Some((*priority, act as usize, stamp));
                }
                fifo.pop_front();
            }
            self.top += 1;
        }
        None
    }
}

/// `index` as a `u32`: activity and level counts fit 32 bits.
fn fits_u32(index: usize) -> u32 {
    u32::try_from(index).expect("activity count fits u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    /// Pops the next completion and moves `now` to its time, as the
    /// simulator's event loop does.
    fn pop(cal: &mut Calendar, now: &mut SimTime) -> Option<(SimTime, usize)> {
        let due = cal.peek(*now)?;
        cal.take(due);
        *now = due.time;
        Some((due.time, due.act.0))
    }

    /// Every remaining completion, in firing order, from `now`.
    fn drain(cal: &mut Calendar, mut now: SimTime) -> Vec<usize> {
        std::iter::from_fn(|| pop(cal, &mut now).map(|(_, act)| act)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new(&[None; 3]);
        cal.schedule_timed(1, t(2.0));
        cal.schedule_timed(0, t(1.0));
        cal.schedule_timed(2, t(3.0));
        assert_eq!(drain(&mut cal, SimTime::ZERO), [0, 1, 2]);
    }

    #[test]
    fn same_time_pops_priority_descending_then_insertion_order() {
        let [low_first, high_first, high_second, low_second] = [0, 1, 2, 3];
        let mut cal = Calendar::new(&[Some(1), Some(9), Some(9), Some(1)]);
        for act in [low_first, high_first, high_second, low_second] {
            cal.schedule_now(act);
        }
        assert_eq!(
            drain(&mut cal, t(5.0)),
            [high_first, high_second, low_first, low_second]
        );
    }

    #[test]
    fn cancel_prevents_pop_and_is_idempotent() {
        // `x` is on the agenda, `y` in the timed queue.
        let [x, y] = [0, 1];
        let mut cal = Calendar::new(&[Some(0), None]);
        cal.schedule_now(x);
        cal.schedule_timed(y, t(2.0));
        assert!(cal.cancel(x));
        assert!(!cal.cancel(x), "second cancel reports false");
        assert_eq!(cal.len(), 1);
        let mut now = t(1.0);
        assert_eq!(pop(&mut cal, &mut now), Some((t(2.0), y)));
        assert!(pop(&mut cal, &mut now).is_none());
        // The same holds in the timed queue.
        cal.schedule_timed(y, t(3.0));
        assert!(cal.cancel(y));
        assert!(!cal.cancel(y));
        assert!(pop(&mut cal, &mut now).is_none());
    }

    #[test]
    fn stale_handle_after_slot_reuse_is_rejected() {
        // `a` is activated, cancelled and activated again at one instant:
        // its first agenda entry stays at the front of the FIFO, but the
        // activity's stamp slot now holds the new activation, so the stale
        // entry never fires and `b`, activated in between, goes first.
        let [a, b] = [0, 1];
        let mut cal = Calendar::new(&[Some(4), Some(4)]);
        cal.schedule_now(a);
        assert!(cal.cancel(a));
        cal.schedule_now(b);
        cal.schedule_now(a);
        assert_eq!(cal.len(), 2);
        assert_eq!(drain(&mut cal, t(1.0)), [b, a]);
        assert_eq!(cal.len(), 0);
        assert!(!cal.cancel(a), "the popped activation is no longer pending");
    }

    #[test]
    fn events_scheduled_mid_instant_join_the_current_cohort() {
        // The SAN engine's instantaneous cascades do exactly this: fire a
        // completion at time t, activate more instantaneous work, and
        // expect it to fire before anything later, by priority.
        let [first, later, cascade_low, cascade_high] = [0, 1, 2, 3];
        let mut cal = Calendar::new(&[Some(5), None, Some(3), Some(7)]);
        let mut now = t(1.0);
        cal.schedule_now(first);
        cal.schedule_timed(later, t(2.0));
        assert_eq!(pop(&mut cal, &mut now), Some((t(1.0), first)));
        cal.schedule_now(cascade_low);
        cal.schedule_now(cascade_high);
        assert_eq!(pop(&mut cal, &mut now), Some((t(1.0), cascade_high)));
        assert_eq!(pop(&mut cal, &mut now), Some((t(1.0), cascade_low)));
        assert_eq!(pop(&mut cal, &mut now), Some((t(2.0), later)));
    }

    #[test]
    fn earlier_schedule_than_zone_time_spills_and_reorders() {
        let [zone, early, below, zero_delay] = [0, 1, 2, 3];
        let mut cal = Calendar::new(&[None, None, Some(-1), None]);
        let mut now = SimTime::ZERO;
        cal.schedule_timed(zone, t(5.0));
        assert_eq!(cal.peek(now).map(|d| d.time), Some(t(5.0)));
        // An earlier completion still pops first.
        cal.schedule_timed(early, t(1.0));
        assert_eq!(pop(&mut cal, &mut now), Some((t(1.0), early)));
        // At the current instant, a zero-delay timed completion (effective
        // priority 0) goes ahead of an agenda entry below it.
        cal.schedule_now(below);
        cal.schedule_timed(zero_delay, now);
        assert_eq!(drain(&mut cal, now), [zero_delay, below, zone]);
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let [low, high] = [0, 1];
        let mut cal = Calendar::new(&[Some(2), Some(7)]);
        cal.schedule_now(low);
        cal.schedule_now(high);
        let now = t(1.0);
        let due = cal.peek(now).unwrap();
        assert_eq!((due.time, due.act), (now, ActivityId(high)));
        assert_eq!(cal.peek(now), Some(due));
        cal.take(due);
        assert_eq!(cal.len(), 1);
        assert_eq!(drain(&mut cal, now), [low]);
    }

    #[test]
    fn len_tracks_schedule_cancel_pop() {
        let [a, b, c] = [0, 1, 2];
        let mut cal = Calendar::new(&[None, None, Some(0)]);
        assert_eq!(cal.len(), 0);
        cal.schedule_timed(a, t(1.0));
        cal.schedule_timed(b, t(2.0));
        cal.schedule_now(c);
        assert_eq!(cal.len(), 3);
        cal.cancel(a);
        assert_eq!(cal.len(), 2);
        assert!(!cal.is_pending(a) && cal.is_pending(b) && cal.is_pending(c));
        let mut now = SimTime::ZERO;
        pop(&mut cal, &mut now);
        assert_eq!(cal.len(), 1);
        pop(&mut cal, &mut now);
        assert_eq!(cal.len(), 0);
        assert!(pop(&mut cal, &mut now).is_none());
    }

    #[test]
    #[should_panic(expected = "monotonicity violated")]
    fn monotonicity_check_fires_on_backwards_pop() {
        let mut cal = Calendar::new(&[None; 2]);
        cal.enable_monotonicity_check();
        let mut now = SimTime::ZERO;
        cal.schedule_timed(0, t(5.0));
        pop(&mut cal, &mut now);
        cal.schedule_timed(1, t(1.0));
        pop(&mut cal, &mut now);
    }

    /// The calendar against one [`EventQueue`] holding every completion
    /// at its effective priority, which is how the engine ordered events
    /// before the agenda: a mixed workload of timed and instantaneous
    /// activations, cancels and pops fires in exactly the same order.
    #[test]
    fn matches_event_queue_on_a_mixed_workload() {
        // Effective priorities on both sides of the timed 0.
        let priorities: Vec<Option<i32>> = (0..24)
            .map(|i| match i % 4 {
                0 => None,
                1 => Some(3),
                2 => Some(0),
                _ => Some(-2 + i / 8),
            })
            .collect();
        let mut cal = Calendar::new(&priorities);
        let mut reference: EventQueue<usize> = EventQueue::new();
        let mut ids: Vec<Option<EventId>> = vec![None; priorities.len()];
        let mut now = SimTime::ZERO;
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x1234_5678_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut popped = 0;
        for _ in 0..2_000 {
            let act = next(priorities.len() as u64) as usize;
            match next(4) {
                0 | 1 if ids[act].is_none() => {
                    let (time, priority) = match priorities[act] {
                        None => {
                            let when = t(now.as_f64() + next(3) as f64);
                            cal.schedule_timed(act, when);
                            (when, 0)
                        }
                        Some(p) => {
                            cal.schedule_now(act);
                            (now, p)
                        }
                    };
                    ids[act] = Some(reference.schedule(time, priority, act));
                }
                0 | 1 => {}
                2 => {
                    let expected = reference.pop().map(|(time, _, act)| (time, act));
                    if let Some((_, act)) = expected {
                        ids[act] = None;
                        popped += 1;
                    }
                    assert_eq!(pop(&mut cal, &mut now), expected);
                }
                _ => {
                    let expected = ids[act].take().is_some_and(|id| reference.cancel(id));
                    assert_eq!(cal.cancel(act), expected);
                }
            }
            assert_eq!(cal.len(), reference.len());
        }
        assert!(popped > 300, "the workload pops often enough: {popped}");
        loop {
            let expected = reference.pop().map(|(time, _, act)| (time, act));
            assert_eq!(pop(&mut cal, &mut now), expected);
            if expected.is_none() {
                break;
            }
        }
    }
}
