//! Property-based tests: the event queue against a reference model.

use proptest::prelude::*;
use vsched_des::{EventQueue, SimTime};

/// Operations the fuzzer may apply.
#[derive(Debug, Clone)]
enum Op {
    Schedule { time: u32, priority: i8 },
    Pop,
    CancelNth(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..1000, any::<i8>()).prop_map(|(time, priority)| Op::Schedule { time, priority }),
        Just(Op::Pop),
        (0usize..64).prop_map(Op::CancelNth),
    ]
}

/// Reference: a plain vector re-sorted on every pop.
#[derive(Default)]
struct Reference {
    // (time, priority, seq, cancelled)
    items: Vec<(u32, i8, u64, bool)>,
    next_seq: u64,
}

impl Reference {
    fn schedule(&mut self, time: u32, priority: i8) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push((time, priority, seq, false));
        seq
    }
    fn cancel(&mut self, seq: u64) -> bool {
        for it in &mut self.items {
            if it.2 == seq && !it.3 {
                it.3 = true;
                return true;
            }
        }
        false
    }
    fn pop(&mut self) -> Option<u64> {
        let best = self
            .items
            .iter()
            .filter(|it| !it.3)
            .min_by_key(|&&(time, priority, seq, _)| (time, std::cmp::Reverse(priority), seq))?
            .2;
        self.items.retain(|it| it.2 != best);
        Some(best)
    }
    fn len(&self) -> usize {
        self.items.iter().filter(|it| !it.3).count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary op sequences: the queue and the reference agree on every
    /// pop result, every cancel result, and the live count.
    #[test]
    fn queue_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut queue = EventQueue::new();
        let mut reference = Reference::default();
        // seq -> EventId mapping (insertion order matches).
        let mut ids = Vec::new();
        for op in ops {
            match op {
                Op::Schedule { time, priority } => {
                    let id = queue.schedule(
                        SimTime::new(f64::from(time)),
                        i32::from(priority),
                        (),
                    );
                    let seq = reference.schedule(time, priority);
                    ids.push((seq, id));
                }
                Op::Pop => {
                    let got = queue.pop().map(|(_, id, ())| id);
                    let expected_seq = reference.pop();
                    let expected = expected_seq
                        .map(|seq| ids.iter().find(|(s, _)| *s == seq).unwrap().1);
                    prop_assert_eq!(got, expected);
                }
                Op::CancelNth(n) => {
                    if let Some(&(seq, id)) = ids.get(n) {
                        let got = queue.cancel(id);
                        let expected = reference.cancel(seq);
                        prop_assert_eq!(got, expected);
                    }
                }
            }
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(queue.is_empty(), reference.len() == 0);
        }
        // Drain both and compare the full remaining order.
        loop {
            let got = queue.pop().map(|(_, id, ())| id);
            let expected = reference
                .pop()
                .map(|seq| ids.iter().find(|(s, _)| *s == seq).unwrap().1);
            prop_assert_eq!(got, expected);
            if got.is_none() {
                break;
            }
        }
    }

    /// Pop order is non-decreasing in time regardless of insertion order.
    #[test]
    fn pops_are_time_ordered(times in proptest::collection::vec(0.0f64..1e6, 1..100)) {
        let mut queue = EventQueue::new();
        for &t in &times {
            queue.schedule(SimTime::new(t), 0, ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _, ())) = queue.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }
}
