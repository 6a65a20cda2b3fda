//! A scheduling-policy decorator that times every decision.
//!
//! The engines take the policy as a `Box<dyn SchedulingPolicy>`, so the
//! traced run hands them a [`TimedPolicy`] around the built-in one. It
//! forwards every trait method unchanged; only `schedule` is timed, as a
//! `sched.call` span under whatever span its [`ParentSlot`] names.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use vsched_core::sched::{PolicyState, ViewFields};
use vsched_core::{PcpuView, ScheduleDecision, SchedulingPolicy, VcpuView};

use crate::ledger::{Ledger, SpanId};

/// The span that policy calls are currently made from. The code that
/// calls into the engine sets it before each call; the decorator reads it.
#[derive(Debug, Default)]
pub struct ParentSlot(AtomicU32);

impl ParentSlot {
    /// Makes `id` the parent of the next policy calls.
    pub fn set(&self, id: SpanId) {
        // Relaxed: the slot publishes no other data, and it is written
        // and read on the thread that drives the engine.
        self.0.store(id.0, Ordering::Relaxed);
    }

    fn get(&self) -> SpanId {
        SpanId(self.0.load(Ordering::Relaxed))
    }
}

/// Times `schedule` calls of the wrapped policy; forwards everything else.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    ledger: Arc<Ledger>,
    parent: Arc<ParentSlot>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `ledger` under `parent`.
    #[must_use]
    pub fn new(
        inner: Box<dyn SchedulingPolicy>,
        ledger: Arc<Ledger>,
        parent: Arc<ParentSlot>,
    ) -> Self {
        TimedPolicy {
            inner,
            ledger,
            parent,
        }
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
        timestamp: u64,
        default_timeslice: u64,
    ) -> ScheduleDecision {
        let inner = &mut self.inner;
        self.ledger
            .record("sched.call", Some(self.parent.get()), |_| {
                inner.schedule(vcpus, pcpus, timestamp, default_timeslice)
            })
    }

    fn snapshot_view(&self) -> ViewFields {
        self.inner.snapshot_view()
    }

    fn save_state(&self) -> Option<PolicyState> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        self.inner.load_state(state)
    }

    fn rotation_equivariant(&self) -> bool {
        self.inner.rotation_equivariant()
    }
}
