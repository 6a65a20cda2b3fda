//! First-come-first-served (FCFS) run queue — a baseline policy.
//!
//! VCPUs enter a FIFO queue when they become schedulable (INACTIVE); idle
//! PCPUs are granted strictly in queue order. Compared to round-robin the
//! only difference is memory: a VCPU that was scheduled out re-enters at
//! the *tail*, so long-running VCPUs cannot overtake waiters. Included as
//! the simplest possible baseline for the plug-in interface and as a
//! regression reference for the fairness experiments.

use std::collections::VecDeque;

use crate::sched::{idle_pcpus, PolicyState, ScheduleDecision, SchedulingPolicy, ViewFields};
use crate::types::{PcpuView, VcpuView};

/// The FCFS policy. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Fcfs {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl Fcfs {
    /// Creates the policy with an empty run queue.
    #[must_use]
    pub fn new() -> Self {
        Fcfs::default()
    }
}

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &str {
        "fcfs"
    }

    /// Decides from status and assignment alone — no payload fields.
    fn snapshot_view(&self) -> ViewFields {
        ViewFields::none()
    }

    fn schedule(
        &mut self,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
        _timestamp: u64,
        default_timeslice: u64,
    ) -> ScheduleDecision {
        self.queued.resize(vcpus.len(), false);
        // Enqueue newly schedulable VCPUs in global order.
        for v in vcpus {
            let g = v.id.global;
            if v.is_schedulable() && !self.queued[g] {
                self.queue.push_back(g);
                self.queued[g] = true;
            }
        }
        let mut decision = ScheduleDecision::none();
        for pcpu in idle_pcpus(pcpus) {
            // Skip stale entries (VCPU became active through some other
            // path or the queue got ahead of the views).
            let next = loop {
                match self.queue.pop_front() {
                    Some(g) if vcpus[g].is_schedulable() => break Some(g),
                    Some(g) => self.queued[g] = false,
                    None => break None,
                }
            };
            let Some(g) = next else { break };
            self.queued[g] = false;
            decision.assign(g, pcpu, default_timeslice);
        }
        decision
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(PolicyState {
            per_vcpu: self.queued.iter().map(|&q| vec![i64::from(q)]).collect(),
            vcpu_ids: self.queue.iter().map(|&g| g as i64).collect(),
            ..PolicyState::default()
        })
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        if state.vcpu_ids.iter().any(|&g| g < 0)
            || state
                .per_vcpu
                .iter()
                .any(|row| row.len() != 1 || !(0..=1).contains(&row[0]))
        {
            return false;
        }
        self.queue = state.vcpu_ids.iter().map(|&g| g as usize).collect();
        self.queued = state.per_vcpu.iter().map(|row| row[0] != 0).collect();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::tests_support::{activate, deactivate, pcpus_for, vcpus_inactive};
    use crate::sched::validate_decision;

    #[test]
    fn serves_in_arrival_order() {
        let mut fcfs = Fcfs::new();
        let vcpus = vcpus_inactive(3);
        let pcpus = pcpus_for(2, &vcpus);
        let d = fcfs.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("fcfs", &vcpus, &pcpus, &d).unwrap();
        let picked: Vec<usize> = d.assignments.iter().map(|a| a.vcpu).collect();
        assert_eq!(picked, vec![0, 1]);
    }

    #[test]
    fn preempted_vcpu_rejoins_at_tail() {
        let mut fcfs = Fcfs::new();
        let mut vcpus = vcpus_inactive(3);
        // Tick 0: 0 and 1 start on the two PCPUs; 2 waits.
        let d = fcfs.schedule(&vcpus, &pcpus_for(2, &vcpus), 0, 10);
        assert_eq!(d.assignments.len(), 2);
        activate(&mut vcpus, 0, 0);
        activate(&mut vcpus, 1, 1);
        // Tick 1: VCPU 0 is scheduled out; 2 must start before 0 restarts.
        deactivate(&mut vcpus, 0);
        let d = fcfs.schedule(&vcpus, &pcpus_for(2, &vcpus), 1, 10);
        assert_eq!(d.assignments.len(), 1);
        assert_eq!(d.assignments[0].vcpu, 2, "waiter 2 beats returning 0");
        // Tick 2: now 0 gets the next slot.
        activate(&mut vcpus, 2, 0);
        deactivate(&mut vcpus, 1);
        let d = fcfs.schedule(&vcpus, &pcpus_for(2, &vcpus), 2, 10);
        let picked: Vec<usize> = d.assignments.iter().map(|a| a.vcpu).collect();
        assert_eq!(picked, vec![0]);
    }

    #[test]
    fn no_duplicate_queue_entries() {
        let mut fcfs = Fcfs::new();
        let vcpus = vcpus_inactive(2);
        let no_pcpu = pcpus_for(0, &vcpus);
        for t in 0..5 {
            let _ = fcfs.schedule(&vcpus, &no_pcpu, t, 10);
        }
        let d = fcfs.schedule(&vcpus, &pcpus_for(2, &vcpus), 5, 10);
        assert_eq!(d.assignments.len(), 2, "each VCPU scheduled exactly once");
    }

    #[test]
    fn empty_system() {
        let mut fcfs = Fcfs::new();
        assert_eq!(fcfs.schedule(&[], &[], 0, 10), ScheduleDecision::none());
    }
}
