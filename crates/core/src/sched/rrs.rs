//! Round-Robin Scheduling (RRS).
//!
//! The paper: "A naïve, yet popular, implementation is to use a simple
//! Round-Robin algorithm when assigning processor resources to each VCPU.
//! This option is available in most hypervisors. Sometimes it is the only
//! option, e.g. in KVM or Virtual Box hypervisors."
//!
//! Every VCPU takes its turn on a free PCPU for one timeslice, in circular
//! global order, with no awareness of VM boundaries or synchronization
//! state — which is exactly why it is perfectly fair (Figure 8) but
//! suffers synchronization latency (Figure 10).

use crate::sched::{idle_pcpus, PolicyState, ScheduleDecision, SchedulingPolicy, ViewFields};
use crate::types::{PcpuView, VcpuView};

/// The Round-Robin policy. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    /// Global index of the next VCPU to consider.
    cursor: usize,
}

impl RoundRobin {
    /// Creates the policy with its cursor at VCPU 0.
    #[must_use]
    pub fn new() -> Self {
        RoundRobin { cursor: 0 }
    }
}

impl SchedulingPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
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
        let mut decision = ScheduleDecision::none();
        let idle = idle_pcpus(pcpus);
        if idle.is_empty() || vcpus.is_empty() {
            return decision;
        }
        let n = vcpus.len();
        let mut idle_iter = idle.into_iter();
        let mut next_cursor = self.cursor;
        for offset in 0..n {
            let v = (self.cursor + offset) % n;
            if !vcpus[v].is_schedulable() {
                continue;
            }
            match idle_iter.next() {
                Some(pcpu) => {
                    decision.assign(v, pcpu, default_timeslice);
                    next_cursor = (v + 1) % n;
                }
                None => break,
            }
        }
        self.cursor = next_cursor;
        decision
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(PolicyState {
            vcpu_ids: vec![self.cursor as i64],
            ..PolicyState::default()
        })
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        match state.vcpu_ids.as_slice() {
            [c] if *c >= 0 => {
                self.cursor = *c as usize;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::tests_support::{activate, deactivate, pcpus_for, vcpus_inactive};
    use crate::sched::validate_decision;

    #[test]
    fn fills_idle_pcpus_in_order() {
        let mut rr = RoundRobin::new();
        let vcpus = vcpus_inactive(4);
        let pcpus = pcpus_for(2, &vcpus);
        let d = rr.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("rr", &vcpus, &pcpus, &d).unwrap();
        assert_eq!(d.assignments.len(), 2);
        assert_eq!(d.assignments[0].vcpu, 0);
        assert_eq!(d.assignments[1].vcpu, 1);
        assert!(d.preemptions.is_empty());
    }

    #[test]
    fn cursor_rotates_for_fairness() {
        // 4 VCPUs, 1 PCPU: the PCPU must visit 0, 1, 2, 3, 0, …
        let mut rr = RoundRobin::new();
        let mut order = Vec::new();
        let vcpus = vcpus_inactive(4);
        for _ in 0..8 {
            let pcpus = pcpus_for(1, &vcpus);
            let d = rr.schedule(&vcpus, &pcpus, 0, 10);
            assert_eq!(d.assignments.len(), 1);
            // The slice expires before the next call, so the view stays
            // INACTIVE; only the cursor carries state between calls.
            order.push(d.assignments[0].vcpu);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_active_vcpus() {
        let mut rr = RoundRobin::new();
        let mut vcpus = vcpus_inactive(3);
        activate(&mut vcpus, 1, 0); // VCPU 1 already runs on PCPU 0
        let pcpus = pcpus_for(2, &vcpus);
        let d = rr.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("rr", &vcpus, &pcpus, &d).unwrap();
        assert_eq!(d.assignments.len(), 1);
        assert_eq!(d.assignments[0].vcpu, 0);
        assert_eq!(d.assignments[0].pcpu, 1);
    }

    #[test]
    fn no_idle_pcpus_means_no_action() {
        let mut rr = RoundRobin::new();
        let mut vcpus = vcpus_inactive(2);
        activate(&mut vcpus, 0, 0);
        activate(&mut vcpus, 1, 1);
        let pcpus = pcpus_for(2, &vcpus);
        let d = rr.schedule(&vcpus, &pcpus, 0, 10);
        assert_eq!(d, ScheduleDecision::none());
    }

    #[test]
    fn resumes_after_deactivation() {
        let mut rr = RoundRobin::new();
        let mut vcpus = vcpus_inactive(2);
        activate(&mut vcpus, 0, 0);
        let d = rr.schedule(&vcpus, &pcpus_for(1, &vcpus), 0, 10);
        assert!(d.assignments.is_empty(), "only PCPU is busy");
        deactivate(&mut vcpus, 0);
        let d = rr.schedule(&vcpus, &pcpus_for(1, &vcpus), 1, 10);
        assert_eq!(d.assignments.len(), 1);
    }

    #[test]
    fn timeslice_is_passed_through() {
        let mut rr = RoundRobin::new();
        let vcpus = vcpus_inactive(1);
        let pcpus = pcpus_for(1, &vcpus);
        let d = rr.schedule(&vcpus, &pcpus, 7, 42);
        assert_eq!(d.assignments[0].timeslice, 42);
    }
}
