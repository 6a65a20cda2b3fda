//! Balance scheduling (after Sukwong & Kim, "Is co-scheduling too expensive
//! for SMP VMs?", EuroSys 2011 — the paper's reference [1]).
//!
//! Sukwong & Kim observed that synchronization latency spikes when sibling
//! VCPUs are *stacked* in the run-queue of the same physical CPU: one
//! sibling then necessarily waits behind the other. Balance scheduling
//! avoids stacking by placing sibling VCPUs on distinct PCPUs, without
//! requiring them to start simultaneously (no fragmentation cost).
//!
//! Adaptation to this framework: the paper's model has a single global
//! scheduler rather than per-PCPU run queues, so stacking appears as
//! *sequential* use of the same PCPU by siblings while other PCPUs serve
//! other VMs. The balance policy therefore (a) never assigns a VCPU to a
//! PCPU while a sibling is running on it is impossible by construction
//! (one VCPU per PCPU), so instead it (b) balances *PCPU attention across
//! VMs*: each idle PCPU goes to the schedulable VCPU whose VM currently
//! holds the fewest PCPUs, tie-broken round-robin. Sibling VCPUs of an SMP
//! VM thus spread over PCPUs as evenly as the load allows — the essence of
//! balance scheduling in a time-multiplexed model.

use crate::sched::{idle_pcpus, PolicyState, ScheduleDecision, SchedulingPolicy, ViewFields};
use crate::types::{PcpuView, VcpuView};

/// The balance-scheduling policy. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Balance {
    cursor: usize,
}

impl Balance {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Balance { cursor: 0 }
    }
}

impl SchedulingPolicy for Balance {
    fn name(&self) -> &str {
        "balance"
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
        let num_vms = vcpus.iter().map(|v| v.id.vm + 1).max().unwrap_or(0);
        // PCPUs currently held per VM (running VCPUs + this tick's grants).
        let mut held = vec![0usize; num_vms];
        for v in vcpus {
            if v.status.is_active() {
                held[v.id.vm] += 1;
            }
        }
        let n = vcpus.len();
        for pcpu in idle {
            // Candidate = schedulable VCPU from the least-served VM;
            // round-robin cursor breaks ties deterministically.
            let mut best: Option<usize> = None;
            for offset in 0..n {
                let v = (self.cursor + offset) % n;
                if !vcpus[v].is_schedulable() || decision.assignments.iter().any(|a| a.vcpu == v) {
                    continue;
                }
                match best {
                    None => best = Some(v),
                    Some(b) if held[vcpus[v].id.vm] < held[vcpus[b].id.vm] => {
                        best = Some(v);
                    }
                    _ => {}
                }
            }
            let Some(v) = best else { break };
            decision.assign(v, pcpu, default_timeslice);
            held[vcpus[v].id.vm] += 1;
            self.cursor = (v + 1) % n;
        }
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
    use crate::sched::tests_support::{activate, pcpus_for, vcpus_with_vms};
    use crate::sched::validate_decision;

    #[test]
    fn spreads_pcpus_across_vms() {
        // VMs {2, 2}; 2 PCPUs: one PCPU per VM, not both to VM 0.
        let mut bal = Balance::new();
        let vcpus = vcpus_with_vms(&[2, 2]);
        let pcpus = pcpus_for(2, &vcpus);
        let d = bal.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("bal", &vcpus, &pcpus, &d).unwrap();
        assert_eq!(d.assignments.len(), 2);
        let vms: Vec<usize> = d.assignments.iter().map(|a| vcpus[a.vcpu].id.vm).collect();
        assert_ne!(vms[0], vms[1], "each VM gets one PCPU");
    }

    #[test]
    fn prefers_underserved_vm() {
        // VM 0 already holds a PCPU; the idle PCPU must go to VM 1.
        let mut bal = Balance::new();
        let mut vcpus = vcpus_with_vms(&[2, 1]);
        activate(&mut vcpus, 0, 0);
        let pcpus = pcpus_for(2, &vcpus);
        let d = bal.schedule(&vcpus, &pcpus, 0, 10);
        assert_eq!(d.assignments.len(), 1);
        assert_eq!(vcpus[d.assignments[0].vcpu].id.vm, 1);
    }

    #[test]
    fn siblings_get_distinct_pcpus_when_available() {
        let mut bal = Balance::new();
        let vcpus = vcpus_with_vms(&[2]);
        let pcpus = pcpus_for(2, &vcpus);
        let d = bal.schedule(&vcpus, &pcpus, 0, 10);
        assert_eq!(d.assignments.len(), 2);
        assert_ne!(d.assignments[0].pcpu, d.assignments[1].pcpu);
    }

    #[test]
    fn never_double_assigns_a_vcpu() {
        let mut bal = Balance::new();
        let vcpus = vcpus_with_vms(&[1]);
        let pcpus = pcpus_for(3, &vcpus);
        let d = bal.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("bal", &vcpus, &pcpus, &d).unwrap();
        assert_eq!(d.assignments.len(), 1, "one VCPU, one assignment");
    }

    #[test]
    fn empty_inputs() {
        let mut bal = Balance::new();
        assert_eq!(bal.schedule(&[], &[], 0, 10), ScheduleDecision::none());
    }
}
