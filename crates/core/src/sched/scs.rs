//! Strict Co-Scheduling (SCS).
//!
//! The paper (after VMware's original ESX co-scheduling [3], itself modeled
//! on gang scheduling [4]): "the scheduler forces all the VCPUs of a VM to
//! start (co-start) and stop (co-stop) at the same time. Such an algorithm
//! helps to avoid the synchronization latency, as both the waiting VCPUs
//! and the lock-holding VCPU are preempted and resumed at the same time.
//! This strict co-scheduling approach, however, introduces a fragmentation
//! problem: a VCPU can only be scheduled after the hypervisor gathers
//! enough resources to execute all other VCPUs in the same VM."
//!
//! Implementation: a VM is a *gang*. A gang may start only when **every**
//! one of its VCPUs is INACTIVE and there are at least as many idle PCPUs
//! as the gang has VCPUs. All gang members receive the same timeslice in
//! the same tick, so they co-stop on expiry. VMs are considered in
//! round-robin order for fairness among gangs.

use crate::sched::{PolicyState, ScheduleDecision, SchedulingPolicy, ViewFields, VmGroups};
use crate::types::{PcpuView, VcpuView};

/// The Strict Co-Scheduling policy. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct StrictCo {
    /// Index of the next VM to consider.
    vm_cursor: usize,
    /// Per-call scratch: the gangs, and the idle PCPUs in index order.
    groups: VmGroups,
    idle: Vec<usize>,
}

impl StrictCo {
    /// Creates the policy with its VM cursor at VM 0.
    #[must_use]
    pub fn new() -> Self {
        StrictCo::default()
    }
}

impl SchedulingPolicy for StrictCo {
    fn name(&self) -> &str {
        "strict-co"
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
        self.idle.clear();
        self.idle
            .extend(pcpus.iter().filter(|p| p.is_idle()).map(|p| p.id));
        if self.idle.is_empty() {
            return decision;
        }
        self.groups.regroup(vcpus);
        let num_vms = self.groups.len();
        if num_vms == 0 {
            return decision;
        }
        // Idle PCPUs are handed out in index order from this cursor.
        let mut next_idle = 0;
        let mut next_cursor = self.vm_cursor;
        for offset in 0..num_vms {
            let vm = (self.vm_cursor + offset) % num_vms;
            let gang = self.groups.get(vm);
            // Co-start requires the whole gang to be stopped and enough
            // idle PCPUs for every member.
            let all_inactive = gang.iter().all(|&g| vcpus[g].is_schedulable());
            if !all_inactive || gang.len() > self.idle.len() - next_idle {
                continue;
            }
            for (&g, &pcpu) in gang.iter().zip(&self.idle[next_idle..]) {
                decision.assign(g, pcpu, default_timeslice);
            }
            next_idle += gang.len();
            next_cursor = (vm + 1) % num_vms;
            if next_idle == self.idle.len() {
                break;
            }
        }
        self.vm_cursor = next_cursor;
        decision
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(PolicyState {
            vm_ids: vec![self.vm_cursor as i64],
            ..PolicyState::default()
        })
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        match state.vm_ids.as_slice() {
            [c] if *c >= 0 => {
                self.vm_cursor = *c as usize;
                true
            }
            _ => false,
        }
    }

    /// Gangs are scanned cyclically from the VM cursor and filled in
    /// within-VM sibling order; rotating VMs (and the cursor with them)
    /// rotates the gang order without reordering siblings.
    fn rotation_equivariant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::tests_support::{activate, pcpus_for, vcpus_with_vms};
    use crate::sched::validate_decision;

    #[test]
    fn gang_starts_only_with_enough_pcpus() {
        // The paper's Figure 8 observation: with one PCPU, a 2-VCPU VM can
        // never co-start under SCS.
        let mut scs = StrictCo::new();
        let vcpus = vcpus_with_vms(&[2, 1, 1]);
        let mut starts = [0u32; 4];
        for t in 0..12 {
            let pcpus = pcpus_for(1, &vcpus);
            let d = scs.schedule(&vcpus, &pcpus, t, 10);
            validate_decision("scs", &vcpus, &pcpus, &d).unwrap();
            for a in &d.assignments {
                starts[a.vcpu] += 1;
            }
        }
        assert_eq!(starts[0], 0, "2-VCPU VM starved");
        assert_eq!(starts[1], 0, "2-VCPU VM starved");
        assert_eq!(starts[2], 6, "1-VCPU VMs alternate");
        assert_eq!(starts[3], 6);
    }

    #[test]
    fn whole_gang_co_starts() {
        let mut scs = StrictCo::new();
        let vcpus = vcpus_with_vms(&[2, 1]);
        let pcpus = pcpus_for(4, &vcpus);
        let d = scs.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("scs", &vcpus, &pcpus, &d).unwrap();
        // Both VMs fit: all three VCPUs start, gang members together.
        assert_eq!(d.assignments.len(), 3);
        let gang0: Vec<_> = d.assignments.iter().filter(|a| a.vcpu < 2).collect();
        assert_eq!(gang0.len(), 2, "both siblings of VM 0 co-start");
        assert!(gang0.iter().all(|a| a.timeslice == 10), "equal slices");
    }

    #[test]
    fn partial_gang_never_starts() {
        let mut scs = StrictCo::new();
        let mut vcpus = vcpus_with_vms(&[2]);
        activate(&mut vcpus, 0, 0); // one sibling still running
        let pcpus = pcpus_for(3, &vcpus);
        let d = scs.schedule(&vcpus, &pcpus, 0, 10);
        assert!(
            d.assignments.is_empty(),
            "gang with a running member must wait for co-stop"
        );
    }

    #[test]
    fn fragmentation_leaves_pcpus_idle() {
        // 3 idle PCPUs, one 4-VCPU VM: nothing can be scheduled.
        let mut scs = StrictCo::new();
        let vcpus = vcpus_with_vms(&[4]);
        let pcpus = pcpus_for(3, &vcpus);
        let d = scs.schedule(&vcpus, &pcpus, 0, 10);
        assert!(d.assignments.is_empty(), "CPU fragmentation");
    }

    #[test]
    fn vm_cursor_rotates_among_gangs() {
        let mut scs = StrictCo::new();
        let vcpus = vcpus_with_vms(&[1, 1, 1]);
        let mut first_started = Vec::new();
        for t in 0..3 {
            let pcpus = pcpus_for(1, &vcpus);
            let d = scs.schedule(&vcpus, &pcpus, t, 10);
            first_started.push(d.assignments[0].vcpu);
        }
        assert_eq!(first_started, vec![0, 1, 2]);
    }

    #[test]
    fn empty_system_is_a_noop() {
        let mut scs = StrictCo::new();
        let d = scs.schedule(&[], &[], 0, 10);
        assert_eq!(d, ScheduleDecision::none());
    }
}
