//! A Xen-like proportional-share credit scheduler.
//!
//! The paper's related work (Cherkasova et al., reference [8]) compares
//! Xen's three CPU schedulers, of which the *credit scheduler* became the
//! default. This module implements its essential mechanism, adapted to the
//! framework's tick model:
//!
//! * every `refill_period` ticks, each VM receives credits proportional to
//!   its configured weight ([`crate::config::VmSpec::weight`]), divided
//!   equally among its VCPUs;
//! * a running VCPU burns one credit per tick;
//! * VCPUs with positive credits are **UNDER** priority and are scheduled
//!   before **OVER** (non-positive-credit) VCPUs; within a class, higher
//!   credit first, round-robin tie-break.
//!
//! Work-conserving: OVER VCPUs still run when PCPUs would otherwise idle,
//! exactly like Xen's credit scheduler in its default work-conserving mode.

use crate::sched::{idle_pcpus, PolicyState, ScheduleDecision, SchedulingPolicy, ViewFields};
use crate::types::{PcpuView, VcpuView};

/// The credit policy. See the module docs.
#[derive(Debug, Clone)]
pub struct Credit {
    refill_period: u64,
    credits: Vec<i64>,
    last_refill: Option<u64>,
    cursor: usize,
}

impl Credit {
    /// Creates the policy with the given credit refill period (ticks).
    ///
    /// # Panics
    ///
    /// Panics if `refill_period` is zero.
    #[must_use]
    pub fn new(refill_period: u64) -> Self {
        assert!(refill_period > 0, "refill_period must be positive");
        Credit {
            refill_period,
            credits: Vec::new(),
            last_refill: None,
            cursor: 0,
        }
    }

    /// Current credit balance of VCPU `global` (test/inspection hook).
    #[must_use]
    pub fn credits_of(&self, global: usize) -> i64 {
        self.credits.get(global).copied().unwrap_or(0)
    }

    fn refill(&mut self, vcpus: &[VcpuView], pcpus: usize, timestamp: u64) {
        self.credits.resize(vcpus.len(), 0);
        let due = match self.last_refill {
            None => true,
            Some(t) => timestamp >= t + self.refill_period,
        };
        if !due {
            return;
        }
        self.last_refill = Some(timestamp);
        // Total capacity over one period, split across VMs proportionally
        // to their weights and then equally across each VM's VCPUs.
        let num_vms = vcpus.iter().map(|v| v.id.vm + 1).max().unwrap_or(0);
        if num_vms == 0 {
            return;
        }
        let mut vm_sizes = vec![0usize; num_vms];
        let mut vm_weights = vec![1u32; num_vms];
        for v in vcpus {
            vm_sizes[v.id.vm] += 1;
            vm_weights[v.id.vm] = v.vm_weight;
        }
        let total_weight: f64 = vm_weights.iter().map(|&w| f64::from(w)).sum();
        let total = (pcpus as u64 * self.refill_period) as f64;
        for v in vcpus {
            let per_vm = total * f64::from(vm_weights[v.id.vm]) / total_weight;
            let share = per_vm / vm_sizes[v.id.vm] as f64;
            // Credits cap at one period's share: unused credit does not
            // bank indefinitely (matches Xen's clipping).
            let next = self.credits[v.id.global] + share.round() as i64;
            self.credits[v.id.global] = next.min(share.round() as i64 * 2);
        }
    }

    fn burn(&mut self, vcpus: &[VcpuView]) {
        for v in vcpus {
            if v.status.is_active() {
                self.credits[v.id.global] -= 1;
            }
        }
    }
}

impl SchedulingPolicy for Credit {
    fn name(&self) -> &str {
        "credit"
    }

    /// Proportional share: reads `vm_weight`, nothing else.
    fn snapshot_view(&self) -> ViewFields {
        ViewFields {
            vm_weight: true,
            ..ViewFields::none()
        }
    }

    fn schedule(
        &mut self,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
        timestamp: u64,
        default_timeslice: u64,
    ) -> ScheduleDecision {
        self.refill(vcpus, pcpus.len(), timestamp);
        self.burn(vcpus);
        let mut decision = ScheduleDecision::none();
        let idle = idle_pcpus(pcpus);
        if idle.is_empty() || vcpus.is_empty() {
            return decision;
        }
        let n = vcpus.len();
        // Order runnable VCPUs: UNDER (credit > 0) before OVER, then by
        // credit descending, then round-robin distance from the cursor.
        let mut runnable: Vec<usize> = (0..n).filter(|&v| vcpus[v].is_schedulable()).collect();
        runnable.sort_by_key(|&v| {
            let under = i64::from(self.credits[v] <= 0); // 0 = UNDER first
            let distance = (v + n - self.cursor) % n;
            (under, -self.credits[v], distance)
        });
        for (v, pcpu) in runnable.into_iter().zip(idle) {
            decision.assign(v, pcpu, default_timeslice);
            self.cursor = (v + 1) % n;
        }
        decision
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(PolicyState {
            global: vec![self.last_refill.map_or(-1, |t| t as i64)],
            per_vcpu: self.credits.iter().map(|&c| vec![c]).collect(),
            vcpu_ids: vec![self.cursor as i64],
            ..PolicyState::default()
        })
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        let (&[refill], &[cursor]) = (state.global.as_slice(), state.vcpu_ids.as_slice()) else {
            return false;
        };
        if cursor < 0 || state.per_vcpu.iter().any(|row| row.len() != 1) {
            return false;
        }
        self.last_refill = (refill >= 0).then_some(refill as u64);
        self.credits = state.per_vcpu.iter().map(|row| row[0]).collect();
        self.cursor = cursor as usize;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::tests_support::{activate, pcpus_for, vcpus_inactive, vcpus_with_vms};
    use crate::sched::validate_decision;

    #[test]
    fn initial_refill_gives_equal_credits() {
        let mut cr = Credit::new(30);
        let vcpus = vcpus_with_vms(&[1, 1]);
        let pcpus = pcpus_for(1, &vcpus);
        let _ = cr.schedule(&vcpus, &pcpus, 0, 10);
        assert_eq!(cr.credits_of(0), cr.credits_of(1));
        assert!(cr.credits_of(0) > 0);
    }

    #[test]
    fn running_vcpu_burns_credit() {
        let mut cr = Credit::new(30);
        let mut vcpus = vcpus_with_vms(&[1, 1]);
        activate(&mut vcpus, 0, 0);
        let pcpus = pcpus_for(1, &vcpus);
        let _ = cr.schedule(&vcpus, &pcpus, 0, 10);
        let after_first = cr.credits_of(0);
        for t in 1..6 {
            let _ = cr.schedule(&vcpus, &pcpus, t, 10);
        }
        assert_eq!(cr.credits_of(0), after_first - 5);
        assert_eq!(
            cr.credits_of(1),
            after_first + 1,
            "idle VCPU keeps its credits (one extra from not burning at t=0)"
        );
    }

    #[test]
    fn under_beats_over() {
        let mut cr = Credit::new(10);
        let vcpus = vcpus_with_vms(&[1, 1]);
        let pcpus = pcpus_for(1, &vcpus);
        let _ = cr.schedule(&vcpus, &pcpus, 0, 10);
        // Drain VCPU 0's credits below zero.
        cr.credits[0] = -5;
        let d = cr.schedule(&vcpus, &pcpus, 1, 10);
        assert_eq!(d.assignments[0].vcpu, 1, "UNDER VCPU 1 wins");
    }

    #[test]
    fn work_conserving_schedules_over_vcpus() {
        let mut cr = Credit::new(10);
        let vcpus = vcpus_inactive(1);
        let pcpus = pcpus_for(1, &vcpus);
        let _ = cr.schedule(&vcpus, &pcpus, 0, 10);
        cr.credits[0] = -100;
        let d = cr.schedule(&vcpus, &pcpus, 1, 10);
        assert_eq!(d.assignments.len(), 1, "idle PCPU is never wasted");
    }

    #[test]
    fn refill_happens_each_period() {
        let mut cr = Credit::new(5);
        let mut vcpus = vcpus_inactive(1);
        activate(&mut vcpus, 0, 0);
        let pcpus = pcpus_for(1, &vcpus);
        let _ = cr.schedule(&vcpus, &pcpus, 0, 10);
        let c0 = cr.credits_of(0);
        for t in 1..5 {
            let _ = cr.schedule(&vcpus, &pcpus, t, 10);
        }
        assert_eq!(cr.credits_of(0), c0 - 4);
        let _ = cr.schedule(&vcpus, &pcpus, 5, 10); // refill tick
        assert!(cr.credits_of(0) > c0 - 5, "period refill landed");
    }

    #[test]
    fn proportional_share_across_vm_sizes() {
        // VM 0 has 2 VCPUs, VM 1 has 1: per-VCPU share of VM 0 is half of
        // VM 1's VCPU share.
        let mut cr = Credit::new(30);
        let vcpus = vcpus_with_vms(&[2, 1]);
        let pcpus = pcpus_for(2, &vcpus);
        let _ = cr.schedule(&vcpus, &pcpus, 0, 10);
        assert_eq!(cr.credits_of(0), cr.credits_of(1));
        assert_eq!(cr.credits_of(2), cr.credits_of(0) * 2);
    }

    #[test]
    fn decision_is_valid() {
        let mut cr = Credit::new(30);
        let vcpus = vcpus_with_vms(&[2, 2]);
        let pcpus = pcpus_for(3, &vcpus);
        let d = cr.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("credit", &vcpus, &pcpus, &d).unwrap();
        assert_eq!(d.assignments.len(), 3);
    }

    #[test]
    #[should_panic(expected = "refill_period")]
    fn zero_period_rejected() {
        let _ = Credit::new(0);
    }
}
