//! Simple Earliest Deadline First (SEDF) — one of Xen's three historical
//! schedulers compared by Cherkasova et al. (the paper's reference [8]).
//!
//! Each VCPU receives a *slice* of CPU time every *period*: the pair
//! `(period, slice)` is a soft real-time reservation. Bookkeeping per
//! VCPU: a deadline (end of its current period) and the remaining slice
//! within that period. Scheduling picks, among runnable VCPUs that still
//! have slice left, the one with the **earliest deadline**. When no
//! reserved VCPU is runnable, idle PCPUs are handed out round-robin as
//! *extratime* — SEDF's work-conserving mode.
//!
//! Reservations here are derived from the VM weight: each VM reserves
//! `weight / total_weight` of the host, split equally among its VCPUs.

use crate::sched::{idle_pcpus, PolicyState, ScheduleDecision, SchedulingPolicy, ViewFields};
use crate::types::{PcpuView, VcpuView};

/// Per-VCPU reservation state.
#[derive(Debug, Clone, Copy, Default)]
struct Reservation {
    /// End of the current period (absolute tick).
    deadline: u64,
    /// Ticks of reserved slice left in the current period.
    remaining: u64,
}

/// The SEDF policy. See the module docs.
#[derive(Debug, Clone)]
pub struct Sedf {
    period: u64,
    reservations: Vec<Reservation>,
    slices: Vec<u64>,
    cursor: usize,
}

impl Sedf {
    /// Creates the policy with the given reservation period in ticks.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        Sedf {
            period,
            reservations: Vec::new(),
            slices: Vec::new(),
            cursor: 0,
        }
    }

    /// Remaining reserved slice of VCPU `global` in the current period
    /// (test/inspection hook).
    #[must_use]
    pub fn remaining_slice(&self, global: usize) -> u64 {
        self.reservations.get(global).map_or(0, |r| r.remaining)
    }

    fn replenish(&mut self, vcpus: &[VcpuView], pcpus: usize, now: u64) {
        if self.reservations.len() != vcpus.len() {
            self.reservations = vec![Reservation::default(); vcpus.len()];
            self.slices = vec![0; vcpus.len()];
            let num_vms = vcpus.iter().map(|v| v.id.vm + 1).max().unwrap_or(0);
            let mut vm_sizes = vec![0u64; num_vms];
            let mut vm_weights = vec![1u32; num_vms];
            for v in vcpus {
                vm_sizes[v.id.vm] += 1;
                vm_weights[v.id.vm] = v.vm_weight;
            }
            let total_weight: f64 = vm_weights.iter().map(|&w| f64::from(w)).sum();
            for v in vcpus {
                // VM share of the host capacity over one period, split
                // across its VCPUs; at least 1 tick so nobody starves.
                let capacity = pcpus as f64 * self.period as f64;
                let share = capacity * f64::from(vm_weights[v.id.vm])
                    / total_weight
                    / vm_sizes[v.id.vm] as f64;
                self.slices[v.id.global] = (share.floor() as u64).max(1);
            }
        }
        for (g, r) in self.reservations.iter_mut().enumerate() {
            if now >= r.deadline {
                r.deadline = now + self.period;
                r.remaining = self.slices[g];
            }
        }
    }
}

impl SchedulingPolicy for Sedf {
    fn name(&self) -> &str {
        "sedf"
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
        self.replenish(vcpus, pcpus.len(), timestamp);
        let mut decision = ScheduleDecision::none();
        let mut idle = idle_pcpus(pcpus);
        if idle.is_empty() || vcpus.is_empty() {
            return decision;
        }
        // Reserved pass: earliest deadline first among VCPUs with slice
        // left. The grant is debited from the reservation immediately (the
        // engine runs granted slices to completion, so grant-time
        // accounting is exact and avoids the expiry-tick blind spot of
        // observation-based burning).
        let mut reserved: Vec<usize> = (0..vcpus.len())
            .filter(|&g| vcpus[g].is_schedulable() && self.reservations[g].remaining > 0)
            .collect();
        reserved.sort_by_key(|&g| (self.reservations[g].deadline, g));
        for g in reserved {
            let Some(p) = (!idle.is_empty()).then(|| idle.remove(0)) else {
                break;
            };
            let slice = self.reservations[g].remaining.min(default_timeslice);
            self.reservations[g].remaining -= slice;
            decision.assign(g, p, slice);
        }
        // Extratime pass: leftover PCPUs round-robin to anyone runnable.
        let n = vcpus.len();
        let start = self.cursor;
        for offset in 0..n {
            if idle.is_empty() {
                break;
            }
            let g = (start + offset) % n;
            if !vcpus[g].is_schedulable() || decision.assignments.iter().any(|a| a.vcpu == g) {
                continue;
            }
            let p = idle.remove(0);
            decision.assign(g, p, default_timeslice);
            self.cursor = (g + 1) % n;
        }
        decision
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(PolicyState {
            per_vcpu: self
                .reservations
                .iter()
                .zip(&self.slices)
                .map(|(r, &s)| vec![r.deadline as i64, r.remaining as i64, s as i64])
                .collect(),
            vcpu_ids: vec![self.cursor as i64],
            ..PolicyState::default()
        })
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        let [cursor] = state.vcpu_ids.as_slice() else {
            return false;
        };
        if *cursor < 0
            || state
                .per_vcpu
                .iter()
                .any(|row| row.len() != 3 || row.iter().any(|&w| w < 0))
        {
            return false;
        }
        self.reservations = state
            .per_vcpu
            .iter()
            .map(|row| Reservation {
                deadline: row[0] as u64,
                remaining: row[1] as u64,
            })
            .collect();
        self.slices = state.per_vcpu.iter().map(|row| row[2] as u64).collect();
        self.cursor = *cursor as usize;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::tests_support::{pcpus_for, vcpus_with_vms};
    use crate::sched::validate_decision;

    #[test]
    fn earliest_deadline_wins() {
        let mut sedf = Sedf::new(100);
        let mut vcpus = vcpus_with_vms(&[1, 1]);
        let pcpus1 = pcpus_for(1, &vcpus);
        // Initialize reservations; both deadlines equal at first.
        let d = sedf.schedule(&vcpus, &pcpus1, 0, 10);
        assert_eq!(d.assignments.len(), 1);
        // Force VCPU 0's deadline later by exhausting its period.
        sedf.reservations[0].deadline = 300;
        sedf.reservations[0].remaining = 5;
        sedf.reservations[1].deadline = 150;
        sedf.reservations[1].remaining = 5;
        vcpus[0].status = crate::types::VcpuStatus::Inactive;
        let d = sedf.schedule(&vcpus, &pcpus_for(1, &vcpus), 1, 10);
        assert_eq!(d.assignments[0].vcpu, 1, "earlier deadline first");
    }

    #[test]
    fn reservation_slice_caps_the_grant() {
        let mut sedf = Sedf::new(50);
        let vcpus = vcpus_with_vms(&[1]);
        let pcpus = pcpus_for(1, &vcpus);
        let _ = sedf.schedule(&vcpus, &pcpus, 0, 30);
        sedf.reservations[0].remaining = 3;
        let d = sedf.schedule(&vcpus, &pcpus, 1, 30);
        assert_eq!(d.assignments[0].timeslice, 3, "grant capped by slice");
        assert_eq!(sedf.remaining_slice(0), 0, "grant debited immediately");
    }

    #[test]
    fn extratime_keeps_pcpus_busy() {
        let mut sedf = Sedf::new(50);
        let vcpus = vcpus_with_vms(&[1, 1]);
        let pcpus = pcpus_for(3, &vcpus);
        let _ = sedf.schedule(&vcpus, &pcpus, 0, 10);
        // Exhaust all reservations: extratime must still assign.
        sedf.reservations.iter_mut().for_each(|r| r.remaining = 0);
        let d = sedf.schedule(&vcpus, &pcpus, 1, 10);
        assert_eq!(d.assignments.len(), 2, "work conserving");
        validate_decision("sedf", &vcpus, &pcpus, &d).unwrap();
    }

    #[test]
    fn grants_consume_reservation() {
        let mut sedf = Sedf::new(50);
        let vcpus = vcpus_with_vms(&[1]);
        let pcpus = pcpus_for(1, &vcpus);
        let d = sedf.schedule(&vcpus, &pcpus, 0, 10);
        // One PCPU reserved for 50/50 ticks of the period; the 10-tick
        // grant is debited up front.
        assert_eq!(d.assignments[0].timeslice, 10);
        assert_eq!(sedf.remaining_slice(0), 40);
    }

    #[test]
    fn replenish_at_period_boundary() {
        let mut sedf = Sedf::new(10);
        let vcpus = vcpus_with_vms(&[1]);
        let pcpus = pcpus_for(1, &vcpus);
        let d = sedf.schedule(&vcpus, &pcpus, 0, 30);
        assert_eq!(d.assignments.len(), 1, "whole period granted at once");
        assert_eq!(sedf.remaining_slice(0), 0);
        // Mid-period the reservation is exhausted: only extratime remains,
        // and with one runnable VCPU the grant comes from that pass.
        let d = sedf.schedule(&vcpus, &pcpus, 5, 30);
        assert_eq!(d.assignments.len(), 1, "work-conserving extratime");
        assert_eq!(sedf.remaining_slice(0), 0, "extratime does not debit");
        // At the deadline the reservation refills and is granted afresh.
        let d = sedf.schedule(&vcpus, &pcpus, 10, 30);
        assert_eq!(d.assignments[0].timeslice, 10, "reserved grant resumed");
    }

    #[test]
    fn weighted_vm_gets_bigger_slice() {
        let mut sedf = Sedf::new(100);
        let mut vcpus = vcpus_with_vms(&[1, 1]);
        vcpus[0].vm_weight = 3;
        let pcpus = pcpus_for(1, &vcpus);
        let _ = sedf.schedule(&vcpus, &pcpus, 0, 10);
        assert!(
            sedf.slices[0] > sedf.slices[1] * 2,
            "weight-3 reservation: {:?}",
            sedf.slices
        );
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        let _ = Sedf::new(0);
    }
}
