//! Borrowed Virtual Time (BVT, Duda & Cheriton 1999) — the third Xen
//! scheduler in Cherkasova et al.'s comparison (the paper's reference
//! [8]).
//!
//! Each VCPU carries an *effective virtual time* (EVT) that advances while
//! it runs, inversely proportional to its VM's weight — heavier VMs age
//! slower, earning more CPU. The scheduler always runs the VCPUs with the
//! smallest EVT. To prevent a long-idle VCPU from monopolizing the CPU
//! when it wakes, its EVT is clamped to lag at most one *context-switch
//! allowance* behind the current minimum.

use crate::sched::{idle_pcpus, PolicyState, ScheduleDecision, SchedulingPolicy, ViewFields};
use crate::types::{PcpuView, VcpuView};

/// The BVT policy. See the module docs.
#[derive(Debug, Clone)]
pub struct Bvt {
    /// Maximum EVT lag a waking VCPU may carry (in weighted ticks).
    max_lag: u64,
    evt: Vec<u64>,
}

impl Bvt {
    /// Creates the policy with the given maximum wake-up lag (the
    /// context-switch allowance; a few timeslices is typical).
    #[must_use]
    pub fn new(max_lag: u64) -> Self {
        Bvt {
            max_lag,
            evt: Vec::new(),
        }
    }

    /// Effective virtual time of VCPU `global` (test/inspection hook).
    #[must_use]
    pub fn evt_of(&self, global: usize) -> u64 {
        self.evt.get(global).copied().unwrap_or(0)
    }

    fn advance(&mut self, vcpus: &[VcpuView]) {
        self.evt.resize(vcpus.len(), 0);
        for v in vcpus {
            if v.status.is_active() {
                // Weighted aging: weight w advances 1/w per tick, scaled
                // by a common factor to stay in integers.
                let step = (1_000 / u64::from(v.vm_weight.max(1))).max(1);
                self.evt[v.id.global] += step;
            }
        }
    }
}

impl SchedulingPolicy for Bvt {
    fn name(&self) -> &str {
        "bvt"
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
        _timestamp: u64,
        default_timeslice: u64,
    ) -> ScheduleDecision {
        self.advance(vcpus);
        let mut decision = ScheduleDecision::none();
        let idle = idle_pcpus(pcpus);
        if idle.is_empty() || vcpus.is_empty() {
            return decision;
        }
        // Clamp waking VCPUs against the minimum EVT of the runnable set.
        let runnable: Vec<usize> = (0..vcpus.len())
            .filter(|&g| vcpus[g].is_schedulable())
            .collect();
        if let Some(&min_active) = self
            .evt
            .iter()
            .enumerate()
            .filter(|(g, _)| vcpus[*g].status.is_active())
            .map(|(_, e)| e)
            .min()
        {
            for &g in &runnable {
                if self.evt[g] + self.max_lag < min_active {
                    self.evt[g] = min_active.saturating_sub(self.max_lag);
                }
            }
        }
        // Smallest EVT first; stable tie-break on the index.
        let mut order = runnable;
        order.sort_by_key(|&g| (self.evt[g], g));
        for (g, p) in order.into_iter().zip(idle) {
            decision.assign(g, p, default_timeslice);
        }
        decision
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(PolicyState {
            per_vcpu: self.evt.iter().map(|&e| vec![e as i64]).collect(),
            ..PolicyState::default()
        })
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        if state
            .per_vcpu
            .iter()
            .any(|row| row.len() != 1 || row[0] < 0)
        {
            return false;
        }
        self.evt = state.per_vcpu.iter().map(|row| row[0] as u64).collect();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::tests_support::{activate, pcpus_for, vcpus_with_vms};
    use crate::sched::validate_decision;

    #[test]
    fn smallest_virtual_time_runs_first() {
        let mut bvt = Bvt::new(100);
        let vcpus = vcpus_with_vms(&[1, 1]);
        let pcpus = pcpus_for(1, &vcpus);
        // Pre-age VCPU 0.
        bvt.evt = vec![500, 0];
        let d = bvt.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("bvt", &vcpus, &pcpus, &d).unwrap();
        assert_eq!(d.assignments[0].vcpu, 1, "lower EVT wins");
    }

    #[test]
    fn running_vcpu_ages() {
        let mut bvt = Bvt::new(100);
        let mut vcpus = vcpus_with_vms(&[1, 1]);
        activate(&mut vcpus, 0, 0);
        let pcpus = pcpus_for(1, &vcpus);
        for t in 0..5 {
            let _ = bvt.schedule(&vcpus, &pcpus, t, 10);
        }
        assert!(bvt.evt_of(0) > bvt.evt_of(1), "runner aged, waiter did not");
    }

    #[test]
    fn heavier_vm_ages_slower() {
        let mut bvt = Bvt::new(100);
        let mut vcpus = vcpus_with_vms(&[1, 1]);
        vcpus[0].vm_weight = 4;
        activate(&mut vcpus, 0, 0);
        activate(&mut vcpus, 1, 1);
        let pcpus = pcpus_for(2, &vcpus);
        for t in 0..8 {
            let _ = bvt.schedule(&vcpus, &pcpus, t, 10);
        }
        assert!(
            bvt.evt_of(0) * 3 < bvt.evt_of(1),
            "weight-4 VCPU ages ~4x slower: {} vs {}",
            bvt.evt_of(0),
            bvt.evt_of(1)
        );
    }

    #[test]
    fn waking_vcpu_lag_is_clamped() {
        let mut bvt = Bvt::new(50);
        let mut vcpus = vcpus_with_vms(&[1, 1]);
        activate(&mut vcpus, 0, 0);
        // VCPU 0 has run a long time; VCPU 1 wakes with EVT 0.
        bvt.evt = vec![10_000, 0];
        let pcpus = pcpus_for(2, &vcpus);
        let d = bvt.schedule(&vcpus, &pcpus, 0, 10);
        assert_eq!(d.assignments[0].vcpu, 1);
        assert!(
            bvt.evt_of(1) > 10_000 - 50,
            "waker clamped near the pack: {}",
            bvt.evt_of(1)
        );
    }

    #[test]
    fn long_run_is_fair_between_equal_weights() {
        let mut bvt = Bvt::new(100);
        let mut vcpus = vcpus_with_vms(&[1, 1, 1]);
        let mut ran = [0u32; 3];
        let mut holder: Option<usize> = None;
        for t in 0..300 {
            if t % 10 == 0 {
                if let Some(h) = holder.take() {
                    vcpus[h].status = crate::types::VcpuStatus::Inactive;
                    vcpus[h].assigned_pcpu = None;
                }
            }
            let pcpus = pcpus_for(1, &vcpus);
            let d = bvt.schedule(&vcpus, &pcpus, t, 10);
            for a in &d.assignments {
                activate(&mut vcpus, a.vcpu, a.pcpu);
                holder = Some(a.vcpu);
            }
            if let Some(h) = holder {
                ran[h] += 1;
            }
        }
        for &r in &ran {
            assert!((80..=120).contains(&r), "fair split expected: {ran:?}");
        }
    }

    #[test]
    fn empty_system() {
        let mut bvt = Bvt::new(10);
        assert_eq!(bvt.schedule(&[], &[], 0, 10), ScheduleDecision::none());
    }
}
