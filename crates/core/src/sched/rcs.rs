//! Relaxed Co-Scheduling (RCS).
//!
//! The paper (after VMware ESX 3/4 [2]): "This algorithm makes its best
//! effort to perform co-starts and co-stops when resources are available.
//! In case there are not enough resources to perform a co-start, it allows
//! a single VCPU to be scheduled. The scheduler maintains a cumulative skew
//! for each VCPU, compared to the rest of VCPUs in the same VM. When the
//! skew of a VCPU grows above a certain threshold, it is forced to schedule
//! in the co-start manner only (until the skew drops below a pre-defined
//! threshold). This relaxed co-scheduling mitigates the CPU fragmentation
//! problem, but it introduces synchronization latency as a trade-off."
//!
//! Mechanics (the ESX 3.x/4.x design the paper cites):
//!
//! * **Progress accounting** — each VCPU's progress counter advances every
//!   tick it holds a PCPU. A VCPU's *skew* is its progress lead over the
//!   slowest sibling in the same VM.
//! * **Best effort** — idle PCPUs are granted round-robin across VMs; a VM
//!   offers its most-behind runnable VCPU first, so a gang co-starts
//!   whenever enough PCPUs are free, and single starts are allowed when
//!   they are not (no fragmentation).
//! * **Co-stop** — when a VCPU's skew exceeds `skew_threshold`, it is a
//!   *leader*: it is preempted (its PCPU freed on the spot) and may not be
//!   rescheduled until the lagging siblings catch up — its skew falling
//!   back below `skew_resume`. This is the "forced co-start" of the paper:
//!   the gang can only re-form around the laggard.
//!
//! Co-stopping leaders is what caps the synchronization latency: under
//! round-robin, a preempted lock holder leaves its siblings burning READY
//! time for a whole timeslice rotation; RCS detects the divergence after
//! `skew_threshold` ticks, parks the waiters (freeing their PCPUs for
//! other VMs), and the holder — now the most-behind VCPU of its VM — is
//! first in line when its VM's turn comes.

use crate::sched::{PolicyState, ScheduleDecision, SchedulingPolicy, ViewFields, VmGroups};
use crate::types::{PcpuView, VcpuView};

/// The Relaxed Co-Scheduling policy. See the module docs.
#[derive(Debug, Clone)]
pub struct RelaxedCo {
    skew_threshold: u64,
    skew_resume: u64,
    /// Cumulative PCPU time per global VCPU index (grown lazily).
    progress: Vec<u64>,
    /// Leaders currently forbidden from running (co-stopped).
    stopped: Vec<bool>,
    vm_cursor: usize,
    /// Per-call scratch: the gangs, the idle PCPUs in index order, and
    /// one VM's start candidates.
    groups: VmGroups,
    idle: Vec<usize>,
    candidates: Vec<usize>,
}

impl RelaxedCo {
    /// Creates the policy.
    ///
    /// `skew_threshold` is the progress lead (in ticks) at which a VCPU is
    /// co-stopped; `skew_resume` (≤ threshold) is the lead below which it
    /// may run again.
    ///
    /// # Panics
    ///
    /// Panics if `skew_resume > skew_threshold`.
    #[must_use]
    pub fn new(skew_threshold: u64, skew_resume: u64) -> Self {
        assert!(
            skew_resume <= skew_threshold,
            "skew_resume ({skew_resume}) must not exceed skew_threshold ({skew_threshold})"
        );
        RelaxedCo {
            skew_threshold,
            skew_resume,
            progress: Vec::new(),
            stopped: Vec::new(),
            vm_cursor: 0,
            groups: VmGroups::default(),
            idle: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Current skew (progress lead over the slowest sibling) of VCPU
    /// `global` among `siblings` — inspection hook used by tests.
    #[must_use]
    pub fn skew_of(&self, global: usize, siblings: &[usize]) -> u64 {
        let p = |g: usize| self.progress.get(g).copied().unwrap_or(0);
        let min = siblings.iter().map(|&g| p(g)).min().unwrap_or(0);
        p(global).saturating_sub(min)
    }

    /// Whether VCPU `global` is currently co-stopped.
    #[must_use]
    pub fn is_co_stopped(&self, global: usize) -> bool {
        self.stopped.get(global).copied().unwrap_or(false)
    }

    fn update_accounting(&mut self, vcpus: &[VcpuView]) {
        self.progress.resize(vcpus.len(), 0);
        self.stopped.resize(vcpus.len(), false);
        for v in vcpus {
            if v.status.is_active() {
                self.progress[v.id.global] += 1;
            }
        }
        for vm in 0..self.groups.len() {
            let gang = self.groups.get(vm);
            if gang.len() < 2 {
                continue; // a lone VCPU has no siblings to skew against
            }
            let min = gang
                .iter()
                .map(|&g| self.progress[g])
                .min()
                .expect("gang is non-empty");
            for &g in gang {
                let lead = self.progress[g] - min;
                if lead > self.skew_threshold {
                    self.stopped[g] = true;
                } else if lead <= self.skew_resume {
                    self.stopped[g] = false;
                }
            }
        }
    }
}

impl SchedulingPolicy for RelaxedCo {
    fn name(&self) -> &str {
        "relaxed-co"
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
        self.groups.regroup(vcpus);
        self.update_accounting(vcpus);
        let num_vms = self.groups.len();
        if num_vms == 0 {
            return decision;
        }

        // Co-stop phase: preempt running leaders, freeing their PCPUs.
        self.idle.clear();
        self.idle
            .extend(pcpus.iter().filter(|p| p.is_idle()).map(|p| p.id));
        for v in vcpus {
            if self.stopped[v.id.global] && v.status.is_active() {
                decision.preempt(v.id.global);
                if let Some(p) = v.assigned_pcpu {
                    self.idle.push(p); // available again this tick
                }
            }
        }
        self.idle.sort_unstable();

        // Assignment pass: round-robin over VMs; within a VM, most-behind
        // VCPUs first (the laggard a barrier is waiting on is by
        // construction the least-progressed sibling). A co-stopped VCPU is
        // never a candidate: `stopped` excludes it even when it was active
        // a moment ago. Idle PCPUs are handed out in index order from
        // `next_idle`.
        let mut next_idle = 0;
        let mut next_cursor = self.vm_cursor;
        for offset in 0..num_vms {
            if next_idle == self.idle.len() {
                break;
            }
            let vm = (self.vm_cursor + offset) % num_vms;
            self.candidates.clear();
            self.candidates.extend(
                self.groups
                    .get(vm)
                    .iter()
                    .copied()
                    .filter(|&g| vcpus[g].is_schedulable() && !self.stopped[g]),
            );
            self.candidates.sort_by_key(|&g| self.progress[g]);
            let mut started = false;
            for (&g, &p) in self.candidates.iter().zip(&self.idle[next_idle..]) {
                decision.assign(g, p, default_timeslice);
                next_idle += 1;
                started = true;
            }
            if started {
                next_cursor = (vm + 1) % num_vms;
            }
        }
        self.vm_cursor = next_cursor;
        decision
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(PolicyState {
            per_vcpu: self
                .progress
                .iter()
                .zip(&self.stopped)
                .map(|(&p, &s)| vec![p as i64, i64::from(s)])
                .collect(),
            vm_ids: vec![self.vm_cursor as i64],
            ..PolicyState::default()
        })
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        let [cursor] = state.vm_ids.as_slice() else {
            return false;
        };
        if *cursor < 0
            || state
                .per_vcpu
                .iter()
                .any(|row| row.len() != 2 || row[0] < 0 || !(0..=1).contains(&row[1]))
        {
            return false;
        }
        self.progress = state.per_vcpu.iter().map(|row| row[0] as u64).collect();
        self.stopped = state.per_vcpu.iter().map(|row| row[1] != 0).collect();
        self.vm_cursor = *cursor as usize;
        true
    }

    /// Progress accounting and co-stop are per-VCPU-uniform; assignment
    /// scans VMs cyclically from the cursor and orders candidates by
    /// progress with a *stable* sort, so ties keep within-VM sibling
    /// order. Rotating VMs, the cursor, and the progress rows rotates the
    /// decision.
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
    fn single_vcpu_start_allowed_unlike_scs() {
        // One PCPU, a 2-VCPU VM: RCS may start a single VCPU.
        let mut rcs = RelaxedCo::new(20, 10);
        let vcpus = vcpus_with_vms(&[2]);
        let pcpus = pcpus_for(1, &vcpus);
        let d = rcs.schedule(&vcpus, &pcpus, 0, 10);
        validate_decision("rcs", &vcpus, &pcpus, &d).unwrap();
        assert_eq!(d.assignments.len(), 1, "relaxed co-start of one VCPU");
    }

    #[test]
    fn co_start_happens_when_gang_fits() {
        let mut rcs = RelaxedCo::new(20, 10);
        let vcpus = vcpus_with_vms(&[2]);
        let pcpus = pcpus_for(2, &vcpus);
        let d = rcs.schedule(&vcpus, &pcpus, 0, 10);
        assert_eq!(d.assignments.len(), 2, "best effort co-starts the gang");
    }

    #[test]
    fn skew_tracks_progress_difference() {
        let mut rcs = RelaxedCo::new(20, 10);
        let mut vcpus = vcpus_with_vms(&[2]);
        activate(&mut vcpus, 0, 0); // sibling 0 runs, sibling 1 waits
        let pcpus = pcpus_for(1, &vcpus);
        for t in 0..5 {
            let _ = rcs.schedule(&vcpus, &pcpus, t, 10);
        }
        assert_eq!(rcs.skew_of(0, &[0, 1]), 5, "leader is 5 ticks ahead");
        assert_eq!(rcs.skew_of(1, &[0, 1]), 0, "laggard defines the floor");
    }

    #[test]
    fn leader_is_co_stopped_past_threshold() {
        let mut rcs = RelaxedCo::new(3, 1);
        let mut vcpus = vcpus_with_vms(&[2]);
        activate(&mut vcpus, 0, 0);
        let pcpus = pcpus_for(1, &vcpus);
        for t in 0..3 {
            let d = rcs.schedule(&vcpus, &pcpus, t, 10);
            assert!(d.preemptions.is_empty(), "below threshold at t={t}");
        }
        // Fourth call: lead reaches 4 > 3 → leader co-stopped; the freed
        // PCPU goes to the laggard in the same decision.
        let d = rcs.schedule(&vcpus, &pcpus, 3, 10);
        validate_decision("rcs", &vcpus, &pcpus, &d).unwrap();
        assert!(rcs.is_co_stopped(0));
        assert_eq!(d.preemptions, vec![0], "leader co-stopped");
        assert_eq!(d.assignments.len(), 1);
        assert_eq!(d.assignments[0].vcpu, 1, "laggard takes the freed PCPU");
    }

    #[test]
    fn co_stopped_leader_resumes_after_catch_up() {
        let mut rcs = RelaxedCo::new(3, 1);
        let mut vcpus = vcpus_with_vms(&[2]);
        activate(&mut vcpus, 0, 0);
        let pcpus1 = pcpus_for(1, &vcpus);
        for t in 0..4 {
            let _ = rcs.schedule(&vcpus, &pcpus1, t, 10);
        }
        assert!(rcs.is_co_stopped(0));
        // The laggard now runs; after 3 ticks its deficit shrinks to 1
        // (= resume), releasing the leader.
        let mut vcpus2 = vcpus_with_vms(&[2]);
        activate(&mut vcpus2, 1, 0);
        let pcpus2 = pcpus_for(1, &vcpus2);
        for t in 4..7 {
            let _ = rcs.schedule(&vcpus2, &pcpus2, t, 10);
        }
        assert!(!rcs.is_co_stopped(0), "leader released at skew <= resume");
    }

    #[test]
    fn co_stopped_leader_cannot_be_rescheduled() {
        let mut rcs = RelaxedCo::new(3, 1);
        let mut vcpus = vcpus_with_vms(&[2]);
        activate(&mut vcpus, 0, 0);
        let pcpus = pcpus_for(1, &vcpus);
        for t in 0..4 {
            let _ = rcs.schedule(&vcpus, &pcpus, t, 10);
        }
        assert!(rcs.is_co_stopped(0));
        // Both inactive, two idle PCPUs: only the laggard may start.
        let vcpus2 = vcpus_with_vms(&[2]);
        let pcpus2 = pcpus_for(2, &vcpus2);
        let d = rcs.schedule(&vcpus2, &pcpus2, 4, 10);
        assert_eq!(d.assignments.len(), 1);
        assert_eq!(d.assignments[0].vcpu, 1, "leader is parked");
    }

    #[test]
    fn most_behind_sibling_starts_first() {
        let mut rcs = RelaxedCo::new(100, 50);
        let mut vcpus = vcpus_with_vms(&[3]);
        // Siblings 0 and 1 run for a while; 2 never does.
        activate(&mut vcpus, 0, 0);
        activate(&mut vcpus, 1, 1);
        let pcpus = pcpus_for(2, &vcpus);
        for t in 0..6 {
            let _ = rcs.schedule(&vcpus, &pcpus, t, 10);
        }
        // One PCPU frees up: sibling 2 (least progress) must win it.
        let mut vcpus2 = vcpus_with_vms(&[3]);
        activate(&mut vcpus2, 0, 0);
        let pcpus2 = pcpus_for(2, &vcpus2);
        let d = rcs.schedule(&vcpus2, &pcpus2, 6, 10);
        assert_eq!(d.assignments.len(), 1);
        assert_eq!(d.assignments[0].vcpu, 2, "most behind first");
    }

    #[test]
    fn no_sibling_starves_long_term() {
        // Self-check of the most-behind-first rule: over many turnovers,
        // every sibling of a 4-VCPU VM runs a similar amount.
        let mut rcs = RelaxedCo::new(10, 5);
        let mut ran = [0u32; 4];
        let mut vcpus = vcpus_with_vms(&[4]);
        let mut holder: Option<usize> = None;
        for t in 0..400 {
            // One PCPU; the current holder is preempted every 5 ticks.
            if t % 5 == 0 {
                if let Some(h) = holder.take() {
                    vcpus[h].status = crate::types::VcpuStatus::Inactive;
                    vcpus[h].assigned_pcpu = None;
                }
            }
            let pcpus = pcpus_for(1, &vcpus);
            let d = rcs.schedule(&vcpus, &pcpus, t, 10);
            for a in &d.assignments {
                activate(&mut vcpus, a.vcpu, a.pcpu);
                holder = Some(a.vcpu);
            }
            if let Some(h) = holder {
                ran[h] += 1;
            }
        }
        for (g, &r) in ran.iter().enumerate() {
            assert!(
                r > 50,
                "sibling {g} starved: ran {r} of 400 ticks ({ran:?})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "skew_resume")]
    fn bad_thresholds_rejected() {
        let _ = RelaxedCo::new(5, 10);
    }

    #[test]
    fn lone_vcpu_vms_never_co_stop() {
        let mut rcs = RelaxedCo::new(1, 0);
        let mut vcpus = vcpus_with_vms(&[1, 1]);
        activate(&mut vcpus, 0, 0);
        let pcpus = pcpus_for(1, &vcpus);
        for t in 0..10 {
            let d = rcs.schedule(&vcpus, &pcpus, t, 10);
            assert!(d.preemptions.is_empty());
        }
        assert!(!rcs.is_co_stopped(0));
        assert!(!rcs.is_co_stopped(1));
    }
}
