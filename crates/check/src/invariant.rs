//! The runtime invariant checker: DESIGN.md §11's catalogue as a
//! [`TickObserver`].
//!
//! The checker is engine-agnostic — it sees only the end-of-tick
//! snapshots both engines emit, so the same instance validates a
//! [`vsched_core::direct::DirectSim`] run and a
//! [`vsched_core::san_model::SanSystem`] run identically. Every violation
//! surfaces as [`CoreError::InvariantViolation`] naming the invariant,
//! the tick, and a human-readable reason, which the engine propagates out
//! of `run()`.
//!
//! Two invariants are *policy-contracts* rather than engine-contracts and
//! are therefore opt-in: SCS gang atomicity
//! ([`InvariantChecker::expect_gang_atomicity`]) and the RCS skew bound
//! ([`InvariantChecker::expect_skew_bound`]).
//! [`InvariantChecker::for_policy`] enables them automatically for
//! [`PolicyKind::StrictCo`] and [`PolicyKind::RelaxedCo`].

use std::ops::Range;

use vsched_core::observe::TickObserver;
use vsched_core::types::{PcpuView, VcpuStatus, VcpuView};
use vsched_core::{CoreError, PolicyKind, SystemConfig};

/// Slack added to the RCS skew threshold when checking the bound.
///
/// RCS detects a lead of `skew_threshold` at the *start* of a tick
/// (phase 4) and co-stops the leaders, but the tick in which detection
/// happens has already granted the leaders one more tick of progress —
/// the true worst case is `skew_threshold + 1`, which this slack encodes
/// exactly. A policy whose lead ever reaches `threshold + 2` is broken.
pub const SKEW_SLACK: u64 = 1;

/// Per-VCPU activity tallies for the accounting-closure invariant.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    busy: u64,
    ready: u64,
    inactive: u64,
}

/// Runtime invariant checker for both simulation engines.
///
/// Attach with `sim.attach_observer(Box::new(Rc::new(RefCell::new(ck))))`
/// (keeping a clone of the `Rc` to inspect [`InvariantChecker::ticks_checked`]
/// afterwards), or box it directly if post-run inspection is not needed.
#[derive(Debug)]
pub struct InvariantChecker {
    num_pcpus: usize,
    num_vcpus: usize,
    /// Global VCPU index ranges of every multi-VCPU VM (singletons are
    /// trivially atomic and trivially skew-free).
    gangs: Vec<Range<usize>>,
    /// The previous end-of-tick snapshot; `None` before the first
    /// observed tick (the checker tolerates mid-run attachment).
    prev: Option<(u64, Vec<VcpuView>)>,
    ticks_checked: u64,
    tallies: Vec<Tally>,
    /// Cumulative per-VCPU progress mirrored from the policies'
    /// phase-4 accounting rule (see `advance_progress`).
    progress: Vec<u64>,
    check_gang: bool,
    skew_bound: Option<u64>,
}

impl InvariantChecker {
    /// Builds a checker for `config` with only the engine-contract
    /// invariants enabled (clock, assignment, transitions, accounting).
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        let gangs = (0..config.vms().len())
            .map(|vm| config.vm_vcpus(vm))
            .filter(|g| g.len() > 1)
            .collect();
        InvariantChecker {
            num_pcpus: config.pcpus(),
            num_vcpus: config.total_vcpus(),
            gangs,
            prev: None,
            ticks_checked: 0,
            tallies: vec![Tally::default(); config.total_vcpus()],
            progress: vec![0; config.total_vcpus()],
            check_gang: false,
            skew_bound: None,
        }
    }

    /// Builds a checker with the policy-contract invariants matching
    /// `policy`: gang atomicity for [`PolicyKind::StrictCo`], the skew
    /// bound for [`PolicyKind::RelaxedCo`].
    #[must_use]
    pub fn for_policy(config: &SystemConfig, policy: &PolicyKind) -> Self {
        let ck = InvariantChecker::new(config);
        match *policy {
            PolicyKind::StrictCo => ck.expect_gang_atomicity(),
            PolicyKind::RelaxedCo { skew_threshold, .. } => ck.expect_skew_bound(skew_threshold),
            _ => ck,
        }
    }

    /// Additionally require that each multi-VCPU VM's siblings are all
    /// active or all inactive at every end of tick (the SCS contract).
    #[must_use]
    pub fn expect_gang_atomicity(mut self) -> Self {
        self.check_gang = true;
        self
    }

    /// Additionally require that within each multi-VCPU VM, no sibling's
    /// cumulative progress leads the slowest sibling by more than
    /// `threshold + `[`SKEW_SLACK`] (the RCS contract).
    #[must_use]
    pub fn expect_skew_bound(mut self, threshold: u64) -> Self {
        self.skew_bound = Some(threshold);
        self
    }

    /// Number of ticks validated so far.
    #[must_use]
    pub fn ticks_checked(&self) -> u64 {
        self.ticks_checked
    }

    /// The checker's cumulative per-VCPU progress ledger (global VCPU
    /// order) — the auxiliary state the exhaustive verifier threads from
    /// edge to edge (see [`InvariantChecker::resume_at`]).
    #[must_use]
    pub fn progress(&self) -> &[u64] {
        &self.progress
    }

    /// Rewinds the checker to the middle of a run: the next
    /// [`TickObserver::on_tick`] call is validated as if `tick` had just
    /// been observed with snapshot `views` and cumulative progress
    /// `progress`.
    ///
    /// This is the exhaustive verifier's entry point: the state graph is
    /// explored out of order, so each edge `src → dst` is checked by a
    /// fresh checker resumed at `src` and stepped once to `dst`. Per-VCPU
    /// status tallies are not part of the verifier's state vector, so the
    /// accounting-closure invariant degrades gracefully here: the total is
    /// seeded to `tick` (as if every past tick were INACTIVE), which keeps
    /// the closure `busy + ready + inactive = ticks checked` exact while
    /// forgetting the per-status split.
    ///
    /// # Panics
    ///
    /// Panics if `progress` does not have one entry per VCPU.
    pub fn resume_at(&mut self, tick: u64, views: Vec<VcpuView>, progress: Vec<u64>) {
        assert_eq!(
            progress.len(),
            self.num_vcpus,
            "resume_at progress vector must have one entry per VCPU"
        );
        self.prev = Some((tick, views));
        self.ticks_checked = tick;
        self.tallies = vec![
            Tally {
                busy: 0,
                ready: 0,
                inactive: tick,
            };
            self.num_vcpus
        ];
        self.progress = progress;
    }

    /// Largest cumulative-progress lead currently observed within any
    /// gang (0 when every gang is balanced or there are no gangs).
    #[must_use]
    pub fn max_gang_skew(&self) -> u64 {
        self.gangs
            .iter()
            .map(|gang| {
                let progress = &self.progress[gang.clone()];
                let min = progress.iter().min().copied().unwrap_or(0);
                let max = progress.iter().max().copied().unwrap_or(0);
                max - min
            })
            .max()
            .unwrap_or(0)
    }

    fn violation(invariant: &str, tick: u64, reason: String) -> CoreError {
        CoreError::InvariantViolation {
            invariant: invariant.to_string(),
            tick,
            reason,
        }
    }

    /// Mirrors the co-scheduling policies' phase-4 progress accounting:
    /// a VCPU makes one tick of progress in tick `t` iff it entered `t`
    /// active with at least 2 ticks of timeslice left (a VCPU that
    /// entered with 1 was expired by phase 3 before running). This must
    /// be computed from the *previous* end-of-tick snapshot — counting
    /// active VCPUs at the end of tick `t` would overcount each stint by
    /// one and unboundedly diverge from the policy's own ledger.
    fn advance_progress(&mut self, prev: &[VcpuView]) {
        for (i, v) in prev.iter().enumerate() {
            if v.status.is_active() && v.timeslice_remaining >= 2 {
                self.progress[i] += 1;
            }
        }
    }

    fn check_clock(&self, tick: u64) -> Result<(), CoreError> {
        if let Some((prev_tick, _)) = &self.prev {
            if tick != prev_tick + 1 {
                return Err(Self::violation(
                    "clock-monotonicity",
                    tick,
                    format!(
                        "observed tick {tick} after tick {prev_tick}; expected {}",
                        prev_tick + 1
                    ),
                ));
            }
        }
        Ok(())
    }

    fn check_assignment(
        &self,
        tick: u64,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
    ) -> Result<(), CoreError> {
        // Each PCPU's back-pointer must name an active VCPU that points
        // back at it; each active VCPU must own exactly one PCPU.
        let mut pcpu_of = vec![None; self.num_vcpus];
        for p in pcpus {
            if let Some(vid) = p.assigned {
                if vid.global >= self.num_vcpus {
                    return Err(Self::violation(
                        "exclusive-assignment",
                        tick,
                        format!(
                            "PCPU {} assigned out-of-range VCPU index {}",
                            p.id, vid.global
                        ),
                    ));
                }
                if let Some(other) = pcpu_of[vid.global] {
                    return Err(Self::violation(
                        "exclusive-assignment",
                        tick,
                        format!("{vid} assigned to both PCPU {other} and PCPU {}", p.id),
                    ));
                }
                pcpu_of[vid.global] = Some(p.id);
            }
        }
        for v in vcpus {
            match (v.status.is_active(), v.assigned_pcpu) {
                (true, Some(p)) => {
                    if p >= self.num_pcpus {
                        return Err(Self::violation(
                            "exclusive-assignment",
                            tick,
                            format!("{} claims out-of-range PCPU {p}", v.id),
                        ));
                    }
                    if pcpu_of[v.id.global] != Some(p) {
                        return Err(Self::violation(
                            "exclusive-assignment",
                            tick,
                            format!(
                                "{} claims PCPU {p} but that PCPU's back-pointer is {:?}",
                                v.id, pcpu_of[v.id.global]
                            ),
                        ));
                    }
                }
                (true, None) => {
                    return Err(Self::violation(
                        "exclusive-assignment",
                        tick,
                        format!("{} is {} but holds no PCPU", v.id, v.status),
                    ));
                }
                (false, Some(p)) => {
                    return Err(Self::violation(
                        "exclusive-assignment",
                        tick,
                        format!("{} is INACTIVE but still holds PCPU {p}", v.id),
                    ));
                }
                (false, None) => {
                    if pcpu_of[v.id.global].is_some() {
                        return Err(Self::violation(
                            "exclusive-assignment",
                            tick,
                            format!(
                                "{} is INACTIVE but PCPU {} still points at it",
                                v.id,
                                pcpu_of[v.id.global].unwrap()
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_transitions(&self, tick: u64, vcpus: &[VcpuView]) -> Result<(), CoreError> {
        for v in vcpus {
            // Local (single-snapshot) legality.
            if v.status.is_active() && v.timeslice_remaining == 0 {
                return Err(Self::violation(
                    "transition-legality",
                    tick,
                    format!("{} is {} with an exhausted timeslice", v.id, v.status),
                ));
            }
            if !v.status.is_active() && v.timeslice_remaining != 0 {
                return Err(Self::violation(
                    "transition-legality",
                    tick,
                    format!(
                        "{} is INACTIVE but retains {} ticks of timeslice",
                        v.id, v.timeslice_remaining
                    ),
                ));
            }
            if v.status == VcpuStatus::Busy && v.remaining_load == 0 {
                return Err(Self::violation(
                    "transition-legality",
                    tick,
                    format!("{} is BUSY with no remaining load", v.id),
                ));
            }
        }
        // Cross-tick legality: a VCPU continuing the same stint (same
        // Last_Scheduled_In, active in both snapshots) must stay on its
        // PCPU and burn exactly one tick of timeslice.
        if let Some((_, prev)) = &self.prev {
            for (p, n) in prev.iter().zip(vcpus) {
                let same_stint = p.status.is_active()
                    && n.status.is_active()
                    && p.last_scheduled_in == n.last_scheduled_in;
                if !same_stint {
                    continue;
                }
                if p.assigned_pcpu != n.assigned_pcpu {
                    return Err(Self::violation(
                        "transition-legality",
                        tick,
                        format!(
                            "{} migrated PCPU {:?} -> {:?} mid-stint",
                            n.id, p.assigned_pcpu, n.assigned_pcpu
                        ),
                    ));
                }
                if p.timeslice_remaining != n.timeslice_remaining + 1 {
                    return Err(Self::violation(
                        "transition-legality",
                        tick,
                        format!(
                            "{} timeslice went {} -> {} in one tick of the same stint",
                            n.id, p.timeslice_remaining, n.timeslice_remaining
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_gang_atomicity(&self, tick: u64, vcpus: &[VcpuView]) -> Result<(), CoreError> {
        for gang in &self.gangs {
            let members = &vcpus[gang.clone()];
            let active = members.iter().filter(|v| v.status.is_active()).count();
            if active != 0 && active != members.len() {
                let vm = members[0].id.vm;
                return Err(Self::violation(
                    "gang-atomicity",
                    tick,
                    format!(
                        "VM {} has {active} of {} sibling VCPUs active — SCS gangs run all-or-nothing",
                        vm + 1,
                        members.len()
                    ),
                ));
            }
        }
        Ok(())
    }

    fn check_skew(&self, tick: u64) -> Result<(), CoreError> {
        let Some(threshold) = self.skew_bound else {
            return Ok(());
        };
        let bound = threshold + SKEW_SLACK;
        for gang in &self.gangs {
            let min = self.progress[gang.clone()]
                .iter()
                .min()
                .copied()
                .unwrap_or(0);
            for g in gang.clone() {
                let lead = self.progress[g] - min;
                if lead > bound {
                    return Err(Self::violation(
                        "skew-bound",
                        tick,
                        format!(
                            "VCPU global {g} leads its slowest sibling by {lead} ticks \
                             (threshold {threshold} + slack {SKEW_SLACK})",
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_accounting(&mut self, tick: u64, vcpus: &[VcpuView]) -> Result<(), CoreError> {
        for (i, v) in vcpus.iter().enumerate() {
            let t = &mut self.tallies[i];
            match v.status {
                VcpuStatus::Busy => t.busy += 1,
                VcpuStatus::Ready => t.ready += 1,
                VcpuStatus::Inactive => t.inactive += 1,
            }
            let total = t.busy + t.ready + t.inactive;
            if total != self.ticks_checked + 1 {
                return Err(Self::violation(
                    "accounting-closure",
                    tick,
                    format!(
                        "{} tallies busy+ready+inactive = {total} after {} checked ticks",
                        v.id,
                        self.ticks_checked + 1
                    ),
                ));
            }
        }
        Ok(())
    }
}

impl TickObserver for InvariantChecker {
    fn on_tick(
        &mut self,
        tick: u64,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
    ) -> Result<(), CoreError> {
        if vcpus.len() != self.num_vcpus || pcpus.len() != self.num_pcpus {
            return Err(Self::violation(
                "snapshot-shape",
                tick,
                format!(
                    "snapshot has {} VCPUs / {} PCPUs; config has {} / {}",
                    vcpus.len(),
                    pcpus.len(),
                    self.num_vcpus,
                    self.num_pcpus
                ),
            ));
        }
        self.check_clock(tick)?;
        if let Some((_, prev)) = self.prev.take() {
            // take() then restore: advance_progress needs &mut self.
            self.advance_progress(&prev);
            self.prev = Some((tick - 1, prev));
        }
        self.check_skew(tick)?;
        self.check_assignment(tick, vcpus, pcpus)?;
        self.check_transitions(tick, vcpus)?;
        if self.check_gang {
            self.check_gang_atomicity(tick, vcpus)?;
        }
        self.check_accounting(tick, vcpus)?;
        self.ticks_checked += 1;
        self.prev = Some((tick, vcpus.to_vec()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use vsched_core::direct::DirectSim;
    use vsched_core::san_model::SanSystem;

    fn two_vm_config() -> SystemConfig {
        SystemConfig::builder()
            .pcpus(2)
            .vm(2)
            .vm(1)
            .timeslice(5)
            .sync_ratio(1, 4)
            .build()
            .unwrap()
    }

    fn run_checked_direct(policy: PolicyKind, ticks: u64) -> Rc<RefCell<InvariantChecker>> {
        let config = two_vm_config();
        let ck = Rc::new(RefCell::new(InvariantChecker::for_policy(&config, &policy)));
        let mut sim = DirectSim::new(config, policy.create(), 11);
        sim.attach_observer(Box::new(Rc::clone(&ck)));
        sim.run(ticks).unwrap();
        ck
    }

    #[test]
    fn clean_policies_pass_on_direct_engine() {
        for policy in [
            PolicyKind::RoundRobin,
            PolicyKind::StrictCo,
            PolicyKind::relaxed_co_default(),
            PolicyKind::Balance,
            PolicyKind::credit_default(),
            PolicyKind::sedf_default(),
            PolicyKind::bvt_default(),
            PolicyKind::Fcfs,
        ] {
            let ck = run_checked_direct(policy, 300);
            assert_eq!(ck.borrow().ticks_checked(), 300);
        }
    }

    #[test]
    fn clean_policies_pass_on_san_engine() {
        for policy in [PolicyKind::RoundRobin, PolicyKind::StrictCo] {
            let config = two_vm_config();
            let ck = Rc::new(RefCell::new(InvariantChecker::for_policy(&config, &policy)));
            let mut sys = SanSystem::new(config, policy.create(), 11).unwrap();
            sys.attach_observer(Box::new(Rc::clone(&ck)));
            sys.run(200).unwrap();
            assert_eq!(ck.borrow().ticks_checked(), 200);
        }
    }

    #[test]
    fn rcs_skew_stays_within_threshold_plus_slack() {
        let ck = run_checked_direct(PolicyKind::relaxed_co_default(), 500);
        assert!(ck.borrow().max_gang_skew() <= 5 + SKEW_SLACK);
    }

    #[test]
    fn rrs_violates_gang_atomicity() {
        // RRS schedules siblings independently; demanding SCS's contract
        // from it must trip the checker (and proves the check has teeth).
        let config = two_vm_config();
        let ck = InvariantChecker::new(&config).expect_gang_atomicity();
        let mut sim = DirectSim::new(config, PolicyKind::RoundRobin.create(), 11);
        sim.attach_observer(Box::new(ck));
        let err = sim.run(300).unwrap_err();
        match err {
            CoreError::InvariantViolation { invariant, .. } => {
                assert_eq!(invariant, "gang-atomicity");
            }
            other => panic!("expected gang-atomicity violation, got {other}"),
        }
    }

    #[test]
    fn rrs_violates_a_tight_skew_bound() {
        // With 2 PCPUs and 3 VCPUs, RRS lets one sibling of the 2-VCPU VM
        // run while the other waits, so cumulative skew grows without
        // bound; a tight RCS-style bound must fire.
        let config = two_vm_config();
        let ck = InvariantChecker::new(&config).expect_skew_bound(2);
        let mut sim = DirectSim::new(config, PolicyKind::RoundRobin.create(), 11);
        sim.attach_observer(Box::new(ck));
        let err = sim.run(500).unwrap_err();
        match err {
            CoreError::InvariantViolation { invariant, .. } => {
                assert_eq!(invariant, "skew-bound");
            }
            other => panic!("expected skew-bound violation, got {other}"),
        }
    }

    #[test]
    fn resumed_checker_tracks_a_sequential_run_edge_by_edge() {
        // Record a real run's snapshots, check them sequentially, then
        // re-check every edge with a fresh checker resumed at the edge's
        // source — the verifier's out-of-order pattern. Verdicts and the
        // progress ledger must match the sequential reference exactly.
        struct Recorder {
            snaps: Vec<(u64, Vec<VcpuView>, Vec<PcpuView>)>,
        }
        impl TickObserver for Recorder {
            fn on_tick(
                &mut self,
                tick: u64,
                vcpus: &[VcpuView],
                pcpus: &[PcpuView],
            ) -> Result<(), CoreError> {
                self.snaps.push((tick, vcpus.to_vec(), pcpus.to_vec()));
                Ok(())
            }
        }
        let policy = PolicyKind::relaxed_co_default();
        let config = two_vm_config();
        let rec = Rc::new(RefCell::new(Recorder { snaps: Vec::new() }));
        let mut sim = DirectSim::new(config.clone(), policy.create(), 11);
        sim.attach_observer(Box::new(Rc::clone(&rec)));
        sim.run(60).unwrap();
        let rec = rec.borrow();

        let mut seq = InvariantChecker::for_policy(&config, &policy);
        let mut progress_after: Vec<Vec<u64>> = Vec::new();
        for (t, v, p) in &rec.snaps {
            seq.on_tick(*t, v, p).unwrap();
            progress_after.push(seq.progress().to_vec());
        }

        for i in 1..rec.snaps.len() {
            let (t0, v0, _) = &rec.snaps[i - 1];
            let (t1, v1, p1) = &rec.snaps[i];
            let mut ck = InvariantChecker::for_policy(&config, &policy);
            ck.resume_at(*t0, v0.clone(), progress_after[i - 1].clone());
            ck.on_tick(*t1, v1, p1).unwrap();
            assert_eq!(ck.progress(), &progress_after[i][..], "edge into tick {t1}");
            assert_eq!(ck.ticks_checked(), t0 + 1);
        }

        // A resumed checker still rejects a corrupt successor.
        let (t0, v0, _) = &rec.snaps[10];
        let mut ck = InvariantChecker::for_policy(&config, &policy);
        ck.resume_at(*t0, v0.clone(), progress_after[10].clone());
        let (_, v1, p1) = &rec.snaps[11];
        let err = ck.on_tick(t0 + 5, v1, p1).unwrap_err();
        assert!(err.to_string().contains("clock-monotonicity"), "{err}");
    }

    #[test]
    #[should_panic(expected = "one entry per VCPU")]
    fn resume_at_rejects_a_malformed_progress_vector() {
        let config = two_vm_config();
        let mut ck = InvariantChecker::new(&config);
        ck.resume_at(3, Vec::new(), vec![0; 99]);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let config = two_vm_config();
        let mut ck = InvariantChecker::new(&config);
        let vcpus: Vec<VcpuView> = config
            .vcpu_ids()
            .iter()
            .map(|&id| VcpuView {
                id,
                status: VcpuStatus::Inactive,
                remaining_load: 0,
                sync_point: false,
                assigned_pcpu: None,
                timeslice_remaining: 0,
                last_scheduled_in: None,
                vm_weight: 1,
                present: true,
            })
            .collect();
        let pcpus: Vec<PcpuView> = (0..2).map(|id| PcpuView { id, assigned: None }).collect();

        // A healthy all-idle snapshot passes.
        ck.on_tick(1, &vcpus, &pcpus).unwrap();

        // INACTIVE VCPU holding a PCPU: exclusive-assignment violation.
        let mut bad = vcpus.clone();
        bad[0].assigned_pcpu = Some(0);
        let err = ck.on_tick(2, &bad, &pcpus).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation { ref invariant, tick: 2, .. }
                if invariant == "exclusive-assignment"
        ));

        // Two PCPUs claiming one VCPU.
        let mut ck = InvariantChecker::new(&config);
        let both = vec![
            PcpuView {
                id: 0,
                assigned: Some(vcpus[0].id),
            },
            PcpuView {
                id: 1,
                assigned: Some(vcpus[0].id),
            },
        ];
        let err = ck.on_tick(1, &vcpus, &both).unwrap_err();
        assert!(err.to_string().contains("exclusive-assignment"));

        // Clock regression.
        let mut ck = InvariantChecker::new(&config);
        ck.on_tick(5, &vcpus, &pcpus).unwrap();
        let err = ck.on_tick(5, &vcpus, &pcpus).unwrap_err();
        assert!(err.to_string().contains("clock-monotonicity"));

        // Wrong snapshot shape.
        let mut ck = InvariantChecker::new(&config);
        let err = ck.on_tick(1, &vcpus[..1], &pcpus).unwrap_err();
        assert!(err.to_string().contains("snapshot-shape"));

        // BUSY with no load.
        let mut ck = InvariantChecker::new(&config);
        let mut bad = vcpus.clone();
        bad[1].status = VcpuStatus::Busy;
        bad[1].assigned_pcpu = Some(1);
        bad[1].timeslice_remaining = 3;
        let pcpus_claiming = vec![
            PcpuView {
                id: 0,
                assigned: None,
            },
            PcpuView {
                id: 1,
                assigned: Some(bad[1].id),
            },
        ];
        let err = ck.on_tick(1, &bad, &pcpus_claiming).unwrap_err();
        assert!(err.to_string().contains("transition-legality"));
    }

    #[test]
    fn mid_stint_migration_is_rejected() {
        let config = SystemConfig::builder().pcpus(2).vm(1).build().unwrap();
        let mut ck = InvariantChecker::new(&config);
        let make = |pcpu: usize, ts: u64| VcpuView {
            id: config.vcpu_ids()[0],
            status: VcpuStatus::Ready,
            remaining_load: 0,
            sync_point: false,
            assigned_pcpu: Some(pcpu),
            timeslice_remaining: ts,
            last_scheduled_in: Some(1),
            vm_weight: 1,
            present: true,
        };
        let pcpus = |pcpu: usize| {
            (0..2)
                .map(|id| PcpuView {
                    id,
                    assigned: (id == pcpu).then_some(config.vcpu_ids()[0]),
                })
                .collect::<Vec<_>>()
        };
        ck.on_tick(1, &[make(0, 5)], &pcpus(0)).unwrap();
        let err = ck.on_tick(2, &[make(1, 4)], &pcpus(1)).unwrap_err();
        assert!(err.to_string().contains("migrated"));

        // Same stint with the timeslice not decremented is also illegal.
        let mut ck = InvariantChecker::new(&config);
        ck.on_tick(1, &[make(0, 5)], &pcpus(0)).unwrap();
        let err = ck.on_tick(2, &[make(0, 5)], &pcpus(0)).unwrap_err();
        assert!(err.to_string().contains("timeslice went"));
    }
}
