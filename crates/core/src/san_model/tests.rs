use vsched_des::Dist;

use crate::config::{SystemConfig, VmSpec, WorkloadSpec};
use crate::san_model::SanSystem;
use crate::sched::{PolicyKind, RoundRobin, ScheduleDecision, SchedulingPolicy};
use crate::types::{PcpuView, VcpuStatus, VcpuView};

fn config(pcpus: usize, vms: &[usize]) -> SystemConfig {
    let mut b = SystemConfig::builder().pcpus(pcpus);
    for &n in vms {
        b = b.vm(n);
    }
    b.build().unwrap()
}

fn det_workload(load: f64) -> WorkloadSpec {
    WorkloadSpec {
        load: Dist::deterministic(load).unwrap(),
        sync_probability: 0.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: None,
    }
}

fn config_with_workload(pcpus: usize, vms: &[usize], workload: WorkloadSpec) -> SystemConfig {
    let mut b = SystemConfig::builder().pcpus(pcpus);
    for &n in vms {
        b = b.vm_spec(VmSpec {
            vcpus: n,
            workload: workload.clone(),
            weight: 1,
        });
    }
    b.build().unwrap()
}

#[test]
fn clock_advances_one_per_tick() {
    let cfg = config(1, &[1]);
    let mut sys = SanSystem::new(cfg, Box::new(RoundRobin::new()), 1).unwrap();
    assert_eq!(sys.time(), 0);
    sys.run(5).unwrap();
    assert_eq!(sys.time(), 5);
    sys.run(3).unwrap();
    assert_eq!(sys.time(), 8);
}

#[test]
fn saturated_vcpu_is_always_busy() {
    let cfg = config_with_workload(1, &[1], det_workload(4.0));
    let mut sys = SanSystem::new(cfg, Box::new(RoundRobin::new()), 2).unwrap();
    sys.run(10).unwrap();
    sys.reset_metrics();
    sys.run(1000).unwrap();
    let m = sys.metrics();
    assert!(m.vcpu_availability[0] > 0.99, "{m:?}");
    assert!(m.vcpu_utilization[0] > 0.99, "{m:?}");
    assert!(m.pcpu_utilization[0] > 0.99, "{m:?}");
}

#[test]
fn first_tick_dispatches_a_job() {
    let cfg = config_with_workload(2, &[2], det_workload(6.0));
    let mut sys = SanSystem::new(cfg, Box::new(RoundRobin::new()), 3).unwrap();
    sys.run(1).unwrap();
    let views = sys.vcpu_views();
    assert!(
        views.iter().all(|v| v.status == VcpuStatus::Busy),
        "{views:?}"
    );
    assert_eq!(views[0].remaining_load, 6);
}

#[test]
fn sync_point_blocks_and_unblocks() {
    let w = WorkloadSpec {
        load: Dist::deterministic(6.0).unwrap(),
        sync_probability: 1.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: None,
    };
    let cfg = config_with_workload(2, &[2], w);
    let mut sys = SanSystem::new(cfg, Box::new(RoundRobin::new()), 4).unwrap();
    sys.run(1).unwrap();
    assert!(sys.vm_blocked(0));
    let views = sys.vcpu_views();
    let busy = views
        .iter()
        .filter(|v| v.status == VcpuStatus::Busy)
        .count();
    let ready = views
        .iter()
        .filter(|v| v.status == VcpuStatus::Ready)
        .count();
    assert_eq!((busy, ready), (1, 1), "one sync job runs, sibling waits");
    // Six ticks later the job completes, the barrier clears, and the next
    // sync job dispatches within the same tick.
    sys.run(6).unwrap();
    let views = sys.vcpu_views();
    assert_eq!(
        views
            .iter()
            .filter(|v| v.status == VcpuStatus::Busy)
            .count(),
        1
    );
    assert!(sys.vm_blocked(0), "next sync job re-blocked the VM");
}

#[test]
fn timeslice_rotation_under_contention() {
    let cfg = {
        let mut b = SystemConfig::builder().pcpus(1).timeslice(5);
        for _ in 0..2 {
            b = b.vm_spec(VmSpec {
                vcpus: 1,
                workload: det_workload(100.0),
                weight: 1,
            });
        }
        b.build().unwrap()
    };
    let mut sys = SanSystem::new(cfg, Box::new(RoundRobin::new()), 5).unwrap();
    sys.run(1).unwrap();
    assert_eq!(sys.pcpu_views()[0].assigned.unwrap().global, 0);
    sys.run(5).unwrap();
    assert_eq!(
        sys.pcpu_views()[0].assigned.unwrap().global,
        1,
        "slice expired, RR moved on"
    );
    let v0 = &sys.vcpu_views()[0];
    assert_eq!(v0.status, VcpuStatus::Inactive);
    assert!(v0.remaining_load > 0, "preempted job is preserved");
}

#[test]
fn two_vcpus_share_one_pcpu_fairly() {
    let cfg = config_with_workload(1, &[1, 1], det_workload(4.0));
    let mut sys = SanSystem::new(cfg, Box::new(RoundRobin::new()), 6).unwrap();
    sys.run(10_000).unwrap();
    let m = sys.metrics();
    assert!((m.vcpu_availability[0] - 0.5).abs() < 0.01, "{m:?}");
    assert!((m.vcpu_availability[1] - 0.5).abs() < 0.01, "{m:?}");
    assert!(m.pcpu_utilization[0] > 0.99);
}

#[test]
fn scs_starves_smp_vm_on_one_pcpu() {
    let cfg = config(1, &[2, 1, 1]);
    let mut sys = SanSystem::new(cfg, PolicyKind::StrictCo.create(), 7).unwrap();
    sys.run(5_000).unwrap();
    let m = sys.metrics();
    assert_eq!(m.vcpu_availability[0], 0.0);
    assert_eq!(m.vcpu_availability[1], 0.0);
    assert!(m.vcpu_availability[2] > 0.4);
    assert!(m.vcpu_availability[3] > 0.4);
}

#[test]
fn interarrival_mode_limits_utilization() {
    let w = WorkloadSpec {
        load: Dist::deterministic(2.0).unwrap(),
        sync_probability: 0.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: Some(Dist::deterministic(10.0).unwrap()),
    };
    let cfg = config_with_workload(1, &[1], w);
    let mut sys = SanSystem::new(cfg, Box::new(RoundRobin::new()), 8).unwrap();
    sys.run(10_000).unwrap();
    let m = sys.metrics();
    assert!(
        (m.vcpu_utilization[0] - 0.2).abs() < 0.03,
        "expected ~0.2, got {}",
        m.vcpu_utilization[0]
    );
}

#[test]
fn policy_violation_halts_and_reports() {
    #[derive(Debug)]
    struct Broken;
    impl SchedulingPolicy for Broken {
        fn name(&self) -> &str {
            "broken"
        }
        fn schedule(
            &mut self,
            vcpus: &[VcpuView],
            _pcpus: &[PcpuView],
            _t: u64,
            ts: u64,
        ) -> ScheduleDecision {
            let mut d = ScheduleDecision::none();
            if !vcpus.is_empty() {
                d.assign(0, 0, ts);
                d.assign(0, 0, ts); // double assignment: invalid
            }
            d
        }
    }
    let cfg = config(1, &[1]);
    let mut sys = SanSystem::new(cfg, Box::new(Broken), 9).unwrap();
    let err = sys.run(10).unwrap_err();
    assert!(err.to_string().contains("broken"), "{err}");
}

#[test]
fn ready_count_place_matches_derived_value() {
    // The Num_VCPUs_ready join place must stay consistent with the statuses
    // through every kind of transition.
    let cfg = config(2, &[2, 2]);
    let mut sys = SanSystem::new(cfg, PolicyKind::relaxed_co_default().create(), 10).unwrap();
    for _ in 0..500 {
        sys.run(1).unwrap();
        let views = sys.vcpu_views();
        for vm in 0..2 {
            let derived = views
                .iter()
                .filter(|v| v.id.vm == vm && v.status == VcpuStatus::Ready)
                .count() as i64;
            let place = sys
                .simulator()
                .marking()
                .tokens(sys.layout_for_tests().vms[vm].ready_count);
            assert_eq!(place, derived, "tick {}: VM {vm}", sys.time());
        }
    }
}

#[test]
fn conservation_invariants_hold() {
    let cfg = config(3, &[2, 2, 1]);
    let mut sys = SanSystem::new(cfg, PolicyKind::relaxed_co_default().create(), 11).unwrap();
    for _ in 0..500 {
        sys.run(1).unwrap();
        let vcpus = sys.vcpu_views();
        let pcpus = sys.pcpu_views();
        let mut seen = vec![false; pcpus.len()];
        for v in &vcpus {
            match (v.status.is_active(), v.assigned_pcpu) {
                (true, Some(p)) => {
                    assert!(!seen[p]);
                    seen[p] = true;
                    assert_eq!(pcpus[p].assigned, Some(v.id));
                }
                (false, None) => {}
                other => panic!("inconsistent state {other:?}"),
            }
        }
    }
}

#[test]
fn determinism_per_seed() {
    let run = |seed: u64| {
        let cfg = config(2, &[2, 1]);
        let mut sys = SanSystem::new(cfg, PolicyKind::RoundRobin.create(), seed).unwrap();
        sys.run(2_000).unwrap();
        sys.metrics()
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn paper_model_has_fully_declared_read_sets() {
    // Every guard / rate closure in the paper model declares its read-set,
    // so no activity should land on the conservative always-revisit list —
    // the incremental reevaluation path covers the whole model.
    let cfg = config(2, &[2, 2, 1]);
    let analysis =
        crate::san_model::build_analysis_model(&cfg, PolicyKind::RoundRobin.create()).unwrap();
    assert_eq!(
        analysis.model.conservative_activities().count(),
        0,
        "paper model must have no undeclared (conservative) activities"
    );
}

#[test]
fn incremental_and_full_rescan_agree_on_paper_model() {
    let run = |full: bool| {
        let cfg = config(2, &[2, 1]);
        let mut sys = SanSystem::new(cfg, PolicyKind::Sedf { period: 100 }.create(), 77).unwrap();
        sys.set_full_rescan(full);
        sys.run(1_500).unwrap();
        sys.metrics()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn reset_metrics_restarts_window() {
    let cfg = config(1, &[1]);
    let mut sys = SanSystem::new(cfg, Box::new(RoundRobin::new()), 12).unwrap();
    sys.run(100).unwrap();
    let before = sys.metrics().vcpu_availability[0];
    assert!(before > 0.9);
    sys.reset_metrics();
    let m = sys.metrics();
    // No time observed yet in the new window.
    assert_eq!(m.vcpu_availability[0], 0.0);
}

#[test]
fn spinlock_spin_survives_same_tick_deschedule() {
    // Lock-holder preemption: VM 1's two VCPUs share a spinlock but only
    // one PCPU's worth of time (SEDF keeps the 1-VCPU VM saturated on the
    // other PCPU), so the non-holder spins away whole 2-tick slices. A
    // spin tick whose spinner expires in the *same* tick's phase 3 must
    // still count — the PCPU was burned in phase 1 — or the SAN engine
    // reports roughly half the direct engine's spin fraction.
    let mk = || {
        let w = WorkloadSpec {
            load: Dist::deterministic(7.0).unwrap(),
            sync_probability: 0.0,
            sync_mechanism: crate::config::SyncMechanism::SpinLock,
            sync_every: None,
            interarrival: None,
        }
        .with_sync_every(4)
        .unwrap();
        SystemConfig::builder()
            .pcpus(2)
            .timeslice(2)
            .vm_spec(VmSpec {
                vcpus: 1,
                workload: w.clone(),
                weight: 1,
            })
            .vm_spec(VmSpec {
                vcpus: 2,
                workload: w,
                weight: 1,
            })
            .build()
            .unwrap()
    };
    let policy = || PolicyKind::Sedf { period: 50 }.create();
    let mut sys = SanSystem::new(mk(), policy(), 17).unwrap();
    sys.run(2_000).unwrap();
    let san = sys.metrics();
    let mut direct = crate::direct::DirectSim::new(mk(), policy(), 17);
    direct.run(2_000).unwrap();
    let dm = direct.metrics();
    assert!(
        dm.vcpu_spin.iter().any(|&s| s > 0.1),
        "scenario must actually spin: {dm:?}"
    );
    for g in 0..3 {
        assert!(
            (san.vcpu_spin[g] - dm.vcpu_spin[g]).abs() < 0.02,
            "VCPU {g}: SAN spin {} vs direct {}",
            san.vcpu_spin[g],
            dm.vcpu_spin[g]
        );
        assert!(
            (san.vcpu_utilization[g] - dm.vcpu_utilization[g]).abs() < 0.02,
            "VCPU {g}: SAN util {} vs direct {}",
            san.vcpu_utilization[g],
            dm.vcpu_utilization[g]
        );
    }
}

#[test]
fn deterministic_sync_pattern_in_san() {
    // 1 VCPU, 1 PCPU, every 3rd job a barrier: with det(4) loads the VM
    // blocks exactly after every third dispatch; metrics must match the
    // direct engine's.
    let mk = || {
        let w = WorkloadSpec {
            load: Dist::deterministic(4.0).unwrap(),
            sync_probability: 0.0,
            sync_mechanism: Default::default(),
            sync_every: None,
            interarrival: None,
        }
        .with_sync_every(3)
        .unwrap();
        config_with_workload(2, &[2], w)
    };
    let mut sys = SanSystem::new(mk(), Box::new(RoundRobin::new()), 41).unwrap();
    sys.run(5_000).unwrap();
    let san = sys.metrics();
    let mut direct = crate::direct::DirectSim::new(mk(), Box::new(RoundRobin::new()), 41);
    direct.run(5_000).unwrap();
    let dm = direct.metrics();
    for (a, b) in san.to_observations().iter().zip(dm.to_observations()) {
        assert!((a - b).abs() < 0.02, "SAN {a} vs direct {b}");
    }
}

#[test]
fn dynamic_identity_is_bit_identical_to_static() {
    // A dynamic model left at the identity marking (every VM admitted at
    // full level), with no-op setters sprinkled in, must be bit-identical
    // to the static model: same static-place marking, same metrics.
    let mk = || config_with_workload(2, &[2, 1], det_workload(3.0));
    let mut stat = SanSystem::new(mk(), Box::new(RoundRobin::new()), 9).unwrap();
    let mut dynamic = SanSystem::new_dynamic(mk(), Box::new(RoundRobin::new()), 9).unwrap();
    dynamic.set_admitted(0, true);
    dynamic.set_load_level(1, 1000);
    stat.run(300).unwrap();
    dynamic.run(150).unwrap();
    dynamic.set_admitted(1, true);
    dynamic.set_load_level(0, 1000);
    dynamic.run(150).unwrap();
    let s = stat.simulator().marking().as_slice();
    let d = dynamic.simulator().marking().as_slice();
    assert_eq!(&d[..s.len()], s, "static places agree");
    assert_eq!(
        stat.metrics().to_observations(),
        dynamic.metrics().to_observations()
    );
}

#[test]
fn retire_masks_views_and_frees_pcpus() {
    let cfg = config_with_workload(2, &[1, 1], det_workload(5.0));
    let mut sys = SanSystem::new_dynamic(cfg, Box::new(RoundRobin::new()), 11).unwrap();
    sys.run(10).unwrap();
    assert!(sys.vm_admitted(1));
    sys.set_admitted(1, false);
    assert!(!sys.vm_admitted(1));
    let views = sys.vcpu_views();
    assert!(views[0].present);
    assert!(!views[1].present);
    assert_eq!(views[1].status, VcpuStatus::Inactive);
    assert_eq!(views[1].remaining_load, 0);
    assert!(
        !views[1].is_schedulable(),
        "retired VCPUs are not candidates"
    );
    assert!(
        sys.pcpu_views()
            .iter()
            .all(|p| p.assigned.is_none_or(|id| id.vm != 1)),
        "retirement freed VM 1's PCPU"
    );
    sys.run(50).unwrap();
    assert_eq!(
        sys.vcpu_views()[1].status,
        VcpuStatus::Inactive,
        "a retired VM never runs"
    );
    sys.set_admitted(1, true);
    sys.run(2).unwrap();
    assert_eq!(
        sys.vcpu_views()[1].status,
        VcpuStatus::Busy,
        "a re-admitted VM resumes generating work"
    );
}

#[test]
fn load_level_zero_pauses_saturated_generation() {
    let cfg = config_with_workload(1, &[1], det_workload(3.0));
    let mut sys = SanSystem::new_dynamic(cfg, Box::new(RoundRobin::new()), 13).unwrap();
    sys.run(10).unwrap();
    assert_eq!(sys.load_level(0), 1000);
    sys.set_load_level(0, 0);
    assert_eq!(sys.load_level(0), 0);
    sys.run(10).unwrap();
    assert_ne!(
        sys.vcpu_views()[0].status,
        VcpuStatus::Busy,
        "no new jobs at level 0"
    );
    sys.set_load_level(0, 1000);
    sys.run(2).unwrap();
    assert_eq!(sys.vcpu_views()[0].status, VcpuStatus::Busy);
}

#[test]
fn duty_cycle_halves_generated_jobs() {
    // Level 500 thins generation ticks to every other tick; with load 1
    // each job completes inside its tick, so VCPU utilization lands near
    // one half of the full-level run.
    let mk = || config_with_workload(1, &[1], det_workload(1.0));
    let run_at = |level: u32| {
        let mut sys = SanSystem::new_dynamic(mk(), Box::new(RoundRobin::new()), 17).unwrap();
        sys.set_load_level(0, level);
        sys.run(2000).unwrap();
        sys.metrics().vcpu_utilization[0]
    };
    let full = run_at(1000);
    let half = run_at(500);
    assert!(full > 0.95, "saturated at load 1: {full}");
    assert!(
        (half - full / 2.0).abs() < 0.05,
        "level 500 should halve utilization: full {full}, half {half}"
    );
}

#[test]
fn dynamic_churn_is_reproducible_per_seed() {
    // A retire / load-level / re-admit cycle replays bit-identically from
    // the same seed, and actually changes the run.
    let mk = || config_with_workload(3, &[2, 2, 1], det_workload(4.0));
    let run = |churn: bool| {
        let mut sys = SanSystem::new_dynamic(mk(), Box::new(RoundRobin::new()), 77).unwrap();
        sys.run(100).unwrap();
        if churn {
            sys.set_admitted(1, false);
            sys.set_load_level(2, 250);
        }
        sys.run(100).unwrap();
        if churn {
            sys.set_admitted(1, true);
            sys.set_load_level(2, 1000);
        }
        sys.run(100).unwrap();
        (
            sys.simulator().marking().as_slice().to_vec(),
            sys.metrics().to_observations(),
        )
    };
    let churned = run(true);
    assert_eq!(churned, run(true), "same seed and churn, same run");
    assert_ne!(churned, run(false), "the churn changed the run");
}
