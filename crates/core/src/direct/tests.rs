use std::cell::RefCell;
use std::rc::Rc;

use vsched_des::Dist;

use crate::config::{SystemConfig, VmSpec, WorkloadSpec};
use crate::direct::DirectSim;
use crate::error::CoreError;
use crate::observe::{TickObserver, Timeline};
use crate::sched::{PolicyKind, RoundRobin, ScheduleDecision, SchedulingPolicy};
use crate::types::{PcpuView, VcpuStatus, VcpuView};

fn config(pcpus: usize, vms: &[usize]) -> SystemConfig {
    let mut b = SystemConfig::builder().pcpus(pcpus);
    for &n in vms {
        b = b.vm(n);
    }
    b.build().unwrap()
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

/// Deterministic, never-syncing workload: every job takes exactly 4 ticks.
fn det_workload(load: f64) -> WorkloadSpec {
    WorkloadSpec {
        load: Dist::deterministic(load).unwrap(),
        sync_probability: 0.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: None,
    }
}

#[test]
fn single_vcpu_single_pcpu_stays_busy() {
    let cfg = config_with_workload(1, &[1], det_workload(4.0));
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 1);
    sim.run(1000).unwrap();
    let m = sim.metrics();
    // One VCPU on one PCPU with saturated work: essentially always busy
    // (modulo the single tick lost at each timeslice boundary, which our
    // same-tick reschedule avoids entirely).
    assert!(m.vcpu_availability[0] > 0.99, "{m:?}");
    assert!(m.vcpu_utilization[0] > 0.99, "{m:?}");
    assert!(m.pcpu_utilization[0] > 0.99, "{m:?}");
}

#[test]
fn two_vcpus_share_one_pcpu_evenly() {
    let cfg = config_with_workload(1, &[1, 1], det_workload(4.0));
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 2);
    sim.run(10_000).unwrap();
    let m = sim.metrics();
    assert!((m.vcpu_availability[0] - 0.5).abs() < 0.01, "{m:?}");
    assert!((m.vcpu_availability[1] - 0.5).abs() < 0.01, "{m:?}");
    assert!(m.pcpu_utilization[0] > 0.99, "PCPU never idles");
}

#[test]
fn job_dispatched_at_t_runs_l_ticks() {
    // White-box trace: dispatch at tick 1, load 4 → READY again at tick 5.
    let cfg = config_with_workload(1, &[1], det_workload(4.0));
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 3);
    sim.tick().unwrap(); // t=1: scheduled in, job dispatched
    let v = &sim.vcpu_views()[0];
    assert_eq!(v.status, VcpuStatus::Busy);
    assert_eq!(v.remaining_load, 4);
    for _ in 0..3 {
        sim.tick().unwrap();
    }
    assert_eq!(sim.vcpu_views()[0].remaining_load, 1);
    sim.tick().unwrap(); // t=5: job completes... and a new one dispatches
    let v = &sim.vcpu_views()[0];
    assert_eq!(v.remaining_load, 4, "saturated generator refills same tick");
}

#[test]
fn timeslice_expiry_schedules_out() {
    // Two VCPUs, one PCPU, timeslice 5: holder changes every 5 ticks.
    let cfg = {
        let w = det_workload(100.0); // long job, no sync
        let mut b = SystemConfig::builder().pcpus(1).timeslice(5);
        for _ in 0..2 {
            b = b.vm_spec(VmSpec {
                vcpus: 1,
                workload: w.clone(),
                weight: 1,
            });
        }
        b.build().unwrap()
    };
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 4);
    sim.tick().unwrap(); // t=1: VCPU 0 in
    assert_eq!(sim.pcpu_views()[0].assigned.unwrap().global, 0);
    for _ in 0..5 {
        sim.tick().unwrap();
    }
    // t=6: VCPU 0's slice (ticks 2-6) expired; VCPU 1 took over.
    assert_eq!(sim.pcpu_views()[0].assigned.unwrap().global, 1);
    let v0 = &sim.vcpu_views()[0];
    assert_eq!(v0.status, VcpuStatus::Inactive);
    assert!(v0.remaining_load > 0, "preempted mid-job keeps its work");
}

#[test]
fn sync_point_blocks_vm_until_barrier_clears() {
    // One VM, 2 VCPUs, 2 PCPUs, sync on every workload (1:1): after the
    // first sync job dispatches, the sibling must idle until it completes.
    let w = WorkloadSpec {
        load: Dist::deterministic(6.0).unwrap(),
        sync_probability: 1.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: None,
    };
    let cfg = config_with_workload(2, &[2], w);
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 5);
    sim.tick().unwrap();
    assert!(sim.vm_blocked(0), "first dispatched job is a sync point");
    let views = sim.vcpu_views();
    let busy = views
        .iter()
        .filter(|v| v.status == VcpuStatus::Busy)
        .count();
    let ready = views
        .iter()
        .filter(|v| v.status == VcpuStatus::Ready)
        .count();
    assert_eq!(busy, 1, "only the sync job runs");
    assert_eq!(ready, 1, "the sibling waits at the barrier");
    // The barrier clears when the job completes (6 ticks later), and the
    // next sync job dispatches immediately.
    for _ in 0..6 {
        sim.tick().unwrap();
    }
    let views = sim.vcpu_views();
    assert_eq!(
        views
            .iter()
            .filter(|v| v.status == VcpuStatus::Busy)
            .count(),
        1,
        "next sync job dispatched after barrier"
    );
}

#[test]
fn sync_latency_hurts_rrs_vcpu_utilization() {
    // The paper's central qualitative claim (Figure 10): with more VCPUs
    // than PCPUs and frequent sync points, RRS wastes VCPU time because a
    // preempted lock holder blocks its siblings.
    let mk = |sync_probability: f64| {
        let w = WorkloadSpec {
            load: Dist::Uniform {
                low: 5.0,
                high: 15.0,
            },
            sync_probability,
            sync_mechanism: Default::default(),
            sync_every: None,
            interarrival: None,
        };
        config_with_workload(4, &[2, 4], w)
    };
    let run = |cfg: SystemConfig| {
        let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 6);
        sim.run(2_000).unwrap();
        sim.reset_metrics();
        sim.run(20_000).unwrap();
        sim.metrics().avg_vcpu_utilization()
    };
    let low_sync = run(mk(0.2)); // 1:5
    let high_sync = run(mk(0.5)); // 1:2
    assert!(
        high_sync < low_sync - 0.03,
        "RRS VCPU utilization must degrade with sync rate: 1:5 → {low_sync:.3}, 1:2 → {high_sync:.3}"
    );
}

#[test]
fn scs_starves_smp_vm_on_one_pcpu() {
    // Figure 8, one-PCPU column: SCS cannot schedule the 2-VCPU VM at all.
    let cfg = config(1, &[2, 1, 1]);
    let mut sim = DirectSim::new(cfg, PolicyKind::StrictCo.create(), 7);
    sim.run(5_000).unwrap();
    let m = sim.metrics();
    assert_eq!(m.vcpu_availability[0], 0.0);
    assert_eq!(m.vcpu_availability[1], 0.0);
    assert!(m.vcpu_availability[2] > 0.4);
    assert!(m.vcpu_availability[3] > 0.4);
}

#[test]
fn rcs_schedules_smp_vm_on_one_pcpu() {
    // Figure 8: RCS *can* schedule the 2-VCPU VM with one PCPU, but its
    // VCPUs receive less than the 1-VCPU VMs due to the skew constraint.
    let cfg = config(1, &[2, 1, 1]);
    let mut sim = DirectSim::new(cfg, PolicyKind::relaxed_co_default().create(), 8);
    sim.run(20_000).unwrap();
    let m = sim.metrics();
    assert!(
        m.vcpu_availability[0] > 0.02,
        "RCS must give the SMP VM some time: {m:?}"
    );
    let smp_avg = (m.vcpu_availability[0] + m.vcpu_availability[1]) / 2.0;
    assert!(
        smp_avg < m.vcpu_availability[2],
        "skew-capped SMP VCPUs receive less than lone VCPUs: {m:?}"
    );
}

#[test]
fn rrs_is_fair_at_every_pcpu_count() {
    // Figure 8: RRS always achieves scheduling fairness.
    for pcpus in 1..=4 {
        let cfg = config(pcpus, &[2, 1, 1]);
        let mut sim = DirectSim::new(cfg, PolicyKind::RoundRobin.create(), 9);
        sim.run(20_000).unwrap();
        let m = sim.metrics();
        let max = m.vcpu_availability.iter().cloned().fold(f64::MIN, f64::max);
        let min = m.vcpu_availability.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max - min < 0.06,
            "RRS unfair at {pcpus} PCPUs: {:?}",
            m.vcpu_availability
        );
    }
}

#[test]
fn scs_fragmentation_wastes_pcpus() {
    // Figure 9: with VCPUs > PCPUs, SCS cannot fully use the PCPUs.
    let cfg = config(4, &[2, 3]);
    let mut sim = DirectSim::new(cfg, PolicyKind::StrictCo.create(), 10);
    sim.run(2_000).unwrap();
    sim.reset_metrics();
    sim.run(20_000).unwrap();
    let scs_util = sim.metrics().avg_pcpu_utilization();

    let cfg = config(4, &[2, 3]);
    let mut sim = DirectSim::new(cfg, PolicyKind::RoundRobin.create(), 10);
    sim.run(2_000).unwrap();
    sim.reset_metrics();
    sim.run(20_000).unwrap();
    let rrs_util = sim.metrics().avg_pcpu_utilization();

    assert!(
        scs_util < rrs_util - 0.05,
        "SCS must fragment: SCS {scs_util:.3} vs RRS {rrs_util:.3}"
    );
}

#[test]
fn interarrival_mode_limits_utilization() {
    // A slow Poisson-ish arrival stream cannot keep the VCPU busy.
    let w = WorkloadSpec {
        load: Dist::deterministic(2.0).unwrap(),
        sync_probability: 0.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: Some(Dist::deterministic(10.0).unwrap()),
    };
    let cfg = config_with_workload(1, &[1], w);
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 11);
    sim.run(10_000).unwrap();
    let m = sim.metrics();
    // 2 ticks of work every 10 ticks → utilization ≈ 0.2.
    assert!(
        (m.vcpu_utilization[0] - 0.2).abs() < 0.02,
        "expected ~0.2, got {}",
        m.vcpu_utilization[0]
    );
}

#[test]
fn policy_violation_is_reported() {
    /// A deliberately broken policy: assigns the same PCPU twice.
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
            if vcpus.len() >= 2 {
                d.assign(0, 0, ts);
                d.assign(1, 0, ts);
            }
            d
        }
    }
    let cfg = config(2, &[1, 1]);
    let mut sim = DirectSim::new(cfg, Box::new(Broken), 12);
    let err = sim.tick().unwrap_err();
    assert!(err.to_string().contains("broken"));
}

#[test]
fn reset_metrics_clears_counters() {
    let cfg = config(1, &[1]);
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 13);
    sim.run(100).unwrap();
    sim.reset_metrics();
    let m = sim.metrics();
    assert_eq!(m.vcpu_availability[0], 0.0);
    assert_eq!(m.pcpu_utilization[0], 0.0);
}

#[test]
fn determinism_per_seed() {
    let run = |seed: u64| {
        let cfg = config(2, &[2, 1]);
        let mut sim = DirectSim::new(cfg, PolicyKind::relaxed_co_default().create(), seed);
        sim.run(5_000).unwrap();
        sim.metrics()
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

#[test]
fn conservation_invariants_hold_throughout() {
    // At every tick: a PCPU's assignee points back at it; ACTIVE VCPUs have
    // PCPUs; INACTIVE VCPUs do not; no PCPU is double-assigned.
    let cfg = config(3, &[2, 2, 1]);
    let mut sim = DirectSim::new(cfg, PolicyKind::relaxed_co_default().create(), 14);
    for _ in 0..2_000 {
        sim.tick().unwrap();
        let vcpus = sim.vcpu_views();
        let pcpus = sim.pcpu_views();
        let mut seen = vec![false; pcpus.len()];
        for v in &vcpus {
            match (v.status.is_active(), v.assigned_pcpu) {
                (true, Some(p)) => {
                    assert!(!seen[p], "PCPU {p} double-assigned");
                    seen[p] = true;
                    assert_eq!(pcpus[p].assigned, Some(v.id), "back-pointer");
                    assert!(v.timeslice_remaining > 0, "active implies slice left");
                }
                (false, None) => {}
                other => panic!("inconsistent VCPU state {other:?} for {}", v.id),
            }
        }
        for p in &pcpus {
            if let Some(id) = p.assigned {
                assert_eq!(vcpus[id.global].assigned_pcpu, Some(p.id));
            }
        }
    }
}

/// Records every end-of-tick VCPU snapshot.
#[derive(Default)]
struct Snapshots(Vec<Vec<VcpuView>>);

impl TickObserver for Snapshots {
    fn on_tick(&mut self, _: u64, vcpus: &[VcpuView], _: &[PcpuView]) -> Result<(), CoreError> {
        self.0.push(vcpus.to_vec());
        Ok(())
    }
}

/// Runs `sim` for `ticks` ticks and returns its end-of-tick VCPU
/// snapshots, one per tick.
fn snapshots(sim: &mut DirectSim, ticks: u64) -> Vec<Vec<VcpuView>> {
    let recorded = Rc::new(RefCell::new(Snapshots::default()));
    sim.attach_observer(Box::new(Rc::clone(&recorded)));
    sim.run(ticks).unwrap();
    sim.detach_observer();
    recorded.take().0
}

#[test]
fn trace_records_scheduling_lifecycle() {
    let cfg = config_with_workload(1, &[1], det_workload(3.0));
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 21);
    let ticks = snapshots(&mut sim, 7);
    // Tick 1 schedules the VCPU in and dispatches a 3-tick job to it.
    let first = ticks[0][0];
    assert_eq!(first.status, VcpuStatus::Busy);
    assert_eq!(first.assigned_pcpu, Some(0));
    assert_eq!(first.last_scheduled_in, Some(1));
    assert!(!first.sync_point);
    // It runs in ticks 2-4 and completes at tick 4, which dispatches the
    // next job.
    let loads: Vec<u64> = ticks.iter().map(|t| t[0].remaining_load).collect();
    assert_eq!(loads, [3, 2, 1, 3, 2, 1, 3]);
}

#[test]
fn trace_gantt_shows_rotation() {
    let cfg = {
        let w = det_workload(100.0);
        let mut b = SystemConfig::builder().pcpus(1).timeslice(4);
        for _ in 0..2 {
            b = b.vm_spec(VmSpec {
                vcpus: 1,
                workload: w.clone(),
                weight: 1,
            });
        }
        b.build().unwrap()
    };
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 22);
    let timeline = Rc::new(RefCell::new(Timeline::new(1, 17)));
    sim.attach_observer(Box::new(Rc::clone(&timeline)));
    sim.run(16).unwrap();
    // Alternating 4-tick slices on one PCPU.
    assert_eq!(
        timeline.borrow().render(),
        "vcpu0  |####....####....|\nvcpu1  |....####....####|\n"
    );
}

#[test]
fn trace_records_barrier_blocking() {
    let w = WorkloadSpec {
        load: Dist::deterministic(5.0).unwrap(),
        sync_probability: 1.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: None,
    };
    let cfg = config_with_workload(2, &[2], w);
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 24);
    // Every job is a sync point: the VM blocks at each dispatch, and the
    // barrier clears in phase 2 of the tick its 5-tick job completes, just
    // before phase 5 dispatches (and blocks on) the next one.
    let (mut at_decision, mut at_end) = (Vec::new(), Vec::new());
    for _ in 0..11 {
        sim.begin_tick();
        at_decision.push(sim.vm_blocked(0));
        sim.finish_tick().unwrap();
        at_end.push(sim.vm_blocked(0));
    }
    let cleared: Vec<usize> = (1..=11).filter(|&t| !at_decision[t - 1]).collect();
    assert_eq!(cleared, [1, 6, 11]);
    assert!(at_end.iter().all(|&blocked| blocked));
}

#[test]
fn deterministic_sync_pattern_is_exact() {
    // Every 4th workload is a sync point, exactly.
    let w = WorkloadSpec {
        load: Dist::deterministic(3.0).unwrap(),
        sync_probability: 0.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: None,
    }
    .with_sync_every(4)
    .unwrap();
    let cfg = config_with_workload(1, &[1], w);
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 31);
    // A dispatch shows as a fresh 3-tick job at the end of its tick.
    let syncs: Vec<bool> = snapshots(&mut sim, 2_000)
        .iter()
        .map(|t| t[0])
        .filter(|v| v.remaining_load == 3)
        .map(|v| v.sync_point)
        .collect();
    assert!(syncs.len() > 100);
    for (i, &sync) in syncs.iter().enumerate() {
        assert_eq!(sync, (i + 1) % 4 == 0, "dispatch {i}");
    }
}

#[test]
fn deterministic_and_bernoulli_sync_agree_statistically() {
    // At the same average rate (1:5), the deterministic pattern and the
    // Bernoulli pattern must produce similar utilization.
    let mk = |every: bool| {
        let mut w = WorkloadSpec::paper_default(); // Bernoulli 0.2
        if every {
            w.sync_probability = 0.0;
            w = w.with_sync_every(5).unwrap();
        }
        config_with_workload(4, &[2, 4], w)
    };
    let run = |cfg: SystemConfig| {
        let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 32);
        sim.run(2_000).unwrap();
        sim.reset_metrics();
        sim.run(30_000).unwrap();
        sim.metrics().avg_vcpu_utilization()
    };
    let bernoulli = run(mk(false));
    let every_kth = run(mk(true));
    assert!(
        (bernoulli - every_kth).abs() < 0.05,
        "patterns should agree at equal rates: {bernoulli:.3} vs {every_kth:.3}"
    );
}

#[test]
fn retire_masks_views_and_frees_pcpus_direct() {
    let cfg = config_with_workload(2, &[1, 1], det_workload(5.0));
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 11);
    sim.run(10).unwrap();
    assert!(sim.vm_admitted(1));
    sim.set_admitted(1, false);
    assert!(!sim.vm_admitted(1));
    let views = sim.vcpu_views();
    assert!(views[0].present);
    assert!(!views[1].present);
    assert_eq!(views[1].status, VcpuStatus::Inactive);
    assert_eq!(views[1].remaining_load, 0);
    assert!(
        !views[1].is_schedulable(),
        "retired VCPUs are not candidates"
    );
    assert!(
        sim.pcpu_views()
            .iter()
            .all(|p| p.assigned.is_none_or(|id| id.vm != 1)),
        "retirement freed VM 1's PCPU"
    );
    sim.run(50).unwrap();
    assert_eq!(
        sim.vcpu_views()[1].status,
        VcpuStatus::Inactive,
        "a retired VM never runs"
    );
    sim.set_admitted(1, true);
    sim.run(2).unwrap();
    assert_eq!(
        sim.vcpu_views()[1].status,
        VcpuStatus::Busy,
        "a re-admitted VM resumes generating work"
    );
}

#[test]
fn load_level_zero_pauses_saturated_generation_direct() {
    let cfg = config_with_workload(1, &[1], det_workload(3.0));
    let mut sim = DirectSim::new(cfg, Box::new(RoundRobin::new()), 13);
    sim.run(10).unwrap();
    assert_eq!(sim.load_level(0), 1000);
    sim.set_load_level(0, 0);
    assert_eq!(sim.load_level(0), 0);
    sim.run(10).unwrap();
    assert_ne!(
        sim.vcpu_views()[0].status,
        VcpuStatus::Busy,
        "no new jobs at level 0"
    );
    sim.set_load_level(0, 1000);
    sim.run(2).unwrap();
    assert_eq!(sim.vcpu_views()[0].status, VcpuStatus::Busy);
}

#[test]
fn duty_cycle_halves_generated_jobs_direct() {
    let mk = || config_with_workload(1, &[1], det_workload(1.0));
    let run_at = |level: u32| {
        let mut sim = DirectSim::new(mk(), Box::new(RoundRobin::new()), 17);
        sim.set_load_level(0, level);
        sim.run(2000).unwrap();
        sim.metrics().vcpu_utilization[0]
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
fn no_op_setters_keep_run_bit_identical_direct() {
    // The degenerate-trace path calls the setters with identity values;
    // that must not disturb RNG streams or any state.
    let mk = || config_with_workload(2, &[2, 1], det_workload(3.0));
    let mut plain = DirectSim::new(mk(), Box::new(RoundRobin::new()), 9);
    plain.run(300).unwrap();
    let mut touched = DirectSim::new(mk(), Box::new(RoundRobin::new()), 9);
    touched.set_admitted(0, true);
    touched.set_load_level(1, 1000);
    touched.run(150).unwrap();
    touched.set_admitted(1, true);
    touched.set_load_level(0, 1000);
    touched.run(150).unwrap();
    assert_eq!(
        plain.metrics().to_observations(),
        touched.metrics().to_observations()
    );
    assert_eq!(plain.vcpu_views(), touched.vcpu_views());
    assert_eq!(plain.pcpu_views(), touched.pcpu_views());
}

#[test]
fn engines_track_each_other_under_churn() {
    // The same churn script on both engines: the long-run metric estimates
    // must stay close (the same statistical-agreement contract the static
    // differential tests use).
    let mk = || config_with_workload(2, &[2, 1], det_workload(4.0));
    let script_d = |sim: &mut DirectSim| {
        sim.run(2000).unwrap();
        sim.set_admitted(1, false);
        sim.run(2000).unwrap();
        sim.set_admitted(1, true);
        sim.set_load_level(0, 500);
        sim.run(2000).unwrap();
    };
    let mut d = DirectSim::new(mk(), Box::new(RoundRobin::new()), 21);
    script_d(&mut d);
    let mut s =
        crate::san_model::SanSystem::new_dynamic(mk(), Box::new(RoundRobin::new()), 21).unwrap();
    s.run(2000).unwrap();
    s.set_admitted(1, false);
    s.run(2000).unwrap();
    s.set_admitted(1, true);
    s.set_load_level(0, 500);
    s.run(2000).unwrap();
    let (dm, sm) = (d.metrics(), s.metrics());
    for (i, (a, b)) in dm
        .vcpu_availability
        .iter()
        .zip(&sm.vcpu_availability)
        .enumerate()
    {
        assert!(
            (a - b).abs() < 0.05,
            "availability[{i}]: direct {a} san {b}"
        );
    }
    for (i, (a, b)) in dm
        .pcpu_utilization
        .iter()
        .zip(&sm.pcpu_utilization)
        .enumerate()
    {
        assert!((a - b).abs() < 0.05, "pcpu util[{i}]: direct {a} san {b}");
    }
}
