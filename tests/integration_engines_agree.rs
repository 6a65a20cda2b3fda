//! Cross-validation of the two engines (experiment VAL1).
//!
//! The paper's Discussion (§V) lists "evaluating the fidelity of the model"
//! as open work. These tests run the same configuration through the SAN
//! engine (the paper's approach) and the independently implemented direct
//! engine, and require their metric estimates to agree — the strongest
//! fidelity evidence available without hardware.

use vsched_core::{Engine, ExperimentBuilder, PolicyKind, SystemConfig};

mod common;
use common::config_sync as config;

/// Runs both engines over several replications and checks that each metric
/// mean agrees within `tol`.
fn assert_engines_agree(cfg: SystemConfig, kind: PolicyKind, tol: f64) {
    let build = |engine| {
        ExperimentBuilder::new(cfg.clone(), kind.clone())
            .engine(engine)
            .warmup(1_000)
            .horizon(10_000)
            .replications_exact(5)
            .run()
            .unwrap()
    };
    let san = build(Engine::San);
    let direct = build(Engine::Direct);
    let pairs = [
        (
            "availability",
            san.vcpu_availability_means(),
            direct.vcpu_availability_means(),
        ),
        (
            "vcpu util",
            san.vcpu_utilization_means(),
            direct.vcpu_utilization_means(),
        ),
        (
            "pcpu util",
            san.pcpu_utilization_means(),
            direct.pcpu_utilization_means(),
        ),
    ];
    for (name, s, d) in pairs {
        for (i, (a, b)) in s.iter().zip(&d).enumerate() {
            assert!(
                (a - b).abs() < tol,
                "{kind} / {}: {name}[{i}] disagrees: SAN {a:.4} vs direct {b:.4}",
                cfg.describe()
            );
        }
    }
}

#[test]
fn engines_agree_rrs_contended() {
    assert_engines_agree(config(2, &[2, 1, 1], (1, 5)), PolicyKind::RoundRobin, 0.03);
}

#[test]
fn engines_agree_rrs_saturating_sync() {
    assert_engines_agree(config(4, &[2, 4], (1, 2)), PolicyKind::RoundRobin, 0.04);
}

#[test]
fn engines_agree_scs() {
    assert_engines_agree(config(4, &[2, 3], (1, 5)), PolicyKind::StrictCo, 0.04);
}

#[test]
fn engines_agree_rcs() {
    assert_engines_agree(
        config(2, &[2, 1, 1], (1, 5)),
        PolicyKind::relaxed_co_default(),
        0.04,
    );
}

#[test]
fn engines_agree_balance_and_credit() {
    assert_engines_agree(config(3, &[2, 2], (1, 5)), PolicyKind::Balance, 0.04);
    assert_engines_agree(
        config(3, &[2, 2], (1, 5)),
        PolicyKind::credit_default(),
        0.04,
    );
}

/// The differential oracle from `vsched-check` judges a config/policy
/// pair with CI-aware per-column tolerances — the same verdict the fuzz
/// sweep applies, here pinned on named configurations for the policies
/// the fixed tests above do not cover.
fn assert_oracle_agrees(cfg: &SystemConfig, kind: &PolicyKind) {
    let failures = vsched_check::oracle::engines_agree(
        cfg,
        kind,
        1_000,
        10_000,
        99,
        5,
        &vsched_check::OracleOpts::default(),
    )
    .unwrap();
    assert!(failures.is_empty(), "{kind}: {failures:?}");
}

#[test]
fn oracle_engines_agree_credit() {
    assert_oracle_agrees(&config(2, &[2, 1], (1, 4)), &PolicyKind::credit_default());
    assert_oracle_agrees(
        &config(3, &[3, 1, 1], (1, 6)),
        &PolicyKind::Credit { refill_period: 25 },
    );
}

#[test]
fn oracle_engines_agree_sedf() {
    assert_oracle_agrees(&config(2, &[2, 1], (1, 4)), &PolicyKind::sedf_default());
    assert_oracle_agrees(
        &config(3, &[2, 2], (1, 5)),
        &PolicyKind::Sedf { period: 40 },
    );
}

#[test]
fn oracle_engines_agree_bvt() {
    assert_oracle_agrees(&config(2, &[2, 1], (1, 4)), &PolicyKind::bvt_default());
    assert_oracle_agrees(
        &config(4, &[3, 2], (1, 5)),
        &PolicyKind::Bvt { max_lag: 500 },
    );
}

/// Deterministic workloads remove all randomness except policy behaviour:
/// the engines must then agree almost exactly.
#[test]
fn engines_agree_exactly_without_randomness() {
    use vsched_core::{direct::DirectSim, san_model::SanSystem, VmSpec, WorkloadSpec};
    use vsched_des::Dist;

    let w = WorkloadSpec {
        load: Dist::deterministic(7.0).unwrap(),
        sync_probability: 0.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: None,
    };
    let mk = || {
        SystemConfig::builder()
            .pcpus(1)
            .vm_spec(VmSpec {
                vcpus: 1,
                workload: w.clone(),
                weight: 1,
            })
            .vm_spec(VmSpec {
                vcpus: 1,
                workload: w.clone(),
                weight: 1,
            })
            .build()
            .unwrap()
    };
    let mut direct = DirectSim::new(mk(), PolicyKind::RoundRobin.create(), 1);
    direct.run(5_000).unwrap();
    let mut san = SanSystem::new(mk(), PolicyKind::RoundRobin.create(), 1).unwrap();
    san.run(5_000).unwrap();
    let d = direct.metrics();
    let s = san.metrics();
    for (a, b) in d.to_observations().iter().zip(s.to_observations()) {
        assert!(
            (a - b).abs() < 1e-3,
            "deterministic run must match: {a} vs {b}\n direct {d:?}\n san {s:?}"
        );
    }
}

/// One observation seam on both engines: a timeline drawn from the
/// end-of-tick snapshots of a run without randomness is the same on SAN
/// and on DirectSim, and it tells the paper's three policies apart.
#[test]
fn engines_draw_identical_timelines() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use vsched_core::{observe::Timeline, Simulation, VmSpec, WorkloadSpec};
    use vsched_des::Dist;

    let w = WorkloadSpec {
        load: Dist::deterministic(5.0).unwrap(),
        sync_probability: 0.0,
        sync_mechanism: Default::default(),
        sync_every: None,
        interarrival: None,
    }
    .with_sync_every(3)
    .unwrap();
    let vm = |vcpus| VmSpec {
        vcpus,
        workload: w.clone(),
        weight: 1,
    };
    let cfg = SystemConfig::builder()
        .pcpus(4)
        .vm_spec(vm(2))
        .vm_spec(vm(4))
        .timeslice(12)
        .build()
        .unwrap();
    let draw = |engine, kind: &PolicyKind| {
        let timeline = Rc::new(RefCell::new(Timeline::new(100, 160)));
        let mut sim = Simulation::new(engine, cfg.clone(), kind.create(), 404).unwrap();
        sim.attach_observer(Box::new(Rc::clone(&timeline)));
        sim.run(160).unwrap();
        let lanes = timeline.borrow().render();
        lanes
    };
    let drawn: Vec<String> = PolicyKind::paper_trio()
        .iter()
        .map(|kind| {
            let direct = draw(Engine::Direct, kind);
            assert_eq!(draw(Engine::San, kind), direct, "{kind}");
            assert_eq!(direct.lines().count(), 6, "{direct}");
            direct
        })
        .collect();
    for (i, a) in drawn.iter().enumerate() {
        for b in &drawn[i + 1..] {
            assert_ne!(a, b, "two policies drew the same lanes");
        }
    }
}
