//! Parallel determinism of the core experiment runner: any `jobs` value —
//! including the inline `jobs(1)` path — must produce **bit-identical**
//! reports, because replication seeds derive purely from the replication
//! index and observations merge into the stopping rule in ascending order.

use vsched_core::{Engine, ExperimentBuilder, MetricsReport, PolicyKind, SystemConfig};
use vsched_stats::StoppingRule;

mod common;

fn config() -> SystemConfig {
    common::config_sync(2, &[2, 1], (1, 5))
}

fn builder(engine: Engine) -> ExperimentBuilder {
    ExperimentBuilder::new(config(), PolicyKind::RoundRobin)
        .engine(engine)
        .warmup(100)
        .horizon(1_500)
}

/// Bit-level equality of two experiment reports.
fn assert_bit_identical(a: &MetricsReport, b: &MetricsReport) {
    assert_eq!(a.replications, b.replications);
    let cis = |r: &MetricsReport| {
        r.vcpu_availability
            .iter()
            .chain(&r.vcpu_utilization)
            .chain(&r.pcpu_utilization)
            .flat_map(|ci| [ci.mean.to_bits(), ci.half_width.to_bits()])
            .collect::<Vec<u64>>()
    };
    assert_eq!(cis(a), cis(b), "confidence intervals differ at bit level");
}

#[test]
fn exact_count_jobs_invariant() {
    let one_worker = builder(Engine::Direct)
        .replications_exact(8)
        .jobs(1)
        .run()
        .unwrap();
    let four_workers = builder(Engine::Direct)
        .replications_exact(8)
        .jobs(4)
        .run()
        .unwrap();
    let auto = builder(Engine::Direct)
        .replications_exact(8)
        .jobs(0)
        .run()
        .unwrap();
    assert_bit_identical(&one_worker, &four_workers);
    assert_bit_identical(&one_worker, &auto);
}

#[test]
fn converged_jobs_invariant() {
    let rule = StoppingRule::new(0.95, 0.05)
        .with_min_replications(3)
        .with_max_replications(15);
    let one_worker = builder(Engine::Direct)
        .horizon(2_000)
        .stopping_rule(rule)
        .jobs(1)
        .run()
        .unwrap();
    let four_workers = builder(Engine::Direct)
        .horizon(2_000)
        .stopping_rule(rule)
        .jobs(4)
        .run()
        .unwrap();
    assert_eq!(one_worker.replications, four_workers.replications);
    assert_bit_identical(&one_worker, &four_workers);
}

#[test]
fn san_engine_jobs_invariant() {
    let one_worker = builder(Engine::San)
        .horizon(800)
        .replications_exact(4)
        .jobs(1)
        .run()
        .unwrap();
    let four_workers = builder(Engine::San)
        .horizon(800)
        .replications_exact(4)
        .jobs(4)
        .run()
        .unwrap();
    assert_bit_identical(&one_worker, &four_workers);
}

#[test]
fn seed_change_changes_results() {
    let report = |seed: u64| {
        builder(Engine::Direct)
            .replications_exact(6)
            .seed(seed)
            .jobs(4)
            .run()
            .unwrap()
    };
    let a = report(1);
    let b = report(2);
    let bits = |r: &MetricsReport| {
        r.vcpu_availability
            .iter()
            .chain(&r.vcpu_utilization)
            .chain(&r.pcpu_utilization)
            .map(|ci| ci.mean.to_bits())
            .collect::<Vec<u64>>()
    };
    assert_ne!(bits(&a), bits(&b), "different seeds must change results");
}
