//! The trace frontend's anchor property: a **degenerate trace** — every
//! VM arrives at tick 0 with full constant demand and never departs — is
//! **bit-identical** to running the equivalent fixed topology through
//! `ExperimentBuilder`, on both engines, at any `--jobs`. This pins the dynamic machinery (admission places, duty-cycle
//! gates, rate multipliers) as an exact no-op at the identity marking,
//! so every static result in the repo is unchanged by the trace tier.

use proptest::prelude::*;
use vsched_core::{Engine, ExperimentBuilder, PolicyKind, SampleMetrics};
use vsched_trace::{RawEvent, TraceExperiment, TraceMeta, TraceSchedule, VmShape};

const WARMUP: u64 = 60;
const HORIZON: u64 = 200;
const SEED: u64 = 0xfeed;

fn degenerate_schedule(pcpus: usize, vm_sizes: &[usize]) -> TraceSchedule {
    let events: Vec<RawEvent> = vm_sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| RawEvent::arrive(0, format!("vm{i}"), VmShape::new(n)))
        .collect();
    let s = TraceSchedule::from_events(&TraceMeta::new(pcpus), &events).unwrap();
    assert!(s.is_static());
    s
}

fn bits(m: &SampleMetrics) -> Vec<u64> {
    m.to_observations().iter().map(|x| x.to_bits()).collect()
}

fn assert_identity(engine: Engine, pcpus: usize, vm_sizes: &[usize], policy: PolicyKind) {
    let schedule = degenerate_schedule(pcpus, vm_sizes);
    let static_builder = ExperimentBuilder::new(schedule.config().clone(), policy.clone())
        .engine(engine)
        .warmup(WARMUP)
        .horizon(HORIZON)
        .seed(SEED);
    let traced = TraceExperiment::new(schedule, policy)
        .engine(engine)
        .warmup(WARMUP)
        .horizon(HORIZON)
        .seed(SEED);

    for rep in 0..2u64 {
        let s = static_builder.run_replication(rep).unwrap();
        let t = traced.run_replication(rep).unwrap();
        assert_eq!(
            bits(&s),
            bits(&t),
            "engine {engine:?} rep {rep}: traced run drifted from the static path"
        );
    }

    // The full replicated run is jobs-independent, fingerprint-exact.
    let baseline = traced
        .clone()
        .replications(3)
        .parallel(false)
        .run()
        .unwrap();
    for jobs in [1usize, 2, 4] {
        let r = traced.clone().replications(3).jobs(jobs).run().unwrap();
        assert_eq!(
            baseline.fingerprint, r.fingerprint,
            "engine {engine:?} jobs {jobs}: fingerprint changed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random topologies: the degenerate trace is byte-identical to the
    /// fixed topology on the Direct engine.
    #[test]
    fn static_trace_is_bit_identical_to_fixed_topology_direct(
        pcpus in 1usize..4,
        vm_sizes in proptest::collection::vec(1usize..4, 1..4),
    ) {
        assert_identity(Engine::Direct, pcpus, &vm_sizes, PolicyKind::RoundRobin);
    }

    /// Same property on the SAN engine (dynamic build mode vs the static
    /// model).
    #[test]
    fn static_trace_is_bit_identical_to_fixed_topology_san(
        pcpus in 1usize..3,
        vm_sizes in proptest::collection::vec(1usize..3, 1..3),
    ) {
        assert_identity(Engine::San, pcpus, &vm_sizes, PolicyKind::RoundRobin);
    }
}

/// The paper's Figure-8 topology under every gang-ish policy, both
/// engines — a fixed, always-run instance of the property.
#[test]
fn paper_topology_identity_all_policies() {
    for policy in [
        PolicyKind::RoundRobin,
        PolicyKind::StrictCo,
        PolicyKind::Balance,
    ] {
        assert_identity(Engine::Direct, 2, &[2, 1, 1], policy.clone());
        assert_identity(Engine::San, 2, &[2, 1, 1], policy);
    }
}
