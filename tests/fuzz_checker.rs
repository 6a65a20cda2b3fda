//! Fuzz tier: the `vsched-check` subsystem hunting real and planted bugs.
//!
//! Three claims are exercised end to end:
//!
//! 1. the invariant checker **catches planted scheduler bugs** — a
//!    deliberately broken Strict Co-Scheduling variant that starts
//!    partial gangs trips the gang-atomicity invariant within a few
//!    hundred ticks (while real SCS sails through the same check);
//! 2. a short fuzz sweep with the **full oracle** (invariants,
//!    engine-vs-engine differential, parallel determinism, metamorphic
//!    relations) is clean on the healthy engines;
//! 3. **reproducers replay bit-identically**: a failure written to disk
//!    and replayed twice produces equal outcomes, down to the report
//!    digest.

use std::cell::RefCell;
use std::rc::Rc;

use vsched_check::fuzz::replay;
use vsched_check::oracle::FailureKind;
use vsched_check::{run_fuzz, FuzzOpts, InvariantChecker, OracleOpts};
use vsched_core::direct::DirectSim;
use vsched_core::sched::{ScheduleDecision, SchedulingPolicy};
use vsched_core::{CoreError, PcpuView, PolicyKind, SystemConfig, VcpuView};

/// Strict co-scheduling with the co-start gate removed: it assigns any
/// INACTIVE gang member to any idle PCPU, so a gang can start (and stop)
/// piecemeal — exactly the bug SCS exists to prevent.
#[derive(Default)]
struct BrokenScs;

impl SchedulingPolicy for BrokenScs {
    fn name(&self) -> &str {
        "broken-scs"
    }

    fn schedule(
        &mut self,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
        timestamp: u64,
        default_timeslice: u64,
    ) -> ScheduleDecision {
        let mut decision = ScheduleDecision::none();
        let mut idle: Vec<usize> = pcpus.iter().filter(|p| p.is_idle()).map(|p| p.id).collect();
        // Rotating start index — "fairness" that hands PCPUs to whichever
        // VCPUs come first, siblings or not.
        let n = vcpus.len();
        for i in 0..n {
            let v = &vcpus[(timestamp as usize + i) % n];
            if v.is_schedulable() {
                if let Some(pcpu) = idle.pop() {
                    decision.assign(v.id.global, pcpu, default_timeslice);
                }
            }
        }
        decision
    }
}

fn gang_config() -> SystemConfig {
    // 2 PCPUs, a 2-VCPU VM and a 1-VCPU VM: only one of the three VCPUs
    // can wait at a time, so a greedy scheduler is forced to split the
    // gang almost immediately.
    SystemConfig::builder()
        .pcpus(2)
        .vm(2)
        .vm(1)
        .timeslice(5)
        .sync_ratio(1, 4)
        .build()
        .unwrap()
}

#[test]
fn checker_catches_a_broken_scs_policy() {
    let config = gang_config();
    let ck = Rc::new(RefCell::new(
        InvariantChecker::new(&config).expect_gang_atomicity(),
    ));
    let mut sim = DirectSim::new(config, Box::new(BrokenScs), 7);
    sim.attach_observer(Box::new(Rc::clone(&ck)));
    let err = sim
        .run(500)
        .expect_err("partial gang starts must be caught");
    match err {
        CoreError::InvariantViolation {
            invariant, tick, ..
        } => {
            assert_eq!(invariant, "gang-atomicity");
            assert!(tick >= 1);
            assert_eq!(ck.borrow().ticks_checked() + 1, tick);
        }
        other => panic!("expected a gang-atomicity violation, got {other}"),
    }
}

#[test]
fn real_scs_passes_the_same_check() {
    let config = gang_config();
    let ck = Rc::new(RefCell::new(InvariantChecker::for_policy(
        &config,
        &PolicyKind::StrictCo,
    )));
    let mut sim = DirectSim::new(config, PolicyKind::StrictCo.create(), 7);
    sim.attach_observer(Box::new(Rc::clone(&ck)));
    sim.run(500).unwrap();
    assert_eq!(ck.borrow().ticks_checked(), 500);
}

#[test]
fn full_oracle_fuzz_sweep_is_clean() {
    let report = run_fuzz(&FuzzOpts {
        cases: 12,
        seed: 42,
        jobs: None,
        reproducer_dir: None,
        oracle: OracleOpts::default(),
    })
    .unwrap();
    assert!(
        report.clean(),
        "healthy engines must survive the full oracle: {:#?}",
        report.failures
    );
    assert_eq!(
        report.summary(),
        "fuzz: 12 cases, 0 lint findings, 0 invariant violations, \
         0 differential mismatches, 0 metamorphic mismatches, \
         0 incremental divergences, 0 env divergences, \
         0 trace divergences, 0 errors"
    );
}

#[test]
fn reproducers_replay_bit_identically() {
    let dir = std::env::temp_dir().join(format!("vsched-fuzz-repro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // An impossible tolerance turns every differential comparison into a
    // "failure", exercising the shrink + reproducer path on healthy
    // engines without having to plant a bug inside them.
    let impossible = OracleOpts {
        tol_floor: -1.0,
        ci_factor: 0.0,
        check_invariants: false,
        check_parallel_determinism: false,
        check_metamorphic: false,
        // The trace verdict shares compare_reports, so the impossible
        // tolerance would drown the Differential-only assertion below
        // in Trace failures for traced cases.
        check_trace: false,
        ..OracleOpts::default()
    };
    let report = run_fuzz(&FuzzOpts {
        cases: 2,
        seed: 42,
        jobs: Some(1),
        reproducer_dir: Some(dir.clone()),
        oracle: impossible.clone(),
    })
    .unwrap();
    assert_eq!(report.failures.len(), 2);
    assert!(report.differential_mismatches > 0);
    assert!(report.failures.iter().all(|f| f
        .outcome
        .failures
        .iter()
        .all(|x| x.kind == FailureKind::Differential)));

    let path = report.failures[0]
        .reproducer
        .clone()
        .expect("reproducer written");
    assert!(path.exists());

    // Replays recompute the outcome from the file alone; two replays (and
    // the recorded shrunk outcome) must agree exactly, digest included.
    let first = replay(&path, &impossible).unwrap();
    let second = replay(&path, &impossible).unwrap();
    assert_eq!(first, second);
    assert_eq!(first.digest, report.failures[0].outcome.digest);
    assert_eq!(
        first.failures.len(),
        report.failures[0].outcome.failures.len()
    );

    // The same file judged by sane tolerances is clean — the failure
    // lived in the oracle options, not the engines.
    let sane = replay(&path, &OracleOpts::default()).unwrap();
    assert!(sane.passed(), "{:?}", sane.failures);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_of_a_bad_path_is_a_typed_error() {
    let err = replay(
        std::path::Path::new("/nonexistent/vsched/case-0.json"),
        &OracleOpts::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("case-0.json"));
}
