//! Golden-trace regression tier: the churn fixture's metrics are pinned
//! bit-for-bit, the readers round-trip byte-stably, and malformed traces
//! fail with typed, `path:line`-annotated errors.
//!
//! To re-bless after an intentional semantic change:
//! `VSCHED_BLESS=1 cargo test -p vsched-trace --test trace_golden`

use std::path::Path;

use vsched_core::{Engine, Fnv, PolicyKind, Simulation};
use vsched_trace::{
    load_standard, load_trace, read_azure_csv, read_standard, read_standard_str, replay,
    write_standard, TraceError, TraceExperiment, TraceMeta,
};

const FIXTURE_SMALL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../configs/traces/churn_small.jsonl"
);
const FIXTURE_CSV: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../configs/traces/lifetimes.csv"
);
const FIXTURE_1000: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../configs/traces/churn_1000vm.jsonl"
);
const SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/trace_churn.json"
);

#[derive(serde::Serialize)]
struct EngineSnapshot {
    fingerprint: String,
    mean_observations: Vec<f64>,
}

#[derive(serde::Serialize)]
struct Snapshot {
    schedule: String,
    direct: EngineSnapshot,
    san: EngineSnapshot,
}

fn golden_json() -> String {
    let schedule = load_standard(Path::new(FIXTURE_SMALL)).expect("fixture compiles");
    let run = |engine| {
        let r = TraceExperiment::new(schedule.clone(), PolicyKind::RoundRobin)
            .engine(engine)
            .horizon(600)
            .seed(7)
            .replications(2)
            .run()
            .unwrap();
        EngineSnapshot {
            fingerprint: format!("{:016x}", r.fingerprint),
            mean_observations: r.mean_observations(),
        }
    };
    let snapshot = Snapshot {
        schedule: schedule.describe(),
        direct: run(Engine::Direct),
        san: run(Engine::San),
    };
    let mut s = serde_json::to_string_pretty(&snapshot).expect("report serializes");
    s.push('\n');
    s
}

#[test]
fn churn_fixture_metrics_match_snapshot() {
    let actual = golden_json();
    if std::env::var_os("VSCHED_BLESS").is_some() {
        std::fs::write(SNAPSHOT, &actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(SNAPSHOT)
        .expect("snapshot missing: run with VSCHED_BLESS=1 to create it");
    assert_eq!(
        actual, expected,
        "churn-trace metrics drifted from the golden snapshot; \
         if intentional, re-bless with VSCHED_BLESS=1"
    );
}

#[test]
fn standard_fixture_round_trips_byte_stably() {
    let (meta, events) = read_standard(Path::new(FIXTURE_SMALL)).unwrap();
    let raw: Vec<_> = events.iter().map(|(_, e)| e.clone()).collect();
    let text = write_standard(&meta, &raw);
    let (meta2, events2) = read_standard_str(&text, "round-trip").unwrap();
    assert_eq!(meta2, meta);
    let raw2: Vec<_> = events2.into_iter().map(|(_, e)| e).collect();
    assert_eq!(raw2, raw);
    assert_eq!(write_standard(&meta2, &raw2), text);
}

#[test]
fn azure_fixture_compiles_and_loads_by_extension() {
    let events = read_azure_csv(Path::new(FIXTURE_CSV)).unwrap();
    assert_eq!(events.len(), 8 + 4, "8 arrivals, 4 departures");
    let schedule = load_trace(Path::new(FIXTURE_CSV), &TraceMeta::new(8)).unwrap();
    assert_eq!(schedule.vm_names().len(), 8);
    assert_eq!(
        schedule.initially_present().iter().filter(|&&p| p).count(),
        3
    );
    assert_eq!(schedule.end_time(), 900);
}

#[test]
fn churn_1000vm_fixture_compiles_at_scale() {
    let schedule = load_standard(Path::new(FIXTURE_1000)).expect("1000-VM fixture compiles");
    assert_eq!(schedule.vm_names().len(), 1000);
    assert_eq!(schedule.config().pcpus(), 256);
    assert!(
        schedule.events().len() > 1000,
        "churn events survived compilation: {}",
        schedule.events().len()
    );
}

/// The only tier-1 run of RCS on the 1000-VM union topology: the first
/// 400 ticks of the churn fixture, one replication, pinned to the
/// fingerprints `perfbench/references.json` records for the
/// `churn_direct` and `churn_san` workloads. The SAN run also pins its
/// exact work, the `san.completions` and `san.aborts` perfbench reports
/// and the reevaluation visits behind them: an engine change that keeps
/// every metric bit can still not change how many activities complete,
/// abort or get reevaluated on the way.
#[test]
fn churn_1000vm_prefix_matches_benchmark_references() {
    let schedule = load_standard(Path::new(FIXTURE_1000)).expect("1000-VM fixture compiles");
    let replicate = |engine| {
        let mut sim = Simulation::new_dynamic(
            engine,
            schedule.config().clone(),
            PolicyKind::relaxed_co_default().create(),
            0x5eed,
        )
        .unwrap();
        replay(&mut sim, &schedule, 0, 400).unwrap();
        let mut fingerprint = Fnv::new();
        for x in sim.metrics().to_observations() {
            fingerprint.push(x.to_bits());
        }
        (format!("{:016x}", fingerprint.finish()), sim)
    };
    let (direct, _) = replicate(Engine::Direct);
    assert_eq!(direct, "2cf1a52a4003d7c5");
    let (san, sim) = replicate(Engine::San);
    assert_eq!(san, "1cab7ed7e08d2d36");
    let Simulation::San(s) = &sim else {
        panic!("a SAN build")
    };
    let stats = s.simulator().stats();
    assert_eq!(
        (stats.completions, stats.aborts, stats.visits),
        (1_825_892, 176, 1_826_693)
    );
}

#[test]
fn malformed_traces_fail_with_typed_annotated_errors() {
    let header = "{\"meta\":{\"pcpus\":2}}\n";

    // Bad timestamp type → parse error naming the line.
    let text = format!("{header}{{\"time\":-5,\"vm\":\"a\",\"depart\":true}}\n");
    let err = read_standard_str(&text, "bad.jsonl").unwrap_err();
    assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
    assert!(err.to_string().contains("bad.jsonl:2"), "{err}");

    let compile = |body: &str| -> TraceError {
        let text = format!("{header}{body}");
        let (meta, events) = read_standard_str(&text, "bad.jsonl").unwrap();
        vsched_trace::TraceSchedule::compile(&meta, &events, "bad.jsonl").unwrap_err()
    };

    // Out-of-order events.
    let err = compile(
        "{\"time\":10,\"vm\":\"a\",\"arrive\":{\"vcpus\":1}}\n\
         {\"time\":3,\"vm\":\"b\",\"arrive\":{\"vcpus\":1}}\n",
    );
    assert!(
        matches!(err, TraceError::OutOfOrder { line: 3, .. }),
        "{err}"
    );
    assert!(err.to_string().contains("bad.jsonl:3"), "{err}");

    // Unknown VM id.
    let err = compile("{\"time\":0,\"vm\":\"ghost\",\"set_load\":500}\n");
    assert!(
        matches!(err, TraceError::UnknownVm { line: 2, .. }),
        "{err}"
    );

    // Departure before arrival.
    let err = compile("{\"time\":0,\"vm\":\"a\",\"depart\":true}\n");
    assert!(
        matches!(
            err,
            TraceError::UnknownVm { .. } | TraceError::DepartureBeforeArrival { .. }
        ),
        "{err}"
    );
    let err = compile(
        "{\"time\":0,\"vm\":\"a\",\"arrive\":{\"vcpus\":1}}\n\
         {\"time\":5,\"vm\":\"a\",\"depart\":true}\n\
         {\"time\":9,\"vm\":\"a\",\"depart\":true}\n",
    );
    assert!(
        matches!(err, TraceError::DepartureBeforeArrival { line: 4, .. }),
        "{err}"
    );
    assert!(err.to_string().contains("bad.jsonl:4"), "{err}");

    // Two actions in one record.
    let err = compile("{\"time\":0,\"vm\":\"a\",\"arrive\":{\"vcpus\":1},\"depart\":true}\n");
    assert!(
        matches!(err, TraceError::BadRecord { line: 2, .. }),
        "{err}"
    );
}
