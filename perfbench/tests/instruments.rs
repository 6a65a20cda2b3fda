//! Tests of the benchmark's own instruments: the policy decorator, the
//! hand-driven trace replay, the decomposed campaign and the span ledger.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vsched_campaign::CellConfig;
use vsched_core::sched::{PolicyState, ViewFields};
use vsched_core::{Engine, PcpuView, ScheduleDecision, SchedulingPolicy, VcpuView};
use vsched_env::Scenario;
use vsched_perfbench::campaign::{write_spec, Campaign};
use vsched_perfbench::churn::{load, replay, Churn, ChurnParams, Sim};
use vsched_perfbench::harness::{
    layer_metrics, measure, median, observation_bits, Measurement, Workload,
};
use vsched_perfbench::ledger::{self_times, Ledger, SpanId, Tracer};
use vsched_perfbench::policy::{ParentSlot, TimedPolicy};
use vsched_perfbench::rcs;
use vsched_perfbench::report::{END_TO_END, PER_LAYER};
use vsched_perfbench::rollout::Rollout;
use vsched_trace::TraceReport;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A policy whose every method answers distinctively and checks the
/// arguments it is given.
struct Probe;

fn probe_state() -> PolicyState {
    PolicyState {
        global: vec![7, 11],
        ..PolicyState::default()
    }
}

fn probe_decision() -> ScheduleDecision {
    ScheduleDecision {
        preemptions: vec![3],
        assignments: Vec::new(),
    }
}

impl SchedulingPolicy for Probe {
    fn name(&self) -> &str {
        "probe"
    }

    fn schedule(
        &mut self,
        _: &[VcpuView],
        _: &[PcpuView],
        timestamp: u64,
        _: u64,
    ) -> ScheduleDecision {
        assert_eq!(timestamp, 42);
        probe_decision()
    }

    fn snapshot_view(&self) -> ViewFields {
        ViewFields::none()
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(probe_state())
    }

    fn load_state(&mut self, state: &PolicyState) -> bool {
        *state == probe_state()
    }

    fn rotation_equivariant(&self) -> bool {
        true
    }
}

#[test]
fn timed_policy_forwards_every_method_and_times_schedule() {
    let ledger = Arc::new(Ledger::default());
    let slot = Arc::new(ParentSlot::default());
    ledger.record("unit", None, |root| {
        slot.set(root);
        let mut timed = TimedPolicy::new(Box::new(Probe), Arc::clone(&ledger), Arc::clone(&slot));
        assert_eq!(timed.name(), "probe");
        assert_eq!(timed.schedule(&[], &[], 42, 30), probe_decision());
        assert_eq!(timed.snapshot_view(), ViewFields::none());
        assert_ne!(
            ViewFields::none(),
            ViewFields::all(),
            "the probe's answer is not the default"
        );
        assert_eq!(timed.save_state(), Some(probe_state()));
        assert!(timed.load_state(&probe_state()));
        assert!(!timed.load_state(&PolicyState::default()));
        assert!(timed.rotation_equivariant());
    });
    let spans = ledger.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].layer, "sched.call");
    assert_eq!(spans[1].parent, Some(SpanId(0)));
}

fn small_churn(engine: Engine) -> ChurnParams {
    ChurnParams {
        trace: repo().join("configs/traces/churn_small.jsonl"),
        engine,
        horizon: 600,
        seed: 9,
    }
}

fn front_door(p: &ChurnParams) -> TraceReport {
    p.experiment(load(&p.trace).unwrap()).run().unwrap()
}

#[test]
fn hand_driven_replay_matches_trace_experiment_on_both_engines() {
    for engine in [Engine::San, Engine::Direct] {
        let p = small_churn(engine);
        let schedule = load(&p.trace).unwrap();
        let mut sim = Sim::build(&schedule, engine, rcs().create(), p.seed).unwrap();
        let metrics = replay(&mut sim, &schedule, p.horizon, None, None).unwrap();
        assert_eq!(
            observation_bits(&metrics),
            observation_bits(&front_door(&p).samples[0]),
            "{engine:?}"
        );
    }
}

#[test]
fn timed_policy_leaves_fingerprints_unchanged() {
    for engine in [Engine::San, Engine::Direct] {
        let p = small_churn(engine);
        let schedule = load(&p.trace).unwrap();
        let ledger = Arc::new(Ledger::default());
        let slot = Arc::new(ParentSlot::default());
        let got = ledger.record("unit", None, |root| {
            slot.set(root);
            let timed = TimedPolicy::new(rcs().create(), Arc::clone(&ledger), Arc::clone(&slot));
            let mut sim = Sim::build(&schedule, engine, Box::new(timed), p.seed).unwrap();
            let tr = Tracer {
                ledger: &ledger,
                parent: root,
            };
            replay(&mut sim, &schedule, p.horizon, Some(tr), Some(&slot)).unwrap()
        });
        assert_eq!(
            observation_bits(&got),
            observation_bits(&front_door(&p).samples[0]),
            "{engine:?}"
        );
        let calls = ledger
            .spans()
            .iter()
            .filter(|s| s.layer == "sched.call")
            .count();
        assert_eq!(calls, 600, "{engine:?}: one decision per tick");
    }
}

/// The ledger criterion: the layers' self times account for at least
/// 90% of a traced unit's wall time (median over the traced units, so
/// that a preemption landing between two spans does not decide it).
fn assert_ledger_covers(m: &Measurement, what: &str) {
    assert!(m.errors.is_empty(), "{what}: {:?}", m.errors);
    assert_eq!(
        m.tally.failed, 0,
        "{what}: outputs differ from the reference"
    );
    assert!(!m.traced.is_empty(), "{what}: no traced unit");
    let mut coverage = Vec::new();
    for unit in &m.traced {
        let spans = unit.ledger.spans();
        let root = spans[0].secs();
        let total: f64 = self_times(&spans).iter().sum();
        assert!(
            (total - root).abs() < 1e-6 * root.max(1.0),
            "{what}: self times add up to the wall"
        );
        let metrics = layer_metrics(unit);
        for (name, _) in PER_LAYER {
            let run_level = matches!(
                *name,
                "env.episodes" | "tracing.overhead" | "host.speed" | "host.wall_s"
            );
            assert!(run_level || metrics.contains_key(name), "{what}: no {name}");
        }
        coverage.push(metrics["ledger.coverage"]);
    }
    assert!(median(&coverage) >= 0.9, "{what}: coverage {coverage:?}");
}

#[test]
fn churn_units_check_outputs_and_cover_the_wall() {
    for engine in [Engine::San, Engine::Direct] {
        let p = small_churn(engine);
        let mut w = Churn::new(p.clone(), Some(front_door(&p).fingerprint)).unwrap();
        assert_eq!(w.reference_tally.failed, 0);
        assert_ledger_covers(&measure(&mut w, 0.3, true), &format!("{engine:?}"));
        let wrong = Churn::new(p, Some(1)).unwrap();
        assert_eq!(
            wrong.reference_tally.failed, 1,
            "a wrong recorded fingerprint is a failure"
        );
    }
}

#[test]
fn decomposed_campaign_matches_run_sweep_and_covers_the_wall() {
    let dir = scratch("campaign");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("ci.sweep.json");
    write_spec(
        &repo().join("configs/ci.sweep.json"),
        &["ci_smoke"],
        0x5eed,
        &spec,
    )
    .unwrap();
    // The decomposed units compare their figures byte for byte with the
    // front door's; any difference is counted as failed.
    let mut w = Campaign::new(&spec, &dir.join("units"), 2, None).unwrap();
    assert_eq!(w.ops_per_unit(), 2);
    let m = measure(&mut w, 0.3, true);
    assert_ledger_covers(&m, "campaign");
    let units = (m.wall_s.len() + m.traced.len()) as u64;
    assert_eq!(m.tally.attempted, 2 * units, "two cells per unit");

    let recorded = dir.join("recorded");
    std::fs::create_dir_all(&recorded).unwrap();
    std::fs::write(recorded.join("ci_smoke.json"), "{}").unwrap();
    let wrong = Campaign::new(&spec, &dir.join("units2"), 2, Some(&recorded)).unwrap();
    assert_eq!(
        wrong.reference_tally.failed, 2,
        "a differing recorded figure fails its cells"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn env_episodes_match_the_monolithic_run_and_cover_the_wall() {
    let cell: CellConfig = serde_json::from_str(r#"{"pcpus": 2, "vms": [2, 1, 1]}"#).unwrap();
    let scenario = Scenario::new(cell.system().unwrap())
        .warmup(50)
        .horizon(1950);
    let mut w = Rollout::new(scenario, 3, None).unwrap();
    let m = measure(&mut w, 0.3, true);
    assert_ledger_covers(&m, "env");
    let metrics = layer_metrics(&m.traced[0]);
    assert_eq!(metrics["env.steps"], 2000.0);
    assert_eq!(metrics["sched.calls"], 2000.0);
    assert!(metrics["env.engine_s"] > 0.0);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let field = |key: &str| {
        doc.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json: no `{key}` list"))
            .iter()
            .map(|m| {
                let get = |k: &str| {
                    m.as_map()
                        .and_then(|e| e.iter().find(|(n, _)| n == k))
                        .and_then(|(_, v)| v.as_str())
                        .unwrap()
                        .to_string()
                };
                (get("name"), get("unit"))
            })
            .collect::<Vec<_>>()
    };
    let own = |t: &[(&str, &str)]| {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(field("end_to_end"), own(END_TO_END));
    assert_eq!(field("per_layer"), own(PER_LAYER));
}
