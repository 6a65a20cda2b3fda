//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Run from the root of a checkout. Prints a summary on stderr and, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 1 when any output differs
//! from its reference, 2 on a usage error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vsched_campaign::CellConfig;
use vsched_core::Engine;
use vsched_env::Scenario;
use vsched_perfbench::calibrate::Probe;
use vsched_perfbench::campaign::{write_spec, Campaign};
use vsched_perfbench::churn::{Churn, ChurnParams};
use vsched_perfbench::harness::{layer_metrics, measure, median, peak_rss_mib, Tally, Workload};
use vsched_perfbench::ledger::write_spans;
use vsched_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use vsched_perfbench::rollout::Rollout;

/// The seed whose outputs `references.json` records (the repo's
/// default replication seed, `0x5eed`).
const DEFAULT_SEED: u64 = 0x5eed;

const WORKLOADS: [&str; 4] = ["paper_campaign", "churn_san", "churn_direct", "env_rollout"];

const USAGE: &str =
    "usage: perfbench --workload paper_campaign|churn_san|churn_direct|env_rollout \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload `{}`", args.workload));
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The default-seed references recorded in `perfbench/references.json`.
struct References(serde_json::Value);

impl References {
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text)
            .map(References)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_str())
            .ok_or_else(|| format!("references.json: no string `{key}`"))
    }

    fn fingerprint(&self, key: &str) -> Result<u64, String> {
        let hex = self.get(key)?;
        u64::from_str_radix(hex, 16).map_err(|e| format!("references.json `{key}`: {e}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let bench = root.join("perfbench");
    let refs = References::load(&bench.join("references.json"))?;
    let default_seed = args.seed == DEFAULT_SEED;
    let scratch = Scratch(bench.join("tmp").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    match args.workload.as_str() {
        "paper_campaign" => {
            let spec = scratch.0.join("paper_campaign.sweep.json");
            write_spec(
                &root.join("configs/paper.sweep.json"),
                &["fig8_fairness", "abl_timeslice"],
                args.seed,
                &spec,
            )?;
            let recorded = if default_seed {
                Some(root.join(refs.get("paper_campaign")?))
            } else {
                None
            };
            let mut w = Campaign::new(
                &spec,
                &scratch.0.join("units"),
                2.min(cores),
                recorded.as_deref(),
            )?;
            let reference = w.reference_tally;
            bench_workload(&mut w, reference, args, &bench)
        }
        name @ ("churn_san" | "churn_direct") => {
            let params = ChurnParams {
                trace: root.join("configs/traces/churn_1000vm.jsonl"),
                engine: if name == "churn_san" {
                    Engine::San
                } else {
                    Engine::Direct
                },
                horizon: 400,
                seed: args.seed,
            };
            let recorded = if default_seed {
                Some(refs.fingerprint(name)?)
            } else {
                None
            };
            let mut w = Churn::new(params, recorded)?;
            let reference = w.reference_tally;
            bench_workload(&mut w, reference, args, &bench)
        }
        "env_rollout" => {
            let cell: CellConfig =
                serde_json::from_str(r#"{"pcpus": 2, "vms": [2, 1, 1], "sync_ratio": [1, 5]}"#)
                    .map_err(|e| e.to_string())?;
            let config = cell.system().map_err(|e| e.to_string())?;
            let scenario = Scenario::new(config)
                .engine(Engine::San)
                .warmup(1_000)
                .horizon(20_000);
            let recorded = if default_seed {
                Some(refs.fingerprint("env_rollout")?)
            } else {
                None
            };
            let mut w = Rollout::new(scenario, args.seed, recorded)?;
            let reference = w.reference_tally;
            bench_workload(&mut w, reference, args, &bench)
        }
        _ => unreachable!("parse_args accepts only the four workload names"),
    }
}

fn bench_workload<W: Workload>(
    w: &mut W,
    reference: Tally,
    args: &Args,
    bench: &Path,
) -> Result<bool, String> {
    let m = measure(w, args.seconds, args.trace);
    let mut tally = reference;
    tally.add(m.tally);
    for e in &m.errors {
        eprintln!("error: {e}");
    }
    let correct = tally.failed == 0 && m.errors.is_empty() && !m.wall_s.is_empty();

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let units: Vec<BTreeMap<&str, f64>> = m.traced.iter().map(layer_metrics).collect();
        let overhead = median(&m.traced.iter().map(|u| u.wall_s).collect::<Vec<_>>())
            / median(&m.wall_s)
            - 1.0;
        if let Some(first) = m.traced.first() {
            let dir = bench.join("out");
            let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|mut f| write_spans(&mut f, &first.ledger.spans()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "env.episodes" => units.iter().filter(|u| u["env.steps"] > 0.0).count() as f64,
                    "tracing.overhead" => overhead,
                    "host.speed" => median(&m.speed),
                    "host.wall_s" => median(&m.wall_s),
                    _ => median(&units.iter().map(|u| u[name]).collect::<Vec<_>>()),
                };
                (name, value, unit)
            })
            .collect()
    } else {
        // Host seconds times host speed: seconds at reference speed. An
        // env episode is scaled by the speed read around it, since
        // whether its two threads share a CPU changes from episode to
        // episode; a compute phase, and every set-up, by the run's
        // median speed, since the few readings around one phase vary
        // more than the phase does.
        let speed = median(&m.speed);
        let unit_s: Vec<f64> = match w.probe() {
            Probe::Handoff => m.wall_s.iter().zip(&m.speed).map(|(w, s)| w * s).collect(),
            Probe::Compute(_) => m.wall_s.iter().map(|w| w * speed).collect(),
        };
        let rates: Vec<f64> = m
            .ticks
            .iter()
            .zip(&unit_s)
            .map(|(&t, &u)| t as f64 / u)
            .collect();
        let values = [
            median(&m.setup_s) * speed,
            median(&unit_s),
            median(&rates),
            peak_rss_mib()?,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };

    eprintln!(
        "{} seed {}: {} unit(s), {} set-up(s), {} traced; attempted {}, failed {}",
        args.workload,
        args.seed,
        m.wall_s.len(),
        m.setup_s.len(),
        m.traced.len(),
        tally.attempted,
        tally.failed
    );
    let walls: Vec<String> = m.wall_s.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!("  timed phases (host s): {}", walls.join(" "));
    let speeds: Vec<String> = m.speed.iter().map(|s| format!("{s:.2}")).collect();
    eprintln!("  host speed: {}", speeds.join(" "));
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<26} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    Ok(correct)
}
