//! The `vsched` command: run VCPU-scheduling experiments from JSON configs.
//!
//! ```text
//! vsched run <config.json> [--out results.json] [--jobs N]
//! vsched trace <validate|describe|head|run> <trace> [--pcpus N] [...]
//! vsched sweep <spec.json> [--store DIR] [--out-dir DIR] [...]
//! vsched fuzz [--cases N] [--seed S] [--jobs N] [--reproducer-dir DIR]
//! vsched fuzz --replay <case.json>
//! vsched verify [--policy LABEL] [--horizon N] [--fixture deadlock]
//! vsched lint [<config.json>...] [--deny warnings] [--format json]
//! vsched perf [--out BENCH_perf.json] [--ticks N] [--baseline FILE]
//! vsched tournament [--configs DIR] [--agent CMD] [--policies LIST]
//! vsched env <config.json> [--socket PATH | --agent CMD]
//! vsched policies                                 list the policy registry
//! vsched example                                  print a starter config
//! vsched help                                     this message
//! ```
//!
//! Every subcommand parses its flags with [`vsched_cli::args::Args`] and
//! returns its exit code or an error, which `main` prints once.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use vsched_analyze::AnalyzeOpts;
use vsched_campaign::fsio::{read_file, write_atomic};
use vsched_campaign::{run_sweep, SweepOptions, STDOUT};
use vsched_check::{run_fuzz, FuzzOpts};
use vsched_cli::args::Args;
use vsched_cli::output::{render_report, report_to_json};
use vsched_cli::{env_scenario, is_sweep_spec, ExperimentConfig, PolicySpec};
use vsched_core::Engine;

/// A subcommand's outcome: its exit code, or an error `main` reports.
type CmdResult = Result<ExitCode, Box<dyn Error>>;

const HELP: &str = "\
vsched — simulate and compare VCPU scheduling algorithms

USAGE:
    vsched run <config.json> [--out <results.json>] [--jobs <N>]
    vsched trace validate <trace> [--pcpus <N>]
    vsched trace describe <trace> [--pcpus <N>]
    vsched trace head <trace> [--pcpus <N>] [--events <N>]
    vsched trace run <trace> [--pcpus <N>] [--policy <label>]
                 [--engine <direct|san>] [--warmup <N>] [--horizon <N>]
                 [--seed <S>] [--replications <N>] [--jobs <N>]
                 [--out <results.json>]
    vsched sweep <spec.json> [--store <dir>] [--out-dir <dir>] [--jobs <N>]
                 [--only <experiment>] [--max-cells <N>] [--dry-run] [--quiet]
    vsched fuzz [--cases <N>] [--seed <S>] [--jobs <N>]
                [--reproducer-dir <dir>]
    vsched fuzz --replay <case.json>
    vsched verify [--policy <label>] [--vms <N>] [--vcpus <N>] [--pcpus <N>]
                  [--timeslice <N>] [--horizon <N>] [--max-states <N>]
                  [--seed <S>] [--format <text|json>]
                  [--fixture deadlock] [--counterexample <case.json>]
    vsched lint [<config.json>...] [--deny warnings] [--format <text|json>]
                [--seed <S>] [--fixture broken]
    vsched perf [--out <report.json>] [--ticks <N>] [--repeats <N>]
                [--seed <S>] [--baseline <report.json>] [--max-regression <X>]
                [--max-vms <N>] [--commit <hash>] [--format <text|json>]
    vsched tournament [--configs <dir>] [--store <dir>] [--out <report.json>]
                      [--policies <l1,l2,...>] [--agent <cmd>]...
                      [--fuzz-scenarios <N>] [--fuzz-seed <S>]
                      [--warmup <N>] [--horizon <N>] [--replications <N>]
                      [--seed <S>] [--timeout <secs>] [--jobs <N>] [--quiet]
    vsched env <config.json> [--socket <path> | --agent <cmd>]
                [--name <label>] [--seed <S>] [--timeout <secs>]
                [--warmup <N>] [--horizon <N>]
    vsched policies
    vsched example
    vsched help

COMMANDS:
    run       Simulate the experiment described by a JSON config file and
              print a comparison of the configured policies. With a
              `trace` field the run is trace-driven: VMs arrive, depart
              and change load level as the trace dictates.
    trace     Work with workload traces — timestamped VM arrival,
              departure and load-level events in the standard JSON-lines
              format (`.jsonl`, self-describing header) or Azure-style
              lifetime CSV (`.csv`, platform supplied with --pcpus).
              `validate` compiles the trace and reports the first typed
              `path:line` error; `describe` prints the compiled shape;
              `head` prints the first events in standard form (CSV rows
              are converted); `run` replays the trace under one policy
              and prints the metrics plus an order-independent run
              fingerprint — bit-identical for every --jobs, so
              two runs can be diffed to prove determinism.
    sweep     Run a declarative campaign: expand the spec's experiment
              grids into cells, simulate whatever the content-addressed
              result store is missing (crash-safe and resumable — re-run
              after a kill to complete only the remaining cells), and
              render each experiment's figure.
    fuzz      Hunt scheduler bugs: generate random scenarios and judge
              each with the vsched-check oracle — runtime invariants on
              both engines, engine-vs-engine differential comparison,
              parallel-determinism and metamorphic relations. Failures
              are shrunk and written as replayable JSON reproducers.
    verify    Model-check the paper model exhaustively: enumerate every
              reachable SAN state up to a tick horizon (all instantaneous
              interleavings, every positive-weight case) and prove named
              certificates — the runtime seven-invariant catalogue on
              every reachable edge, deadlock-freedom, exact per-place
              token bounds (reported alongside the structural semiflow
              bounds), and exact activity liveness. Violations come with
              concrete firing traces packaged as fuzz reproducers:
              `vsched fuzz --replay` re-fires the trace bit-exactly and
              re-runs the scenario on both engines. Exits 0 when
              everything is proved, 1 on a violation, 2 when the search
              was cut short (state cap) and nothing is claimed.
    lint      Statically analyze SAN models and policies before running
              anything: extract the incidence matrix, compute P-/T-
              invariants by exact rational elimination, check the model's
              declared conservation laws as named certificates, and flag
              structural defects (dead activities, non-conserving gates,
              instantaneous confusion) and policy-contract breaches. With
              no arguments, lints the paper model under its policy trio;
              with config or sweep-spec files, lints every distinct
              (system, policy) cell they describe.
    tournament
              Rank scheduling policies against each other: every registered
              built-in (plus any external `--agent` processes speaking the
              vsched-env JSON-lines protocol) plays every scenario in the
              corpus — the lint-clean run configs under `--configs` plus a
              batch of fuzz-generated scenarios — and is ranked on the
              paper's three metrics. Built-in results go through the
              content-addressed store, so a warm re-run simulates nothing;
              agent faults forfeit the scenario but never abort the run.
    env       Host one experiment as a gym-style environment. By default
              serves the JSON-lines protocol on stdin/stdout (an agent
              process connects the other way around); `--socket` serves one
              connection on a Unix socket instead, and `--agent` flips the
              hosting direction: vsched spawns the agent, plays one episode
              against it, and prints the resulting metrics.
    policies  List the policy registry: every built-in algorithm with its
              config-file label and the observation fields it reads.
    perf      Time the SAN engine's incremental reevaluation core against
              its full-rescan reference mode across a model-size scaling
              axis (1 to 16 VMs), verify both modes end bit-identical,
              and report events/sec and speedup per size, with DirectSim's
              ns per tick on the same configs; then time the
              large-model scale axis (64/256/1024 VMs) on the SAN engine
              and on DirectSim and report each run's real-time factor
              (simulated seconds per wall second at 30 ms per tick), plus
              the SAN engine's cost per completion and DirectSim's cost
              per VCPU-tick. With a baseline report, exit non-zero on a
              large throughput regression.
    example   Print a commented starter config to stdout.

OPTIONS (run):
    --out <path>   Also write results (with the config) as JSON.
    --jobs <N>     Replication worker threads (default: one per core;
                   overrides the config's `jobs` field). Results are
                   bit-identical for every N.

OPTIONS (trace):
    --pcpus <N>        Platform size for CSV traces, which carry none.
                       Standard-format traces carry their own and reject
                       the flag.
    --events <N>       (head) Events to print (default 10).
    --policy <label>   (run) Scheduling policy (default rrs).
    --engine <name>    (run) `direct` (default) or `san`.
    --warmup <N>       (run) Warm-up ticks; the trace clock is absolute,
                       so events inside warmup still apply (default 0).
    --horizon <N>      (run) Observed ticks after warmup (default: last
                       event time + 1000).
    --seed <S>         (run) Base seed; replication r uses S + r
                       (default 0x5eed).
    --replications <N> (run) Replications (default 3, at least 2).
    --jobs <N>         (run) Replication worker threads (default: one per
                       core). Results are bit-identical for every N.
    --out <path>       (run) Also write the report as JSON.

OPTIONS (sweep):
    --store <dir>      Result-store directory (default: the spec's `store`
                       field, else `.campaign-store` next to the spec).
    --out-dir <dir>    Figure output directory (default: the spec's
                       `output` field, else `results` next to the spec).
    --jobs <N>         Cell worker threads (default: one per core).
    --only <name>      Run a single experiment from the spec.
    --max-cells <N>    Simulate at most N missing cells, then stop.
    --dry-run          Plan and report; simulate nothing.
    --quiet            Suppress tables and progress output.

OPTIONS (fuzz):
    --cases <N>            Scenarios to generate and judge (default 200).
    --seed <S>             Master seed; case i is determined by (S, i)
                           alone (default 42).
    --jobs <N>             Worker threads (default: one per core).
    --reproducer-dir <dir> Write a case-<i>.json reproducer per failure.
    --replay <case.json>   Re-judge one reproducer and print its outcome
                           (byte-identical across replays of the same
                           file — CI diffs two replays to prove it).

OPTIONS (verify):
    --policy <label>       Verify one policy (default: every built-in).
    --vms <N>              Identical VMs in the model (default 2).
    --vcpus <N>            VCPUs per VM (default 2).
    --pcpus <N>            Physical CPUs (default 2).
    --timeslice <N>        Scheduling timeslice in ticks (default 5).
    --horizon <N>          Tick layers to explore exhaustively; states at
                           the horizon are recorded, not expanded
                           (default 16).
    --max-states <N>       Stored-state cap; exceeding it exits 2
                           (inconclusive), never silently partial
                           (default 200000).
    --seed <S>             Base seed for stochastic-gate probes
                           (default 0x5eed; the default workload is
                           deterministic, where the seed is irrelevant).
    --format <text|json>   Report format (default text).
    --fixture deadlock     Verify the planted-deadlock fixture instead: a
                           fault-injected Round-Robin that must trip
                           `deadlock-freedom` with a replayable trace.
    --counterexample <p>   Write the first counterexample as a fuzz
                           reproducer JSON at <p> (replay it with
                           `vsched fuzz --replay <p>`).

OPTIONS (lint):
    --deny warnings        Exit non-zero on Warn findings too, not only on
                           Error findings and failed certificates.
    --format <text|json>   Report format (default text). JSON output is
                           stable per seed and snapshot-testable.
    --seed <S>             Exploration seed (default 0x5eed).
    --fixture broken       Lint the built-in deliberately-broken model
                           instead — exercises the diagnostics themselves.

OPTIONS (perf):
    --out <path>           Write the machine-readable report as JSON.
    --ticks <N>            Simulated clock periods per timed run
                           (default 2000).
    --repeats <N>          Timed repetitions per cell; the fastest is
                           reported (default 5).
    --seed <S>             Simulation seed (default 42).
    --baseline <path>      A previous --out report to compare against.
    --max-regression <X>   Fail if the incremental core's speedup over
                           full rescan fell more than X-fold below the
                           baseline's, or an engine's linearity (the SAN
                           engine's ns per completion, or DirectSim's ns
                           per VCPU-tick, at the largest scale cell over
                           the smallest) grew more than X-fold above it
                           (default 2.0). Compares same-run ratios, so
                           machine speed cancels out.
    --max-vms <N>          Cap the large-model scale axis (64/256/1024
                           VMs) at N VMs; below 64 the axis is skipped
                           entirely (default 1024).
    --commit <hash>        Commit hash recorded in the report's host
                           block, next to the logical core count and
                           engine version.
    --format <f>           Print the report as `text` (default) or
                           `json`.

OPTIONS (tournament):
    --configs <dir>        Directory of run-config scenarios (default
                           `configs`; sweep specs are skipped).
    --store <dir>          Result store for built-in contestants (default
                           `.tournament-store`).
    --out <path>           Also write the ranking report as JSON.
    --policies <l1,l2,..>  Restrict built-ins to these labels (default all).
    --agent <cmd>          Add an external contestant (repeatable). The
                           command is spawned per scenario episode and
                           speaks the vsched-env protocol on stdio.
    --fuzz-scenarios <N>   Fuzz-generated scenarios to append (default 2).
    --fuzz-seed <S>        Seed of the scenario generator (default 42).
    --warmup <N>           Warm-up ticks per scenario (default 500).
    --horizon <N>          Measured ticks per scenario (default 4000).
    --replications <N>     Replications per contestant (default 2; min 2).
    --seed <S>             Base simulation seed (default 0x5eed).
    --timeout <secs>       Per-message agent timeout (default 10).
    --jobs <N>             Cell worker threads (default: one per core).
    --quiet                Suppress progress output.

OPTIONS (env):
    --socket <path>        Serve one connection on a Unix socket instead of
                           stdin/stdout.
    --agent <cmd>          Host the episode: spawn the agent, play it to
                           completion, print the metrics.
    --name <label>         Environment name sent in the handshake
                           (default: the config file stem).
    --seed <S>             Episode seed in --agent mode (default: the
                           config's seed, else 0x5eed).
    --timeout <secs>       Per-message timeout in --agent mode (default 10).
    --warmup <N>           Override the config's warm-up ticks.
    --horizon <N>          Override the config's measured ticks.

The config format is documented in the vsched-cli crate docs; `vsched
example > exp.json` is the quickest start. The paper campaign lives at
configs/paper.sweep.json: `vsched sweep configs/paper.sweep.json`
regenerates every bench_results/*.json from one command.";

const EXAMPLE: &str = r#"{
  "pcpus": 4,
  "vms": [
    { "vcpus": 2 },
    { "vcpus": 4,
      "workload": {
        "load": { "uniform": { "low": 5.0, "high": 15.0 } },
        "sync_ratio": [1, 3],
        "sync_mechanism": "barrier"
      }
    }
  ],
  "timeslice": 30,
  "policies": ["rrs", "scs", "rcs"],
  "engine": "san",
  "warmup": 1000,
  "horizon": 20000
}"#;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--help`/`-h` after any command prints the usage, before that
    // command's own parser would reject it as an argument.
    if args.iter().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(rest),
        Some("trace") => trace_cmd(rest),
        Some("sweep") => sweep(rest),
        Some("fuzz") => fuzz(rest),
        Some("verify") => verify_cmd(rest),
        Some("lint") => lint(rest),
        Some("perf") => perf(rest),
        Some("tournament") => tournament(rest),
        Some("env") => env_cmd(rest),
        Some("policies") => {
            print!("{}", vsched_cli::render_policy_registry());
            Ok(ExitCode::SUCCESS)
        }
        Some("example") => {
            println!("{EXAMPLE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("help" | "--help" | "-h") | None => {
            println!("{HELP}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{HELP}").into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Writes `body` to `path` atomically (temp file + rename: a crash
/// mid-write cannot leave a truncated file behind) and says so.
fn write_out(path: &Path, body: &str) -> Result<(), Box<dyn Error>> {
    write_atomic(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    STDOUT.println(format_args!("[wrote {}]", path.display()));
    Ok(())
}

fn run(args: &[String]) -> CmdResult {
    let mut a = Args::parse("run", args, "--out --jobs", "")?;
    let out = a.value("--out").map(PathBuf::from);
    let jobs = a.number::<usize>("--jobs")?;
    let config_path = a.positional("a config file")?;
    a.finish()?;
    let config = ExperimentConfig::from_json(&read_file(Path::new(&config_path))?)?;
    let cells = config.cells()?;
    // Command line beats config file; both default (0) to one worker per
    // core.
    let jobs = jobs.or(config.jobs).unwrap_or(0);
    // A trace-driven config replays its trace under each policy and adds
    // the run fingerprint to the static comparison. Its system is the
    // trace's union topology, so the trace is read and compiled once.
    let schedule = config
        .trace
        .as_ref()
        .map(|_| cells[0].schedule())
        .transpose()?;
    let system = match &schedule {
        Some(schedule) => schedule.config().clone(),
        None => cells[0].system()?,
    };
    println!(
        "system: {}   engine: {}   warmup {} / horizon {} ticks",
        system.describe(),
        config.engine.label(),
        config.warmup,
        config.horizon
    );
    if let Some(schedule) = &schedule {
        println!("trace: {}", schedule.describe());
    }
    let mut results = Vec::new();
    for cell in &cells {
        let policy = cell.policy_kind()?;
        let mut fingerprint = None;
        let report = if let Some(schedule) = &schedule {
            let (report, fp) = cell.run_trace(schedule.clone(), jobs)?;
            println!("fingerprint {fp:016x}  ({})", policy.label());
            fingerprint = Some(format!("{fp:016x}"));
            report
        } else {
            cell.builder()?.jobs(jobs).run()?
        };
        print!("{}", render_report(&system, &policy, &report));
        let mut entry = report_to_json(&system, &policy, &report);
        if let (Some(fp), serde_json::Value::Map(entries)) = (fingerprint, &mut entry) {
            entries.push(("fingerprint".to_string(), serde_json::Value::Str(fp)));
        }
        results.push(entry);
    }
    if let Some(out) = &out {
        let body = serde_json::to_string_pretty(&serde_json::json!({
            "config": config,
            "results": results,
        }))?;
        write_out(out, &body)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn trace_cmd(args: &[String]) -> CmdResult {
    let Some((verb, rest)) = args.split_first() else {
        return Err("`vsched trace` needs a verb: validate, describe, head or run".into());
    };
    if !matches!(verb.as_str(), "validate" | "describe" | "head" | "run") {
        return Err(format!(
            "unknown trace verb `{verb}` (expected validate, describe, head or run)"
        )
        .into());
    }
    let flags = "--pcpus --events --policy --engine --warmup --horizon --seed --replications \
                 --jobs --out";
    let mut a = Args::parse(&format!("trace {verb}"), rest, flags, "")?;
    let opts = TraceOpts {
        pcpus: a.positive("--pcpus")?.unwrap_or(0),
        events: a.positive("--events")?.unwrap_or(10),
        policy: a.value("--policy").unwrap_or_else(|| "rrs".into()),
        engine: match a.choice("--engine", &["direct", "san"])? {
            Some("san") => Engine::San,
            _ => Engine::Direct,
        },
        warmup: a.number("--warmup")?.unwrap_or(0),
        horizon: a.positive("--horizon")?,
        seed: a.number("--seed")?.unwrap_or(0x5eed),
        replications: a.positive("--replications")?.unwrap_or(3),
        jobs: a.number("--jobs")?.unwrap_or(0),
        out: a.value("--out").map(PathBuf::from),
    };
    let path = a.positional("a trace file")?;
    a.finish()?;
    run_trace_verb(verb, Path::new(&path), &opts)?;
    Ok(ExitCode::SUCCESS)
}

/// Parsed `vsched trace` flags (defaults in [`trace_cmd`]).
struct TraceOpts {
    /// 0 when `--pcpus` is absent.
    pcpus: usize,
    events: usize,
    policy: String,
    engine: Engine,
    warmup: u64,
    horizon: Option<u64>,
    seed: u64,
    replications: usize,
    /// 0 for one worker per core.
    jobs: usize,
    out: Option<PathBuf>,
}

/// The JSON written by `vsched trace run --out`.
#[derive(serde::Serialize)]
struct TraceRunJson {
    trace: String,
    policy: String,
    engine: String,
    warmup: u64,
    horizon: u64,
    seed: u64,
    replications: usize,
    /// FNV-1a 64 over every observation bit; equal strings mean
    /// bit-identical runs.
    fingerprint: String,
    /// Confidence-interval report.
    report: vsched_core::MetricsReport,
}

fn load_trace_arg(
    path: &Path,
    opts: &TraceOpts,
) -> Result<vsched_trace::TraceSchedule, Box<dyn Error>> {
    vsched_trace::check_platform(path, opts.pcpus)?;
    let csv_meta = vsched_trace::TraceMeta::new(opts.pcpus);
    Ok(vsched_trace::load_trace(path, &csv_meta)?)
}

fn run_trace_verb(verb: &str, path: &Path, opts: &TraceOpts) -> Result<(), Box<dyn Error>> {
    match verb {
        "validate" => {
            let schedule = load_trace_arg(path, opts)?;
            println!("ok: {}", schedule.describe());
            Ok(())
        }
        "describe" => {
            let schedule = load_trace_arg(path, opts)?;
            let (mut admits, mut retires, mut loads) = (0usize, 0, 0);
            for e in schedule.events() {
                match e.action {
                    vsched_trace::TraceAction::Admit => admits += 1,
                    vsched_trace::TraceAction::Retire => retires += 1,
                    vsched_trace::TraceAction::SetLoad(_) => loads += 1,
                }
            }
            println!("trace: {}", path.display());
            println!("  {}", schedule.describe());
            println!(
                "  platform: {} pcpus, {} vcpus total, timeslice {}",
                schedule.config().pcpus(),
                schedule.config().total_vcpus(),
                schedule.config().timeslice()
            );
            println!(
                "  events after tick 0: {admits} arrival(s), {retires} departure(s), \
                 {loads} load change(s)"
            );
            Ok(())
        }
        "head" => {
            vsched_trace::check_platform(path, opts.pcpus)?;
            let (meta, events) = if vsched_trace::is_csv(path) {
                (
                    vsched_trace::TraceMeta::new(opts.pcpus),
                    vsched_trace::read_azure_csv(path)?,
                )
            } else {
                vsched_trace::read_standard(path)?
            };
            let total = events.len();
            let head: Vec<vsched_trace::RawEvent> = events
                .into_iter()
                .take(opts.events)
                .map(|(_, e)| e)
                .collect();
            print!("{}", vsched_trace::write_standard(&meta, &head));
            if total > head.len() {
                eprintln!("[{} more event(s)]", total - head.len());
            }
            Ok(())
        }
        "run" => run_trace_experiment(path, opts),
        _ => unreachable!("verb checked by trace_cmd"),
    }
}

/// Runs a trace cell: the flags lower to a one-policy run config and go
/// through the same [`ExperimentConfig::cells`] and validation as a
/// config file, so the policy label, the replication floor and the
/// platform rule are checked before the trace is read.
fn run_trace_experiment(path: &Path, opts: &TraceOpts) -> Result<(), Box<dyn Error>> {
    let trace = path.display().to_string();
    let config = ExperimentConfig {
        pcpus: opts.pcpus,
        vms: Vec::new(),
        trace: Some(trace.clone()),
        timeslice: None,
        policies: vec![PolicySpec::Label(opts.policy.clone())],
        engine: opts.engine,
        warmup: opts.warmup,
        // Without `--horizon`, set below once the trace is read.
        horizon: opts.horizon.unwrap_or(0),
        replications: Some(opts.replications),
        seed: Some(opts.seed),
        jobs: None,
    };
    let mut cell = config.cells()?.swap_remove(0);
    cell.validate()?;
    let schedule = cell.schedule()?;
    // The default horizon reaches 1 000 ticks past the trace's last event.
    cell.horizon = opts.horizon.unwrap_or(schedule.end_time() + 1_000);
    let system = schedule.config().clone();
    let policy = cell.policy_kind()?;
    println!("trace: {}", schedule.describe());
    println!(
        "policy {}   engine {}   warmup {} / horizon {} ticks   \
         seed {:#x}   replications {}",
        policy.label(),
        cell.engine.label(),
        cell.warmup,
        cell.horizon,
        cell.seed,
        opts.replications
    );
    let (report, fingerprint) = cell.run_trace(schedule, opts.jobs)?;
    println!("fingerprint {fingerprint:016x}");
    print!("{}", render_report(&system, &policy, &report));
    if let Some(out) = &opts.out {
        let body = TraceRunJson {
            trace,
            policy: policy.label().to_string(),
            engine: cell.engine.label().to_string(),
            warmup: cell.warmup,
            horizon: cell.horizon,
            seed: cell.seed,
            replications: opts.replications,
            fingerprint: format!("{fingerprint:016x}"),
            report,
        };
        write_out(out, &serde_json::to_string_pretty(&body)?)?;
    }
    Ok(())
}

fn sweep(args: &[String]) -> CmdResult {
    let flags = "--store --out-dir --jobs --only --max-cells";
    let mut a = Args::parse("sweep", args, flags, "--dry-run --quiet")?;
    let opts = SweepOptions {
        store_dir: a.value("--store").map(PathBuf::from),
        out_dir: a.value("--out-dir").map(PathBuf::from),
        jobs: a.number("--jobs")?,
        only: a.value("--only"),
        max_cells: a.number("--max-cells")?,
        dry_run: a.switch("--dry-run"),
        quiet: a.switch("--quiet"),
    };
    let spec_path = a.positional("a sweep spec file")?;
    a.finish()?;
    run_sweep(Path::new(&spec_path), &opts)?;
    Ok(ExitCode::SUCCESS)
}

fn fuzz(args: &[String]) -> CmdResult {
    let flags = "--cases --seed --jobs --reproducer-dir --replay";
    let a = Args::parse("fuzz", args, flags, "")?;
    let defaults = FuzzOpts::default();
    let opts = FuzzOpts {
        cases: a.number("--cases")?.unwrap_or(defaults.cases),
        seed: a.number("--seed")?.unwrap_or(defaults.seed),
        jobs: a.number("--jobs")?,
        reproducer_dir: a.value("--reproducer-dir").map(PathBuf::from),
        ..defaults
    };
    let replay_path = a.value("--replay").map(PathBuf::from);
    a.finish()?;

    if let Some(path) = replay_path {
        // A reproducer carrying a verifier counterexample replays through
        // the verify bridge instead of the differential oracle: re-fire
        // the recorded trace on a fresh model (bit-identical final
        // marking) and re-run the scenario on both engines.
        if let Ok(rep) = vsched_check::Reproducer::load(&path) {
            if rep.verify.is_some() {
                let replay = vsched_check::replay_verify_counterexample(&rep)?;
                println!(
                    "replay: verify counterexample for `{}`: {} firings re-fired, \
                     final marking bit-identical",
                    replay.certificate, replay.trace_len
                );
                if let Some(e) = &replay.direct_error {
                    println!("  direct engine: {e}");
                }
                if let Some(e) = &replay.san_error {
                    println!("  san engine: {e}");
                }
                if !replay.engines_agree() {
                    return Err("the engines disagree on the counterexample".into());
                }
                println!("  engines agree");
                return Ok(ExitCode::SUCCESS);
            }
        }
        let outcome = vsched_check::fuzz::replay(&path, &opts.oracle)?;
        println!(
            "replay: case {} digest {}",
            outcome.case_index, outcome.digest
        );
        for f in &outcome.failures {
            println!("  {f}");
        }
        if !outcome.passed() {
            return Ok(ExitCode::FAILURE);
        }
        println!("  clean");
        return Ok(ExitCode::SUCCESS);
    }

    let report = run_fuzz(&opts)?;
    println!("{}", report.summary());
    for failure in &report.failures {
        println!("case {}:", failure.case_index);
        for f in &failure.outcome.failures {
            println!("  {f}");
        }
        if let Some(path) = &failure.reproducer {
            println!("  reproducer: {}", path.display());
        }
    }
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Exit status of one or more verification runs: violations dominate,
/// then inconclusive searches, then a clean proof.
fn verify_exit(outcomes: &[vsched_analyze::VerifyOutcome]) -> ExitCode {
    use vsched_analyze::VerifyOutcome;
    if outcomes.contains(&VerifyOutcome::Violated) {
        ExitCode::FAILURE
    } else if outcomes.contains(&VerifyOutcome::Inconclusive) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders one bridged verification run as text: the report, the exact
/// bounds alongside the structural semiflow claims, and any cross-check
/// findings.
fn render_verify_run(run: &vsched_check::VerifyRun) -> String {
    use std::fmt::Write as _;
    let model = &run.analysis.model;
    let mut out = run.report.render_text(model);
    let _ = writeln!(out, "  place bounds (exact vs structural):");
    for (p, &exact) in run.report.place_bounds.iter().enumerate() {
        let structural = match run.structural_bounds.get(p) {
            Some(Some(b)) => b.to_string(),
            _ => "unbounded".to_string(),
        };
        let _ = writeln!(
            out,
            "    {:<28} {exact:>6}  {structural:>10}",
            model.place_name(vsched_san::PlaceId::from_index(p)),
        );
    }
    if run.cross_findings.is_empty() {
        let _ = writeln!(out, "  cross-check: exact and structural passes agree");
    }
    for d in &run.cross_findings {
        let _ = writeln!(
            out,
            "  cross-check {}: {}: {}",
            d.lint, d.subject, d.message
        );
    }
    out
}

fn verify_cmd(args: &[String]) -> CmdResult {
    use vsched_core::PolicyKind;

    let flags = "--policy --vms --vcpus --pcpus --timeslice --horizon --max-states --seed \
                 --format --fixture --counterexample";
    let a = Args::parse("verify", args, flags, "")?;
    let defaults = vsched_analyze::VerifyOpts::default();
    let opts = vsched_analyze::VerifyOpts {
        horizon: a.number("--horizon")?.unwrap_or(defaults.horizon),
        max_states: a.number("--max-states")?.unwrap_or(defaults.max_states),
        seed: a.number("--seed")?.unwrap_or(defaults.seed),
        ..defaults
    };
    let vms: usize = a.number("--vms")?.unwrap_or(2);
    let vcpus: usize = a.number("--vcpus")?.unwrap_or(2);
    let pcpus: usize = a.number("--pcpus")?.unwrap_or(2);
    let timeslice: u64 = a.number("--timeslice")?.unwrap_or(5);
    let json = a.choice("--format", &["text", "json"])? == Some("json");
    let fixture = a.choice("--fixture", &["deadlock"])?.is_some();
    let cx_path = a.value("--counterexample").map(PathBuf::from);
    let policy_label = a.value("--policy");
    a.finish()?;

    if fixture {
        let (rep, run) = vsched_check::verify_fixture(&opts)?;
        if json {
            println!("{}", serde_json::to_string_pretty(&run.to_json())?);
        } else {
            print!("{}", render_verify_run(&run));
        }
        if let Some(path) = &cx_path {
            if rep.verify.is_none() {
                return Err("the fixture run produced no counterexample to write".into());
            }
            write_atomic(path, &rep.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("counterexample reproducer written to {}", path.display());
        }
        return Ok(verify_exit(&[run.report.outcome()]));
    }

    let policies: Vec<PolicyKind> = match policy_label {
        Some(label) => vec![PolicySpec::Label(label).to_kind()?],
        None => PolicyKind::all(),
    };

    let mut outcomes = Vec::new();
    let mut json_reports = Vec::new();
    let mut counterexample_written = false;
    for policy in &policies {
        let case = vsched_check::FuzzCase::verify_scenario(
            pcpus,
            vms,
            vcpus,
            timeslice,
            policy.clone(),
            opts.horizon,
        );
        let config = case.cell().system()?;
        let target = format!("{vms}x{vcpus}x{pcpus} {}", policy.label());
        let run = vsched_check::verify_config(&target, &config, policy, &opts)?;
        if json {
            json_reports.push(run.to_json());
        } else {
            print!("{}", render_verify_run(&run));
        }
        if let (Some(path), Some(vcx), false) = (
            cx_path.as_ref(),
            run.counterexample.clone(),
            counterexample_written,
        ) {
            let rep = vsched_check::Reproducer {
                case,
                failures: vec![format!("verify: {}: {}", vcx.certificate, vcx.detail)],
                verify: Some(vcx),
            };
            write_atomic(path, &rep.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("counterexample reproducer written to {}", path.display());
            counterexample_written = true;
        }
        outcomes.push(run.report.outcome());
    }
    if json {
        let body = serde_json::Value::Seq(json_reports);
        println!("{}", serde_json::to_string_pretty(&body)?);
    }
    Ok(verify_exit(&outcomes))
}

fn perf(args: &[String]) -> CmdResult {
    let flags = "--out --ticks --repeats --seed --baseline --max-regression --max-vms \
                 --commit --format";
    let a = Args::parse("perf", args, flags, "")?;
    let defaults = vsched_cli::PerfOpts::default();
    let opts = vsched_cli::PerfOpts {
        ticks: a.positive("--ticks")?.unwrap_or(defaults.ticks),
        repeats: a.positive("--repeats")?.unwrap_or(defaults.repeats),
        seed: a.number("--seed")?.unwrap_or(defaults.seed),
        max_vms: a.number("--max-vms")?.unwrap_or(defaults.max_vms),
        commit: a.value("--commit"),
    };
    let out_path = a.value("--out").map(PathBuf::from);
    let baseline = a.value("--baseline").map(PathBuf::from);
    let max_regression = a.at_least("--max-regression", 1.0)?.unwrap_or(2.0);
    let json = a.choice("--format", &["text", "json"])? == Some("json");
    a.finish()?;

    let report = vsched_cli::run_perf(&opts);
    if json {
        println!("{}", serde_json::to_string_pretty(&report.to_json())?);
    } else {
        print!("{}", report.render_text());
    }
    if let Some(out) = &out_path {
        write_out(out, &serde_json::to_string_pretty(&report.to_json())?)?;
    }
    if !report.all_identical() {
        return Err("engine modes diverged (see `identical` column)".into());
    }
    if let Some(base) = &baseline {
        let regressions = vsched_cli::perf::check_against_baseline(&report, base, max_regression)?;
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!("regression: {r}");
            }
            return Ok(ExitCode::FAILURE);
        }
        println!("baseline: no regression beyond {max_regression:.1}x");
    }
    Ok(ExitCode::SUCCESS)
}

fn tournament(args: &[String]) -> CmdResult {
    let flags = "--configs --store --out --policies --agent --fuzz-scenarios --fuzz-seed \
                 --warmup --horizon --replications --seed --timeout --jobs";
    let a = Args::parse("tournament", args, flags, "--quiet")?;
    let defaults = vsched_cli::TournamentOpts::default();
    let opts = vsched_cli::TournamentOpts {
        config_dir: a
            .value("--configs")
            .map_or(defaults.config_dir, PathBuf::from),
        store_dir: a.value("--store").map_or(defaults.store_dir, PathBuf::from),
        policies: a
            .value("--policies")
            .map(|list| list.split(',').map(|s| s.trim().to_string()).collect()),
        agents: a.values("--agent"),
        fuzz_scenarios: a
            .number("--fuzz-scenarios")?
            .unwrap_or(defaults.fuzz_scenarios),
        fuzz_seed: a.number("--fuzz-seed")?.unwrap_or(defaults.fuzz_seed),
        warmup: a.number("--warmup")?.unwrap_or(defaults.warmup),
        horizon: a.positive("--horizon")?.unwrap_or(defaults.horizon),
        replications: a
            .at_least("--replications", 2)?
            .unwrap_or(defaults.replications),
        seed: a.number("--seed")?.unwrap_or(defaults.seed),
        timeout: a
            .positive("--timeout")?
            .map_or(defaults.timeout, Duration::from_secs),
        jobs: a.number("--jobs")?,
        quiet: a.switch("--quiet"),
    };
    let out_path = a.value("--out").map(PathBuf::from);
    a.finish()?;

    let report = vsched_cli::run_tournament(&opts)?;
    STDOUT.print(format_args!("{}", report.render_text()));
    if let Some(out) = &out_path {
        write_out(out, &serde_json::to_string_pretty(&report.to_json())?)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Hosts one experiment as a vsched-env environment: serves the protocol
/// on stdio or a Unix socket, or spawns an agent and plays one episode.
fn env_cmd(args: &[String]) -> CmdResult {
    let flags = "--warmup --horizon --socket --agent --name --seed --timeout";
    let mut a = Args::parse("env", args, flags, "")?;
    let warmup = a.number("--warmup")?;
    let horizon = a.positive("--horizon")?;
    let socket = a.value("--socket").map(PathBuf::from);
    let agent_cmd = a.value("--agent");
    let name = a.value("--name");
    let seed = a.number("--seed")?;
    let timeout = a
        .positive("--timeout")?
        .map_or(vsched_env::DEFAULT_TIMEOUT, Duration::from_secs);
    let config_path = a.positional("a config file")?;
    a.finish()?;
    if socket.is_some() && agent_cmd.is_some() {
        return Err("--socket and --agent are mutually exclusive".into());
    }

    let config = ExperimentConfig::from_json(&read_file(Path::new(&config_path))?)?;
    let mut cell = config.cells()?.swap_remove(0);
    cell.warmup = warmup.unwrap_or(cell.warmup);
    cell.horizon = horizon.unwrap_or(cell.horizon);
    let scenario = env_scenario(&cell)?;
    let env_name = name.unwrap_or_else(|| {
        Path::new(&config_path)
            .file_stem()
            .map_or_else(|| "vsched-env".to_string(), |s| s.to_string_lossy().into())
    });

    if let Some(command) = agent_cmd {
        // Hosting direction: we spawn the agent and drive one episode.
        let mut agent = vsched_env::RemotePolicy::spawn(&command, &env_name, timeout)
            .map_err(|e| format!("agent handshake: {e}"))?;
        let mut env = vsched_env::Env::new(scenario)
            .fields(agent.fields())
            .agent_name(agent.name());
        let run = vsched_env::run_remote_episode(&mut env, &mut agent, seed.unwrap_or(cell.seed))
            .map_err(|e| format!("episode: {e}"))?;
        println!(
            "episode: agent {} finished {} ticks ({} decisions)",
            agent.name(),
            run.end.ticks,
            run.actions.len()
        );
        println!(
            "  vcpu_utilization {:.4}  vcpu_availability {:.4}  pcpu_utilization {:.4}",
            run.end.metrics.avg_vcpu_utilization(),
            run.end.metrics.avg_vcpu_availability(),
            run.end.metrics.avg_pcpu_utilization()
        );
        println!("  fingerprint {:#018x}", run.end.fingerprint);
        return Ok(ExitCode::SUCCESS);
    }

    let stats = if let Some(path) = socket {
        // One connection, then exit: the orchestrator on the other side
        // decides how many episodes to play over it.
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .map_err(|e| format!("bind {}: {e}", path.display()))?;
        eprintln!("vsched env: listening on {}", path.display());
        let (stream, _) = listener
            .accept()
            .map_err(|e| format!("accept on {}: {e}", path.display()))?;
        let reader = stream.try_clone()?;
        let mut transport = vsched_env::LineTransport::new(reader, stream, None);
        let stats = vsched_env::serve(&mut transport, &scenario, &env_name)
            .map_err(|e| format!("serve: {e}"))?;
        let _ = std::fs::remove_file(&path);
        stats
    } else {
        // Protocol on stdout; keep the human-readable trailer on stderr.
        let mut transport =
            vsched_env::LineTransport::new(std::io::stdin(), std::io::stdout(), None);
        vsched_env::serve(&mut transport, &scenario, &env_name)
            .map_err(|e| format!("serve: {e}"))?
    };
    eprintln!(
        "vsched env: served {} episode(s), {} fault(s)",
        stats.episodes, stats.faults
    );
    Ok(ExitCode::SUCCESS)
}

fn lint(args: &[String]) -> CmdResult {
    let mut a = Args::parse("lint", args, "--deny --format --seed --fixture", "")?;
    let deny_warnings = a.choice("--deny", &["warnings"])?.is_some();
    let json = a.choice("--format", &["text", "json"])? == Some("json");
    let fixture = a.choice("--fixture", &["broken"])?.is_some();
    let defaults = AnalyzeOpts::default();
    let opts = AnalyzeOpts {
        seed: a.number("--seed")?.unwrap_or(defaults.seed),
        ..defaults
    };
    let paths = a.rest();

    let mut reports = Vec::new();
    if fixture {
        reports.push(vsched_analyze::lint_broken_fixture(&opts));
    }
    if paths.is_empty() && !fixture {
        // Default target: the paper model under every registered policy.
        let system = vsched_core::SystemConfig::builder()
            .pcpus(4)
            .vm(2)
            .vm(4)
            .build()?;
        for kind in vsched_core::PolicyKind::all() {
            let target = format!("paper:{}", kind.label());
            reports.push(vsched_analyze::lint_config(&target, &system, &kind, &opts)?);
        }
    }
    // Distinct (system, policy) pairs only: sweep grids repeat the same
    // model many times across seeds and engines, which lint can't tell
    // apart.
    let mut seen = std::collections::HashSet::new();
    for path in &paths {
        let text = read_file(Path::new(path))?;
        let mut targets = Vec::new();
        if is_sweep_spec(&text) {
            let spec =
                vsched_campaign::SweepSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            let expanded = vsched_campaign::plan(&spec).map_err(|e| format!("{path}: {e}"))?;
            for exp in &expanded.experiments {
                for cell in &exp.cells {
                    let target = format!("{path}#{}: {}", exp.name, cell.config.summary()?);
                    targets.push((target, cell.config.clone()));
                }
            }
        } else {
            let config = ExperimentConfig::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            for cell in config.cells()? {
                targets.push((format!("{path}: {}", cell.policy_kind()?.label()), cell));
            }
        }
        for (target, cell) in targets {
            let system = cell.system()?;
            let kind = cell.policy_kind()?;
            if seen.insert(format!("{system:?}|{kind:?}")) {
                reports.push(vsched_analyze::lint_config(&target, &system, &kind, &opts)?);
            }
        }
    }

    let denied = reports.iter().filter(|r| r.denied(deny_warnings)).count();
    if json {
        let body = serde_json::Value::Seq(reports.iter().map(|r| r.to_json()).collect());
        println!("{}", serde_json::to_string_pretty(&body)?);
    } else {
        for report in &reports {
            print!("{}", report.render_text());
        }
        let errors: usize = reports
            .iter()
            .map(vsched_analyze::LintReport::error_count)
            .sum();
        let warnings: usize = reports
            .iter()
            .map(vsched_analyze::LintReport::warn_count)
            .sum();
        println!(
            "lint: {} target(s), {errors} error(s), {warnings} warning(s), {denied} denied",
            reports.len()
        );
    }
    Ok(if denied == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
