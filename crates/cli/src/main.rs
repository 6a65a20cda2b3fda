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

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vsched_analyze::AnalyzeOpts;
use vsched_campaign::fsio::{read_file, write_atomic};
use vsched_campaign::{run_sweep, SweepOptions};
use vsched_check::{run_fuzz, FuzzOpts};
use vsched_cli::output::{render_report, report_to_json};
use vsched_cli::ExperimentConfig;
use vsched_core::ExperimentBuilder;

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
                  [--symmetry <on|off>] [--seed <S>] [--format <text|json>]
                  [--fixture deadlock] [--counterexample <case.json>]
    vsched lint [<config.json>...] [--deny warnings] [--format <text|json>]
                [--seed <S>] [--fixture broken]
    vsched perf [--out <report.json>] [--ticks <N>] [--seed <S>]
                [--baseline <report.json>] [--max-regression <X>]
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
              interleavings, every positive-weight case), quotient the
              space by VM-rotation symmetry where the policy permits, and
              prove named certificates — the runtime seven-invariant
              catalogue on every reachable edge, deadlock-freedom, exact
              per-place token bounds (reported alongside the structural
              semiflow bounds), and exact activity liveness. Violations
              come with concrete firing traces packaged as fuzz
              reproducers: `vsched fuzz --replay` re-fires the trace
              bit-exactly and re-runs the scenario on both engines.
              Exits 0 when everything is proved, 1 on a violation, 2 when
              the search was cut short (state cap) and nothing is claimed.
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
              and report events/sec and speedup per size; then time the
              large-model scale axis (64/256/1024 VMs) on the SAN engine
              and on DirectSim and report each run's real-time factor
              (simulated seconds per wall second at 30 ms per tick), plus
              DirectSim's cost per VCPU-tick. With a baseline report,
              exit non-zero on a large throughput regression.
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
    --replications <N> (run) Replications (default 3).
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
    --symmetry <on|off>    VM-rotation symmetry quotient (default on;
                           used only for rotation-equivariant policies).
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
                           baseline's, or DirectSim's linearity (ns per
                           VCPU-tick at the largest scale cell over the
                           smallest) grew more than X-fold above it
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
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("fuzz") => fuzz(&args[1..]),
        Some("verify") => verify_cmd(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("perf") => perf(&args[1..]),
        Some("tournament") => tournament(&args[1..]),
        Some("env") => env_cmd(&args[1..]),
        Some("policies") => {
            print!("{}", vsched_cli::render_policy_registry());
            ExitCode::SUCCESS
        }
        Some("example") => {
            println!("{EXAMPLE}");
            ExitCode::SUCCESS
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut config_path: Option<&str> = None;
    let mut out_path: Option<&str> = None;
    let mut jobs: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("error: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => jobs = Some(n),
                _ => {
                    eprintln!("error: --jobs requires a number");
                    return ExitCode::FAILURE;
                }
            },
            p if config_path.is_none() => config_path = Some(p),
            p => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(config_path) = config_path else {
        eprintln!("error: `vsched run` needs a config file\n\n{HELP}");
        return ExitCode::FAILURE;
    };
    match run_experiment(config_path, out_path, jobs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn trace_cmd(args: &[String]) -> ExitCode {
    let Some(verb) = args.first().map(String::as_str) else {
        eprintln!("error: `vsched trace` needs a verb: validate, describe, head or run\n\n{HELP}");
        return ExitCode::FAILURE;
    };
    if !matches!(verb, "validate" | "describe" | "head" | "run") {
        eprintln!("error: unknown trace verb `{verb}` (expected validate, describe, head or run)");
        return ExitCode::FAILURE;
    }
    let mut opts = TraceOpts::default();
    let mut path: Option<&str> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pcpus" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.pcpus = n,
                _ => {
                    eprintln!("error: --pcpus requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--events" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.events = n,
                _ => {
                    eprintln!("error: --events requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--policy" => match it.next() {
                Some(label) => opts.policy = label.clone(),
                None => {
                    eprintln!("error: --policy requires a label");
                    return ExitCode::FAILURE;
                }
            },
            "--engine" => match it.next().map(String::as_str) {
                Some("direct") => opts.engine = vsched_core::Engine::Direct,
                Some("san") => opts.engine = vsched_core::Engine::San,
                _ => {
                    eprintln!("error: --engine takes `direct` or `san`");
                    return ExitCode::FAILURE;
                }
            },
            "--warmup" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.warmup = n,
                _ => {
                    eprintln!("error: --warmup requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--horizon" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.horizon = Some(n),
                _ => {
                    eprintln!("error: --horizon requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.seed = n,
                _ => {
                    eprintln!("error: --seed requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--replications" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.replications = n,
                _ => {
                    eprintln!("error: --replications requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => opts.jobs = Some(n),
                _ => {
                    eprintln!("error: --jobs requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => opts.out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            p if path.is_none() && !p.starts_with('-') => path = Some(p),
            p => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("error: `vsched trace {verb}` needs a trace file");
        return ExitCode::FAILURE;
    };
    match run_trace_verb(verb, Path::new(path), &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `vsched trace` flags with their defaults.
struct TraceOpts {
    pcpus: usize,
    events: usize,
    policy: String,
    engine: vsched_core::Engine,
    warmup: u64,
    horizon: Option<u64>,
    seed: u64,
    replications: usize,
    jobs: Option<usize>,
    out: Option<PathBuf>,
}

impl Default for TraceOpts {
    fn default() -> Self {
        TraceOpts {
            pcpus: 0,
            events: 10,
            policy: "rrs".into(),
            engine: vsched_core::Engine::Direct,
            warmup: 0,
            horizon: None,
            seed: 0x5eed,
            replications: 3,
            jobs: None,
            out: None,
        }
    }
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
    /// Confidence-interval report (absent with a single replication).
    #[serde(skip_serializing_if = "Option::is_none")]
    report: Option<vsched_core::MetricsReport>,
}

fn is_csv_trace(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"))
}

/// Loads a trace for the `trace` subcommand, enforcing the `--pcpus`
/// contract: required by CSV datasets, rejected by self-describing
/// standard traces.
fn load_trace_arg(
    path: &Path,
    opts: &TraceOpts,
) -> Result<vsched_trace::TraceSchedule, Box<dyn std::error::Error>> {
    if is_csv_trace(path) {
        if opts.pcpus == 0 {
            return Err(format!(
                "CSV trace `{}` carries no platform: pass --pcpus",
                path.display()
            )
            .into());
        }
    } else if opts.pcpus != 0 {
        return Err(format!(
            "trace `{}` carries its own platform: drop --pcpus",
            path.display()
        )
        .into());
    }
    let csv_meta = vsched_trace::TraceMeta::new(opts.pcpus);
    Ok(vsched_trace::load_trace(path, &csv_meta)?)
}

fn run_trace_verb(
    verb: &str,
    path: &Path,
    opts: &TraceOpts,
) -> Result<(), Box<dyn std::error::Error>> {
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
            let (meta, events) = if is_csv_trace(path) {
                if opts.pcpus == 0 {
                    return Err(format!(
                        "CSV trace `{}` carries no platform: pass --pcpus",
                        path.display()
                    )
                    .into());
                }
                (
                    vsched_trace::TraceMeta::new(opts.pcpus),
                    vsched_trace::read_azure_csv(path)?,
                )
            } else {
                if opts.pcpus != 0 {
                    return Err(format!(
                        "trace `{}` carries its own platform: drop --pcpus",
                        path.display()
                    )
                    .into());
                }
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

fn run_trace_experiment(path: &Path, opts: &TraceOpts) -> Result<(), Box<dyn std::error::Error>> {
    let schedule = load_trace_arg(path, opts)?;
    let system = schedule.config().clone();
    let horizon = opts.horizon.unwrap_or(schedule.end_time() + 1_000);
    let policy = vsched_cli::config::PolicySpec::Label(opts.policy.clone()).to_kind()?;
    let engine_label = match opts.engine {
        vsched_core::Engine::Direct => "direct",
        vsched_core::Engine::San => "san",
    };
    println!("trace: {}", schedule.describe());
    println!(
        "policy {}   engine {engine_label}   warmup {} / horizon {horizon} ticks   \
         seed {:#x}   replications {}",
        policy.label(),
        opts.warmup,
        opts.seed,
        opts.replications
    );
    let mut exp = vsched_trace::TraceExperiment::new(schedule, policy.clone())
        .engine(opts.engine)
        .warmup(opts.warmup)
        .horizon(horizon)
        .seed(opts.seed)
        .replications(opts.replications);
    if let Some(jobs) = opts.jobs {
        exp = exp.jobs(jobs);
    }
    let result = exp.run()?;
    println!("fingerprint {:016x}", result.fingerprint);
    let report = if opts.replications >= 2 {
        let report = result.metrics_report(system.total_vcpus(), system.pcpus(), 0.95)?;
        print!("{}", render_report(&system, &policy, &report));
        Some(report)
    } else {
        let sample = &result.samples[0];
        println!(
            "  vcpu_availability {:.4}   vcpu_utilization {:.4}   pcpu_utilization {:.4}",
            sample.avg_vcpu_availability(),
            sample.avg_vcpu_utilization(),
            sample.avg_pcpu_utilization()
        );
        None
    };
    if let Some(out) = &opts.out {
        let body = TraceRunJson {
            trace: path.display().to_string(),
            policy: policy.label().to_string(),
            engine: engine_label.to_string(),
            warmup: opts.warmup,
            horizon,
            seed: opts.seed,
            replications: opts.replications,
            fingerprint: format!("{:016x}", result.fingerprint),
            report,
        };
        write_atomic(out, &serde_json::to_string_pretty(&body)?)
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("[wrote {}]", out.display());
    }
    Ok(())
}

fn sweep(args: &[String]) -> ExitCode {
    let mut spec_path: Option<&str> = None;
    let mut opts = SweepOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => match it.next() {
                Some(p) => opts.store_dir = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --store requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--out-dir" => match it.next() {
                Some(p) => opts.out_dir = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --out-dir requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => opts.jobs = Some(n),
                _ => {
                    eprintln!("error: --jobs requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--only" => match it.next() {
                Some(name) => opts.only = Some(name.clone()),
                None => {
                    eprintln!("error: --only requires an experiment name");
                    return ExitCode::FAILURE;
                }
            },
            "--max-cells" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => opts.max_cells = Some(n),
                _ => {
                    eprintln!("error: --max-cells requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--dry-run" => opts.dry_run = true,
            "--quiet" => opts.quiet = true,
            p if spec_path.is_none() => spec_path = Some(p),
            p => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(spec_path) = spec_path else {
        eprintln!("error: `vsched sweep` needs a sweep spec file\n\n{HELP}");
        return ExitCode::FAILURE;
    };
    match run_sweep(std::path::Path::new(spec_path), &opts) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fuzz(args: &[String]) -> ExitCode {
    let mut opts = FuzzOpts::default();
    let mut replay_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cases" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.cases = n,
                _ => {
                    eprintln!("error: --cases requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.seed = n,
                _ => {
                    eprintln!("error: --seed requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => opts.jobs = Some(n),
                _ => {
                    eprintln!("error: --jobs requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--reproducer-dir" => match it.next() {
                Some(p) => opts.reproducer_dir = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --reproducer-dir requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--replay" => match it.next() {
                Some(p) => replay_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --replay requires a reproducer file");
                    return ExitCode::FAILURE;
                }
            },
            p => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = replay_path {
        // A reproducer carrying a verifier counterexample replays through
        // the verify bridge instead of the differential oracle: re-fire
        // the recorded trace on a fresh model (bit-identical final
        // marking) and re-run the scenario on both engines.
        if let Ok(rep) = vsched_check::Reproducer::load(&path) {
            if rep.verify.is_some() {
                return match vsched_check::replay_verify_counterexample(&rep) {
                    Ok(replay) => {
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
                        if replay.engines_agree() {
                            println!("  engines agree");
                            ExitCode::SUCCESS
                        } else {
                            eprintln!("error: the engines disagree on the counterexample");
                            ExitCode::FAILURE
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
        }
        return match vsched_check::fuzz::replay(&path, &opts.oracle) {
            Ok(outcome) => {
                println!(
                    "replay: case {} digest {}",
                    outcome.case_index, outcome.digest
                );
                for f in &outcome.failures {
                    println!("  {f}");
                }
                if outcome.passed() {
                    println!("  clean");
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match run_fuzz(&opts) {
        Ok(report) => {
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
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
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

fn verify_cmd(args: &[String]) -> ExitCode {
    use vsched_core::{PolicyKind, SystemConfig, VmSpec, WorkloadSpec};

    let mut opts = vsched_analyze::VerifyOpts::default();
    let mut policy_label: Option<String> = None;
    let mut vms = 2usize;
    let mut vcpus = 2usize;
    let mut pcpus = 2usize;
    let mut timeslice = 5u64;
    let mut fixture: Option<String> = None;
    let mut cx_path: Option<PathBuf> = None;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        macro_rules! num_flag {
            ($name:literal, $slot:expr, $ty:ty) => {
                match it.next().map(|n| n.parse::<$ty>()) {
                    Some(Ok(n)) => $slot = n,
                    _ => {
                        eprintln!(concat!("error: ", $name, " requires a number"));
                        return ExitCode::FAILURE;
                    }
                }
            };
        }
        match arg.as_str() {
            "--policy" => match it.next() {
                Some(l) => policy_label = Some(l.clone()),
                None => {
                    eprintln!("error: --policy requires a label");
                    return ExitCode::FAILURE;
                }
            },
            "--vms" => num_flag!("--vms", vms, usize),
            "--vcpus" => num_flag!("--vcpus", vcpus, usize),
            "--pcpus" => num_flag!("--pcpus", pcpus, usize),
            "--timeslice" => num_flag!("--timeslice", timeslice, u64),
            "--horizon" => num_flag!("--horizon", opts.horizon, u64),
            "--max-states" => num_flag!("--max-states", opts.max_states, usize),
            "--seed" => num_flag!("--seed", opts.seed, u64),
            "--symmetry" => match it.next().map(String::as_str) {
                Some("on") => opts.symmetry = true,
                Some("off") => opts.symmetry = false,
                _ => {
                    eprintln!("error: --symmetry requires `on` or `off`");
                    return ExitCode::FAILURE;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => {
                    eprintln!("error: --format requires `text` or `json`");
                    return ExitCode::FAILURE;
                }
            },
            "--fixture" => match it.next() {
                Some(f) => fixture = Some(f.clone()),
                None => {
                    eprintln!("error: --fixture requires a name (deadlock)");
                    return ExitCode::FAILURE;
                }
            },
            "--counterexample" => match it.next() {
                Some(p) => cx_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --counterexample requires a path");
                    return ExitCode::FAILURE;
                }
            },
            p => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(name) = fixture {
        if name != "deadlock" {
            eprintln!("error: unknown fixture `{name}` (expected `deadlock`)");
            return ExitCode::FAILURE;
        }
        return match vsched_check::verify_fixture(&opts) {
            Ok((rep, run)) => {
                if json {
                    match serde_json::to_string_pretty(&run.report.to_json(&run.analysis.model)) {
                        Ok(body) => println!("{body}"),
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    print!("{}", render_verify_run(&run));
                }
                if let Some(path) = &cx_path {
                    if rep.verify.is_none() {
                        eprintln!("error: the fixture run produced no counterexample to write");
                        return ExitCode::FAILURE;
                    }
                    if let Err(e) = write_atomic(path, &rep.to_json()) {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    println!("counterexample reproducer written to {}", path.display());
                }
                verify_exit(&[run.report.outcome()])
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let policies: Vec<PolicyKind> = match policy_label {
        Some(label) => match vsched_cli::config::PolicySpec::Label(label).to_kind() {
            Ok(kind) => vec![kind],
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => PolicyKind::all(),
    };

    // The verifier's diet is deterministic: a fixed per-tick load and a
    // sync point every third unit make the exploration exhaustive (no
    // stochastic gates to probe under a seed budget).
    let workload = match vsched_des::Dist::deterministic(4.0) {
        Ok(load) => WorkloadSpec {
            load,
            sync_probability: 0.0,
            sync_mechanism: vsched_core::SyncMechanism::Barrier,
            sync_every: Some(3),
            interarrival: None,
        },
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut b = SystemConfig::builder().pcpus(pcpus).timeslice(timeslice);
    for _ in 0..vms {
        b = b.vm_spec(VmSpec {
            vcpus,
            workload: workload.clone(),
            weight: 1,
        });
    }
    let config = match b.build() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut outcomes = Vec::new();
    let mut json_reports = Vec::new();
    let mut counterexample_written = false;
    for policy in &policies {
        let target = format!("{vms}x{vcpus}x{pcpus} {}", policy.label());
        let run = match vsched_check::verify_config(&target, &config, policy, &opts) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if json {
            json_reports.push(run.report.to_json(&run.analysis.model));
        } else {
            print!("{}", render_verify_run(&run));
        }
        if let (Some(path), Some(vcx), false) = (
            cx_path.as_ref(),
            run.counterexample.clone(),
            counterexample_written,
        ) {
            let rep = vsched_check::Reproducer {
                case: verify_case(&config, policy, vcx.horizon),
                failures: vec![format!("verify: {}: {}", vcx.certificate, vcx.detail)],
                verify: Some(vcx),
            };
            if let Err(e) = write_atomic(path, &rep.to_json()) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("counterexample reproducer written to {}", path.display());
            counterexample_written = true;
        }
        outcomes.push(run.report.outcome());
    }
    if json {
        match serde_json::to_string_pretty(&serde_json::Value::Seq(json_reports)) {
            Ok(body) => println!("{body}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    verify_exit(&outcomes)
}

/// Packages the ad-hoc verification scenario as a fuzz case so a
/// counterexample reproducer is self-contained and replayable.
fn verify_case(
    config: &vsched_core::SystemConfig,
    policy: &vsched_core::PolicyKind,
    horizon: u64,
) -> vsched_check::FuzzCase {
    vsched_check::FuzzCase {
        case_index: 0,
        pcpus: config.pcpus(),
        vms: config
            .vms()
            .iter()
            .map(|vm| vsched_check::case::VmCase {
                vcpus: vm.vcpus,
                weight: vm.weight,
            })
            .collect(),
        load: vsched_check::case::LoadSpec::Deterministic { value: 4.0 },
        sync: vsched_check::case::SyncSpec {
            probability: 0.0,
            every: Some(3),
            mechanism: vsched_core::SyncMechanism::Barrier,
        },
        timeslice: config.timeslice(),
        policy: policy.clone(),
        seed: 7,
        warmup: 0,
        horizon,
        replications: 1,
        trace: vec![],
    }
}

fn perf(args: &[String]) -> ExitCode {
    let mut opts = vsched_cli::PerfOpts::default();
    let mut out_path: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut max_regression = 2.0_f64;
    let mut format = String::from("text");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--ticks" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.ticks = n,
                _ => {
                    eprintln!("error: --ticks requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--repeats" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.repeats = n,
                _ => {
                    eprintln!("error: --repeats requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.seed = n,
                _ => {
                    eprintln!("error: --seed requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --baseline requires a report file");
                    return ExitCode::FAILURE;
                }
            },
            "--max-regression" => match it.next().map(|n| n.parse::<f64>()) {
                Some(Ok(x)) if x >= 1.0 => max_regression = x,
                _ => {
                    eprintln!("error: --max-regression requires a factor >= 1.0");
                    return ExitCode::FAILURE;
                }
            },
            "--max-vms" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => opts.max_vms = n,
                _ => {
                    eprintln!("error: --max-vms requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--commit" => match it.next() {
                Some(hash) => opts.commit = Some(hash.clone()),
                None => {
                    eprintln!("error: --commit requires a hash");
                    return ExitCode::FAILURE;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some(f @ ("text" | "json")) => format = f.to_string(),
                _ => {
                    eprintln!("error: --format requires text or json");
                    return ExitCode::FAILURE;
                }
            },
            p => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = vsched_cli::run_perf(&opts);
    match format.as_str() {
        "json" => match serde_json::to_string_pretty(&report.to_json()) {
            Ok(b) => println!("{b}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => print!("{}", report.render_text()),
    }
    if let Some(out) = &out_path {
        let body = match serde_json::to_string_pretty(&report.to_json()) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = write_atomic(out, &body) {
            eprintln!("error: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("[wrote {}]", out.display());
    }
    if !report.all_identical() {
        eprintln!("error: engine modes diverged (see `identical` column)");
        return ExitCode::FAILURE;
    }
    if let Some(base) = &baseline {
        match vsched_cli::perf::check_against_baseline(&report, base, max_regression) {
            Ok(regressions) => {
                if regressions.is_empty() {
                    println!("baseline: no regression beyond {max_regression:.1}x");
                } else {
                    for r in &regressions {
                        eprintln!("regression: {r}");
                    }
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn tournament(args: &[String]) -> ExitCode {
    let mut opts = vsched_cli::TournamentOpts::default();
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--configs" => match it.next() {
                Some(p) => opts.config_dir = PathBuf::from(p),
                None => {
                    eprintln!("error: --configs requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--store" => match it.next() {
                Some(p) => opts.store_dir = PathBuf::from(p),
                None => {
                    eprintln!("error: --store requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--policies" => match it.next() {
                Some(list) => {
                    opts.policies = Some(list.split(',').map(|s| s.trim().to_string()).collect());
                }
                None => {
                    eprintln!("error: --policies requires a comma-separated list");
                    return ExitCode::FAILURE;
                }
            },
            "--agent" => match it.next() {
                Some(cmd) => opts.agents.push(cmd.clone()),
                None => {
                    eprintln!("error: --agent requires a command");
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz-scenarios" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.fuzz_scenarios = n,
                _ => {
                    eprintln!("error: --fuzz-scenarios requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz-seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.fuzz_seed = n,
                _ => {
                    eprintln!("error: --fuzz-seed requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--warmup" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.warmup = n,
                _ => {
                    eprintln!("error: --warmup requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--horizon" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.horizon = n,
                _ => {
                    eprintln!("error: --horizon requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--replications" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 2 => opts.replications = n,
                _ => {
                    eprintln!("error: --replications requires a number >= 2");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.seed = n,
                _ => {
                    eprintln!("error: --seed requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--timeout" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.timeout = std::time::Duration::from_secs(n),
                _ => {
                    eprintln!("error: --timeout requires a positive number of seconds");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => opts.jobs = Some(n),
                _ => {
                    eprintln!("error: --jobs requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--quiet" => opts.quiet = true,
            p => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
        }
    }
    match vsched_cli::run_tournament(&opts) {
        Ok(report) => {
            print!("{}", report.render_text());
            if let Some(out) = &out_path {
                let body = match serde_json::to_string_pretty(&report.to_json()) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = write_atomic(out, &body) {
                    eprintln!("error: cannot write {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
                println!("[wrote {}]", out.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn env_cmd(args: &[String]) -> ExitCode {
    let mut config_path: Option<&str> = None;
    let mut socket: Option<PathBuf> = None;
    let mut agent_cmd: Option<String> = None;
    let mut name: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut timeout = vsched_env::DEFAULT_TIMEOUT;
    let mut warmup: Option<u64> = None;
    let mut horizon: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--warmup" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => warmup = Some(n),
                _ => {
                    eprintln!("error: --warmup requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--horizon" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => horizon = Some(n),
                _ => {
                    eprintln!("error: --horizon requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--socket" => match it.next() {
                Some(p) => socket = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --socket requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--agent" => match it.next() {
                Some(cmd) => agent_cmd = Some(cmd.clone()),
                None => {
                    eprintln!("error: --agent requires a command");
                    return ExitCode::FAILURE;
                }
            },
            "--name" => match it.next() {
                Some(n) => name = Some(n.clone()),
                None => {
                    eprintln!("error: --name requires a label");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => seed = Some(n),
                _ => {
                    eprintln!("error: --seed requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--timeout" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => timeout = std::time::Duration::from_secs(n),
                _ => {
                    eprintln!("error: --timeout requires a positive number of seconds");
                    return ExitCode::FAILURE;
                }
            },
            p if config_path.is_none() && !p.starts_with('-') => config_path = Some(p),
            p => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(config_path) = config_path else {
        eprintln!("error: `vsched env` needs a config file\n\n{HELP}");
        return ExitCode::FAILURE;
    };
    if socket.is_some() && agent_cmd.is_some() {
        eprintln!("error: --socket and --agent are mutually exclusive");
        return ExitCode::FAILURE;
    }
    match run_env(
        config_path,
        socket,
        agent_cmd,
        name,
        seed,
        timeout,
        warmup,
        horizon,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Hosts one experiment as a vsched-env environment (see `env_cmd`).
#[allow(clippy::too_many_arguments)]
fn run_env(
    config_path: &str,
    socket: Option<PathBuf>,
    agent_cmd: Option<String>,
    name: Option<String>,
    seed: Option<u64>,
    timeout: std::time::Duration,
    warmup: Option<u64>,
    horizon: Option<u64>,
) -> Result<(), Box<dyn std::error::Error>> {
    let text = read_file(Path::new(config_path))?;
    let config = ExperimentConfig::from_json(&text)?;
    let scenario = vsched_env::Scenario::new(config.system()?)
        .engine(config.engine_kind()?)
        .warmup(warmup.unwrap_or(config.warmup))
        .horizon(horizon.unwrap_or(config.horizon));
    let env_name = name.unwrap_or_else(|| {
        Path::new(config_path)
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
        let episode_seed = seed.or(config.seed).unwrap_or(0x5eed);
        let run = vsched_env::run_remote_episode(&mut env, &mut agent, episode_seed)
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
        return Ok(());
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
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
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
    Ok(())
}

fn lint(args: &[String]) -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut deny_warnings = false;
    let mut json = false;
    let mut fixture = false;
    let mut opts = AnalyzeOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => deny_warnings = true,
                _ => {
                    eprintln!("error: --deny takes `warnings`");
                    return ExitCode::FAILURE;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => {
                    eprintln!("error: --format takes `text` or `json`");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(s)) => opts.seed = s,
                _ => {
                    eprintln!("error: --seed requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--fixture" => match it.next().map(String::as_str) {
                Some("broken") => fixture = true,
                _ => {
                    eprintln!("error: --fixture takes `broken`");
                    return ExitCode::FAILURE;
                }
            },
            p if p.starts_with('-') => {
                eprintln!("error: unexpected argument `{p}`");
                return ExitCode::FAILURE;
            }
            p => paths.push(p.to_string()),
        }
    }
    match run_lint(&paths, fixture, &opts, deny_warnings, json) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Collects and renders the lint reports; returns `Ok(false)` when any
/// report is denied under the requested severity floor.
fn run_lint(
    paths: &[String],
    fixture: bool,
    opts: &AnalyzeOpts,
    deny_warnings: bool,
    json: bool,
) -> Result<bool, Box<dyn std::error::Error>> {
    let mut reports = Vec::new();
    if fixture {
        reports.push(vsched_analyze::lint_broken_fixture(opts));
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
            reports.push(vsched_analyze::lint_config(&target, &system, &kind, opts)?);
        }
    }
    // Distinct (system, policy) pairs only: sweep grids repeat the same
    // model many times across seeds and engines, which lint can't tell
    // apart.
    let mut seen = std::collections::HashSet::new();
    for path in paths {
        let text = read_file(Path::new(path))?;
        if is_sweep_spec(&text) {
            let spec =
                vsched_campaign::SweepSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            let expanded = vsched_campaign::plan(&spec).map_err(|e| format!("{path}: {e}"))?;
            for exp in &expanded.experiments {
                for cell in &exp.cells {
                    let system = cell.config.system()?;
                    let kind = cell.config.policy_kind()?;
                    if !seen.insert(format!("{system:?}|{kind:?}")) {
                        continue;
                    }
                    let target = format!("{path}#{}: {}", exp.name, cell.config.summary()?);
                    reports.push(vsched_analyze::lint_config(&target, &system, &kind, opts)?);
                }
            }
        } else {
            let config = ExperimentConfig::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            let system = config.system()?;
            for kind in config.policy_kinds()? {
                if !seen.insert(format!("{system:?}|{kind:?}")) {
                    continue;
                }
                let target = format!("{path}: {}", kind.label());
                reports.push(vsched_analyze::lint_config(&target, &system, &kind, opts)?);
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
    Ok(denied == 0)
}

/// A lint input is a sweep spec iff its top-level object has an
/// `experiments` key; anything else is treated as a run config.
fn is_sweep_spec(text: &str) -> bool {
    serde_json::from_str::<serde_json::Value>(text)
        .ok()
        .and_then(|v| {
            v.as_map()
                .map(|m| m.iter().any(|(k, _)| k == "experiments"))
        })
        .unwrap_or(false)
}

fn run_experiment(
    config_path: &str,
    out_path: Option<&str>,
    jobs_flag: Option<usize>,
) -> Result<(), Box<dyn std::error::Error>> {
    // Typed error with the offending path baked in, instead of a bare
    // io::Error (or a panic) on a mistyped file name.
    let text = read_file(Path::new(config_path))?;
    let config = ExperimentConfig::from_json(&text)?;
    let system = config.system()?;
    let engine = config.engine_kind()?;
    // Command line beats config file; both default to one worker per core.
    let jobs = jobs_flag.or(config.jobs);
    println!(
        "system: {}   engine: {}   warmup {} / horizon {} ticks",
        system.describe(),
        config.engine,
        config.warmup,
        config.horizon
    );
    if config.trace.is_some() {
        return run_traced_config(&config, &system, out_path, jobs);
    }
    let mut json_results = Vec::new();
    for policy in config.policy_kinds()? {
        let mut builder = ExperimentBuilder::new(system.clone(), policy.clone())
            .engine(engine)
            .warmup(config.warmup)
            .horizon(config.horizon);
        if let Some(n) = config.replications {
            builder = builder.replications_exact(n);
        }
        if let Some(seed) = config.seed {
            builder = builder.seed(seed);
        }
        if let Some(jobs) = jobs {
            builder = builder.jobs(jobs);
        }
        let report = builder.run()?;
        print!("{}", render_report(&system, &policy, &report));
        json_results.push(report_to_json(&system, &policy, &report));
    }
    if let Some(out) = out_path {
        let body = serde_json::to_string_pretty(&serde_json::json!({
            "config": config,
            "results": json_results,
        }))?;
        // Atomic (temp file + rename): a crash mid-write can't leave a
        // truncated results file behind.
        write_atomic(std::path::Path::new(out), &body)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("[wrote {out}]");
    }
    Ok(())
}

/// The trace-driven arm of `vsched run`: replays the config's trace under
/// each configured policy and prints the same comparison tables as a
/// static run, plus the per-policy run fingerprint.
fn run_traced_config(
    config: &ExperimentConfig,
    system: &vsched_core::SystemConfig,
    out_path: Option<&str>,
    jobs: Option<usize>,
) -> Result<(), Box<dyn std::error::Error>> {
    let schedule = config.schedule()?;
    let engine = config.engine_kind()?;
    // No stopping rule mid-trace: trace runs use a fixed count.
    let replications = config.replications.unwrap_or(3);
    println!("trace: {}", schedule.describe());
    let mut json_results = Vec::new();
    for policy in config.policy_kinds()? {
        let mut exp = vsched_trace::TraceExperiment::new(schedule.clone(), policy.clone())
            .engine(engine)
            .warmup(config.warmup)
            .horizon(config.horizon)
            .replications(replications);
        if let Some(seed) = config.seed {
            exp = exp.seed(seed);
        }
        if let Some(jobs) = jobs {
            exp = exp.jobs(jobs);
        }
        let result = exp.run()?;
        println!(
            "fingerprint {:016x}  ({})",
            result.fingerprint,
            policy.label()
        );
        let report = result.metrics_report(system.total_vcpus(), system.pcpus(), 0.95)?;
        print!("{}", render_report(system, &policy, &report));
        let mut entry = report_to_json(system, &policy, &report);
        if let serde_json::Value::Map(entries) = &mut entry {
            entries.push((
                "fingerprint".to_string(),
                serde_json::Value::Str(format!("{:016x}", result.fingerprint)),
            ));
        }
        json_results.push(entry);
    }
    if let Some(out) = out_path {
        let body = serde_json::to_string_pretty(&serde_json::json!({
            "config": config,
            "results": json_results,
        }))?;
        write_atomic(std::path::Path::new(out), &body)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("[wrote {out}]");
    }
    Ok(())
}
