//! Integration: every shipped config file under `configs/` parses, builds,
//! and runs end to end (with shortened horizons).
//!
//! `*.sweep.json` files are campaign specs, not single experiment configs;
//! they are validated by planning them (every cell must resolve to a
//! buildable system). Run configs are checked through the cells they
//! lower to. The campaign crate's own integration tests cover actually
//! running sweeps. The binary's command-line surface — `--help` and
//! unknown flags on every subcommand, `vsched env` refusing a
//! trace-driven config, and `vsched trace` rejecting at load what no
//! trace cell may run — is checked here too.

use std::fs;
use std::process::{Command, Output, Stdio};
use vsched_campaign::{plan, CellConfig, ReplicationSpec, SweepSpec};
use vsched_cli::ExperimentConfig;
use vsched_core::Engine;

/// Every subcommand with flags of its own.
const SUBCOMMANDS: [&str; 9] = [
    "run",
    "trace",
    "sweep",
    "fuzz",
    "verify",
    "lint",
    "perf",
    "tournament",
    "env",
];

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn configs_dir() -> std::path::PathBuf {
    // Shipped configs are written to be run from the repo root (relative
    // `trace` paths resolve against the working directory); make the test
    // process match. Both tests set the same directory, so concurrent
    // execution is safe.
    let root = repo_root();
    std::env::set_current_dir(&root).expect("repo root exists");
    root.join("configs")
}

/// Runs the `vsched` binary from the repo root with stdin closed.
fn vsched(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vsched"))
        .args(args)
        .current_dir(repo_root())
        .stdin(Stdio::null())
        .output()
        .expect("vsched runs")
}

fn is_sweep_spec(path: &std::path::Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".sweep.json"))
}

#[test]
fn shipped_configs_parse_and_build() {
    let mut found = 0;
    for entry in fs::read_dir(configs_dir()).expect("configs/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        found += 1;
        if is_sweep_spec(&path) {
            let spec = SweepSpec::load(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            let plan = plan(&spec).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert!(plan.total_cells() > 0, "{path:?} plans no cells");
            for exp in &plan.experiments {
                for cell in &exp.cells {
                    let system = cell
                        .config
                        .system()
                        .unwrap_or_else(|e| panic!("{path:?} {}: {e}", cell.key));
                    assert!(system.total_vcpus() > 0);
                    cell.config
                        .policy_kind()
                        .unwrap_or_else(|e| panic!("{path:?} {}: {e}", cell.key));
                }
            }
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable config");
        let config = ExperimentConfig::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let cells = config.cells().unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert_eq!(cells.len(), config.policies.len());
        for cell in &cells {
            let system = cell.system().unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert!(system.total_vcpus() > 0);
            cell.policy_kind()
                .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        }
    }
    assert!(found >= 4, "expected the shipped configs, found {found}");
}

#[test]
fn shipped_configs_run_quickly() {
    for entry in fs::read_dir(configs_dir()).expect("configs/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "json") || is_sweep_spec(&path) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable config");
        let config = ExperimentConfig::from_json(&text).expect("valid config");
        // Shortened run: first policy only, tiny horizon, direct engine.
        // A trace-driven config runs as a trace.
        let cell = CellConfig {
            engine: Engine::Direct,
            warmup: 200,
            horizon: 2_000,
            replications: ReplicationSpec::Exact(2),
            ..config.cells().expect("valid cells").swap_remove(0)
        };
        let report = cell
            .run_report()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(report.avg_pcpu_utilization() > 0.0, "{path:?} ran");
    }
}

#[test]
fn every_subcommand_answers_help() {
    for cmd in SUBCOMMANDS {
        for flag in ["--help", "-h"] {
            let out = vsched(&[cmd, flag]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "`vsched {cmd} {flag}` exited {:?}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.contains("USAGE:"), "`vsched {cmd} {flag}`: {stdout}");
        }
    }
}

#[test]
fn every_subcommand_rejects_unknown_flags() {
    // Never opened as a file, never run: rejected while parsing.
    for cmd in SUBCOMMANDS {
        let args: &[&str] = if cmd == "trace" {
            &[
                "trace",
                "run",
                "configs/traces/churn_small.jsonl",
                "--bogus",
            ]
        } else {
            &[cmd, "--bogus"]
        };
        let out = vsched(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`vsched {args:?}`: {stderr}");
        assert!(
            stderr.contains("unexpected argument `--bogus`"),
            "`vsched {args:?}`: {stderr}"
        );
    }
}

#[test]
fn env_refuses_trace_configs() {
    // An episode runs a fixed VM population, so a trace-driven config is
    // refused before the handshake rather than hosted as its union
    // topology.
    let out = vsched(&["env", "configs/churn_trace.run.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("trace-driven"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn trace_run_is_a_trace_cell_and_needs_two_replications() {
    // `trace run` lowers to the cell a run config would, so the same
    // replication floor rejects it at load, before anything runs.
    let out = vsched(&[
        "trace",
        "run",
        "configs/traces/churn_small.jsonl",
        "--replications",
        "1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("replications"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_trace_verb_applies_the_one_platform_rule() {
    for verb in ["validate", "describe", "head", "run"] {
        for (args, needle) in [
            (vec!["configs/traces/lifetimes.csv"], "set `pcpus`"),
            (
                vec!["configs/traces/churn_small.jsonl", "--pcpus", "4"],
                "omit `pcpus`",
            ),
        ] {
            let mut argv = vec!["trace", verb];
            argv.extend(args);
            let out = vsched(&argv);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
            assert!(stderr.contains(needle), "{argv:?}: {stderr}");
        }
    }
}
