//! Integration: every shipped config file under `configs/` parses, builds,
//! and runs end to end (with shortened horizons).
//!
//! `*.sweep.json` files are campaign specs, not single experiment configs;
//! they are validated by planning them (every cell must resolve to a
//! buildable system). The campaign crate's own integration tests cover
//! actually running sweeps. The binary's `--help` on every subcommand is
//! checked here too.

use std::fs;
use vsched_campaign::{plan, SweepSpec};
use vsched_cli::ExperimentConfig;
use vsched_core::ExperimentBuilder;

fn configs_dir() -> std::path::PathBuf {
    // Shipped configs are written to be run from the repo root (relative
    // `trace` paths resolve against the working directory); make the test
    // process match. Both tests set the same directory, so concurrent
    // execution is safe.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(&root).expect("repo root exists");
    root.join("configs")
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
        let system = config.system().unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(system.total_vcpus() > 0);
        config
            .policy_kinds()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        config
            .engine_kind()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
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
        let system = config.system().expect("valid system");
        // Shortened run: first policy only, tiny horizon, direct engine.
        let policy = config.policy_kinds().expect("valid policies")[0].clone();
        let report = ExperimentBuilder::new(system, policy)
            .engine(vsched_core::Engine::Direct)
            .warmup(200)
            .horizon(2_000)
            .replications_exact(2)
            .run()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(report.avg_pcpu_utilization() > 0.0, "{path:?} ran");
    }
}

#[test]
fn every_subcommand_answers_help() {
    let commands = [
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
    for cmd in commands {
        for flag in ["--help", "-h"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_vsched"))
                .args([cmd, flag])
                .output()
                .expect("vsched runs");
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
