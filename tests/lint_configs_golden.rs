//! Golden report test: `vsched lint --format json` on the checked-in run
//! configs is pinned byte for byte.
//!
//! The report covers the paper model under every policy each config
//! names: its structural pass (incidence columns, P- and T-semiflows,
//! conservation laws, certificates), the probed firings and the
//! read-set lints. The analyzer is deterministic, so a change to the
//! model or to the engine's enabling semantics that shifts any of it
//! shows here as a diff — a deliberate, reviewed act.
//!
//! To re-bless after an intentional change:
//! `VSCHED_BLESS=1 cargo test -p vsched-cli --test lint_configs_golden`

use std::path::PathBuf;
use std::process::Command;

/// The run configs the snapshot covers, relative to the workspace root.
const CONFIGS: [&str; 5] = [
    "configs/fig8_fairness.json",
    "configs/fig10_sync_latency.json",
    "configs/spinlock_contention.json",
    "configs/weighted_credit.json",
    "configs/churn_trace.run.json",
];

const SNAPSHOT: &str = "tests/golden/lint_configs.json";

#[test]
fn config_lint_report_matches_snapshot() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_vsched"))
        .current_dir(&root)
        .args(["lint", "--format", "json"])
        .args(CONFIGS)
        .output()
        .expect("vsched runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "the paper model lints clean:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("the report is UTF-8");
    for config in CONFIGS {
        assert!(actual.contains(config), "{config} is reported");
    }
    let path = root.join(SNAPSHOT);
    if std::env::var_os("VSCHED_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("snapshot missing: run with VSCHED_BLESS=1 to create it");
    assert_eq!(
        actual, expected,
        "`vsched lint --format json` drifted from {SNAPSHOT}; \
         if intentional, re-bless with VSCHED_BLESS=1"
    );
}
