//! Golden report test: `vsched verify`'s text report is pinned byte for
//! byte, for the default 8-policy matrix and for BAL on 4 VMs x 2 VCPUs
//! x 4 PCPUs at horizon 12.
//!
//! The text form is pinned; the JSON form carries the same
//! exact-vs-structural place bounds and cross-check findings, and a
//! test checks the BAL findings there too. The verifier is
//! deterministic, so any change to the state key, the exploration, the
//! certificates or the report layout that shifts this output must
//! re-bless the snapshots — a deliberate, reviewed act.
//!
//! To re-bless after an intentional change:
//! `VSCHED_BLESS=1 cargo test -p vsched-cli --test verify_golden`

use std::path::PathBuf;
use std::process::Command;

/// The `stale-bound` subjects on BAL at 4x2x4, horizon 12: places the
/// exhaustive search changes but the structural walks never do.
const BAL_4X2X4_STALE: [&str; 3] = [
    "vm0/vcpu0/slot.sync_point",
    "vm3/vcpu1/slot.remaining_load",
    "vm3/vcpu1/slot.sync_point",
];

/// Runs `vsched verify <args>` and returns its stdout and exit code.
fn verify(args: &str) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_vsched"))
        .arg("verify")
        .args(args.split_whitespace())
        .output()
        .expect("vsched runs");
    let stdout = String::from_utf8(out.stdout).expect("the report is UTF-8");
    (stdout, out.status.code())
}

/// Compares `actual` with `tests/golden/<name>`, or rewrites the file
/// when `VSCHED_BLESS` is set.
fn matches_snapshot(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("VSCHED_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("snapshot missing: run with VSCHED_BLESS=1 to create it");
    assert_eq!(
        actual, expected,
        "`vsched verify` report drifted from {name}; \
         if intentional, re-bless with VSCHED_BLESS=1"
    );
}

#[test]
fn default_matrix_report_matches_snapshot() {
    let (report, status) = verify("");
    assert_eq!(status, Some(0), "every built-in policy proves clean");
    assert_eq!(report.matches(": PROVED").count(), 8, "{report}");
    matches_snapshot("verify_default.txt", &report);
}

#[test]
fn bal_4x2x4_report_matches_snapshot() {
    let (report, _) = verify("--vms 4 --pcpus 4 --horizon 12 --policy bal");
    // Bounds are folded over visited markings only: the exhaustive search
    // never puts a token on these two places, so they must not be
    // reported as stale structural bounds.
    for unreached in ["vm1/vcpu1/slot.sync_point", "vm2/vcpu1/slot.sync_point"] {
        assert!(
            !report.contains(&format!("stale-bound: {unreached}:")),
            "{unreached} flagged although never reached:\n{report}"
        );
    }
    let stale: Vec<&str> = report
        .lines()
        .filter_map(|l| l.strip_prefix("  cross-check stale-bound: "))
        .filter_map(|l| l.split(':').next())
        .collect();
    assert_eq!(stale, BAL_4X2X4_STALE);
    matches_snapshot("verify_bal_4x2x4.txt", &report);
}

#[test]
fn bal_4x2x4_json_carries_the_structural_bounds_and_the_cross_check() {
    let (text, _) = verify("--vms 4 --pcpus 4 --horizon 12 --policy bal --format json");
    let reports: serde_json::Value = serde_json::from_str(&text).expect("JSON");
    let report = &reports[0];
    let stale: Vec<&str> = report["cross_check"]
        .as_array()
        .expect("a cross_check array")
        .iter()
        .filter(|f| f["lint"].as_str() == Some("stale-bound"))
        .map(|f| f["subject"].as_str().expect("a subject"))
        .collect();
    assert_eq!(stale, BAL_4X2X4_STALE);
    // Each exact bound comes with its structural claim, as in the text
    // report's table: 1 against 0 on the first stale place.
    let bounds = report["place_bounds"].as_array().expect("place bounds");
    assert!(bounds.iter().all(|b| b.get("structural_bound").is_some()));
    let first = bounds
        .iter()
        .find(|b| b["place"].as_str() == Some(BAL_4X2X4_STALE[0]))
        .expect("the place is reported");
    assert_eq!(first["bound"].as_i64(), Some(1));
    assert_eq!(first["structural_bound"].as_i64(), Some(0));
}

#[test]
fn the_fixture_json_carries_the_cross_check() {
    let (text, status) = verify("--fixture deadlock --format json");
    assert_eq!(status, Some(1), "the planted deadlock is a violation");
    let report: serde_json::Value = serde_json::from_str(&text).expect("JSON");
    assert_eq!(report["outcome"].as_str(), Some("violated"));
    assert!(report["cross_check"].as_array().is_some(), "{text}");
    let bounds = report["place_bounds"].as_array().expect("place bounds");
    assert!(bounds.iter().all(|b| b.get("structural_bound").is_some()));
}
