//! Golden report test: `vsched verify`'s text report is pinned byte for
//! byte, for the default 8-policy matrix and for BAL on 4 VMs x 2 VCPUs
//! x 4 PCPUs at horizon 12.
//!
//! The text form is pinned, not the JSON, because only the text carries
//! the exact-vs-structural place-bound table and the cross-check
//! findings. The verifier is deterministic, so any change to the state
//! key, the exploration, the certificates or the report layout that
//! shifts this output must re-bless the snapshots — a deliberate,
//! reviewed act.
//!
//! To re-bless after an intentional change:
//! `VSCHED_BLESS=1 cargo test -p vsched-cli --test verify_golden`

use std::path::PathBuf;
use std::process::Command;

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
    assert_eq!(
        stale,
        [
            "vm0/vcpu0/slot.sync_point",
            "vm3/vcpu1/slot.remaining_load",
            "vm3/vcpu1/slot.sync_point",
        ],
        "places the exhaustive search changes but the structural walks never do"
    );
    matches_snapshot("verify_bal_4x2x4.txt", &report);
}
