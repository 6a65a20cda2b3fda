//! A reader that closes `vsched`'s stdout early (`vsched sweep ... |
//! head -1`) must not make it panic: the run stops printing, finishes its
//! store, figures and `--out` file, and exits normally.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vsched-closed-stdout-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `vsched <args>` from the workspace root, reads the first line of
/// its stdout, closes the pipe, and returns the exit code and stderr.
fn run_closing_stdout_after_one_line(args: &[&str]) -> (Option<i32>, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut child = Command::new(env!("CARGO_BIN_EXE_vsched"))
        .current_dir(root)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("vsched starts");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("a first line");
    assert!(!first.is_empty(), "vsched printed nothing");
    // The reader is dropped here: the pipe is closed.
    let out = child.wait_with_output().expect("vsched exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_sweep_into_a_closed_pipe_still_writes_its_figures() {
    let dir = scratch("sweep");
    let (store, out) = (dir.join("store"), dir.join("out"));
    let (code, stderr) = run_closing_stdout_after_one_line(&[
        "sweep",
        "configs/ci.sweep.json",
        "--jobs",
        "2",
        "--store",
        store.to_str().unwrap(),
        "--out-dir",
        out.to_str().unwrap(),
    ]);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(code, Some(101), "{stderr}");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(out.join("ci_smoke.json").is_file(), "the figure is on disk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tournament_into_a_closed_pipe_still_writes_its_report() {
    let dir = scratch("tournament");
    let (store, report) = (dir.join("store"), dir.join("t.json"));
    let (code, stderr) = run_closing_stdout_after_one_line(&[
        "tournament",
        "--policies",
        "rrs,credit",
        "--jobs",
        "2",
        "--store",
        store.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(code, Some(101), "{stderr}");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(report.is_file(), "the --out report is on disk");
    let _ = std::fs::remove_dir_all(&dir);
}
