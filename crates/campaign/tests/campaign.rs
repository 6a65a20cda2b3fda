//! End-to-end campaign tests: crash-safe resume, warm-cache hits, and
//! precise invalidation when an axis value changes.
//!
//! These drive [`vsched_campaign::run_sweep`] exactly the way the
//! `vsched sweep` subcommand does, against throwaway spec/store/output
//! directories under the system temp dir.

use std::fs;
use std::path::{Path, PathBuf};

use vsched_campaign::{run_sweep, SweepOptions};

/// A 4-cell sweep (policy × timeslice) small enough to simulate in
/// milliseconds but big enough to kill partway through.
const SPEC: &str = r#"{
  "version": 1,
  "experiments": [
    {
      "name": "grid",
      "base": { "pcpus": 2, "vms": [1, 1], "warmup": 200, "horizon": 2000,
                "replications": 3, "engine": "direct" },
      "axes": [
        { "name": "policy", "points": [
          { "set": { "policy": "rrs" } },
          { "set": { "policy": "scs" } }
        ] },
        { "name": "timeslice", "points": [
          { "set": { "timeslice": 20 } },
          { "set": { "timeslice": 30 } }
        ] }
      ]
    }
  ]
}"#;

/// Same grid with one point of the timeslice axis edited (30 -> 50): the
/// two timeslice-20 cells must stay cached, the two new ones must run.
const SPEC_EDITED_AXIS: &str = r#"{
  "version": 1,
  "experiments": [
    {
      "name": "grid",
      "base": { "pcpus": 2, "vms": [1, 1], "warmup": 200, "horizon": 2000,
                "replications": 3, "engine": "direct" },
      "axes": [
        { "name": "policy", "points": [
          { "set": { "policy": "rrs" } },
          { "set": { "policy": "scs" } }
        ] },
        { "name": "timeslice", "points": [
          { "set": { "timeslice": 20 } },
          { "set": { "timeslice": 50 } }
        ] }
      ]
    }
  ]
}"#;

/// A fresh scratch campaign: spec on disk plus empty store/output dirs.
struct Scratch {
    dir: PathBuf,
    spec: PathBuf,
}

impl Scratch {
    fn new(tag: &str, spec: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("vsched-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        let spec_path = dir.join("sweep.json");
        fs::write(&spec_path, spec).expect("write spec");
        Self {
            dir,
            spec: spec_path,
        }
    }

    fn opts(&self) -> SweepOptions {
        SweepOptions {
            store_dir: Some(self.dir.join("store")),
            out_dir: Some(self.dir.join("out")),
            jobs: Some(2),
            quiet: true,
            ..SweepOptions::default()
        }
    }

    fn figure_bytes(&self, name: &str) -> Vec<u8> {
        let path = self.dir.join("out").join(format!("{name}.json"));
        fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn warm_run_is_all_cache_hits_and_byte_identical() {
    let scratch = Scratch::new("warm", SPEC);
    let cold = run_sweep(&scratch.spec, &scratch.opts()).expect("cold run");
    assert_eq!(cold.unique_cells, 4);
    assert_eq!(cold.simulated, 4);
    assert_eq!(cold.cached, 0);
    assert!(cold.skipped_experiments.is_empty());
    let cold_bytes = scratch.figure_bytes("grid");

    let warm = run_sweep(&scratch.spec, &scratch.opts()).expect("warm run");
    assert_eq!(warm.simulated, 0, "warm run must not simulate");
    assert_eq!(warm.cached, 4, "warm run must serve every cell from cache");
    assert_eq!(
        scratch.figure_bytes("grid"),
        cold_bytes,
        "warm output must be byte-identical to the cold run"
    );
}

#[test]
fn killed_campaign_resumes_with_only_missing_cells() {
    // Reference: an uninterrupted cold run in its own scratch area.
    let reference = Scratch::new("resume-ref", SPEC);
    run_sweep(&reference.spec, &reference.opts()).expect("reference run");
    let reference_bytes = reference.figure_bytes("grid");

    // "Kill" a second campaign after 2 of 4 cells via the max_cells hook.
    let scratch = Scratch::new("resume", SPEC);
    let partial = run_sweep(
        &scratch.spec,
        &SweepOptions {
            max_cells: Some(2),
            ..scratch.opts()
        },
    )
    .expect("partial run");
    assert_eq!(partial.simulated, 2);
    assert_eq!(
        partial.skipped_experiments,
        vec!["grid".to_string()],
        "incomplete experiment must not render"
    );
    assert!(
        !scratch.dir.join("out").join("grid.json").exists(),
        "no figure may be written from an incomplete cell set"
    );

    // Resuming completes only the 2 missing cells and renders the figure.
    let resumed = run_sweep(&scratch.spec, &scratch.opts()).expect("resumed run");
    assert_eq!(resumed.cached, 2, "finished cells must come from the store");
    assert_eq!(resumed.simulated, 2, "only missing cells may simulate");
    assert!(resumed.skipped_experiments.is_empty());
    assert_eq!(
        scratch.figure_bytes("grid"),
        reference_bytes,
        "resumed output must be bit-identical to an uninterrupted run"
    );
}

#[test]
fn editing_an_axis_invalidates_only_affected_cells() {
    let scratch = Scratch::new("invalidate", SPEC);
    let cold = run_sweep(&scratch.spec, &scratch.opts()).expect("cold run");
    assert_eq!(cold.simulated, 4);

    // Change one timeslice point: 30 -> 50. The two timeslice-20 cells are
    // untouched and must be cache hits; only the two new cells simulate.
    fs::write(&scratch.spec, SPEC_EDITED_AXIS).expect("rewrite spec");
    let edited = run_sweep(&scratch.spec, &scratch.opts()).expect("edited run");
    assert_eq!(edited.unique_cells, 4);
    assert_eq!(edited.cached, 2, "unaffected cells must stay cached");
    assert_eq!(edited.simulated, 2, "only cells on the edited axis re-run");
}

#[test]
fn dry_run_simulates_nothing() {
    let scratch = Scratch::new("dry", SPEC);
    let dry = run_sweep(
        &scratch.spec,
        &SweepOptions {
            dry_run: true,
            ..scratch.opts()
        },
    )
    .expect("dry run");
    assert_eq!(dry.unique_cells, 4);
    assert_eq!(dry.simulated, 0);
    assert!(
        !Path::new(&scratch.dir.join("store").join("cells")).exists() || {
            fs::read_dir(scratch.dir.join("store").join("cells"))
                .map(|d| d.count() == 0)
                .unwrap_or(true)
        }
    );
}
