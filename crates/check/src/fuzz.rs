//! The `vsched fuzz` driver: generate → oracle → shrink → reproduce.
//!
//! Cases are independent, so the sweep fans out on the shared
//! `vsched-exec` work-stealing pool (`--jobs`); results come back in
//! case order regardless of scheduling, keeping the whole run — counts,
//! failure order, reproducer contents — deterministic for a given
//! `(seed, cases)` pair. Failures are shrunk sequentially afterwards
//! (there are normally zero) and each one is written as a replayable
//! JSON reproducer named `case-<index>.json`.

use std::path::{Path, PathBuf};

use vsched_core::CoreError;

use crate::case::Reproducer;
use crate::gen::CaseGen;
use crate::oracle::{run_case, CaseOutcome, FailureKind, OracleOpts};
use crate::shrink::shrink;
use crate::CheckError;

/// Knobs of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Number of cases to generate and judge.
    pub cases: u64,
    /// Master seed: case `i` is fully determined by `(seed, i)`.
    pub seed: u64,
    /// Worker threads (`None` = one per available core).
    pub jobs: Option<usize>,
    /// Where to write reproducers for failing cases (`None` = don't).
    pub reproducer_dir: Option<PathBuf>,
    /// Oracle tolerances and verdict toggles.
    pub oracle: OracleOpts,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            cases: 200,
            seed: 42,
            jobs: None,
            reproducer_dir: None,
            oracle: OracleOpts::default(),
        }
    }
}

/// One failing case, post-shrink.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the originally generated case.
    pub case_index: u64,
    /// The shrunk case's oracle outcome.
    pub outcome: CaseOutcome,
    /// Where the reproducer was written, if a directory was given.
    pub reproducer: Option<PathBuf>,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases judged.
    pub cases: u64,
    /// Static-analysis rejections (pre-simulation) across failing cases.
    pub lint_findings: usize,
    /// Invariant-checker vetoes across all failing cases.
    pub invariant_violations: usize,
    /// Engine-vs-engine disagreements.
    pub differential_mismatches: usize,
    /// Broken metamorphic relations (rotation, co-scaling, parallel
    /// determinism).
    pub metamorphic_mismatches: usize,
    /// SAN incremental-vs-full-rescan divergences.
    pub incremental_divergences: usize,
    /// Env episode-vs-monolithic or episode-vs-replay divergences.
    pub env_divergences: usize,
    /// Traced-replay divergences (invariants under churn, engine
    /// disagreement on traced metrics, jobs fingerprint drift).
    pub trace_divergences: usize,
    /// Outright run errors.
    pub errors: usize,
    /// The shrunk failures, in case order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether every case passed every verdict.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line summary the CLI prints (and CI greps).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "fuzz: {} cases, {} lint findings, {} invariant violations, \
             {} differential mismatches, {} metamorphic mismatches, \
             {} incremental divergences, {} env divergences, \
             {} trace divergences, {} errors",
            self.cases,
            self.lint_findings,
            self.invariant_violations,
            self.differential_mismatches,
            self.metamorphic_mismatches,
            self.incremental_divergences,
            self.env_divergences,
            self.trace_divergences,
            self.errors
        )
    }
}

/// Runs a full fuzz sweep.
///
/// # Errors
///
/// [`CheckError::Io`] if a reproducer cannot be written. Failing *cases*
/// are not errors — they are reported in the returned [`FuzzReport`].
pub fn run_fuzz(opts: &FuzzOpts) -> Result<FuzzReport, CheckError> {
    let generator = CaseGen::new(opts.seed);
    let jobs = vsched_exec::resolve_jobs(opts.jobs);
    let outcomes: Vec<CaseOutcome> = vsched_exec::run_indexed(
        jobs,
        0,
        opts.cases as usize,
        |i| -> Result<CaseOutcome, CoreError> { Ok(run_case(&generator.case(i), &opts.oracle)) },
    )
    .expect("fuzz tasks are infallible");

    let mut report = FuzzReport {
        cases: opts.cases,
        lint_findings: 0,
        invariant_violations: 0,
        differential_mismatches: 0,
        metamorphic_mismatches: 0,
        incremental_divergences: 0,
        env_divergences: 0,
        trace_divergences: 0,
        errors: 0,
        failures: Vec::new(),
    };

    for outcome in outcomes {
        if outcome.passed() {
            continue;
        }
        for f in &outcome.failures {
            match f.kind {
                FailureKind::Lint => report.lint_findings += 1,
                FailureKind::Invariant => report.invariant_violations += 1,
                FailureKind::Differential => report.differential_mismatches += 1,
                FailureKind::Metamorphic => report.metamorphic_mismatches += 1,
                FailureKind::Incremental => report.incremental_divergences += 1,
                FailureKind::Env => report.env_divergences += 1,
                FailureKind::Trace => report.trace_divergences += 1,
                FailureKind::Error => report.errors += 1,
            }
        }
        let case = generator.case(outcome.case_index);
        let (shrunk, shrunk_outcome) = shrink(&case, &outcome, &opts.oracle);
        let reproducer = match &opts.reproducer_dir {
            Some(dir) => Some(write_reproducer(dir, &shrunk, &shrunk_outcome)?),
            None => None,
        };
        report.failures.push(FuzzFailure {
            case_index: outcome.case_index,
            outcome: shrunk_outcome,
            reproducer,
        });
    }
    Ok(report)
}

fn write_reproducer(
    dir: &Path,
    case: &crate::case::FuzzCase,
    outcome: &CaseOutcome,
) -> Result<PathBuf, CheckError> {
    std::fs::create_dir_all(dir).map_err(|e| CheckError::io(dir, e))?;
    let path = dir.join(format!("case-{}.json", case.case_index));
    let reproducer = Reproducer {
        case: case.clone(),
        failures: outcome.failures.iter().map(ToString::to_string).collect(),
        verify: None,
    };
    reproducer.store(&path)?;
    Ok(path)
}

/// Replays a reproducer file: re-runs its case through the oracle and
/// returns the fresh outcome. Two replays of the same file produce equal
/// outcomes (including the report digest) — this is the determinism
/// check CI performs.
///
/// # Errors
///
/// [`CheckError`] if the file cannot be read or parsed.
pub fn replay(path: &Path, opts: &OracleOpts) -> Result<CaseOutcome, CheckError> {
    let reproducer = Reproducer::load(path)?;
    Ok(run_case(&reproducer.case, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(cases: u64) -> FuzzOpts {
        FuzzOpts {
            cases,
            seed: 42,
            jobs: Some(2),
            reproducer_dir: None,
            // The full oracle runs in the dedicated fuzz test tier; unit
            // tests keep to the cheap differential verdict.
            oracle: OracleOpts {
                check_invariants: false,
                check_parallel_determinism: false,
                check_metamorphic: false,
                ..OracleOpts::default()
            },
        }
    }

    #[test]
    fn a_small_sweep_is_clean_and_deterministic() {
        let a = run_fuzz(&quick_opts(6)).unwrap();
        assert!(a.clean(), "{:?}", a.failures);
        assert!(a.summary().contains("6 cases"));
        assert!(a.summary().contains("0 invariant violations"));
        assert!(a.summary().contains("0 trace divergences"));
        let b = run_fuzz(&quick_opts(6)).unwrap();
        assert_eq!(a.cases, b.cases);
        assert!(b.clean());
    }
}
