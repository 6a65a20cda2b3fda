//! # vsched-check — differential fuzzing and runtime invariant checking
//!
//! The paper's value proposition is that a simulation framework lets you
//! *trust* comparisons between VCPU scheduling policies. This crate is the
//! correctness tooling behind that trust, in three layers:
//!
//! 1. [`InvariantChecker`] — a [`vsched_core::observe::TickObserver`]
//!    that rides either engine and asserts, every tick, the invariant
//!    catalogue of DESIGN.md §11: clock monotonicity, exclusive PCPU
//!    assignment, legal VCPU state transitions, SCS gang atomicity, the
//!    RCS cumulative-skew bound, and reward-accounting closure. The
//!    *decision* invariant ([`vsched_core::sched::validate_decision`],
//!    re-exported here as [`validate_decision`]) is enforced in-engine on
//!    every tick of every run, fuzzed or not.
//! 2. [`gen::CaseGen`] + [`oracle`] — a seeded random
//!    [`vsched_core::SystemConfig`]/[`vsched_core::PolicyKind`] generator
//!    and a differential oracle that runs every generated case on both
//!    engines (and on `jobs=1` vs `jobs=N`), comparing metrics within
//!    confidence-interval tolerance, plus metamorphic relations
//!    (VM-rotation invariance and time-unit co-scaling). Roughly half
//!    the generated cases carry a bounded churn scenario
//!    ([`case::TraceEventCase`]); the `trace` verdict replays it through
//!    `vsched-trace` on both engines with invariants attached and
//!    requires fingerprint bit-identity across `--jobs`.
//! 3. [`fuzz`] — the `vsched fuzz` driver: runs cases on the shared
//!    `vsched-exec` pool, shrinks failures by greedy component removal
//!    ([`shrink`]) and writes replayable JSON reproducers ([`case`]).
//!
//! ```
//! use vsched_check::{gen::CaseGen, oracle};
//!
//! let case = CaseGen::new(42).case(0);
//! let outcome = oracle::run_case(&case, &oracle::OracleOpts::default());
//! assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod fuzz;
pub mod gen;
pub mod invariant;
pub mod oracle;
pub mod shrink;
pub mod verify;

pub use case::{FuzzCase, Reproducer};
pub use fuzz::{run_fuzz, FuzzOpts, FuzzReport};
pub use invariant::InvariantChecker;
pub use oracle::{CaseOutcome, Failure, FailureKind, OracleOpts};
pub use verify::{
    replay_verify_counterexample, verify_config, verify_fixture, VerifyCounterexample, VerifyRun,
};
pub use vsched_core::sched::validate_decision;

use std::fmt;
use std::path::PathBuf;

/// Errors from loading or storing fuzz reproducers.
///
/// User-supplied paths (a `--replay` file, a `--reproducer-dir`) surface
/// as typed errors naming the offending path — never panics.
#[derive(Debug)]
pub enum CheckError {
    /// Filesystem failure, annotated with the path involved.
    Io {
        /// The file or directory being read or written.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A reproducer file is not valid reproducer JSON.
    Parse {
        /// The file that failed to parse.
        path: PathBuf,
        /// What the parser reported.
        reason: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Io { path, source } => {
                write!(f, "io error at {}: {source}", path.display())
            }
            CheckError::Parse { path, reason } => {
                write!(f, "cannot parse reproducer {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::Io { source, .. } => Some(source),
            CheckError::Parse { .. } => None,
        }
    }
}

impl CheckError {
    /// Wraps an [`std::io::Error`] with the path it occurred at.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        CheckError::Io {
            path: path.into(),
            source,
        }
    }

    /// Builds a [`CheckError::Parse`] from any displayable reason.
    pub fn parse(path: impl Into<PathBuf>, reason: impl fmt::Display) -> Self {
        CheckError::Parse {
            path: path.into(),
            reason: reason.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_paths() {
        let e = CheckError::io(
            "/tmp/x.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/tmp/x.json"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CheckError::parse("/tmp/y.json", "bad token");
        assert!(e.to_string().contains("bad token"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
