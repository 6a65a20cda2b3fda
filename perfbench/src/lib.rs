//! The vsched workspace benchmark: four workloads measured end to end
//! with tracing off, and a separate traced run that times the calls
//! into each crate's public functions from this package's own code.
//! See `README.md` for the workloads, metrics and how to run it.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod campaign;
pub mod churn;
pub mod harness;
pub mod ledger;
pub mod policy;
pub mod report;
pub mod rollout;

use vsched_core::PolicyKind;

/// The policy the churn and env workloads schedule with: relaxed
/// co-scheduling (RCS) at its default skew thresholds.
#[must_use]
pub fn rcs() -> PolicyKind {
    PolicyKind::relaxed_co_default()
}
