//! # vsched-stats — simulation output analysis
//!
//! Mobius terminates a simulation experiment when every reward variable's
//! confidence interval is tight enough (the paper reports every figure "with
//! 95% confidence level and <0.1 confidence interval"). This crate supplies
//! the statistical machinery to do the same:
//!
//! * [`Welford`] — numerically stable streaming mean/variance,
//! * [`TimeWeighted`] — time-weighted integrals for rate rewards
//!   (fraction-of-time-in-state metrics),
//! * [`student_t`] — Student-t quantiles computed from first principles
//!   (regularized incomplete beta + bisection), no tables,
//! * [`ConfidenceInterval`] — mean ± half-width at a configurable level,
//! * [`ReplicationController`] — independent-replication stopping rule:
//!   run until every tracked statistic meets its half-width criterion.
//!
//! ## Example
//!
//! ```
//! use vsched_stats::{ReplicationController, StoppingRule};
//!
//! let mut ctrl = ReplicationController::new(
//!     StoppingRule::new(0.95, 0.1).with_min_replications(5).with_max_replications(100),
//!     1, // one tracked statistic
//! );
//! let mut x = 0.0_f64;
//! while ctrl.needs_more() {
//!     x += 1.0;
//!     // a fake "replication" producing a noisy observation of 10
//!     ctrl.record(&[10.0 + (x * 0.7).sin() * 0.05]);
//! }
//! let ci = ctrl.interval(0)?;
//! assert!((ci.mean - 10.0).abs() < 0.1);
//! # Ok::<(), vsched_stats::StatsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod error;
pub mod replication;
pub mod student_t;
pub mod timeweighted;
pub mod welford;

pub use ci::ConfidenceInterval;
pub use error::StatsError;
pub use replication::{ReplicationController, StoppingRule};
pub use timeweighted::TimeWeighted;
pub use welford::Welford;
