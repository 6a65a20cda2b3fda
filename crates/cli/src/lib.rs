//! # vsched-cli — experiment configs and the `vsched` command
//!
//! The paper's pitch is that a user assembles a virtualization system,
//! plugs in an algorithm, and simulates — without writing simulator code.
//! The `vsched` binary delivers that workflow from the shell: experiments
//! are JSON files (see [`ExperimentConfig`]), results print as tables and
//! optionally dump as JSON.
//!
//! ```json
//! {
//!   "pcpus": 4,
//!   "vms": [
//!     { "vcpus": 2 },
//!     { "vcpus": 4, "weight": 2, "workload": {
//!         "load": { "uniform": { "low": 5.0, "high": 15.0 } },
//!         "sync_ratio": [1, 3],
//!         "sync_mechanism": "barrier" } }
//!   ],
//!   "timeslice": 30,
//!   "policies": ["rrs", "scs", { "rcs": { "skew_threshold": 5, "skew_resume": 2 } }],
//!   "engine": "san",
//!   "warmup": 1000,
//!   "horizon": 20000
//! }
//! ```
//!
//! A run config is a spelling of campaign cells: [`ExperimentConfig::cells`]
//! lowers it to one [`vsched_campaign::CellConfig`] per policy, and
//! `vsched run`, `lint`, `env` and `tournament` all work on those cells.
//! An omitted `replications` means the paper's stopping rule between 5
//! and 40 replications, or exactly 3 for a trace-driven config; a VM
//! workload's `sync_every` zeroes the Bernoulli sync probability it
//! replaces (see [`config`]). Every subcommand parses its flags with the
//! one parser in [`args`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod config;
pub mod output;
pub mod perf;
pub mod tournament;

pub use config::{
    env_scenario, is_sweep_spec, CreditParams, DistSpec, ExperimentConfig, PolicySpec, RcsParams,
    VmConfig,
};
pub use output::render_report;
pub use perf::{run_perf, PerfOpts, PerfReport};
pub use tournament::{render_policy_registry, run_tournament, TournamentOpts, TournamentReport};
