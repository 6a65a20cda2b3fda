//! # vsched-trace — trace-driven dynamic workloads
//!
//! Turns a timestamped trace of VM lifecycle events — arrivals (with a
//! shape), departures, load-level changes — into a first-class workload
//! both engines of `vsched-core` can execute. The paper's evaluation
//! (§IV) fixes the VM population for a whole run; this crate supplies
//! the *dynamic consolidation* setting its Discussion points at: VMs
//! arrive and depart mid-run, demand varies, and the scheduling policy
//! is judged on the workload a datacenter actually sees.
//!
//! The pipeline:
//!
//! 1. **Read** a dataset into `(line, RawEvent)` records — the native
//!    JSON-lines format ([`read_standard`]) or an Azure-style VM
//!    lifetime CSV ([`read_azure_csv`]). Errors are typed and carry
//!    `path:line`.
//! 2. **Compile** ([`TraceSchedule::compile`]) into the union topology
//!    plus a validated, time-sorted event list; per-VM [`LoadModel`]s
//!    expand into plain set-load events here.
//! 3. **Run** ([`TraceExperiment`]) on either engine: the union system
//!    is built once per replication (the SAN engine in its dynamic mode)
//!    and [`replay`]ed: absent VMs are retired before tick 0, and events
//!    apply at their boundaries. Replications parallelize
//!    bit-identically; [`TraceReport`] carries a fingerprint to prove it.
//!
//! A *degenerate* trace — everyone arrives at tick 0, full demand, no
//! departures — is bit-identical to the corresponding static topology
//! on both engines (pinned by the `trace_static_identity` test tier).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod load;
pub mod reader;
pub mod runner;
pub mod schedule;

pub use error::TraceError;
pub use event::{RawEvent, TraceMeta, VmShape};
pub use load::{LoadModel, LoadStep, FULL_LEVEL};
pub use reader::{
    load_standard, load_trace, read_azure_csv, read_azure_csv_str, read_standard,
    read_standard_str, write_standard,
};
pub use runner::{replay, TraceExperiment, TraceReport};
pub use schedule::{CompiledEvent, TraceAction, TraceSchedule};
