//! # vsched-core — a simulation framework to evaluate VCPU scheduling algorithms
//!
//! A from-scratch Rust reproduction of *"A Simulation Framework to Evaluate
//! Virtual CPU Scheduling Algorithms"* (Pham, Li, Estrada, Kalbarczyk, Iyer —
//! IEEE ICDCS Workshops 2013).
//!
//! ## What this crate models
//!
//! A virtualization system: physical CPUs (**PCPUs**), a hypervisor **VCPU
//! scheduler** driven by a unit-period clock, and a set of **VMs**, each
//! containing a workload generator, a job scheduler, and one or more
//! **VCPUs**. The hypervisor assigns PCPUs to VCPUs according to a pluggable
//! scheduling algorithm — the paper's `bool schedule(VCPU_host_external*,
//! int, PCPU_external*, int, long)` C interface becomes the
//! [`SchedulingPolicy`] trait here.
//!
//! Two execution engines share identical semantics:
//!
//! * [`san_model`] — the faithful reproduction: the system is compiled into
//!   a Stochastic Activity Network (via `vsched-san`, our Mobius
//!   replacement) mirroring the paper's Figures 3–7, and simulated with
//!   reward variables.
//! * [`direct`] — a fast time-stepped engine used to validate the SAN
//!   model's fidelity (the paper's Discussion §V asks for exactly this) and
//!   to run large parameter sweeps.
//!
//! ## Built-in policies
//!
//! * [`sched::RoundRobin`] — the naive default of KVM/VirtualBox (**RRS**),
//! * [`sched::StrictCo`] — VMware-style gang scheduling (**SCS**),
//! * [`sched::RelaxedCo`] — ESX 3/4 relaxed co-scheduling with a
//!   cumulative-skew threshold (**RCS**),
//! * [`sched::Balance`] — Sukwong & Kim's balance scheduling
//!   (anti-VCPU-stacking),
//! * [`sched::Credit`] — a Xen-like proportional-share credit scheduler,
//! * [`sched::Sedf`] — Xen's Simple Earliest Deadline First scheduler,
//! * [`sched::Bvt`] — Borrowed Virtual Time,
//! * [`sched::Fcfs`] — first-come-first-served baseline.
//!
//! ## Metrics (the paper's three reward variables)
//!
//! * **VCPU availability** — fraction of time a VCPU is ACTIVE (READY or
//!   BUSY); the fairness metric of Figure 8.
//! * **PCPU utilization** — fraction of time a PCPU is assigned; the
//!   fragmentation metric of Figure 9.
//! * **VCPU utilization** — fraction of time a VCPU is BUSY processing
//!   workload; the synchronization-latency metric of Figure 10.
//!
//! ## Quickstart
//!
//! ```
//! use vsched_core::{ExperimentBuilder, PolicyKind, SystemConfig};
//!
//! // Three VMs (2 + 1 + 1 VCPUs) sharing 2 PCPUs, 1:5 sync ratio.
//! let config = SystemConfig::builder()
//!     .pcpus(2)
//!     .vm(2)
//!     .vm(1)
//!     .vm(1)
//!     .sync_ratio(1, 5)
//!     .build()?;
//!
//! let report = ExperimentBuilder::new(config, PolicyKind::RoundRobin)
//!     .horizon(2_000)
//!     .replications_exact(3)
//!     .run()?;
//!
//! // Round-robin is fair: every VCPU gets a similar share.
//! let avail = report.vcpu_availability_means();
//! assert!(avail.iter().all(|a| (a - avail[0]).abs() < 0.1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod direct;
pub mod error;
pub mod fnv;
pub mod metrics;
pub mod observe;
pub mod runner;
pub mod san_model;
pub mod sched;
pub mod spec;
pub mod types;
pub(crate) mod util;

pub use config::{SyncMechanism, SystemConfig, SystemConfigBuilder, VmSpec, WorkloadSpec};
pub use error::CoreError;
pub use fnv::Fnv;
pub use metrics::{MetricsReport, SampleMetrics};
pub use observe::TickObserver;
pub use runner::{Engine, ExperimentBuilder, Simulation};
pub use sched::{PolicyKind, ScheduleDecision, SchedulingPolicy};
pub use spec::{DistSpec, SyncMechanismSpec};
pub use types::{PcpuView, VcpuId, VcpuStatus, VcpuView};
