//! # vsched-campaign
//!
//! Declarative parameter-sweep campaigns for the vsched simulation
//! framework — the experiment-management layer the paper's evaluation
//! implies: Figures 8–10 are sweeps over policies × PCPUs × VM sets ×
//! sync ratios, and this crate turns such sweeps into data.
//!
//! A campaign is described by a JSON *sweep spec* ([`spec::SweepSpec`]):
//! named experiments, each a `base` cell config plus `axes` whose
//! cartesian product the planner ([`plan()`]) expands into fully-resolved
//! [`spec::CellConfig`] cells. Each cell gets a content-addressed key
//! ([`key::cell_key`]) — a hash of its canonical JSON plus the engine
//! version — under which its result lives in an on-disk store
//! ([`store::ResultStore`]). The orchestrator ([`orchestrator`]) runs
//! only the missing cells, work-stealing across cells on the shared
//! `vsched-exec` pool, committing each result atomically; the renderers
//! ([`mod@render`]) then rebuild the paper's figures from the store.
//!
//! The consequences fall out of the design rather than being bolted on:
//!
//! * **Crash safety / resume** — results commit atomically per cell, so a
//!   killed campaign re-run completes exactly the missing cells.
//! * **Precise invalidation** — editing one axis value changes only the
//!   affected cells' keys; everything else stays cached. Bumping
//!   [`key::ENGINE_VERSION`] invalidates the world.
//! * **Cross-experiment dedup** — identical cells in different figures
//!   (e.g. the Figure 9 grid reappearing inside Figure 10's 1:5 column)
//!   simulate once.
//! * **Determinism** — figures render from the store alone, so a warm
//!   re-run is byte-identical to the cold run and performs zero
//!   simulations.
//!
//! The whole pipeline is driven by [`sweep::run_sweep`], which backs the
//! `vsched sweep` CLI subcommand. Its progress lines and figures, like
//! the tournament's, print through [`STDOUT`], which goes quiet instead
//! of panicking when the reader closes the pipe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod console;
pub mod error;
pub mod fsio;
pub mod key;
pub mod orchestrator;
pub mod plan;
pub mod render;
pub mod spec;
pub mod store;
pub mod sweep;
mod table;

pub use console::STDOUT;
pub use error::CampaignError;
pub use key::{cell_key, ENGINE_VERSION};
pub use plan::{plan, Plan, PlannedCell, PlannedExperiment};
pub use render::{render, RenderedFigure};
pub use spec::{
    AxisSpec, CellConfig, CreditParams, DistSpec, EngineSpec, ExperimentSpec, PointSpec,
    PolicySpec, RcsParams, ReplicationSpec, SweepSpec, SyncMechanismSpec,
};
pub use store::{ResultStore, StoredCell};
pub use sweep::{run_sweep, SweepOptions, SweepOutcome};
