//! # vsched-san — a Stochastic Activity Network engine
//!
//! The paper builds its virtualization model on **Stochastic Activity
//! Networks** (Sanders & Meyer) simulated by the closed-source **Mobius**
//! tool. This crate is the open substitute: a complete SAN modeling and
//! discrete-event simulation engine.
//!
//! ## The formalism
//!
//! A SAN consists of:
//!
//! * **Places** hold a natural number of tokens and encode state
//!   ([`Marking`]). Structured state such as the paper's `VCPU_slot`
//!   extended place (`remaining_load` / `sync_point` / `status` fields) is
//!   one plain place per field.
//! * **Activities** are transitions. *Timed* activities complete after a
//!   random delay drawn from any [`vsched_des::Dist`]; *instantaneous*
//!   activities complete immediately, ordered by priority. An activity can
//!   have several probabilistic **cases** modeling alternative outcomes.
//! * **Arcs**: an *input arc* needs `w` tokens in its place and consumes
//!   them at completion; an *output arc* produces tokens for the chosen
//!   case. A *test arc* needs at least `k` tokens and an *inhibitor arc*
//!   fewer than `k`; neither moves a token ([`ActivityBuilder::test_arc`],
//!   [`ActivityBuilder::inhibitor_arc`]).
//! * **Input gates** guard enabling with a predicate; **output gates** run
//!   state updates for the chosen case.
//! * **Composed models**: a submodel is a function over the builder,
//!   namespaced by [`ModelBuilder::scope`]; submodels share state through
//!   place ids their caller passes in, so the flattened result is the
//!   composed model Mobius's *Join* would produce (the paper's Tables 1–2
//!   list the join places; `vsched-core` reproduces them verbatim).
//! * **Reward variables**: rate rewards, functions of the marking
//!   integrated over time ([`reward`]).
//!
//! ## Execution semantics
//!
//! The simulator ([`Simulator`]) implements the standard SAN policy: when an
//! activity becomes enabled its completion is scheduled after a sampled
//! delay; if a state change disables it before completion it **aborts**
//! (the sample is discarded). Completing an activity atomically consumes
//! its input arcs, evaluates the case weights on the marking that results
//! and selects a case, then produces the case's output arcs and runs its
//! output gates. The simulator, the analyzer's probes and the CTMC
//! explorer ([`numerical`]) share this one completion rule. Instantaneous
//! activities preempt timed ones at the same instant, higher priority
//! first.
//!
//! An activity is enabled when every input, test and inhibitor arc
//! condition holds and every gate predicate (and a rate multiplier, if
//! any) allows it. The simulator counts each activity's failing arc
//! conditions and revisits an activity only when that count reaches or
//! leaves 0, or when a place one of its predicates reads changes — so a
//! threshold guard is cheaper as an arc than as a closure.
//!
//! ## Example — an M/M/1 queue as a SAN
//!
//! ```
//! use vsched_san::{ModelBuilder, Simulator};
//! use vsched_des::Dist;
//!
//! let mut mb = ModelBuilder::new();
//! let queue = mb.place("queue", 0)?;
//! mb.activity("arrive")?
//!     .timed(Dist::exponential(2.0)?) // mean interarrival 2
//!     .output_arc(queue, 1)
//!     .done()?;
//! mb.activity("serve")?
//!     .timed(Dist::exponential(1.0)?) // mean service 1
//!     .input_arc(queue, 1)
//!     .done()?;
//! let model = mb.build()?;
//! let mut sim = Simulator::new(model, 42);
//! let qlen = sim.add_rate_reward("queue length", move |m| m.tokens(queue) as f64);
//! sim.run_until(10_000.0)?;
//! // M/M/1 with ρ = 0.5: E[Nq in queue excluding in-service] ≈ 0.5
//! assert!(sim.rate_reward_average(qlen) < 1.5);
//! # Ok::<(), vsched_san::SanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod builder;
mod calendar;
pub mod error;
pub mod gate;
mod index;
pub mod marking;
pub mod numerical;
pub mod reward;
pub mod sim;

pub use activity::{ActivityId, Timing};
pub use builder::{ActivityBuilder, Model, ModelBuilder};
pub use error::SanError;
pub use marking::{Marking, PlaceId, ReadSet};
pub use numerical::{solve_steady_state, solve_transient, CtmcOptions, CtmcSolution};
pub use reward::RewardId;
pub use sim::{RunStats, Simulator};
