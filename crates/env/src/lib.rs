//! # vsched-env — a gym-style environment over the vsched engines
//!
//! This crate turns either simulation engine into a sequential
//! decision-making environment: `reset(seed) → Observation`,
//! `step(action) → (Observation, reward, done, info)`. Decision epochs
//! are exactly the points where a [`vsched_core::SchedulingPolicy`] is
//! consulted today — one per tick, with the very views the policy would
//! see — so a learned agent and a built-in policy play the same game by
//! construction.
//!
//! Three layers:
//!
//! * [`Env`] ([`mod@env`]): the environment core. The engine runs on the
//!   caller's thread, paused between calls where the policy would be
//!   consulted; observations are masked to the agent's declared
//!   [`vsched_core::sched::ViewFields`];
//!   rewards are the paper's three metrics as a differenced weighted
//!   scalar ([`RewardWeights`]); episodes are bit-identically replayable
//!   ([`replay_actions`]) and fingerprinted ([`EpisodeEnd`]).
//! * [`proto`]: the JSON-lines wire protocol (externally tagged
//!   messages, one per line, versioned handshake).
//! * [`remote`]: transports and hosting. [`RemotePolicy`] hosts an
//!   external agent process; [`serve`] lets an external trainer host the
//!   environment. Every agent misbehavior is a typed [`PolicyFault`]
//!   that fails the episode, never the process.

pub mod env;
pub mod obs;
pub mod proto;
pub mod remote;

pub use env::{
    drive_policy, replay_actions, Env, EnvError, EpisodeEnd, EpisodeRun, Scenario, Step,
};
pub use obs::{mask_view, Observation, RewardWeights, StepInfo};
pub use proto::{Message, PROTO_VERSION};
pub use remote::{
    run_remote_episode, serve, EpisodeError, LineTransport, PolicyFault, RemotePolicy, ServeStats,
    DEFAULT_TIMEOUT,
};
