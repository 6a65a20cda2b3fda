//! # vsched-des — discrete-event simulation kernel
//!
//! This crate is the lowest substrate of the `vsched-sim` workspace. It
//! provides the three ingredients every discrete-event simulator needs:
//!
//! * a **virtual clock** with a totally ordered, finite time type
//!   ([`SimTime`]),
//! * a **cancellable future-event list** ([`EventQueue`]) with deterministic
//!   tie-breaking (time, then priority, then insertion order) — the one
//!   event queue of the workspace, and
//! * **reproducible randomness**: a small, portable PRNG
//!   ([`rng::Xoshiro256StarStar`]) with independent per-component streams
//!   ([`rng::RngStreams`]) and a library of sampling
//!   [`dist::Dist`]ributions.
//!
//! The SAN engine (`vsched-san`) and the direct virtualization engine
//! (`vsched-core`) are both built on top of this crate. The SAN engine
//! keeps only its *timed* completions in an [`EventQueue`]: instantaneous
//! ones wait on its own zero-delay agenda, which never leaves the current
//! instant, so the queue holds a handful of events even on a 1000-VM
//! model.
//!
//! ## Example
//!
//! ```
//! use vsched_des::{EventQueue, SimTime};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::new(2.0), 0, "second");
//! queue.schedule(SimTime::new(1.0), 0, "first");
//! let (t, _, payload) = queue.pop().unwrap();
//! assert_eq!(t, SimTime::new(1.0));
//! assert_eq!(payload, "first");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod error;
pub mod event;
pub mod rng;
pub mod time;

pub use dist::Dist;
pub use error::DesError;
pub use event::{EventId, EventQueue};
pub use rng::{RngStreams, Xoshiro256StarStar};
pub use time::SimTime;
