//! Reward variables: the measurement side of a SAN.
//!
//! Mobius attaches *reward variables* to a model; the paper uses rate
//! rewards that "monitor the state transition of each VCPU" to compute
//! availability and utilization. A rate reward accumulates
//! `∫ f(marking(t)) dt`; its time average over the observation window is
//! the reported metric (e.g. the fraction of time a VCPU is ACTIVE).

use vsched_stats::TimeWeighted;

use crate::marking::{Marking, ReadSet};

/// Handle to a rate reward registered with a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RewardId(pub(crate) usize);

/// A reward function over markings.
pub type RewardFn = Box<dyn Fn(&Marking) -> f64>;

/// A rate reward's definition: what the simulator reads only when the
/// reward's value may change, or when its index is rebuilt.
pub(crate) struct RateReward {
    pub(crate) name: String,
    pub(crate) f: RewardFn,
    /// The places `f` declares it reads, sorted and deduplicated.
    pub(crate) reads: ReadSet,
}

/// A rate reward's running state. The simulator keeps these in one dense
/// array apart from the [`RateReward`]s, so advancing every accumulator
/// to a new instant streams 32 bytes per reward.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RewardState {
    pub(crate) acc: TimeWeighted,
    /// Value of `f` since the last state change (the signal is piecewise
    /// constant between completions).
    pub(crate) current: f64,
}

impl std::fmt::Debug for RateReward {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RateReward")
            .field("name", &self.name)
            .field("reads", &self.reads)
            .finish()
    }
}
