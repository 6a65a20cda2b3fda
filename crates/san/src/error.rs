//! Error type for SAN model construction and simulation.

use std::error::Error;
use std::fmt;

/// Errors from building or simulating a SAN model.
#[derive(Debug, Clone, PartialEq)]
pub enum SanError {
    /// A place with this name already exists in the model.
    DuplicatePlace {
        /// The conflicting place name.
        name: String,
    },
    /// An activity with this name already exists in the model.
    DuplicateActivity {
        /// The conflicting activity name.
        name: String,
    },
    /// No place with this name exists.
    UnknownPlace {
        /// The requested place name.
        name: String,
    },
    /// An arc was declared with a non-positive token weight.
    InvalidArcWeight {
        /// Activity the arc belongs to.
        activity: String,
        /// The offending weight.
        weight: i64,
    },
    /// An activity's case weights are invalid: a fixed weight that is not
    /// positive and finite, or, met by the CTMC solver on a reachable
    /// marking, dynamic weights of the wrong count or without a positive
    /// finite total.
    InvalidCaseWeight {
        /// Activity the case belongs to.
        activity: String,
    },
    /// The simulator detected an unbounded chain of zero-delay completions —
    /// the model's instantaneous activities re-enable one another forever.
    InstantaneousLoop {
        /// Virtual time at which the loop was detected.
        at_time: f64,
        /// Number of zero-advance completions tolerated before giving up.
        limit: u64,
    },
    /// The model already holds as many places as a 32-bit
    /// [`crate::PlaceId`] can address.
    TooManyPlaces {
        /// The place that did not fit.
        name: String,
    },
    /// A distribution parameter error bubbled up from the DES kernel.
    Distribution(vsched_des::DesError),
    /// Numerical solution requires every timed activity to be exponential.
    NotMarkovian {
        /// The offending (non-exponential) activity.
        activity: String,
    },
    /// State-space exploration exceeded the configured limit.
    StateSpaceExceeded {
        /// The configured state cap.
        limit: usize,
    },
    /// `.reads(...)` was called where no immediately preceding closure
    /// (guard, output gate, rate multiplier, or dynamic case weights) can
    /// accept a read-set declaration.
    MisplacedReads {
        /// Activity being built when the misplaced declaration occurred.
        activity: String,
    },
    /// `.writes(...)` was called where no immediately preceding output
    /// gate can accept a write-set declaration.
    MisplacedWrites {
        /// Activity being built when the misplaced declaration occurred.
        activity: String,
    },
}

impl fmt::Display for SanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanError::DuplicatePlace { name } => write!(f, "duplicate place `{name}`"),
            SanError::DuplicateActivity { name } => {
                write!(f, "duplicate activity `{name}`")
            }
            SanError::UnknownPlace { name } => write!(f, "unknown place `{name}`"),
            SanError::InvalidArcWeight { activity, weight } => {
                write!(f, "activity `{activity}` has arc with invalid weight {weight}")
            }
            SanError::InvalidCaseWeight { activity } => {
                write!(f, "activity `{activity}` has invalid case weights")
            }
            SanError::InstantaneousLoop { at_time, limit } => write!(
                f,
                "instantaneous-activity loop at t={at_time}: more than {limit} completions without time advancing"
            ),
            SanError::TooManyPlaces { name } => write!(
                f,
                "place `{name}` does not fit: a model holds at most 2^32 places"
            ),
            SanError::Distribution(e) => write!(f, "distribution error: {e}"),
            SanError::NotMarkovian { activity } => write!(
                f,
                "activity `{activity}` is not exponential; numerical solution requires a Markovian model"
            ),
            SanError::StateSpaceExceeded { limit } => {
                write!(f, "state space exceeds the configured limit of {limit} states")
            }
            SanError::MisplacedReads { activity } => write!(
                f,
                "activity `{activity}`: .reads(...) must immediately follow the closure it describes \
                 (guard, output gate, rate multiplier, or dynamic case weights)"
            ),
            SanError::MisplacedWrites { activity } => write!(
                f,
                "activity `{activity}`: .writes(...) must immediately follow the output gate it \
                 describes"
            ),
        }
    }
}

impl Error for SanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SanError::Distribution(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vsched_des::DesError> for SanError {
    fn from(e: vsched_des::DesError) -> Self {
        SanError::Distribution(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SanError::DuplicatePlace { name: "p".into() }
            .to_string()
            .contains("duplicate place"));
        assert!(SanError::UnknownPlace { name: "q".into() }
            .to_string()
            .contains("unknown place"));
        assert!(SanError::InstantaneousLoop {
            at_time: 3.0,
            limit: 10
        }
        .to_string()
        .contains("t=3"));
    }

    #[test]
    fn from_des_error() {
        let e: SanError = vsched_des::DesError::InvalidDistribution {
            family: "uniform",
            reason: "bad".into(),
        }
        .into();
        assert!(matches!(e, SanError::Distribution(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
