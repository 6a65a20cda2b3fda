//! The JSON-lines wire protocol between an environment and an agent.
//!
//! One message per line, externally tagged by its lower-case variant name:
//!
//! ```json
//! {"hello": {"proto": 1, "role": "env", "name": "fig8_fairness", "fields": ["remaining_load", "sync_point", "timeslice_remaining", "last_scheduled_in", "vm_weight"]}}
//! {"hello": {"proto": 1, "role": "agent", "name": "random", "fields": []}}
//! {"reset": {"seed": 7}}
//! {"obs": {"reward": 0.0, "done": false, "info": {...}, "observation": {...}}}
//! {"act": {"preemptions": [], "assignments": [{"vcpu": 0, "pcpu": 0, "timeslice": 30}]}}
//! {"error": {"message": "..."}}
//! "bye"
//! ```
//!
//! Whichever side *hosts* the transport speaks first: it sends its
//! `hello`, the peer replies with its own, and version/role mismatches
//! are typed faults ([`crate::PolicyFault`]), never process aborts. The
//! agent's `fields` list is its snapshot-view declaration — the
//! environment masks observations to exactly those payload fields, so an
//! undeclared read is unobservable by construction (see [`crate::obs`]).

use serde::{Deserialize, Serialize};
use vsched_core::sched::ViewFields;
use vsched_core::ScheduleDecision;

use crate::obs::{Observation, StepInfo};

/// Protocol version; bumped on any wire-incompatible change.
pub const PROTO_VERSION: u32 = 1;

/// A protocol message. See the module docs for the wire shapes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Message {
    /// Handshake, exchanged once per connection (host first).
    Hello {
        /// Protocol version ([`PROTO_VERSION`]).
        proto: u32,
        /// `"env"` or `"agent"`.
        role: String,
        /// Display name (scenario name for envs, policy name for agents).
        name: String,
        /// For agents: the declared snapshot-view payload fields. For
        /// envs: the full declarable menu.
        fields: Vec<String>,
    },
    /// A decision epoch (env to agent). `reward`/`info` settle the
    /// *previous* action; on the first observation of an episode they are
    /// zero.
    Obs {
        /// Differenced metric scalar for the previous step.
        reward: f64,
        /// Whether the episode ended; the observation is then terminal
        /// and no `act` must follow.
        done: bool,
        /// Per-metric breakdown behind the reward.
        info: StepInfo,
        /// The masked state snapshot.
        observation: Observation,
    },
    /// The agent's decision for the pending epoch (agent to env).
    Act {
        /// VCPUs to preempt this tick, before assignments.
        preemptions: Vec<usize>,
        /// New assignments, applied after preemptions.
        assignments: Vec<vsched_core::sched::Assignment>,
    },
    /// Starts an episode (client to a serving env).
    Reset {
        /// Episode seed; same seed, same episode.
        seed: u64,
    },
    /// A typed failure notice; the connection may continue (a serving
    /// env reports a failed episode this way and accepts a new `reset`).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Orderly goodbye; either side may send it before closing.
    Bye,
}

impl Message {
    /// Builds an `act` message from a decision.
    #[must_use]
    pub fn act(decision: &ScheduleDecision) -> Self {
        Message::Act {
            preemptions: decision.preemptions.clone(),
            assignments: decision.assignments.clone(),
        }
    }

    /// The decision carried by an `act` message, if this is one.
    #[must_use]
    pub fn into_decision(self) -> Option<ScheduleDecision> {
        match self {
            Message::Act {
                preemptions,
                assignments,
            } => Some(ScheduleDecision {
                preemptions,
                assignments,
            }),
            _ => None,
        }
    }
}

/// Encodes a message as one newline-terminated JSON line.
#[must_use]
pub fn encode(msg: &Message) -> String {
    let mut line = serde_json::to_string(msg).expect("protocol messages always serialize");
    line.push('\n');
    line
}

/// Decodes one line into a message.
///
/// # Errors
///
/// The parser's error string (position-annotated) for malformed JSON or
/// a JSON value that is no protocol message.
pub fn decode(line: &str) -> Result<Message, String> {
    serde_json::from_str(line.trim()).map_err(|e| e.to_string())
}

/// Parses an agent's declared field names into a [`ViewFields`] mask.
///
/// # Errors
///
/// The offending name, for anything outside the declarable menu — a
/// handshake fault, caught before any observation is sent.
pub fn fields_from_names(names: &[String]) -> Result<ViewFields, String> {
    let mut fields = ViewFields::none();
    for name in names {
        match name.as_str() {
            "remaining_load" => fields.remaining_load = true,
            "sync_point" => fields.sync_point = true,
            "timeslice_remaining" => fields.timeslice_remaining = true,
            "last_scheduled_in" => fields.last_scheduled_in = true,
            "vm_weight" => fields.vm_weight = true,
            other => return Err(format!("unknown view field {other:?}")),
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsched_core::sched::Assignment;

    #[test]
    fn messages_round_trip_through_json_lines() {
        let msgs = [
            Message::Hello {
                proto: PROTO_VERSION,
                role: "agent".to_string(),
                name: "random".to_string(),
                fields: vec!["sync_point".to_string()],
            },
            Message::Act {
                preemptions: vec![2],
                assignments: vec![Assignment {
                    vcpu: 0,
                    pcpu: 1,
                    timeslice: 30,
                }],
            },
            Message::Reset { seed: 7 },
            Message::Error {
                message: "boom".to_string(),
            },
            Message::Bye,
        ];
        for msg in msgs {
            let line = encode(&msg);
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            assert_eq!(decode(&line).unwrap(), msg, "{line}");
        }
    }

    #[test]
    fn act_converts_to_and_from_decisions() {
        let mut d = ScheduleDecision::none();
        d.preempt(1);
        d.assign(0, 1, 5);
        let msg = Message::act(&d);
        assert_eq!(msg.clone().into_decision().unwrap(), d);
        assert_eq!(Message::Bye.into_decision(), None);
        let line = encode(&msg);
        assert_eq!(decode(&line).unwrap().into_decision().unwrap(), d);
    }

    #[test]
    fn garbage_and_non_protocol_json_fail_with_a_reason() {
        assert!(decode("{not json").is_err());
        assert!(decode("{\"frobnicate\": {}}").is_err());
        assert!(decode("42").is_err());
    }

    #[test]
    fn field_names_round_trip_and_reject_unknowns() {
        let all = ViewFields::all();
        let names: Vec<String> = all.declared().iter().map(|s| (*s).to_string()).collect();
        assert_eq!(fields_from_names(&names).unwrap(), all);
        assert_eq!(fields_from_names(&[]).unwrap(), ViewFields::none());
        let err = fields_from_names(&["load".to_string()]).unwrap_err();
        assert!(err.contains("load"), "{err}");
    }
}
