//! Remote agents over JSON lines: transports, faults, and the two
//! hosting directions.
//!
//! * **Env hosts agent** ([`RemotePolicy`]): the environment spawns the
//!   agent as a child process (or connects to its Unix socket), drives
//!   the episode, and consults the agent at every decision epoch.
//! * **Agent hosts env** ([`serve`]): an external trainer owns the loop —
//!   it sends `reset`/`act` messages and the environment answers with
//!   observations. `vsched env --serve` exposes this over stdio or a
//!   Unix socket.
//!
//! In both directions the environment side sends its `hello` first and
//! the peer replies with its own. Every way an agent can misbehave —
//! garbage bytes, wrong protocol version, a stall, an illegal action, a
//! vanished process — becomes a typed [`PolicyFault`] that fails the
//! *episode* (a tournament forfeit), never the process.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

use vsched_core::sched::ViewFields;
use vsched_core::{CoreError, Fnv, ScheduleDecision};

use crate::env::{Env, EnvError, EpisodeRun, Scenario};
use crate::obs::{Observation, StepInfo};
use crate::proto::{self, Message, PROTO_VERSION};

/// Default per-message timeout for hosted agents.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// Every way a remote agent can fail an episode. Faults are *outcomes*,
/// not process errors: the driver records a forfeit and moves on.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyFault {
    /// The transport broke (pipe closed, write failed, spawn failed).
    Io(String),
    /// A line arrived that is not a protocol message.
    Parse {
        /// The offending line (truncated for display).
        line: String,
        /// The parser's complaint.
        detail: String,
    },
    /// The handshake was malformed (wrong role, unknown fields, or no
    /// `hello` at all).
    Handshake(String),
    /// The peer speaks a different protocol version.
    WrongVersion {
        /// The peer's version.
        got: u32,
        /// Our version.
        want: u32,
    },
    /// The agent did not answer within the per-step timeout.
    Timeout {
        /// The configured limit, in milliseconds.
        after_ms: u64,
    },
    /// The agent's action failed `validate_decision`.
    IllegalAction(String),
    /// The agent reported an error or sent a message that makes no sense
    /// here (e.g. an `act` during handshake).
    Agent(String),
    /// The agent hung up mid-episode.
    Eof,
}

impl std::fmt::Display for PolicyFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyFault::Io(e) => write!(f, "transport error: {e}"),
            PolicyFault::Parse { line, detail } => {
                write!(f, "unparseable message {line:?}: {detail}")
            }
            PolicyFault::Handshake(e) => write!(f, "handshake failed: {e}"),
            PolicyFault::WrongVersion { got, want } => {
                write!(
                    f,
                    "protocol version mismatch: agent speaks v{got}, host speaks v{want}"
                )
            }
            PolicyFault::Timeout { after_ms } => {
                write!(f, "agent did not answer within {after_ms} ms")
            }
            PolicyFault::IllegalAction(e) => write!(f, "illegal action: {e}"),
            PolicyFault::Agent(e) => write!(f, "agent fault: {e}"),
            PolicyFault::Eof => write!(f, "agent hung up mid-episode"),
        }
    }
}

impl std::error::Error for PolicyFault {}

/// A newline-delimited message transport with a per-receive timeout.
///
/// Reads happen on a dedicated thread feeding a channel, so the timeout
/// is uniform across child stdio and sockets; the thread exits when the
/// peer closes its end or the transport is dropped.
pub struct LineTransport {
    writer: Box<dyn Write>,
    lines: Receiver<std::io::Result<String>>,
    timeout: Option<Duration>,
    child: Option<Child>,
}

impl std::fmt::Debug for LineTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineTransport")
            .field("timeout", &self.timeout)
            .field("child", &self.child.as_ref().map(Child::id))
            .finish_non_exhaustive()
    }
}

impl LineTransport {
    /// Wraps an arbitrary reader/writer pair (`timeout = None` blocks
    /// forever, the right choice when the peer paces the conversation).
    pub fn new(
        reader: impl Read + Send + 'static,
        writer: impl Write + 'static,
        timeout: Option<Duration>,
    ) -> Self {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name("vsched-env-reader".to_string())
            .spawn(move || {
                let mut reader = BufReader::new(reader);
                loop {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Ok(_) => {
                            if tx.send(Ok(line)).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            break;
                        }
                    }
                }
            })
            .expect("spawn reader thread");
        LineTransport {
            writer: Box::new(writer),
            lines: rx,
            timeout,
            child: None,
        }
    }

    /// Spawns `command` through `sh -c` with piped stdin/stdout (stderr
    /// passes through) and speaks to it with the given per-step timeout.
    /// The shell leads a process group of its own, and dropping the
    /// transport kills the whole group.
    ///
    /// # Errors
    ///
    /// [`PolicyFault::Io`] if the process cannot be spawned.
    pub fn spawn(command: &str, timeout: Duration) -> Result<Self, PolicyFault> {
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(command)
            .process_group(0)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| PolicyFault::Io(format!("spawn {command:?}: {e}")))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let stdin = child.stdin.take().expect("piped stdin");
        let mut transport = LineTransport::new(stdout, stdin, Some(timeout));
        transport.child = Some(child);
        Ok(transport)
    }

    /// Wraps an accepted Unix stream (server side).
    ///
    /// # Errors
    ///
    /// [`PolicyFault::Io`] if the stream cannot be cloned.
    pub fn from_unix(
        stream: std::os::unix::net::UnixStream,
        timeout: Option<Duration>,
    ) -> Result<Self, PolicyFault> {
        let reader = stream
            .try_clone()
            .map_err(|e| PolicyFault::Io(e.to_string()))?;
        Ok(LineTransport::new(reader, stream, timeout))
    }

    /// Sends one message.
    ///
    /// # Errors
    ///
    /// [`PolicyFault::Eof`] on a broken pipe — the peer hung up, and
    /// whether that shows first here or in [`LineTransport::recv`] is a
    /// race — and [`PolicyFault::Io`] on any other write error.
    pub fn send(&mut self, msg: &Message) -> Result<(), PolicyFault> {
        let line = proto::encode(msg);
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::BrokenPipe => PolicyFault::Eof,
                _ => PolicyFault::Io(e.to_string()),
            })
    }

    /// Receives one message, honoring the timeout.
    ///
    /// # Errors
    ///
    /// [`PolicyFault::Timeout`], [`PolicyFault::Eof`],
    /// [`PolicyFault::Io`], or [`PolicyFault::Parse`].
    pub fn recv(&mut self) -> Result<Message, PolicyFault> {
        let line = match self.timeout {
            Some(limit) => match self.lines.recv_timeout(limit) {
                Ok(line) => line,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(PolicyFault::Timeout {
                        after_ms: limit.as_millis() as u64,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => return Err(PolicyFault::Eof),
            },
            None => self.lines.recv().map_err(|_| PolicyFault::Eof)?,
        };
        let line = line.map_err(|e| PolicyFault::Io(e.to_string()))?;
        proto::decode(&line).map_err(|detail| PolicyFault::Parse {
            line: truncate_for_display(&line),
            detail,
        })
    }
}

impl Drop for LineTransport {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            // Closing stdin is usually enough; the kills cover agents
            // that ignore EOF. `sh -c` may have forked the agent (dash
            // forks even a lone command), and an orphan would hold what
            // it inherited, the host's stderr among it, so the whole group
            // goes. The group id is the shell's pid, which stays reserved
            // until the wait reaps it; `child.kill` still ends the shell
            // where there is no `kill` program.
            let _ = Command::new("kill")
                .args(["-s", "KILL", "--", &format!("-{}", child.id())])
                .stderr(Stdio::null())
                .status();
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn truncate_for_display(line: &str) -> String {
    let line = line.trim_end();
    if line.len() <= 120 {
        line.to_string()
    } else {
        let mut cut = 120;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &line[..cut])
    }
}

/// An agent hosted by the environment: handshake on construction, one
/// decision per [`RemotePolicy::act`] call.
#[derive(Debug)]
pub struct RemotePolicy {
    transport: LineTransport,
    name: String,
    fields: ViewFields,
}

impl RemotePolicy {
    /// Performs the handshake over an established transport: sends the
    /// env `hello` (full field menu), expects the agent's `hello` back.
    ///
    /// # Errors
    ///
    /// [`PolicyFault::WrongVersion`], [`PolicyFault::Handshake`], or any
    /// transport fault.
    pub fn connect(mut transport: LineTransport, env_name: &str) -> Result<Self, PolicyFault> {
        transport.send(&Message::Hello {
            proto: PROTO_VERSION,
            role: "env".to_string(),
            name: env_name.to_string(),
            fields: ViewFields::all()
                .declared()
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
        })?;
        match transport.recv()? {
            Message::Hello {
                proto,
                role,
                name,
                fields,
            } => {
                if proto != PROTO_VERSION {
                    return Err(PolicyFault::WrongVersion {
                        got: proto,
                        want: PROTO_VERSION,
                    });
                }
                if role != "agent" {
                    return Err(PolicyFault::Handshake(format!(
                        "expected role \"agent\", got {role:?}"
                    )));
                }
                let fields = proto::fields_from_names(&fields).map_err(PolicyFault::Handshake)?;
                Ok(RemotePolicy {
                    transport,
                    name,
                    fields,
                })
            }
            Message::Error { message } => Err(PolicyFault::Agent(message)),
            other => Err(PolicyFault::Handshake(format!(
                "expected hello, got {other:?}"
            ))),
        }
    }

    /// Spawns `command` and completes the handshake.
    ///
    /// # Errors
    ///
    /// Spawn and handshake faults.
    pub fn spawn(command: &str, env_name: &str, timeout: Duration) -> Result<Self, PolicyFault> {
        RemotePolicy::connect(LineTransport::spawn(command, timeout)?, env_name)
    }

    /// The agent's self-reported name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The agent's declared snapshot-view fields.
    #[must_use]
    pub fn fields(&self) -> ViewFields {
        self.fields
    }

    /// Ships an observation and waits for the agent's decision.
    ///
    /// # Errors
    ///
    /// Transport faults, or [`PolicyFault::Agent`] for an `error` reply
    /// or an out-of-place message.
    pub fn act(
        &mut self,
        reward: f64,
        info: StepInfo,
        observation: &Observation,
    ) -> Result<ScheduleDecision, PolicyFault> {
        self.transport.send(&Message::Obs {
            reward,
            done: false,
            info,
            observation: observation.clone(),
        })?;
        match self.transport.recv()? {
            Message::Act {
                preemptions,
                assignments,
            } => Ok(ScheduleDecision {
                preemptions,
                assignments,
            }),
            Message::Error { message } => Err(PolicyFault::Agent(message)),
            Message::Bye => Err(PolicyFault::Eof),
            other => Err(PolicyFault::Agent(format!("expected act, got {other:?}"))),
        }
    }

    /// Ships the terminal observation and says goodbye (best effort — the
    /// episode is already complete, so transport errors are ignored).
    pub fn finish(&mut self, reward: f64, info: StepInfo, observation: &Observation) {
        let _ = self.transport.send(&Message::Obs {
            reward,
            done: true,
            info,
            observation: observation.clone(),
        });
        let _ = self.transport.send(&Message::Bye);
    }

    /// Notifies the agent of an episode-ending fault (best effort).
    pub fn fail(&mut self, fault: &PolicyFault) {
        let _ = self.transport.send(&Message::Error {
            message: fault.to_string(),
        });
        let _ = self.transport.send(&Message::Bye);
    }
}

/// Turns an environment failure into the agent's fault where it is one:
/// a rejected decision is an [`PolicyFault::IllegalAction`]; everything
/// else stays an environment error.
fn classify(e: EnvError) -> Result<PolicyFault, EnvError> {
    match e {
        EnvError::Engine(CoreError::PolicyViolation { policy, reason }) => {
            Ok(PolicyFault::IllegalAction(format!("{policy}: {reason}")))
        }
        other => Err(other),
    }
}

/// How a remotely driven episode ended short of success.
#[derive(Debug)]
pub enum EpisodeError {
    /// The agent misbehaved — a forfeit, charged to the agent.
    Fault(PolicyFault),
    /// The environment itself failed — a bug or bad scenario, charged to
    /// nobody.
    Env(EnvError),
}

impl std::fmt::Display for EpisodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpisodeError::Fault(fault) => write!(f, "{fault}"),
            EpisodeError::Env(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EpisodeError {}

/// Drives one full episode with a hosted remote agent. On any agent
/// fault the episode is failed (the agent is told, best effort) and the
/// fault returned; the environment and process survive.
///
/// # Errors
///
/// [`EpisodeError::Fault`] for agent misbehavior (including illegal
/// actions), [`EpisodeError::Env`] for environment failures.
pub fn run_remote_episode(
    env: &mut Env,
    agent: &mut RemotePolicy,
    seed: u64,
) -> Result<EpisodeRun, EpisodeError> {
    let run = (|| -> Result<EpisodeRun, EpisodeError> {
        let mut obs = env.reset(seed).map_err(EpisodeError::Env)?;
        let mut digest = Fnv::new();
        let mut actions = Vec::new();
        let mut rewards = Vec::new();
        let mut reward = 0.0;
        let mut info = StepInfo::default();
        loop {
            digest.push(obs.digest());
            let action = agent.act(reward, info, &obs).map_err(EpisodeError::Fault)?;
            let step = env.step(&action).map_err(|e| match classify(e) {
                Ok(fault) => EpisodeError::Fault(fault),
                Err(env_err) => EpisodeError::Env(env_err),
            })?;
            actions.push(action);
            rewards.push(step.reward);
            if step.done {
                digest.push(step.obs.digest());
                agent.finish(step.reward, step.info, &step.obs);
                let end = env.last_end().cloned().expect("episode end after done");
                return Ok(EpisodeRun {
                    actions,
                    rewards,
                    obs_digest: digest.finish(),
                    end,
                });
            }
            obs = step.obs;
            reward = step.reward;
            info = step.info;
        }
    })();
    if let Err(EpisodeError::Fault(fault)) = &run {
        agent.fail(fault);
    }
    run
}

/// Statistics of one [`serve`] session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Episodes completed to their terminal observation.
    pub episodes: usize,
    /// Episodes failed by a client fault (reported, then survived).
    pub faults: usize,
}

/// Hosts the environment for an external trainer (the agent-hosts-env
/// direction): answers `reset` with the first observation and `act` with
/// the next one, until the client says `bye` or hangs up.
///
/// Client faults (garbage lines, illegal actions, acts without a reset)
/// are answered with an `error` message and fail at most the current
/// episode — the session keeps serving.
///
/// # Errors
///
/// [`PolicyFault`] only for handshake failures and transport breakage;
/// [`EnvError`]-level engine failures are reported to the client and
/// surface here only if the scenario itself is unrunnable.
pub fn serve(
    transport: &mut LineTransport,
    scenario: &Scenario,
    env_name: &str,
) -> Result<ServeStats, PolicyFault> {
    transport.send(&Message::Hello {
        proto: PROTO_VERSION,
        role: "env".to_string(),
        name: env_name.to_string(),
        fields: ViewFields::all()
            .declared()
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
    })?;
    let fields = match transport.recv()? {
        Message::Hello { proto, fields, .. } => {
            if proto != PROTO_VERSION {
                let fault = PolicyFault::WrongVersion {
                    got: proto,
                    want: PROTO_VERSION,
                };
                let _ = transport.send(&Message::Error {
                    message: fault.to_string(),
                });
                return Err(fault);
            }
            match proto::fields_from_names(&fields) {
                Ok(fields) => fields,
                Err(e) => {
                    let _ = transport.send(&Message::Error { message: e.clone() });
                    return Err(PolicyFault::Handshake(e));
                }
            }
        }
        other => {
            let fault = PolicyFault::Handshake(format!("expected hello, got {other:?}"));
            let _ = transport.send(&Message::Error {
                message: fault.to_string(),
            });
            return Err(fault);
        }
    };

    let mut env = Env::new(scenario.clone())
        .fields(fields)
        .agent_name("remote-client");
    let mut stats = ServeStats::default();
    let mut live = false;
    loop {
        let msg = match transport.recv() {
            Ok(msg) => msg,
            Err(PolicyFault::Eof) => return Ok(stats),
            Err(PolicyFault::Parse { line, detail }) => {
                transport.send(&Message::Error {
                    message: PolicyFault::Parse { line, detail }.to_string(),
                })?;
                if live {
                    stats.faults += 1;
                    live = false;
                }
                continue;
            }
            Err(fault) => return Err(fault),
        };
        match msg {
            Message::Reset { seed } => match env.reset(seed) {
                Ok(obs) => {
                    live = true;
                    transport.send(&Message::Obs {
                        reward: 0.0,
                        done: false,
                        info: StepInfo::default(),
                        observation: obs,
                    })?;
                }
                Err(e) => {
                    transport.send(&Message::Error {
                        message: e.to_string(),
                    })?;
                }
            },
            Message::Act {
                preemptions,
                assignments,
            } => {
                if !live {
                    transport.send(&Message::Error {
                        message: "act without a live episode: send reset first".to_string(),
                    })?;
                    continue;
                }
                let action = ScheduleDecision {
                    preemptions,
                    assignments,
                };
                match env.step(&action) {
                    Ok(step) => {
                        if step.done {
                            live = false;
                            stats.episodes += 1;
                        }
                        transport.send(&Message::Obs {
                            reward: step.reward,
                            done: step.done,
                            info: step.info,
                            observation: step.obs,
                        })?;
                    }
                    Err(e) => {
                        live = false;
                        stats.faults += 1;
                        let message = match classify(e) {
                            Ok(fault) => fault.to_string(),
                            Err(env_err) => env_err.to_string(),
                        };
                        transport.send(&Message::Error { message })?;
                    }
                }
            }
            Message::Bye => return Ok(stats),
            other => {
                transport.send(&Message::Error {
                    message: format!("unexpected message {other:?}"),
                })?;
            }
        }
    }
}
