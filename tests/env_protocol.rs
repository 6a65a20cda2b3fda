//! Protocol robustness: every way a remote agent can misbehave becomes a
//! typed [`PolicyFault`] that fails the episode — never a crash, hang,
//! or process abort. Agents here are deliberately hostile `sh` one-liners.

use std::time::{Duration, Instant};

use vsched_core::{Engine, ScheduleDecision, SystemConfig};
use vsched_env::{
    run_remote_episode, serve, Env, EpisodeError, LineTransport, Message, PolicyFault,
    RemotePolicy, Scenario, PROTO_VERSION,
};

fn scenario() -> Scenario {
    let config = SystemConfig::builder().pcpus(2).vm(2).build().unwrap();
    Scenario::new(config)
        .engine(Engine::Direct)
        .warmup(5)
        .horizon(20)
}

const TIMEOUT: Duration = Duration::from_secs(5);

fn spawn_agent(script: &str) -> Result<RemotePolicy, PolicyFault> {
    RemotePolicy::spawn(script, "protocol-test", TIMEOUT)
}

/// A well-behaved do-nothing agent in shell: replies to the handshake,
/// then answers every observation with an empty decision.
const NOOP_AGENT: &str = r#"
read hello
echo '{"hello":{"proto":1,"role":"agent","name":"sh-noop","fields":[]}}'
while read line; do
  case "$line" in
    *'"done":true'*) break;;
    *'"obs"'*) echo '{"act":{"preemptions":[],"assignments":[]}}';;
  esac
done
"#;

#[test]
fn a_wellbehaved_shell_agent_completes_an_episode() {
    let mut agent = spawn_agent(NOOP_AGENT).unwrap();
    assert_eq!(agent.name(), "sh-noop");
    let mut env = Env::new(scenario()).fields(agent.fields());
    let run = run_remote_episode(&mut env, &mut agent, 7).unwrap();
    assert_eq!(run.actions.len(), 25);
    assert!(run.actions.iter().all(|a| a.assignments.is_empty()));
}

#[test]
fn garbage_bytes_are_a_parse_fault() {
    let err = spawn_agent("echo 'this is not json'; sleep 5").unwrap_err();
    match err {
        PolicyFault::Parse { line, .. } => assert!(line.contains("not json"), "{line}"),
        other => panic!("expected Parse, got {other}"),
    }
}

#[test]
fn non_protocol_json_is_a_parse_fault() {
    let err = spawn_agent(r#"echo '{"frobnicate": 1}'; sleep 5"#).unwrap_err();
    assert!(matches!(err, PolicyFault::Parse { .. }), "{err}");
}

#[test]
fn a_wrong_protocol_version_is_rejected() {
    let err = spawn_agent(
        r#"echo '{"hello":{"proto":99,"role":"agent","name":"future","fields":[]}}'; sleep 5"#,
    )
    .unwrap_err();
    assert_eq!(
        err,
        PolicyFault::WrongVersion {
            got: 99,
            want: PROTO_VERSION
        }
    );
}

#[test]
fn an_undeclared_field_name_is_a_handshake_fault() {
    let err = spawn_agent(
        r#"echo '{"hello":{"proto":1,"role":"agent","name":"x","fields":["secret_sauce"]}}'; sleep 5"#,
    )
    .unwrap_err();
    match err {
        PolicyFault::Handshake(msg) => assert!(msg.contains("secret_sauce"), "{msg}"),
        other => panic!("expected Handshake, got {other}"),
    }
}

/// `(pid, process group)` of every process that has not exited, read
/// from `/proc/<pid>/stat` (empty where there is no `/proc`).
fn live_processes() -> Vec<(u32, u32)> {
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    procs
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let pid = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            // `pid (comm) state ppid pgrp ...`; comm may hold spaces.
            let (_, rest) = stat.rsplit_once(')')?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            match fields.as_slice() {
                [state, _, pgrp, ..] if *state != "Z" => Some((pid, pgrp.parse().ok()?)),
                _ => None,
            }
        })
        .collect()
}

#[test]
fn a_stalled_agent_times_out_without_hanging_the_host() {
    // The agent's shell forks a `sleep` and waits on it. An orphaned
    // `sleep` would hold the test's stdout for ten minutes, so once the
    // transport is gone neither it nor anything else in the shell's
    // process group may still run.
    let pidfile = std::env::temp_dir().join(format!("vsched-stalled-agent-{}", std::process::id()));
    let command = format!("sleep 600 & echo \"$$ $!\" > '{}'; wait", pidfile.display());
    let err =
        RemotePolicy::spawn(&command, "protocol-test", Duration::from_millis(200)).unwrap_err();
    assert_eq!(err, PolicyFault::Timeout { after_ms: 200 });
    let pids: Vec<u32> = std::fs::read_to_string(&pidfile)
        .unwrap()
        .split_whitespace()
        .map(|p| p.parse().unwrap())
        .collect();
    let _ = std::fs::remove_file(&pidfile);
    let [shell, sleep] = pids[..] else {
        panic!("pid file holds {pids:?}")
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let survivors: Vec<(u32, u32)> = live_processes()
            .into_iter()
            .filter(|&(pid, group)| pid == sleep || group == shell)
            .collect();
        if survivors.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "agent processes outlived the transport: {survivors:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn an_agent_that_hangs_up_is_an_eof_fault() {
    let err = spawn_agent("exit 0").unwrap_err();
    assert_eq!(err, PolicyFault::Eof);
}

#[test]
fn an_illegal_action_forfeits_the_episode_as_a_typed_fault() {
    // Handshakes fine, then assigns the same VCPU to both PCPUs.
    let script = r#"
read hello
echo '{"hello":{"proto":1,"role":"agent","name":"cheater","fields":[]}}'
while read line; do
  case "$line" in
    *'"obs"'*) echo '{"act":{"preemptions":[],"assignments":[{"vcpu":0,"pcpu":0,"timeslice":5},{"vcpu":0,"pcpu":1,"timeslice":5}]}}';;
  esac
done
"#;
    let mut agent = spawn_agent(script).unwrap();
    let mut env = Env::new(scenario())
        .fields(agent.fields())
        .agent_name("cheater");
    match run_remote_episode(&mut env, &mut agent, 7) {
        Err(EpisodeError::Fault(PolicyFault::IllegalAction(msg))) => {
            assert!(msg.contains("cheater"), "{msg}");
        }
        other => panic!("expected IllegalAction forfeit, got {other:?}"),
    }
    // The environment survives the forfeit and can run a fresh episode.
    let mut good = spawn_agent(NOOP_AGENT).unwrap();
    assert!(run_remote_episode(&mut env, &mut good, 7).is_ok());
}

#[test]
fn an_agent_error_reply_is_an_agent_fault() {
    let script = r#"
read hello
echo '{"hello":{"proto":1,"role":"agent","name":"quitter","fields":[]}}'
read obs
echo '{"error":{"message":"out of ideas"}}'
sleep 5
"#;
    let mut agent = spawn_agent(script).unwrap();
    let mut env = Env::new(scenario()).fields(agent.fields());
    match run_remote_episode(&mut env, &mut agent, 7) {
        Err(EpisodeError::Fault(PolicyFault::Agent(msg))) => {
            assert!(msg.contains("out of ideas"), "{msg}");
        }
        other => panic!("expected Agent fault, got {other:?}"),
    }
}

/// The agent-hosts-env direction over a socket pair: a client drives two
/// episodes (one clean, one failed by an illegal action) and the serving
/// side survives both.
#[test]
fn serve_hosts_episodes_and_survives_client_faults() {
    let (server_sock, client_sock) = std::os::unix::net::UnixStream::pair().unwrap();
    let scen = scenario();
    let server = std::thread::spawn(move || {
        let mut transport = LineTransport::from_unix(server_sock, Some(TIMEOUT)).unwrap();
        serve(&mut transport, &scen, "serve-test").unwrap()
    });

    let mut client = LineTransport::from_unix(client_sock, Some(TIMEOUT)).unwrap();
    // Handshake: env hello arrives first, client replies.
    match client.recv().unwrap() {
        Message::Hello { proto, role, .. } => {
            assert_eq!(proto, PROTO_VERSION);
            assert_eq!(role, "env");
        }
        other => panic!("expected env hello, got {other:?}"),
    }
    client
        .send(&Message::Hello {
            proto: PROTO_VERSION,
            role: "agent".to_string(),
            name: "driver".to_string(),
            fields: vec!["remaining_load".to_string()],
        })
        .unwrap();

    // An act before any reset is reported, not fatal.
    client
        .send(&Message::act(&ScheduleDecision::none()))
        .unwrap();
    assert!(matches!(client.recv().unwrap(), Message::Error { .. }));

    // Episode 1: drive to completion with empty decisions.
    client.send(&Message::Reset { seed: 3 }).unwrap();
    let mut steps = 0;
    loop {
        match client.recv().unwrap() {
            Message::Obs {
                done, observation, ..
            } => {
                assert_eq!(observation.fields, vec!["remaining_load".to_string()]);
                if done {
                    break;
                }
                steps += 1;
                client
                    .send(&Message::act(&ScheduleDecision::none()))
                    .unwrap();
            }
            other => panic!("expected obs, got {other:?}"),
        }
    }
    assert_eq!(steps, 25);

    // Episode 2: an illegal action fails the episode with an error reply.
    client.send(&Message::Reset { seed: 4 }).unwrap();
    assert!(matches!(client.recv().unwrap(), Message::Obs { .. }));
    let mut bad = ScheduleDecision::none();
    bad.assign(0, 0, 5);
    bad.assign(0, 1, 5);
    client.send(&Message::act(&bad)).unwrap();
    match client.recv().unwrap() {
        Message::Error { message } => assert!(message.contains("illegal action"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }

    // The session still serves: a fresh reset works, then goodbye.
    client.send(&Message::Reset { seed: 5 }).unwrap();
    assert!(matches!(client.recv().unwrap(), Message::Obs { .. }));
    client.send(&Message::Bye).unwrap();

    let stats = server.join().unwrap();
    assert_eq!(stats.episodes, 1);
    assert_eq!(stats.faults, 1);
}
