//! Episode-level contract of `vsched-env`: the environment is the same
//! game as the monolithic engines, bit for bit.
//!
//! * an episode driven by an in-process policy fed **from observations**
//!   reproduces `ExperimentBuilder::run_replication` exactly — markings
//!   (via the terminal fingerprint), metrics, and RNG draws (any
//!   divergence in draws would change both);
//! * replaying the recorded actions reproduces the observation, reward,
//!   and fingerprint streams;
//! * rewards telescope to the weighted final metric scalar;
//! * an illegal action fails the episode as a typed engine error on
//!   either engine and the environment resets cleanly afterwards; an
//!   overflowing scenario is a typed error; a reset mid-episode and one
//!   env per thread both reproduce a fresh env's episode;
//! * the observation, reward, info, fingerprint and metric streams of a
//!   fixed episode matrix are pinned bit for bit in
//!   `tests/golden/env_streams.json`, so a shifted observation timestamp
//!   or a moved warm-up-boundary reward fails even though it would still
//!   replay and match the monolithic final metrics.
//!
//! To re-bless the stream snapshot after an intentional semantic change:
//! `VSCHED_BLESS=1 cargo test -p vsched-env --test env_episode`

use proptest::prelude::*;
use vsched_core::{Engine, ExperimentBuilder, PolicyKind, SampleMetrics, ScheduleDecision};
use vsched_env::{drive_policy, replay_actions, Env, EnvError, EpisodeRun, Scenario};

const WARMUP: u64 = 60;
const HORIZON: u64 = 240;

const STREAMS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/env_streams.json"
);

mod common;
use common::config;

fn scenario(engine: Engine, pcpus: usize, vm_sizes: &[usize]) -> Scenario {
    Scenario::new(config(pcpus, vm_sizes))
        .engine(engine)
        .warmup(WARMUP)
        .horizon(HORIZON)
}

fn monolithic(
    engine: Engine,
    pcpus: usize,
    vm_sizes: &[usize],
    kind: &PolicyKind,
    seed: u64,
) -> SampleMetrics {
    ExperimentBuilder::new(config(pcpus, vm_sizes), kind.clone())
        .engine(engine)
        .warmup(WARMUP)
        .horizon(HORIZON)
        .seed(seed)
        .run_replication(0)
        .unwrap()
}

fn drive(
    engine: Engine,
    pcpus: usize,
    vm_sizes: &[usize],
    kind: &PolicyKind,
    seed: u64,
) -> EpisodeRun {
    let mut policy = kind.create();
    let fields = policy.snapshot_view();
    let mut env = Env::new(scenario(engine, pcpus, vm_sizes))
        .fields(fields)
        .agent_name("episode-test");
    drive_policy(&mut env, policy.as_mut(), seed).unwrap()
}

#[test]
fn episode_metrics_match_the_monolithic_run_on_both_engines() {
    for engine in [Engine::Direct, Engine::San] {
        for kind in PolicyKind::paper_trio() {
            let run = drive(engine, 2, &[2, 1], &kind, 11);
            let mono = monolithic(engine, 2, &[2, 1], &kind, 11);
            assert_eq!(
                run.end.metrics, mono,
                "{engine:?}/{kind}: env-driven metrics differ from run_replication"
            );
            assert_eq!(run.end.ticks, WARMUP + HORIZON);
            assert_eq!(run.actions.len() as u64, WARMUP + HORIZON);
        }
    }
}

#[test]
fn replaying_recorded_actions_reproduces_the_episode() {
    for engine in [Engine::Direct, Engine::San] {
        let kind = PolicyKind::credit_default();
        let run = drive(engine, 2, &[2, 2], &kind, 3);
        let mut env = Env::new(scenario(engine, 2, &[2, 2]))
            .fields(kind.create().snapshot_view())
            .agent_name("episode-test");
        let replay = replay_actions(&mut env, &run.actions, 3).unwrap();
        assert_eq!(
            replay.obs_digest, run.obs_digest,
            "{engine:?}: observation stream"
        );
        assert_eq!(replay.rewards, run.rewards, "{engine:?}: reward stream");
        assert_eq!(
            replay.end.fingerprint, run.end.fingerprint,
            "{engine:?}: terminal fingerprint"
        );
        assert_eq!(replay.end.metrics, run.end.metrics);
    }
}

#[test]
fn rewards_telescope_to_the_final_metric_scalar() {
    let run = drive(Engine::Direct, 2, &[2, 1], &PolicyKind::RoundRobin, 5);
    let total: f64 = run.rewards.iter().sum();
    let m = &run.end.metrics;
    let scalar = m.avg_vcpu_utilization() + m.avg_vcpu_availability() + m.avg_pcpu_utilization();
    assert!(
        (total - scalar).abs() < 1e-9,
        "episode return {total} != final weighted scalar {scalar}"
    );
}

/// Asserts two episodes are the same bit for bit: every action, reward,
/// observation, the terminal fingerprint and the metrics.
fn assert_same_episode(a: &EpisodeRun, b: &EpisodeRun, what: &str) {
    assert_eq!(a.actions, b.actions, "{what}: actions");
    let bits = |r: &EpisodeRun| r.rewards.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{what}: reward stream");
    assert_eq!(a.obs_digest, b.obs_digest, "{what}: observation stream");
    assert_eq!(a.end.fingerprint, b.end.fingerprint, "{what}: fingerprint");
    assert_eq!(a.end.metrics, b.end.metrics, "{what}: metrics");
    assert_eq!(a.end.ticks, b.end.ticks, "{what}: ticks");
}

/// On Direct the decision fails validation inside the tick; on SAN the
/// `Scheduling_Func` gate halts the model and the error surfaces after
/// the tick. Either way the episode is over and the env is not.
#[test]
fn an_illegal_action_is_a_typed_fault_and_the_env_survives() {
    for engine in [Engine::Direct, Engine::San] {
        let mut env = Env::new(scenario(engine, 2, &[2])).agent_name("rogue");
        let obs = env.reset(1).unwrap();
        // Assign the same VCPU to both PCPUs: invariant 3 of validate_decision.
        let mut action = ScheduleDecision::none();
        action.assign(0, 0, obs.default_timeslice);
        action.assign(0, 1, obs.default_timeslice);
        match env.step(&action) {
            Err(EnvError::Engine(e)) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("rogue"),
                    "{engine:?}: fault names the agent: {msg}"
                );
            }
            other => panic!("{engine:?}: expected a policy violation, got {other:?}"),
        }
        // The faulted episode is gone: stepping it again is rejected.
        assert!(
            matches!(
                env.step(&ScheduleDecision::none()),
                Err(EnvError::NoEpisode)
            ),
            "{engine:?}: step after a fault"
        );
        // The process and the environment both survive: a fresh episode runs.
        let run = drive_policy(&mut env, PolicyKind::RoundRobin.create().as_mut(), 1).unwrap();
        assert_eq!(run.end.ticks, WARMUP + HORIZON, "{engine:?}");
    }
}

#[test]
fn an_overflowing_scenario_is_a_typed_error_on_both_engines() {
    for engine in [Engine::Direct, Engine::San] {
        let mut env = Env::new(scenario(engine, 1, &[1]).warmup(u64::MAX));
        assert!(
            matches!(env.reset(1), Err(EnvError::TickOverflow)),
            "{engine:?}: warmup + horizon overflows"
        );
        assert!(
            matches!(
                env.step(&ScheduleDecision::none()),
                Err(EnvError::NoEpisode)
            ),
            "{engine:?}: no episode after a rejected reset"
        );
    }
}

#[test]
fn a_reset_mid_episode_starts_an_episode_identical_to_a_fresh_env() {
    for engine in [Engine::Direct, Engine::San] {
        let kind = PolicyKind::relaxed_co_default();
        let fresh = drive(engine, 2, &[2, 1], &kind, 9);
        // Abandon an episode with another seed past its warm-up boundary.
        let mut policy = kind.create();
        let mut env = Env::new(scenario(engine, 2, &[2, 1]))
            .fields(policy.snapshot_view())
            .agent_name("episode-test");
        let mut obs = env.reset(4).unwrap();
        for _ in 0..WARMUP + 7 {
            let action =
                policy.schedule(&obs.vcpus, &obs.pcpus, obs.timestamp, obs.default_timeslice);
            obs = env.step(&action).unwrap().obs;
        }
        let again = drive_policy(&mut env, kind.create().as_mut(), 9).unwrap();
        assert_same_episode(&again, &fresh, &format!("{engine:?}"));
    }
}

/// `Env` is not `Send` (its engines may hold a non-`Send` tick
/// observer); vectorised rollouts build one per worker thread instead.
#[test]
fn one_env_per_thread_gives_bit_identical_episodes() {
    let kind = PolicyKind::credit_default();
    let engines = [Engine::Direct, Engine::San];
    let expected: Vec<EpisodeRun> = engines
        .iter()
        .map(|&engine| drive(engine, 2, &[2, 2], &kind, 13))
        .collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let engine = engines[i % 2];
                let kind = &kind;
                s.spawn(move || drive(engine, 2, &[2, 2], kind, 13))
            })
            .collect();
        for (i, worker) in workers.into_iter().enumerate() {
            let run = worker.join().expect("worker thread");
            assert_same_episode(&run, &expected[i % 2], &format!("worker {i}"));
        }
    });
}

#[test]
fn step_without_reset_is_rejected() {
    let mut env = Env::new(scenario(Engine::Direct, 1, &[1]));
    assert!(matches!(
        env.step(&ScheduleDecision::none()),
        Err(EnvError::NoEpisode)
    ));
}

/// FNV-1a over 64-bit words, for compact stream digests.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One pinned episode: every stream an agent or a trainer consumes.
#[derive(serde::Serialize)]
struct StreamEntry {
    engine: String,
    policy: String,
    warmup: u64,
    horizon: u64,
    steps: u64,
    ticks: u64,
    /// Digest of every observation, the terminal one included.
    obs_digest: String,
    /// Digest of every reward's bit pattern.
    reward_bits: String,
    /// Digest of every step's info (warm-up flag and metric bits).
    info_bits: String,
    fingerprint: String,
    /// Bit patterns of the terminal metrics, in `SampleMetrics` order.
    metric_bits: Vec<String>,
}

fn stream_entry(engine: Engine, kind: &PolicyKind, warmup: u64, horizon: u64) -> StreamEntry {
    let mut policy = kind.create();
    let mut env = Env::new(
        Scenario::new(config(2, &[2, 1]))
            .engine(engine)
            .warmup(warmup)
            .horizon(horizon),
    )
    .fields(policy.snapshot_view())
    .agent_name("golden");
    let mut obs = env.reset(17).unwrap();
    let (mut obs_d, mut reward_d, mut info_d) = (Digest::new(), Digest::new(), Digest::new());
    let mut steps = 0;
    loop {
        obs_d.push(obs.digest());
        let action = policy.schedule(&obs.vcpus, &obs.pcpus, obs.timestamp, obs.default_timeslice);
        let step = env.step(&action).unwrap();
        steps += 1;
        reward_d.push(step.reward.to_bits());
        info_d.push(u64::from(step.info.warmed_up));
        info_d.push(step.info.vcpu_utilization.to_bits());
        info_d.push(step.info.vcpu_availability.to_bits());
        info_d.push(step.info.pcpu_utilization.to_bits());
        if step.done {
            obs_d.push(step.obs.digest());
            break;
        }
        obs = step.obs;
    }
    let end = env.last_end().expect("episode end after done");
    let m = &end.metrics;
    StreamEntry {
        engine: format!("{engine:?}"),
        policy: kind.label().to_string(),
        warmup,
        horizon,
        steps,
        ticks: end.ticks,
        obs_digest: obs_d.hex(),
        reward_bits: reward_d.hex(),
        info_bits: info_d.hex(),
        fingerprint: format!("{:016x}", end.fingerprint),
        metric_bits: [
            &m.vcpu_availability,
            &m.vcpu_utilization,
            &m.pcpu_utilization,
            &m.vcpu_spin,
        ]
        .into_iter()
        .flatten()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect(),
    }
}

/// Both engines × the paper trio × warm-up/horizon splits that put the
/// warm-up boundary mid-episode, at the start, at the end, and on a
/// one-tick episode half.
#[test]
fn episode_streams_match_the_golden_snapshot() {
    let mut entries = Vec::new();
    for engine in [Engine::Direct, Engine::San] {
        for kind in PolicyKind::paper_trio() {
            for (warmup, horizon) in [(60, 240), (0, 300), (300, 0), (1, 1)] {
                entries.push(stream_entry(engine, &kind, warmup, horizon));
            }
        }
    }
    let mut actual = serde_json::to_string_pretty(&entries).expect("streams serialize");
    actual.push('\n');
    if std::env::var_os("VSCHED_BLESS").is_some() {
        std::fs::write(STREAMS, &actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(STREAMS)
        .expect("snapshot missing: run with VSCHED_BLESS=1 to create it");
    assert_eq!(
        actual, expected,
        "episode streams drifted from the golden snapshot; \
         if intentional, re-bless with VSCHED_BLESS=1"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any small system, any registry policy, both engines: the
    /// env-driven episode is bit-identical to the monolithic run, and a
    /// replay of its actions is bit-identical to the episode.
    #[test]
    fn episodes_are_bit_identical_to_monolithic_runs(
        pcpus in 1usize..4,
        vm_sizes in proptest::collection::vec(1usize..3, 1..3),
        policy_idx in 0usize..8,
        seed in 0u64..1_000,
        engine_is_san in 0u8..2,
    ) {
        let engine = if engine_is_san == 1 { Engine::San } else { Engine::Direct };
        let kind = PolicyKind::all().remove(policy_idx);
        let run = drive(engine, pcpus, &vm_sizes, &kind, seed);
        let mono = monolithic(engine, pcpus, &vm_sizes, &kind, seed);
        prop_assert_eq!(&run.end.metrics, &mono);

        let mut env = Env::new(scenario(engine, pcpus, &vm_sizes))
            .fields(kind.create().snapshot_view());
        let replay = replay_actions(&mut env, &run.actions, seed).unwrap();
        prop_assert_eq!(replay.obs_digest, run.obs_digest);
        prop_assert_eq!(replay.end.fingerprint, run.end.fingerprint);
        prop_assert_eq!(replay.rewards, run.rewards);
    }
}
