//! The environment core: `reset`/`step` over either engine.
//!
//! # How decision epochs are surfaced
//!
//! Both engines *pull*: they call [`SchedulingPolicy::schedule`] once per
//! tick, in phase 4 of the direct engine's tick or from the SAN
//! `Scheduling_Func` output gate. A gym-style interface needs the
//! opposite — the caller *pushes* an action and receives the next
//! observation. The inversion is a pause: [`Env`] owns the engine and, on
//! the caller's thread, runs it up to the point where the policy would be
//! called — [`Simulation::run_to_decision`]: `DirectSim::begin_tick`
//! (phases 1–3), or `SanSystem::run_to_decision`, which stops with
//! `Scheduling_Func` at the head of the event queue. The observation is
//! read off the paused engine, so every decision epoch the agent sees is
//! *exactly* a point where the in-process policy would have been
//! consulted, with exactly the views it would have received (masked to
//! the declared fields — see [`crate::obs`]). `step` then places the
//! action in a one-slot policy and lets the engine finish the tick
//! ([`Simulation::finish_tick`]), consulting that policy as it would any
//! other.
//!
//! Episodes are bit-identically replayable: same scenario, same seed, same
//! action sequence — same observation, reward, and fingerprint streams, on
//! either engine.

use std::cell::RefCell;
use std::rc::Rc;

use vsched_core::sched::ViewFields;
use vsched_core::{
    CoreError, Engine, Fnv, PcpuView, SampleMetrics, ScheduleDecision, SchedulingPolicy,
    Simulation, SystemConfig, VcpuView,
};

use crate::obs::{Observation, StepInfo};

/// Everything that defines an episode except the seed and the agent: the
/// machine, the engine, and the warm-up/measurement split.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulated machine and workload.
    pub config: SystemConfig,
    /// Which engine executes the model.
    pub engine: Engine,
    /// Warm-up ticks: the agent is consulted (policy state evolves) but
    /// rewards are zero and metrics discarded, as in `vsched run`.
    pub warmup: u64,
    /// Measured ticks after warm-up.
    pub horizon: u64,
}

impl Scenario {
    /// A scenario with the `vsched run` defaults (SAN engine, 1 000
    /// warm-up ticks, 20 000 measured ticks).
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        Scenario {
            config,
            engine: Engine::San,
            warmup: 1_000,
            horizon: 20_000,
        }
    }

    /// Selects the engine.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the warm-up tick count.
    #[must_use]
    pub fn warmup(mut self, ticks: u64) -> Self {
        self.warmup = ticks;
        self
    }

    /// Sets the measured tick count.
    #[must_use]
    pub fn horizon(mut self, ticks: u64) -> Self {
        self.horizon = ticks;
        self
    }

    /// Total decision epochs per episode (one per tick), or `None` when
    /// `warmup + horizon` overflows `u64`.
    #[must_use]
    pub fn epochs(&self) -> Option<u64> {
        self.warmup.checked_add(self.horizon)
    }
}

/// Errors surfaced by [`Env::reset`] and [`Env::step`].
#[derive(Debug)]
pub enum EnvError {
    /// The engine rejected the scenario or failed mid-episode; includes
    /// [`CoreError::PolicyViolation`] when an action fails
    /// `validate_decision` — the episode is over, the process is fine.
    Engine(CoreError),
    /// `step` was called with no live episode (`reset` first).
    NoEpisode,
    /// The scenario is degenerate (zero total ticks).
    EmptyScenario,
    /// The scenario's `warmup + horizon` overflows `u64`.
    TickOverflow,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::Engine(e) => write!(f, "engine error: {e}"),
            EnvError::NoEpisode => write!(f, "no live episode: call reset() before step()"),
            EnvError::EmptyScenario => write!(f, "scenario has zero ticks (warmup + horizon)"),
            EnvError::TickOverflow => write!(f, "scenario warmup + horizon overflows u64"),
        }
    }
}

impl std::error::Error for EnvError {}

impl From<CoreError> for EnvError {
    fn from(e: CoreError) -> Self {
        EnvError::Engine(e)
    }
}

/// The outcome of one [`Env::step`].
#[derive(Debug, Clone)]
pub struct Step {
    /// The next observation (the terminal state snapshot when `done`).
    pub obs: Observation,
    /// Scalar reward: the differenced metric scalar.
    pub reward: f64,
    /// Whether the episode is over. After `done`, call `reset`.
    pub done: bool,
    /// Per-metric breakdown behind the scalar.
    pub info: StepInfo,
}

/// Terminal summary of a completed episode.
#[derive(Debug, Clone)]
pub struct EpisodeEnd {
    /// FNV-1a fingerprint over the final true (unmasked) views and the
    /// final tick — the replay-identity witness.
    pub fingerprint: u64,
    /// Cumulative post-warm-up metrics, as `vsched run` would report for
    /// one replication.
    pub metrics: SampleMetrics,
    /// Ticks executed (always `warmup + horizon`).
    pub ticks: u64,
}

/// The policy both engines consult at the decision point: it returns the
/// action `step` placed in the slot just before finishing the tick.
struct SlotPolicy {
    name: String,
    fields: ViewFields,
    slot: Rc<RefCell<ScheduleDecision>>,
}

impl SchedulingPolicy for SlotPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(&mut self, _: &[VcpuView], _: &[PcpuView], _: u64, _: u64) -> ScheduleDecision {
        self.slot.take()
    }

    fn snapshot_view(&self) -> ViewFields {
        self.fields
    }
}

/// A live episode: the engine paused at a decision point, the action
/// slot its policy reads, and the reward state.
struct LiveEpisode {
    sim: Simulation,
    slot: Rc<RefCell<ScheduleDecision>>,
    /// Ticks finished so far.
    ticks: u64,
    /// `warmup + horizon`.
    total: u64,
    prev_scalar: f64,
    /// The true views at the pending decision point, refilled in place.
    views: (Vec<VcpuView>, Vec<PcpuView>),
    /// The cumulative post-warm-up metrics, refilled in place every step.
    metrics: SampleMetrics,
}

impl LiveEpisode {
    /// Runs the engine to its next decision point and observes it.
    fn observe_next(
        &mut self,
        fields: ViewFields,
        default_timeslice: u64,
    ) -> Result<Observation, CoreError> {
        self.sim.run_to_decision()?;
        self.sim.vcpu_views_into(&mut self.views.0);
        self.sim.pcpu_views_into(&mut self.views.1);
        Ok(Observation::masked(
            &self.views.0,
            &self.views.1,
            self.sim.time(),
            default_timeslice,
            fields,
        ))
    }

    /// Differences the metric scalar — the sum of the paper's three
    /// cumulative post-warm-up metric averages — against the previous
    /// step (`None` during warm-up, where the scalar is zero), so the
    /// episode return telescopes to the final scalar.
    fn settle_reward(prev_scalar: &mut f64, metrics: Option<&SampleMetrics>) -> (f64, StepInfo) {
        let scalar = metrics.map_or(0.0, |m| {
            m.avg_vcpu_utilization() + m.avg_vcpu_availability() + m.avg_pcpu_utilization()
        });
        let reward = scalar - *prev_scalar;
        *prev_scalar = scalar;
        (reward, StepInfo::from_metrics(metrics))
    }

    /// The terminal summary, fingerprinting the final true views and tick.
    fn end(&self) -> EpisodeEnd {
        let (vcpus, pcpus) = (self.sim.vcpu_views(), self.sim.pcpu_views());
        let mut h = Fnv::new();
        h.push(self.sim.time());
        for v in &vcpus {
            h.push(v.id.global as u64);
            h.push(v.status.to_token() as u64);
            h.push(v.remaining_load);
            h.push(u64::from(v.sync_point));
            h.push_opt(v.assigned_pcpu.map(|p| p as u64));
            h.push(v.timeslice_remaining);
            h.push_opt(v.last_scheduled_in);
            h.push(u64::from(v.vm_weight));
        }
        for p in &pcpus {
            h.push(p.id as u64);
            h.push_opt(p.assigned.map(|id| id.global as u64));
        }
        EpisodeEnd {
            fingerprint: h.finish(),
            metrics: self.sim.metrics(),
            ticks: self.ticks,
        }
    }
}

/// The gym-style environment: `reset(seed) → Observation`,
/// `step(action) → (Observation, reward, done, info)`.
///
/// `Env` owns its engine and runs it on the caller's thread, paused
/// between calls at the next decision point. It is not `Send`: the engine
/// shares its policy with the action slot through `Rc`, and can carry a
/// [`vsched_core::TickObserver`], which is not `Send` either. Vectorised
/// rollouts build one `Env` per worker thread from a shared [`Scenario`],
/// which is.
///
/// ```
/// use vsched_core::{ScheduleDecision, SystemConfig, Engine};
/// use vsched_env::{Env, Scenario};
///
/// let config = SystemConfig::builder().pcpus(2).vm(2).build().unwrap();
/// let scenario = Scenario::new(config)
///     .engine(Engine::Direct)
///     .warmup(10)
///     .horizon(40);
/// let mut env = Env::new(scenario);
/// let mut obs = env.reset(7).unwrap();
/// loop {
///     let mut action = ScheduleDecision::none();
///     // Greedy: put the first schedulable VCPU on the first idle PCPU.
///     if let (Some(v), Some(p)) = (
///         obs.vcpus.iter().find(|v| v.is_schedulable()),
///         obs.pcpus.iter().find(|p| p.is_idle()),
///     ) {
///         action.assign(v.id.global, p.id, obs.default_timeslice);
///     }
///     let step = env.step(&action).unwrap();
///     if step.done {
///         break;
///     }
///     obs = step.obs;
/// }
/// assert!(env.last_end().is_some());
/// ```
pub struct Env {
    scenario: Scenario,
    fields: ViewFields,
    agent_name: String,
    episode: Option<LiveEpisode>,
    last_end: Option<EpisodeEnd>,
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Env")
            .field("agent_name", &self.agent_name)
            .field("live", &self.episode.is_some())
            .finish_non_exhaustive()
    }
}

impl Env {
    /// An environment over `scenario` with the full observation space.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        Env {
            scenario,
            fields: ViewFields::all(),
            agent_name: "env-agent".to_string(),
            episode: None,
            last_end: None,
        }
    }

    /// Narrows the observation space to the agent's declared fields.
    #[must_use]
    pub fn fields(mut self, fields: ViewFields) -> Self {
        self.fields = fields;
        self
    }

    /// Names the agent in engine error messages (policy-violation
    /// diagnostics cite this name).
    #[must_use]
    pub fn agent_name(mut self, name: &str) -> Self {
        self.agent_name = name.to_string();
        self
    }

    /// The scenario this environment runs.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Terminal summary of the most recently *completed* episode.
    #[must_use]
    pub fn last_end(&self) -> Option<&EpisodeEnd> {
        self.last_end.as_ref()
    }

    /// Starts a fresh episode, discarding any live one, and returns the
    /// first observation.
    ///
    /// # Errors
    ///
    /// [`EnvError::EmptyScenario`] for a zero-tick scenario;
    /// [`EnvError::TickOverflow`] when `warmup + horizon` overflows;
    /// [`EnvError::Engine`] if the engine rejects the configuration.
    pub fn reset(&mut self, seed: u64) -> Result<Observation, EnvError> {
        self.episode = None;
        let total = self.scenario.epochs().ok_or(EnvError::TickOverflow)?;
        if total == 0 {
            return Err(EnvError::EmptyScenario);
        }
        let slot = Rc::new(RefCell::new(ScheduleDecision::none()));
        let policy = Box::new(SlotPolicy {
            name: self.agent_name.clone(),
            fields: self.fields,
            slot: Rc::clone(&slot),
        });
        let mut sim = Simulation::new(
            self.scenario.engine,
            self.scenario.config.clone(),
            policy,
            seed,
        )?;
        if self.scenario.warmup == 0 {
            sim.reset_metrics();
        }
        let mut episode = LiveEpisode {
            sim,
            slot,
            ticks: 0,
            total,
            prev_scalar: 0.0,
            views: (Vec::new(), Vec::new()),
            metrics: SampleMetrics {
                vcpu_availability: Vec::new(),
                vcpu_utilization: Vec::new(),
                pcpu_utilization: Vec::new(),
                vcpu_spin: Vec::new(),
            },
        };
        let obs = episode.observe_next(self.fields, self.scenario.config.timeslice())?;
        self.episode = Some(episode);
        Ok(obs)
    }

    /// Applies the agent's decision at the pending epoch and advances to
    /// the next one (or to the terminal state).
    ///
    /// # Errors
    ///
    /// [`EnvError::NoEpisode`] without a live episode;
    /// [`EnvError::Engine`] when the engine fails — including
    /// [`CoreError::PolicyViolation`] when `action` fails
    /// `validate_decision`, which ends the episode as an agent fault.
    pub fn step(&mut self, action: &ScheduleDecision) -> Result<Step, EnvError> {
        let mut episode = self.episode.take().ok_or(EnvError::NoEpisode)?;
        episode.slot.borrow_mut().clone_from(action);
        episode.sim.finish_tick()?;
        episode.ticks += 1;
        let warmup = self.scenario.warmup;
        if episode.ticks == warmup {
            episode.sim.reset_metrics();
        }
        let timeslice = self.scenario.config.timeslice();
        if episode.ticks == episode.total {
            let end = episode.end();
            let (reward, info) =
                LiveEpisode::settle_reward(&mut episode.prev_scalar, Some(&end.metrics));
            // The terminal observation re-shows the last epoch's views at
            // the end-of-episode tick.
            let (vcpus, pcpus) = &episode.views;
            let obs = Observation::masked(vcpus, pcpus, episode.total, timeslice, self.fields);
            self.last_end = Some(end);
            return Ok(Step {
                obs,
                reward,
                done: true,
                info,
            });
        }
        let warmed_up = episode.ticks > warmup;
        if warmed_up {
            episode.sim.metrics_into(&mut episode.metrics);
        }
        let (reward, info) = LiveEpisode::settle_reward(
            &mut episode.prev_scalar,
            warmed_up.then_some(&episode.metrics),
        );
        let obs = episode.observe_next(self.fields, timeslice)?;
        self.episode = Some(episode);
        Ok(Step {
            obs,
            reward,
            done: false,
            info,
        })
    }
}

/// Record of one driven episode, for replay comparison.
#[derive(Debug, Clone)]
pub struct EpisodeRun {
    /// Every action taken, in epoch order.
    pub actions: Vec<ScheduleDecision>,
    /// Every reward received, in epoch order.
    pub rewards: Vec<f64>,
    /// FNV-1a digest over the observation stream.
    pub obs_digest: u64,
    /// Terminal summary.
    pub end: EpisodeEnd,
}

/// Drives one full episode with an in-process policy fed **from the
/// observations** — the policy sees exactly what a remote agent would.
/// With a contract-honoring policy this reproduces the monolithic
/// `run_replication` trace bit-for-bit.
///
/// # Errors
///
/// Propagates [`Env::reset`]/[`Env::step`] errors.
pub fn drive_policy(
    env: &mut Env,
    policy: &mut dyn SchedulingPolicy,
    seed: u64,
) -> Result<EpisodeRun, EnvError> {
    drive_with(env, seed, |obs| {
        policy.schedule(&obs.vcpus, &obs.pcpus, obs.timestamp, obs.default_timeslice)
    })
}

/// Replays a recorded action sequence. Feeding back [`EpisodeRun::actions`]
/// from the same seed reproduces the run's digests and rewards exactly.
///
/// # Errors
///
/// Propagates [`Env::reset`]/[`Env::step`] errors; excess epochs beyond
/// the recorded actions receive empty decisions.
pub fn replay_actions(
    env: &mut Env,
    actions: &[ScheduleDecision],
    seed: u64,
) -> Result<EpisodeRun, EnvError> {
    let mut it = actions.iter();
    drive_with(env, seed, |_| {
        it.next().cloned().unwrap_or_else(ScheduleDecision::none)
    })
}

/// The shared episode loop behind [`drive_policy`] and [`replay_actions`].
fn drive_with(
    env: &mut Env,
    seed: u64,
    mut act: impl FnMut(&Observation) -> ScheduleDecision,
) -> Result<EpisodeRun, EnvError> {
    let mut obs = env.reset(seed)?;
    let mut digest = Fnv::new();
    let mut actions = Vec::new();
    let mut rewards = Vec::new();
    loop {
        digest.push(obs.digest());
        let action = act(&obs);
        let step = env.step(&action)?;
        actions.push(action);
        rewards.push(step.reward);
        if step.done {
            digest.push(step.obs.digest());
            let end = env.last_end().cloned().expect("episode end after done");
            return Ok(EpisodeRun {
                actions,
                rewards,
                obs_digest: digest.finish(),
                end,
            });
        }
        obs = step.obs;
    }
}
