//! The SAN discrete-event simulator.

use std::sync::{Arc, Mutex};

use vsched_des::{CalEventId, CalendarQueue, RngStreams, SimTime, Xoshiro256StarStar};

use crate::activity::{ActivityId, ActivitySpec, CaseWeights, Timing};
use crate::builder::Model;
use crate::error::SanError;
use crate::feed::{Feed, COMPACT_THRESHOLD};
use crate::marking::{Marking, PlaceId, ReadSet};
use crate::reward::{ImpulseReward, RateReward, RewardFn, RewardId};
use crate::shard::ShardPlan;

/// Priority offset that makes instantaneous activities preempt timed ones
/// scheduled at the same instant.
const INSTANTANEOUS_BASE: i32 = 1_000_000;

/// Default plan width below which [`ShardMode::Auto`] stays sequential.
/// Narrow plans cannot form batches often enough to amortize the lane
/// handshake; the `vsched perf` crossover matrix is the measured basis.
const DEFAULT_AUTO_SHARD_THRESHOLD: usize = 64;

/// How [`Simulator::run_until`] chooses between the sequential and the
/// sharded engine. Every choice is **bit-identical** in its results — the
/// mode only trades wall-clock and the [`SanError::ShardViolation`]
/// footprint check (which only the sharded engine performs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// Sequential engine, no shard bookkeeping (the default).
    #[default]
    Off,
    /// Sharded engine with a lane budget of `n` (values below 2 behave
    /// like [`ShardMode::Off`]). The lane count actually used is capped by
    /// the shard plan's width and the host's available parallelism — on a
    /// single-core host the engine runs its one-lane form, which keeps the
    /// footprint validation at near-sequential speed instead of paying for
    /// threads that cannot run concurrently.
    Fixed(usize),
    /// Pick per model and host: the sharded engine engages only when the
    /// host has parallelism to spare **and** the plan is at least
    /// [`Simulator::set_auto_shard_threshold`] shards wide; everything
    /// else runs sequentially, so the default configuration never loses.
    Auto,
}

/// Statistics from one [`Simulator::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Activity completions processed during the call.
    pub completions: u64,
    /// Activity activations that were aborted (disabled before completing).
    pub aborts: u64,
}

/// Executes a [`Model`] according to standard SAN semantics.
///
/// * An activity is **activated** when it becomes enabled: a completion time
///   is sampled from its delay distribution and scheduled.
/// * If a state change disables an activated activity it **aborts** and its
///   sampled completion is discarded.
/// * **Completion** atomically runs input-gate functions, consumes input
///   arcs, selects a case, produces output arcs and runs the case's output
///   gates; then the affected activities are re-evaluated.
/// * Instantaneous activities complete before any timed activity scheduled
///   at the same instant, higher priority first, FIFO among equals.
///
/// ## Incremental reevaluation
///
/// By default, after each completion only the activities whose enablement
/// can depend on a place the completion actually changed are re-examined
/// (plus the fired activity and any activity with an undeclared enablement
/// closure — see [`crate::ModelBuilder`] and
/// [`crate::ActivityBuilder::reads`]). Visits happen in ascending activity
/// index order, exactly the order of the full rescan with the no-op checks
/// removed, so the result — every marking, statistic, event id and RNG
/// draw — is bit-identical to [`Simulator::set_full_rescan`] mode. The
/// same filtering applies to rate-reward recomputation (reward functions
/// are pure functions of the marking).
///
/// See the crate-level documentation for an end-to-end example.
pub struct Simulator {
    /// Shared so shard workers can borrow the model concurrently with the
    /// merge thread (every gate closure is `Fn + Send + Sync`).
    model: Arc<Model>,
    marking: Marking,
    time: SimTime,
    queue: CalendarQueue<ActivityId>,
    /// Scheduled completion of each activity, if activated.
    scheduled: Vec<Option<CalEventId>>,
    /// Rate multiplier in force when each activity was activated; a change
    /// triggers reactivation (resampling) for rate-scaled activities.
    activation_rate: Vec<f64>,
    delay_rngs: Vec<Xoshiro256StarStar>,
    case_rngs: Vec<Xoshiro256StarStar>,
    /// Per-activity gate-function RNG streams. Independent streams (rather
    /// than one shared stream) are what make parallel shard firing
    /// possible: a batch's gate draws must not depend on firing order.
    gate_rngs: Vec<Xoshiro256StarStar>,
    rate_rewards: Vec<RateReward>,
    /// Instant (as `f64`) up to which every rate-reward accumulator has
    /// been advanced. Completions at exactly this instant skip the
    /// accumulator loop: the update would add `0.0 * value`, a bit-exact
    /// no-op for finite reward values.
    reward_clock: f64,
    /// Per place: rate rewards whose declared read-set contains it,
    /// ascending (mirror of the model's place → activity index).
    reward_dependents: Vec<Vec<u32>>,
    /// Rate rewards with undeclared read-sets — recomputed every firing.
    reward_conservative: Vec<u32>,
    impulse_rewards: Vec<ImpulseReward>,
    /// Guard against models whose instantaneous activities loop forever.
    max_zero_advance: u64,
    started: bool,
    /// Debug/differential mode: rescan every activity and reward after
    /// every completion instead of using the dependency index.
    full_rescan: bool,
    /// Scratch: candidate activity indices for incremental reevaluation.
    eval_scratch: Vec<u32>,
    /// Scratch: candidate reward indices for incremental recomputation.
    reward_scratch: Vec<u32>,
    /// Scratch buffer for dynamic case weights (reused across completions).
    weight_scratch: Vec<f64>,
    /// Engine selection policy for intra-replication sharding.
    shard_mode: ShardMode,
    /// Test/bench override of the host's available parallelism (forces a
    /// lane count regardless of what the machine reports).
    avail_override: Option<usize>,
    /// Auto mode engages lanes only for plans at least this wide.
    auto_min_shards: usize,
    /// Lane count the sharded engine used on the most recent run
    /// (`None` = the sequential engine ran).
    resolved_shards: Option<usize>,
    /// Lazily derived shard plan (only when sharding is requested).
    shard_plan: Option<Arc<ShardPlan>>,
    stats: RunStats,
}

/// One parallel firing: the activity plus its private RNG streams, moved
/// to the lane and returned (advanced) in [`FireResult`].
struct FireItem {
    idx: usize,
    case_rng: Xoshiro256StarStar,
    gate_rng: Xoshiro256StarStar,
    /// Recycled patch buffer: the lane fills it and hands it back as
    /// [`FireResult::patch`]; the merge returns it to the driver's pool,
    /// so steady-state waves allocate nothing.
    patch: Vec<(u32, i64)>,
}

/// What a lane hands back: the advanced RNG streams and the fired
/// activity's marking writes as `(place, new value)` pairs in first-touch
/// order — exactly the dirty set a sequential firing would have produced.
struct FireResult {
    case_rng: Xoshiro256StarStar,
    gate_rng: Xoshiro256StarStar,
    patch: Vec<(u32, i64)>,
}

/// Per-lane state of the sharded engine: a marking replica (kept in sync
/// by replaying the delta feed at each wave) and a private scratch buffer.
struct ShardWorker {
    marking: Marking,
    weight_scratch: Vec<f64>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("marking", &self.marking)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator over `model`, with all randomness derived from
    /// `seed`.
    #[must_use]
    pub fn new(model: Model, seed: u64) -> Self {
        let streams = RngStreams::new(seed);
        let n = model.num_activities();
        let mut marking = model.initial_marking();
        marking.enable_dirty_tracking();
        Simulator {
            marking,
            time: SimTime::ZERO,
            queue: CalendarQueue::new(),
            scheduled: vec![None; n],
            activation_rate: vec![1.0; n],
            delay_rngs: (0..n).map(|i| streams.stream(10_000 + i as u64)).collect(),
            case_rngs: (0..n).map(|i| streams.stream(20_000 + i as u64)).collect(),
            gate_rngs: (0..n).map(|i| streams.stream(30_000 + i as u64)).collect(),
            rate_rewards: Vec::new(),
            reward_clock: 0.0,
            reward_dependents: vec![Vec::new(); model.num_places()],
            reward_conservative: Vec::new(),
            impulse_rewards: Vec::new(),
            max_zero_advance: 1_000_000,
            started: false,
            full_rescan: false,
            eval_scratch: Vec::new(),
            reward_scratch: Vec::new(),
            weight_scratch: Vec::new(),
            shard_mode: ShardMode::Off,
            avail_override: None,
            auto_min_shards: DEFAULT_AUTO_SHARD_THRESHOLD,
            resolved_shards: None,
            shard_plan: None,
            stats: RunStats::default(),
            model: Arc::new(model),
        }
    }

    /// Sets the lane budget for intra-replication sharding. `0` or `1`
    /// selects the sequential engine; `>= 2` fires statically derived
    /// conflict-free shards (see [`ShardPlan`]) in parallel, with a
    /// deterministic sequential merge. Results are **bit-identical for any
    /// value** — marking, statistics, rewards, event ordering and every
    /// RNG draw match the sequential engine exactly.
    ///
    /// Shorthand for [`Simulator::set_shard_mode`] with
    /// [`ShardMode::Fixed`] (or [`ShardMode::Off`] below 2).
    pub fn set_shards(&mut self, shards: usize) {
        self.shard_mode = if shards >= 2 {
            ShardMode::Fixed(shards)
        } else {
            ShardMode::Off
        };
    }

    /// Sets the engine selection policy; see [`ShardMode`].
    pub fn set_shard_mode(&mut self, mode: ShardMode) {
        self.shard_mode = mode;
    }

    /// The engine selection policy in force.
    #[must_use]
    pub fn shard_mode(&self) -> ShardMode {
        self.shard_mode
    }

    /// Overrides what the engine treats as the host's available
    /// parallelism (`None` restores the real value). Tests and sanitizer
    /// runs use this to force real helper threads on any machine; the
    /// perf harness uses it to measure the crossover matrix honestly.
    pub fn set_shard_available_override(&mut self, avail: Option<usize>) {
        self.avail_override = avail.map(|a| a.max(1));
    }

    /// Sets the minimum shard-plan width at which [`ShardMode::Auto`]
    /// engages the sharded engine (default 64; clamped to at least 2).
    pub fn set_auto_shard_threshold(&mut self, min_shards: usize) {
        self.auto_min_shards = min_shards.max(2);
    }

    /// Lane count the sharded engine used on the most recent
    /// [`Simulator::run_until`], or `None` if the sequential engine ran —
    /// how a [`ShardMode::Auto`] (or capped [`ShardMode::Fixed`])
    /// resolution is reported honestly.
    #[must_use]
    pub fn resolved_shards(&self) -> Option<usize> {
        self.resolved_shards
    }

    /// The shard plan in force (derived on first sharded run).
    #[must_use]
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        self.shard_plan.as_deref()
    }

    /// Switches between incremental reevaluation (default, `false`) and the
    /// full per-completion rescan. The two modes are bit-identical by
    /// construction; the rescan is kept as the debug/differential reference
    /// that `vsched-check` compares against on every fuzz case.
    pub fn set_full_rescan(&mut self, on: bool) {
        self.full_rescan = on;
    }

    /// Whether the full per-completion rescan is in force.
    #[must_use]
    pub fn full_rescan(&self) -> bool {
        self.full_rescan
    }

    /// Caps the number of completions tolerated without time advancing
    /// before [`SanError::InstantaneousLoop`] is reported (default 10^6).
    pub fn set_max_zero_advance(&mut self, limit: u64) {
        self.max_zero_advance = limit.max(1);
    }

    /// Enables the future-event-list monotonicity check (see
    /// [`CalendarQueue::enable_monotonicity_check`]): every popped completion
    /// must be at or after the previous one, otherwise the simulator panics
    /// instead of silently running time backwards. Costs one branch per
    /// event; disabled by default.
    pub fn enable_event_monotonicity_check(&mut self) {
        self.queue.enable_monotonicity_check();
    }

    /// Current virtual time.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Current marking (read-only).
    #[must_use]
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// The model being executed.
    #[must_use]
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Cumulative execution statistics.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Registers a rate reward `f`; its time average over the observation
    /// window is available through [`Simulator::rate_reward_average`].
    ///
    /// The reward's read-set is undeclared, so `f` is conservatively
    /// re-evaluated after every completion; prefer
    /// [`Simulator::add_rate_reward_with_reads`] when the places `f` reads
    /// are known.
    pub fn add_rate_reward(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&Marking) -> f64 + 'static,
    ) -> RewardId {
        self.push_rate_reward(name.into(), Box::new(f), ReadSet::All)
    }

    /// Registers a rate reward that declares the places it reads: `f` is
    /// then only re-evaluated when a completion changes one of them (reward
    /// functions must be pure functions of the marking, so an unchanged
    /// read-set implies an unchanged value).
    pub fn add_rate_reward_with_reads(
        &mut self,
        name: impl Into<String>,
        reads: impl IntoIterator<Item = PlaceId>,
        f: impl Fn(&Marking) -> f64 + 'static,
    ) -> RewardId {
        self.push_rate_reward(
            name.into(),
            Box::new(f),
            ReadSet::Declared(reads.into_iter().collect()),
        )
    }

    fn push_rate_reward(&mut self, name: String, f: RewardFn, reads: ReadSet) -> RewardId {
        let id = self.rate_rewards.len();
        match &reads {
            ReadSet::All => self.reward_conservative.push(id as u32),
            ReadSet::Declared(places) => {
                let mut places: Vec<usize> = places.iter().map(|p| p.index()).collect();
                places.sort_unstable();
                places.dedup();
                for p in places {
                    self.reward_dependents[p].push(id as u32);
                }
            }
        }
        let current = f(&self.marking);
        let mut acc = vsched_stats::TimeWeighted::new(self.time.as_f64());
        // If registered mid-run, the accumulator starts "now"; if registered
        // before the first event it starts at zero — both are correct.
        acc.reset(self.time.as_f64());
        self.rate_rewards.push(RateReward {
            name,
            f,
            acc,
            current,
        });
        RewardId(id)
    }

    /// Registers an impulse reward earned at each completion of `activity`.
    pub fn add_impulse_reward(
        &mut self,
        name: impl Into<String>,
        activity: ActivityId,
        f: impl Fn(&Marking) -> f64 + 'static,
    ) -> RewardId {
        self.impulse_rewards.push(ImpulseReward {
            name: name.into(),
            activity,
            f: Box::new(f),
            total: 0.0,
            count: 0,
        });
        RewardId(self.impulse_rewards.len() - 1)
    }

    /// Time average of a rate reward over the observation window.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Simulator::add_rate_reward`] of
    /// this simulator.
    #[must_use]
    pub fn rate_reward_average(&self, id: RewardId) -> f64 {
        self.rate_rewards[id.0].acc.time_average()
    }

    /// Name of a rate reward.
    #[must_use]
    pub fn rate_reward_name(&self, id: RewardId) -> &str {
        &self.rate_rewards[id.0].name
    }

    /// Accumulated total of an impulse reward.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by
    /// [`Simulator::add_impulse_reward`] of this simulator.
    #[must_use]
    pub fn impulse_total(&self, id: RewardId) -> f64 {
        self.impulse_rewards[id.0].total
    }

    /// Number of completions counted by an impulse reward.
    #[must_use]
    pub fn impulse_count(&self, id: RewardId) -> u64 {
        self.impulse_rewards[id.0].count
    }

    /// Restarts all reward observation windows at the current time —
    /// transient (warm-up) deletion:
    ///
    /// ```text
    /// sim.run_until(warmup)?;   // reach steady state
    /// sim.reset_rewards();      // discard transient
    /// sim.run_until(horizon)?;  // measure
    /// ```
    pub fn reset_rewards(&mut self) {
        let now = self.time.as_f64();
        self.reward_clock = now;
        for r in &mut self.rate_rewards {
            r.acc.reset(now);
            r.current = (r.f)(&self.marking);
        }
        for r in &mut self.impulse_rewards {
            r.total = 0.0;
            r.count = 0;
        }
    }

    /// Applies an external marking mutation at the current instant —
    /// the hook the trace frontend uses for VM arrival, departure and
    /// load-level changes at event boundaries, between
    /// [`Simulator::run_until`] calls.
    ///
    /// The mutation behaves exactly like the marking update of an
    /// anonymous completion at the current time: any rate-reward interval
    /// ending now is closed at the pre-mutation reward values, `f` runs
    /// with dirty-place tracking, then dependent rewards are recomputed
    /// and dependent activities reevaluated (newly enabled activities
    /// activate, newly disabled ones abort, and rate-scaled activities
    /// whose multiplier changed resample) — so the event schedule and
    /// every RNG stream stay deterministic across membership changes.
    /// The shard plan is invalidated and re-derived on the next sharded
    /// run.
    ///
    /// Calling this before the first `run_until` performs the initial
    /// full activation pass first, so activation order (and therefore
    /// every subsequent draw) matches a run whose mutation happened after
    /// startup.
    pub fn apply_external(&mut self, f: impl FnOnce(&mut Marking)) {
        self.ensure_started();
        self.advance_to(self.time);
        self.marking.clear_dirty();
        f(&mut self.marking);
        self.recompute_rewards();
        self.reevaluate(None);
        self.shard_plan = None;
    }

    /// Runs the simulation until virtual time `t_end`.
    ///
    /// All events with completion time ≤ `t_end` are processed; the clock
    /// and every rate-reward window then advance exactly to `t_end`. Can be
    /// called repeatedly with increasing horizons.
    ///
    /// # Errors
    ///
    /// [`SanError::InstantaneousLoop`] if the model completes more than the
    /// configured limit of activities without time advancing.
    pub fn run_until(&mut self, t_end: f64) -> Result<RunStats, SanError> {
        let t_end = SimTime::new(t_end);
        self.ensure_started();
        let mut run = RunStats::default();
        match self.resolve_shard_lanes() {
            Some(lanes) => self.run_events_sharded(t_end, &mut run, lanes)?,
            None => self.run_events(t_end, &mut run)?,
        }
        self.advance_to(t_end);
        self.stats.completions += run.completions;
        run.aborts = self.stats.aborts;
        Ok(run)
    }

    /// [`Simulator::run_until`] with a breakpoint: returns `Ok(true)`,
    /// without firing it, as soon as the event at the queue head is a
    /// completion of `stop`. The clock and the reward windows then stay
    /// where the last fired event put them, so a later `run_until`
    /// resumes exactly where one uninterrupted run would have been. When
    /// no completion of `stop` falls within `t_end` this is exactly
    /// `run_until(t_end)` and returns `Ok(false)`.
    ///
    /// The sequential engine always runs, whatever the shard mode: sharded
    /// runs are bit-identical to it. [`Simulator::resolved_shards`] keeps
    /// reporting the last `run_until`.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_until`].
    pub fn run_until_break(&mut self, t_end: f64, stop: ActivityId) -> Result<bool, SanError> {
        let t_end = SimTime::new(t_end);
        self.ensure_started();
        let mut last_time = self.time;
        let mut zero_advance: u64 = 0;
        let mut completions = 0;
        let mut stopped = false;
        while let Some((next, _, &act)) = self.queue.peek() {
            if next > t_end {
                break;
            }
            if act == stop {
                stopped = true;
                break;
            }
            self.queue.pop();
            self.note_advance(&mut last_time, &mut zero_advance, next)?;
            self.time = next;
            self.fire(act);
            completions += 1;
        }
        if !stopped {
            self.advance_to(t_end);
        }
        self.stats.completions += completions;
        Ok(stopped)
    }

    /// The first evaluation considers every activity, in both
    /// reevaluation modes.
    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for idx in 0..self.model.activities.len() {
                self.reevaluate_one(idx);
            }
        }
    }

    /// Advances the clock and every rate-reward window to `t_end`.
    fn advance_to(&mut self, t_end: SimTime) {
        self.time = self.time.max(t_end);
        let now = self.time.as_f64();
        if now > self.reward_clock {
            for r in &mut self.rate_rewards {
                r.acc.update(now, r.current);
            }
            self.reward_clock = now;
        }
    }

    /// Resolves the shard mode against the plan and the host: `Some(n)`
    /// selects the sharded engine with `n` lanes, `None` the sequential
    /// engine. Derives the plan lazily, and records the outcome for
    /// [`Simulator::resolved_shards`].
    fn resolve_shard_lanes(&mut self) -> Option<usize> {
        self.resolved_shards = None;
        let budget = match self.shard_mode {
            ShardMode::Off => return None,
            ShardMode::Fixed(n) if n < 2 => return None,
            ShardMode::Fixed(n) => Some(n),
            ShardMode::Auto => None,
        };
        let plan_width = match &self.shard_plan {
            Some(p) => p.num_shards(),
            None => {
                let p = Arc::new(ShardPlan::derive(&self.model));
                let width = p.num_shards();
                self.shard_plan = Some(p);
                width
            }
        };
        let avail = self.avail_override.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let lanes = match budget {
            // An explicit shard count keeps the sharded engine (and its
            // footprint validation) even when capped to one lane; only
            // plans too narrow to ever batch skip it entirely.
            Some(n) => {
                if plan_width < 2 {
                    return None;
                }
                n.min(plan_width).min(avail).max(1)
            }
            // Auto engages lanes only where they can pay for themselves:
            // real parallelism available and a plan wide enough to batch.
            None => {
                if avail < 2 || plan_width < self.auto_min_shards {
                    return None;
                }
                avail.min(plan_width)
            }
        };
        self.resolved_shards = Some(lanes);
        Some(lanes)
    }

    /// The sequential event loop of [`Simulator::run_until`].
    fn run_events(&mut self, t_end: SimTime, run: &mut RunStats) -> Result<(), SanError> {
        let mut last_time = self.time;
        let mut zero_advance: u64 = 0;
        while let Some(next) = self.queue.peek_time() {
            if next > t_end {
                break;
            }
            let (t, _, act) = self.queue.pop().expect("peeked event must pop");
            self.note_advance(&mut last_time, &mut zero_advance, t)?;
            self.time = t;
            self.fire(act);
            run.completions += 1;
        }
        Ok(())
    }

    /// Zero-advance bookkeeping for one popped event (shared by the
    /// sequential and sharded loops, which must count identically).
    fn note_advance(
        &self,
        last_time: &mut SimTime,
        zero_advance: &mut u64,
        t: SimTime,
    ) -> Result<(), SanError> {
        if t > *last_time {
            *last_time = t;
            *zero_advance = 0;
        } else {
            *zero_advance += 1;
            if *zero_advance > self.max_zero_advance {
                return Err(SanError::InstantaneousLoop {
                    at_time: t.as_f64(),
                    limit: self.max_zero_advance,
                });
            }
        }
        Ok(())
    }

    /// The sharded event loop: pops of the same instant and queue
    /// priority whose activities belong to pairwise-distinct shards form a
    /// *batch*; the batch's marking updates run concurrently on lane
    /// replicas (phase A), then the results merge sequentially in pop
    /// order (phase B) — patch application, rewards, reevaluation and all
    /// queue operations happen on the driving thread exactly as the
    /// sequential engine would have done them. See `DESIGN.md` §14 for the
    /// bit-identity argument and §19 for the lane/feed runtime.
    ///
    /// With one lane the replica machinery would be pure overhead, so the
    /// engine switches to its direct-fire form
    /// ([`Simulator::run_events_shard_checked`]), which preserves the
    /// footprint validation at near-sequential cost.
    fn run_events_sharded(
        &mut self,
        t_end: SimTime,
        run: &mut RunStats,
        lanes: usize,
    ) -> Result<(), SanError> {
        let plan = Arc::clone(
            self.shard_plan
                .as_ref()
                .expect("plan derived during lane resolution"),
        );
        if lanes < 2 {
            return self.run_events_shard_checked(t_end, run, &plan);
        }
        let model = Arc::clone(&self.model);
        // Every marking write since the previous wave flows through the
        // cursor-indexed delta feed; each lane replays only what it has
        // not yet seen (its wave prologue below).
        let feed: Mutex<Feed> = Mutex::new(Feed::new(lanes));
        // Debug-builds-only audit: the authoritative wave-start marking,
        // snapshotted before each dispatch so every lane can assert its
        // replica landed exactly on it after delta replay (empty = unset).
        let audit: Mutex<Vec<i64>> = Mutex::new(Vec::new());
        let mut replica = self.marking.clone();
        replica.clear_dirty();
        vsched_exec::lane::run(
            lanes,
            // Lane replicas clone the engine-start marking, which is what
            // feed cursor 0 corresponds to — a lane first engaged at wave
            // k simply replays waves 0..k in its first prologue.
            |_lane| ShardWorker {
                marking: replica.clone(),
                weight_scratch: Vec::new(),
            },
            |lane, w: &mut ShardWorker| {
                feed.lock()
                    .expect("feed lock")
                    .replay_into(lane, &mut w.marking);
                if cfg!(debug_assertions) {
                    let snap = audit.lock().expect("audit lock");
                    if !snap.is_empty() {
                        assert_eq!(
                            w.marking.as_slice(),
                            &snap[..],
                            "lane {lane} replica must equal the authoritative \
                             wave-start marking after delta replay"
                        );
                    }
                }
            },
            |w: &mut ShardWorker, mut item: FireItem| {
                w.marking.clear_dirty();
                model.fire_marking_update(
                    item.idx,
                    &mut w.marking,
                    &mut item.case_rng,
                    &mut item.gate_rng,
                    &mut w.weight_scratch,
                );
                item.patch.clear();
                item.patch.extend(
                    w.marking
                        .dirty()
                        .iter()
                        .map(|&p| (p as u32, w.marking.tokens(PlaceId(p)))),
                );
                FireResult {
                    case_rng: item.case_rng,
                    gate_rng: item.gate_rng,
                    patch: item.patch,
                }
            },
            |handle| self.drive_sharded(handle, t_end, run, &plan, &feed, &audit),
        )
    }

    /// The driving thread's loop inside the lane pool scope.
    fn drive_sharded<FM, FW, FS>(
        &mut self,
        handle: &mut vsched_exec::LaneHandle<'_, FireItem, FireResult, ShardWorker, FM, FW, FS>,
        t_end: SimTime,
        run: &mut RunStats,
        plan: &ShardPlan,
        feed: &Mutex<Feed>,
        audit: &Mutex<Vec<i64>>,
    ) -> Result<(), SanError>
    where
        FM: Fn(usize) -> ShardWorker + Sync,
        FW: Fn(usize, &mut ShardWorker) + Sync,
        FS: Fn(&mut ShardWorker, FireItem) -> FireResult + Sync,
    {
        let act_shard = plan.act_shard_raw();
        let place_shard = plan.place_shard_raw();
        let mut last_time = self.time;
        let mut zero_advance: u64 = 0;
        let mut batch: Vec<ActivityId> = Vec::new();
        // Batch membership by generation stamp: `shard_stamp[s] == gen`
        // iff shard `s` is already in the batch being formed — O(1) per
        // candidate where the old `Vec::contains` scan was O(batch).
        let mut shard_stamp: Vec<u64> = vec![0; plan.num_shards()];
        let mut batch_gen: u64 = 0;
        // Marking writes since the last feed publish — sequential fires
        // and merged batch patches alike — published in ONE `append_batch`
        // per wave (the per-fire-mutex fix; `Feed::appends` pins it).
        let mut pending: Vec<(u32, i64)> = Vec::new();
        // Reusable dispatch vectors and recycled patch buffers.
        let mut items: Vec<FireItem> = Vec::new();
        let mut results: Vec<FireResult> = Vec::new();
        let mut buf_pool: Vec<Vec<(u32, i64)>> = Vec::new();
        while let Some(next) = self.queue.peek_time() {
            if next > t_end {
                break;
            }
            let (t, _, act) = self.queue.pop().expect("peeked event must pop");
            self.note_advance(&mut last_time, &mut zero_advance, t)?;
            self.time = t;
            let first_shard = act_shard[act.0];
            if first_shard < 0 {
                self.fire_buffered(act, &mut pending);
                run.completions += 1;
                continue;
            }
            // Extend into a batch: same instant, same queue priority,
            // pairwise-distinct shards. Sharded activities are always
            // instantaneous, so the queue priority is determined by the
            // activity's completion priority.
            let prio = instantaneous_queue_priority(&self.model.activities[act.0]);
            batch.clear();
            batch_gen += 1;
            batch.push(act);
            shard_stamp[first_shard as usize] = batch_gen;
            while let Some((nt, np, &na)) = self.queue.peek() {
                if nt != t || np != prio {
                    break;
                }
                let shard = act_shard[na.0];
                if shard < 0 || shard_stamp[shard as usize] == batch_gen {
                    break;
                }
                let (pt, _, popped) = self.queue.pop().expect("peeked event must pop");
                self.note_advance(&mut last_time, &mut zero_advance, pt)?;
                batch.push(popped);
                shard_stamp[shard as usize] = batch_gen;
            }
            if batch.len() == 1 {
                self.fire_buffered(act, &mut pending);
                run.completions += 1;
                continue;
            }
            // Publish everything since the previous wave; when the feed
            // has grown past its bound, this wave also engages idle lanes
            // so every cursor reaches the tip and the feed can compact.
            let engage_all = {
                let mut f = feed.lock().expect("feed lock");
                f.append_batch(&mut pending);
                f.len() >= COMPACT_THRESHOLD
            };
            if cfg!(debug_assertions) {
                let mut snap = audit.lock().expect("audit lock");
                snap.clear();
                snap.extend_from_slice(self.marking.as_slice());
            }
            // Phase A: fire every batch member on a lane replica.
            items.extend(batch.iter().map(|a| FireItem {
                idx: a.0,
                case_rng: self.case_rngs[a.0].clone(),
                gate_rng: self.gate_rngs[a.0].clone(),
                patch: buf_pool.pop().unwrap_or_default(),
            }));
            handle.dispatch(&mut items, &mut results, engage_all);
            if engage_all {
                feed.lock().expect("feed lock").compact();
            }
            // Phase B: merge in pop order. Everything a sequential firing
            // would do after its marking update happens here, on the main
            // marking, which is in the exact sequential state at each step.
            for (a, result) in batch.iter().zip(results.drain(..)) {
                for &(place, _) in &result.patch {
                    if place_shard[place as usize] != act_shard[a.0] {
                        return Err(SanError::ShardViolation {
                            activity: self.model.activities[a.0].name.clone(),
                            place: self.model.names[place as usize].clone(),
                        });
                    }
                }
                self.case_rngs[a.0] = result.case_rng;
                self.gate_rngs[a.0] = result.gate_rng;
                self.apply_fire(*a, &result.patch, &mut pending);
                run.completions += 1;
                let mut patch = result.patch;
                patch.clear();
                buf_pool.push(patch);
            }
        }
        Ok(())
    }

    /// The sharded engine's one-lane form: fires sequentially on the
    /// authoritative marking — no replicas, no feed, no pool — and
    /// validates each sharded activity's write footprint against the plan
    /// afterwards, preserving the [`SanError::ShardViolation`] guarantee
    /// at near-sequential speed. Bit-identity with the multi-lane form is
    /// structural: batch members have pairwise-disjoint footprints
    /// (exactly what the validation enforces), so firing them in pop
    /// order on the live marking performs the same writes and draws as
    /// firing them on wave-start replicas; a violating fire errors here
    /// no later than its merge would have.
    fn run_events_shard_checked(
        &mut self,
        t_end: SimTime,
        run: &mut RunStats,
        plan: &ShardPlan,
    ) -> Result<(), SanError> {
        let act_shard = plan.act_shard_raw();
        let place_shard = plan.place_shard_raw();
        let mut last_time = self.time;
        let mut zero_advance: u64 = 0;
        while let Some(next) = self.queue.peek_time() {
            if next > t_end {
                break;
            }
            let (t, _, act) = self.queue.pop().expect("peeked event must pop");
            self.note_advance(&mut last_time, &mut zero_advance, t)?;
            self.time = t;
            self.fire(act);
            run.completions += 1;
            let shard = act_shard[act.0];
            if shard >= 0 {
                for &p in self.marking.dirty() {
                    if place_shard[p] != shard {
                        return Err(SanError::ShardViolation {
                            activity: self.model.activities[act.0].name.clone(),
                            place: self.model.names[p].clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Sequential fire inside the sharded loop: the fired activity's
    /// dirty places buffer into `pending` for the next feed publish — no
    /// lock is taken here (fires between waves batch into one append).
    fn fire_buffered(&mut self, act: ActivityId, pending: &mut Vec<(u32, i64)>) {
        self.fire(act);
        for &p in self.marking.dirty() {
            pending.push((p as u32, self.marking.tokens(PlaceId(p))));
        }
    }

    /// Phase B of one batched firing: everything [`Simulator::fire`] does,
    /// with the marking update replaced by the lane-computed patch, which
    /// also buffers into `pending` for the next feed publish.
    fn apply_fire(
        &mut self,
        act_id: ActivityId,
        patch: &[(u32, i64)],
        pending: &mut Vec<(u32, i64)>,
    ) {
        let idx = act_id.0;
        self.scheduled[idx] = None;
        debug_assert!(
            self.model.activities[idx].enabled(&self.marking),
            "batched activity `{}` must still be enabled at merge time",
            self.model.activities[idx].name
        );
        let now = self.time.as_f64();
        if now > self.reward_clock {
            for r in &mut self.rate_rewards {
                r.acc.update(now, r.current);
            }
            self.reward_clock = now;
        }
        self.marking.clear_dirty();
        for &(p, v) in patch {
            self.marking.set(PlaceId(p as usize), v);
        }
        pending.extend_from_slice(patch);
        self.post_fire(act_id);
    }

    /// Completes one activity: the atomic SAN completion rule.
    fn fire(&mut self, act_id: ActivityId) {
        let idx = act_id.0;
        self.scheduled[idx] = None;
        debug_assert!(
            self.model.activities[idx].enabled(&self.marking),
            "completed activity `{}` must be enabled (eager abort failed)",
            self.model.activities[idx].name
        );

        // Rate rewards: close the interval that ends now, at the value the
        // signal held since the previous state change. When this completion
        // shares its instant with the previous update (instantaneous
        // cascades within one tick), every accumulator would add exactly
        // `0.0 * value` — a bit-exact no-op for finite values (`integral`
        // can never be `-0.0`: it starts at `+0.0` and no finite sum
        // rounds to `-0.0`), so the whole loop is skipped.
        let now = self.time.as_f64();
        if now > self.reward_clock {
            for r in &mut self.rate_rewards {
                r.acc.update(now, r.current);
            }
            self.reward_clock = now;
        }

        // From here on, record exactly the places this completion touches.
        self.marking.clear_dirty();

        self.model.fire_marking_update(
            idx,
            &mut self.marking,
            &mut self.case_rngs[idx],
            &mut self.gate_rngs[idx],
            &mut self.weight_scratch,
        );

        self.post_fire(act_id);
    }

    /// Everything after the marking update of a completion: impulse
    /// rewards, rate-reward recomputation, and activity reevaluation.
    /// Shared verbatim by the sequential path ([`Simulator::fire`]) and
    /// the sharded merge ([`Simulator::apply_fire`]).
    fn post_fire(&mut self, act_id: ActivityId) {
        // Impulse rewards observe the post-completion marking.
        for r in &mut self.impulse_rewards {
            if r.activity == act_id {
                r.total += (r.f)(&self.marking);
                r.count += 1;
            }
        }

        self.recompute_rewards();
        self.reevaluate(Some(act_id.0));
    }

    /// Rate rewards: the signal takes its new value from now on. Reward
    /// functions are pure, so in incremental mode only rewards that may
    /// read a touched place can have a new value; the time-integral
    /// updates happening before the marking change are skipped only when
    /// zero time has elapsed (a bit-exact no-op), and both modes share
    /// that rule, so the accumulation grouping stays identical between
    /// modes.
    fn recompute_rewards(&mut self) {
        if self.full_rescan {
            for r in &mut self.rate_rewards {
                r.current = (r.f)(&self.marking);
            }
        } else {
            self.reward_scratch.clear();
            for &p in self.marking.dirty() {
                self.reward_scratch
                    .extend_from_slice(&self.reward_dependents[p]);
            }
            self.reward_scratch
                .extend_from_slice(&self.reward_conservative);
            self.reward_scratch.sort_unstable();
            self.reward_scratch.dedup();
            for &ri in &self.reward_scratch {
                let r = &mut self.rate_rewards[ri as usize];
                r.current = (r.f)(&self.marking);
            }
        }
    }

    /// Activates newly enabled activities, aborts newly disabled ones, and
    /// reactivates rate-scaled activities whose multiplier changed (for
    /// exponential delays this is exactly the CTMC race semantics; for
    /// other distributions it is the defined reactivation policy).
    ///
    /// Incremental mode visits only the activities whose enablement can
    /// depend on a place the completion changed, plus every conservative
    /// (undeclared-read-set) activity, plus `fired` itself (its completion
    /// was just consumed, so it must be re-examined even if no place it
    /// reads changed). Visits are in ascending activity-index order — a
    /// subsequence of the full rescan from which only provable no-ops are
    /// missing (unchanged reads ⇒ unchanged `enabled()` and multiplier ⇒
    /// no queue operation, no RNG draw), so both modes schedule the same
    /// events with the same ids and consume the same random numbers.
    fn reevaluate(&mut self, fired: Option<usize>) {
        if self.full_rescan {
            for idx in 0..self.model.activities.len() {
                self.reevaluate_one(idx);
            }
            return;
        }
        let mut cand = std::mem::take(&mut self.eval_scratch);
        cand.clear();
        for &p in self.marking.dirty() {
            cand.extend_from_slice(self.model.enable_index.dependents(p));
        }
        cand.extend_from_slice(&self.model.enable_index.conservative);
        if let Some(fired) = fired {
            cand.push(fired as u32);
        }
        cand.sort_unstable();
        cand.dedup();
        for &idx in &cand {
            self.reevaluate_one(idx as usize);
        }
        self.eval_scratch = cand;
    }

    /// The per-activity body of [`Simulator::reevaluate`].
    fn reevaluate_one(&mut self, idx: usize) {
        let enabled = self.model.activities[idx].enabled(&self.marking);
        match (enabled, self.scheduled[idx]) {
            (true, None) => self.activate(idx),
            (false, Some(ev)) => {
                self.queue.cancel(ev);
                self.scheduled[idx] = None;
                self.stats.aborts += 1;
            }
            (true, Some(ev)) => {
                let act = &self.model.activities[idx];
                if act.rate_fn.is_some() {
                    let k = act.rate_multiplier(&self.marking);
                    let old = self.activation_rate[idx];
                    // Symmetric relative-or-absolute tolerance: the earlier
                    // bound `EPSILON * k.abs()` collapses to ~0 for tiny k,
                    // so re-reading an unchanged near-zero rate registered
                    // as a change and forced a spurious resample.
                    if (k - old).abs() > f64::EPSILON * k.abs().max(old.abs()).max(1.0) {
                        self.queue.cancel(ev);
                        self.scheduled[idx] = None;
                        self.stats.aborts += 1;
                        self.activate(idx);
                    }
                }
            }
            (false, None) => {}
        }
    }

    /// Samples a delay and schedules the completion of activity `idx`.
    fn activate(&mut self, idx: usize) {
        let (delay, priority) = match &self.model.activities[idx].timing {
            Timing::Timed(dist) => {
                let base = dist.sample(&mut self.delay_rngs[idx]);
                // Marking-dependent rate: enabled() guarantees the
                // multiplier is positive here.
                let k = self.model.activities[idx].rate_multiplier(&self.marking);
                self.activation_rate[idx] = k;
                (base / k, 0)
            }
            Timing::Instantaneous { priority } => {
                (0.0, INSTANTANEOUS_BASE.saturating_add(*priority))
            }
        };
        let when = SimTime::new(self.time.as_f64() + delay);
        let ev = self.queue.schedule(when, priority, ActivityId(idx));
        self.scheduled[idx] = Some(ev);
    }
}

impl Model {
    /// Completes activity `act` **once** on a caller-supplied marking —
    /// the probe-fire entry point of the static analyzer (`vsched-analyze`).
    ///
    /// Executes the same atomic completion rule as [`Simulator`]: input
    /// gate functions, input arc consumption, case selection, output arcs,
    /// then the chosen case's output gates — all randomness drawn from
    /// `rng` (a single probe stream, unlike the simulator's per-activity
    /// stream layout). No activation/abort bookkeeping happens; the caller
    /// owns the exploration strategy.
    ///
    /// Returns the chosen case index, or `None` if the activity has
    /// marking-dependent case weights whose total was not positive and
    /// finite at selection time (in which case the marking has already
    /// absorbed the input-gate functions and input-arc consumption — probe
    /// on a clone if that matters).
    ///
    /// # Panics
    ///
    /// Panics (via [`Marking`]'s non-negativity guard) if `act` is fired
    /// while disabled; check [`crate::activity::ActivitySpec::enabled`]
    /// first. Gate closures may additionally panic on markings they were
    /// never designed to see — probe only along enabled firings.
    pub fn probe_fire(
        &self,
        act: ActivityId,
        marking: &mut Marking,
        rng: &mut Xoshiro256StarStar,
    ) -> Option<usize> {
        let spec = &self.activities[act.0];
        // 1. Input gate functions.
        for gate in &spec.input_gates {
            if let Some(f) = &gate.function {
                f(marking, rng);
            }
        }
        // 2. Consume input arcs.
        for &(p, w) in &spec.input_arcs {
            marking.add(p, -w);
        }
        // 3. Select a case.
        let case_idx = match &spec.case_weights {
            CaseWeights::Fixed(w) if w.len() == 1 => 0,
            CaseWeights::Fixed(w) => try_pick_case(w, rng)?,
            CaseWeights::Dynamic(f) => {
                let mut w = Vec::new();
                f(marking, &mut w);
                if w.len() != spec.cases.len() {
                    return None;
                }
                try_pick_case(&w, rng)?
            }
        };
        // 4. Produce output arcs.
        for &(p, w) in &spec.cases[case_idx].output_arcs {
            marking.add(p, w);
        }
        // 5. Output gate functions of the chosen case.
        for gate in &spec.cases[case_idx].output_gates {
            (gate.function)(marking, rng);
        }
        Some(case_idx)
    }

    /// The first half of a completion — input gate functions and input-arc
    /// consumption (steps 1–2) — plus evaluation of the case-weight vector,
    /// *without* selecting a case. The exhaustive-state verifier uses this
    /// to enumerate every positive-weight branch of a firing instead of
    /// sampling one; each branch is then finished on its own marking clone
    /// with [`Model::probe_complete_case`].
    ///
    /// Returns the case-weight vector (`vec![1.0]` for a single-case
    /// activity), or `None` if dynamic weights had the wrong arity. Weights
    /// that are not positive and finite are the caller's to reject, exactly
    /// as `try_pick_case` would.
    ///
    /// # Panics
    ///
    /// Same contract as [`Model::probe_fire`]: fire only enabled
    /// activities, probe only along reachable markings.
    pub fn probe_cases(
        &self,
        act: ActivityId,
        marking: &mut Marking,
        rng: &mut Xoshiro256StarStar,
    ) -> Option<Vec<f64>> {
        let spec = &self.activities[act.0];
        // 1. Input gate functions.
        for gate in &spec.input_gates {
            if let Some(f) = &gate.function {
                f(marking, rng);
            }
        }
        // 2. Consume input arcs.
        for &(p, w) in &spec.input_arcs {
            marking.add(p, -w);
        }
        // 3. Evaluate (but do not sample) the case weights.
        match &spec.case_weights {
            CaseWeights::Fixed(w) if w.len() == 1 => Some(vec![1.0]),
            CaseWeights::Fixed(w) => Some(w.clone()),
            CaseWeights::Dynamic(f) => {
                let mut w = Vec::new();
                f(marking, &mut w);
                (w.len() == spec.cases.len()).then_some(w)
            }
        }
    }

    /// The second half of a completion for a chosen case — output arcs and
    /// the case's output gate functions (steps 4–5). `marking` must be the
    /// state [`Model::probe_cases`] left behind (or a clone of it).
    ///
    /// # Panics
    ///
    /// Panics if `case` is out of range for the activity.
    pub fn probe_complete_case(
        &self,
        act: ActivityId,
        case: usize,
        marking: &mut Marking,
        rng: &mut Xoshiro256StarStar,
    ) {
        let spec = &self.activities[act.0];
        for &(p, w) in &spec.cases[case].output_arcs {
            marking.add(p, w);
        }
        for gate in &spec.cases[case].output_gates {
            (gate.function)(marking, rng);
        }
    }

    /// The marking update of one completion — steps 1–5 of the atomic SAN
    /// completion rule — on a caller-supplied marking with caller-supplied
    /// RNG streams. The single body shared by the sequential engine
    /// ([`Simulator::fire`]) and the shard workers, which is what makes
    /// their results identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if the activity is fired while disabled (marking underflow)
    /// or if its case weights are invalid — both model bugs.
    pub(crate) fn fire_marking_update(
        &self,
        idx: usize,
        marking: &mut Marking,
        case_rng: &mut Xoshiro256StarStar,
        gate_rng: &mut Xoshiro256StarStar,
        weight_scratch: &mut Vec<f64>,
    ) {
        let act = &self.activities[idx];
        // 1. Input gate functions.
        for gate in &act.input_gates {
            if let Some(f) = &gate.function {
                f(marking, gate_rng);
            }
        }
        // 2. Consume input arcs.
        for &(p, w) in &act.input_arcs {
            marking.add(p, -w);
        }
        // 3. Select a case.
        let case_idx = match &act.case_weights {
            CaseWeights::Fixed(w) if w.len() == 1 => 0,
            CaseWeights::Fixed(w) => pick_case(w, case_rng, &act.name),
            CaseWeights::Dynamic(f) => {
                weight_scratch.clear();
                f(marking, weight_scratch);
                assert_eq!(
                    weight_scratch.len(),
                    act.cases.len(),
                    "dynamic case weights of `{}` must match case count",
                    act.name
                );
                pick_case(weight_scratch, case_rng, &act.name)
            }
        };
        // 4. Produce output arcs.
        for &(p, w) in &act.cases[case_idx].output_arcs {
            marking.add(p, w);
        }
        // 5. Output gate functions of the chosen case.
        for gate in &act.cases[case_idx].output_gates {
            (gate.function)(marking, gate_rng);
        }
    }
}

/// The queue priority of an instantaneous activity's completion event.
fn instantaneous_queue_priority(act: &ActivitySpec) -> i32 {
    let prio = act
        .timing()
        .priority()
        .expect("sharded activities are instantaneous");
    INSTANTANEOUS_BASE.saturating_add(prio)
}

/// Weighted case selection.
///
/// # Panics
///
/// Panics if the weights are not positive and finite — a model bug.
fn pick_case(weights: &[f64], rng: &mut Xoshiro256StarStar, activity: &str) -> usize {
    try_pick_case(weights, rng)
        .unwrap_or_else(|| panic!("case weights of `{activity}` must have positive finite total"))
}

/// Weighted case selection; `None` if the total is not positive and finite.
fn try_pick_case(weights: &[f64], rng: &mut Xoshiro256StarStar) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    if !(total > 0.0 && total.is_finite()) {
        return None;
    }
    let mut target = rng.next_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    Some(weights.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use vsched_des::Dist;

    /// load → processed, deterministic delay 1 per token.
    #[test]
    fn deterministic_pipeline() {
        let mut mb = ModelBuilder::new();
        let input = mb.place("input", 3).unwrap();
        let output = mb.place("output", 0).unwrap();
        mb.activity("work")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_arc(input, 1)
            .output_arc(output, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 1);
        let stats = sim.run_until(10.0).unwrap();
        assert_eq!(stats.completions, 3);
        assert_eq!(sim.marking().tokens(input), 0);
        assert_eq!(sim.marking().tokens(output), 3);
        assert_eq!(sim.time(), SimTime::new(10.0));
    }

    #[test]
    fn completions_happen_at_sampled_times() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let q = mb.place("q", 0).unwrap();
        mb.activity("move")
            .unwrap()
            .timed(Dist::deterministic(2.5).unwrap())
            .input_arc(p, 1)
            .output_arc(q, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 1);
        sim.run_until(2.4).unwrap();
        assert_eq!(sim.marking().tokens(q), 0, "not yet");
        sim.run_until(2.6).unwrap();
        assert_eq!(sim.marking().tokens(q), 1, "fired at 2.5");
    }

    #[test]
    fn instantaneous_preempts_timed() {
        // An instantaneous activity consumes the token a timed one needs.
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let fast = mb.place("fast", 0).unwrap();
        let slow = mb.place("slow", 0).unwrap();
        mb.activity("timed")
            .unwrap()
            .timed(Dist::deterministic(0.0).unwrap())
            .input_arc(p, 1)
            .output_arc(slow, 1)
            .done()
            .unwrap();
        mb.activity("inst")
            .unwrap()
            .instantaneous(0)
            .input_arc(p, 1)
            .output_arc(fast, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 7);
        sim.run_until(1.0).unwrap();
        assert_eq!(sim.marking().tokens(fast), 1, "instantaneous wins");
        assert_eq!(sim.marking().tokens(slow), 0);
    }

    #[test]
    fn higher_priority_instantaneous_wins() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let low = mb.place("low", 0).unwrap();
        let high = mb.place("high", 0).unwrap();
        mb.activity("low_act")
            .unwrap()
            .instantaneous(1)
            .input_arc(p, 1)
            .output_arc(low, 1)
            .done()
            .unwrap();
        mb.activity("high_act")
            .unwrap()
            .instantaneous(9)
            .input_arc(p, 1)
            .output_arc(high, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 7);
        sim.run_until(0.0).unwrap();
        assert_eq!(sim.marking().tokens(high), 1);
        assert_eq!(sim.marking().tokens(low), 0);
    }

    #[test]
    fn disabled_activity_aborts() {
        // Two timed activities race for one token; the loser must abort.
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let a = mb.place("a", 0).unwrap();
        let b = mb.place("b", 0).unwrap();
        mb.activity("fast")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_arc(p, 1)
            .output_arc(a, 1)
            .done()
            .unwrap();
        mb.activity("slow")
            .unwrap()
            .timed(Dist::deterministic(2.0).unwrap())
            .input_arc(p, 1)
            .output_arc(b, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 3);
        let stats = sim.run_until(10.0).unwrap();
        assert_eq!(sim.marking().tokens(a), 1);
        assert_eq!(sim.marking().tokens(b), 0);
        assert_eq!(stats.completions, 1);
        assert_eq!(sim.stats().aborts, 1);
    }

    #[test]
    fn input_gate_guards_and_functions_run() {
        let mut mb = ModelBuilder::new();
        let gatekeeper = mb.place("gatekeeper", 0).unwrap();
        let counter = mb.place("counter", 0).unwrap();
        let fires = mb.place("fires", 0).unwrap();
        mb.activity("guarded")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_gate(
                "ig",
                move |m| m.tokens(gatekeeper) > 0,
                move |m, _| m.add(counter, 1),
            )
            .guard("stop", move |m| m.tokens(fires) < 2)
            .output_arc(fires, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 3);
        sim.run_until(10.0).unwrap();
        assert_eq!(sim.marking().tokens(fires), 0, "gatekeeper empty: disabled");

        // Rebuild with the gatekeeper set.
        let mut mb = ModelBuilder::new();
        let gatekeeper = mb.place("gatekeeper", 1).unwrap();
        let counter = mb.place("counter", 0).unwrap();
        let fires = mb.place("fires", 0).unwrap();
        mb.activity("guarded")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_gate(
                "ig",
                move |m| m.tokens(gatekeeper) > 0,
                move |m, _| m.add(counter, 1),
            )
            .guard("stop", move |m| m.tokens(fires) < 2)
            .output_arc(fires, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 3);
        sim.run_until(10.0).unwrap();
        assert_eq!(sim.marking().tokens(fires), 2, "stops after two fires");
        assert_eq!(sim.marking().tokens(counter), 2, "input gate fn ran");
    }

    #[test]
    fn cases_split_probabilistically() {
        let mut mb = ModelBuilder::new();
        let heads = mb.place("heads", 0).unwrap();
        let tails = mb.place("tails", 0).unwrap();
        mb.activity("flip")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .guard("forever", move |m| {
                m.tokens(heads) + m.tokens(tails) < 10_000
            })
            .case(3.0)
            .output_arc(heads, 1)
            .case(1.0)
            .output_arc(tails, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 11);
        sim.run_until(20_000.0).unwrap();
        let h = sim.marking().tokens(heads) as f64;
        let t = sim.marking().tokens(tails) as f64;
        assert_eq!(h + t, 10_000.0);
        let frac = h / (h + t);
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn dynamic_case_weights() {
        let mut mb = ModelBuilder::new();
        let selector = mb.place("selector", 1).unwrap();
        let a = mb.place("a", 0).unwrap();
        let b = mb.place("b", 0).unwrap();
        mb.activity("route")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .guard("limit", move |m| m.tokens(a) + m.tokens(b) < 100)
            .case(1.0)
            .output_arc(a, 1)
            .case(1.0)
            .output_arc(b, 1)
            .dynamic_case_weights(move |m| {
                if m.tokens(selector) > 0 {
                    vec![1.0, 0.0]
                } else {
                    vec![0.0, 1.0]
                }
            })
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 5);
        sim.run_until(200.0).unwrap();
        assert_eq!(sim.marking().tokens(a), 100, "selector forces case 0");
        assert_eq!(sim.marking().tokens(b), 0);
    }

    #[test]
    fn rate_reward_measures_fraction_of_time() {
        // A token alternates: 1 unit in `on`, 3 units in `off`.
        let mut mb = ModelBuilder::new();
        let on = mb.place("on", 1).unwrap();
        let off = mb.place("off", 0).unwrap();
        mb.activity("to_off")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_arc(on, 1)
            .output_arc(off, 1)
            .done()
            .unwrap();
        mb.activity("to_on")
            .unwrap()
            .timed(Dist::deterministic(3.0).unwrap())
            .input_arc(off, 1)
            .output_arc(on, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 2);
        let r = sim.add_rate_reward("on fraction", move |m| m.tokens(on) as f64);
        sim.run_until(4000.0).unwrap();
        let avg = sim.rate_reward_average(r);
        assert!((avg - 0.25).abs() < 1e-9, "avg {avg}");
        assert_eq!(sim.rate_reward_name(r), "on fraction");
    }

    #[test]
    fn impulse_reward_counts_completions() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 5).unwrap();
        let done_p = mb.place("done", 0).unwrap();
        let act = mb
            .activity("consume")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_arc(p, 1)
            .output_arc(done_p, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 2);
        let r = sim.add_impulse_reward("completions", act, |_| 1.0);
        sim.run_until(100.0).unwrap();
        assert_eq!(sim.impulse_count(r), 5);
        assert_eq!(sim.impulse_total(r), 5.0);
    }

    #[test]
    fn reset_rewards_discards_warmup() {
        let mut mb = ModelBuilder::new();
        let on = mb.place("on", 1).unwrap();
        let off = mb.place("off", 0).unwrap();
        mb.activity("to_off")
            .unwrap()
            .timed(Dist::deterministic(10.0).unwrap())
            .input_arc(on, 1)
            .output_arc(off, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 2);
        let r = sim.add_rate_reward("on", move |m| m.tokens(on) as f64);
        sim.run_until(10.0).unwrap(); // on for the whole warm-up
        sim.reset_rewards();
        sim.run_until(20.0).unwrap(); // off for the whole window
        assert_eq!(sim.rate_reward_average(r), 0.0);
    }

    #[test]
    fn instantaneous_loop_detected() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let q = mb.place("q", 0).unwrap();
        mb.activity("pq")
            .unwrap()
            .instantaneous(0)
            .input_arc(p, 1)
            .output_arc(q, 1)
            .done()
            .unwrap();
        mb.activity("qp")
            .unwrap()
            .instantaneous(0)
            .input_arc(q, 1)
            .output_arc(p, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 2);
        sim.set_max_zero_advance(1000);
        let err = sim.run_until(1.0).unwrap_err();
        assert!(matches!(err, SanError::InstantaneousLoop { .. }));
    }

    #[test]
    fn event_monotonicity_check_passes_on_normal_run() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 0).unwrap();
        mb.activity("gen")
            .unwrap()
            .timed(Dist::exponential(1.0).unwrap())
            .guard("cap", move |m| m.tokens(p) < 10_000)
            .output_arc(p, 1)
            .done()
            .unwrap();
        mb.activity("drain")
            .unwrap()
            .timed(Dist::exponential(0.5).unwrap())
            .input_arc(p, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 9);
        sim.enable_event_monotonicity_check();
        sim.run_until(500.0).unwrap();
        assert!(sim.stats().completions > 0);
    }

    #[test]
    fn run_is_reproducible_per_seed() {
        let build = || {
            let mut mb = ModelBuilder::new();
            let p = mb.place("p", 0).unwrap();
            mb.activity("gen")
                .unwrap()
                .timed(Dist::exponential(1.0).unwrap())
                .guard("cap", move |m| m.tokens(p) < 1_000_000)
                .output_arc(p, 1)
                .done()
                .unwrap();
            mb.build().unwrap()
        };
        let mut s1 = Simulator::new(build(), 77);
        let mut s2 = Simulator::new(build(), 77);
        let mut s3 = Simulator::new(build(), 78);
        s1.run_until(100.0).unwrap();
        s2.run_until(100.0).unwrap();
        s3.run_until(100.0).unwrap();
        let p = s1.model().place_by_name("p").unwrap();
        assert_eq!(s1.marking().tokens(p), s2.marking().tokens(p));
        assert_ne!(
            s1.marking().tokens(p),
            s3.marking().tokens(p),
            "different seeds should (almost surely) diverge"
        );
    }

    #[test]
    fn mm1_queue_matches_theory() {
        // λ = 0.5, μ = 1.0 → ρ = 0.5; mean number in system L = ρ/(1-ρ) = 1.
        let mut mb = ModelBuilder::new();
        let system = mb.place("system", 0).unwrap();
        mb.activity("arrive")
            .unwrap()
            .timed(Dist::exponential(2.0).unwrap())
            .output_arc(system, 1)
            .done()
            .unwrap();
        mb.activity("serve")
            .unwrap()
            .timed(Dist::exponential(1.0).unwrap())
            .input_arc(system, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 4242);
        let l = sim.add_rate_reward("L", move |m| m.tokens(system) as f64);
        sim.run_until(5_000.0).unwrap();
        sim.reset_rewards();
        sim.run_until(200_000.0).unwrap();
        let avg = sim.rate_reward_average(l);
        assert!((avg - 1.0).abs() < 0.15, "L = {avg}, expected ≈ 1.0");
    }

    #[test]
    fn multiple_run_until_calls_accumulate() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 0).unwrap();
        mb.activity("tick")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .guard("cap", move |m| m.tokens(p) < 1000)
            .output_arc(p, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 2);
        sim.run_until(5.0).unwrap();
        assert_eq!(sim.marking().tokens(p), 5);
        sim.run_until(12.0).unwrap();
        assert_eq!(sim.marking().tokens(p), 12);
    }

    /// A model exercising every closure kind — declared guards, an input
    /// gate with a function, output gates, dynamic case weights, and a
    /// rate-scaled activity — used by the incremental/full comparison.
    fn mixed_model() -> Model {
        let mut mb = ModelBuilder::new();
        let queue = mb.place("queue", 0).unwrap();
        let served = mb.place("served", 0).unwrap();
        let vip = mb.place("vip", 0).unwrap();
        let toggle = mb.place("toggle", 1).unwrap();
        let log = mb.place("log", 0).unwrap();
        mb.activity("arrive")
            .unwrap()
            .timed(Dist::exponential(1.0).unwrap())
            .guard("cap", move |m| m.tokens(queue) < 50)
            .reads([queue])
            .output_arc(queue, 1)
            .done()
            .unwrap();
        mb.activity("serve")
            .unwrap()
            .timed(Dist::exponential(2.0).unwrap())
            .rate_multiplier(move |m| m.tokens(queue).min(3) as f64)
            .reads([queue])
            .input_arc(queue, 1)
            .case(1.0)
            .output_arc(served, 1)
            .case(1.0)
            .output_arc(vip, 1)
            .output_gate("note", move |m, _| m.add(log, 1))
            .reads([])
            .dynamic_case_weights_into(move |m, out| {
                out.push(1.0 + m.tokens(toggle) as f64);
                out.push(1.0);
            })
            .reads([toggle])
            .done()
            .unwrap();
        mb.activity("flip")
            .unwrap()
            .timed(Dist::deterministic(3.0).unwrap())
            .input_gate(
                "flip_ig",
                move |m| m.tokens(served) > 0,
                move |m, _| {
                    let t = m.tokens(toggle);
                    m.set(toggle, 1 - t);
                },
            )
            .reads([served])
            .input_arc(served, 1)
            .done()
            .unwrap();
        mb.build().unwrap()
    }

    #[test]
    fn incremental_matches_full_rescan_bit_for_bit() {
        let mut inc = Simulator::new(mixed_model(), 99);
        let mut full = Simulator::new(mixed_model(), 99);
        full.set_full_rescan(true);
        assert!(!inc.full_rescan());
        assert!(full.full_rescan());
        let queue = inc.model().place_by_name("queue").unwrap();
        let r_inc = inc.add_rate_reward_with_reads("q", [queue], move |m| m.tokens(queue) as f64);
        let r_full = full.add_rate_reward("q", move |m| m.tokens(queue) as f64);
        for horizon in [3.0, 7.5, 40.0, 200.0] {
            inc.run_until(horizon).unwrap();
            full.run_until(horizon).unwrap();
            assert_eq!(inc.marking().as_slice(), full.marking().as_slice());
            assert_eq!(inc.stats(), full.stats());
            assert_eq!(
                inc.rate_reward_average(r_inc).to_bits(),
                full.rate_reward_average(r_full).to_bits(),
                "reward averages must be bit-identical at t={horizon}"
            );
        }
        assert!(inc.stats().completions > 50, "model actually ran");
    }

    #[test]
    fn undeclared_guard_falls_back_to_conservative_rescan() {
        // `watcher`'s guard reads `flag`, which only an output *gate* of
        // `writer` touches — no arc connects them. With the guard's
        // read-set undeclared the activity must be revisited after every
        // firing (conservative fallback), so the enablement change is
        // still observed.
        let mut mb = ModelBuilder::new();
        let tick = mb.place("tick", 3).unwrap();
        let flag = mb.place("flag", 0).unwrap();
        let seen = mb.place("seen", 0).unwrap();
        mb.activity("writer")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_arc(tick, 1)
            .output_gate("raise", move |m, _| m.set(flag, 1))
            .done()
            .unwrap();
        mb.activity("watcher")
            .unwrap()
            .instantaneous(0)
            .guard("armed", move |m| m.tokens(flag) > 0 && m.tokens(seen) == 0)
            .output_arc(seen, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        assert_eq!(
            model.conservative_activities().count(),
            1,
            "undeclared guard makes `watcher` conservative"
        );
        let mut sim = Simulator::new(model, 5);
        sim.run_until(10.0).unwrap();
        assert_eq!(sim.marking().tokens(seen), 1, "enablement change caught");
    }

    #[test]
    fn rate_reactivation_tolerance_is_absolute_near_zero() {
        // `slow`'s multiplier jitters at the 1e-21 scale as `sink` fills —
        // numerically the same near-zero rate. The old relative-only bound
        // (EPSILON * k) treated every jitter as a change and resampled;
        // the symmetric relative-or-absolute bound must not.
        let build = |scale: f64, jitter: f64| {
            let mut mb = ModelBuilder::new();
            let nudge = mb.place("nudge", 5).unwrap();
            let sink = mb.place("sink", 0).unwrap();
            mb.activity("driver")
                .unwrap()
                .timed(Dist::deterministic(1.0).unwrap())
                .input_arc(nudge, 1)
                .output_arc(sink, 1)
                .done()
                .unwrap();
            mb.activity("slow")
                .unwrap()
                .timed(Dist::deterministic(1.0).unwrap())
                .rate_multiplier(move |m| scale + jitter * m.tokens(sink) as f64)
                .reads([sink])
                .done()
                .unwrap();
            mb.build().unwrap()
        };
        // k ≈ 1e-18: sub-epsilon jitter, no reactivation => no aborts.
        let mut sim = Simulator::new(build(1e-18, 1e-21), 3);
        sim.run_until(6.0).unwrap();
        assert_eq!(sim.stats().completions, 5, "only the driver fires");
        assert_eq!(sim.stats().aborts, 0, "near-zero jitter must not resample");

        // O(1) changes still reactivate: k goes 1.0 → 2.0 at the first
        // driver firing and stays there => exactly one abort+resample.
        let mut mb = ModelBuilder::new();
        let nudge = mb.place("nudge", 5).unwrap();
        let sink = mb.place("sink", 0).unwrap();
        let out = mb.place("out", 0).unwrap();
        mb.activity("driver")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_arc(nudge, 1)
            .output_arc(sink, 1)
            .done()
            .unwrap();
        mb.activity("slow")
            .unwrap()
            .timed(Dist::deterministic(100.0).unwrap())
            .rate_multiplier(move |m| if m.tokens(sink) > 0 { 2.0 } else { 1.0 })
            .reads([sink])
            .output_arc(out, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 3);
        sim.run_until(6.0).unwrap();
        assert_eq!(sim.stats().aborts, 1, "a real rate change reactivates");
    }

    #[test]
    fn dynamic_case_weights_into_reuses_scratch() {
        let mut mb = ModelBuilder::new();
        let selector = mb.place("selector", 1).unwrap();
        let a = mb.place("a", 0).unwrap();
        let b = mb.place("b", 0).unwrap();
        mb.activity("route")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .guard("limit", move |m| m.tokens(a) + m.tokens(b) < 100)
            .reads([a, b])
            .case(1.0)
            .output_arc(a, 1)
            .case(1.0)
            .output_arc(b, 1)
            .dynamic_case_weights_into(move |m, out| {
                if m.tokens(selector) > 0 {
                    out.extend_from_slice(&[1.0, 0.0]);
                } else {
                    out.extend_from_slice(&[0.0, 1.0]);
                }
            })
            .reads([selector])
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 5);
        sim.run_until(200.0).unwrap();
        assert_eq!(sim.marking().tokens(a), 100, "selector forces case 0");
        assert_eq!(sim.marking().tokens(b), 0);
    }

    #[test]
    fn apply_external_enables_and_disables_activities() {
        let build = || {
            let mut mb = ModelBuilder::new();
            let fuel = mb.place("fuel", 0).unwrap();
            let out = mb.place("out", 0).unwrap();
            mb.activity("burn")
                .unwrap()
                .timed(Dist::deterministic(1.0).unwrap())
                .input_arc(fuel, 1)
                .output_arc(out, 1)
                .done()
                .unwrap();
            mb.build().unwrap()
        };
        let mut sim = Simulator::new(build(), 3);
        sim.run_until(5.0).unwrap();
        let fuel = sim.model().place_by_name("fuel").unwrap();
        let out = sim.model().place_by_name("out").unwrap();
        assert_eq!(sim.marking().tokens(out), 0, "nothing to burn yet");
        // Inject two tokens externally: the activity activates and fires.
        sim.apply_external(|m| m.set(fuel, 2));
        sim.run_until(10.0).unwrap();
        assert_eq!(sim.marking().tokens(out), 2, "externally injected work ran");
        // Draining the place externally aborts the pending activation.
        sim.apply_external(|m| m.set(fuel, 1));
        let aborts_before = sim.stats().aborts;
        sim.apply_external(|m| m.set(fuel, 0));
        assert_eq!(sim.stats().aborts, aborts_before + 1, "activation aborted");
        sim.run_until(20.0).unwrap();
        assert_eq!(sim.marking().tokens(out), 2, "drained token never fires");
    }

    #[test]
    fn apply_external_before_first_run_matches_initial_marking() {
        // Injecting tokens before the first run must behave like a model
        // built with them: same completions, same reward average.
        let build = |initial: i64| {
            let mut mb = ModelBuilder::new();
            let src = mb.place("src", initial).unwrap();
            let sink = mb.place("sink", 0).unwrap();
            mb.activity("mv")
                .unwrap()
                .timed(Dist::exponential(1.0).unwrap())
                .input_arc(src, 1)
                .output_arc(sink, 1)
                .done()
                .unwrap();
            mb.build().unwrap()
        };
        let mut a = Simulator::new(build(4), 9);
        let mut b = Simulator::new(build(4), 9);
        let src = a.model().place_by_name("src").unwrap();
        a.apply_external(|_| {}); // no-op external call before start
        a.run_until(50.0).unwrap();
        b.run_until(50.0).unwrap();
        assert_eq!(a.marking().as_slice(), b.marking().as_slice());
        assert_eq!(a.stats().completions, b.stats().completions);
        assert_eq!(a.marking().tokens(src), 0);
    }

    #[test]
    fn apply_external_reactivates_rate_scaled_activities() {
        let mut mb = ModelBuilder::new();
        let speed = mb.place("speed", 1).unwrap();
        let out = mb.place("out", 0).unwrap();
        mb.activity("work")
            .unwrap()
            .timed(Dist::deterministic(10.0).unwrap())
            .rate_multiplier(move |m| m.tokens(speed) as f64)
            .reads([speed])
            .guard("cap", move |m| m.tokens(out) < 100)
            .reads([out])
            .output_arc(out, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 3);
        sim.run_until(5.0).unwrap();
        assert_eq!(sim.marking().tokens(out), 0, "delay 10 not yet elapsed");
        // Multiplier 0 disables the activity entirely.
        sim.apply_external(|m| m.set(speed, 0));
        sim.run_until(40.0).unwrap();
        assert_eq!(sim.marking().tokens(out), 0, "zero rate never fires");
        // Restoring a positive rate resamples from now.
        sim.apply_external(|m| m.set(speed, 10));
        sim.run_until(45.0).unwrap();
        assert!(sim.marking().tokens(out) > 0, "rescaled delay 1 fires");
    }

    #[test]
    fn apply_external_invalidates_shard_plan() {
        let mut mb = ModelBuilder::new();
        let a = mb.place("a", 2).unwrap();
        let b = mb.place("b", 2).unwrap();
        mb.activity("da")
            .unwrap()
            .instantaneous(0)
            .input_arc(a, 1)
            .done()
            .unwrap();
        mb.activity("db")
            .unwrap()
            .instantaneous(0)
            .input_arc(b, 1)
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 1);
        sim.set_shards(2);
        sim.run_until(0.5).unwrap();
        assert!(
            sim.shard_plan().is_some(),
            "plan derived by the sharded run"
        );
        let place_a = sim.model().place_by_name("a").unwrap();
        sim.apply_external(|m| m.set(place_a, 1));
        assert!(
            sim.shard_plan().is_none(),
            "membership change drops the plan"
        );
        sim.run_until(1.0).unwrap();
        assert_eq!(
            sim.marking().tokens(place_a),
            0,
            "re-derived plan still runs"
        );
    }

    /// A gate that lies about its write-set (declares `acc_b`, writes
    /// `acc_a`) splits into a shard it does not belong to; the merge
    /// phase's patch validation catches the cross-shard write instead of
    /// silently corrupting the other shard's state.
    #[test]
    fn lying_cross_shard_write_is_a_shard_violation() {
        let mut mb = ModelBuilder::new();
        let src_a = mb.place("src_a", 3).unwrap();
        let acc_a = mb.place("acc_a", 0).unwrap();
        let src_b = mb.place("src_b", 3).unwrap();
        let acc_b = mb.place("acc_b", 0).unwrap();
        mb.activity("honest")
            .unwrap()
            .instantaneous(0)
            .input_arc(src_a, 1)
            .output_gate("bump_a", move |m, _| m.add(acc_a, 1))
            .reads([])
            .writes([acc_a])
            .done()
            .unwrap();
        mb.activity("liar")
            .unwrap()
            .instantaneous(0)
            .input_arc(src_b, 1)
            .output_gate("bump_b", move |m, _| m.add(acc_a, 1))
            .reads([])
            .writes([acc_b])
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        assert_eq!(
            crate::shard::ShardPlan::derive(&model).num_shards(),
            2,
            "the lie hides the overlap from static derivation"
        );
        let mut sim = Simulator::new(model, 1);
        sim.set_shards(2);
        let err = sim.run_until(1.0).unwrap_err();
        match err {
            SanError::ShardViolation { activity, place } => {
                assert_eq!(activity, "liar");
                assert_eq!(place, "acc_a");
            }
            other => panic!("expected ShardViolation, got {other:?}"),
        }
    }

    /// An explicit shard request capped to one lane (single-core host)
    /// takes the direct-fire form of the sharded engine — which must keep
    /// the footprint validation, not silently fall back to sequential.
    #[test]
    fn fixed_mode_capped_to_one_lane_still_detects_violations() {
        let mut mb = ModelBuilder::new();
        let src_a = mb.place("src_a", 3).unwrap();
        let acc_a = mb.place("acc_a", 0).unwrap();
        let src_b = mb.place("src_b", 3).unwrap();
        let acc_b = mb.place("acc_b", 0).unwrap();
        mb.activity("honest")
            .unwrap()
            .instantaneous(0)
            .input_arc(src_a, 1)
            .output_gate("bump_a", move |m, _| m.add(acc_a, 1))
            .reads([])
            .writes([acc_a])
            .done()
            .unwrap();
        mb.activity("liar")
            .unwrap()
            .instantaneous(0)
            .input_arc(src_b, 1)
            .output_gate("bump_b", move |m, _| m.add(acc_a, 1))
            .reads([])
            .writes([acc_b])
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 1);
        sim.set_shards(4);
        sim.set_shard_available_override(Some(1));
        let err = sim.run_until(1.0).unwrap_err();
        match err {
            SanError::ShardViolation { activity, place } => {
                assert_eq!(activity, "liar");
                assert_eq!(place, "acc_a");
            }
            other => panic!("expected ShardViolation, got {other:?}"),
        }
        assert_eq!(sim.resolved_shards(), Some(1), "one lane resolved");
    }

    /// Auto mode stays sequential on narrow plans or single-core hosts
    /// and engages `min(avail, plan width)` lanes otherwise.
    #[test]
    fn auto_mode_resolution_follows_plan_width_and_parallelism() {
        let build = || {
            let mut mb = ModelBuilder::new();
            let a = mb.place("a", 5).unwrap();
            let b = mb.place("b", 5).unwrap();
            mb.activity("da")
                .unwrap()
                .instantaneous(0)
                .input_arc(a, 1)
                .done()
                .unwrap();
            mb.activity("db")
                .unwrap()
                .instantaneous(0)
                .input_arc(b, 1)
                .done()
                .unwrap();
            mb.build().unwrap()
        };

        // Plan width 2 < default threshold: sequential even with cores.
        let mut sim = Simulator::new(build(), 1);
        sim.set_shard_mode(ShardMode::Auto);
        sim.set_shard_available_override(Some(8));
        sim.run_until(0.5).unwrap();
        assert_eq!(sim.resolved_shards(), None, "narrow plan stays sequential");

        // Threshold lowered: lanes = min(avail, plan width) = 2.
        let mut sim = Simulator::new(build(), 1);
        sim.set_shard_mode(ShardMode::Auto);
        sim.set_shard_available_override(Some(8));
        sim.set_auto_shard_threshold(2);
        sim.run_until(0.5).unwrap();
        assert_eq!(sim.resolved_shards(), Some(2), "plan caps the lanes");

        // Single core: auto never pays for the sharded engine.
        let mut sim = Simulator::new(build(), 1);
        sim.set_shard_mode(ShardMode::Auto);
        sim.set_shard_available_override(Some(1));
        sim.set_auto_shard_threshold(2);
        sim.run_until(0.5).unwrap();
        assert_eq!(sim.resolved_shards(), None, "no parallelism, no lanes");

        // Compat shorthand: set_shards maps to Fixed / Off.
        let mut sim = Simulator::new(build(), 1);
        sim.set_shards(3);
        assert_eq!(sim.shard_mode(), ShardMode::Fixed(3));
        sim.set_shards(1);
        assert_eq!(sim.shard_mode(), ShardMode::Off);
    }

    /// The same lie is harmless sequentially — pins that the violation is
    /// a sharded-engine check, not a general builder restriction.
    #[test]
    fn lying_write_set_is_harmless_sequentially() {
        let mut mb = ModelBuilder::new();
        let src = mb.place("src", 3).unwrap();
        let acc = mb.place("acc", 0).unwrap();
        let decoy = mb.place("decoy", 0).unwrap();
        mb.activity("liar")
            .unwrap()
            .instantaneous(0)
            .input_arc(src, 1)
            .output_gate("bump", move |m, _| m.add(acc, 1))
            .reads([])
            .writes([decoy])
            .done()
            .unwrap();
        let mut sim = Simulator::new(mb.build().unwrap(), 1);
        sim.run_until(1.0).unwrap();
        assert_eq!(sim.marking().tokens(acc), 3);
    }
}
