//! The SAN discrete-event simulator.

use vsched_des::{RngStreams, SimTime, Xoshiro256StarStar};

use crate::activity::{ActivityId, ActivitySpec, Timing};
use crate::builder::Model;
use crate::calendar::Calendar;
use crate::error::SanError;
use crate::index::{ConditionTable, DependencyIndex, OrderedSet};
use crate::marking::{Marking, PlaceId, ReadSet};
use crate::reward::{RateReward, RewardFn, RewardId, RewardState};

/// Priority offset that makes instantaneous activities preempt timed ones
/// scheduled at the same instant: an instantaneous activity of priority
/// `p` fires with effective priority `INSTANTANEOUS_BASE + p` (saturating),
/// a timed one with `0`.
const INSTANTANEOUS_BASE: i32 = 1_000_000;

/// Completions tolerated without time advancing before
/// [`SanError::InstantaneousLoop`] is reported: a guard against models
/// whose instantaneous activities re-enable one another forever.
const MAX_ZERO_ADVANCE: u64 = 1_000_000;

/// Statistics from one [`Simulator::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Activity completions processed during the call.
    pub completions: u64,
    /// Activity activations that were aborted (disabled before completing).
    pub aborts: u64,
    /// Activities reevaluated after a completion or an external mutation.
    /// Under [`Simulator::set_full_rescan`] that is every activity per
    /// completion. Otherwise an activity is visited only when its
    /// enablement can change: its count of failing arc conditions fell to
    /// 0; that count rose from 0 while a completion was pending; the count
    /// is 0 and a place one of its enabling closures reads changed, or one
    /// of those closures is undeclared; or it just fired and the count is
    /// 0. The start-up pass over every activity is not counted.
    pub visits: u64,
}

/// Executes a [`Model`] according to standard SAN semantics.
///
/// * An activity is **activated** when it becomes enabled: a completion time
///   is sampled from its delay distribution and scheduled.
/// * If a state change disables an activated activity it **aborts** and its
///   sampled completion is discarded.
/// * **Completion** atomically consumes input arcs, evaluates the case
///   weights on the marking that results and selects a case, produces the
///   case's output arcs and runs its output gates; then the affected
///   activities are re-evaluated.
/// * Instantaneous activities complete before any timed activity scheduled
///   at the same instant, higher priority first, FIFO among equals.
///
/// ## Event order
///
/// Completions fire by time, then by effective priority (highest first),
/// then by activation order. Instantaneous completions never enter the
/// timed queue: they wait on a zero-delay agenda with one FIFO per
/// distinct priority, which drains before the clock moves. A timed
/// completion due now merges with the agenda by effective priority, so an
/// instantaneous priority below `-1_000_000` still fires after a
/// zero-delay timed activity.
///
/// ## Incremental reevaluation
///
/// By default the simulator counts, per activity, how many of its input,
/// test and inhibitor arc conditions fail, and after each completion
/// re-tests only the conditions on the places the completion changed. An
/// activity is re-examined only when its enablement can change: its count
/// reaches or leaves 0, or its count is 0 and one of its enabling
/// closures reads a changed place (or left its read-set undeclared — see
/// [`crate::ActivityBuilder::reads`]), or it just fired. Visits happen in
/// ascending activity index order, exactly the order of the full rescan
/// with the no-op checks removed, so the result — every marking,
/// statistic, firing and RNG draw — is bit-identical to
/// [`Simulator::set_full_rescan`] mode. Rate rewards are recomputed only
/// when a place they read changed (reward functions are pure functions
/// of the marking).
///
/// See the crate-level documentation for an end-to-end example.
pub struct Simulator {
    model: Model,
    marking: Marking,
    time: SimTime,
    /// Pending completions: timed ones in the event queue, instantaneous
    /// ones on the zero-delay agenda.
    calendar: Calendar,
    /// Rate multiplier in force when each activity was activated; a change
    /// triggers reactivation (resampling) for rate-scaled activities.
    activation_rate: Vec<f64>,
    delay_rngs: Vec<Xoshiro256StarStar>,
    case_rngs: Vec<Xoshiro256StarStar>,
    /// Per-activity output-gate RNG streams (`30_000 + i`): each
    /// activity's gate draws come from its own stream. The layout is part
    /// of every fingerprint.
    gate_rngs: Vec<Xoshiro256StarStar>,
    rate_rewards: Vec<RateReward>,
    /// Running state of each rate reward, dense and in registration order.
    reward_state: Vec<RewardState>,
    /// Instant (as `f64`) up to which every rate-reward accumulator has
    /// been advanced. Completions at exactly this instant skip the
    /// accumulator loop: the update would add `0.0 * value`, a bit-exact
    /// no-op for finite reward values.
    reward_clock: f64,
    /// Place → rate rewards whose declared read-set contains it, and the
    /// rewards with undeclared read-sets, recomputed after every firing
    /// (the mirror of `closure_index`).
    reward_index: DependencyIndex,
    /// Whether a reward registered since `reward_index` was built; the
    /// next reward pass rebuilds it.
    reward_index_stale: bool,
    started: bool,
    /// Debug/differential mode: rescan every activity and reward after
    /// every completion, testing [`crate::activity::ActivitySpec::enabled`]
    /// in full, instead of using the condition counts.
    full_rescan: bool,
    /// Every arc condition and each activity's count of failing ones,
    /// exact at the marking after every incremental pass.
    conditions: ConditionTable,
    /// Place → activities whose enabling closures (guards, rate
    /// multiplier) declare they read it, and the activities with an
    /// undeclared one.
    closure_index: DependencyIndex,
    /// Candidate activities of one incremental reevaluation pass.
    eval_set: OrderedSet,
    /// Candidate rate rewards of one incremental recomputation pass.
    reward_set: OrderedSet,
    /// Scratch buffer for dynamic case weights (reused across completions).
    weight_scratch: Vec<f64>,
    stats: RunStats,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("marking", &self.marking)
            .field("stats", &self.stats)
            .field("pending", &self.calendar.len())
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
        let conditions = ConditionTable::build(&model.activities, &marking);
        let closure_reads: Vec<Option<Vec<PlaceId>>> = model
            .activities
            .iter()
            .map(ActivitySpec::closure_reads)
            .collect();
        let closure_index = DependencyIndex::build(
            model.num_places(),
            closure_reads.iter().map(Option::as_deref),
        );
        let priorities: Vec<Option<i32>> = model
            .activities
            .iter()
            .map(|a| {
                a.timing
                    .priority()
                    .map(|p| INSTANTANEOUS_BASE.saturating_add(p))
            })
            .collect();
        Simulator {
            marking,
            time: SimTime::ZERO,
            calendar: Calendar::new(&priorities),
            activation_rate: vec![1.0; n],
            delay_rngs: (0..n).map(|i| streams.stream(10_000 + i as u64)).collect(),
            case_rngs: (0..n).map(|i| streams.stream(20_000 + i as u64)).collect(),
            gate_rngs: (0..n).map(|i| streams.stream(30_000 + i as u64)).collect(),
            rate_rewards: Vec::new(),
            reward_state: Vec::new(),
            reward_clock: 0.0,
            reward_index: DependencyIndex::default(),
            reward_index_stale: true,
            started: false,
            full_rescan: false,
            conditions,
            closure_index,
            eval_set: OrderedSet::with_bound(n),
            reward_set: OrderedSet::default(),
            weight_scratch: Vec::new(),
            stats: RunStats::default(),
            model,
        }
    }

    /// Switches between incremental reevaluation (default, `false`) and the
    /// full per-completion rescan. The two modes are bit-identical by
    /// construction; the rescan is kept as the debug/differential reference
    /// that `vsched-check` compares against on every fuzz case. The rescan
    /// does not keep the condition counts, so switching back to
    /// incremental mode recomputes them from the marking.
    pub fn set_full_rescan(&mut self, on: bool) {
        if self.full_rescan && !on {
            self.conditions.refresh(&self.marking);
        }
        self.full_rescan = on;
    }

    /// Whether the full per-completion rescan is in force.
    #[must_use]
    pub fn full_rescan(&self) -> bool {
        self.full_rescan
    }

    /// Enables the future-event-list monotonicity check (see
    /// [`vsched_des::EventQueue::enable_monotonicity_check`]): every timed
    /// completion popped must be at or after the previous one, otherwise
    /// the simulator panics instead of silently running time backwards.
    /// Agenda entries are due at the current instant by construction.
    /// Costs one branch per timed event; disabled by default.
    pub fn enable_event_monotonicity_check(&mut self) {
        self.calendar.enable_monotonicity_check();
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

    fn push_rate_reward(&mut self, name: String, f: RewardFn, mut reads: ReadSet) -> RewardId {
        let id = self.rate_rewards.len();
        if let ReadSet::Declared(places) = &mut reads {
            places.sort_unstable();
            places.dedup();
        }
        let current = f(&self.marking);
        let mut acc = vsched_stats::TimeWeighted::new(self.time.as_f64());
        // If registered mid-run, the accumulator starts "now"; if registered
        // before the first event it starts at zero — both are correct.
        acc.reset(self.time.as_f64());
        self.reward_state.push(RewardState { acc, current });
        self.rate_rewards.push(RateReward { name, f, reads });
        self.reward_index_stale = true;
        self.reward_set.raise_bound(id + 1);
        RewardId(id)
    }

    /// Time average of a rate reward over the observation window.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Simulator::add_rate_reward`] of
    /// this simulator.
    #[must_use]
    pub fn rate_reward_average(&self, id: RewardId) -> f64 {
        self.reward_state[id.0].acc.time_average()
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
        for (r, state) in self.rate_rewards.iter().zip(&mut self.reward_state) {
            state.acc.reset(now);
            state.current = (r.f)(&self.marking);
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
    }

    /// Runs the simulation until virtual time `t_end`.
    ///
    /// All events with completion time ≤ `t_end` are processed; the clock
    /// and every rate-reward window then advance exactly to `t_end`. Can be
    /// called repeatedly with increasing horizons.
    ///
    /// # Errors
    ///
    /// [`SanError::InstantaneousLoop`] if the model completes more than
    /// 10^6 activities without time advancing.
    pub fn run_until(&mut self, t_end: f64) -> Result<RunStats, SanError> {
        let before = self.stats;
        self.run_events(SimTime::new(t_end), |_| false)?;
        Ok(RunStats {
            completions: self.stats.completions - before.completions,
            aborts: self.stats.aborts - before.aborts,
            visits: self.stats.visits - before.visits,
        })
    }

    /// [`Simulator::run_until`] with a breakpoint: returns `Ok(true)`,
    /// without firing it, as soon as the next completion due, on the
    /// agenda or in the timed queue, is one of `stop`. The clock and the
    /// reward windows then stay where the last fired event put them, so a
    /// later `run_until` resumes exactly where one uninterrupted run would
    /// have been. When no completion of `stop` falls within `t_end` this is
    /// exactly `run_until(t_end)` and returns `Ok(false)`.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_until`].
    pub fn run_until_break(&mut self, t_end: f64, stop: ActivityId) -> Result<bool, SanError> {
        self.run_events(SimTime::new(t_end), |act| act == stop)
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
            for state in &mut self.reward_state {
                state.acc.update(now, state.current);
            }
            self.reward_clock = now;
        }
    }

    /// The event loop: fires every event due by `t_end` in event order,
    /// then advances the clock and the reward windows to `t_end`. Returns
    /// `Ok(true)` without firing it, and without advancing, as soon as
    /// `stop` accepts the activity of the next event. `run_until` passes a
    /// constant `false`, which the compiler folds away.
    fn run_events(
        &mut self,
        t_end: SimTime,
        stop: impl Fn(ActivityId) -> bool,
    ) -> Result<bool, SanError> {
        self.ensure_started();
        let mut last_time = self.time;
        let mut zero_advance: u64 = 0;
        let mut completions = 0;
        let mut stopped = false;
        while let Some(due) = self.calendar.peek(self.time) {
            let (t, act) = (due.time, due.act);
            if t > t_end {
                break;
            }
            if stop(act) {
                stopped = true;
                break;
            }
            self.calendar.take(due);
            if t > last_time {
                last_time = t;
                zero_advance = 0;
            } else {
                zero_advance += 1;
                if zero_advance > MAX_ZERO_ADVANCE {
                    return Err(SanError::InstantaneousLoop {
                        at_time: t.as_f64(),
                        limit: MAX_ZERO_ADVANCE,
                    });
                }
            }
            self.time = t;
            self.fire(act);
            completions += 1;
        }
        if !stopped {
            self.advance_to(t_end);
        }
        self.stats.completions += completions;
        Ok(stopped)
    }

    /// Completes one activity: the atomic SAN completion rule.
    fn fire(&mut self, act_id: ActivityId) {
        let idx = act_id.0;
        let act = &self.model.activities[idx];
        debug_assert!(
            act.enabled(&self.marking),
            "completed activity `{}` must be enabled (eager abort failed)",
            act.name
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
            for state in &mut self.reward_state {
                state.acc.update(now, state.current);
            }
            self.reward_clock = now;
        }

        // From here on, record exactly the places this completion touches.
        self.marking.clear_dirty();
        let Some(weights) = act.consume_inputs(&mut self.marking, &mut self.weight_scratch) else {
            panic!(
                "dynamic case weights of `{}` must match case count",
                act.name
            );
        };
        let case = act
            .choose_case(weights, &mut self.case_rngs[idx])
            .unwrap_or_else(|| {
                panic!(
                    "case weights of `{}` must have positive finite total",
                    act.name
                )
            });
        act.produce_outputs(case, &mut self.marking, &mut self.gate_rngs[idx]);

        self.recompute_rewards();
        self.reevaluate(Some(idx));
    }

    /// Rate rewards: the signal takes its new value from now on. Reward
    /// functions are pure, so in incremental mode only rewards that may
    /// read a touched place can have a new value; the time-integral
    /// updates happening before the marking change are skipped only when
    /// zero time has elapsed (a bit-exact no-op), and both modes share
    /// that rule, so the accumulation grouping stays identical between
    /// modes.
    ///
    /// The incremental pass builds the reward index on its first run and
    /// rebuilds it after a reward registers, so a reward added mid-run is
    /// indexed before its first recomputation. When no dirty place has a
    /// reward reader and no reward is conservative, nothing is inserted
    /// and the drain finds the set empty at once.
    fn recompute_rewards(&mut self) {
        if self.full_rescan {
            for (r, state) in self.rate_rewards.iter().zip(&mut self.reward_state) {
                state.current = (r.f)(&self.marking);
            }
            return;
        }
        if self.reward_index_stale {
            self.reward_index = DependencyIndex::build(
                self.model.num_places(),
                self.rate_rewards.iter().map(|r| r.reads.as_declared()),
            );
            self.reward_index_stale = false;
        }
        for &p in self.marking.dirty() {
            for &ri in self.reward_index.dependents(p) {
                self.reward_set.insert(ri as usize);
            }
        }
        for &ri in &self.reward_index.conservative {
            self.reward_set.insert(ri as usize);
        }
        while let Some(ri) = self.reward_set.pop_first() {
            self.reward_state[ri].current = (self.rate_rewards[ri].f)(&self.marking);
        }
    }

    /// Activates newly enabled activities, aborts newly disabled ones, and
    /// reactivates rate-scaled activities whose multiplier changed (for
    /// exponential delays this is exactly the CTMC race semantics; for
    /// other distributions it is the defined reactivation policy).
    ///
    /// Incremental mode re-tests the arc conditions on the places the
    /// completion changed and collects as candidates every activity whose
    /// count of failing conditions reached or left 0, every activity with
    /// an enabling closure that reads a changed place or is undeclared,
    /// and `fired` itself (its completion was just consumed). A candidate
    /// is visited if its count is 0 (it may be enabled) or it has a
    /// pending completion (its count just left 0: it aborts). Visits are
    /// in ascending activity-index order — a subsequence of the full
    /// rescan from which only provable no-ops are missing (an unchanged
    /// count and unchanged closure reads ⇒ unchanged `enabled()` and
    /// multiplier; a count above 0 without a pending completion ⇒
    /// disabled before and after ⇒ no activation, no abort, no RNG draw),
    /// so both modes activate the same activities in the same order and
    /// consume the same random numbers.
    fn reevaluate(&mut self, fired: Option<usize>) {
        if self.full_rescan {
            for idx in 0..self.model.activities.len() {
                self.reevaluate_one(idx);
            }
            self.stats.visits += self.model.activities.len() as u64;
            return;
        }
        let tokens = self.marking.as_slice();
        for &p in self.marking.dirty() {
            self.conditions.update(p, tokens[p], &mut self.eval_set);
            for &idx in self.closure_index.dependents(p) {
                self.eval_set.insert(idx as usize);
            }
        }
        for &idx in &self.closure_index.conservative {
            self.eval_set.insert(idx as usize);
        }
        if let Some(fired) = fired {
            self.eval_set.insert(fired);
        }
        while let Some(idx) = self.eval_set.pop_first() {
            if self.conditions.unmet(idx) == 0 || self.calendar.is_pending(idx) {
                self.stats.visits += 1;
                self.reevaluate_one(idx);
            }
        }
    }

    /// The per-activity body of [`Simulator::reevaluate`]. The full
    /// rescan tests [`crate::activity::ActivitySpec::enabled`] in full;
    /// incremental mode reads the arc half off the condition count.
    fn reevaluate_one(&mut self, idx: usize) {
        let act = &self.model.activities[idx];
        let enabled = if self.full_rescan {
            act.enabled(&self.marking)
        } else {
            self.conditions.unmet(idx) == 0 && act.closures_hold(&self.marking)
        };
        match (enabled, self.calendar.is_pending(idx)) {
            (true, false) => self.activate(idx),
            (false, true) => self.abort(idx),
            (true, true) => {
                let act = &self.model.activities[idx];
                if act.rate_fn.is_some() {
                    let k = act.rate_multiplier(&self.marking);
                    let old = self.activation_rate[idx];
                    // Symmetric relative-or-absolute tolerance: the earlier
                    // bound `EPSILON * k.abs()` collapses to ~0 for tiny k,
                    // so re-reading an unchanged near-zero rate registered
                    // as a change and forced a spurious resample.
                    if (k - old).abs() > f64::EPSILON * k.abs().max(old.abs()).max(1.0) {
                        self.abort(idx);
                        self.activate(idx);
                    }
                }
            }
            (false, false) => {}
        }
    }

    /// Schedules the completion of activity `idx`: a timed activity samples
    /// its delay into the timed queue, an instantaneous one joins the agenda.
    fn activate(&mut self, idx: usize) {
        match &self.model.activities[idx].timing {
            Timing::Timed(dist) => {
                let base = dist.sample(&mut self.delay_rngs[idx]);
                // Marking-dependent rate: enabled() guarantees the
                // multiplier is positive here.
                let k = self.model.activities[idx].rate_multiplier(&self.marking);
                self.activation_rate[idx] = k;
                let when = SimTime::new(self.time.as_f64() + base / k);
                self.calendar.schedule_timed(idx, when);
            }
            Timing::Instantaneous { .. } => self.calendar.schedule_now(idx),
        }
    }

    /// Discards the pending completion of activity `idx`.
    fn abort(&mut self, idx: usize) {
        let was_pending = self.calendar.cancel(idx);
        debug_assert!(was_pending, "only an activated activity aborts");
        self.stats.aborts += 1;
    }
}

impl Model {
    /// Completes activity `act` **once** on a caller-supplied marking —
    /// the probe-fire entry point of the static analyzer (`vsched-analyze`).
    ///
    /// Executes the same atomic completion rule as [`Simulator`]: input
    /// arc consumption, case selection on the resulting marking, output
    /// arcs, then the chosen case's output gates — all randomness drawn
    /// from `rng` (a single probe stream, unlike the simulator's
    /// per-activity stream layout). No activation/abort bookkeeping
    /// happens; the caller owns the exploration strategy.
    ///
    /// Returns the chosen case index, or `None` if the activity has
    /// marking-dependent case weights of the wrong arity or whose total
    /// was not positive and finite at selection time (in which case the
    /// marking has already absorbed the input-arc consumption — probe on
    /// a clone if that matters).
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
        let mut scratch = Vec::new();
        let weights = spec.consume_inputs(marking, &mut scratch)?;
        let case = spec.choose_case(weights, rng)?;
        spec.produce_outputs(case, marking, rng);
        Some(case)
    }

    /// The first half of a completion — input-arc consumption — plus
    /// evaluation of the case-weight vector on the marking that results,
    /// *without* selecting a case. The exhaustive-state verifier uses this
    /// to enumerate every positive-weight branch of a firing instead of
    /// sampling one; each branch is then finished on its own marking clone
    /// with [`Model::probe_complete_case`].
    ///
    /// Returns the case-weight vector, or `None` if dynamic weights had
    /// the wrong arity. Weights that are not positive and finite are the
    /// caller's to reject, exactly as case selection would.
    ///
    /// # Panics
    ///
    /// Same contract as [`Model::probe_fire`]: fire only enabled
    /// activities, probe only along reachable markings.
    pub fn probe_cases(&self, act: ActivityId, marking: &mut Marking) -> Option<Vec<f64>> {
        let mut scratch = Vec::new();
        let weights = self.activities[act.0].consume_inputs(marking, &mut scratch)?;
        Some(weights.to_vec())
    }

    /// The second half of a completion for a chosen case — output arcs and
    /// the case's output gate functions. `marking` must be the state
    /// [`Model::probe_cases`] left behind (or a clone of it).
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
        self.activities[act.0].produce_outputs(case, marking, rng);
    }
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
        assert_eq!(stats.aborts, 1);
        assert_eq!(sim.stats().aborts, 1);

        // A second window races again: each `run_until` reports only its
        // own completions and aborts, while `stats()` keeps the totals.
        sim.apply_external(|m| m.set(p, 1));
        let stats = sim.run_until(20.0).unwrap();
        assert_eq!(sim.marking().tokens(a), 2);
        assert_eq!(stats.completions, 1);
        assert_eq!(stats.aborts, 1, "aborts of this call only");
        assert_eq!(sim.stats().aborts, 2);
        assert_eq!(sim.stats().completions, 2);
    }

    #[test]
    fn input_gate_guards_and_functions_run() {
        // Guards enable; the case's output gate runs at each completion.
        let build = |gatekeeper_tokens: i64| {
            let mut mb = ModelBuilder::new();
            let gatekeeper = mb.place("gatekeeper", gatekeeper_tokens).unwrap();
            let counter = mb.place("counter", 0).unwrap();
            let fires = mb.place("fires", 0).unwrap();
            mb.activity("guarded")
                .unwrap()
                .timed(Dist::deterministic(1.0).unwrap())
                .guard("ig", move |m| m.tokens(gatekeeper) > 0)
                .guard("stop", move |m| m.tokens(fires) < 2)
                .output_arc(fires, 1)
                .output_gate("count", move |m, _| m.add(counter, 1))
                .done()
                .unwrap();
            let mut sim = Simulator::new(mb.build().unwrap(), 3);
            sim.run_until(10.0).unwrap();
            (sim.marking().tokens(fires), sim.marking().tokens(counter))
        };
        assert_eq!(build(0), (0, 0), "gatekeeper empty: disabled");
        assert_eq!(build(1), (2, 2), "stops after two fires; gate ran each");
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
        let err = sim.run_until(1.0).unwrap_err();
        assert!(matches!(
            err,
            SanError::InstantaneousLoop {
                limit: MAX_ZERO_ADVANCE,
                ..
            }
        ));
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

    /// A model exercising every closure kind — declared guards, output
    /// gates (one that feeds case weights back, one with an undeclared
    /// read-set), dynamic case weights, and a rate-scaled activity — used
    /// by the incremental/full comparison.
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
            .guard("flip_ig", move |m| m.tokens(served) > 0)
            .reads([served])
            .input_arc(served, 1)
            .output_gate("flip_og", move |m, _| {
                let t = m.tokens(toggle);
                m.set(toggle, 1 - t);
            })
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
            let work = |s: RunStats| (s.completions, s.aborts);
            assert_eq!(work(inc.stats()), work(full.stats()));
            assert_eq!(
                inc.rate_reward_average(r_inc).to_bits(),
                full.rate_reward_average(r_full).to_bits(),
                "reward averages must be bit-identical at t={horizon}"
            );
        }
        assert!(inc.stats().completions > 50, "model actually ran");
    }

    #[test]
    fn a_reward_registered_mid_run_matches_full_rescan() {
        // The incremental reward index is built lazily: a declared reward
        // registered after events have fired must be indexed before the
        // next completion, or its signal would freeze at its first value.
        let run = |full: bool| {
            let mut sim = Simulator::new(mixed_model(), 99);
            sim.set_full_rescan(full);
            let queue = sim.model().place_by_name("queue").unwrap();
            let served = sim.model().place_by_name("served").unwrap();
            let early =
                sim.add_rate_reward_with_reads("q", [queue], move |m| m.tokens(queue) as f64);
            sim.run_until(20.0).unwrap();
            assert!(sim.stats().completions > 10, "events fired before");
            let late = sim
                .add_rate_reward_with_reads("served", [served], move |m| m.tokens(served) as f64);
            let at_registration = sim.marking().tokens(served);
            sim.run_until(200.0).unwrap();
            let average = sim.rate_reward_average(late);
            assert_ne!(average, at_registration as f64, "the signal moved");
            [early, late].map(|r| sim.rate_reward_average(r).to_bits())
        };
        assert_eq!(run(false), run(true));
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

    /// Completion names, in firing order.
    type FiringLog = std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>;

    /// Adds activity `name`, which takes a token from each of `inputs`,
    /// puts one in each of `outputs` and records its completions in `log`.
    fn logged(
        mb: &mut ModelBuilder,
        log: &FiringLog,
        name: &'static str,
        timing: Timing,
        inputs: &[PlaceId],
        outputs: &[PlaceId],
    ) {
        let act = mb.activity(name).unwrap();
        let mut act = match timing {
            Timing::Timed(dist) => act.timed(dist),
            Timing::Instantaneous { priority } => act.instantaneous(priority),
        };
        for &p in inputs {
            act = act.input_arc(p, 1);
        }
        for &p in outputs {
            act = act.output_arc(p, 1);
        }
        let log = std::rc::Rc::clone(log);
        act.output_gate("log", move |_, _| log.borrow_mut().push(name))
            .done()
            .unwrap();
    }

    fn inst(priority: i32) -> Timing {
        Timing::Instantaneous { priority }
    }

    fn after(delay: f64) -> Timing {
        Timing::Timed(Dist::deterministic(delay).unwrap())
    }

    #[test]
    fn agenda_fires_by_priority_then_activation_order() {
        // One timed completion enables four instantaneous activities; the
        // highest then enables `late`, which ties with two earlier
        // activations at priority 5 and queues behind them, although its
        // index is lower.
        let log = FiringLog::default();
        let mut mb = ModelBuilder::new();
        let start = mb.place("start", 1).unwrap();
        let [go, a, b1, b2, lo] = ["go", "a", "b1", "b2", "lo"].map(|n| mb.place(n, 0).unwrap());
        logged(
            &mut mb,
            &log,
            "trigger",
            after(1.0),
            &[start],
            &[go, b1, b2, lo],
        );
        logged(&mut mb, &log, "late", inst(5), &[a], &[]);
        logged(&mut mb, &log, "hi", inst(9), &[go], &[a]);
        logged(&mut mb, &log, "early_a", inst(5), &[b1], &[]);
        logged(&mut mb, &log, "early_b", inst(5), &[b2], &[]);
        logged(&mut mb, &log, "low", inst(1), &[lo], &[]);
        let mut sim = Simulator::new(mb.build().unwrap(), 1);
        sim.run_until(2.0).unwrap();
        assert_eq!(
            *log.borrow(),
            ["trigger", "hi", "early_a", "early_b", "late", "low"]
        );
    }

    #[test]
    fn zero_delay_timed_work_merges_with_the_agenda_by_effective_priority() {
        // Effective priorities: 1_000_000 + p for instantaneous, 0 for
        // timed. At 0 (p = -1_000_000) activation order decides, which
        // here is index order: all six activate at the trigger.
        let log = FiringLog::default();
        let mut mb = ModelBuilder::new();
        let start = mb.place("start", 1).unwrap();
        let acts = [
            ("inst_m999999", inst(-999_999)),
            ("timed_zero", after(0.0)),
            ("inst_m1000000", inst(-1_000_000)),
            ("tie_inst", inst(-1_000_000)),
            ("tie_timed", after(0.0)),
            ("inst_m1000001", inst(-1_000_001)),
        ];
        let inputs: Vec<PlaceId> = acts.iter().map(|(n, _)| mb.place(n, 0).unwrap()).collect();
        logged(&mut mb, &log, "trigger", after(1.0), &[start], &inputs);
        for ((name, timing), input) in acts.into_iter().zip(inputs) {
            logged(&mut mb, &log, name, timing, &[input], &[]);
        }
        let mut sim = Simulator::new(mb.build().unwrap(), 1);
        sim.run_until(2.0).unwrap();
        assert_eq!(
            log.borrow()[1..],
            [
                "inst_m999999",
                "timed_zero",
                "inst_m1000000",
                "tie_inst",
                "tie_timed",
                "inst_m1000001"
            ]
        );
    }

    #[test]
    fn cancelled_agenda_entries_never_fire_and_count_one_abort() {
        // `high` takes the token `low` was activated on, so `low` aborts.
        // `refill` puts it back at the same instant: `low` activates anew
        // behind its cancelled entry and fires exactly once.
        let build = |refill: bool| {
            let log = FiringLog::default();
            let mut mb = ModelBuilder::new();
            let start = mb.place("start", 1).unwrap();
            let once = mb.place("once", 1).unwrap();
            let [p, q] = ["p", "q"].map(|n| mb.place(n, 0).unwrap());
            logged(&mut mb, &log, "trigger", after(1.0), &[start], &[p]);
            logged(&mut mb, &log, "high", inst(9), &[p, once], &[q]);
            if refill {
                logged(&mut mb, &log, "refill", inst(5), &[q], &[p]);
            }
            logged(&mut mb, &log, "low", inst(1), &[p], &[]);
            let mut sim = Simulator::new(mb.build().unwrap(), 1);
            sim.run_until(2.0).unwrap();
            let fired = log.borrow().clone();
            (fired, sim.stats())
        };
        let (fired, stats) = build(false);
        assert_eq!(fired, ["trigger", "high"]);
        assert_eq!((stats.completions, stats.aborts), (2, 1));
        let (fired, stats) = build(true);
        assert_eq!(fired, ["trigger", "high", "refill", "low"]);
        assert_eq!((stats.completions, stats.aborts), (4, 1));
    }

    #[test]
    fn a_run_paused_on_an_instantaneous_activity_resumes_bit_identically() {
        // A clock feeds a two-level cascade with a random case split and
        // a rate reward: pausing before the cascade's lower level and
        // resuming must change no firing, draw or reward bit.
        let build = || {
            let log = FiringLog::default();
            let mut mb = ModelBuilder::new();
            let [tick, work, left, right] =
                ["tick", "work", "left", "right"].map(|n| mb.place(n, 0).unwrap());
            logged(&mut mb, &log, "clock", after(1.0), &[], &[tick]);
            logged(&mut mb, &log, "process", inst(5), &[tick], &[work]);
            let [to_left, to_right] = ["left", "right"].map(|side| {
                let log = std::rc::Rc::clone(&log);
                move |_: &mut Marking, _: &mut Xoshiro256StarStar| log.borrow_mut().push(side)
            });
            mb.activity("split")
                .unwrap()
                .instantaneous(3)
                .input_arc(work, 1)
                .case(1.0)
                .output_arc(left, 1)
                .output_gate("log", to_left)
                .case(2.0)
                .output_arc(right, 1)
                .output_gate("log", to_right)
                .done()
                .unwrap();
            let drain = Timing::Timed(Dist::exponential(2.0).unwrap());
            logged(&mut mb, &log, "drain", drain, &[left], &[]);
            let mut sim = Simulator::new(mb.build().unwrap(), 17);
            let reward = sim.add_rate_reward("left", move |m| m.tokens(left) as f64);
            (sim, reward, log)
        };
        let (mut whole, r_whole, log_whole) = build();
        whole.run_until(30.5).unwrap();

        let (mut paused, r_paused, log_paused) = build();
        let split = paused.model().activity_by_name("split").unwrap();
        assert!(paused.run_until_break(30.5, split).unwrap());
        assert_eq!(paused.time(), SimTime::new(1.0));
        assert_eq!(*log_paused.borrow(), ["clock", "process"]);
        // Resuming within the instant fires the paused completion first.
        paused.run_until(1.0).unwrap();
        assert_eq!(*log_paused.borrow(), log_whole.borrow()[..3]);
        paused.run_until(30.5).unwrap();

        assert_eq!(*log_paused.borrow(), *log_whole.borrow());
        assert_eq!(paused.marking().as_slice(), whole.marking().as_slice());
        assert_eq!(paused.stats(), whole.stats());
        assert_eq!(
            paused.rate_reward_average(r_paused).to_bits(),
            whole.rate_reward_average(r_whole).to_bits()
        );
        assert!(log_whole.borrow().contains(&"drain"), "the model ran");
    }

    /// A gate whose declared write-set is a lie (declares `decoy`, writes
    /// `acc`) still runs correctly: the simulator never consults write-sets
    /// (only the `stale-write-set` lint does).
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
