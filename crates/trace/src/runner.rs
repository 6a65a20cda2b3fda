//! Executing a compiled trace on either engine.
//!
//! [`replay`] is the one trace segment loop: on a
//! [`Simulation`] built over the union topology (the SAN engine in its
//! *dynamic* build mode), it retires every VM that is not present at
//! tick 0, applies the initial load levels, then runs the horizon in
//! segments split at every event boundary. At a boundary the metrics
//! reset (if it is the warmup boundary) happens first, then that
//! instant's events apply in compiled order.
//!
//! [`TraceExperiment`] mirrors `vsched_core::ExperimentBuilder` for
//! trace-driven runs: replication `r` uses `seed + r` and is one
//! [`replay`]. Replications run in parallel via `vsched-exec` and merge
//! in index order, so results are bit-identical at any `--jobs` — the
//! [`TraceReport::fingerprint`] makes that checkable from the CLI.

use vsched_core::{CoreError, Engine, Fnv, MetricsReport, PolicyKind, SampleMetrics, Simulation};

use crate::load::FULL_LEVEL;
use crate::schedule::{TraceAction, TraceSchedule};

/// Configures and runs a replicated trace-driven experiment.
#[derive(Debug, Clone)]
pub struct TraceExperiment {
    schedule: TraceSchedule,
    policy: PolicyKind,
    engine: Engine,
    warmup: u64,
    horizon: u64,
    seed: u64,
    replications: usize,
    parallel: bool,
    jobs: Option<usize>,
}

/// The result of a trace run: one [`SampleMetrics`] per replication plus
/// a fingerprint of every observation bit.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-replication metrics, in replication order.
    pub samples: Vec<SampleMetrics>,
    /// FNV-1a 64 over the IEEE-754 bits of every observation, in order.
    /// Equal fingerprints mean bit-identical runs.
    pub fingerprint: u64,
}

impl TraceReport {
    /// Mean of each observation column across replications.
    #[must_use]
    pub fn mean_observations(&self) -> Vec<f64> {
        let Some(first) = self.samples.first() else {
            return Vec::new();
        };
        let mut sums = first.to_observations();
        for s in &self.samples[1..] {
            for (a, x) in sums.iter_mut().zip(s.to_observations()) {
                *a += x;
            }
        }
        let n = self.samples.len() as f64;
        for a in &mut sums {
            *a /= n;
        }
        sums
    }

    /// Aggregates the per-replication samples into the same
    /// [`MetricsReport`] shape static experiments produce — confidence
    /// intervals per metric at `level` — so trace results flow through
    /// every existing renderer and the campaign result store unchanged.
    ///
    /// `num_vcpus`/`num_pcpus` come from the schedule's union topology
    /// ([`crate::TraceSchedule::config`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Stats`] with fewer than 2 replications (no interval).
    pub fn metrics_report(
        &self,
        num_vcpus: usize,
        num_pcpus: usize,
        level: f64,
    ) -> Result<MetricsReport, CoreError> {
        MetricsReport::from_samples(&self.samples, num_vcpus, num_pcpus, level)
    }
}

/// Replays `schedule` on `sim` for `warmup + horizon` ticks: retires the
/// VMs absent at tick 0, sets the non-default initial levels, then runs
/// to each event boundary, resets the metrics at the warm-up boundary,
/// and applies that instant's events in compiled order. `sim` must be
/// fresh and built over `schedule`'s union topology
/// ([`Simulation::new_dynamic`] with [`TraceSchedule::config`]); read
/// the replication's metrics off it afterwards.
///
/// # Errors
///
/// Engine errors (policy violations, SAN failures, observer vetoes).
pub fn replay(
    sim: &mut Simulation,
    schedule: &TraceSchedule,
    warmup: u64,
    horizon: u64,
) -> Result<(), CoreError> {
    for (vm, &present) in schedule.initially_present().iter().enumerate() {
        if !present {
            sim.set_admitted(vm, false);
        }
    }
    for (vm, &level) in schedule.initial_levels().iter().enumerate() {
        if level != FULL_LEVEL {
            sim.set_load_level(vm, level);
        }
    }

    let total = warmup + horizon;
    let events = schedule.events();
    let mut boundaries: Vec<u64> = events
        .iter()
        .map(|e| e.time)
        .filter(|&t| t < total)
        .collect();
    if warmup > 0 {
        boundaries.push(warmup);
    }
    boundaries.sort_unstable();
    boundaries.dedup();

    let mut now = 0u64;
    let mut next_event = 0usize;
    for t in boundaries {
        sim.run(t - now)?;
        now = t;
        if t == warmup {
            sim.reset_metrics();
        }
        while next_event < events.len() && events[next_event].time == t {
            let e = events[next_event];
            match e.action {
                TraceAction::Admit => sim.set_admitted(e.vm, true),
                TraceAction::Retire => sim.set_admitted(e.vm, false),
                TraceAction::SetLoad(level) => sim.set_load_level(e.vm, level),
            }
            next_event += 1;
        }
    }
    sim.run(total - now)
}

impl TraceExperiment {
    /// Starts a trace experiment with no warmup, a horizon reaching
    /// 1 000 ticks past the last event, seed `0x5eed`, and 3
    /// replications.
    #[must_use]
    pub fn new(schedule: TraceSchedule, policy: PolicyKind) -> Self {
        let horizon = schedule.end_time() + 1_000;
        TraceExperiment {
            schedule,
            policy,
            engine: Engine::San,
            warmup: 0,
            horizon,
            seed: 0x5eed,
            replications: 3,
            parallel: true,
            jobs: None,
        }
    }

    /// The compiled schedule this experiment runs.
    #[must_use]
    pub fn schedule(&self) -> &TraceSchedule {
        &self.schedule
    }

    /// Selects the execution engine (default [`Engine::San`]).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Warm-up ticks discarded from metrics. The trace clock is
    /// absolute — events during warmup still apply; only the metric
    /// accumulators reset at the boundary.
    #[must_use]
    pub fn warmup(mut self, ticks: u64) -> Self {
        self.warmup = ticks;
        self
    }

    /// Observed ticks after warmup (default: last event + 1 000).
    #[must_use]
    pub fn horizon(mut self, ticks: u64) -> Self {
        self.horizon = ticks;
        self
    }

    /// Base seed; replication `r` uses `seed + r`.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of replications (default 3, minimum 1).
    #[must_use]
    pub fn replications(mut self, n: usize) -> Self {
        self.replications = n;
        self
    }

    /// Enables/disables parallel replications (default enabled;
    /// bit-identical either way).
    #[must_use]
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Caps the replication worker pool (`0` = one per core).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { None } else { Some(jobs) };
        self
    }

    /// Runs one replication — one [`replay`] on a fresh engine seeded
    /// `seed + rep` — and returns its metrics.
    ///
    /// # Errors
    ///
    /// Engine errors (policy violations, SAN failures) and
    /// [`CoreError::InvalidConfig`] for a zero horizon.
    pub fn run_replication(&self, rep: u64) -> Result<SampleMetrics, CoreError> {
        if self.horizon == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "trace horizon must be at least one tick".into(),
            });
        }
        let mut sim = Simulation::new_dynamic(
            self.engine,
            self.schedule.config().clone(),
            self.policy.create(),
            self.seed.wrapping_add(rep),
        )?;
        replay(&mut sim, &self.schedule, self.warmup, self.horizon)?;
        Ok(sim.metrics())
    }

    /// Runs every replication (in parallel) and reports.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for zero replications or horizon;
    /// engine errors from any replication.
    pub fn run(&self) -> Result<TraceReport, CoreError> {
        if self.replications == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "need at least 1 replication".into(),
            });
        }
        let jobs = if self.parallel {
            vsched_exec::resolve_jobs(self.jobs)
        } else {
            1
        };
        let samples: Vec<SampleMetrics> =
            vsched_exec::run_indexed(jobs, 0, self.replications, |rep| self.run_replication(rep))?;
        let mut fingerprint = Fnv::new();
        for x in samples.iter().flat_map(SampleMetrics::to_observations) {
            fingerprint.push(x.to_bits());
        }
        Ok(TraceReport {
            samples,
            fingerprint: fingerprint.finish(),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use vsched_core::observe::TickObserver;
    use vsched_core::{PcpuView, VcpuView};

    use super::*;
    use crate::event::{RawEvent, TraceMeta, VmShape};

    fn churn_schedule() -> TraceSchedule {
        let events = vec![
            RawEvent::arrive(0, "a", VmShape::new(2)),
            RawEvent::arrive(0, "b", VmShape::new(1)),
            RawEvent::arrive(60, "c", VmShape::new(1)),
            RawEvent::set_load(90, "a", 500),
            RawEvent::depart(120, "b"),
            RawEvent::set_load(150, "a", 1000),
            RawEvent::arrive(200, "b", VmShape::new(1)),
        ];
        TraceSchedule::from_events(&TraceMeta::new(2), &events).unwrap()
    }

    #[test]
    fn jobs_and_replication_order_do_not_change_bits() {
        let base = TraceExperiment::new(churn_schedule(), PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .horizon(600)
            .replications(4);
        let seq = base.clone().parallel(false).run().unwrap();
        let par = base.clone().jobs(4).run().unwrap();
        assert_eq!(seq.fingerprint, par.fingerprint);
        assert_eq!(seq.samples, par.samples);
        let again = base.jobs(2).run().unwrap();
        assert_eq!(seq.fingerprint, again.fingerprint);
    }

    #[test]
    fn san_engine_runs_traces() {
        let base = TraceExperiment::new(churn_schedule(), PolicyKind::RoundRobin)
            .engine(Engine::San)
            .horizon(400)
            .replications(2);
        let seq = base.clone().parallel(false).run().unwrap();
        let par = base.clone().jobs(2).run().unwrap();
        assert_eq!(seq.fingerprint, par.fingerprint);
        let config = base.schedule().config();
        let report = seq
            .metrics_report(config.total_vcpus(), config.pcpus(), 0.95)
            .unwrap();
        assert!(report.avg_pcpu_utilization() > 0.5);
    }

    #[test]
    fn warmup_resets_metrics_at_the_boundary() {
        // All churn inside warmup: observed window sees a static 2-VM
        // system, so availability is well above the churn-phase value.
        let events = vec![
            RawEvent::arrive(0, "a", VmShape::new(1)),
            RawEvent::arrive(0, "b", VmShape::new(1)),
            RawEvent::set_load(10, "a", 0),
            RawEvent::set_load(200, "a", 1000),
        ];
        let s = TraceSchedule::from_events(&TraceMeta::new(2), &events).unwrap();
        let with_warmup = TraceExperiment::new(s.clone(), PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .warmup(300)
            .horizon(500)
            .replications(2)
            .run()
            .unwrap();
        let without = TraceExperiment::new(s, PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .horizon(800)
            .replications(2)
            .run()
            .unwrap();
        let util = |r: &TraceReport| {
            r.samples
                .iter()
                .map(SampleMetrics::avg_vcpu_utilization)
                .sum::<f64>()
                / r.samples.len() as f64
        };
        assert!(
            util(&with_warmup) > util(&without) + 0.05,
            "warmup window excludes the paused phase: {} vs {}",
            util(&with_warmup),
            util(&without)
        );
    }

    #[test]
    fn zero_horizon_and_zero_replications_are_rejected() {
        let e = TraceExperiment::new(churn_schedule(), PolicyKind::RoundRobin)
            .horizon(0)
            .run_replication(0)
            .unwrap_err();
        assert!(e.to_string().contains("horizon"));
        let e = TraceExperiment::new(churn_schedule(), PolicyKind::RoundRobin)
            .replications(0)
            .run()
            .unwrap_err();
        assert!(e.to_string().contains("replication"));
    }

    #[test]
    fn metrics_report_bridges_to_the_static_shape() {
        let schedule = churn_schedule();
        let (vcpus, pcpus) = (schedule.config().total_vcpus(), schedule.config().pcpus());
        let r = TraceExperiment::new(schedule, PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .horizon(300)
            .replications(3)
            .run()
            .unwrap();
        let report = r.metrics_report(vcpus, pcpus, 0.95).unwrap();
        assert_eq!(report.replications, 3);
        assert_eq!(report.vcpu_availability.len(), vcpus);
        assert_eq!(report.pcpu_utilization.len(), pcpus);
        assert!(report.avg_pcpu_utilization() > 0.0);
        // A single replication has no interval.
        let one = TraceExperiment::new(churn_schedule(), PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .horizon(300)
            .replications(1)
            .run()
            .unwrap();
        assert!(one.metrics_report(vcpus, pcpus, 0.95).is_err());
    }

    #[test]
    fn report_means_are_well_formed() {
        let r = TraceExperiment::new(churn_schedule(), PolicyKind::Balance)
            .engine(Engine::Direct)
            .horizon(300)
            .replications(2)
            .run()
            .unwrap();
        let obs = r.mean_observations();
        assert!(!obs.is_empty());
        assert!(obs.iter().all(|x| (0.0..=1.0).contains(x)));
        assert!(r.samples.iter().all(|s| s.avg_vcpu_availability() > 0.0));
    }

    /// Counts the ticks it observes.
    struct CountTicks(u64);

    impl TickObserver for CountTicks {
        fn on_tick(&mut self, _: u64, _: &[VcpuView], _: &[PcpuView]) -> Result<(), CoreError> {
            self.0 += 1;
            Ok(())
        }
    }

    #[test]
    fn observing_never_changes_a_trace_replication() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/traces/churn_small.jsonl"
        );
        let schedule = crate::load_standard(std::path::Path::new(path)).unwrap();
        let bits = |m: &SampleMetrics| -> Vec<u64> {
            m.to_observations().iter().map(|x| x.to_bits()).collect()
        };
        let policies = [
            PolicyKind::RoundRobin,
            PolicyKind::relaxed_co_default(),
            PolicyKind::StrictCo,
        ];
        for engine in [Engine::Direct, Engine::San] {
            for warmup in [0, 100] {
                for policy in &policies {
                    let (horizon, seed, rep) = (500, 7, 1);
                    let unobserved = TraceExperiment::new(schedule.clone(), policy.clone())
                        .engine(engine)
                        .warmup(warmup)
                        .horizon(horizon)
                        .seed(seed)
                        .run_replication(rep)
                        .unwrap();
                    let ticks = Rc::new(RefCell::new(CountTicks(0)));
                    let mut sim = Simulation::new_dynamic(
                        engine,
                        schedule.config().clone(),
                        policy.create(),
                        seed + rep,
                    )
                    .unwrap();
                    sim.attach_observer(Box::new(Rc::clone(&ticks)));
                    replay(&mut sim, &schedule, warmup, horizon).unwrap();
                    let label = format!("{engine:?} warmup {warmup} {}", policy.label());
                    assert_eq!(bits(&sim.metrics()), bits(&unobserved), "{label}");
                    assert_eq!(ticks.borrow().0, warmup + horizon, "{label}");
                }
            }
        }
    }
}
