//! The churn workloads: a prefix of a VM churn trace, one replication on
//! either engine.
//!
//! An untraced unit runs it through the front door, `TraceExperiment`.
//! A traced unit replays it by hand, one public call at a time, in the
//! order `TraceExperiment::run_replication` uses — retire absent VMs, set
//! initial levels, then run to each event boundary and apply its events —
//! so that its metrics are bit-identical to the front door's and `run`,
//! `set_admitted` and `set_load_level` can be timed separately.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vsched_core::direct::DirectSim;
use vsched_core::san_model::SanSystem;
use vsched_core::{Engine, SampleMetrics, SchedulingPolicy};
use vsched_trace::{
    load_trace, TraceAction, TraceExperiment, TraceMeta, TraceReport, TraceSchedule, FULL_LEVEL,
};

use crate::calibrate::Probe;
use crate::harness::{observation_bits, Tally, Unit, Workload};
use crate::ledger::{count, span, Tracer};
use crate::policy::{ParentSlot, TimedPolicy};
use crate::rcs;

/// What to replay: the first `horizon` ticks of `trace`, with RCS and no
/// warm-up.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// A standard (JSON-lines) trace.
    pub trace: PathBuf,
    /// Engine to replay on.
    pub engine: Engine,
    /// Ticks to replay.
    pub horizon: u64,
    /// Replication seed.
    pub seed: u64,
}

impl ChurnParams {
    /// The front door for these parameters: one replication on one thread.
    #[must_use]
    pub fn experiment(&self, schedule: TraceSchedule) -> TraceExperiment {
        TraceExperiment::new(schedule, rcs())
            .engine(self.engine)
            .horizon(self.horizon)
            .seed(self.seed)
            .replications(1)
            .parallel(false)
    }
}

/// Reads and compiles a trace.
///
/// # Errors
///
/// Reader and compiler errors.
pub fn load(path: &Path) -> Result<TraceSchedule, String> {
    // The platform argument only applies to CSV datasets.
    load_trace(path, &TraceMeta::new(1)).map_err(|e| e.to_string())
}

/// A built engine.
pub enum Sim {
    /// The SAN engine in its dynamic mode.
    San(Box<SanSystem>),
    /// The direct engine.
    Direct(Box<DirectSim>),
}

impl Sim {
    /// Builds the union topology of `schedule` on `engine`.
    ///
    /// # Errors
    ///
    /// SAN model construction errors.
    pub fn build(
        schedule: &TraceSchedule,
        engine: Engine,
        policy: Box<dyn SchedulingPolicy>,
        seed: u64,
    ) -> Result<Sim, String> {
        let config = schedule.config().clone();
        Ok(match engine {
            Engine::San => Sim::San(Box::new(
                SanSystem::new_dynamic(config, policy, seed).map_err(|e| e.to_string())?,
            )),
            Engine::Direct => Sim::Direct(Box::new(DirectSim::new(config, policy, seed))),
        })
    }

    fn layer(&self, san: &'static str, direct: &'static str) -> &'static str {
        match self {
            Sim::San(_) => san,
            Sim::Direct(_) => direct,
        }
    }

    fn run(&mut self, ticks: u64) -> Result<(), String> {
        match self {
            Sim::San(s) => s.run(ticks),
            Sim::Direct(s) => s.run(ticks),
        }
        .map_err(|e| e.to_string())
    }

    fn apply(&mut self, vm: usize, action: TraceAction) {
        match (self, action) {
            (Sim::San(s), TraceAction::Admit) => s.set_admitted(vm, true),
            (Sim::San(s), TraceAction::Retire) => s.set_admitted(vm, false),
            (Sim::San(s), TraceAction::SetLoad(l)) => s.set_load_level(vm, l),
            (Sim::Direct(s), TraceAction::Admit) => s.set_admitted(vm, true),
            (Sim::Direct(s), TraceAction::Retire) => s.set_admitted(vm, false),
            (Sim::Direct(s), TraceAction::SetLoad(l)) => s.set_load_level(vm, l),
        }
    }

    fn metrics(&self) -> SampleMetrics {
        match self {
            Sim::San(s) => s.metrics(),
            Sim::Direct(s) => s.metrics(),
        }
    }
}

/// Replays the first `horizon` ticks of `schedule` on `sim` and returns
/// the metrics. `slot`, when tracing, is pointed at each `run` span so
/// that a [`TimedPolicy`] files its calls under it.
///
/// # Errors
///
/// Engine errors.
pub fn replay(
    sim: &mut Sim,
    schedule: &TraceSchedule,
    horizon: u64,
    tr: Option<Tracer<'_>>,
    slot: Option<&ParentSlot>,
) -> Result<SampleMetrics, String> {
    let run_layer = sim.layer("san.run", "direct.run");
    let run = |sim: &mut Sim, ticks: u64| {
        count(tr, "trace.segments", 1.0);
        span(tr, run_layer, |t| {
            if let (Some(slot), Some(t)) = (slot, t) {
                slot.set(t.parent);
            }
            sim.run(ticks)
        })
    };
    let apply = |sim: &mut Sim, vm: usize, action: TraceAction| {
        span(tr, "trace.apply", |_| sim.apply(vm, action));
    };

    for (vm, &present) in schedule.initially_present().iter().enumerate() {
        if !present {
            apply(sim, vm, TraceAction::Retire);
        }
    }
    for (vm, &level) in schedule.initial_levels().iter().enumerate() {
        if level != FULL_LEVEL {
            apply(sim, vm, TraceAction::SetLoad(level));
        }
    }

    let events = schedule.events();
    let mut boundaries: Vec<u64> = events
        .iter()
        .map(|e| e.time)
        .filter(|&t| t < horizon)
        .collect();
    boundaries.dedup();

    let mut now = 0u64;
    let mut next = 0usize;
    for t in boundaries {
        run(sim, t - now)?;
        now = t;
        while next < events.len() && events[next].time == t {
            apply(sim, events[next].vm, events[next].action);
            next += 1;
        }
    }
    run(sim, horizon - now)?;
    if let Sim::San(s) = sim {
        let stats = s.simulator().stats();
        count(tr, "san.completions", stats.completions as f64);
        count(tr, "san.aborts", stats.aborts as f64);
    }
    Ok(sim.metrics())
}

/// The churn workload. The set-up loads the trace and builds the engine,
/// which a traced unit then replays by hand; an untraced unit's timed
/// phase is `TraceExperiment::run`, which builds an engine of its own.
pub struct Churn {
    params: ChurnParams,
    reference: TraceReport,
    /// Operations and failures of the front-door reference run.
    pub reference_tally: Tally,
}

/// Set-up output: the compiled trace and the built engine.
pub struct ChurnReady {
    schedule: TraceSchedule,
    sim: Sim,
    slot: Option<Arc<ParentSlot>>,
}

impl Churn {
    /// Runs the front door once for the reference, and checks its
    /// fingerprint against `recorded` when given.
    ///
    /// # Errors
    ///
    /// Trace or engine errors of the front-door run.
    pub fn new(params: ChurnParams, recorded: Option<u64>) -> Result<Self, String> {
        let reference = params
            .experiment(load(&params.trace)?)
            .run()
            .map_err(|e| e.to_string())?;
        let mismatch = recorded.is_some_and(|fp| fp != reference.fingerprint);
        if mismatch {
            eprintln!(
                "mismatch: front-door fingerprint {:016x}, recorded {:016x}",
                reference.fingerprint,
                recorded.unwrap_or_default()
            );
        }
        Ok(Churn {
            params,
            reference,
            reference_tally: Tally {
                attempted: 1,
                failed: u64::from(mismatch),
            },
        })
    }

    fn check(&self, metrics: &SampleMetrics, what: &str) -> Unit {
        let matches = observation_bits(metrics) == observation_bits(&self.reference.samples[0]);
        if !matches {
            eprintln!("mismatch: {what} metrics differ from the reference run's");
        }
        Unit {
            failed: u64::from(!matches),
            ticks: self.params.horizon,
        }
    }
}

impl Workload for Churn {
    type Ready = ChurnReady;
    type Front = TraceExperiment;

    fn setup(&mut self, tr: Option<Tracer<'_>>) -> Result<ChurnReady, String> {
        let schedule = span(tr, "trace.load", |_| load(&self.params.trace))?;
        let (policy, slot) = match tr {
            None => (rcs().create(), None),
            Some(t) => {
                let slot = Arc::new(ParentSlot::default());
                slot.set(t.parent);
                let timed =
                    TimedPolicy::new(rcs().create(), Arc::clone(t.ledger), Arc::clone(&slot));
                (Box::new(timed) as Box<dyn SchedulingPolicy>, Some(slot))
            }
        };
        let layer = match self.params.engine {
            Engine::San => "san.build",
            Engine::Direct => "direct.build",
        };
        let sim = span(tr, layer, |_| {
            Sim::build(&schedule, self.params.engine, policy, self.params.seed)
        })?;
        Ok(ChurnReady {
            schedule,
            sim,
            slot,
        })
    }

    fn prepare(&mut self) -> Result<TraceExperiment, String> {
        Ok(self.params.experiment(load(&self.params.trace)?))
    }

    fn run(&mut self, front: TraceExperiment) -> Result<Unit, String> {
        let report = front.run().map_err(|e| e.to_string())?;
        Ok(self.check(&report.samples[0], "front-door"))
    }

    fn run_traced(&mut self, mut ready: ChurnReady, tr: Tracer<'_>) -> Result<Unit, String> {
        let metrics = replay(
            &mut ready.sim,
            &ready.schedule,
            self.params.horizon,
            Some(tr),
            ready.slot.as_deref(),
        )?;
        Ok(self.check(&metrics, "replay"))
    }

    fn ops_per_unit(&self) -> u64 {
        1
    }

    fn min_setups(&self) -> usize {
        // A SAN build takes about 75 ms, a direct one about 4 ms.
        match self.params.engine {
            Engine::San => 15,
            Engine::Direct => 301,
        }
    }

    fn probe(&self) -> Probe {
        Probe::Compute(1)
    }
}
