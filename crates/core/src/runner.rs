//! The experiment runner: replicated simulations with Mobius-style
//! confidence-interval termination, over either engine, and the one
//! engine handle ([`Simulation`]) every replication runs through.

use serde::{Deserialize, Serialize};
use vsched_stats::StoppingRule;

use crate::config::SystemConfig;
use crate::direct::DirectSim;
use crate::error::CoreError;
use crate::metrics::{MetricsReport, SampleMetrics};
use crate::observe::TickObserver;
use crate::san_model::SanSystem;
use crate::sched::{PolicyKind, SchedulingPolicy};
use crate::types::{PcpuView, VcpuView};

/// Which engine executes the model. Config files spell it `"san"` or
/// `"direct"`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase", deny_unknown_fields)]
pub enum Engine {
    /// The faithful SAN engine ([`crate::san_model::SanSystem`]) — what the
    /// paper runs on Mobius. Default.
    #[default]
    San,
    /// The fast time-stepped engine ([`crate::direct::DirectSim`]) with
    /// identical semantics; use for large sweeps.
    Direct,
}

impl Engine {
    /// Lower-case name, as written in config files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::San => "san",
            Engine::Direct => "direct",
        }
    }
}

/// One built engine of either kind, behind the calls its callers make:
/// the replication runners ([`ExperimentBuilder`] and `vsched-trace`'s
/// replay), the environment's paused ticks, and the fuzz oracle's
/// observed runs.
///
/// `SanSystem::run` is resumable at integer tick boundaries, so splitting
/// a run — at trace event boundaries, at the warm-up boundary, or at a
/// decision point with [`Simulation::run_to_decision`] and
/// [`Simulation::finish_tick`] — is bit-identical to one uninterrupted
/// run on either engine.
#[derive(Debug)]
pub enum Simulation {
    /// The direct engine.
    Direct(Box<DirectSim>),
    /// The SAN engine.
    San(Box<SanSystem>),
}

impl Simulation {
    /// Builds `engine` over a static `config` ([`SanSystem::new`] for SAN).
    ///
    /// # Errors
    ///
    /// SAN model construction errors.
    pub fn new(
        engine: Engine,
        config: SystemConfig,
        policy: Box<dyn SchedulingPolicy>,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Ok(match engine {
            Engine::Direct => Simulation::Direct(Box::new(DirectSim::new(config, policy, seed))),
            Engine::San => Simulation::San(Box::new(SanSystem::new(config, policy, seed)?)),
        })
    }

    /// Builds `engine` over a trace's union topology: the SAN engine
    /// compiles its dynamic model ([`SanSystem::new_dynamic`]), which
    /// carries the admission and load-level places that
    /// [`Simulation::set_admitted`] and [`Simulation::set_load_level`]
    /// drive. The direct engine has one build for both uses.
    ///
    /// # Errors
    ///
    /// SAN model construction errors.
    pub fn new_dynamic(
        engine: Engine,
        config: SystemConfig,
        policy: Box<dyn SchedulingPolicy>,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Ok(match engine {
            Engine::Direct => Simulation::Direct(Box::new(DirectSim::new(config, policy, seed))),
            Engine::San => Simulation::San(Box::new(SanSystem::new_dynamic(config, policy, seed)?)),
        })
    }

    /// Advances the model by `ticks` clock ticks.
    ///
    /// # Errors
    ///
    /// Policy violations, SAN failures and observer errors.
    pub fn run(&mut self, ticks: u64) -> Result<(), CoreError> {
        match self {
            Simulation::Direct(s) => s.run(ticks),
            Simulation::San(s) => s.run(ticks),
        }
    }

    /// Runs into the next tick and stops at its decision point, just
    /// before the policy is called: the views then are exactly the ones
    /// the policy receives.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run`].
    pub fn run_to_decision(&mut self) -> Result<(), CoreError> {
        match self {
            Simulation::Direct(s) => {
                s.begin_tick();
                Ok(())
            }
            Simulation::San(s) => s.run_to_decision(),
        }
    }

    /// Finishes the tick [`Simulation::run_to_decision`] paused: the
    /// policy call and everything after it.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run`].
    pub fn finish_tick(&mut self) -> Result<(), CoreError> {
        match self {
            Simulation::Direct(s) => s.finish_tick(),
            Simulation::San(s) => s.run(1),
        }
    }

    /// Restarts the metric observation window (warm-up deletion).
    pub fn reset_metrics(&mut self) {
        match self {
            Simulation::Direct(s) => s.reset_metrics(),
            Simulation::San(s) => s.reset_metrics(),
        }
    }

    /// The three paper metrics over the current observation window.
    #[must_use]
    pub fn metrics(&self) -> SampleMetrics {
        let mut metrics = SampleMetrics::empty();
        self.metrics_into(&mut metrics);
        metrics
    }

    /// [`Simulation::metrics`] into `out`, reusing its capacity.
    pub fn metrics_into(&self, out: &mut SampleMetrics) {
        match self {
            Simulation::Direct(s) => s.metrics_into(out),
            Simulation::San(s) => s.metrics_into(out),
        }
    }

    /// Retires (`false`) or re-admits (`true`) VM `vm`.
    pub fn set_admitted(&mut self, vm: usize, admitted: bool) {
        match self {
            Simulation::Direct(s) => s.set_admitted(vm, admitted),
            Simulation::San(s) => s.set_admitted(vm, admitted),
        }
    }

    /// Sets VM `vm`'s workload-generation level in per-mille.
    pub fn set_load_level(&mut self, vm: usize, per_mille: u32) {
        match self {
            Simulation::Direct(s) => s.set_load_level(vm, per_mille),
            Simulation::San(s) => s.set_load_level(vm, per_mille),
        }
    }

    /// Attaches an end-of-tick observer, replacing any previous one.
    pub fn attach_observer(&mut self, observer: Box<dyn TickObserver>) {
        match self {
            Simulation::Direct(s) => s.attach_observer(observer),
            Simulation::San(s) => s.attach_observer(observer),
        }
    }

    /// Current tick.
    #[must_use]
    pub fn time(&self) -> u64 {
        match self {
            Simulation::Direct(s) => s.time(),
            Simulation::San(s) => s.time(),
        }
    }

    /// Snapshot of every VCPU, as a policy would receive it.
    #[must_use]
    pub fn vcpu_views(&self) -> Vec<VcpuView> {
        let mut views = Vec::new();
        self.vcpu_views_into(&mut views);
        views
    }

    /// [`Simulation::vcpu_views`] into `out`, reusing its capacity.
    pub fn vcpu_views_into(&self, out: &mut Vec<VcpuView>) {
        match self {
            Simulation::Direct(s) => s.vcpu_views_into(out),
            Simulation::San(s) => s.vcpu_views_into(out),
        }
    }

    /// Snapshot of every PCPU, as a policy would receive it.
    #[must_use]
    pub fn pcpu_views(&self) -> Vec<PcpuView> {
        let mut views = Vec::new();
        self.pcpu_views_into(&mut views);
        views
    }

    /// [`Simulation::pcpu_views`] into `out`, reusing its capacity.
    pub fn pcpu_views_into(&self, out: &mut Vec<PcpuView>) {
        match self {
            Simulation::Direct(s) => s.pcpu_views_into(out),
            Simulation::San(s) => s.pcpu_views_into(out),
        }
    }
}

/// Configures and runs a replicated experiment.
///
/// Defaults follow the paper: 95% confidence with interval width under 0.1
/// (half-width 0.05) on **every** metric, at least 5 and at most 40
/// replications, 1 000 warm-up ticks and 20 000 observed ticks per
/// replication. See the crate-level example.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    config: SystemConfig,
    policy: PolicyKind,
    engine: Engine,
    warmup: u64,
    horizon: u64,
    seed: u64,
    rule: StoppingRule,
    exact_replications: Option<usize>,
    jobs: Option<usize>,
}

impl ExperimentBuilder {
    /// Starts an experiment over `config` with `policy`.
    #[must_use]
    pub fn new(config: SystemConfig, policy: PolicyKind) -> Self {
        ExperimentBuilder {
            config,
            policy,
            engine: Engine::San,
            warmup: 1_000,
            horizon: 20_000,
            seed: 0x5eed,
            rule: StoppingRule::paper_default()
                .with_min_replications(5)
                .with_max_replications(40),
            exact_replications: None,
            jobs: None,
        }
    }

    /// Selects the execution engine (default [`Engine::San`]).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Warm-up ticks discarded at the start of each replication.
    #[must_use]
    pub fn warmup(mut self, ticks: u64) -> Self {
        self.warmup = ticks;
        self
    }

    /// Observed ticks per replication.
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

    /// Replaces the confidence-interval stopping rule.
    #[must_use]
    pub fn stopping_rule(mut self, rule: StoppingRule) -> Self {
        self.rule = rule;
        self
    }

    /// Runs exactly `n` replications instead of a stopping rule (`n ≥ 2`).
    #[must_use]
    pub fn replications_exact(mut self, n: usize) -> Self {
        self.exact_replications = Some(n);
        self
    }

    /// Caps the replication worker pool at `jobs` threads (`1` runs the
    /// replications inline on the caller's thread). `0` restores the
    /// default (one worker per available core). Any value yields
    /// bit-identical results: replications are merged in index order, so
    /// this knob only trades wall-clock time for CPU occupancy.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { None } else { Some(jobs) };
        self
    }

    /// Runs one replication with the given index and returns its metrics.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (policy violations, SAN failures).
    pub fn run_replication(&self, rep: u64) -> Result<SampleMetrics, CoreError> {
        let seed = self.seed.wrapping_add(rep);
        let mut sim =
            Simulation::new(self.engine, self.config.clone(), self.policy.create(), seed)?;
        sim.run(self.warmup)?;
        sim.reset_metrics();
        sim.run(self.horizon)?;
        Ok(sim.metrics())
    }

    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] for an exact replication count < 2;
    /// * engine errors from any replication.
    pub fn run(&self) -> Result<MetricsReport, CoreError> {
        match self.exact_replications {
            Some(n) => self.run_exact(n),
            None => self.run_until_converged(),
        }
    }

    fn run_exact(&self, n: usize) -> Result<MetricsReport, CoreError> {
        if n < 2 {
            return Err(CoreError::InvalidConfig {
                reason: format!("need at least 2 replications for confidence intervals, got {n}"),
            });
        }
        let jobs = vsched_exec::resolve_jobs(self.jobs);
        let samples: Vec<SampleMetrics> =
            vsched_exec::run_indexed(jobs, 0, n, |rep| self.run_replication(rep))?;
        MetricsReport::from_samples(
            &samples,
            self.config.total_vcpus(),
            self.config.pcpus(),
            self.rule.level,
        )
    }

    fn run_until_converged(&self) -> Result<MetricsReport, CoreError> {
        let (controller, _samples) = vsched_exec::run_converged(
            vsched_exec::resolve_jobs(self.jobs),
            self.rule,
            |rep| self.run_replication(rep),
            SampleMetrics::to_observations,
        )?;
        Ok(MetricsReport::from_intervals(
            controller.intervals()?,
            self.config.total_vcpus(),
            self.config.pcpus(),
            controller.replications(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SystemConfig {
        SystemConfig::builder()
            .pcpus(2)
            .vm(2)
            .vm(1)
            .build()
            .unwrap()
    }

    #[test]
    fn exact_replications_direct_parallel() {
        let report = ExperimentBuilder::new(small_config(), PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .warmup(200)
            .horizon(2_000)
            .replications_exact(4)
            .run()
            .unwrap();
        assert_eq!(report.replications, 4);
        assert_eq!(report.vcpu_availability.len(), 3);
        assert_eq!(report.pcpu_utilization.len(), 2);
        // 3 VCPUs on 2 PCPUs, saturated: both PCPUs near full.
        assert!(report.avg_pcpu_utilization() > 0.95);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let base = ExperimentBuilder::new(small_config(), PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .warmup(100)
            .horizon(1_000)
            .replications_exact(3);
        let par = base.clone().jobs(3).run().unwrap();
        let seq = base.jobs(1).run().unwrap();
        assert_eq!(
            par.vcpu_availability_means(),
            seq.vcpu_availability_means(),
            "same seeds, same results, regardless of threading"
        );
    }

    #[test]
    fn stopping_rule_converges() {
        let rule = StoppingRule::new(0.95, 0.05)
            .with_min_replications(3)
            .with_max_replications(20);
        let report = ExperimentBuilder::new(small_config(), PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .warmup(200)
            .horizon(4_000)
            .stopping_rule(rule)
            .run()
            .unwrap();
        assert!(report.replications >= 3);
        assert!(report.replications <= 20);
        for ci in &report.vcpu_availability {
            assert!(ci.half_width <= 0.05 || report.replications == 20);
        }
    }

    #[test]
    fn exact_needs_two() {
        let err = ExperimentBuilder::new(small_config(), PolicyKind::RoundRobin)
            .replications_exact(1)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("at least 2"));
    }

    #[test]
    fn san_engine_small_run() {
        let report = ExperimentBuilder::new(small_config(), PolicyKind::RoundRobin)
            .engine(Engine::San)
            .warmup(100)
            .horizon(1_000)
            .replications_exact(2)
            .run()
            .unwrap();
        assert_eq!(report.replications, 2);
        assert!(report.avg_pcpu_utilization() > 0.9);
    }

    #[test]
    fn seeds_change_results() {
        let base = ExperimentBuilder::new(small_config(), PolicyKind::RoundRobin)
            .engine(Engine::Direct)
            .warmup(100)
            .horizon(1_000);
        let a = base.clone().seed(1).run_replication(0).unwrap();
        let b = base.seed(2).run_replication(0).unwrap();
        assert_ne!(a, b);
    }
}
