//! The experiment runner: replicated simulations with Mobius-style
//! confidence-interval termination, over either engine.

use vsched_stats::{ConfidenceInterval, StoppingRule};

use crate::config::SystemConfig;
use crate::direct::DirectSim;
use crate::error::CoreError;
use crate::metrics::{MetricsReport, SampleMetrics};
use crate::san_model::SanSystem;
use crate::sched::PolicyKind;

/// Which engine executes the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The faithful SAN engine ([`crate::san_model::SanSystem`]) — what the
    /// paper runs on Mobius. Default.
    San,
    /// The fast time-stepped engine ([`crate::direct::DirectSim`]) with
    /// identical semantics; use for large sweeps.
    Direct,
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
    parallel: bool,
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
            parallel: true,
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

    /// Enables/disables parallel replications (default enabled). Results
    /// are bit-identical either way: replications are merged in index
    /// order, so threading never changes the statistics.
    #[must_use]
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Caps the replication worker pool at `jobs` threads. `0` restores
    /// the default (one worker per available core). Any value yields
    /// bit-identical results; this knob only trades wall-clock time for
    /// CPU occupancy.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { None } else { Some(jobs) };
        self
    }

    /// The worker count [`ExperimentBuilder::run`] will use.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        if self.parallel {
            vsched_exec::resolve_jobs(self.jobs)
        } else {
            1
        }
    }

    /// Runs one replication with the given index and returns its metrics.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (policy violations, SAN failures).
    pub fn run_replication(&self, rep: u64) -> Result<SampleMetrics, CoreError> {
        let seed = self.seed.wrapping_add(rep);
        match self.engine {
            Engine::Direct => {
                let mut sim = DirectSim::new(self.config.clone(), self.policy.create(), seed);
                sim.run(self.warmup)?;
                sim.reset_metrics();
                sim.run(self.horizon)?;
                Ok(sim.metrics())
            }
            Engine::San => {
                let mut sys = SanSystem::new(self.config.clone(), self.policy.create(), seed)?;
                sys.run(self.warmup)?;
                sys.reset_metrics();
                sys.run(self.horizon)?;
                Ok(sys.metrics())
            }
        }
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
        let samples: Vec<SampleMetrics> =
            vsched_exec::run_indexed(self.effective_jobs(), 0, n, |rep| self.run_replication(rep))?;
        let arity = samples[0].to_observations().len();
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(n); arity];
        for s in &samples {
            for (c, x) in columns.iter_mut().zip(s.to_observations()) {
                c.push(x);
            }
        }
        let intervals: Vec<ConfidenceInterval> = columns
            .iter()
            .map(|c| ConfidenceInterval::from_samples(c, self.rule.level))
            .collect::<Result<_, _>>()?;
        Ok(MetricsReport::from_intervals(
            intervals,
            self.config.total_vcpus(),
            self.config.pcpus(),
            n,
        ))
    }

    fn run_until_converged(&self) -> Result<MetricsReport, CoreError> {
        let (controller, _samples) = vsched_exec::run_converged(
            self.effective_jobs(),
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
        let par = base.clone().parallel(true).run().unwrap();
        let seq = base.parallel(false).run().unwrap();
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
