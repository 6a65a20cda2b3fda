//! The environment workload: episodes driven through `Env::reset` /
//! `Env::step` by RCS fed from the observations, one decision epoch at a
//! time, as an RL agent would drive them. The env is its own front door:
//! a traced unit makes the same calls and times each step.

use std::sync::Arc;
use std::time::Instant;

use vsched_core::{ExperimentBuilder, SampleMetrics, SchedulingPolicy};
use vsched_env::{Env, Observation, Scenario};

use crate::calibrate::Probe;
use crate::harness::{observation_bits, Tally, Unit, Workload};
use crate::ledger::{span, Ledger, Tracer};
use crate::policy::{ParentSlot, TimedPolicy};
use crate::rcs;

/// The monolithic run an episode must reproduce bit for bit.
///
/// # Errors
///
/// Engine errors.
pub fn monolithic(scenario: &Scenario, seed: u64) -> Result<SampleMetrics, String> {
    ExperimentBuilder::new(scenario.config.clone(), rcs())
        .engine(scenario.engine)
        .warmup(scenario.warmup)
        .horizon(scenario.horizon)
        .seed(seed)
        .run_replication(0)
        .map_err(|e| e.to_string())
}

/// The environment workload.
pub struct Rollout {
    scenario: Scenario,
    seed: u64,
    reference: Vec<u64>,
    recorded: Option<u64>,
    /// Operations and failures of the monolithic reference run.
    pub reference_tally: Tally,
}

/// Set-up output: a reset environment and the agent's policy.
pub struct RolloutReady {
    env: Env,
    obs: Observation,
    policy: Box<dyn SchedulingPolicy>,
}

impl Rollout {
    /// Runs the monolithic reference. `recorded`, when given, is the
    /// episode fingerprint each episode must end with.
    ///
    /// # Errors
    ///
    /// Engine errors of the reference run.
    pub fn new(scenario: Scenario, seed: u64, recorded: Option<u64>) -> Result<Self, String> {
        let reference = observation_bits(&monolithic(&scenario, seed)?);
        Ok(Rollout {
            scenario,
            seed,
            reference,
            recorded,
            reference_tally: Tally {
                attempted: 1,
                failed: 0,
            },
        })
    }
}

impl Rollout {
    fn episode(&self, ready: RolloutReady, tr: Option<Tracer<'_>>) -> Result<Unit, String> {
        let RolloutReady {
            mut env,
            mut obs,
            mut policy,
        } = ready;
        loop {
            let action =
                policy.schedule(&obs.vcpus, &obs.pcpus, obs.timestamp, obs.default_timeslice);
            let step = span(tr, "env.step", |_| env.step(&action)).map_err(|e| e.to_string())?;
            if step.done {
                break;
            }
            obs = step.obs;
        }
        let end = env.last_end().ok_or("episode ended without a summary")?;
        let metrics_ok = observation_bits(&end.metrics) == self.reference;
        let fingerprint_ok = self.recorded.is_none_or(|fp| fp == end.fingerprint);
        if !metrics_ok {
            eprintln!("mismatch: episode metrics differ from the monolithic run");
        }
        if !fingerprint_ok {
            eprintln!("mismatch: episode fingerprint {:016x}", end.fingerprint);
        }
        Ok(Unit {
            failed: u64::from(!(metrics_ok && fingerprint_ok)),
            ticks: end.ticks,
        })
    }
}

impl Workload for Rollout {
    type Ready = RolloutReady;
    type Front = RolloutReady;

    fn setup(&mut self, tr: Option<Tracer<'_>>) -> Result<RolloutReady, String> {
        let (env, obs) = span(tr, "env.reset", |_| {
            let mut env = Env::new(self.scenario.clone());
            let obs = env.reset(self.seed).map_err(|e| e.to_string())?;
            Ok::<_, String>((env, obs))
        })?;
        let policy = match tr {
            None => rcs().create(),
            Some(t) => {
                let slot = Arc::new(ParentSlot::default());
                slot.set(t.parent);
                Box::new(TimedPolicy::new(rcs().create(), Arc::clone(t.ledger), slot))
            }
        };
        Ok(RolloutReady { env, obs, policy })
    }

    fn prepare(&mut self) -> Result<RolloutReady, String> {
        self.setup(None)
    }

    fn run(&mut self, ready: RolloutReady) -> Result<Unit, String> {
        self.episode(ready, None)
    }

    fn run_traced(&mut self, ready: RolloutReady, tr: Tracer<'_>) -> Result<Unit, String> {
        self.episode(ready, Some(tr))
    }

    fn ops_per_unit(&self) -> u64 {
        1
    }

    fn min_setups(&self) -> usize {
        301
    }

    fn probe(&self) -> Probe {
        Probe::Handoff
    }

    fn after_traced(&mut self, ledger: &Ledger) {
        let t = Instant::now();
        if monolithic(&self.scenario, self.seed).is_ok() {
            ledger.count("env.engine_s", t.elapsed().as_secs_f64());
        }
    }
}
