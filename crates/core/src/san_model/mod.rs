//! The SAN-based engine: the paper's virtualization model, faithfully.
//!
//! [`SanSystem`] compiles a [`SystemConfig`] and a [`SchedulingPolicy`]
//! into a Stochastic Activity Network (see the `build` module source for
//! the mapping to the
//! paper's figures), runs it on the `vsched-san` simulator, and reads the
//! three metrics off rate reward variables:
//!
//! * VCPU availability — reward `1` while `status ∈ {READY, BUSY}`,
//! * VCPU utilization — reward `1` while `status = BUSY`,
//! * PCPU utilization — reward `1` while the PCPU is ASSIGNED,
//!
//! exactly the "reward variable that monitors the state transition" the
//! paper describes for each figure.

mod build;
pub mod invariants;
mod layout;

#[cfg(test)]
mod tests;

pub use invariants::{expected_invariants, InvariantKind, ModelInvariant};
pub use layout::{DynVmPlaces, Layout, VcpuPlaces, VmPlaces};

use std::cell::RefCell;
use std::rc::Rc;

use vsched_san::{ActivityId, RewardId, Simulator};

use crate::config::SystemConfig;
use crate::error::CoreError;
use crate::metrics::SampleMetrics;
use crate::observe::TickObserver;
use crate::sched::SchedulingPolicy;
use crate::types::{PcpuView, VcpuView};

use build::ErrorCell;

/// A compiled model plus its layout, without a simulator attached — the
/// input of `vsched-analyze`'s static pass, which probe-fires activities
/// on markings of its own choosing.
pub struct AnalysisModel {
    /// The built SAN model (owns the gate closures, including the policy).
    pub model: vsched_san::Model,
    /// The place layout of the composed model.
    pub layout: Layout,
    error: ErrorCell,
    /// The policy inside the `Scheduling_Func` gate, shared so the
    /// exhaustive-state verifier can snapshot/restore its hidden state
    /// (cursors, credits, skew counters) between probe firings.
    policy: Rc<RefCell<Box<dyn SchedulingPolicy>>>,
}

impl std::fmt::Debug for AnalysisModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisModel")
            .field("model", &self.model)
            .finish()
    }
}

impl AnalysisModel {
    /// A detached probe that takes the policy-violation error recorded by
    /// the `Scheduling_Func` gate, if any (the gate halts the model and
    /// stores the error instead of panicking) — lets an analysis pass poll
    /// for policy violations while it holds `self.model` mutably.
    pub fn error_probe(&self) -> impl Fn() -> Option<CoreError> {
        let cell = Rc::clone(&self.error);
        move || cell.borrow_mut().take()
    }

    /// Snapshots the embedded policy's internal state (see
    /// [`crate::sched::SchedulingPolicy::save_state`]); `None` if the
    /// policy does not support snapshotting.
    #[must_use]
    pub fn save_policy_state(&self) -> Option<crate::sched::PolicyState> {
        self.policy.borrow().save_state()
    }

    /// Restores a snapshot into the embedded policy; `false` if rejected.
    pub fn load_policy_state(&self, state: &crate::sched::PolicyState) -> bool {
        self.policy.borrow_mut().load_state(state)
    }
}

/// Compiles `config` + `policy` into a bare model for static analysis.
///
/// # Errors
///
/// [`CoreError::San`] if model construction fails.
pub fn build_analysis_model(
    config: &SystemConfig,
    policy: Box<dyn SchedulingPolicy>,
) -> Result<AnalysisModel, CoreError> {
    Ok(build::build_model(config, policy, false)?)
}

/// The SAN engine for one simulation run. See the module docs.
///
/// # Example
///
/// ```
/// use vsched_core::{san_model::SanSystem, PolicyKind, SystemConfig};
///
/// let config = SystemConfig::builder().pcpus(2).vm(2).build()?;
/// let mut system = SanSystem::new(config, PolicyKind::StrictCo.create(), 7)?;
/// system.run(500)?;
/// assert_eq!(system.time(), 500);
/// assert!(system.metrics().avg_pcpu_utilization() > 0.9);
/// # Ok::<(), vsched_core::CoreError>(())
/// ```
pub struct SanSystem {
    sim: Simulator,
    config: SystemConfig,
    layout: Layout,
    error: ErrorCell,
    /// The `Scheduling_Func` activity: the policy's decision point.
    sched_func: ActivityId,
    avail: Vec<RewardId>,
    util: Vec<RewardId>,
    spin: Vec<RewardId>,
    putil: Vec<RewardId>,
    horizon: f64,
    observer: Option<Box<dyn TickObserver>>,
}

impl std::fmt::Debug for SanSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SanSystem")
            .field("config", &self.config.describe())
            .field("time", &self.sim.time())
            .finish()
    }
}

impl SanSystem {
    /// Compiles `config` + `policy` into a SAN and prepares the simulator
    /// with randomness derived from `seed`.
    ///
    /// # Errors
    ///
    /// [`CoreError::San`] if model construction fails (cannot happen for a
    /// validated [`SystemConfig`], but the SAN layer's errors are surfaced
    /// rather than unwrapped).
    pub fn new(
        config: SystemConfig,
        policy: Box<dyn SchedulingPolicy>,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::build(config, policy, seed, false)
    }

    /// Like [`SanSystem::new`] but compiles a *dynamic* model carrying
    /// per-VM admission and load-level places (the trace frontend). At the
    /// identity marking — every VM admitted at full level, which is how
    /// the system starts — a dynamic system is bit-identical to the static
    /// one; [`SanSystem::set_admitted`] and [`SanSystem::set_load_level`]
    /// then retire/re-admit VMs and modulate generation rates at event
    /// boundaries.
    ///
    /// # Errors
    ///
    /// [`CoreError::San`] if model construction fails.
    pub fn new_dynamic(
        config: SystemConfig,
        policy: Box<dyn SchedulingPolicy>,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::build(config, policy, seed, true)
    }

    fn build(
        config: SystemConfig,
        policy: Box<dyn SchedulingPolicy>,
        seed: u64,
        dynamic: bool,
    ) -> Result<Self, CoreError> {
        let AnalysisModel {
            model,
            layout,
            error,
            ..
        } = build::build_model(&config, policy, dynamic)?;
        let sched_func = model
            .activity_by_name("Scheduling_Func")
            .expect("the composed model has a Scheduling_Func activity");
        let mut sim = Simulator::new(model, seed);
        let mut avail = Vec::with_capacity(config.total_vcpus());
        let mut util = Vec::with_capacity(config.total_vcpus());
        let mut spin = Vec::with_capacity(config.total_vcpus());
        for (g, v) in layout.vcpus.iter().copied().enumerate() {
            let id = config.vcpu_ids()[g];
            avail.push(sim.add_rate_reward_with_reads(
                format!("availability {id}"),
                [v.status],
                move |m| f64::from(m.tokens(v.status) >= 1),
            ));
            util.push(sim.add_rate_reward_with_reads(
                format!("utilization {id}"),
                [v.status],
                move |m| f64::from(m.tokens(v.status) == 2),
            ));
            spin.push(sim.add_rate_reward_with_reads(
                format!("spin {id}"),
                [v.spinning],
                move |m| f64::from(m.tokens(v.spinning) == 1),
            ));
        }
        let putil = layout
            .pcpus
            .iter()
            .copied()
            .enumerate()
            .map(|(p, place)| {
                sim.add_rate_reward_with_reads(format!("PCPU {p} utilization"), [place], move |m| {
                    f64::from(m.tokens(place) > 0)
                })
            })
            .collect();
        Ok(SanSystem {
            sim,
            config,
            layout,
            error,
            sched_func,
            avail,
            util,
            spin,
            putil,
            horizon: 0.0,
            observer: None,
        })
    }

    /// Attaches an end-of-tick observer (see [`crate::observe`]); replaces
    /// any previous one.
    ///
    /// With an observer attached the simulator is stepped one clock period
    /// at a time so a snapshot can be taken at every tick boundary (event
    /// processing order — and therefore every sampled value — is identical
    /// to an unobserved run), and the future-event-list monotonicity check
    /// of the underlying `vsched-san` simulator is switched on.
    pub fn attach_observer(&mut self, observer: Box<dyn TickObserver>) {
        self.sim.enable_event_monotonicity_check();
        self.observer = Some(observer);
    }

    /// Removes and returns the attached observer, if any.
    pub fn detach_observer(&mut self) -> Option<Box<dyn TickObserver>> {
        self.observer.take()
    }

    /// Advances the model by `ticks` clock periods.
    ///
    /// # Errors
    ///
    /// * [`CoreError::PolicyViolation`] if the plugged-in scheduling
    ///   function produced an invalid decision (the model halts at the
    ///   offending tick);
    /// * [`CoreError::San`] for SAN-level failures;
    /// * any error returned by an attached [`TickObserver`].
    pub fn run(&mut self, ticks: u64) -> Result<(), CoreError> {
        if self.observer.is_none() {
            self.horizon += ticks as f64;
            self.sim.run_until(self.horizon)?;
            if let Some(e) = self.error.borrow_mut().take() {
                return Err(e);
            }
            return Ok(());
        }
        // Observed run: step one clock period at a time. All activities
        // fire at integer times, so stopping at every integer boundary
        // processes exactly the same events in the same order as one long
        // run — only the observation points differ.
        for _ in 0..ticks {
            self.horizon += 1.0;
            self.sim.run_until(self.horizon)?;
            if let Some(e) = self.error.borrow_mut().take() {
                return Err(e);
            }
            let vcpu_views = self.vcpu_views();
            let pcpu_views = self.pcpu_views();
            let tick = self.time();
            if let Some(obs) = self.observer.as_mut() {
                obs.on_tick(tick, &vcpu_views, &pcpu_views)?;
            }
        }
        Ok(())
    }

    /// Runs into the next tick and stops just before its `Scheduling_Func`
    /// completion, where the policy would be called: the views then are
    /// exactly the ones the policy receives. A following `run(1)` fires it
    /// and finishes the tick, bit-identically to an uninterrupted
    /// `run(1)`. On a halted model the tick ends without a decision point.
    ///
    /// # Errors
    ///
    /// As [`SanSystem::run`].
    pub fn run_to_decision(&mut self) -> Result<(), CoreError> {
        self.sim
            .run_until_break(self.horizon + 1.0, self.sched_func)?;
        if let Some(e) = self.error.borrow_mut().take() {
            return Err(e);
        }
        Ok(())
    }

    /// Current tick (value of the hypervisor clock place).
    #[must_use]
    pub fn time(&self) -> u64 {
        self.sim.marking().tokens(self.layout.clock) as u64
    }

    /// The configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Restarts the metric observation windows (warm-up deletion).
    pub fn reset_metrics(&mut self) {
        self.sim.reset_rewards();
    }

    /// Switches the underlying simulator between incremental reevaluation
    /// (the default) and the full-rescan reference mode. Both modes are
    /// bit-identical by construction; the toggle exists so differential
    /// checkers and the perf harness can compare them.
    pub fn set_full_rescan(&mut self, on: bool) {
        self.sim.set_full_rescan(on);
    }

    /// The three paper metrics over the current observation window.
    ///
    /// VCPU utilization is the ratio of the useful-BUSY-fraction reward
    /// (BUSY minus spinning) to the ACTIVE-fraction reward — the fraction
    /// of scheduled time spent making progress (see [`crate::metrics`]).
    #[must_use]
    pub fn metrics(&self) -> SampleMetrics {
        let availability: Vec<f64> = self
            .avail
            .iter()
            .map(|&r| self.sim.rate_reward_average(r))
            .collect();
        let spin_avg: Vec<f64> = self
            .spin
            .iter()
            .map(|&r| self.sim.rate_reward_average(r))
            .collect();
        let utilization = self
            .util
            .iter()
            .zip(&availability)
            .zip(&spin_avg)
            .map(|((&r, &active), &spinning)| {
                if active == 0.0 {
                    0.0
                } else {
                    (self.sim.rate_reward_average(r) - spinning).max(0.0) / active
                }
            })
            .collect();
        let vcpu_spin = spin_avg
            .iter()
            .zip(&availability)
            .map(|(&spinning, &active)| {
                if active == 0.0 {
                    0.0
                } else {
                    spinning / active
                }
            })
            .collect();
        SampleMetrics {
            vcpu_availability: availability,
            vcpu_utilization: utilization,
            pcpu_utilization: self
                .putil
                .iter()
                .map(|&r| self.sim.rate_reward_average(r))
                .collect(),
            vcpu_spin,
        }
    }

    /// Snapshot of every VCPU from the current marking.
    #[must_use]
    pub fn vcpu_views(&self) -> Vec<VcpuView> {
        self.layout.vcpu_views(self.sim.marking(), &self.config)
    }

    /// Snapshot of every PCPU from the current marking.
    #[must_use]
    pub fn pcpu_views(&self) -> Vec<PcpuView> {
        self.layout.pcpu_views(self.sim.marking(), &self.config)
    }

    /// Whether VM `vm` is currently blocked on a synchronization point.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[must_use]
    pub fn vm_blocked(&self, vm: usize) -> bool {
        self.sim.marking().tokens(self.layout.vms[vm].blocked) == 1
    }

    /// Whether VM `vm` is currently admitted (always true on a static
    /// model).
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[must_use]
    pub fn vm_admitted(&self, vm: usize) -> bool {
        self.layout.vm_admitted(self.sim.marking(), vm)
    }

    /// VM `vm`'s workload-generation level in per-mille (1000 on a static
    /// model).
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[must_use]
    pub fn load_level(&self, vm: usize) -> u32 {
        self.layout.vm_load_level(self.sim.marking(), vm)
    }

    /// Admits or retires VM `vm` at the current instant (trace frontend).
    /// A no-op when the admission state is unchanged, so replaying a
    /// degenerate trace leaves the system bit-identical to a static run.
    ///
    /// Retirement schedules every member VCPU out, erases the VM's job
    /// and synchronization state, and drops the `admitted` token, which
    /// disables the VM's workload generator and removes its VCPUs from
    /// every policy's candidate set (`present = false`). The mutation goes
    /// through [`vsched_san::Simulator::apply_external`], which keeps the
    /// reward accumulators exact.
    ///
    /// # Panics
    ///
    /// Panics if the system was not built with [`SanSystem::new_dynamic`]
    /// or `vm` is out of range.
    pub fn set_admitted(&mut self, vm: usize, admitted: bool) {
        let d = self
            .layout
            .dyn_vms
            .as_ref()
            .expect("set_admitted on a static SAN model")[vm];
        if (self.sim.marking().tokens(d.admitted) == 1) == admitted {
            return;
        }
        let layout = &self.layout;
        self.sim.apply_external(|m| {
            if admitted {
                m.set(d.admitted, 1);
            } else {
                layout.retire_vm(m, vm);
            }
        });
    }

    /// Sets VM `vm`'s workload-generation level in per-mille of the
    /// configured rate (trace frontend; `1000` = full rate, `0` = paused).
    /// A no-op when the level is unchanged. Saturated generators are
    /// duty-cycled on the shared clock; interarrival generators rescale
    /// their rate, resampling the pending arrival from the current
    /// instant.
    ///
    /// # Panics
    ///
    /// Panics if the system was not built with [`SanSystem::new_dynamic`],
    /// `vm` is out of range, or `per_mille > 1000`.
    pub fn set_load_level(&mut self, vm: usize, per_mille: u32) {
        assert!(
            per_mille <= crate::util::FULL_LEVEL,
            "load level {per_mille} out of range"
        );
        let d = self
            .layout
            .dyn_vms
            .as_ref()
            .expect("set_load_level on a static SAN model")[vm];
        if self.sim.marking().tokens(d.load_level) == i64::from(per_mille) {
            return;
        }
        self.sim
            .apply_external(|m| m.set(d.load_level, i64::from(per_mille)));
    }

    /// The underlying SAN simulator (for reward/statistics inspection).
    #[must_use]
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// White-box access to the place layout for invariant tests.
    #[cfg(test)]
    pub(crate) fn layout_for_tests(&self) -> &Layout {
        &self.layout
    }
}
