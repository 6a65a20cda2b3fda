//! The direct time-stepped engine.
//!
//! A straight-line implementation of the framework's model semantics,
//! without the SAN formalism. It exists for two reasons:
//!
//! 1. **Model fidelity** — the paper's Discussion (§V) lists "evaluating
//!    the fidelity of the model" as open work. Running the same
//!    configuration through two independently implemented engines (this
//!    one and [`crate::san_model`]) and comparing reward estimates is the
//!    cross-validation the authors asked for.
//! 2. **Speed** — parameter sweeps (ablations) run orders of magnitude
//!    faster without gate/activity dispatch.
//!
//! # Canonical tick semantics
//!
//! Both engines implement the exact same ordering within one clock tick:
//!
//! 1. **process** — every BUSY VCPU's `remaining_load` decreases by 1;
//!    at zero the job completes and the VCPU becomes READY.
//! 2. **unblock** — a VM blocked on a synchronization point unblocks once
//!    every outstanding job in the VM has completed (the barrier clears).
//! 3. **expire** — every ACTIVE VCPU's timeslice decreases by 1; at zero
//!    the VCPU is scheduled out (INACTIVE, PCPU freed).
//! 4. **schedule** — the pluggable policy runs over the full system state;
//!    its decision is validated and applied. A VCPU scheduled in with
//!    pending work resumes BUSY, otherwise READY.
//! 5. **dispatch** — each unblocked VM generates workloads and hands them
//!    to READY VCPUs (lowest sibling index first). Dispatching a
//!    synchronization-point workload blocks the VM.
//!
//! A job dispatched at tick *t* therefore receives its first processing at
//! tick *t + 1*, and a VCPU scheduled in at tick *t* keeps its PCPU for
//! exactly `timeslice` ticks.

use vsched_des::{RngStreams, Xoshiro256StarStar};

use crate::config::{SyncMechanism, SystemConfig};
use crate::error::CoreError;
use crate::metrics::SampleMetrics;
use crate::observe::TickObserver;
use crate::sched::{PolicyScratch, SchedulingPolicy};
use crate::types::{PcpuView, VcpuId, VcpuStatus, VcpuView};
use crate::util::{duty_allows, refill, sample_ticks, sample_ticks_scaled, FULL_LEVEL};

#[derive(Debug, Clone)]
struct VcpuState {
    id: VcpuId,
    status: VcpuStatus,
    remaining_load: u64,
    sync_point: bool,
    /// The current job is a critical section that must hold the VM lock
    /// (spinlock extension; implies `sync_point`).
    needs_lock: bool,
    pcpu: Option<usize>,
    timeslice: u64,
    last_in: Option<u64>,
    // Metric counters (ticks observed in each state).
    active_ticks: u64,
    busy_ticks: u64,
    /// Ticks spent spinning on a held lock (spinlock extension).
    spin_ticks: u64,
}

#[derive(Debug, Clone)]
struct VmState {
    blocked: bool,
    /// Workloads generated so far (drives the deterministic sync pattern).
    generated: u64,
    /// Global index of the VCPU holding the VM's spinlock, if any
    /// (spinlock extension). A preempted holder keeps the lock — the
    /// lock-holder-preemption problem.
    lock: Option<usize>,
    /// Arrived-but-undispatched workloads (only used in interarrival mode).
    pending: u64,
    /// Tick of the next workload arrival (interarrival mode).
    next_arrival: Option<u64>,
}

/// The direct engine. See the module docs for the tick semantics.
///
/// # Example
///
/// ```
/// use vsched_core::{direct::DirectSim, PolicyKind, SystemConfig};
///
/// let config = SystemConfig::builder().pcpus(1).vm(2).build()?;
/// let mut sim = DirectSim::new(config, PolicyKind::RoundRobin.create(), 7);
/// sim.run(1_000)?;
/// let metrics = sim.metrics();
/// // Two saturated VCPUs share one PCPU roughly evenly.
/// assert!((metrics.avg_vcpu_availability() - 0.5).abs() < 0.05);
/// # Ok::<(), vsched_core::CoreError>(())
/// ```
pub struct DirectSim {
    config: SystemConfig,
    policy: Box<dyn SchedulingPolicy>,
    tick: u64,
    vcpus: Vec<VcpuState>,
    /// `pcpus[p]` = global index of the VCPU holding PCPU `p`.
    pcpus: Vec<Option<usize>>,
    vms: Vec<VmState>,
    /// Whether each VM is currently admitted (dynamic membership; all
    /// `true` for static configurations).
    admitted: Vec<bool>,
    /// Per-VM workload-generation level in per-mille (`1000` = the
    /// configured full rate; `0` = paused). Drives the trace frontend's
    /// load models.
    load_level: Vec<u32>,
    vm_rngs: Vec<Xoshiro256StarStar>,
    pcpu_ticks: Vec<u64>,
    observed_ticks: u64,
    observer: Option<Box<dyn TickObserver>>,
    /// The views the policy and the observer receive, refilled every tick.
    scratch: PolicyScratch,
}

impl std::fmt::Debug for DirectSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectSim")
            .field("tick", &self.tick)
            .field("policy", &self.policy.name())
            .field("config", &self.config.describe())
            .finish()
    }
}

impl DirectSim {
    /// Creates an engine over `config` running `policy`, with randomness
    /// derived from `seed`.
    #[must_use]
    pub fn new(config: SystemConfig, policy: Box<dyn SchedulingPolicy>, seed: u64) -> Self {
        let streams = RngStreams::new(seed);
        let vcpus = config
            .vcpu_ids()
            .iter()
            .map(|&id| VcpuState {
                id,
                status: VcpuStatus::Inactive,
                remaining_load: 0,
                sync_point: false,
                needs_lock: false,
                pcpu: None,
                timeslice: 0,
                last_in: None,
                active_ticks: 0,
                busy_ticks: 0,
                spin_ticks: 0,
            })
            .collect();
        let vms = config
            .vms()
            .iter()
            .map(|_| VmState {
                blocked: false,
                generated: 0,
                lock: None,
                pending: 0,
                next_arrival: None,
            })
            .collect();
        let vm_rngs = (0..config.vms().len())
            .map(|vm| streams.stream(100 + vm as u64))
            .collect();
        DirectSim {
            pcpus: vec![None; config.pcpus()],
            pcpu_ticks: vec![0; config.pcpus()],
            admitted: vec![true; config.vms().len()],
            load_level: vec![FULL_LEVEL; config.vms().len()],
            vcpus,
            vms,
            vm_rngs,
            tick: 0,
            observed_ticks: 0,
            observer: None,
            scratch: PolicyScratch::default(),
            policy,
            config,
        }
    }

    /// Attaches an end-of-tick observer (see [`crate::observe`]); replaces
    /// any previous one. With no observer attached the per-tick cost is a
    /// single untaken branch.
    pub fn attach_observer(&mut self, observer: Box<dyn TickObserver>) {
        self.observer = Some(observer);
    }

    /// Removes and returns the attached observer, if any.
    pub fn detach_observer(&mut self) -> Option<Box<dyn TickObserver>> {
        self.observer.take()
    }

    /// Current tick count.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.tick
    }

    /// The configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Whether VM `vm` is currently blocked on a synchronization point.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[must_use]
    pub fn vm_blocked(&self, vm: usize) -> bool {
        self.vms[vm].blocked
    }

    /// Whether VM `vm` is currently admitted (present in the system).
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[must_use]
    pub fn vm_admitted(&self, vm: usize) -> bool {
        self.admitted[vm]
    }

    /// The workload-generation level of VM `vm` in per-mille.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[must_use]
    pub fn load_level(&self, vm: usize) -> u32 {
        self.load_level[vm]
    }

    /// Admits or retires VM `vm` at the current tick boundary (trace
    /// frontend). A no-op when the VM is already in the target state, so
    /// a degenerate trace (all VMs present from the start) is bit-identical
    /// to the static path.
    ///
    /// Retiring schedules out every VCPU of the VM, discards its partial
    /// work and synchronization state, and stops workload generation; the
    /// VCPUs disappear from policy candidate sets (their views turn
    /// non-present). Re-admission restarts generation from an empty queue;
    /// in interarrival mode the first arrival is drawn from the admission
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn set_admitted(&mut self, vm: usize, admitted: bool) {
        if self.admitted[vm] == admitted {
            return;
        }
        self.admitted[vm] = admitted;
        if admitted {
            // Fresh interarrival draw on re-admission, anchored "now":
            // the lazy static-path draw is anchored at tick 0 and would
            // otherwise flood the queue with phantom arrivals.
            if let Some(inter) = &self.config.vms()[vm].workload.interarrival {
                let lm = self.load_level[vm];
                if lm > 0 {
                    let d = sample_ticks_scaled(inter, &mut self.vm_rngs[vm], lm);
                    self.vms[vm].next_arrival = Some(self.tick + d);
                }
            }
            return;
        }
        for g in self.config.vm_vcpus(vm) {
            self.schedule_out(g);
            let v = &mut self.vcpus[g];
            v.remaining_load = 0;
            v.sync_point = false;
            v.needs_lock = false;
        }
        let state = &mut self.vms[vm];
        state.blocked = false;
        state.lock = None;
        state.pending = 0;
        state.next_arrival = None;
    }

    /// Sets VM `vm`'s workload-generation level in per-mille of the
    /// configured rate (trace frontend; `1000` = full rate, `0` = paused).
    /// A no-op when the level is unchanged. In saturated mode the level
    /// duty-cycles generation ticks; in interarrival mode it scales the
    /// interarrival times, resampling the pending arrival from the
    /// current tick.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range or `per_mille > 1000`.
    pub fn set_load_level(&mut self, vm: usize, per_mille: u32) {
        assert!(
            per_mille <= FULL_LEVEL,
            "load level {per_mille} out of range"
        );
        if self.load_level[vm] == per_mille {
            return;
        }
        self.load_level[vm] = per_mille;
        if let Some(inter) = &self.config.vms()[vm].workload.interarrival {
            if per_mille == 0 {
                // Pause: abort the pending arrival (re-drawn on resume).
                self.vms[vm].next_arrival = None;
            } else if self.admitted[vm] {
                let d = sample_ticks_scaled(inter, &mut self.vm_rngs[vm], per_mille);
                self.vms[vm].next_arrival = Some(self.tick + d);
            }
        }
    }

    /// Snapshot of every VCPU, as a policy would see it.
    #[must_use]
    pub fn vcpu_views(&self) -> Vec<VcpuView> {
        let mut views = Vec::new();
        self.vcpu_views_into(&mut views);
        views
    }

    /// [`DirectSim::vcpu_views`] into `out`, reusing its capacity.
    pub fn vcpu_views_into(&self, out: &mut Vec<VcpuView>) {
        refill(
            out,
            self.vcpus.iter().map(|v| VcpuView {
                id: v.id,
                status: v.status,
                remaining_load: v.remaining_load,
                sync_point: v.sync_point,
                assigned_pcpu: v.pcpu,
                timeslice_remaining: v.timeslice,
                last_scheduled_in: v.last_in,
                vm_weight: self.config.vms()[v.id.vm].weight,
                present: self.admitted[v.id.vm],
            }),
        );
    }

    /// Snapshot of every PCPU.
    #[must_use]
    pub fn pcpu_views(&self) -> Vec<PcpuView> {
        let mut views = Vec::new();
        self.pcpu_views_into(&mut views);
        views
    }

    /// [`DirectSim::pcpu_views`] into `out`, reusing its capacity.
    pub fn pcpu_views_into(&self, out: &mut Vec<PcpuView>) {
        refill(
            out,
            self.pcpus
                .iter()
                .enumerate()
                .map(|(id, &assigned)| PcpuView {
                    id,
                    assigned: assigned.map(|g| self.vcpus[g].id),
                }),
        );
    }

    /// Advances the simulation by one clock tick: [`DirectSim::begin_tick`]
    /// then [`DirectSim::finish_tick`].
    ///
    /// # Errors
    ///
    /// [`CoreError::PolicyViolation`] if the policy produces an invalid
    /// decision; any error returned by an attached [`TickObserver`].
    pub fn tick(&mut self) -> Result<(), CoreError> {
        self.begin_tick();
        self.finish_tick()
    }

    /// Starts the next tick and runs it up to its decision point: phases
    /// 1–3. The views then are exactly the ones the policy receives in
    /// phase 4.
    pub fn begin_tick(&mut self) {
        self.tick += 1;

        // Phase 1: process workload on BUSY VCPUs, in global index order
        // (lock hand-off within a tick is index-ordered and deterministic).
        for g in 0..self.vcpus.len() {
            if self.vcpus[g].status != VcpuStatus::Busy {
                continue;
            }
            if self.vcpus[g].needs_lock {
                let vm = self.vcpus[g].id.vm;
                match self.vms[vm].lock {
                    None => {
                        self.vms[vm].lock = Some(g); // acquire, then run
                    }
                    Some(holder) if holder == g => {} // already holding
                    Some(_) => {
                        // Spin: burn the tick without making progress.
                        self.vcpus[g].spin_ticks += 1;
                        continue;
                    }
                }
            }
            let v = &mut self.vcpus[g];
            v.remaining_load -= 1;
            if v.remaining_load == 0 {
                v.status = VcpuStatus::Ready;
                v.sync_point = false;
                if v.needs_lock {
                    v.needs_lock = false;
                    self.vms[v.id.vm].lock = None; // release at section end
                }
            }
        }

        // Phase 2: clear barriers whose jobs have all completed.
        for vm in 0..self.vms.len() {
            if self.vms[vm].blocked {
                let outstanding = self
                    .config
                    .vm_vcpus(vm)
                    .any(|g| self.vcpus[g].remaining_load > 0);
                if !outstanding {
                    self.vms[vm].blocked = false;
                }
            }
        }

        // Phase 3: decrement timeslices; expire to INACTIVE.
        for g in 0..self.vcpus.len() {
            if self.vcpus[g].status.is_active() {
                self.vcpus[g].timeslice -= 1;
                if self.vcpus[g].timeslice == 0 {
                    self.schedule_out(g);
                }
            }
        }
    }

    /// Finishes the tick [`DirectSim::begin_tick`] started: the policy
    /// call, its validation and application (phase 4), phase 5, the
    /// metrics and the observer.
    ///
    /// # Errors
    ///
    /// As [`DirectSim::tick`].
    pub fn finish_tick(&mut self) -> Result<(), CoreError> {
        // The scratch leaves `self` for the tick, so the views can be
        // refilled from `&self` while it is borrowed mutably.
        let mut scratch = std::mem::take(&mut self.scratch);
        let finished = self.finish_tick_with(&mut scratch);
        self.scratch = scratch;
        finished
    }

    fn finish_tick_with(&mut self, scratch: &mut PolicyScratch) -> Result<(), CoreError> {
        // Phase 4: run the pluggable scheduling algorithm.
        self.vcpu_views_into(&mut scratch.vcpus);
        self.pcpu_views_into(&mut scratch.pcpus);
        let decision = scratch.consult(self.policy.as_mut(), self.tick, self.config.timeslice())?;
        for &g in &decision.preemptions {
            self.schedule_out(g);
        }
        for a in &decision.assignments {
            let v = &mut self.vcpus[a.vcpu];
            v.pcpu = Some(a.pcpu);
            v.timeslice = a.timeslice;
            v.last_in = Some(self.tick);
            v.status = if v.remaining_load > 0 {
                VcpuStatus::Busy
            } else {
                VcpuStatus::Ready
            };
            self.pcpus[a.pcpu] = Some(a.vcpu);
        }

        // Phase 5: workload generation and dispatch.
        for vm in 0..self.vms.len() {
            self.dispatch(vm);
        }

        // Metrics: the state after the tick's phases holds until the next
        // tick — sample it.
        self.observed_ticks += 1;
        for v in &mut self.vcpus {
            if v.status.is_active() {
                v.active_ticks += 1;
            }
            if v.status == VcpuStatus::Busy {
                v.busy_ticks += 1;
            }
        }
        for (p, assigned) in self.pcpus.iter().enumerate() {
            if assigned.is_some() {
                self.pcpu_ticks[p] += 1;
            }
        }

        if self.observer.is_some() {
            self.vcpu_views_into(&mut scratch.vcpus);
            self.pcpu_views_into(&mut scratch.pcpus);
            let tick = self.tick;
            if let Some(obs) = self.observer.as_mut() {
                obs.on_tick(tick, &scratch.vcpus, &scratch.pcpus)?;
            }
        }
        Ok(())
    }

    /// Runs `ticks` clock ticks.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`DirectSim::tick`].
    pub fn run(&mut self, ticks: u64) -> Result<(), CoreError> {
        for _ in 0..ticks {
            self.tick()?;
        }
        Ok(())
    }

    /// Discards metric counters (transient / warm-up deletion).
    pub fn reset_metrics(&mut self) {
        self.observed_ticks = 0;
        for v in &mut self.vcpus {
            v.active_ticks = 0;
            v.busy_ticks = 0;
            v.spin_ticks = 0;
        }
        for t in &mut self.pcpu_ticks {
            *t = 0;
        }
    }

    /// Metrics over the observation window since the last
    /// [`DirectSim::reset_metrics`] (or construction).
    ///
    /// VCPU utilization is BUSY / (BUSY + READY) — the fraction of a
    /// VCPU's *scheduled* time spent processing workload. The paper's
    /// reward variable "monitors the READY and BUSY states" for exactly
    /// this normalization: READY-while-scheduled is the synchronization
    /// latency Figure 10 measures.
    #[must_use]
    pub fn metrics(&self) -> SampleMetrics {
        let mut metrics = SampleMetrics::empty();
        self.metrics_into(&mut metrics);
        metrics
    }

    /// [`DirectSim::metrics`] into `out`, reusing its capacity.
    pub fn metrics_into(&self, out: &mut SampleMetrics) {
        let t = self.observed_ticks.max(1) as f64;
        refill(
            &mut out.vcpu_availability,
            self.vcpus.iter().map(|v| v.active_ticks as f64 / t),
        );
        refill(
            &mut out.vcpu_utilization,
            self.vcpus.iter().map(|v| {
                if v.active_ticks == 0 {
                    0.0
                } else {
                    v.busy_ticks.saturating_sub(v.spin_ticks) as f64 / v.active_ticks as f64
                }
            }),
        );
        refill(
            &mut out.pcpu_utilization,
            self.pcpu_ticks.iter().map(|&x| x as f64 / t),
        );
        refill(
            &mut out.vcpu_spin,
            self.vcpus.iter().map(|v| {
                if v.active_ticks == 0 {
                    0.0
                } else {
                    v.spin_ticks as f64 / v.active_ticks as f64
                }
            }),
        );
    }

    fn schedule_out(&mut self, g: usize) {
        let v = &mut self.vcpus[g];
        if let Some(p) = v.pcpu.take() {
            self.pcpus[p] = None;
        }
        v.status = VcpuStatus::Inactive;
        v.timeslice = 0;
    }

    /// Phase-5 workload generation for one VM.
    fn dispatch(&mut self, vm: usize) {
        if !self.admitted[vm] {
            return;
        }
        let workload = &self.config.vms()[vm].workload;
        let sync_mechanism = workload.sync_mechanism;
        let interarrival = workload.interarrival.is_some();
        let level = self.load_level[vm];
        // Saturated mode: the load level duty-cycles generation — tick T
        // generates iff the integer ramp T·level/1000 steps at T. Level
        // 1000 passes every tick (the static path, bit for bit).
        if !interarrival && !duty_allows(self.tick, level) {
            return;
        }
        // Interarrival mode: accrue arrivals up to the current tick, with
        // interarrival times scaled by 1000/level (level 0 = paused; the
        // next arrival is re-drawn when the level turns positive again).
        if let Some(inter) = &workload.interarrival {
            if level > 0 {
                let state = &mut self.vms[vm];
                if state.next_arrival.is_none() {
                    let d = sample_ticks_scaled(inter, &mut self.vm_rngs[vm], level);
                    state.next_arrival = Some(d);
                }
                while let Some(next) = self.vms[vm].next_arrival {
                    if next > self.tick {
                        break;
                    }
                    self.vms[vm].pending += 1;
                    let d = sample_ticks_scaled(inter, &mut self.vm_rngs[vm], level);
                    self.vms[vm].next_arrival = Some(next + d);
                }
            }
        }
        // Lowest-sibling-index READY VCPU receives each workload. A VCPU
        // that receives one turns BUSY, so the scan resumes past it.
        let members = self.config.vm_vcpus(vm);
        let mut from = members.start;
        loop {
            if self.vms[vm].blocked {
                break;
            }
            if interarrival && self.vms[vm].pending == 0 {
                break;
            }
            let Some(g) = (from..members.end).find(|&g| self.vcpus[g].status == VcpuStatus::Ready)
            else {
                break;
            };
            from = g + 1;
            let workload = &self.config.vms()[vm].workload;
            let rng = &mut self.vm_rngs[vm];
            let load = sample_ticks(&workload.load, rng);
            self.vms[vm].generated += 1;
            let sync = match workload.sync_every {
                Some(k) => self.vms[vm].generated.is_multiple_of(u64::from(k)),
                None => rng.next_bool(workload.sync_probability),
            };
            if interarrival {
                self.vms[vm].pending -= 1;
            }
            let v = &mut self.vcpus[g];
            v.remaining_load = load;
            v.sync_point = sync;
            v.status = VcpuStatus::Busy;
            if sync {
                match sync_mechanism {
                    SyncMechanism::Barrier => self.vms[vm].blocked = true,
                    SyncMechanism::SpinLock => v.needs_lock = true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
