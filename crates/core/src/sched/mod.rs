//! Pluggable VCPU scheduling algorithms.
//!
//! The paper exposes scheduling algorithms through a C function-call
//! interface:
//!
//! ```c
//! bool schedule(VCPU_host_external* vcpus, int num_vcpu,
//!               PCPU_external* pcpus, int num_pcpu, long timestamp)
//! ```
//!
//! The Rust analogue is [`SchedulingPolicy`]: once per clock tick the
//! hypervisor hands the policy a snapshot of every VCPU ([`VcpuView`]) and
//! PCPU ([`PcpuView`]) plus the timestamp, and the policy returns a
//! [`ScheduleDecision`] — which VCPUs to assign to which PCPUs (with a
//! timeslice) and which to preempt. The engine validates the decision
//! against the model invariants before applying it, so a buggy user
//! algorithm fails loudly instead of silently corrupting state.
//!
//! Built-in policies: [`RoundRobin`] (RRS), [`StrictCo`] (SCS),
//! [`RelaxedCo`] (RCS), [`Balance`], [`Credit`], [`Sedf`], [`Bvt`],
//! [`Fcfs`].

mod balance;
mod bvt;
mod credit;
mod fault;
mod fcfs;
mod rcs;
mod rrs;
mod scs;
mod sedf;

pub use balance::Balance;
pub use bvt::Bvt;
pub use credit::Credit;
pub use fault::FaultInjection;
pub use fcfs::Fcfs;
pub use rcs::RelaxedCo;
pub use rrs::RoundRobin;
pub use scs::StrictCo;
pub use sedf::Sedf;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::types::{PcpuView, VcpuView};

/// One PCPU-to-VCPU assignment produced by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Global index of the VCPU to schedule in.
    pub vcpu: usize,
    /// PCPU to assign.
    pub pcpu: usize,
    /// Ticks the VCPU may keep the PCPU.
    pub timeslice: u64,
}

/// The output of one scheduling invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleDecision {
    /// VCPUs to preempt (schedule out) this tick, before assignments.
    pub preemptions: Vec<usize>,
    /// New assignments, applied after preemptions.
    pub assignments: Vec<Assignment>,
}

impl ScheduleDecision {
    /// An empty decision (change nothing).
    #[must_use]
    pub fn none() -> Self {
        ScheduleDecision::default()
    }

    /// Convenience: records an assignment.
    pub fn assign(&mut self, vcpu: usize, pcpu: usize, timeslice: u64) {
        self.assignments.push(Assignment {
            vcpu,
            pcpu,
            timeslice,
        });
    }

    /// Convenience: records a preemption.
    pub fn preempt(&mut self, vcpu: usize) {
        self.preemptions.push(vcpu);
    }
}

/// The [`VcpuView`] fields a policy declares it reads — its **snapshot
/// view** contract, checked statically by `vsched-analyze`'s policy lint.
///
/// Structural fields (`id`, `status`, `assigned_pcpu`) are always readable
/// and are not part of the declaration: every policy must consult the
/// status to find schedulable VCPUs. The declarable fields are the
/// *payload* fields whose values could silently couple a policy to model
/// internals it was not designed around.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewFields {
    /// Reads `VcpuView::remaining_load`.
    pub remaining_load: bool,
    /// Reads `VcpuView::sync_point`.
    pub sync_point: bool,
    /// Reads `VcpuView::timeslice_remaining`.
    pub timeslice_remaining: bool,
    /// Reads `VcpuView::last_scheduled_in`.
    pub last_scheduled_in: bool,
    /// Reads `VcpuView::vm_weight`.
    pub vm_weight: bool,
}

impl ViewFields {
    /// No payload fields — the policy decides from status/assignment alone.
    #[must_use]
    pub fn none() -> Self {
        ViewFields::default()
    }

    /// Every payload field (the conservative default for user policies).
    #[must_use]
    pub fn all() -> Self {
        ViewFields {
            remaining_load: true,
            sync_point: true,
            timeslice_remaining: true,
            last_scheduled_in: true,
            vm_weight: true,
        }
    }

    /// Names of the declared fields, for diagnostics.
    #[must_use]
    pub fn declared(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.remaining_load {
            out.push("remaining_load");
        }
        if self.sync_point {
            out.push("sync_point");
        }
        if self.timeslice_remaining {
            out.push("timeslice_remaining");
        }
        if self.last_scheduled_in {
            out.push("last_scheduled_in");
        }
        if self.vm_weight {
            out.push("vm_weight");
        }
        out
    }
}

/// A structured snapshot of a policy's internal state, used by the
/// exhaustive-state verifier (`vsched verify`) to branch exploration: the
/// policy is saved at every stable state and restored before probing each
/// successor, so hidden cursors and counters are part of the explored
/// state, not an accident of visit order.
///
/// The verifier never looks inside a snapshot: it only hands it back to
/// [`SchedulingPolicy::load_state`] and keys stored states by
/// [`PolicyState::encode_into`]. The five sections just name what each
/// word means to the policy that wrote it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyState {
    /// Index-free scalars (accumulated clocks, phase flags, ...).
    pub global: Vec<i64>,
    /// One row per VCPU in global-id order. May be empty when the policy
    /// keeps no per-VCPU state (or has not lazily sized it yet); otherwise
    /// its length must equal the VCPU count.
    pub per_vcpu: Vec<Vec<i64>>,
    /// One row per VM. Same length contract as `per_vcpu`.
    pub per_vm: Vec<Vec<i64>>,
    /// Words whose *values* are VCPU global ids (cursors, queue entries);
    /// `-1` encodes "none". Variable length.
    pub vcpu_ids: Vec<i64>,
    /// Words whose values are VM indices; `-1` encodes "none".
    pub vm_ids: Vec<i64>,
}

impl PolicyState {
    /// Appends an unambiguous flat encoding (every section is
    /// length-prefixed) — the verifier hashes this alongside the marking.
    pub fn encode_into(&self, out: &mut Vec<i64>) {
        let push_rows = |out: &mut Vec<i64>, rows: &[Vec<i64>]| {
            out.push(rows.len() as i64);
            for row in rows {
                out.push(row.len() as i64);
                out.extend_from_slice(row);
            }
        };
        out.push(self.global.len() as i64);
        out.extend_from_slice(&self.global);
        push_rows(out, &self.per_vcpu);
        push_rows(out, &self.per_vm);
        out.push(self.vcpu_ids.len() as i64);
        out.extend_from_slice(&self.vcpu_ids);
        out.push(self.vm_ids.len() as i64);
        out.extend_from_slice(&self.vm_ids);
    }
}

/// A VCPU scheduling algorithm.
///
/// Implementations may keep arbitrary internal state (round-robin cursors,
/// per-VCPU skew counters, credits) across invocations; the engine calls
/// [`SchedulingPolicy::schedule`] exactly once per clock tick, on the
/// thread that runs the engine — the paper's C function called from one
/// simulation thread — so a policy needs no synchronisation of its own.
pub trait SchedulingPolicy {
    /// Human-readable name used in reports and error messages.
    fn name(&self) -> &str;

    /// Decides PCPU assignments for this tick.
    ///
    /// * `vcpus` — every VCPU in the system, indexed by global id;
    /// * `pcpus` — every PCPU, indexed by id;
    /// * `timestamp` — the current tick (the paper's `timestamp` argument);
    /// * `default_timeslice` — the configured timeslice, which policies
    ///   typically pass through to their assignments.
    fn schedule(
        &mut self,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
        timestamp: u64,
        default_timeslice: u64,
    ) -> ScheduleDecision;

    /// The [`VcpuView`] payload fields this policy reads (its snapshot-view
    /// contract). The default declares **everything**, which is always
    /// sound; built-in policies narrow it so `vsched-analyze` can verify
    /// the declaration by sensitivity probing.
    fn snapshot_view(&self) -> ViewFields {
        ViewFields::all()
    }

    /// Snapshots the policy's internal state for the exhaustive-state
    /// verifier. `None` (the default) declares snapshotting unsupported,
    /// which makes `vsched verify` refuse the policy as *inconclusive*
    /// rather than silently explore an unsound graph. Every built-in
    /// implements it.
    fn save_state(&self) -> Option<PolicyState> {
        None
    }

    /// Restores a snapshot previously produced by
    /// [`SchedulingPolicy::save_state`] on a policy of the same kind and
    /// parameters. Returns `false` if the snapshot shape is foreign.
    fn load_state(&mut self, state: &PolicyState) -> bool {
        let _ = state;
        false
    }

    /// Whether the policy's decisions commute with a cyclic rotation of
    /// identical VMs. Nothing in the workspace reads it, and no built-in
    /// overrides the default; it stays only because the benchmark's
    /// policy wrapper (`perfbench/`) forwards it. ROADMAP item 9 deletes
    /// it.
    fn rotation_equivariant(&self) -> bool {
        false
    }
}

/// Checks a decision against the model invariants — the **decision
/// invariant** of the `vsched-check` catalogue (see DESIGN.md §11).
///
/// Both engines gate every [`ScheduleDecision`] through this function
/// before applying it, so it runs on every tick of every simulation, not
/// only under the fuzzer; the `vsched-check` crate re-exports it as the
/// first entry of its invariant catalogue and layers the *state*
/// invariants (exclusive assignment, transition legality, gang atomicity,
/// skew bound, accounting closure) on top via the
/// [`crate::observe::TickObserver`] hook.
///
/// Invariants:
///
/// 1. preempted VCPUs must currently be ACTIVE;
/// 2. assigned VCPUs must be INACTIVE and not also preempted this tick;
/// 3. no VCPU may receive two assignments — one VCPU on two PCPUs would
///    silently double its service share;
/// 4. each target PCPU must be IDLE (or freed by a preemption this tick)
///    and may be assigned at most once;
/// 5. every timeslice must be at least one tick.
///
/// # Errors
///
/// [`CoreError::PolicyViolation`] naming the policy and the violated
/// invariant.
pub fn validate_decision(
    policy_name: &str,
    vcpus: &[VcpuView],
    pcpus: &[PcpuView],
    decision: &ScheduleDecision,
) -> Result<(), CoreError> {
    let violation = |reason: String| CoreError::PolicyViolation {
        policy: policy_name.to_string(),
        reason,
    };
    let mut freed = vec![false; pcpus.len()];
    let mut preempted = vec![false; vcpus.len()];
    for &v in &decision.preemptions {
        let view = vcpus
            .get(v)
            .ok_or_else(|| violation(format!("preemption of unknown VCPU index {v}")))?;
        if preempted[v] {
            return Err(violation(format!("VCPU {v} preempted twice")));
        }
        preempted[v] = true;
        match view.assigned_pcpu {
            Some(p) => freed[p] = true,
            None => {
                return Err(violation(format!(
                    "preempted VCPU {v} is not ACTIVE (status {:?})",
                    view.status
                )))
            }
        }
    }
    let mut pcpu_taken = vec![false; pcpus.len()];
    let mut vcpu_assigned = vec![false; vcpus.len()];
    for a in &decision.assignments {
        let view = vcpus
            .get(a.vcpu)
            .ok_or_else(|| violation(format!("assignment of unknown VCPU index {}", a.vcpu)))?;
        if a.pcpu >= pcpus.len() {
            return Err(violation(format!("assignment to unknown PCPU {}", a.pcpu)));
        }
        if a.timeslice == 0 {
            return Err(violation(format!(
                "VCPU {} assigned a zero timeslice",
                a.vcpu
            )));
        }
        if preempted[a.vcpu] {
            return Err(violation(format!(
                "VCPU {} both preempted and assigned in one tick",
                a.vcpu
            )));
        }
        if !view.is_schedulable() {
            return Err(violation(format!(
                "assigned VCPU {} is not INACTIVE (status {:?})",
                a.vcpu, view.status
            )));
        }
        if vcpu_assigned[a.vcpu] {
            return Err(violation(format!("VCPU {} assigned twice", a.vcpu)));
        }
        vcpu_assigned[a.vcpu] = true;
        let idle = pcpus[a.pcpu].is_idle() || freed[a.pcpu];
        if !idle || pcpu_taken[a.pcpu] {
            return Err(violation(format!("PCPU {} is not available", a.pcpu)));
        }
        pcpu_taken[a.pcpu] = true;
    }
    Ok(())
}

/// Collects the indices of currently idle PCPUs.
#[must_use]
pub(crate) fn idle_pcpus(pcpus: &[PcpuView]) -> Vec<usize> {
    pcpus.iter().filter(|p| p.is_idle()).map(|p| p.id).collect()
}

/// Global VCPU indices grouped by VM, ordered by VM index, in a buffer a
/// gang policy owns and regroups on every call. Views need not list a
/// VM's VCPUs contiguously; within a VM, members keep view order.
#[derive(Debug, Clone, Default)]
pub(crate) struct VmGroups {
    /// `bounds[vm]..bounds[vm + 1]` is VM `vm`'s slice of `members`.
    bounds: Vec<usize>,
    members: Vec<usize>,
}

impl VmGroups {
    /// Regroups `vcpus` (a counting sort on `id.vm`). VMs up to the
    /// largest index present get a group, possibly empty.
    pub(crate) fn regroup(&mut self, vcpus: &[VcpuView]) {
        let num_vms = vcpus.iter().map(|v| v.id.vm + 1).max().unwrap_or(0);
        self.bounds.clear();
        self.bounds.resize(num_vms + 1, 0);
        for v in vcpus {
            self.bounds[v.id.vm] += 1;
        }
        let mut end = 0;
        for b in &mut self.bounds {
            end += *b;
            *b = end;
        }
        // Filling back to front turns each VM's end into its start.
        self.members.clear();
        self.members.resize(vcpus.len(), 0);
        for v in vcpus.iter().rev() {
            let slot = &mut self.bounds[v.id.vm];
            *slot -= 1;
            self.members[*slot] = v.id.global;
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// VM `vm`'s members.
    pub(crate) fn get(&self, vm: usize) -> &[usize] {
        &self.members[self.bounds[vm]..self.bounds[vm + 1]]
    }
}

/// The built-in algorithms, as data — convenient for experiment configs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Round-Robin Scheduling (the paper's RRS).
    RoundRobin,
    /// Strict Co-Scheduling (the paper's SCS).
    StrictCo,
    /// Relaxed Co-Scheduling (the paper's RCS).
    RelaxedCo {
        /// Skew at which a VM enters catch-up mode (leaders co-stopped,
        /// laggard fast-tracked).
        skew_threshold: u64,
        /// Skew below which the laggard is considered caught up.
        skew_resume: u64,
    },
    /// Balance scheduling (Sukwong & Kim) — spreads sibling VCPUs.
    Balance,
    /// Xen-like proportional-share credit scheduler.
    Credit {
        /// Credit refill period in ticks.
        refill_period: u64,
    },
    /// Xen's Simple Earliest Deadline First scheduler (the paper's
    /// reference \[8\]).
    Sedf {
        /// Reservation period in ticks.
        period: u64,
    },
    /// Borrowed Virtual Time (the paper's reference \[8\], via Duda &
    /// Cheriton).
    Bvt {
        /// Maximum wake-up lag in weighted virtual-time units.
        max_lag: u64,
    },
    /// First-come-first-served run queue.
    Fcfs,
    /// Fault-injection wrapper: behaves as `inner` until tick `at_tick`,
    /// then deliberately emits an invalid decision (a preemption of an
    /// out-of-range VCPU index), which both engines reject as a
    /// [`CoreError::PolicyViolation`] — the direct engine by erroring out,
    /// the SAN by halting into a dead marking. Not part of
    /// [`PolicyKind::all`]: it exists so planted-failure fixtures
    /// (`vsched verify --fixture deadlock`, reproducer round-trip tests)
    /// can be expressed in the ordinary case vocabulary.
    Fault {
        /// Tick at which the wrapper sabotages the decision.
        at_tick: u64,
        /// The policy emulated before the fault.
        inner: Box<PolicyKind>,
    },
}

impl PolicyKind {
    /// The paper's RCS with default thresholds (co-stop at a 5-tick lead,
    /// resume at 2 — divergence is corrected within a fraction of the
    /// default 30-tick timeslice, long before a round-robin rotation
    /// would).
    #[must_use]
    pub fn relaxed_co_default() -> Self {
        PolicyKind::RelaxedCo {
            skew_threshold: 5,
            skew_resume: 2,
        }
    }

    /// The credit scheduler with its default 30-tick refill period.
    #[must_use]
    pub fn credit_default() -> Self {
        PolicyKind::Credit { refill_period: 30 }
    }

    /// SEDF with its default 100-tick reservation period.
    #[must_use]
    pub fn sedf_default() -> Self {
        PolicyKind::Sedf { period: 100 }
    }

    /// BVT with its default wake-up lag of 3000 weighted units
    /// (≈ 3 ticks of a weight-1 VCPU).
    #[must_use]
    pub fn bvt_default() -> Self {
        PolicyKind::Bvt { max_lag: 3_000 }
    }

    /// The three algorithms evaluated by the paper, in figure order.
    #[must_use]
    pub fn paper_trio() -> Vec<PolicyKind> {
        vec![
            PolicyKind::RoundRobin,
            PolicyKind::StrictCo,
            PolicyKind::relaxed_co_default(),
        ]
    }

    /// The canonical registry: every built-in algorithm, with default
    /// parameters, in declaration order. This is the one list the fuzz
    /// case generator, `vsched lint`, `vsched policies`, and the policy
    /// tournament all draw from — a new variant added here is picked up
    /// by all of them at once.
    #[must_use]
    pub fn all() -> Vec<PolicyKind> {
        vec![
            PolicyKind::RoundRobin,
            PolicyKind::StrictCo,
            PolicyKind::relaxed_co_default(),
            PolicyKind::Balance,
            PolicyKind::credit_default(),
            PolicyKind::sedf_default(),
            PolicyKind::bvt_default(),
            PolicyKind::Fcfs,
        ]
    }

    /// Instantiates a fresh policy object.
    #[must_use]
    pub fn create(&self) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::RoundRobin => Box::new(RoundRobin::new()),
            PolicyKind::StrictCo => Box::new(StrictCo::new()),
            PolicyKind::RelaxedCo {
                skew_threshold,
                skew_resume,
            } => Box::new(RelaxedCo::new(*skew_threshold, *skew_resume)),
            PolicyKind::Balance => Box::new(Balance::new()),
            PolicyKind::Credit { refill_period } => Box::new(Credit::new(*refill_period)),
            PolicyKind::Sedf { period } => Box::new(Sedf::new(*period)),
            PolicyKind::Bvt { max_lag } => Box::new(Bvt::new(*max_lag)),
            PolicyKind::Fcfs => Box::new(Fcfs::new()),
            PolicyKind::Fault { at_tick, inner } => {
                Box::new(FaultInjection::new(*at_tick, inner.create()))
            }
        }
    }

    /// Validates the kind's parameters — the static range contract every
    /// config loader runs before [`PolicyKind::create`] (whose constructors
    /// may otherwise panic, e.g. [`RelaxedCo::new`] asserts its thresholds).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the offending parameter:
    ///
    /// * RCS: `skew_threshold` must be ≥ 1 and `skew_resume` ≤
    ///   `skew_threshold`;
    /// * Credit: `refill_period` must be ≥ 1;
    /// * SEDF: `period` must be ≥ 1.
    pub fn validate(&self) -> Result<(), CoreError> {
        let invalid = |reason: String| Err(CoreError::InvalidConfig { reason });
        match self {
            PolicyKind::RelaxedCo {
                skew_threshold,
                skew_resume,
            } => {
                if *skew_threshold == 0 {
                    return invalid("RCS skew_threshold must be at least 1".into());
                }
                if skew_resume > skew_threshold {
                    return invalid(format!(
                        "RCS skew_resume ({skew_resume}) must not exceed \
                         skew_threshold ({skew_threshold})"
                    ));
                }
                Ok(())
            }
            PolicyKind::Credit { refill_period } if *refill_period == 0 => {
                invalid("credit refill_period must be at least 1".into())
            }
            PolicyKind::Sedf { period } if *period == 0 => {
                invalid("SEDF period must be at least 1".into())
            }
            PolicyKind::Fault { inner, .. } => {
                if matches!(**inner, PolicyKind::Fault { .. }) {
                    return invalid("fault-injection wrappers must not nest".into());
                }
                inner.validate()
            }
            _ => Ok(()),
        }
    }

    /// Short label used in tables (RRS / SCS / RCS / BAL / CRD / FCFS).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "RRS",
            PolicyKind::StrictCo => "SCS",
            PolicyKind::RelaxedCo { .. } => "RCS",
            PolicyKind::Balance => "BAL",
            PolicyKind::Credit { .. } => "CRD",
            PolicyKind::Sedf { .. } => "SEDF",
            PolicyKind::Bvt { .. } => "BVT",
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::Fault { .. } => "FAULT",
        }
    }

    /// One-line description for registry listings (`vsched policies`).
    #[must_use]
    pub fn describe(&self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => {
                "round-robin over ready VCPUs, oldest-waiting first (paper baseline)"
            }
            PolicyKind::StrictCo => {
                "strict co-scheduling: a VM runs only when all siblings can run together"
            }
            PolicyKind::RelaxedCo { .. } => {
                "relaxed co-scheduling: siblings run independently until skew exceeds a threshold"
            }
            PolicyKind::Balance => {
                "balance scheduling: spreads sibling VCPUs across distinct PCPUs"
            }
            PolicyKind::Credit { .. } => {
                "Xen-like proportional-share credit scheduler with periodic refill"
            }
            PolicyKind::Sedf { .. } => {
                "simple earliest-deadline-first with per-VM reservation periods"
            }
            PolicyKind::Bvt { .. } => {
                "borrowed virtual time: weighted fair queueing with bounded wake-up lag"
            }
            PolicyKind::Fcfs => "first-come-first-served run queue, no rotation",
            PolicyKind::Fault { .. } => {
                "fault-injection wrapper: inner policy until a chosen tick, then an invalid decision"
            }
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared fixtures for policy unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use crate::types::{PcpuView, VcpuId, VcpuStatus, VcpuView};

    /// Builds all-INACTIVE VCPU views for VMs of the given sizes.
    pub(crate) fn vcpus_with_vms(sizes: &[usize]) -> Vec<VcpuView> {
        let mut views = Vec::new();
        for (vm, &n) in sizes.iter().enumerate() {
            for sibling in 0..n {
                views.push(VcpuView {
                    id: VcpuId {
                        vm,
                        sibling,
                        global: views.len(),
                    },
                    status: VcpuStatus::Inactive,
                    remaining_load: 0,
                    sync_point: false,
                    assigned_pcpu: None,
                    timeslice_remaining: 0,
                    last_scheduled_in: None,
                    vm_weight: 1,
                    present: true,
                });
            }
        }
        views
    }

    /// `n` single-VCPU VMs, all INACTIVE.
    pub(crate) fn vcpus_inactive(n: usize) -> Vec<VcpuView> {
        vcpus_with_vms(&vec![1; n])
    }

    /// Marks VCPU `v` as running on PCPU `pcpu`.
    pub(crate) fn activate(vcpus: &mut [VcpuView], v: usize, pcpu: usize) {
        vcpus[v].status = VcpuStatus::Busy;
        vcpus[v].assigned_pcpu = Some(pcpu);
        vcpus[v].timeslice_remaining = 5;
    }

    /// Marks VCPU `v` as scheduled out.
    pub(crate) fn deactivate(vcpus: &mut [VcpuView], v: usize) {
        vcpus[v].status = VcpuStatus::Inactive;
        vcpus[v].assigned_pcpu = None;
        vcpus[v].timeslice_remaining = 0;
    }

    /// Derives `n` PCPU views consistent with the VCPUs' `assigned_pcpu`.
    pub(crate) fn pcpus_for(n: usize, vcpus: &[VcpuView]) -> Vec<PcpuView> {
        (0..n)
            .map(|id| PcpuView {
                id,
                assigned: vcpus
                    .iter()
                    .find(|v| v.assigned_pcpu == Some(id))
                    .map(|v| v.id),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{VcpuId, VcpuStatus};

    fn vcpu(global: usize, status: VcpuStatus, pcpu: Option<usize>) -> VcpuView {
        VcpuView {
            id: VcpuId {
                vm: 0,
                sibling: global,
                global,
            },
            status,
            remaining_load: 0,
            sync_point: false,
            assigned_pcpu: pcpu,
            timeslice_remaining: if pcpu.is_some() { 5 } else { 0 },
            last_scheduled_in: None,
            vm_weight: 1,
            present: true,
        }
    }

    fn pcpu(id: usize, assigned: Option<usize>) -> PcpuView {
        PcpuView {
            id,
            assigned: assigned.map(|g| VcpuId {
                vm: 0,
                sibling: g,
                global: g,
            }),
        }
    }

    #[test]
    fn valid_assignment_passes() {
        let vcpus = [vcpu(0, VcpuStatus::Inactive, None)];
        let pcpus = [pcpu(0, None)];
        let mut d = ScheduleDecision::none();
        d.assign(0, 0, 10);
        validate_decision("t", &vcpus, &pcpus, &d).unwrap();
    }

    #[test]
    fn preempt_then_reuse_pcpu_passes() {
        let vcpus = [
            vcpu(0, VcpuStatus::Ready, Some(0)),
            vcpu(1, VcpuStatus::Inactive, None),
        ];
        let pcpus = [pcpu(0, Some(0))];
        let mut d = ScheduleDecision::none();
        d.preempt(0);
        d.assign(1, 0, 10);
        validate_decision("t", &vcpus, &pcpus, &d).unwrap();
    }

    #[test]
    fn rejects_double_pcpu_use() {
        let vcpus = [
            vcpu(0, VcpuStatus::Inactive, None),
            vcpu(1, VcpuStatus::Inactive, None),
        ];
        let pcpus = [pcpu(0, None)];
        let mut d = ScheduleDecision::none();
        d.assign(0, 0, 10);
        d.assign(1, 0, 10);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());
    }

    #[test]
    fn rejects_busy_pcpu() {
        let vcpus = [
            vcpu(0, VcpuStatus::Busy, Some(0)),
            vcpu(1, VcpuStatus::Inactive, None),
        ];
        let pcpus = [pcpu(0, Some(0))];
        let mut d = ScheduleDecision::none();
        d.assign(1, 0, 10);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());
    }

    #[test]
    fn rejects_assigning_active_vcpu() {
        let vcpus = [vcpu(0, VcpuStatus::Ready, Some(0))];
        let pcpus = [pcpu(0, Some(0)), pcpu(1, None)];
        let mut d = ScheduleDecision::none();
        d.assign(0, 1, 10);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());
    }

    #[test]
    fn rejects_preempting_inactive_vcpu() {
        let vcpus = [vcpu(0, VcpuStatus::Inactive, None)];
        let pcpus = [pcpu(0, None)];
        let mut d = ScheduleDecision::none();
        d.preempt(0);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());
    }

    #[test]
    fn rejects_zero_timeslice_and_unknown_indices() {
        let vcpus = [vcpu(0, VcpuStatus::Inactive, None)];
        let pcpus = [pcpu(0, None)];
        let mut d = ScheduleDecision::none();
        d.assign(0, 0, 0);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());

        let mut d = ScheduleDecision::none();
        d.assign(5, 0, 10);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());

        let mut d = ScheduleDecision::none();
        d.assign(0, 5, 10);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());

        let mut d = ScheduleDecision::none();
        d.preempt(5);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());
    }

    #[test]
    fn rejects_assign_and_preempt_same_vcpu() {
        let vcpus = [vcpu(0, VcpuStatus::Ready, Some(0))];
        let pcpus = [pcpu(0, Some(0))];
        let mut d = ScheduleDecision::none();
        d.preempt(0);
        d.assign(0, 0, 10);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());
    }

    #[test]
    fn rejects_double_preempt_and_double_assign() {
        let vcpus = [
            vcpu(0, VcpuStatus::Ready, Some(0)),
            vcpu(1, VcpuStatus::Inactive, None),
        ];
        let pcpus = [pcpu(0, Some(0)), pcpu(1, None)];
        let mut d = ScheduleDecision::none();
        d.preempt(0);
        d.preempt(0);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());

        let mut d = ScheduleDecision::none();
        d.assign(1, 0, 10);
        d.assign(1, 1, 10);
        assert!(validate_decision("t", &vcpus, &pcpus, &d).is_err());
    }

    #[test]
    fn policy_kind_factory_and_labels() {
        for kind in PolicyKind::all() {
            let policy = kind.create();
            assert!(!policy.name().is_empty());
            assert!(!kind.label().is_empty());
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(PolicyKind::paper_trio().len(), 3);
    }

    #[test]
    fn registry_is_canonical() {
        let all = PolicyKind::all();
        assert_eq!(all.len(), 8, "every built-in kind appears once");
        // Labels are pairwise distinct — the registry doubles as a lookup
        // table for `vsched policies` and the tournament.
        let labels: std::collections::HashSet<_> = all.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), all.len());
        // Default parameters all validate and instantiate.
        for kind in &all {
            kind.validate().unwrap();
        }
        // The paper trio is a prefix-preserving subset of the registry.
        for kind in PolicyKind::paper_trio() {
            assert!(all.contains(&kind));
        }
    }

    #[test]
    fn idle_pcpu_helper() {
        let pcpus = [pcpu(0, Some(1)), pcpu(1, None), pcpu(2, None)];
        assert_eq!(idle_pcpus(&pcpus), vec![1, 2]);
    }

    #[test]
    fn vm_groups_regroup_by_vm_in_view_order() {
        let mut groups = VmGroups::default();
        assert_eq!(groups.len(), 0);
        // VM 0's VCPUs are split around the others'; VM 2 has none.
        let mut views = tests_support::vcpus_with_vms(&[2, 1, 0, 2]);
        views.rotate_left(1);
        groups.regroup(&views);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.get(0), &[1, 0]);
        assert_eq!(groups.get(1), &[2]);
        assert_eq!(groups.get(2), &[] as &[usize]);
        assert_eq!(groups.get(3), &[3, 4]);
        // A smaller view leaves nothing of the larger one behind.
        groups.regroup(&tests_support::vcpus_with_vms(&[1]));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups.get(0), &[0]);
        groups.regroup(&[]);
        assert_eq!(groups.len(), 0);
    }

    /// RCS and SCS keep per-call scratch buffers (gangs, idle PCPUs,
    /// candidates) across calls. Whatever the previous call left in them,
    /// a reused instance must decide exactly as a fresh instance loaded
    /// with the same policy state — on views whose shape changes every
    /// call.
    #[test]
    fn gang_policy_scratch_never_leaks_between_calls() {
        use tests_support::{activate, pcpus_for, vcpus_with_vms};
        let shapes: [&[usize]; 4] = [&[2, 1, 1], &[4], &[1, 1, 1, 1, 1], &[2, 1, 1]];
        let makers: [fn() -> Box<dyn SchedulingPolicy>; 2] = [
            || Box::new(RelaxedCo::new(3, 1)),
            || Box::new(StrictCo::new()),
        ];
        for make in makers {
            let mut reused = make();
            for t in 0..16 {
                let sizes = shapes[t % shapes.len()];
                let mut vcpus = vcpus_with_vms(sizes);
                // The first VCPU always runs, so RCS skew builds up and
                // co-stops it; a second one rotates through the rest.
                let n = vcpus.len();
                activate(&mut vcpus, 0, 0);
                if t % 3 != 0 {
                    activate(&mut vcpus, 1 + t % (n - 1), 1);
                }
                let pcpus = pcpus_for(4, &vcpus);
                let mut fresh = make();
                assert!(fresh.load_state(&reused.save_state().expect("stateful")));
                let now = t as u64;
                let expected = fresh.schedule(&vcpus, &pcpus, now, 10);
                let actual = reused.schedule(&vcpus, &pcpus, now, 10);
                validate_decision(reused.name(), &vcpus, &pcpus, &actual).unwrap();
                assert_eq!(actual, expected, "{} call {t} on {sizes:?}", reused.name());
            }
        }
    }
}
