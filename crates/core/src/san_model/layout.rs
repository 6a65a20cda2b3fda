//! Place layout of the virtualization SAN: how the paper's extended places
//! map onto marking state, plus view construction and decision application.

use vsched_san::{Marking, PlaceId};

use crate::config::SystemConfig;
use crate::sched::ScheduleDecision;
use crate::types::{PcpuView, VcpuStatus, VcpuView};
use crate::util::refill;

/// Field places of one VCPU — the paper's `VCPU_slot` extended place
/// (`remaining_load`, `sync_point`, `status`) plus the scheduler-side
/// `VCPU` place fields (`Timeslice`, `Last_Scheduled_In`) and the
/// `Schedule_In`/`Schedule_Out` linkage, which in the flattened composed
/// model becomes a direct `pcpu` assignment field.
#[derive(Debug, Clone, Copy)]
pub struct VcpuPlaces {
    /// 0 = INACTIVE, 1 = READY, 2 = BUSY.
    pub status: PlaceId,
    /// Ticks of work left in the current job.
    pub remaining_load: PlaceId,
    /// 1 when the current job is a synchronization point.
    pub sync_point: PlaceId,
    /// Ticks left in the current timeslice.
    pub timeslice: PlaceId,
    /// Tick of the last schedule-in **plus one** (0 = never).
    pub last_in: PlaceId,
    /// Assigned PCPU index **plus one** (0 = none).
    pub pcpu: PlaceId,
    /// Per-VCPU clock-tick token driving `Processing_load`.
    pub tick: PlaceId,
    /// 1 while the VCPU is spinning on a held lock (spinlock extension).
    pub spinning: PlaceId,
}

/// Join places of one VM (the paper's Table 1): `Blocked`,
/// `Num_VCPUs_ready`, and the `Workload` buffer, plus the per-tick dispatch
/// window token.
#[derive(Debug, Clone, Copy)]
pub struct VmPlaces {
    /// 1 while a synchronization point blocks the VM.
    pub blocked: PlaceId,
    /// Number of READY VCPUs (the paper's `Num_VCPUs_ready`).
    pub ready_count: PlaceId,
    /// Generated-but-undispatched workloads.
    pub wl_pending: PlaceId,
    /// `load` field of the buffered workload (saturated mode).
    pub wl_load: PlaceId,
    /// `sync_point` field of the buffered workload (saturated mode).
    pub wl_sync: PlaceId,
    /// Per-tick token bounding dispatch to the tick instant.
    pub window: PlaceId,
    /// Per-VM clock-tick token driving the barrier (`Unblock`) check.
    pub tick_unblock: PlaceId,
    /// Holder of the VM spinlock: VCPU global id **plus one** (0 = free;
    /// spinlock extension).
    pub lock_holder: PlaceId,
    /// Workloads generated so far (drives the deterministic sync pattern).
    pub generated: PlaceId,
}

/// Per-VM membership places of a *dynamic* model (trace frontend). These
/// are appended after every static place, so a dynamic model's static
/// place ids are identical to the equivalent static model's.
#[derive(Debug, Clone, Copy)]
pub struct DynVmPlaces {
    /// 1 while the VM is admitted (present); 0 after retirement.
    pub admitted: PlaceId,
    /// Workload-generation level in per-mille (1000 = full rate).
    pub load_level: PlaceId,
}

/// Complete place layout of the composed virtualization model.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Per-VCPU places, indexed by global VCPU id.
    pub vcpus: Vec<VcpuPlaces>,
    /// Per-PCPU `assigned` places: VCPU global id **plus one** (0 = IDLE).
    pub pcpus: Vec<PlaceId>,
    /// Per-VM join places.
    pub vms: Vec<VmPlaces>,
    /// The hypervisor clock (tick counter).
    pub clock: PlaceId,
    /// Set to 1 to halt the model (policy violation detected).
    pub halt: PlaceId,
    /// Clock-tick token for the timeslice bookkeeping activity.
    pub tick_expire: PlaceId,
    /// Clock-tick token for the scheduling-function activity.
    pub tick_sched: PlaceId,
    /// Per-VM membership places (`Some` only for dynamic models).
    pub dyn_vms: Option<Vec<DynVmPlaces>>,
    /// VM index of each global VCPU id.
    vm_of_table: Vec<usize>,
}

impl Layout {
    /// Builds the [`VcpuView`] array a policy receives, from a marking.
    #[must_use]
    pub fn vcpu_views(&self, marking: &Marking, config: &SystemConfig) -> Vec<VcpuView> {
        let mut views = Vec::new();
        self.vcpu_views_into(marking, config, &mut views);
        views
    }

    /// [`Layout::vcpu_views`] into `out`, reusing its capacity.
    pub fn vcpu_views_into(
        &self,
        marking: &Marking,
        config: &SystemConfig,
        out: &mut Vec<VcpuView>,
    ) {
        refill(
            out,
            self.vcpus.iter().zip(config.vcpu_ids()).map(|(p, &id)| {
                let pcpu = marking.tokens(p.pcpu);
                let last_in = marking.tokens(p.last_in);
                VcpuView {
                    id,
                    status: VcpuStatus::from_token(marking.tokens(p.status)),
                    remaining_load: marking.tokens(p.remaining_load) as u64,
                    sync_point: marking.tokens(p.sync_point) != 0,
                    assigned_pcpu: (pcpu > 0).then(|| (pcpu - 1) as usize),
                    timeslice_remaining: marking.tokens(p.timeslice) as u64,
                    last_scheduled_in: (last_in > 0).then(|| (last_in - 1) as u64),
                    vm_weight: config.vms()[id.vm].weight,
                    present: self.vm_admitted(marking, id.vm),
                }
            }),
        );
    }

    /// Whether VM `vm` is admitted in `marking`. Static models are always
    /// fully admitted.
    #[must_use]
    pub fn vm_admitted(&self, marking: &Marking, vm: usize) -> bool {
        match &self.dyn_vms {
            None => true,
            Some(d) => marking.tokens(d[vm].admitted) == 1,
        }
    }

    /// VM `vm`'s workload-generation level in per-mille. Static models are
    /// always at full level (1000).
    #[must_use]
    pub fn vm_load_level(&self, marking: &Marking, vm: usize) -> u32 {
        match &self.dyn_vms {
            None => crate::util::FULL_LEVEL,
            Some(d) => marking.tokens(d[vm].load_level) as u32,
        }
    }

    /// Retires VM `vm` in `marking`: every member VCPU is scheduled out
    /// with its job state erased, the VM's join places are cleared, and
    /// the `admitted` token drops to 0 so the generators stay disabled and
    /// policies see `present = false`. `Last_Scheduled_In` and `generated`
    /// are deliberately kept — the direct engine keeps the same history
    /// across a retire/re-admit cycle.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not dynamic.
    pub fn retire_vm(&self, marking: &mut Marking, vm: usize) {
        let d = self.dyn_vms.as_ref().expect("retire_vm on a static model")[vm];
        for g in 0..self.vcpus.len() {
            if self.vm_of(g) != vm {
                continue;
            }
            self.schedule_out(marking, g);
            let v = &self.vcpus[g];
            marking.set(v.remaining_load, 0);
            marking.set(v.sync_point, 0);
            marking.set(v.spinning, 0);
        }
        let p = &self.vms[vm];
        marking.set(p.blocked, 0);
        marking.set(p.ready_count, 0);
        marking.set(p.wl_pending, 0);
        marking.set(p.wl_load, 0);
        marking.set(p.wl_sync, 0);
        marking.set(p.lock_holder, 0);
        marking.set(d.admitted, 0);
    }

    /// Builds the [`PcpuView`] array from a marking.
    #[must_use]
    pub fn pcpu_views(&self, marking: &Marking, config: &SystemConfig) -> Vec<PcpuView> {
        let mut views = Vec::new();
        self.pcpu_views_into(marking, config, &mut views);
        views
    }

    /// [`Layout::pcpu_views`] into `out`, reusing its capacity.
    pub fn pcpu_views_into(
        &self,
        marking: &Marking,
        config: &SystemConfig,
        out: &mut Vec<PcpuView>,
    ) {
        refill(
            out,
            self.pcpus.iter().enumerate().map(|(id, &place)| {
                let v = marking.tokens(place);
                PcpuView {
                    id,
                    assigned: (v > 0).then(|| config.vcpu_ids()[(v - 1) as usize]),
                }
            }),
        );
    }

    /// Schedules VCPU `g` out: INACTIVE, PCPU freed, ready count adjusted.
    pub fn schedule_out(&self, marking: &mut Marking, g: usize) {
        let v = &self.vcpus[g];
        let pcpu = marking.tokens(v.pcpu);
        if pcpu > 0 {
            marking.set(self.pcpus[(pcpu - 1) as usize], 0);
            marking.set(v.pcpu, 0);
        }
        if marking.tokens(v.status) == VcpuStatus::Ready.to_token() {
            let vm = self.vm_of(g);
            marking.add(self.vms[vm].ready_count, -1);
        }
        marking.set(v.status, VcpuStatus::Inactive.to_token());
        marking.set(v.timeslice, 0);
        // `spinning` is deliberately left alone: if the VCPU spun in this
        // tick's processing phase it burned its PCPU for the whole tick,
        // and the spin rate reward samples the end-of-tick marking —
        // clearing the flag here would erase the spin tick whenever the
        // spinner expires or is preempted in the same tick (the direct
        // engine counts that tick). `Processing_load` resets the flag at
        // the next tick for any non-BUSY VCPU, so it cannot go stale.
    }

    /// Applies a validated [`ScheduleDecision`] at tick `now`.
    pub fn apply_decision(&self, marking: &mut Marking, decision: &ScheduleDecision, now: i64) {
        for &g in &decision.preemptions {
            self.schedule_out(marking, g);
        }
        for a in &decision.assignments {
            let v = &self.vcpus[a.vcpu];
            marking.set(v.pcpu, a.pcpu as i64 + 1);
            marking.set(self.pcpus[a.pcpu], a.vcpu as i64 + 1);
            marking.set(v.timeslice, a.timeslice as i64);
            marking.set(v.last_in, now + 1);
            let status = if marking.tokens(v.remaining_load) > 0 {
                VcpuStatus::Busy
            } else {
                let vm = self.vm_of(a.vcpu);
                marking.add(self.vms[vm].ready_count, 1);
                VcpuStatus::Ready
            };
            marking.set(v.status, status.to_token());
        }
    }

    /// VM index of VCPU `g` (derived from the layout ordering).
    #[must_use]
    pub fn vm_of(&self, g: usize) -> usize {
        self.vm_of_table[g]
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        vcpus: Vec<VcpuPlaces>,
        pcpus: Vec<PlaceId>,
        vms: Vec<VmPlaces>,
        clock: PlaceId,
        halt: PlaceId,
        tick_expire: PlaceId,
        tick_sched: PlaceId,
        dyn_vms: Option<Vec<DynVmPlaces>>,
        vm_of_table: Vec<usize>,
    ) -> Self {
        Layout {
            vcpus,
            pcpus,
            vms,
            clock,
            halt,
            tick_expire,
            tick_sched,
            dyn_vms,
            vm_of_table,
        }
    }
}
