//! Compiles a [`SystemConfig`] + policy into a SAN model.
//!
//! The composed model mirrors the paper's structure:
//!
//! * **Figure 5 (Workload Generator)** → per-VM `WL_Generate` activity with
//!   the `WL_Output` gate sampling `load` and `sync_point` into the
//!   `Workload` buffer; enabled only when a VCPU is READY and the VM is
//!   not `Blocked`.
//! * **Figure 3 (Job Scheduler)** → per-VM `Scheduling` activity whose
//!   input conditions are the paper's "(i) there is a pending workload and
//!   (ii) there is at least one READY VCPU"; its gate moves the workload
//!   fields into the chosen `VCPU_slot`.
//! * **Figure 4 (VCPU)** → per-VCPU `Processing_load` activity decrementing
//!   `remaining_load` on each Clock tick; completion flips the status to
//!   READY and increments `Num_VCPUs_ready`.
//! * **Figure 6 (VCPU Scheduler)** → the `Clock` timed activity (period 1),
//!   the `Timeslice` bookkeeping activity, and the `Scheduling_Func` gate
//!   that calls the user-defined policy over the full VCPU/PCPU state —
//!   the paper's C-function interface, as a Rust closure.
//! * **Figure 7 / Tables 1–2 (composition)** → all of the above are built
//!   into one flattened model whose shared places (`Blocked`,
//!   `Num_VCPUs_ready`, `VCPUx_slot`, `Schedule_In/Out` ≙ the `pcpu`
//!   assignment fields) are the join places.
//!
//! Intra-tick ordering is enforced by instantaneous-activity priorities:
//! `Processing_load` (50) → `Unblock` (40) → `Timeslice` (30) →
//! `Scheduling_Func` (20) → `WL_Generate` (12) → `Scheduling` (10) →
//! `End_Tick` (1).

use std::cell::RefCell;
use std::rc::Rc;

use vsched_des::Dist;
use vsched_san::{ModelBuilder, PlaceId, SanError};

use crate::config::{SyncMechanism, SystemConfig};
use crate::error::CoreError;
use crate::san_model::layout::{DynVmPlaces, Layout, VcpuPlaces, VmPlaces};
use crate::san_model::AnalysisModel;
use crate::sched::{validate_decision, SchedulingPolicy};
use crate::types::VcpuStatus;
use crate::util::{duty_allows, sample_ticks, FULL_LEVEL};

/// Intra-tick phase priorities (higher completes first).
pub(crate) mod priority {
    /// `Processing_load` — BUSY VCPUs advance their jobs.
    pub const PROCESS: i32 = 50;
    /// `Unblock` — barriers whose jobs completed clear.
    pub const UNBLOCK: i32 = 40;
    /// `Timeslice` — slice bookkeeping and expiry.
    pub const EXPIRE: i32 = 30;
    /// `Scheduling_Func` — the pluggable policy runs.
    pub const SCHED: i32 = 20;
    /// `WL_Generate` — workload generation into the buffer.
    pub const GENERATE: i32 = 12;
    /// `Scheduling` (job scheduler) — dispatch to READY VCPUs.
    pub const DISPATCH: i32 = 10;
    /// `End_Tick` — the dispatch window closes.
    pub const END_TICK: i32 = 1;
}

/// Error slot shared between the `Scheduling_Func` gate and [`super::SanSystem`].
pub(crate) type ErrorCell = Rc<RefCell<Option<CoreError>>>;

/// Builds the flattened composed model, with its place layout, the shared
/// error cell for policy violations, and the policy the
/// `Scheduling_Func` gate shares with the caller.
///
/// With `dynamic` set the model additionally carries per-VM `admitted`
/// (init 1) and `load_level` (init 1000, per-mille) places — appended
/// *after* every static place so static place ids are unchanged — and the
/// workload generators are gated/scaled by them. At the identity marking
/// (all admitted, full level) the dynamic model is bit-identical to the
/// static one: the extra guard terms are tautologies, the rate multiplier
/// is exactly 1.0, and no activity indices or RNG stream assignments move.
pub(crate) fn build_model(
    config: &SystemConfig,
    policy: Box<dyn SchedulingPolicy>,
    dynamic: bool,
) -> Result<AnalysisModel, SanError> {
    let mut mb = ModelBuilder::new();

    // ----- Places ---------------------------------------------------------
    let clock = mb.place("clock", 0)?;
    let halt = mb.place("halt", 0)?;
    let tick_expire = mb.place("tick_expire", 0)?;
    let tick_sched = mb.place("tick_sched", 0)?;

    let mut vcpu_places = Vec::new();
    let mut vm_places = Vec::new();
    let mut vm_of_table = Vec::new();
    for (k, vm) in config.vms().iter().enumerate() {
        let places = mb.scope(&format!("vm{k}"), |mb| {
            Ok(VmPlaces {
                blocked: mb.place("Blocked", 0)?,
                ready_count: mb.place("Num_VCPUs_ready", 0)?,
                wl_pending: mb.place("Workload.pending", 0)?,
                wl_load: mb.place("Workload.load", 0)?,
                wl_sync: mb.place("Workload.sync_point", 0)?,
                window: mb.place("window", 0)?,
                tick_unblock: mb.place("tick_unblock", 0)?,
                lock_holder: mb.place("lock_holder", 0)?,
                generated: mb.place("generated", 0)?,
            })
        })?;
        vm_places.push(places);
        for j in 0..vm.vcpus {
            let vp = mb.scope(&format!("vm{k}"), |mb| {
                mb.scope(&format!("vcpu{j}"), |mb| {
                    Ok(VcpuPlaces {
                        status: mb.place("slot.status", 0)?,
                        remaining_load: mb.place("slot.remaining_load", 0)?,
                        sync_point: mb.place("slot.sync_point", 0)?,
                        timeslice: mb.place("Timeslice", 0)?,
                        last_in: mb.place("Last_Scheduled_In", 0)?,
                        pcpu: mb.place("Schedule_In", 0)?,
                        tick: mb.place("tick", 0)?,
                        spinning: mb.place("spinning", 0)?,
                    })
                })
            })?;
            vcpu_places.push(vp);
            vm_of_table.push(k);
        }
    }
    let pcpu_places: Vec<PlaceId> = (0..config.pcpus())
        .map(|p| mb.place(&format!("pcpu{p}.assigned"), 0))
        .collect::<Result<_, _>>()?;

    // Membership places come last so every static place id is unchanged.
    let dyn_vms: Option<Vec<DynVmPlaces>> = if dynamic {
        let mut d = Vec::with_capacity(config.vms().len());
        for k in 0..config.vms().len() {
            d.push(DynVmPlaces {
                admitted: mb.place(&format!("vm{k}.admitted"), 1)?,
                load_level: mb.place(&format!("vm{k}.load_level"), i64::from(FULL_LEVEL))?,
            });
        }
        Some(d)
    } else {
        None
    };

    let layout = Layout::new(
        vcpu_places,
        pcpu_places,
        vm_places,
        clock,
        halt,
        tick_expire,
        tick_sched,
        dyn_vms,
        vm_of_table,
    );

    // ----- Clock (Figure 6): period-1 timed activity ----------------------
    {
        let mut clock_act = mb
            .activity("Clock")?
            .timed(Dist::Deterministic { value: 1.0 })
            .guard("not_halted", move |m| m.tokens(halt) == 0)
            .reads([halt])
            .output_arc(clock, 1)
            .output_arc(tick_expire, 1)
            .output_arc(tick_sched, 1);
        for v in &layout.vcpus {
            clock_act = clock_act.output_arc(v.tick, 1);
        }
        for vm in &layout.vms {
            clock_act = clock_act
                .output_arc(vm.tick_unblock, 1)
                .output_arc(vm.window, 1);
        }
        clock_act.done()?;
    }

    // ----- Processing_load (Figure 4), one per VCPU ------------------------
    //
    // Per-VCPU instantaneous activities at equal priority complete in
    // activity-declaration (= global VCPU index) order, so spinlock
    // hand-off within a tick is index-ordered — identical to the direct
    // engine's phase-1 loop.
    for (g, v) in layout.vcpus.iter().copied().enumerate() {
        let vm = layout.vms[layout.vm_of(g)];
        let mechanism = config.vms()[layout.vm_of(g)].workload.sync_mechanism;
        mb.scope(&format!("vm{}", layout.vm_of(g)), |mb| {
            mb.scope(&format!("vcpu{}", config.vcpu_ids()[g].sibling), |mb| {
                mb.activity("Processing_load")?
                    .instantaneous(priority::PROCESS)
                    .input_arc(v.tick, 1)
                    .output_gate("process", move |m, _| {
                        if m.tokens(v.status) != VcpuStatus::Busy.to_token() {
                            m.set(v.spinning, 0);
                            return;
                        }
                        // Spinlock extension: a critical-section job must
                        // hold the VM lock to make progress.
                        if mechanism == SyncMechanism::SpinLock && m.tokens(v.sync_point) == 1 {
                            let me = g as i64 + 1;
                            let holder = m.tokens(vm.lock_holder);
                            if holder == 0 {
                                m.set(vm.lock_holder, me); // acquire
                            } else if holder != me {
                                m.set(v.spinning, 1); // spin, no progress
                                return;
                            }
                        }
                        m.set(v.spinning, 0);
                        m.add(v.remaining_load, -1);
                        if m.tokens(v.remaining_load) == 0 {
                            if mechanism == SyncMechanism::SpinLock
                                && m.tokens(v.sync_point) == 1
                                && m.tokens(vm.lock_holder) == g as i64 + 1
                            {
                                m.set(vm.lock_holder, 0); // release
                            }
                            m.set(v.status, VcpuStatus::Ready.to_token());
                            m.set(v.sync_point, 0);
                            m.add(vm.ready_count, 1);
                        }
                    })
                    .reads([v.status, v.sync_point, v.remaining_load, vm.lock_holder])
                    .writes([
                        v.spinning,
                        v.remaining_load,
                        v.status,
                        v.sync_point,
                        vm.lock_holder,
                        vm.ready_count,
                    ])
                    .done()
            })
        })?;
    }

    // ----- Unblock (barrier clearing), one per VM --------------------------
    for (k, vm) in layout.vms.iter().copied().enumerate() {
        let members = layout.vcpus[config.vm_vcpus(k)].to_vec();
        let clear_reads: Vec<PlaceId> = std::iter::once(vm.blocked)
            .chain(members.iter().map(|v| v.remaining_load))
            .collect();
        mb.scope(&format!("vm{k}"), |mb| {
            mb.activity("Unblock")?
                .instantaneous(priority::UNBLOCK)
                .input_arc(vm.tick_unblock, 1)
                .output_gate("clear_barrier", move |m, _| {
                    if m.tokens(vm.blocked) == 1
                        && members.iter().all(|v| m.tokens(v.remaining_load) == 0)
                    {
                        m.set(vm.blocked, 0);
                    }
                })
                .reads(clear_reads)
                .writes([vm.blocked])
                .done()
        })?;
    }

    // ----- Timeslice bookkeeping (Figure 6) --------------------------------
    {
        let l = layout.clone();
        mb.activity("Timeslice")?
            .instantaneous(priority::EXPIRE)
            .input_arc(tick_expire, 1)
            .output_gate("expire", move |m, _| {
                for (g, v) in l.vcpus.iter().enumerate() {
                    if VcpuStatus::from_token(m.tokens(v.status)).is_active() {
                        m.add(v.timeslice, -1);
                        if m.tokens(v.timeslice) == 0 {
                            l.schedule_out(m, g);
                        }
                    }
                }
            })
            .done()?;
    }

    // ----- Scheduling_Func (Figure 6): the pluggable policy ----------------
    let error_cell: ErrorCell = Rc::new(RefCell::new(None));
    let shared_policy = Rc::new(RefCell::new(policy));
    {
        let l = layout.clone();
        let cfg = config.clone();
        let cell = Rc::clone(&error_cell);
        // Gate closures are `Fn`; the stateful policy lives in a `RefCell`
        // (the gate never re-enters itself, so the borrow cannot clash).
        // The same `Rc` goes to the caller so the verifier can
        // snapshot/restore the policy between probe firings.
        let policy = Rc::clone(&shared_policy);
        mb.activity("Scheduling_Func")?
            .instantaneous(priority::SCHED)
            .input_arc(tick_sched, 1)
            .guard("not_halted", move |m| m.tokens(halt) == 0)
            .reads([halt])
            .output_gate("schedule", move |m, _| {
                let vcpus = l.vcpu_views(m, &cfg);
                let pcpus = l.pcpu_views(m, &cfg);
                let now = m.tokens(l.clock);
                let mut policy = policy.borrow_mut();
                let decision = policy.schedule(&vcpus, &pcpus, now as u64, cfg.timeslice());
                match validate_decision(policy.name(), &vcpus, &pcpus, &decision) {
                    Ok(()) => l.apply_decision(m, &decision, now),
                    Err(e) => {
                        *cell.borrow_mut() = Some(e);
                        m.set(l.halt, 1);
                    }
                }
            })
            .done()?;
    }

    // ----- Workload Generator (Figure 5) + Job Scheduler (Figure 3) -------
    for (k, vm) in layout.vms.iter().copied().enumerate() {
        let spec = config.vms()[k].workload.clone();
        let mechanism = spec.sync_mechanism;
        let dvm = layout.dyn_vms.as_ref().map(|d| d[k]);
        mb.scope(&format!("vm{k}"), |mb| {
            match spec.interarrival.clone() {
                None => {
                    // Saturated generator: a new workload materializes
                    // whenever the buffer is free, a VCPU is READY, and the
                    // VM is not blocked — the paper's Figure 5 conditions.
                    let load_dist = spec.load.clone();
                    let sync_p = spec.sync_probability;
                    let sync_every = spec.sync_every;
                    let mut gen = mb
                        .activity("WL_Generate")?
                        .instantaneous(priority::GENERATE)
                        .guard("can_generate", move |m| {
                            m.tokens(halt) == 0
                                && m.tokens(vm.wl_pending) == 0
                                && m.tokens(vm.blocked) == 0
                                && m.tokens(vm.ready_count) > 0
                                && m.tokens(vm.window) > 0
                        })
                        .reads([halt, vm.wl_pending, vm.blocked, vm.ready_count, vm.window]);
                    if let Some(d) = dvm {
                        // Trace frontend: generation is admission-gated and
                        // duty-cycled by the per-mille load level. At the
                        // identity marking (admitted, level 1000) this
                        // guard is a tautology for every tick >= 1 — the
                        // only ticks the window token permits — so the
                        // degenerate trace stays bit-identical to the
                        // static model.
                        gen = gen
                            .guard("trace_duty", move |m| {
                                m.tokens(d.admitted) == 1 && {
                                    let t = m.tokens(clock);
                                    t >= 1 && duty_allows(t as u64, m.tokens(d.load_level) as u32)
                                }
                            })
                            .reads([d.admitted, d.load_level, clock]);
                    }
                    gen.output_gate("WL_Output", move |m, rng| {
                        let load = sample_ticks(&load_dist, rng) as i64;
                        m.add(vm.generated, 1);
                        let sync = match sync_every {
                            Some(k) => i64::from(m.tokens(vm.generated) % i64::from(k) == 0),
                            None => i64::from(rng.next_bool(sync_p)),
                        };
                        m.set(vm.wl_load, load);
                        m.set(vm.wl_sync, sync);
                        m.set(vm.wl_pending, 1);
                    })
                    .reads([vm.generated])
                    .writes([vm.generated, vm.wl_load, vm.wl_sync, vm.wl_pending])
                    .done()?;
                }
                Some(inter) => {
                    // Rate-limited generator: arrivals accumulate in the
                    // buffer as a counter; fields are sampled at dispatch.
                    let mut gen = mb
                        .activity("WL_Generate")?
                        .timed(inter)
                        .guard("not_halted", move |m| m.tokens(halt) == 0)
                        .reads([halt]);
                    if let Some(d) = dvm {
                        // Trace frontend: interarrival times stretch by
                        // 1000/level. Level 0 drives the multiplier to 0,
                        // which *disables* the activity (the pending
                        // arrival aborts; resuming resamples anchored at
                        // the current instant). At level 1000 the
                        // multiplier is exactly 1.0 and `base / 1.0` is
                        // bit-exact, so the degenerate trace changes
                        // nothing.
                        gen = gen
                            .guard("admitted", move |m| m.tokens(d.admitted) == 1)
                            .reads([d.admitted])
                            .rate_multiplier(move |m| m.tokens(d.load_level) as f64 / 1000.0)
                            .reads([d.load_level]);
                    }
                    gen.output_arc(vm.wl_pending, 1).done()?;
                }
            }

            // Job Scheduler: dispatch one buffered workload to the lowest
            // READY sibling; fires repeatedly within the tick window until
            // the buffer or the READY set drains.
            let members = layout.vcpus[config.vm_vcpus(k)].to_vec();
            let members_gate = members.clone();
            let dispatch_reads: Vec<PlaceId> =
                [halt, vm.wl_pending, vm.blocked, vm.ready_count, vm.window]
                    .into_iter()
                    .chain(members.iter().map(|v| v.status))
                    .collect();
            let load_dist = spec.load.clone();
            let sync_p = spec.sync_probability;
            let sync_every = spec.sync_every;
            let sample_at_dispatch = spec.interarrival.is_some();
            // Declared for analysis: the `stale-write-set` lint checks
            // these against observed firings.
            let dispatch_gate_reads: Vec<PlaceId> = [vm.generated, vm.wl_load, vm.wl_sync]
                .into_iter()
                .chain(members.iter().map(|v| v.status))
                .collect();
            let dispatch_writes: Vec<PlaceId> =
                [vm.generated, vm.ready_count, vm.wl_pending, vm.blocked]
                    .into_iter()
                    .chain(
                        members
                            .iter()
                            .flat_map(|v| [v.remaining_load, v.sync_point, v.status]),
                    )
                    .collect();
            mb.activity("Scheduling")?
                .instantaneous(priority::DISPATCH)
                .guard("can_dispatch", move |m| {
                    m.tokens(halt) == 0
                        && m.tokens(vm.wl_pending) > 0
                        && m.tokens(vm.blocked) == 0
                        && m.tokens(vm.ready_count) > 0
                        && m.tokens(vm.window) > 0
                        && members_gate
                            .iter()
                            .any(|v| m.tokens(v.status) == VcpuStatus::Ready.to_token())
                })
                .reads(dispatch_reads)
                .output_gate("dispatch", move |m, rng| {
                    let Some(v) = members
                        .iter()
                        .find(|v| m.tokens(v.status) == VcpuStatus::Ready.to_token())
                    else {
                        return;
                    };
                    let (load, sync) = if sample_at_dispatch {
                        m.add(vm.generated, 1);
                        let sync = match sync_every {
                            Some(k) => i64::from(m.tokens(vm.generated) % i64::from(k) == 0),
                            None => i64::from(rng.next_bool(sync_p)),
                        };
                        (sample_ticks(&load_dist, rng) as i64, sync)
                    } else {
                        (m.tokens(vm.wl_load), m.tokens(vm.wl_sync))
                    };
                    m.set(v.remaining_load, load);
                    m.set(v.sync_point, sync);
                    m.set(v.status, VcpuStatus::Busy.to_token());
                    m.add(vm.ready_count, -1);
                    m.add(vm.wl_pending, -1);
                    if sync == 1 && mechanism == SyncMechanism::Barrier {
                        m.set(vm.blocked, 1);
                    }
                })
                .reads(dispatch_gate_reads)
                .writes(dispatch_writes)
                .done()?;

            // The dispatch window closes at the end of the tick instant.
            mb.activity("End_Tick")?
                .instantaneous(priority::END_TICK)
                .input_arc(vm.window, 1)
                .done()?;
            Ok(())
        })?;
    }

    Ok(AnalysisModel {
        model: mb.build()?,
        layout,
        error: error_cell,
        policy: shared_policy,
    })
}
