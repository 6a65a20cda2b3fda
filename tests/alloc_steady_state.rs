//! Steady-state heap allocations of the per-tick policy consultation.
//!
//! Both engines consult the policy once per tick through one
//! `PolicyScratch`: the views are refilled in place and the decision is
//! checked on reused marks. So once a run is warm, a tick allocates only
//! what the policy's own `schedule` allocates (its returned decision).
//! This binary counts allocations with a per-thread counting global
//! allocator and pins that:
//!
//! * on both engines, under RRS and RCS, on the Figure 8 system and on
//!   64 two-VCPU VMs over 64 PCPUs, with and without a tick observer, the
//!   engine's own allocations over ticks 11..=1010 are exactly zero;
//! * `Env::step` allocates exactly what its returned `Observation` needs
//!   (see [`OBSERVATION_ALLOCS`]) plus one copy per non-empty vector of
//!   the action it hands the engine.
//!
//! `alloc`, `alloc_zeroed` and `realloc` each count as one allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use vsched_core::observe::TickObserver;
use vsched_core::sched::ViewFields;
use vsched_core::{
    CoreError, Engine, PcpuView, PolicyKind, ScheduleDecision, SchedulingPolicy, Simulation,
    SystemConfig, VcpuView,
};
use vsched_env::{Env, Scenario};

mod common;
use common::config;

/// The system allocator, counting the calls made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` never fails for a `const` thread-local without a
    // destructor; it keeps the allocator panic-free regardless.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Wraps a policy and tallies what its `schedule` allocates, so the
/// engine's own allocations are the total minus the tally.
struct Metered {
    inner: Box<dyn SchedulingPolicy>,
    own: Rc<Cell<u64>>,
}

impl SchedulingPolicy for Metered {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
        timestamp: u64,
        default_timeslice: u64,
    ) -> ScheduleDecision {
        let before = allocations();
        let decision = self
            .inner
            .schedule(vcpus, pcpus, timestamp, default_timeslice);
        self.own.set(self.own.get() + allocations() - before);
        decision
    }

    fn snapshot_view(&self) -> ViewFields {
        self.inner.snapshot_view()
    }
}

/// An observer that looks at nothing, so only the engine's observed
/// path is counted.
struct Idle;

impl TickObserver for Idle {
    fn on_tick(&mut self, _: u64, _: &[VcpuView], _: &[PcpuView]) -> Result<(), CoreError> {
        Ok(())
    }
}

/// Ticks run before counting starts: buffers reach their working size.
const WARM: u64 = 10;
/// Ticks counted, 11..=1010.
const COUNTED: u64 = 1_000;

/// The Figure 8 system: VMs of 2, 1 and 1 VCPUs on 2 PCPUs.
fn fig8() -> SystemConfig {
    config(2, &[2, 1, 1])
}

/// 64 two-VCPU VMs on 64 PCPUs.
fn wide() -> SystemConfig {
    config(64, &[2; 64])
}

/// The engine's own allocations in each counted tick.
fn engine_allocations_per_tick(
    engine: Engine,
    config: SystemConfig,
    policy: &PolicyKind,
    observed: bool,
) -> Vec<u64> {
    let own = Rc::new(Cell::new(0));
    let metered = Metered {
        inner: policy.create(),
        own: Rc::clone(&own),
    };
    let mut sim = Simulation::new(engine, config, Box::new(metered), 7).unwrap();
    if observed {
        sim.attach_observer(Box::new(Idle));
    }
    sim.run(WARM).unwrap();
    (0..COUNTED)
        .map(|_| {
            let (total, policy_own) = (allocations(), own.get());
            sim.run(1).unwrap();
            (allocations() - total) - (own.get() - policy_own)
        })
        .collect()
}

#[test]
fn a_steady_state_tick_allocates_only_the_policys_decision() {
    let systems = [("fig8", fig8()), ("64x2 on 64", wide())];
    let policies = [PolicyKind::RoundRobin, PolicyKind::relaxed_co_default()];
    for engine in [Engine::Direct, Engine::San] {
        for (name, system) in &systems {
            for policy in &policies {
                for observed in [false, true] {
                    let per_tick =
                        engine_allocations_per_tick(engine, system.clone(), policy, observed);
                    let total: u64 = per_tick.iter().sum();
                    let first = per_tick.iter().position(|&n| n > 0);
                    assert_eq!(
                        total,
                        0,
                        "{engine:?} on {name} under {policy} (observer: {observed}) allocated \
                         {total} times over ticks {}..={}, first at tick {:?}",
                        WARM + 1,
                        WARM + COUNTED,
                        first.map(|k| WARM + 1 + k as u64),
                    );
                }
            }
        }
    }
}

/// What one `Env::step` allocates for the `Observation` it returns, with
/// every payload field declared: `Observation::fields` takes 8 (the
/// `Vec<&str>` of `ViewFields::declared` and its one regrowth at the
/// fifth name, the `Vec<String>` and the five `String`s), and its `vcpus`
/// and `pcpus` vectors take one each.
const OBSERVATION_ALLOCS: u64 = 8 + 2;

/// The first step after the scenario's warm-up: it sizes the episode's
/// metrics buffer, once.
const FIRST_MEASURED: u64 = WARM + 1;

/// Drives RCS from the observations and returns, for each of the
/// [`COUNTED`] steps after [`FIRST_MEASURED`], what `Env::step` allocated
/// beyond the copy of the action it hands the engine (one allocation per
/// non-empty vector).
fn env_allocations_per_step(engine: Engine, fields: ViewFields) -> Vec<u64> {
    let scenario = Scenario::new(fig8())
        .engine(engine)
        .warmup(WARM)
        .horizon(2 * COUNTED);
    let mut env = Env::new(scenario).fields(fields);
    let mut policy = PolicyKind::relaxed_co_default().create();
    let mut obs = env.reset(7).unwrap();
    let mut per_step = Vec::new();
    for step in 1..=FIRST_MEASURED + COUNTED {
        let action = policy.schedule(&obs.vcpus, &obs.pcpus, obs.timestamp, obs.default_timeslice);
        let copies =
            u64::from(!action.preemptions.is_empty()) + u64::from(!action.assignments.is_empty());
        let before = allocations();
        let next = env.step(&action).unwrap();
        let made = allocations() - before;
        assert!(!next.done);
        if step > FIRST_MEASURED {
            per_step.push(made - copies);
        }
        obs = next.obs;
    }
    per_step
}

#[test]
fn an_env_step_allocates_only_its_observation() {
    for engine in [Engine::Direct, Engine::San] {
        for (fields, expected) in [
            (ViewFields::all(), OBSERVATION_ALLOCS),
            // No declared field: no names, only the two view vectors.
            (ViewFields::none(), 2),
        ] {
            let per_step = env_allocations_per_step(engine, fields);
            let off: Vec<_> = per_step
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n != expected)
                .map(|(k, &n)| (FIRST_MEASURED + 1 + k as u64, n))
                .take(5)
                .collect();
            assert!(
                off.is_empty(),
                "{engine:?} with fields {:?}: expected {expected} allocations per step, \
                 got (step, count) {off:?}",
                fields.declared()
            );
        }
    }
}
