//! End-of-tick observation hooks for runtime invariant checking.
//!
//! Both engines — [`crate::direct::DirectSim`] and
//! [`crate::san_model::SanSystem`] — can carry an optional
//! [`TickObserver`]. When attached, the engine calls
//! [`TickObserver::on_tick`] with a fresh state snapshot at the end of
//! every clock tick (after all five canonical phases); the observer may
//! veto the run by returning an error, which the engine propagates
//! unchanged.
//!
//! When no observer is attached the cost is a single untaken branch per
//! tick — the hook is zero-cost in the configurations the sweeps and
//! benchmarks run.
//!
//! The primary consumer is the `vsched-check` crate's `InvariantChecker`,
//! which asserts clock monotonicity, exclusive PCPU assignment, legal
//! VCPU state transitions, SCS gang atomicity, the RCS cumulative-skew
//! bound, and reward-accounting closure over these snapshots. A
//! [`Timeline`] draws the same snapshots as per-VCPU Gantt lanes.

use std::cell::RefCell;
use std::rc::Rc;

use crate::error::CoreError;
use crate::types::{PcpuView, VcpuStatus, VcpuView};

/// Receives an end-of-tick snapshot of the simulated system.
///
/// Implementations must tolerate being attached mid-run (the first
/// observed tick is then greater than 1) and must not assume which engine
/// is driving them: both engines present identical snapshots for
/// identical canonical states.
pub trait TickObserver {
    /// Called once per clock tick, after the tick's five phases completed.
    ///
    /// `tick` is the just-finished tick (the engines count from 1);
    /// `vcpus` and `pcpus` are the end-of-tick snapshots.
    ///
    /// # Errors
    ///
    /// Returning an error aborts the run; the engine surfaces it from
    /// `run`/`tick` without further processing.
    fn on_tick(
        &mut self,
        tick: u64,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
    ) -> Result<(), CoreError>;
}

/// Shared-ownership adapter: lets the caller keep a handle to an observer
/// after boxing it into an engine, so its accumulated state (violation
/// counts, checked ticks) can be inspected once the run finishes.
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use vsched_core::observe::TickObserver;
/// use vsched_core::{direct::DirectSim, CoreError, PcpuView, PolicyKind, SystemConfig, VcpuView};
///
/// struct CountTicks(u64);
/// impl TickObserver for CountTicks {
///     fn on_tick(&mut self, _: u64, _: &[VcpuView], _: &[PcpuView]) -> Result<(), CoreError> {
///         self.0 += 1;
///         Ok(())
///     }
/// }
///
/// let config = SystemConfig::builder().pcpus(1).vm(1).build()?;
/// let counter = Rc::new(RefCell::new(CountTicks(0)));
/// let mut sim = DirectSim::new(config, PolicyKind::RoundRobin.create(), 1);
/// sim.attach_observer(Box::new(Rc::clone(&counter)));
/// sim.run(10)?;
/// assert_eq!(counter.borrow().0, 10);
/// # Ok::<(), CoreError>(())
/// ```
impl<T: TickObserver> TickObserver for Rc<RefCell<T>> {
    fn on_tick(
        &mut self,
        tick: u64,
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
    ) -> Result<(), CoreError> {
        self.borrow_mut().on_tick(tick, vcpus, pcpus)
    }
}

/// A Gantt-style timeline over the tick window `[from, to)`: one lane per
/// VCPU, one column per tick, drawn from the end-of-tick snapshots. Both
/// engines present identical snapshots for identical canonical states, so
/// one timeline renders either engine's run.
///
/// Legend: `.` descheduled, `r` READY (scheduled, no work), `#` BUSY,
/// `S` BUSY on a synchronization-point job.
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use vsched_core::observe::Timeline;
/// use vsched_core::{direct::DirectSim, PolicyKind, SystemConfig};
///
/// let config = SystemConfig::builder().pcpus(1).vm(1).vm(1).build()?;
/// let timeline = Rc::new(RefCell::new(Timeline::new(1, 41)));
/// let mut sim = DirectSim::new(config, PolicyKind::RoundRobin.create(), 1);
/// sim.attach_observer(Box::new(Rc::clone(&timeline)));
/// sim.run(40)?;
/// let lanes = timeline.borrow().render();
/// assert_eq!(lanes.lines().count(), 2);
/// assert!(lanes.starts_with("vcpu0  |"));
/// # Ok::<(), vsched_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    from: u64,
    to: u64,
    lanes: Vec<String>,
}

impl Timeline {
    /// An empty timeline over the ticks `from..to`.
    #[must_use]
    pub fn new(from: u64, to: u64) -> Self {
        Timeline {
            from,
            to,
            lanes: Vec::new(),
        }
    }

    /// The lanes drawn so far, one `vcpuN |…|` line per VCPU.
    #[must_use]
    pub fn render(&self) -> String {
        self.lanes
            .iter()
            .enumerate()
            .map(|(g, lane)| format!("vcpu{g:<2} |{lane}|\n"))
            .collect()
    }
}

impl TickObserver for Timeline {
    fn on_tick(&mut self, tick: u64, vcpus: &[VcpuView], _: &[PcpuView]) -> Result<(), CoreError> {
        if (self.from..self.to).contains(&tick) {
            self.lanes.resize(vcpus.len(), String::new());
            for (lane, v) in self.lanes.iter_mut().zip(vcpus) {
                lane.push(match v.status {
                    VcpuStatus::Inactive => '.',
                    VcpuStatus::Ready => 'r',
                    VcpuStatus::Busy if v.sync_point => 'S',
                    VcpuStatus::Busy => '#',
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::direct::DirectSim;
    use crate::sched::PolicyKind;

    struct Recorder {
        ticks: Vec<u64>,
        fail_at: Option<u64>,
    }

    impl TickObserver for Recorder {
        fn on_tick(
            &mut self,
            tick: u64,
            vcpus: &[VcpuView],
            pcpus: &[PcpuView],
        ) -> Result<(), CoreError> {
            assert!(!vcpus.is_empty());
            assert!(!pcpus.is_empty());
            self.ticks.push(tick);
            if self.fail_at == Some(tick) {
                return Err(CoreError::InvariantViolation {
                    invariant: "test".into(),
                    tick,
                    reason: "requested failure".into(),
                });
            }
            Ok(())
        }
    }

    #[test]
    fn observer_sees_every_tick_in_order() {
        let config = SystemConfig::builder().pcpus(2).vm(2).build().unwrap();
        let rec = Rc::new(RefCell::new(Recorder {
            ticks: Vec::new(),
            fail_at: None,
        }));
        let mut sim = DirectSim::new(config, PolicyKind::RoundRobin.create(), 3);
        sim.attach_observer(Box::new(Rc::clone(&rec)));
        sim.run(25).unwrap();
        assert_eq!(rec.borrow().ticks, (1..=25).collect::<Vec<_>>());
    }

    #[test]
    fn observer_error_aborts_run() {
        let config = SystemConfig::builder().pcpus(1).vm(1).build().unwrap();
        let rec = Rc::new(RefCell::new(Recorder {
            ticks: Vec::new(),
            fail_at: Some(7),
        }));
        let mut sim = DirectSim::new(config, PolicyKind::RoundRobin.create(), 3);
        sim.attach_observer(Box::new(Rc::clone(&rec)));
        let err = sim.run(100).unwrap_err();
        assert!(matches!(err, CoreError::InvariantViolation { tick: 7, .. }));
        assert_eq!(rec.borrow().ticks.len(), 7, "stopped at the failing tick");
        assert_eq!(sim.time(), 7);
    }

    #[test]
    fn detach_returns_the_observer() {
        let config = SystemConfig::builder().pcpus(1).vm(1).build().unwrap();
        let mut sim = DirectSim::new(config, PolicyKind::RoundRobin.create(), 3);
        assert!(sim.detach_observer().is_none());
        sim.attach_observer(Box::new(Rc::new(RefCell::new(Recorder {
            ticks: Vec::new(),
            fail_at: None,
        }))));
        sim.run(5).unwrap();
        assert!(sim.detach_observer().is_some());
        sim.run(5).unwrap();
    }
}
