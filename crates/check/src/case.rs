//! The fuzz-case vocabulary: a serializable, self-contained description
//! of one generated scenario, and the reproducer files `vsched fuzz`
//! writes for every failure.
//!
//! A [`FuzzCase`] captures *everything* the oracle needs — topology,
//! workload distributions, synchronization, policy, seed, and run
//! lengths — so a reproducer JSON replays bit-identically on any machine
//! with the same binary, independent of the generator that produced it.

use serde::{Deserialize, Serialize};
use std::path::Path;

use vsched_campaign::CellConfig;
use vsched_core::{CoreError, DistSpec, PolicyKind, SyncMechanism, SyncMechanismSpec};
use vsched_trace::{RawEvent, TraceMeta, TraceSchedule, VmShape};

use crate::CheckError;

/// Workload service-demand distribution of one case, in ticks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadSpec {
    /// Every job takes exactly `value` ticks.
    Deterministic {
        /// Job length in ticks.
        value: f64,
    },
    /// Job lengths uniform on `[low, high]`.
    Uniform {
        /// Lower bound in ticks.
        low: f64,
        /// Upper bound in ticks.
        high: f64,
    },
    /// Exponentially distributed job lengths.
    Exponential {
        /// Mean job length in ticks.
        mean: f64,
    },
}

/// Synchronization behaviour of one case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SyncSpec {
    /// Probability that a job is a synchronization point.
    pub probability: f64,
    /// If set, every `every`-th job is a sync point instead of sampling
    /// with `probability` (the deterministic variant).
    pub every: Option<u32>,
    /// Whether waiters block (Barrier) or burn their PCPU (SpinLock).
    pub mechanism: SyncMechanism,
}

/// One VM of a case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VmCase {
    /// Number of sibling VCPUs.
    pub vcpus: usize,
    /// Proportional-share weight.
    pub weight: u32,
}

/// What one churn event does to a VM. The fuzz vocabulary is the
/// *saturated* subset of the trace crate's: VMs re-arrive with their
/// original shape, so the union topology is always the case's own
/// static topology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceOpCase {
    /// The VM departs: its VCPUs retire and their PCPUs free up.
    Depart,
    /// The VM is re-admitted with the shape it had in
    /// [`FuzzCase::vms`].
    Arrive,
    /// The VM's demand changes to this per-mille level.
    SetLoad {
        /// Per-mille demand level (`0..=1000`).
        level: u32,
    },
}

/// One churn event of a case's trace scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceEventCase {
    /// Tick at which the event applies (an event boundary, `> 0`).
    pub at: u64,
    /// Index into [`FuzzCase::vms`].
    pub vm: usize,
    /// What happens.
    pub op: TraceOpCase,
}

/// A complete, replayable fuzz scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FuzzCase {
    /// Position in the generator sequence (also the RNG stream index).
    pub case_index: u64,
    /// Physical CPU count.
    pub pcpus: usize,
    /// The virtual machines.
    pub vms: Vec<VmCase>,
    /// Job service-demand distribution (shared by all VMs).
    pub load: LoadSpec,
    /// Synchronization behaviour (shared by all VMs).
    pub sync: SyncSpec,
    /// Scheduling timeslice in ticks.
    pub timeslice: u64,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Base RNG seed for the replications.
    pub seed: u64,
    /// Warm-up ticks discarded before sampling.
    pub warmup: u64,
    /// Measured horizon in ticks.
    pub horizon: u64,
    /// Replications per engine.
    pub replications: usize,
    /// Churn scenario replayed by the oracle's `trace` verdict: every VM
    /// arrives at tick 0, then these events apply in time order. Empty
    /// means the case is purely static and the trace verdict is skipped.
    /// Defaulted so pre-trace reproducer files keep parsing unchanged.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub trace: Vec<TraceEventCase>,
}

impl FuzzCase {
    /// The `vsched verify` scenario: `vms` identical VMs of `vcpus` VCPUs
    /// each on `pcpus` PCPUs, under `policy`, explored for `horizon`
    /// ticks. The verifier's diet is deterministic — every job takes 4
    /// ticks and every third one is a barrier sync point — which makes
    /// the exploration exhaustive: there are no stochastic gates to probe
    /// under a seed budget. As a case (seed 7, no warm-up, one
    /// replication) it makes a verifier counterexample self-contained and
    /// replayable.
    #[must_use]
    pub fn verify_scenario(
        pcpus: usize,
        vms: usize,
        vcpus: usize,
        timeslice: u64,
        policy: PolicyKind,
        horizon: u64,
    ) -> Self {
        FuzzCase {
            case_index: 0,
            pcpus,
            vms: vec![VmCase { vcpus, weight: 1 }; vms],
            load: LoadSpec::Deterministic { value: 4.0 },
            sync: SyncSpec {
                probability: 0.0,
                every: Some(3),
                mechanism: SyncMechanism::Barrier,
            },
            timeslice,
            policy,
            seed: 7,
            warmup: 0,
            horizon,
            replications: 1,
            trace: vec![],
        }
    }

    /// The campaign cell of this case's scenario, and the one place a
    /// case's topology, workload, synchronization and timeslice become
    /// cell fields. The run fields keep the cell defaults: a case names
    /// its own policy (the deadlock fixture's fault-injected one has no
    /// cell spelling), runs on both engines and may run one replication,
    /// so callers set what their run needs.
    #[must_use]
    pub fn cell(&self) -> CellConfig {
        let weights: Vec<u32> = self.vms.iter().map(|vm| vm.weight).collect();
        CellConfig {
            pcpus: self.pcpus,
            vms: self.vms.iter().map(|vm| vm.vcpus).collect(),
            weights: (!weights.iter().all(|&w| w == 1)).then_some(weights),
            sync_probability: self.sync.every.is_none().then_some(self.sync.probability),
            sync_every: self.sync.every,
            sync_mechanism: match self.sync.mechanism {
                SyncMechanism::Barrier => SyncMechanismSpec::Barrier,
                SyncMechanism::SpinLock => SyncMechanismSpec::Spinlock,
            },
            timeslice: self.timeslice,
            load: match self.load {
                LoadSpec::Deterministic { value } => DistSpec::Deterministic { value },
                LoadSpec::Uniform { low, high } => DistSpec::Uniform { low, high },
                LoadSpec::Exponential { mean } => DistSpec::Exponential { mean },
            },
            ..CellConfig::default()
        }
    }

    /// Compiles the case's churn scenario into an executable
    /// [`TraceSchedule`]: every VM arrives at tick 0 carrying the case's
    /// shared workload, as [`FuzzCase::cell`] spells it, as per-VM shape
    /// overrides, then [`FuzzCase::trace`] events apply. The resulting
    /// union topology resolves to the same system as the cell's
    /// [`CellConfig::system`], so the trace verdict exercises exactly the
    /// case's system under churn.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an invalid event sequence
    /// (possible in hand-edited reproducers: out-of-order times, double
    /// arrivals, departures while absent, bad levels).
    pub fn trace_schedule(&self) -> Result<TraceSchedule, CoreError> {
        let cell = self.cell();
        let mut meta = TraceMeta::new(cell.pcpus);
        meta.timeslice = cell.timeslice;
        let shape = |vm: &VmCase| VmShape {
            weight: vm.weight,
            load: Some(cell.load.clone()),
            // A shape's probability would default to the paper's 0.2;
            // the cell's `sync_every` stands for probability 0.
            sync_probability: Some(cell.sync_probability.unwrap_or(0.0)),
            sync_every: cell.sync_every,
            sync_mechanism: Some(cell.sync_mechanism),
            ..VmShape::new(vm.vcpus)
        };
        let mut events: Vec<RawEvent> = self
            .vms
            .iter()
            .enumerate()
            .map(|(i, vm)| RawEvent::arrive(0, format!("vm{i}"), shape(vm)))
            .collect();
        for e in &self.trace {
            let Some(vm) = self.vms.get(e.vm) else {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "trace: event at tick {} names VM index {} of {}",
                        e.at,
                        e.vm,
                        self.vms.len()
                    ),
                });
            };
            let name = format!("vm{}", e.vm);
            events.push(match e.op {
                TraceOpCase::Depart => RawEvent::depart(e.at, name),
                TraceOpCase::Arrive => RawEvent::arrive(e.at, name, shape(vm)),
                TraceOpCase::SetLoad { level } => RawEvent::set_load(e.at, name, level),
            });
        }
        TraceSchedule::from_events(&meta, &events).map_err(|e| CoreError::InvalidConfig {
            reason: format!("trace: {e}"),
        })
    }
}

/// A reproducer file: the shrunk case plus the failures it provoked when
/// it was recorded (kept for triage; replay recomputes them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Reproducer {
    /// The (shrunk) failing case.
    pub case: FuzzCase,
    /// Human-readable failure descriptions observed at record time.
    pub failures: Vec<String>,
    /// Machine-checkable counterexample from the exhaustive verifier
    /// (`vsched verify`), when the reproducer came from one: a concrete
    /// SAN firing trace that `vsched fuzz --replay` re-executes on both
    /// engines. Defaulted so pre-verify reproducer files keep parsing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub verify: Option<crate::verify::VerifyCounterexample>,
}

impl Reproducer {
    /// Serializes to pretty JSON (the on-disk reproducer format).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reproducer serialization cannot fail")
    }

    /// Loads a reproducer from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckError::Io`] if the file cannot be read,
    /// [`CheckError::Parse`] if it is not valid reproducer JSON.
    pub fn load(path: &Path) -> Result<Self, CheckError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckError::io(path, e))?;
        serde_json::from_str(&text).map_err(|e| CheckError::parse(path, e))
    }

    /// Stores the reproducer at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckError::Io`] if the file cannot be written.
    pub fn store(&self, path: &Path) -> Result<(), CheckError> {
        std::fs::write(path, self.to_json()).map_err(|e| CheckError::io(path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_case() -> FuzzCase {
        FuzzCase {
            case_index: 0,
            pcpus: 2,
            vms: vec![
                VmCase {
                    vcpus: 2,
                    weight: 1,
                },
                VmCase {
                    vcpus: 1,
                    weight: 2,
                },
            ],
            load: LoadSpec::Uniform {
                low: 2.0,
                high: 9.0,
            },
            sync: SyncSpec {
                probability: 0.25,
                every: None,
                mechanism: SyncMechanism::Barrier,
            },
            timeslice: 5,
            policy: PolicyKind::relaxed_co_default(),
            seed: 42,
            warmup: 200,
            horizon: 800,
            replications: 3,
            trace: vec![],
        }
    }

    #[test]
    fn case_roundtrips_through_json() {
        let case = sample_case();
        let rep = Reproducer {
            case: case.clone(),
            failures: vec!["differential: vcpu_availability".into()],
            verify: None,
        };
        let json = rep.to_json();
        let back: Reproducer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.case, case);
    }

    #[test]
    fn case_builds_a_valid_system_config() {
        let config = sample_case().cell().system().unwrap();
        assert_eq!(config.pcpus(), 2);
        assert_eq!(config.total_vcpus(), 3);
        assert_eq!(config.timeslice(), 5);
        assert_eq!(config.vms()[1].weight, 2);
    }

    #[test]
    fn every_case_lowers_to_a_valid_cell_carrying_its_system() {
        // Generated cases, the verifier's scenario (one replication) and
        // the deadlock fixture (a fault-injected policy, which has no
        // cell spelling) all lower to a cell that validates.
        let generator = crate::gen::CaseGen::new(42);
        let cases = (0..200).map(|i| generator.case(i)).chain([
            FuzzCase::verify_scenario(2, 2, 2, 5, PolicyKind::RoundRobin, 16),
            crate::verify::deadlock_fixture_case(),
        ]);
        for case in cases {
            let at = format!("case {} ({:?})", case.case_index, case.policy);
            let cell = case.cell();
            cell.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
            let system = cell.system().unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(system.pcpus(), case.pcpus, "{at}");
            assert_eq!(system.timeslice(), case.timeslice, "{at}");
            assert_eq!(system.vms().len(), case.vms.len(), "{at}");
            let load = match case.load {
                LoadSpec::Deterministic { value } => vsched_des::Dist::deterministic(value),
                LoadSpec::Uniform { low, high } => vsched_des::Dist::uniform(low, high),
                LoadSpec::Exponential { mean } => vsched_des::Dist::exponential(mean),
            }
            .unwrap();
            for (vm, spec) in case.vms.iter().zip(system.vms()) {
                assert_eq!(spec.vcpus, vm.vcpus, "{at}");
                assert_eq!(spec.weight, vm.weight, "{at}");
                let w = &spec.workload;
                assert_eq!(w.load, load, "{at}");
                assert_eq!(w.sync_probability, case.sync.probability, "{at}");
                assert_eq!(w.sync_every, case.sync.every, "{at}");
                assert_eq!(w.sync_mechanism, case.sync.mechanism, "{at}");
                assert!(w.interarrival.is_none(), "{at}");
            }
        }
    }

    #[test]
    fn invalid_case_surfaces_a_core_error() {
        let mut case = sample_case();
        case.pcpus = 0;
        assert!(case.cell().system().is_err());
    }

    #[test]
    fn traced_case_compiles_and_matches_the_static_union() {
        let mut case = sample_case();
        case.trace = vec![
            TraceEventCase {
                at: 300,
                vm: 1,
                op: TraceOpCase::Depart,
            },
            TraceEventCase {
                at: 400,
                vm: 0,
                op: TraceOpCase::SetLoad { level: 500 },
            },
            TraceEventCase {
                at: 600,
                vm: 1,
                op: TraceOpCase::Arrive,
            },
        ];
        let schedule = case.trace_schedule().unwrap();
        // The union topology IS the case's static topology.
        let static_config = case.cell().system().unwrap();
        assert_eq!(schedule.config(), &static_config);
        assert!(schedule.initially_present().iter().all(|&p| p));
        assert_eq!(schedule.events().len(), 3);
        assert_eq!(schedule.end_time(), 600);

        // An empty trace degenerates to the static topology.
        let empty = sample_case().trace_schedule().unwrap();
        assert!(empty.is_static());

        // The trace field round-trips, and legacy JSON (no `trace`)
        // still parses as an empty scenario.
        let json = serde_json::to_string(&case).unwrap();
        let back: FuzzCase = serde_json::from_str(&json).unwrap();
        assert_eq!(back, case);
        let legacy = serde_json::to_string(&sample_case()).unwrap();
        assert!(!legacy.contains("trace"));
        let parsed: FuzzCase = serde_json::from_str(&legacy).unwrap();
        assert!(parsed.trace.is_empty());
    }

    #[test]
    fn invalid_trace_scenarios_surface_typed_errors() {
        // Departure of an absent VM.
        let mut case = sample_case();
        case.trace = vec![
            TraceEventCase {
                at: 100,
                vm: 1,
                op: TraceOpCase::Depart,
            },
            TraceEventCase {
                at: 200,
                vm: 1,
                op: TraceOpCase::Depart,
            },
        ];
        let err = case.trace_schedule().unwrap_err();
        assert!(err.to_string().contains("trace:"), "{err}");

        // Out-of-range VM index.
        let mut case = sample_case();
        case.trace = vec![TraceEventCase {
            at: 100,
            vm: 9,
            op: TraceOpCase::Depart,
        }];
        let err = case.trace_schedule().unwrap_err();
        assert!(err.to_string().contains("VM index 9"), "{err}");
    }

    #[test]
    fn load_and_store_roundtrip_and_name_paths_on_error() {
        let dir = std::env::temp_dir().join(format!("vsched-check-case-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case-0.json");
        let rep = Reproducer {
            case: sample_case(),
            failures: vec![],
            verify: None,
        };
        rep.store(&path).unwrap();
        assert_eq!(Reproducer::load(&path).unwrap(), rep);

        let missing = dir.join("absent.json");
        let err = Reproducer::load(&missing).unwrap_err();
        assert!(err.to_string().contains("absent.json"));

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{not json").unwrap();
        let err = Reproducer::load(&garbage).unwrap_err();
        assert!(matches!(err, CheckError::Parse { .. }));

        // A reproducer cut off mid-write must surface as a typed parse
        // error whose message names the file, not a panic or a bare
        // serde message (this is what `vsched fuzz --replay` prints).
        let truncated = dir.join("truncated.json");
        let full = rep.to_json();
        std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
        let err = Reproducer::load(&truncated).unwrap_err();
        assert!(matches!(err, CheckError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("truncated.json"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
