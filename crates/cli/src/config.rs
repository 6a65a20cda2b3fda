//! JSON run configs — the `vsched run`/`lint`/`env`/`tournament` input —
//! and their lowering onto campaign cells.
//!
//! A run config is a spelling of [`CellConfig`]s: one cell per entry of
//! `policies`, in order, built by [`ExperimentConfig::cells`]. Every
//! subcommand that reads a run config works on those cells, so a run
//! config and a sweep cell with the same content describe the same
//! simulation. The lowering fills in what the config omits:
//!
//! * timeslice 30 and seed `0x5eed`;
//! * replications: the paper's stopping rule between 5 and 40 for a
//!   static system, exactly 3 for a trace-driven one (no stopping rule
//!   mid-trace);
//! * `weights` and `vm_workloads` stay unset when every VM has weight 1
//!   and the paper's workload, so the cell keeps the homogeneous form.
//!
//! A VM's `workload` section is a [`VmWorkloadSpec`] and overrides the
//! paper's workload field by field. As in sweep cells, `sync_every`
//! zeroes the Bernoulli sync probability it replaces; neither engine
//! draws that probability while `sync_every` is set, so results do not
//! depend on it.

use serde::{Deserialize, Serialize};
use vsched_campaign::{CellConfig, EngineSpec, ReplicationSpec, SyncMechanismSpec};
use vsched_core::CoreError;

pub use vsched_campaign::spec::{CreditParams, DistSpec, PolicySpec, RcsParams, VmWorkloadSpec};

/// One VM in the config file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VmConfig {
    /// Number of VCPUs.
    pub vcpus: usize,
    /// Proportional-share weight (default 1).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub weight: Option<u32>,
    /// Workload overrides (default: the paper's workload — uniform
    /// `[5, 15)` loads, sync 1:5, barrier, saturated generation).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub workload: Option<VmWorkloadSpec>,
}

/// `skip_serializing_if` gate for `pcpus`: `0` means "the trace supplies
/// the platform".
#[allow(clippy::trivially_copy_pass_by_ref)]
fn is_zero(n: &usize) -> bool {
    *n == 0
}

fn default_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Label("rrs".into()),
        PolicySpec::Label("scs".into()),
        PolicySpec::Label("rcs".into()),
    ]
}

fn default_warmup() -> u64 {
    1_000
}

fn default_horizon() -> u64 {
    20_000
}

/// A complete experiment: the system, the policies to compare, and the
/// simulation parameters.
///
/// Unknown fields are rejected — a typo'd key (`"timeslise"`) fails the
/// parse instead of being silently defaulted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExperimentConfig {
    /// Number of physical CPUs. With a `trace`, omit it (the trace header
    /// carries the platform) — unless the trace is a CSV dataset, which
    /// carries none, where this supplies the PCPU count.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub pcpus: usize,
    /// The VMs. Empty when a `trace` defines them.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub vms: Vec<VmConfig>,
    /// Path to a workload trace (`.jsonl` standard format or `.csv`
    /// Azure-style lifetimes, resolved relative to the working
    /// directory). When set, the run is **trace-driven**: VMs arrive,
    /// depart and change load as the trace dictates, and the config's
    /// `policies`, `engine`, `warmup`, `horizon`, `seed` and
    /// `replications` control the comparison.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<String>,
    /// Scheduler timeslice in ticks (default 30).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub timeslice: Option<u64>,
    /// Policies to compare (default: the paper's RRS/SCS/RCS trio).
    #[serde(default = "default_policies")]
    pub policies: Vec<PolicySpec>,
    /// `"san"` (default) or `"direct"`.
    #[serde(default)]
    pub engine: EngineSpec,
    /// Warm-up ticks per replication (default 1000).
    #[serde(default = "default_warmup")]
    pub warmup: u64,
    /// Observed ticks per replication (default 20000).
    #[serde(default = "default_horizon")]
    pub horizon: u64,
    /// Exact replication count; omit to use the paper's stopping rule
    /// (5 to 40 replications), or 3 for a trace-driven run.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub replications: Option<usize>,
    /// Base RNG seed (default 0x5eed).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Replication worker threads; omit (or `0`) for one per core. Any
    /// value produces bit-identical results — see `vsched-exec`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub jobs: Option<usize>,
}

impl ExperimentConfig {
    /// Parses a config from JSON text and validates every cell it lowers
    /// to ([`CellConfig::validate`]): a zero timeslice, fewer than 2
    /// replications, an unknown policy, out-of-domain policy
    /// parameters (e.g. an RCS skew threshold of 0) or a topology that
    /// conflicts with a `trace` are rejected here, at load time, instead
    /// of surfacing mid-run.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] with the JSON error message or the
    /// offending parameter.
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        let config: Self = serde_json::from_str(text).map_err(|e| CoreError::InvalidConfig {
            reason: format!("config parse error: {e}"),
        })?;
        for cell in config.cells()? {
            cell.validate()?;
        }
        Ok(config)
    }

    /// Lowers this config to one [`CellConfig`] per entry of `policies`,
    /// in order (see the module docs for the defaults it fills in).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `policies` is empty.
    pub fn cells(&self) -> Result<Vec<CellConfig>, CoreError> {
        if self.policies.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "`policies` must name at least one policy".into(),
            });
        }
        let weights: Vec<u32> = self.vms.iter().map(|vm| vm.weight.unwrap_or(1)).collect();
        let overrides: Vec<VmWorkloadSpec> = self
            .vms
            .iter()
            .map(|vm| vm.workload.clone().unwrap_or_default())
            .collect();
        let replications = match (self.replications, &self.trace) {
            (Some(n), _) => ReplicationSpec::Exact(n),
            (None, Some(_)) => ReplicationSpec::Exact(3),
            (None, None) => ReplicationSpec::Rule { min: 5, max: 40 },
        };
        let base = CellConfig {
            pcpus: self.pcpus,
            vms: self.vms.iter().map(|vm| vm.vcpus).collect(),
            trace: self.trace.clone(),
            weights: (!weights.iter().all(|&w| w == 1)).then_some(weights),
            sync_ratio: (1, 5),
            sync_probability: None,
            sync_every: None,
            sync_mechanism: SyncMechanismSpec::Barrier,
            timeslice: self.timeslice.unwrap_or(30),
            load: DistSpec::Uniform {
                low: 5.0,
                high: 15.0,
            },
            interarrival: None,
            vm_workloads: (!overrides.iter().all(VmWorkloadSpec::is_noop)).then_some(overrides),
            policy: PolicySpec::Label("rrs".into()),
            engine: self.engine,
            warmup: self.warmup,
            horizon: self.horizon,
            replications,
            seed: self.seed.unwrap_or(0x5eed),
        };
        Ok(self
            .policies
            .iter()
            .map(|policy| CellConfig {
                policy: policy.clone(),
                ..base.clone()
            })
            .collect())
    }
}

/// Whether a JSON input is a sweep spec rather than a run config: its
/// top-level object has an `experiments` key.
#[must_use]
pub fn is_sweep_spec(text: &str) -> bool {
    serde_json::from_str::<serde_json::Value>(text)
        .ok()
        .and_then(|v| {
            v.as_map()
                .map(|m| m.iter().any(|(k, _)| k == "experiments"))
        })
        .unwrap_or(false)
}

/// The `vsched-env` scenario a static cell describes: its system, engine,
/// warmup and horizon. Serves `vsched env` and the tournament's agent
/// episodes alike.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for a trace-driven cell — an episode runs
/// a fixed VM population, so it cannot replay arrivals, departures and
/// load changes — plus the errors of [`CellConfig::system`].
pub fn env_scenario(cell: &CellConfig) -> Result<vsched_env::Scenario, CoreError> {
    if let Some(trace) = &cell.trace {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "trace-driven config (trace `{trace}`) cannot be hosted as an environment: \
                 episodes run a fixed VM population"
            ),
        });
    }
    Ok(vsched_env::Scenario::new(cell.system()?)
        .engine(cell.engine.to_engine())
        .warmup(cell.warmup)
        .horizon(cell.horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsched_campaign::cell_key;
    use vsched_core::{Engine, PolicyKind, SyncMechanism};

    const FULL: &str = r#"{
        "pcpus": 4,
        "vms": [
            { "vcpus": 2 },
            { "vcpus": 4, "weight": 2, "workload": {
                "load": { "uniform": { "low": 5.0, "high": 15.0 } },
                "sync_ratio": [1, 3],
                "sync_mechanism": "spinlock" } }
        ],
        "timeslice": 12,
        "policies": ["rrs", { "rcs": { "skew_threshold": 7, "skew_resume": 3 } }],
        "engine": "direct",
        "warmup": 500,
        "horizon": 5000,
        "replications": 3,
        "seed": 42,
        "jobs": 2
    }"#;

    #[test]
    fn full_config_round_trips() {
        let cfg = ExperimentConfig::from_json(FULL).unwrap();
        assert_eq!(cfg.jobs, Some(2));
        let json = serde_json::to_string(&cfg).unwrap();
        let back = ExperimentConfig::from_json(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn full_config_builds_system() {
        let cfg = ExperimentConfig::from_json(FULL).unwrap();
        let system = cfg.cells().unwrap()[0].system().unwrap();
        assert_eq!(system.pcpus(), 4);
        assert_eq!(system.total_vcpus(), 6);
        assert_eq!(system.timeslice(), 12);
        assert_eq!(system.vms()[1].weight, 2);
        assert_eq!(
            system.vms()[1].workload.sync_mechanism,
            SyncMechanism::SpinLock
        );
        assert!((system.vms()[1].workload.sync_probability - 1.0 / 3.0).abs() < 1e-12);
        // VM 0 uses the paper defaults.
        assert_eq!(system.vms()[0].workload.sync_probability, 0.2);
    }

    #[test]
    fn policies_resolve() {
        let cfg = ExperimentConfig::from_json(FULL).unwrap();
        let cells = cfg.cells().unwrap();
        let kinds: Vec<PolicyKind> = cells.iter().map(|c| c.policy_kind().unwrap()).collect();
        assert_eq!(kinds[0], PolicyKind::RoundRobin);
        assert_eq!(
            kinds[1],
            PolicyKind::RelaxedCo {
                skew_threshold: 7,
                skew_resume: 3
            }
        );
        assert_eq!(cells[1].engine.to_engine(), Engine::Direct);
        assert_eq!(cells[1].replications, ReplicationSpec::Exact(3));
        assert_eq!(cells[1].seed, 42);
    }

    #[test]
    fn minimal_config_uses_defaults() {
        let cfg =
            ExperimentConfig::from_json(r#"{ "pcpus": 2, "vms": [{ "vcpus": 1 }] }"#).unwrap();
        let cells = cfg.cells().unwrap();
        assert_eq!(cells.len(), 3, "paper trio default");
        assert_eq!(cells[0].engine.to_engine(), Engine::San);
        assert_eq!(cfg.warmup, 1_000);
        assert_eq!(cfg.horizon, 20_000);
        assert!(cfg.replications.is_none());
        assert_eq!(
            cells[0].replications,
            ReplicationSpec::Rule { min: 5, max: 40 }
        );
        assert_eq!(cells[0].seed, 0x5eed);
        assert!(cfg.jobs.is_none(), "jobs defaults to auto");
        let system = cells[0].system().unwrap();
        assert_eq!(system.timeslice(), 30);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(ExperimentConfig::from_json("{").is_err());
        // Unknown policies, engines and sync mechanisms fail at load.
        let err = ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1 }], "policies": ["nope"] }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
        let err = ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1 }], "engine": "quantum" }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("quantum"), "{err}");
        let err = ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1, "workload": { "sync_mechanism": "mutex" } }] }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("mutex"), "{err}");
        let err = ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1 }], "policies": [] }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("policies"), "{err}");
    }

    #[test]
    fn out_of_range_parameters_fail_at_load() {
        let err = ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1 }], "timeslice": 0 }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("timeslice"), "{err}");

        // No run can use fewer than 2 replications (no interval), so
        // neither 0 nor 1 loads.
        for replications in [0, 1] {
            let err = ExperimentConfig::from_json(&format!(
                r#"{{ "pcpus": 1, "vms": [{{ "vcpus": 1 }}], "replications": {replications} }}"#
            ))
            .unwrap_err();
            assert!(
                err.to_string().contains("replications"),
                "{replications}: {err}"
            );
        }

        let err = ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1 }],
                 "policies": [{ "rcs": { "skew_threshold": 0, "skew_resume": 0 } }] }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("skew_threshold"), "{err}");

        // Valid boundary values still load.
        ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1 }], "timeslice": 1, "replications": 2 }"#,
        )
        .unwrap();
    }

    #[test]
    fn typo_fields_fail_loudly() {
        // Top-level typo: "timeslise" instead of "timeslice".
        let err = ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1 }], "timeslise": 10 }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("timeslise"), "{err}");
        // Nested typos: VM and workload sections.
        assert!(ExperimentConfig::from_json(
            r#"{ "pcpus": 1, "vms": [{ "vcpus": 1, "wieght": 2 }] }"#
        )
        .is_err());
        assert!(ExperimentConfig::from_json(
            r#"{ "pcpus": 1,
                 "vms": [{ "vcpus": 1, "workload": { "sync_ration": [1, 5] } }] }"#
        )
        .is_err());
    }

    #[test]
    fn trace_config_validates_and_round_trips() {
        let cfg = ExperimentConfig::from_json(
            r#"{ "trace": "configs/traces/churn_small.jsonl", "policies": ["rrs"] }"#,
        )
        .unwrap();
        assert_eq!(cfg.pcpus, 0);
        assert!(cfg.vms.is_empty());
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(!json.contains("pcpus"), "{json}");
        assert_eq!(cfg, ExperimentConfig::from_json(&json).unwrap());

        // Conflicting topology is rejected at load time.
        let err = ExperimentConfig::from_json(r#"{ "trace": "t.jsonl", "vms": [{ "vcpus": 1 }] }"#)
            .unwrap_err();
        assert!(err.to_string().contains("omit `vms`"), "{err}");
        let err = ExperimentConfig::from_json(r#"{ "trace": "t.jsonl", "pcpus": 2 }"#).unwrap_err();
        assert!(err.to_string().contains("omit `pcpus`"), "{err}");
        let err = ExperimentConfig::from_json(r#"{ "trace": "t.csv" }"#).unwrap_err();
        assert!(err.to_string().contains("set `pcpus`"), "{err}");
        ExperimentConfig::from_json(r#"{ "trace": "t.csv", "pcpus": 4 }"#).unwrap();
        // No trace and no topology is still an error.
        let err = ExperimentConfig::from_json(r#"{ }"#).unwrap_err();
        assert!(err.to_string().contains("at least 1 PCPU"), "{err}");
    }

    #[test]
    fn trace_config_missing_file_reports_the_path() {
        let cfg = ExperimentConfig::from_json(r#"{ "trace": "/nonexistent/t.jsonl" }"#).unwrap();
        let err = cfg.cells().unwrap()[0].schedule().unwrap_err();
        assert!(err.to_string().contains("/nonexistent/t.jsonl"), "{err}");
        // `system()` on a non-trace cell never consults the reader.
        let cfg =
            ExperimentConfig::from_json(r#"{ "pcpus": 2, "vms": [{ "vcpus": 1 }] }"#).unwrap();
        let cell = &cfg.cells().unwrap()[0];
        assert!(cell.schedule().is_err());
        cell.system().unwrap();
    }

    #[test]
    fn cells_are_the_sweep_spelling_of_the_config() {
        // Each lowered cell equals the cell a sweep spec would write for
        // the same experiment, so both share a store key.
        let cfg = ExperimentConfig::from_json(
            r#"{ "pcpus": 2, "vms": [{ "vcpus": 2 }, { "vcpus": 1 }], "policies": ["scs"] }"#,
        )
        .unwrap();
        let expected: CellConfig = serde_json::from_str(
            r#"{ "pcpus": 2, "vms": [2, 1], "policy": "scs",
                 "replications": { "min": 5, "max": 40 } }"#,
        )
        .unwrap();
        let cells = cfg.cells().unwrap();
        assert_eq!(cell_key(&cells[0]), cell_key(&expected));
        assert_eq!(cells, vec![expected]);

        // Non-default weights and workloads become per-VM fields.
        let cfg = ExperimentConfig::from_json(FULL).unwrap();
        let cells = cfg.cells().unwrap();
        assert_eq!(cells[0].weights, Some(vec![1, 2]));
        let overrides = cells[0].vm_workloads.as_ref().unwrap();
        assert!(overrides[0].is_noop());
        assert_eq!(overrides[1].sync_ratio, Some((1, 3)));
        assert_eq!(cells[0].timeslice, 12);

        // A trace-driven config runs exactly 3 replications by default.
        let cfg = ExperimentConfig::from_json(r#"{ "trace": "t.jsonl" }"#).unwrap();
        let cells = cfg.cells().unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].replications, ReplicationSpec::Exact(3));
        assert_eq!(cells[2].trace.as_deref(), Some("t.jsonl"));
        let err = env_scenario(&cells[0]).unwrap_err();
        assert!(err.to_string().contains("trace-driven"), "{err}");
    }

    #[test]
    fn sync_every_zeroes_the_bernoulli_probability() {
        let cfg = ExperimentConfig::from_json(
            r#"{ "pcpus": 2, "vms": [{ "vcpus": 2, "workload": { "sync_every": 3 } }] }"#,
        )
        .unwrap();
        let system = cfg.cells().unwrap()[0].system().unwrap();
        assert_eq!(system.vms()[0].workload.sync_every, Some(3));
        assert_eq!(system.vms()[0].workload.sync_probability, 0.0);
    }

    #[test]
    fn every_dist_spec_converts() {
        let specs = vec![
            DistSpec::Deterministic { value: 3.0 },
            DistSpec::Uniform {
                low: 1.0,
                high: 2.0,
            },
            DistSpec::Exponential { mean: 4.0 },
            DistSpec::Erlang { k: 3, mean: 6.0 },
            DistSpec::Normal {
                mean: 5.0,
                std_dev: 1.0,
            },
            DistSpec::Geometric { p: 0.5 },
            DistSpec::DiscreteUniform { low: 1, high: 9 },
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: DistSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
            spec.to_dist().unwrap();
        }
        assert!(DistSpec::Exponential { mean: -1.0 }.to_dist().is_err());
    }
}
