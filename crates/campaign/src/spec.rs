//! The declarative sweep specification and the fully-resolved cell config.
//!
//! A sweep spec is a JSON document describing one or more *experiments*,
//! each of which is a cartesian grid: a `base` cell config plus a list of
//! `axes`, where every axis contributes a list of *points* (partial
//! overrides). The planner ([`mod@crate::plan`]) expands the grid row-major
//! (first axis slowest) into fully-resolved [`CellConfig`]s; cells that
//! cannot be expressed as a product (coupled parameters) go in `extra`.
//!
//! [`CellConfig`] is the canonical unit of work: one system configuration,
//! one policy, one engine, one replication policy, one seed. Its
//! serialized form — struct field order, defaults filled in, `None`s
//! omitted — is the *canonical JSON* that [`crate::key::cell_key`] hashes,
//! so two spellings of the same cell (say, one relying on a default the
//! other writes out) share a store entry.
//!
//! Every struct here is `deny_unknown_fields`: a typo'd field in a spec
//! fails loudly at parse time instead of being silently defaulted.

use serde::{Deserialize, Serialize};
use vsched_core::{
    CoreError, Engine, ExperimentBuilder, MetricsReport, PolicyKind, SystemConfig, VmSpec,
    WorkloadSpec,
};
use vsched_stats::StoppingRule;

// The serde spellings of kernel parameters moved to `vsched-core` (the
// trace frontend parses them too); re-exported here unchanged, so the
// canonical cell JSON — and every content-addressed store key — is
// identical to before the move.
pub use vsched_core::spec::{DistSpec, SyncMechanismSpec};

/// A scheduling policy in a config file: a bare label (`"rrs"`) or a
/// parameterized object (`{"rcs": {"skew_threshold": 5, "skew_resume": 2}}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum PolicySpec {
    /// Bare label: `rrs`, `scs`, `rcs`, `balance`, `credit`, `sedf`,
    /// `bvt`, `fcfs`.
    Label(String),
    /// Parameterized relaxed co-scheduling.
    Rcs {
        /// The RCS parameters.
        rcs: RcsParams,
    },
    /// Parameterized credit scheduler.
    Credit {
        /// The credit parameters.
        credit: CreditParams,
    },
    /// Parameterized SEDF scheduler.
    Sedf {
        /// The SEDF parameters.
        sedf: SedfParams,
    },
    /// Parameterized BVT scheduler.
    Bvt {
        /// The BVT parameters.
        bvt: BvtParams,
    },
}

/// RCS parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RcsParams {
    /// Co-stop threshold (progress lead, in ticks).
    pub skew_threshold: u64,
    /// Resume level.
    pub skew_resume: u64,
}

/// Credit-scheduler parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CreditParams {
    /// Credit refill period in ticks.
    pub refill_period: u64,
}

/// SEDF parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SedfParams {
    /// Reservation period in ticks.
    pub period: u64,
}

/// BVT parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BvtParams {
    /// Maximum wake-up lag in weighted virtual-time units.
    pub max_lag: u64,
}

impl PolicySpec {
    /// Resolves to a [`PolicyKind`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown label.
    pub fn to_kind(&self) -> Result<PolicyKind, CoreError> {
        match self {
            PolicySpec::Label(label) => match label.to_ascii_lowercase().as_str() {
                "rrs" | "round-robin" | "roundrobin" => Ok(PolicyKind::RoundRobin),
                "scs" | "strict-co" | "strictco" => Ok(PolicyKind::StrictCo),
                "rcs" | "relaxed-co" | "relaxedco" => Ok(PolicyKind::relaxed_co_default()),
                "balance" | "bal" => Ok(PolicyKind::Balance),
                "credit" | "crd" => Ok(PolicyKind::credit_default()),
                "sedf" => Ok(PolicyKind::sedf_default()),
                "bvt" => Ok(PolicyKind::bvt_default()),
                "fcfs" => Ok(PolicyKind::Fcfs),
                other => Err(CoreError::InvalidConfig {
                    reason: format!("unknown policy `{other}`"),
                }),
            },
            PolicySpec::Rcs { rcs } => Ok(PolicyKind::RelaxedCo {
                skew_threshold: rcs.skew_threshold,
                skew_resume: rcs.skew_resume,
            }),
            PolicySpec::Credit { credit } => Ok(PolicyKind::Credit {
                refill_period: credit.refill_period,
            }),
            PolicySpec::Sedf { sedf } => Ok(PolicyKind::Sedf {
                period: sedf.period,
            }),
            PolicySpec::Bvt { bvt } => Ok(PolicyKind::Bvt {
                max_lag: bvt.max_lag,
            }),
        }
    }

    /// The canonical spec of a [`PolicyKind`]: default parameters collapse
    /// to the bare label (so the spec hashes to the same cell key as a
    /// hand-written `"rcs"`), non-default parameters stay explicit.
    /// Round-trips: `from_kind(k).to_kind() == k` for every kind.
    ///
    /// # Panics
    ///
    /// Panics on [`PolicyKind::Fault`], the verification-internal
    /// fault-injection wrapper, which has no campaign spec form.
    #[must_use]
    pub fn from_kind(kind: &PolicyKind) -> PolicySpec {
        let label = |s: &str| PolicySpec::Label(s.into());
        match *kind {
            PolicyKind::RoundRobin => label("rrs"),
            PolicyKind::StrictCo => label("scs"),
            PolicyKind::RelaxedCo {
                skew_threshold,
                skew_resume,
            } => {
                if *kind == PolicyKind::relaxed_co_default() {
                    label("rcs")
                } else {
                    PolicySpec::Rcs {
                        rcs: RcsParams {
                            skew_threshold,
                            skew_resume,
                        },
                    }
                }
            }
            PolicyKind::Balance => label("balance"),
            PolicyKind::Credit { refill_period } => {
                if *kind == PolicyKind::credit_default() {
                    label("credit")
                } else {
                    PolicySpec::Credit {
                        credit: CreditParams { refill_period },
                    }
                }
            }
            PolicyKind::Sedf { period } => {
                if *kind == PolicyKind::sedf_default() {
                    label("sedf")
                } else {
                    PolicySpec::Sedf {
                        sedf: SedfParams { period },
                    }
                }
            }
            PolicyKind::Bvt { max_lag } => {
                if *kind == PolicyKind::bvt_default() {
                    label("bvt")
                } else {
                    PolicySpec::Bvt {
                        bvt: BvtParams { max_lag },
                    }
                }
            }
            PolicyKind::Fcfs => label("fcfs"),
            // The fault-injection wrapper exists for verification fixtures
            // only; it deliberately has no spec form — a sweep cell that
            // sabotages its own policy would poison the result store.
            PolicyKind::Fault { .. } => {
                panic!("fault-injection wrappers have no campaign spec")
            }
        }
    }
}

/// How many replications a cell runs: a bare count (`5`) for an exact
/// number, or `{"min": 5, "max": 20}` for the paper's sequential stopping
/// rule (95% level, CI width < 0.1) bracketed by those bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum ReplicationSpec {
    /// Run exactly this many replications.
    Exact(usize),
    /// Run the paper's stopping rule between the given bounds.
    Rule {
        /// Minimum replications before the rule may stop.
        min: usize,
        /// Hard cap on replications.
        max: usize,
    },
}

impl Default for ReplicationSpec {
    fn default() -> Self {
        ReplicationSpec::Rule { min: 5, max: 20 }
    }
}

impl ReplicationSpec {
    /// Rejects replication counts no run could satisfy: every cell's
    /// report carries confidence intervals, which need two samples.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an exact count or a rule minimum
    /// below 2, or inverted rule bounds.
    pub fn validate(&self) -> Result<(), CoreError> {
        let invalid = |reason: String| Err(CoreError::InvalidConfig { reason });
        match *self {
            ReplicationSpec::Exact(n) if n < 2 => invalid(format!(
                "replications must be at least 2 (confidence intervals need two samples), got {n}"
            )),
            ReplicationSpec::Rule { min, .. } if min < 2 => invalid(format!(
                "replications rule minimum must be at least 2 (confidence intervals need two \
                 samples), got {min}"
            )),
            ReplicationSpec::Rule { min, max } if min > max => invalid(format!(
                "replication rule minimum ({min}) exceeds maximum ({max})"
            )),
            _ => Ok(()),
        }
    }
}

fn default_sync_ratio() -> (u32, u32) {
    (1, 5)
}

fn default_timeslice() -> u64 {
    30
}

fn default_load() -> DistSpec {
    DistSpec::Uniform {
        low: 5.0,
        high: 15.0,
    }
}

fn default_policy() -> PolicySpec {
    PolicySpec::Label("rrs".into())
}

fn default_warmup() -> u64 {
    1_000
}

fn default_horizon() -> u64 {
    20_000
}

fn default_seed() -> u64 {
    0x5eed
}

/// Overrides of one VM's workload, relative to the cell's shared workload
/// fields. Every field is optional; omissions inherit the cell-level
/// value. Used by heterogeneous scenarios (e.g. the policy tournament's
/// corpus), where VMs differ in load, sync behavior, or both.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VmWorkloadSpec {
    /// Job-duration distribution override.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub load: Option<DistSpec>,
    /// Synchronization-ratio override.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sync_ratio: Option<(u32, u32)>,
    /// Deterministic every-`k`-th sync-point override.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sync_every: Option<u32>,
    /// Synchronization-mechanism override.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sync_mechanism: Option<SyncMechanismSpec>,
    /// Interarrival-distribution override.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub interarrival: Option<DistSpec>,
}

impl VmWorkloadSpec {
    /// Whether this override changes nothing. Cell builders drop all-noop
    /// override lists so the canonical form (and store key) collapses to
    /// the homogeneous spelling.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        *self == VmWorkloadSpec::default()
    }
}

/// A fully-resolved campaign cell: everything one simulation run depends
/// on. The serialized form of this struct (after a parse round-trip, so
/// defaults are materialized and field order is fixed) is the canonical
/// representation hashed by [`crate::key::cell_key`].
///
/// All VMs share one workload characterization by default — the paper's
/// evaluation setting. Heterogeneous cells (per-VM weights or workload
/// overrides) use the optional `weights` / `vm_workloads` fields; when
/// those are omitted the serialized form — and therefore the store key —
/// is identical to a pre-extension cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CellConfig {
    /// Number of physical CPUs. Omitted for trace cells (the trace header
    /// carries the platform) — except CSV traces, whose datasets carry no
    /// platform, where it supplies the PCPU count.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub pcpus: usize,
    /// VCPU count of each VM, e.g. `[2, 1, 1]`. Empty (and omitted from
    /// the canonical form) for trace cells: the trace defines the VMs.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub vms: Vec<usize>,
    /// Path to a workload trace (`.jsonl` standard format, or `.csv`
    /// Azure-style lifetimes). When set, the cell is **trace-driven**: the
    /// trace supplies topology and workload, and the cell's `policy`,
    /// `engine`, `warmup`, `horizon`, `seed` and `replications` control
    /// the run. The path enters the canonical cell JSON, so distinct
    /// traces get distinct store keys.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<String>,
    /// Proportional-share weight of each VM (default: all 1). When set,
    /// the length must match `vms`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub weights: Option<Vec<u32>>,
    /// Synchronization ratio as the paper writes it: `[1, 5]` is 1:5.
    #[serde(default = "default_sync_ratio")]
    pub sync_ratio: (u32, u32),
    /// Direct Bernoulli sync-point probability. Overrides `sync_ratio`;
    /// mutually exclusive with `sync_every`. Lets cells express
    /// fuzz-generated scenarios whose probability is not a small ratio.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sync_probability: Option<f64>,
    /// Deterministic pattern: every `k`-th workload is a sync point. When
    /// set, the Bernoulli `sync_ratio` probability is disabled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sync_every: Option<u32>,
    /// `"barrier"` (default) or `"spinlock"`.
    #[serde(default)]
    pub sync_mechanism: SyncMechanismSpec,
    /// Scheduler timeslice in ticks (default 30).
    #[serde(default = "default_timeslice")]
    pub timeslice: u64,
    /// Job-duration distribution (default: the paper's uniform `[5, 15)`).
    #[serde(default = "default_load")]
    pub load: DistSpec,
    /// Interarrival distribution; omit for a saturated generator.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub interarrival: Option<DistSpec>,
    /// Per-VM workload overrides of the shared fields above. When set,
    /// the length must match `vms`; entry `i` overrides VM `i`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub vm_workloads: Option<Vec<VmWorkloadSpec>>,
    /// The scheduling policy (default `"rrs"`).
    #[serde(default = "default_policy")]
    pub policy: PolicySpec,
    /// `"san"` (default) or `"direct"`.
    #[serde(default)]
    pub engine: Engine,
    /// Warm-up ticks per replication (default 1000).
    #[serde(default = "default_warmup")]
    pub warmup: u64,
    /// Observed ticks per replication (default 20000).
    #[serde(default = "default_horizon")]
    pub horizon: u64,
    /// Replication policy (default: stopping rule, min 5, max 20).
    #[serde(default)]
    pub replications: ReplicationSpec,
    /// Base RNG seed (default `0x5eed`).
    #[serde(default = "default_seed")]
    pub seed: u64,
}

impl Default for CellConfig {
    /// The cell an empty JSON object describes: every default above, and
    /// no topology yet.
    fn default() -> Self {
        CellConfig {
            pcpus: 0,
            vms: Vec::new(),
            trace: None,
            weights: None,
            sync_ratio: default_sync_ratio(),
            sync_probability: None,
            sync_every: None,
            sync_mechanism: SyncMechanismSpec::default(),
            timeslice: default_timeslice(),
            load: default_load(),
            interarrival: None,
            vm_workloads: None,
            policy: default_policy(),
            engine: Engine::default(),
            warmup: default_warmup(),
            horizon: default_horizon(),
            replications: ReplicationSpec::default(),
            seed: default_seed(),
        }
    }
}

impl CellConfig {
    /// Rejects a cell no run could use, before any simulation (or store
    /// hashing) sees it: everything [`CellConfig::system`] checks short of
    /// reading the trace, an unsatisfiable replication policy, and policy
    /// parameters outside their domain ([`PolicyKind::validate`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.own_system()?;
        self.replications.validate()?;
        self.policy.to_kind()?.validate()
    }

    /// Checks the cell's shape rules, then loads and compiles its trace
    /// schedule. The schedule's config is the cell's system.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a cell that breaks its shape
    /// rules or has no `trace`, or with the trace reader/compiler's
    /// `path:line`-annotated message when the file is missing or
    /// malformed.
    pub fn schedule(&self) -> Result<vsched_trace::TraceSchedule, CoreError> {
        self.own_system()?;
        let Some(trace) = &self.trace else {
            return Err(CoreError::InvalidConfig {
                reason: "cell has no `trace` field".into(),
            });
        };
        let csv_meta = vsched_trace::TraceMeta::new(self.pcpus);
        vsched_trace::load_trace(std::path::Path::new(trace), &csv_meta).map_err(|e| {
            CoreError::InvalidConfig {
                reason: e.to_string(),
            }
        })
    }

    /// Builds the [`SystemConfig`] this cell describes. For trace cells
    /// this is the trace's **union** topology (every VM that ever
    /// appears) — what lint inspects and what sizes the metric vectors.
    /// It checks what the system needs and no more: the replication
    /// policy and the policy are [`CellConfig::validate`]'s.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a cell that breaks its shape rules
    /// or core's ranges (no VMs, zero timeslice, bad sync ratio, …), or
    /// an unreadable trace.
    pub fn system(&self) -> Result<SystemConfig, CoreError> {
        if self.trace.is_some() {
            return Ok(self.schedule()?.config().clone());
        }
        self.own_system()
    }

    /// The cell's shape rules, then the system core's builder makes from
    /// the cell's own fields, with every range check. A trace cell's VMs
    /// come from its trace, so its timeslice and shared workload fields
    /// go through core on one 1-VCPU stand-in VM.
    fn own_system(&self) -> Result<SystemConfig, CoreError> {
        let invalid = |reason: String| Err(CoreError::InvalidConfig { reason });
        let (pcpus, vms) = if let Some(trace) = &self.trace {
            // The trace defines the topology; conflicting static fields
            // are rejected rather than silently ignored.
            if !self.vms.is_empty() {
                return invalid("trace cells must omit `vms` (the trace defines the VMs)".into());
            }
            if self.weights.is_some() || self.vm_workloads.is_some() {
                return invalid(
                    "trace cells must omit `weights`/`vm_workloads` (per-VM shape lives in the trace)"
                        .into(),
                );
            }
            vsched_trace::check_platform(std::path::Path::new(trace), self.pcpus)?;
            (1, &[1][..])
        } else if self.pcpus == 0 || self.vms.is_empty() {
            return invalid("need at least 1 PCPU and 1 VM (or a `trace`)".into());
        } else {
            (self.pcpus, &self.vms[..])
        };
        if let Some(weights) = &self.weights {
            if weights.len() != vms.len() {
                return invalid(format!(
                    "weights has {} entries for {} VMs",
                    weights.len(),
                    vms.len()
                ));
            }
        }
        if self.sync_probability.is_some() && self.sync_every.is_some() {
            return invalid("sync_probability and sync_every are mutually exclusive".into());
        }
        if let Some(overrides) = &self.vm_workloads {
            if overrides.len() != vms.len() {
                return invalid(format!(
                    "vm_workloads has {} entries for {} VMs",
                    overrides.len(),
                    vms.len()
                ));
            }
        }
        let mut workload = WorkloadSpec::paper_default();
        workload.load = self.load.to_dist()?;
        workload = workload.with_sync_ratio(self.sync_ratio.0, self.sync_ratio.1)?;
        if let Some(k) = self.sync_every {
            workload.sync_probability = 0.0;
            workload = workload.with_sync_every(k)?;
        }
        if let Some(p) = self.sync_probability {
            workload.sync_probability = p;
        }
        workload.sync_mechanism = self.sync_mechanism.to_mechanism();
        workload.interarrival = match &self.interarrival {
            Some(d) => Some(d.to_dist()?),
            None => None,
        };
        let mut b = SystemConfig::builder()
            .pcpus(pcpus)
            .timeslice(self.timeslice);
        for (i, &vcpus) in vms.iter().enumerate() {
            let mut vm_workload = workload.clone();
            if let Some(ov) = self.vm_workloads.as_ref().map(|o| &o[i]) {
                if let Some(load) = &ov.load {
                    vm_workload.load = load.to_dist()?;
                }
                if let Some((a, b)) = ov.sync_ratio {
                    vm_workload = vm_workload.with_sync_ratio(a, b)?;
                }
                if let Some(k) = ov.sync_every {
                    vm_workload.sync_probability = 0.0;
                    vm_workload = vm_workload.with_sync_every(k)?;
                }
                if let Some(mechanism) = ov.sync_mechanism {
                    vm_workload.sync_mechanism = mechanism.to_mechanism();
                }
                if let Some(inter) = &ov.interarrival {
                    vm_workload.interarrival = Some(inter.to_dist()?);
                }
            }
            b = b.vm_spec(VmSpec {
                vcpus,
                workload: vm_workload,
                weight: self.weights.as_ref().map_or(1, |w| w[i]),
            });
        }
        b.build()
    }

    /// Resolves the policy.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown policy label.
    pub fn policy_kind(&self) -> Result<PolicyKind, CoreError> {
        self.policy.to_kind()
    }

    /// Builds a ready-to-run [`ExperimentBuilder`] for this cell.
    /// Replications run in parallel unless the caller says otherwise;
    /// results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`CellConfig::validate`]; rejects
    /// trace cells (which run through [`CellConfig::run_trace`], not the
    /// static builder).
    pub fn builder(&self) -> Result<ExperimentBuilder, CoreError> {
        self.validate()?;
        if self.trace.is_some() {
            return Err(CoreError::InvalidConfig {
                reason: "trace cells have no static builder; use run_trace()".into(),
            });
        }
        let b = ExperimentBuilder::new(self.system()?, self.policy_kind()?)
            .engine(self.engine)
            .warmup(self.warmup)
            .horizon(self.horizon)
            .seed(self.seed);
        Ok(match self.replications {
            ReplicationSpec::Exact(n) => b.replications_exact(n),
            ReplicationSpec::Rule { min, max } => b.stopping_rule(
                StoppingRule::paper_default()
                    .with_min_replications(min)
                    .with_max_replications(max),
            ),
        })
    }

    /// Runs this trace cell over its compiled `schedule`
    /// ([`CellConfig::schedule`]) on `jobs` replication workers (`0`: one
    /// per core; results are bit-identical for every count) and returns
    /// the report and the run fingerprint
    /// ([`vsched_trace::TraceReport::fingerprint`]). There is no stopping
    /// rule mid-trace: `replications: N` runs N; a rule runs its `min`.
    ///
    /// # Errors
    ///
    /// Validation and engine errors.
    pub fn run_trace(
        &self,
        schedule: vsched_trace::TraceSchedule,
        jobs: usize,
    ) -> Result<(MetricsReport, u64), CoreError> {
        self.validate()?;
        let replications = match self.replications {
            ReplicationSpec::Exact(n) => n,
            ReplicationSpec::Rule { min, .. } => min,
        };
        let (vcpus, pcpus) = (schedule.config().total_vcpus(), schedule.config().pcpus());
        let result = vsched_trace::TraceExperiment::new(schedule, self.policy_kind()?)
            .engine(self.engine)
            .warmup(self.warmup)
            .horizon(self.horizon)
            .seed(self.seed)
            .replications(replications)
            .jobs(jobs)
            .run()?;
        let report = result.metrics_report(vcpus, pcpus, StoppingRule::paper_default().level)?;
        Ok((report, result.fingerprint))
    }

    /// Runs the cell to completion — the orchestrator's single entry
    /// point. Static cells go through [`CellConfig::builder`]; trace
    /// cells compile their schedule and go through
    /// [`CellConfig::run_trace`], which yields the same [`MetricsReport`]
    /// shape, so the result store and every renderer are agnostic to how
    /// the cell was driven.
    ///
    /// Replications run sequentially (`jobs(1)`): campaigns parallelize
    /// across *cells* on the shared `vsched-exec` pool, and replication
    /// results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Validation, trace-loading and engine errors.
    pub fn run_report(&self) -> Result<MetricsReport, CoreError> {
        if self.trace.is_none() {
            return self.builder()?.jobs(1).run();
        }
        Ok(self.run_trace(self.schedule()?, 1)?.0)
    }

    /// One-line description for progress reporting, e.g.
    /// `rcs 4p [2,4] 1:5 san` — or, for a trace cell,
    /// `rcs trace:churn_small.jsonl san`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown policy label.
    pub fn summary(&self) -> Result<String, CoreError> {
        if let Some(trace) = &self.trace {
            let name = std::path::Path::new(trace)
                .file_name()
                .map_or_else(|| trace.clone(), |f| f.to_string_lossy().into_owned());
            return Ok(format!(
                "{} trace:{} {}",
                self.policy_kind()?.label(),
                name,
                self.engine.label()
            ));
        }
        let vms: Vec<String> = self.vms.iter().map(ToString::to_string).collect();
        Ok(format!(
            "{} {}p [{}] {}:{} {}",
            self.policy_kind()?.label(),
            self.pcpus,
            vms.join(","),
            self.sync_ratio.0,
            self.sync_ratio.1,
            self.engine.label()
        ))
    }
}

/// `skip_serializing_if` gate for `pcpus`: `0` means "the trace supplies
/// the platform" and is omitted from the canonical form; every static
/// cell has a nonzero count, so pre-trace store keys are unchanged.
#[allow(clippy::trivially_copy_pass_by_ref)]
fn is_zero(n: &usize) -> bool {
    *n == 0
}

fn default_version() -> u32 {
    1
}

fn default_report() -> String {
    "summary".into()
}

/// One point on an axis (or one `extra` cell): a partial override of the
/// experiment's base cell config, with an optional display label.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PointSpec {
    /// Display label used by renderers (e.g. a workload-case name).
    /// Defaults to the compact JSON of `set`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub label: Option<String>,
    /// Field overrides, as a JSON object of [`CellConfig`] fields.
    pub set: serde_json::Value,
}

/// One sweep axis: a name and the points the grid takes along it.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AxisSpec {
    /// Axis name (documentation and error messages).
    pub name: String,
    /// The points; the grid takes each in order.
    pub points: Vec<PointSpec>,
}

/// One experiment: a named grid of cells plus the report that renders it.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExperimentSpec {
    /// Experiment name; also the output file stem (`<name>.json`).
    pub name: String,
    /// Renderer id (see `crate::render`); default `"summary"`.
    #[serde(default = "default_report")]
    pub report: String,
    /// Base cell config, as a JSON object of [`CellConfig`] fields.
    pub base: serde_json::Value,
    /// The sweep axes; the grid is their cartesian product, expanded
    /// row-major (first axis slowest). May be empty for a single cell.
    #[serde(default)]
    pub axes: Vec<AxisSpec>,
    /// Additional cells that do not fit the product structure (coupled
    /// parameters), appended after the grid.
    #[serde(default)]
    pub extra: Vec<PointSpec>,
}

/// A complete sweep specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSpec {
    /// Spec format version; must be 1.
    #[serde(default = "default_version")]
    pub version: u32,
    /// Result-store directory, relative to the spec file. Defaults to
    /// `.campaign-store` next to the spec; `--store` overrides.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub store: Option<String>,
    /// Output directory for rendered figures, relative to the spec file.
    /// Defaults to `results` next to the spec; `--out-dir` overrides.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub output: Option<String>,
    /// The experiments.
    pub experiments: Vec<ExperimentSpec>,
}

impl SweepSpec {
    /// Parses a sweep spec from JSON text and validates its shape.
    ///
    /// # Errors
    ///
    /// [`crate::CampaignError::Spec`] for malformed JSON, an unsupported
    /// version, no experiments, or duplicate experiment names.
    pub fn from_json(text: &str) -> Result<Self, crate::CampaignError> {
        let spec: SweepSpec = serde_json::from_str(text).map_err(crate::CampaignError::spec)?;
        if spec.version != 1 {
            return Err(crate::CampaignError::spec(format!(
                "unsupported spec version {} (expected 1)",
                spec.version
            )));
        }
        if spec.experiments.is_empty() {
            return Err(crate::CampaignError::spec("no experiments defined"));
        }
        let mut seen = std::collections::HashSet::new();
        for exp in &spec.experiments {
            if !seen.insert(exp.name.as_str()) {
                return Err(crate::CampaignError::spec(format!(
                    "duplicate experiment name `{}`",
                    exp.name
                )));
            }
        }
        Ok(spec)
    }

    /// Reads and parses a sweep spec file.
    ///
    /// # Errors
    ///
    /// [`crate::CampaignError::Io`] if the file cannot be read, plus the
    /// conditions of [`SweepSpec::from_json`].
    pub fn load(path: &std::path::Path) -> Result<Self, crate::CampaignError> {
        let text = std::fs::read_to_string(path).map_err(|e| crate::CampaignError::io(path, e))?;
        Self::from_json(&text)
            .map_err(|e| crate::CampaignError::spec(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsched_core::config::SyncMechanism;

    #[test]
    fn minimal_cell_uses_paper_defaults() {
        let cell: CellConfig = serde_json::from_str(r#"{ "pcpus": 4, "vms": [2, 1, 1] }"#).unwrap();
        assert_eq!(cell.sync_ratio, (1, 5));
        assert_eq!(cell.timeslice, 30);
        assert_eq!(cell.engine, Engine::San);
        assert_eq!(cell.warmup, 1_000);
        assert_eq!(cell.horizon, 20_000);
        assert_eq!(cell.replications, ReplicationSpec::Rule { min: 5, max: 20 });
        assert_eq!(cell.seed, 0x5eed);
        let system = cell.system().unwrap();
        assert_eq!(system.pcpus(), 4);
        assert_eq!(system.total_vcpus(), 4);
        assert!((system.vms()[0].workload.sync_probability - 0.2).abs() < 1e-12);
    }

    #[test]
    fn default_cell_is_the_empty_object() {
        let parsed: CellConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(CellConfig::default(), parsed);
    }

    #[test]
    fn cell_matches_bench_paper_config() {
        // The campaign cell must reproduce the builder-made paper
        // configuration (`paper_config` in `tests/golden_figures.rs`)
        // exactly — figure regeneration depends on it.
        let cell: CellConfig =
            serde_json::from_str(r#"{ "pcpus": 4, "vms": [2, 4], "sync_ratio": [1, 3] }"#).unwrap();
        let sys = cell.system().unwrap();
        let mut b = SystemConfig::builder().pcpus(4).sync_ratio(1, 3);
        for n in [2usize, 4] {
            b = b.vm(n);
        }
        let reference = b.build().unwrap();
        assert_eq!(sys, reference);
    }

    #[test]
    fn typo_fields_fail_loudly() {
        let err =
            serde_json::from_str::<CellConfig>(r#"{ "pcpus": 4, "vms": [2], "timeslise": 10 }"#)
                .unwrap_err();
        assert!(err.to_string().contains("timeslise"), "{err}");
        assert!(
            serde_json::from_str::<SweepSpec>(r#"{ "experiments": [], "experimentz": [] }"#)
                .is_err()
        );
    }

    #[test]
    fn sync_every_disables_bernoulli() {
        let cell: CellConfig = serde_json::from_str(
            r#"{ "pcpus": 4, "vms": [2, 4], "sync_ratio": [1, 3], "sync_every": 3 }"#,
        )
        .unwrap();
        let sys = cell.system().unwrap();
        assert_eq!(sys.vms()[0].workload.sync_probability, 0.0);
        assert_eq!(sys.vms()[0].workload.sync_every, Some(3));
    }

    #[test]
    fn spinlock_mechanism_applies() {
        let cell: CellConfig =
            serde_json::from_str(r#"{ "pcpus": 4, "vms": [2, 3], "sync_mechanism": "spinlock" }"#)
                .unwrap();
        let sys = cell.system().unwrap();
        assert_eq!(
            sys.vms()[0].workload.sync_mechanism,
            SyncMechanism::SpinLock
        );
    }

    #[test]
    fn replication_spec_forms() {
        let exact: ReplicationSpec = serde_json::from_str("5").unwrap();
        assert_eq!(exact, ReplicationSpec::Exact(5));
        let rule: ReplicationSpec = serde_json::from_str(r#"{ "min": 3, "max": 7 }"#).unwrap();
        assert_eq!(rule, ReplicationSpec::Rule { min: 3, max: 7 });
    }

    #[test]
    fn replication_spec_rejects_empty_budgets() {
        assert!(ReplicationSpec::Exact(0).validate().is_err());
        assert!(ReplicationSpec::Rule { min: 0, max: 5 }.validate().is_err());
        assert!(ReplicationSpec::Rule { min: 9, max: 5 }.validate().is_err());
        // One sample gives no confidence interval: no run could use it.
        for one in [
            ReplicationSpec::Exact(1),
            ReplicationSpec::Rule { min: 1, max: 5 },
        ] {
            let err = one.validate().unwrap_err();
            assert!(err.to_string().contains("replications"), "{err}");
        }
        assert!(ReplicationSpec::Exact(2).validate().is_ok());
        assert!(ReplicationSpec::Rule { min: 2, max: 2 }.validate().is_ok());
        assert!(ReplicationSpec::Rule { min: 5, max: 5 }.validate().is_ok());
    }

    #[test]
    fn cell_validation_rejects_out_of_range_parameters() {
        let base = r#"{ "pcpus": 2, "vms": [2] }"#;
        let ok: CellConfig = serde_json::from_str(base).unwrap();
        ok.validate().unwrap();

        let cell: CellConfig =
            serde_json::from_str(r#"{ "pcpus": 2, "vms": [2], "timeslice": 0 }"#).unwrap();
        let err = cell.validate().unwrap_err();
        assert!(err.to_string().contains("timeslice"), "{err}");
        assert!(cell.builder().is_err(), "builder must also refuse");

        let cell: CellConfig =
            serde_json::from_str(r#"{ "pcpus": 2, "vms": [2], "replications": 0 }"#).unwrap();
        assert!(cell.validate().is_err());

        let cell: CellConfig = serde_json::from_str(
            r#"{ "pcpus": 2, "vms": [2],
                 "policy": { "rcs": { "skew_threshold": 0, "skew_resume": 0 } } }"#,
        )
        .unwrap();
        let err = cell.validate().unwrap_err();
        assert!(err.to_string().contains("skew_threshold"), "{err}");
    }

    #[test]
    fn heterogeneous_cell_applies_weights_and_overrides() {
        let cell: CellConfig = serde_json::from_str(
            r#"{ "pcpus": 4, "vms": [4, 2], "weights": [4, 1],
                 "vm_workloads": [
                   { "load": { "uniform": { "low": 5.0, "high": 15.0 } },
                     "sync_ratio": [1, 3], "sync_mechanism": "spinlock" },
                   {} ] }"#,
        )
        .unwrap();
        let sys = cell.system().unwrap();
        assert_eq!(sys.vms()[0].weight, 4);
        assert_eq!(sys.vms()[1].weight, 1);
        assert_eq!(
            sys.vms()[0].workload.sync_mechanism,
            SyncMechanism::SpinLock
        );
        assert_eq!(sys.vms()[1].workload.sync_mechanism, SyncMechanism::Barrier);
        assert!((sys.vms()[0].workload.sync_probability - 1.0 / 3.0).abs() < 1e-12);
        assert!(
            (sys.vms()[1].workload.sync_probability - 0.2).abs() < 1e-12,
            "paper default"
        );
        assert!(cell.vm_workloads.as_ref().unwrap()[1].is_noop());
    }

    #[test]
    fn sync_probability_overrides_ratio() {
        let cell: CellConfig =
            serde_json::from_str(r#"{ "pcpus": 2, "vms": [2], "sync_probability": 0.17 }"#)
                .unwrap();
        let sys = cell.system().unwrap();
        assert!((sys.vms()[0].workload.sync_probability - 0.17).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_cell_validation() {
        let bad = |json: &str, needle: &str| {
            let cell: CellConfig = serde_json::from_str(json).unwrap();
            let err = cell.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        };
        bad(
            r#"{ "pcpus": 2, "vms": [2, 1], "weights": [1] }"#,
            "weights",
        );
        bad(
            r#"{ "pcpus": 2, "vms": [2], "weights": [0] }"#,
            "zero weight",
        );
        bad(
            r#"{ "pcpus": 2, "vms": [2], "sync_probability": 1.5 }"#,
            "sync_probability",
        );
        bad(
            r#"{ "pcpus": 2, "vms": [2], "sync_probability": 0.2, "sync_every": 3 }"#,
            "mutually exclusive",
        );
        bad(
            r#"{ "pcpus": 2, "vms": [2, 1], "vm_workloads": [{}] }"#,
            "vm_workloads",
        );
    }

    #[test]
    fn homogeneous_cells_keep_their_canonical_form() {
        // The new optional fields must be invisible in the canonical JSON
        // of a cell that does not use them — store keys of every
        // previously-simulated cell stay valid.
        let cell: CellConfig =
            serde_json::from_str(r#"{ "pcpus": 4, "vms": [2, 4], "sync_ratio": [1, 3] }"#).unwrap();
        let canonical = serde_json::to_string(&cell).unwrap();
        for absent in ["weights", "sync_probability", "vm_workloads", "trace"] {
            assert!(!canonical.contains(absent), "{absent} leaked: {canonical}");
        }
        // … and the static fields still serialize.
        assert!(canonical.contains("\"pcpus\":4"), "{canonical}");
        assert!(canonical.contains("\"vms\":[2,4]"), "{canonical}");
    }

    fn write_tiny_trace() -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("vsched-cell-trace-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"meta\":{\"pcpus\":2}}\n\
             {\"time\":0,\"vm\":\"a\",\"arrive\":{\"vcpus\":2}}\n\
             {\"time\":0,\"vm\":\"b\",\"arrive\":{\"vcpus\":1}}\n\
             {\"time\":100,\"vm\":\"b\",\"depart\":true}\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn trace_cells_validate_and_enter_the_canonical_form() {
        let cell: CellConfig =
            serde_json::from_str(r#"{ "trace": "configs/traces/churn_small.jsonl" }"#).unwrap();
        cell.validate().unwrap();
        let canonical = serde_json::to_string(&cell).unwrap();
        assert!(canonical.contains("churn_small.jsonl"), "{canonical}");
        assert!(
            !canonical.contains("pcpus") && !canonical.contains("vms"),
            "omitted topology leaked: {canonical}"
        );
        // Distinct traces hash to distinct store keys.
        let other: CellConfig =
            serde_json::from_str(r#"{ "trace": "configs/traces/other.jsonl" }"#).unwrap();
        assert_ne!(crate::key::cell_key(&cell), crate::key::cell_key(&other));
        // The static builder refuses trace cells.
        assert!(cell.builder().is_err());
    }

    #[test]
    fn trace_cell_validation_rejects_conflicts() {
        let bad = |json: &str, needle: &str| {
            let cell: CellConfig = serde_json::from_str(json).unwrap();
            let err = cell.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        };
        bad(r#"{ "trace": "t.jsonl", "vms": [2] }"#, "omit `vms`");
        bad(r#"{ "trace": "t.jsonl", "pcpus": 2 }"#, "omit `pcpus`");
        bad(r#"{ "trace": "t.csv" }"#, "set `pcpus`");
        bad(r#"{ }"#, "at least 1 PCPU");
        bad(r#"{ "pcpus": 2 }"#, "at least 1 PCPU");
        // A CSV trace with a platform is fine.
        let cell: CellConfig = serde_json::from_str(r#"{ "trace": "t.csv", "pcpus": 4 }"#).unwrap();
        cell.validate().unwrap();
    }

    #[test]
    fn trace_cell_runs_to_a_metrics_report() {
        let path = write_tiny_trace();
        let cell: CellConfig = serde_json::from_str(&format!(
            r#"{{ "trace": {:?}, "policy": "rrs", "engine": "direct",
                  "warmup": 50, "horizon": 300, "replications": 3 }}"#,
            path.to_string_lossy()
        ))
        .unwrap();
        assert_eq!(cell.summary().unwrap().split(' ').next(), Some("RRS"));
        assert!(cell.summary().unwrap().contains("trace:"));
        let system = cell.system().unwrap();
        assert_eq!(system.total_vcpus(), 3, "union topology");
        let report = cell.run_report().unwrap();
        assert_eq!(report.replications, 3);
        assert_eq!(report.vcpu_availability.len(), 3);
        // Bit-stable across runs (same seeds, sequential merge order).
        let again = cell.run_report().unwrap();
        assert_eq!(report, again);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_cell_with_missing_file_reports_the_path() {
        let cell: CellConfig =
            serde_json::from_str(r#"{ "trace": "/nonexistent/t.jsonl" }"#).unwrap();
        let err = cell.run_report().unwrap_err();
        assert!(err.to_string().contains("/nonexistent/t.jsonl"), "{err}");
    }

    #[test]
    fn policy_spec_from_kind_round_trips() {
        for kind in PolicyKind::all() {
            let spec = PolicySpec::from_kind(&kind);
            assert!(
                matches!(spec, PolicySpec::Label(_)),
                "registry defaults collapse to labels: {kind}"
            );
            assert_eq!(spec.to_kind().unwrap(), kind);
        }
        for kind in [
            PolicyKind::RelaxedCo {
                skew_threshold: 9,
                skew_resume: 4,
            },
            PolicyKind::Credit { refill_period: 77 },
            PolicyKind::Sedf { period: 55 },
            PolicyKind::Bvt { max_lag: 1234 },
        ] {
            let spec = PolicySpec::from_kind(&kind);
            assert!(!matches!(spec, PolicySpec::Label(_)), "{kind}");
            assert_eq!(spec.to_kind().unwrap(), kind);
            // And the parameterized forms survive a JSON round trip.
            let json = serde_json::to_string(&spec).unwrap();
            let back: PolicySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn sweep_spec_validation() {
        assert!(SweepSpec::from_json(r#"{ "experiments": [] }"#).is_err());
        assert!(SweepSpec::from_json(
            r#"{ "version": 2,
                 "experiments": [ { "name": "a", "base": { "pcpus": 1, "vms": [1] } } ] }"#
        )
        .is_err());
        assert!(SweepSpec::from_json(
            r#"{ "experiments": [
                   { "name": "a", "base": { "pcpus": 1, "vms": [1] } },
                   { "name": "a", "base": { "pcpus": 2, "vms": [1] } } ] }"#
        )
        .is_err());
        let ok = SweepSpec::from_json(
            r#"{ "experiments": [ { "name": "a", "base": { "pcpus": 1, "vms": [1] } } ] }"#,
        )
        .unwrap();
        assert_eq!(ok.version, 1);
        assert_eq!(ok.experiments[0].report, "summary");
    }
}
