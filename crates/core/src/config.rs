//! System configuration: VMs, VCPUs, PCPUs, workloads, and simulation
//! parameters.
//!
//! Mirrors what a Mobius user of the paper's framework configures through
//! the GUI: the number of PCPUs, the set of VM sub-models (each with its
//! VCPU count), the workload distribution and the synchronization-point
//! ratio.

use std::ops::Range;

use serde::{Deserialize, Serialize};
use vsched_des::Dist;

use crate::error::CoreError;
use crate::types::VcpuId;

/// How a VM's synchronization points behave.
///
/// The paper evaluates only barriers ("For this project, we only consider
/// barrier synchronization") and lists "represent more synchronization
/// mechanisms" as future work (§V); [`SyncMechanism::SpinLock`] is that
/// extension, modeling the guest-kernel critical sections of §II.B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SyncMechanism {
    /// A synchronization-point workload is a **barrier**: the VM generates
    /// no further workloads until every outstanding job completes (the
    /// paper's semantics).
    #[default]
    Barrier,
    /// A synchronization-point workload is a **critical section** guarded
    /// by one VM-wide spinlock: it holds the lock for its entire duration.
    /// Sibling jobs that need the lock *spin* — they burn PCPU time
    /// without making progress — until the holder releases it. A preempted
    /// holder ("lock-holder preemption", the semantic-gap problem of
    /// §II.B) leaves its siblings spinning for whole timeslices.
    SpinLock,
}

/// Workload characterization of one VM (the paper's Workload Generator
/// sub-model parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Distribution of the job *load duration* — the number of ticks a VCPU
    /// needs to process one workload. Samples are rounded and clamped to at
    /// least 1 tick.
    pub load: Dist,
    /// Probability that a generated workload is a synchronization point
    /// (barrier or critical section, per [`WorkloadSpec::sync_mechanism`]).
    /// A 1:5 sync ratio is probability 0.2.
    pub sync_probability: f64,
    /// What a synchronization point means (default: barrier, as in the
    /// paper).
    pub sync_mechanism: SyncMechanism,
    /// Deterministic synchronization pattern: `Some(k)` makes exactly
    /// every `k`-th generated workload a synchronization point (the
    /// literal reading of the paper's "the 1:5 ratio means that for five
    /// workloads there is one synchronization point"), overriding the
    /// Bernoulli `sync_probability`. `None` (default) samples each
    /// workload independently with `sync_probability`.
    pub sync_every: Option<u32>,
    /// Interarrival-time distribution of workload generation, or `None` for
    /// a *saturated* generator that always has work available (the paper's
    /// evaluation setting: generation "interrupted only when
    /// synchronization points block the VMs").
    pub interarrival: Option<Dist>,
}

impl WorkloadSpec {
    /// The paper's evaluation workload: saturated generation, uniform load
    /// on `[5, 15)` ticks, 1:5 synchronization ratio.
    #[must_use]
    pub fn paper_default() -> Self {
        WorkloadSpec {
            load: Dist::Uniform {
                low: 5.0,
                high: 15.0,
            },
            sync_probability: 0.2,
            sync_mechanism: SyncMechanism::Barrier,
            sync_every: None,
            interarrival: None,
        }
    }

    /// Sets the sync ratio as the paper writes it: `1:k` means one
    /// synchronization point per `k` workloads, i.e. probability `1/k`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `points` or `per_workloads` is zero
    /// or the resulting probability exceeds 1.
    pub fn with_sync_ratio(mut self, points: u32, per_workloads: u32) -> Result<Self, CoreError> {
        if points == 0 || per_workloads == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "sync ratio terms must be positive".into(),
            });
        }
        let p = f64::from(points) / f64::from(per_workloads);
        if p > 1.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("sync ratio {points}:{per_workloads} exceeds 1 point per workload"),
            });
        }
        self.sync_probability = p;
        Ok(self)
    }

    /// Switches synchronization points to spinlock critical sections.
    #[must_use]
    pub fn with_spinlock(mut self) -> Self {
        self.sync_mechanism = SyncMechanism::SpinLock;
        self
    }

    /// Makes exactly every `k`-th workload a synchronization point
    /// (deterministic pattern) instead of Bernoulli sampling.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `k` is zero.
    pub fn with_sync_every(mut self, k: u32) -> Result<Self, CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "sync_every must be at least 1".into(),
            });
        }
        self.sync_every = Some(k);
        Ok(self)
    }

    fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..=1.0).contains(&self.sync_probability) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "sync_probability must be in [0, 1], got {}",
                    self.sync_probability
                ),
            });
        }
        Ok(())
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::paper_default()
    }
}

/// One VM sub-model: a VCPU count plus a workload characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// Number of VCPUs ("users can plug in as many VCPU sub-models ... as
    /// they need to").
    pub vcpus: usize,
    /// Workload generator parameters.
    pub workload: WorkloadSpec,
    /// Proportional-share weight (default 1). Consumed by weight-aware
    /// policies such as [`crate::sched::Credit`]; weight-oblivious
    /// policies (the paper's trio) ignore it.
    pub weight: u32,
}

impl VmSpec {
    /// A VM with `vcpus` VCPUs, the paper's default workload, and weight 1.
    #[must_use]
    pub fn new(vcpus: usize) -> Self {
        VmSpec {
            vcpus,
            workload: WorkloadSpec::paper_default(),
            weight: 1,
        }
    }

    /// Sets the proportional-share weight.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// A complete virtualization-system configuration.
///
/// Build with [`SystemConfig::builder`]; see the crate-level example.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    pcpus: usize,
    vms: Vec<VmSpec>,
    timeslice: u64,
    vcpu_ids: Vec<VcpuId>,
    /// Global index of each VM's first VCPU: a VM's VCPUs are numbered
    /// contiguously, so this and its VCPU count give its whole range.
    vm_first: Vec<usize>,
}

impl SystemConfig {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::new()
    }

    /// Number of physical CPUs.
    #[must_use]
    pub fn pcpus(&self) -> usize {
        self.pcpus
    }

    /// The VM sub-models.
    #[must_use]
    pub fn vms(&self) -> &[VmSpec] {
        &self.vms
    }

    /// Scheduler timeslice in ticks: how long a VCPU keeps a PCPU once
    /// assigned.
    #[must_use]
    pub fn timeslice(&self) -> u64 {
        self.timeslice
    }

    /// Total number of VCPUs across all VMs.
    #[must_use]
    pub fn total_vcpus(&self) -> usize {
        self.vcpu_ids.len()
    }

    /// Identity of every VCPU, ordered by global index.
    #[must_use]
    pub fn vcpu_ids(&self) -> &[VcpuId] {
        &self.vcpu_ids
    }

    /// Global indices of VM `vm`'s VCPUs: one contiguous range, in
    /// sibling order.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[must_use]
    pub fn vm_vcpus(&self, vm: usize) -> Range<usize> {
        assert!(vm < self.vms.len(), "VM index {vm} out of range");
        let first = self.vm_first[vm];
        first..first + self.vms[vm].vcpus
    }

    /// A short human-readable description, e.g. `"2+1+1 VCPUs / 4 PCPUs"`.
    #[must_use]
    pub fn describe(&self) -> String {
        let vm_desc: Vec<String> = self.vms.iter().map(|v| v.vcpus.to_string()).collect();
        format!("{} VCPUs / {} PCPUs", vm_desc.join("+"), self.pcpus)
    }
}

/// Builder for [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    pcpus: usize,
    vms: Vec<VmSpec>,
    timeslice: u64,
    sync_ratio: Option<(u32, u32)>,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemConfigBuilder {
    /// Creates a builder with 1 PCPU, no VMs, and a 30-tick timeslice.
    #[must_use]
    pub fn new() -> Self {
        SystemConfigBuilder {
            pcpus: 1,
            vms: Vec::new(),
            timeslice: 30,
            sync_ratio: None,
        }
    }

    /// Sets the number of physical CPUs.
    #[must_use]
    pub fn pcpus(mut self, n: usize) -> Self {
        self.pcpus = n;
        self
    }

    /// Adds a VM with `vcpus` VCPUs and the default workload.
    #[must_use]
    pub fn vm(mut self, vcpus: usize) -> Self {
        self.vms.push(VmSpec::new(vcpus));
        self
    }

    /// Adds a fully specified VM.
    #[must_use]
    pub fn vm_spec(mut self, spec: VmSpec) -> Self {
        self.vms.push(spec);
        self
    }

    /// Adds a VM with the given proportional-share weight.
    #[must_use]
    pub fn vm_weighted(mut self, vcpus: usize, weight: u32) -> Self {
        self.vms.push(VmSpec::new(vcpus).with_weight(weight));
        self
    }

    /// Sets the scheduler timeslice in ticks.
    #[must_use]
    pub fn timeslice(mut self, ticks: u64) -> Self {
        self.timeslice = ticks;
        self
    }

    /// Sets the synchronization ratio `points:per_workloads` on **every**
    /// VM added so far and later (applied at [`SystemConfigBuilder::build`]).
    #[must_use]
    pub fn sync_ratio(mut self, points: u32, per_workloads: u32) -> Self {
        self.sync_ratio = Some((points, per_workloads));
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if there are no PCPUs, no VMs, a VM with
    /// zero VCPUs, a zero timeslice, or an invalid sync ratio.
    pub fn build(mut self) -> Result<SystemConfig, CoreError> {
        if self.pcpus == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "at least one PCPU is required".into(),
            });
        }
        if self.vms.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "at least one VM is required".into(),
            });
        }
        if self.timeslice == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "timeslice must be at least one tick".into(),
            });
        }
        if let Some((a, b)) = self.sync_ratio {
            for vm in &mut self.vms {
                vm.workload = vm.workload.clone().with_sync_ratio(a, b)?;
            }
        }
        let mut vcpu_ids = Vec::new();
        let mut vm_first = Vec::with_capacity(self.vms.len());
        for (vm_idx, vm) in self.vms.iter().enumerate() {
            if vm.vcpus == 0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!("VM {vm_idx} has zero VCPUs"),
                });
            }
            if vm.weight == 0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!("VM {vm_idx} has zero weight"),
                });
            }
            vm.workload.validate()?;
            vm_first.push(vcpu_ids.len());
            for sibling in 0..vm.vcpus {
                vcpu_ids.push(VcpuId {
                    vm: vm_idx,
                    sibling,
                    global: vcpu_ids.len(),
                });
            }
        }
        Ok(SystemConfig {
            pcpus: self.pcpus,
            vms: self.vms,
            timeslice: self.timeslice,
            vcpu_ids,
            vm_first,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig8_topology() {
        // One 2-VCPU VM and two 1-VCPU VMs.
        let c = SystemConfig::builder()
            .pcpus(4)
            .vm(2)
            .vm(1)
            .vm(1)
            .sync_ratio(1, 5)
            .build()
            .unwrap();
        assert_eq!(c.total_vcpus(), 4);
        assert_eq!(c.vm_vcpus(0), 0..2);
        assert_eq!(c.vm_vcpus(1), 2..3);
        assert_eq!(c.vm_vcpus(2), 3..4);
        assert_eq!(c.describe(), "2+1+1 VCPUs / 4 PCPUs");
        assert!((c.vms()[0].workload.sync_probability - 0.2).abs() < 1e-12);
    }

    #[test]
    fn vcpu_ids_are_consistent() {
        let c = SystemConfig::builder()
            .pcpus(2)
            .vm(3)
            .vm(2)
            .build()
            .unwrap();
        for (g, id) in c.vcpu_ids().iter().enumerate() {
            assert_eq!(id.global, g);
            let range = c.vm_vcpus(id.vm);
            assert!(range.contains(&g), "VCPU {g} outside VM {}'s range", id.vm);
            assert_eq!(id.sibling, g - range.start);
        }
        assert_eq!(c.vm_vcpus(0), 0..3);
        assert_eq!(c.vm_vcpus(1), 3..5);
        assert_eq!(
            c.vcpu_ids()[3],
            VcpuId {
                vm: 1,
                sibling: 0,
                global: 3
            }
        );
    }

    #[test]
    fn validation_errors() {
        assert!(SystemConfig::builder().pcpus(0).vm(1).build().is_err());
        assert!(SystemConfig::builder().pcpus(1).build().is_err());
        assert!(SystemConfig::builder().pcpus(1).vm(0).build().is_err());
        assert!(SystemConfig::builder()
            .pcpus(1)
            .vm(1)
            .timeslice(0)
            .build()
            .is_err());
        assert!(SystemConfig::builder()
            .pcpus(1)
            .vm(1)
            .sync_ratio(0, 5)
            .build()
            .is_err());
        assert!(SystemConfig::builder()
            .pcpus(1)
            .vm(1)
            .sync_ratio(3, 2)
            .build()
            .is_err());
        assert!(SystemConfig::builder()
            .pcpus(1)
            .vm_weighted(1, 0)
            .build()
            .is_err());
    }

    #[test]
    fn weights_default_and_custom() {
        let c = SystemConfig::builder()
            .pcpus(1)
            .vm(1)
            .vm_weighted(1, 4)
            .build()
            .unwrap();
        assert_eq!(c.vms()[0].weight, 1);
        assert_eq!(c.vms()[1].weight, 4);
    }

    #[test]
    fn sync_ratio_one_to_two() {
        let c = SystemConfig::builder()
            .pcpus(4)
            .vm(2)
            .sync_ratio(1, 2)
            .build()
            .unwrap();
        assert!((c.vms()[0].workload.sync_probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn workload_spec_defaults() {
        let w = WorkloadSpec::default();
        assert_eq!(w.sync_probability, 0.2);
        assert_eq!(w.sync_mechanism, SyncMechanism::Barrier);
        assert!(w.interarrival.is_none());
        assert_eq!(w.load.mean(), 10.0);
        let w = w.with_spinlock();
        assert_eq!(w.sync_mechanism, SyncMechanism::SpinLock);
        let w = w.with_sync_every(5).unwrap();
        assert_eq!(w.sync_every, Some(5));
        assert!(WorkloadSpec::default().with_sync_every(0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vm_vcpus_bounds_checked() {
        let c = SystemConfig::builder().pcpus(1).vm(1).build().unwrap();
        let _ = c.vm_vcpus(5);
    }
}
