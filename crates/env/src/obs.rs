//! Observations, rewards, and per-step info.
//!
//! The observation space is derived **mechanically** from the agent's
//! declared [`ViewFields`]: every undeclared [`VcpuView`] payload field is
//! replaced by its canonical default before the view leaves the
//! environment, so an undeclared read is unobservable *by construction* —
//! the agent only ever sees a constant. Structural fields (`id`, `status`,
//! `assigned_pcpu`) are always visible, exactly as in the in-process
//! snapshot-view contract checked by `vsched-analyze`.

use serde::{Deserialize, Serialize};
use vsched_core::sched::ViewFields;
use vsched_core::{Fnv, PcpuView, SampleMetrics, VcpuView};

/// One observation handed to the agent at a decision epoch — the masked
/// analogue of the `(vcpus, pcpus, timestamp, default_timeslice)` argument
/// list of [`vsched_core::SchedulingPolicy::schedule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// The current tick.
    pub timestamp: u64,
    /// The configured timeslice, which agents typically pass through.
    pub default_timeslice: u64,
    /// Names of the payload fields that carry live values; every other
    /// payload field in `vcpus` holds its canonical default.
    pub fields: Vec<String>,
    /// Every VCPU, indexed by global id, masked to the declared fields.
    pub vcpus: Vec<VcpuView>,
    /// Every PCPU, indexed by id (structural only — never masked).
    pub pcpus: Vec<PcpuView>,
}

impl Observation {
    /// Builds an observation by masking true engine views to `fields`.
    #[must_use]
    pub fn masked(
        vcpus: &[VcpuView],
        pcpus: &[PcpuView],
        timestamp: u64,
        default_timeslice: u64,
        fields: ViewFields,
    ) -> Self {
        Observation {
            timestamp,
            default_timeslice,
            fields: fields.declared().iter().map(|s| (*s).to_string()).collect(),
            vcpus: vcpus.iter().map(|v| mask_view(*v, fields)).collect(),
            pcpus: pcpus.to_vec(),
        }
    }

    /// Order-insensitive-free digest of the observation content, for
    /// replay comparison.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.push(self.timestamp);
        h.push(self.default_timeslice);
        for v in &self.vcpus {
            h.push(v.id.global as u64);
            h.push(v.status.to_token() as u64);
            h.push(v.remaining_load);
            h.push(u64::from(v.sync_point));
            h.push_opt(v.assigned_pcpu.map(|p| p as u64));
            h.push(v.timeslice_remaining);
            h.push_opt(v.last_scheduled_in);
            h.push(u64::from(v.vm_weight));
        }
        for p in &self.pcpus {
            h.push(p.id as u64);
            h.push_opt(p.assigned.map(|id| id.global as u64));
        }
        h.finish()
    }
}

/// Replaces every payload field not declared in `fields` with its
/// canonical default: `remaining_load = 0`, `sync_point = false`,
/// `timeslice_remaining = 0`, `last_scheduled_in = None`, `vm_weight = 1`.
#[must_use]
pub fn mask_view(mut v: VcpuView, fields: ViewFields) -> VcpuView {
    if !fields.remaining_load {
        v.remaining_load = 0;
    }
    if !fields.sync_point {
        v.sync_point = false;
    }
    if !fields.timeslice_remaining {
        v.timeslice_remaining = 0;
    }
    if !fields.last_scheduled_in {
        v.last_scheduled_in = None;
    }
    if !fields.vm_weight {
        v.vm_weight = 1;
    }
    v
}

/// Per-step metric breakdown accompanying the scalar reward.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StepInfo {
    /// Whether the warm-up phase is over (rewards are zero before it is).
    pub warmed_up: bool,
    /// Cumulative average VCPU utilization since warm-up, if warmed up.
    pub vcpu_utilization: f64,
    /// Cumulative average VCPU availability since warm-up, if warmed up.
    pub vcpu_availability: f64,
    /// Cumulative average PCPU utilization since warm-up, if warmed up.
    pub pcpu_utilization: f64,
}

impl StepInfo {
    /// Builds the breakdown from a cumulative sample (`None` during
    /// warm-up).
    #[must_use]
    pub fn from_metrics(metrics: Option<&SampleMetrics>) -> Self {
        match metrics {
            None => StepInfo::default(),
            Some(m) => StepInfo {
                warmed_up: true,
                vcpu_utilization: m.avg_vcpu_utilization(),
                vcpu_availability: m.avg_vcpu_availability(),
                pcpu_utilization: m.avg_pcpu_utilization(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsched_core::{VcpuId, VcpuStatus};

    fn view(global: usize) -> VcpuView {
        VcpuView {
            id: VcpuId {
                vm: 0,
                sibling: global,
                global,
            },
            status: VcpuStatus::Busy,
            remaining_load: 7,
            sync_point: true,
            assigned_pcpu: Some(0),
            timeslice_remaining: 3,
            last_scheduled_in: Some(11),
            vm_weight: 4,
            present: true,
        }
    }

    #[test]
    fn masking_zeroes_exactly_the_undeclared_fields() {
        let mut fields = ViewFields::none();
        fields.sync_point = true;
        let m = mask_view(view(0), fields);
        assert_eq!(m.remaining_load, 0);
        assert!(m.sync_point, "declared field survives");
        assert_eq!(m.timeslice_remaining, 0);
        assert_eq!(m.last_scheduled_in, None);
        assert_eq!(m.vm_weight, 1);
        // Structural fields are never touched.
        assert_eq!(m.id, view(0).id);
        assert_eq!(m.status, VcpuStatus::Busy);
        assert_eq!(m.assigned_pcpu, Some(0));

        let full = mask_view(view(0), ViewFields::all());
        assert_eq!(full, view(0), "full declaration is the identity");
    }

    #[test]
    fn observation_lists_declared_fields_and_digests_content() {
        let pcpus = [PcpuView {
            id: 0,
            assigned: Some(view(0).id),
        }];
        let a = Observation::masked(&[view(0)], &pcpus, 5, 30, ViewFields::all());
        assert_eq!(a.fields.len(), 5);
        let b = Observation::masked(&[view(0)], &pcpus, 5, 30, ViewFields::all());
        assert_eq!(a.digest(), b.digest());
        let c = Observation::masked(&[view(0)], &pcpus, 6, 30, ViewFields::all());
        assert_ne!(a.digest(), c.digest());
        let masked = Observation::masked(&[view(0)], &pcpus, 5, 30, ViewFields::none());
        assert_ne!(a.digest(), masked.digest());
        assert!(masked.fields.is_empty());
    }

    #[test]
    fn step_info_breaks_down_the_three_paper_metrics() {
        let m = SampleMetrics {
            vcpu_availability: vec![0.5, 0.7],
            vcpu_utilization: vec![0.4, 0.6],
            pcpu_utilization: vec![0.9],
            vcpu_spin: vec![0.0, 0.0],
        };
        let info = StepInfo::from_metrics(Some(&m));
        assert!(info.warmed_up);
        assert!((info.vcpu_utilization - 0.5).abs() < 1e-12);
        assert!((info.vcpu_availability - 0.6).abs() < 1e-12);
        assert!((info.pcpu_utilization - 0.9).abs() < 1e-12);
        assert!(!StepInfo::from_metrics(None).warmed_up);
    }
}
