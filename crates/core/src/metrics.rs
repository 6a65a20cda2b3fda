//! The paper's three reward variables and their reporting types.

use serde::{Deserialize, Serialize};
use vsched_stats::ConfidenceInterval;

use crate::error::CoreError;

/// Metrics from **one** simulation run (one replication).
///
/// All values are fractions in `[0, 1]`:
///
/// * `vcpu_availability[v]` — fraction of observed time VCPU `v` was
///   ACTIVE (READY or BUSY); the paper's fairness metric (Figure 8).
/// * `vcpu_utilization[v]` — fraction of VCPU `v`'s *scheduled* time spent
///   BUSY, i.e. `BUSY / (BUSY + READY)`; the synchronization-latency
///   metric (Figure 10). The paper's reward variable "monitors the READY
///   and BUSY states" — READY-while-scheduled is precisely the
///   synchronization wait this metric exposes. (The un-normalized BUSY
///   fraction of total time is `availability × utilization`.)
/// * `pcpu_utilization[p]` — fraction of observed time PCPU `p` was
///   ASSIGNED; the fragmentation metric (Figure 9).
/// * `vcpu_spin[v]` — fraction of VCPU `v`'s scheduled time spent
///   *spinning* on a held lock (always zero under the paper's barrier
///   synchronization; nonzero only with the
///   [`crate::config::SyncMechanism::SpinLock`] extension). Spinning time
///   is excluded from `vcpu_utilization` — a spinning VCPU burns its PCPU
///   without making progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleMetrics {
    /// Per-VCPU ACTIVE fraction, indexed by global VCPU id.
    pub vcpu_availability: Vec<f64>,
    /// Per-VCPU useful-BUSY fraction of scheduled time.
    pub vcpu_utilization: Vec<f64>,
    /// Per-PCPU ASSIGNED fraction, indexed by PCPU id.
    pub pcpu_utilization: Vec<f64>,
    /// Per-VCPU spinning fraction of scheduled time (spinlock extension).
    pub vcpu_spin: Vec<f64>,
}

impl SampleMetrics {
    /// No values yet: the buffer the engines' `metrics()` fill in place.
    pub(crate) fn empty() -> Self {
        SampleMetrics {
            vcpu_availability: Vec::new(),
            vcpu_utilization: Vec::new(),
            pcpu_utilization: Vec::new(),
            vcpu_spin: Vec::new(),
        }
    }

    /// Average VCPU availability across all VCPUs.
    #[must_use]
    pub fn avg_vcpu_availability(&self) -> f64 {
        mean(&self.vcpu_availability)
    }

    /// Average VCPU utilization across all VCPUs (Figure 10's y-axis).
    #[must_use]
    pub fn avg_vcpu_utilization(&self) -> f64 {
        mean(&self.vcpu_utilization)
    }

    /// Average PCPU utilization across all PCPUs (Figure 9's y-axis).
    #[must_use]
    pub fn avg_pcpu_utilization(&self) -> f64 {
        mean(&self.pcpu_utilization)
    }

    /// Average spin fraction across all VCPUs.
    #[must_use]
    pub fn avg_vcpu_spin(&self) -> f64 {
        mean(&self.vcpu_spin)
    }

    /// Flattens into the observation vector recorded per replication:
    /// `[avail_0..avail_V, util_0..util_V, spin_0..spin_V, putil_0..putil_P]`.
    #[must_use]
    pub fn to_observations(&self) -> Vec<f64> {
        let mut obs = Vec::with_capacity(observation_arity(
            self.vcpu_availability.len(),
            self.pcpu_utilization.len(),
        ));
        obs.extend_from_slice(&self.vcpu_availability);
        obs.extend_from_slice(&self.vcpu_utilization);
        obs.extend_from_slice(&self.vcpu_spin);
        obs.extend_from_slice(&self.pcpu_utilization);
        obs
    }
}

/// Length of the per-replication observation vector for a system with
/// `num_vcpus` VCPUs and `num_pcpus` PCPUs.
#[must_use]
pub const fn observation_arity(num_vcpus: usize, num_pcpus: usize) -> usize {
    3 * num_vcpus + num_pcpus
}

impl SampleMetrics {
    /// Mean availability of each **VM** (averaged over its VCPUs), using
    /// the topology in `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not match the metrics' VCPU count.
    #[must_use]
    pub fn vm_availability(&self, config: &crate::SystemConfig) -> Vec<f64> {
        group_by_vm(&self.vcpu_availability, config)
    }

    /// Mean utilization of each **VM** (averaged over its VCPUs).
    ///
    /// # Panics
    ///
    /// Panics if `config` does not match the metrics' VCPU count.
    #[must_use]
    pub fn vm_utilization(&self, config: &crate::SystemConfig) -> Vec<f64> {
        group_by_vm(&self.vcpu_utilization, config)
    }
}

fn group_by_vm(per_vcpu: &[f64], config: &crate::SystemConfig) -> Vec<f64> {
    assert_eq!(
        per_vcpu.len(),
        config.total_vcpus(),
        "metrics do not match the configuration's VCPU count"
    );
    let mut sums = vec![0.0; config.vms().len()];
    let mut counts = vec![0usize; config.vms().len()];
    for (x, id) in per_vcpu.iter().zip(config.vcpu_ids()) {
        sums[id.vm] += x;
        counts[id.vm] += 1;
    }
    sums.iter()
        .zip(&counts)
        .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Aggregated experiment output: confidence intervals for every metric,
/// over all replications.
///
/// Serializes losslessly (shortest-round-trip float text), which the
/// campaign result store relies on: a report loaded from disk is
/// bit-identical to the freshly computed one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Per-VCPU availability intervals, indexed by global VCPU id.
    pub vcpu_availability: Vec<ConfidenceInterval>,
    /// Per-VCPU utilization intervals.
    pub vcpu_utilization: Vec<ConfidenceInterval>,
    /// Per-PCPU utilization intervals.
    pub pcpu_utilization: Vec<ConfidenceInterval>,
    /// Per-VCPU spin-fraction intervals (spinlock extension).
    pub vcpu_spin: Vec<ConfidenceInterval>,
    /// Number of replications run.
    pub replications: usize,
}

impl MetricsReport {
    /// Splits a flat interval vector (in [`SampleMetrics::to_observations`]
    /// order) back into the three metric groups.
    ///
    /// # Panics
    ///
    /// Panics if `intervals.len() != observation_arity(num_vcpus, num_pcpus)`.
    #[must_use]
    pub fn from_intervals(
        intervals: Vec<ConfidenceInterval>,
        num_vcpus: usize,
        num_pcpus: usize,
        replications: usize,
    ) -> Self {
        assert_eq!(
            intervals.len(),
            observation_arity(num_vcpus, num_pcpus),
            "interval vector has wrong arity"
        );
        let mut it = intervals.into_iter();
        let vcpu_availability: Vec<_> = it.by_ref().take(num_vcpus).collect();
        let vcpu_utilization: Vec<_> = it.by_ref().take(num_vcpus).collect();
        let vcpu_spin: Vec<_> = it.by_ref().take(num_vcpus).collect();
        let pcpu_utilization: Vec<_> = it.collect();
        MetricsReport {
            vcpu_availability,
            vcpu_utilization,
            pcpu_utilization,
            vcpu_spin,
            replications,
        }
    }

    /// Aggregates per-replication samples into one confidence interval
    /// per observation column at `level` — the one place a fixed set of
    /// replications (an exact-count static run, a trace run) becomes a
    /// report. The stopping-rule path accumulates its intervals as it
    /// goes instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::Stats`] with fewer than 2 samples (no interval).
    pub fn from_samples(
        samples: &[SampleMetrics],
        num_vcpus: usize,
        num_pcpus: usize,
        level: f64,
    ) -> Result<Self, CoreError> {
        let arity = observation_arity(num_vcpus, num_pcpus);
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(samples.len()); arity];
        for s in samples {
            for (c, x) in columns.iter_mut().zip(s.to_observations()) {
                c.push(x);
            }
        }
        let intervals: Vec<ConfidenceInterval> = columns
            .iter()
            .map(|c| ConfidenceInterval::from_samples(c, level))
            .collect::<Result<_, _>>()?;
        Ok(MetricsReport::from_intervals(
            intervals,
            num_vcpus,
            num_pcpus,
            samples.len(),
        ))
    }

    /// Mean availability of each VCPU.
    #[must_use]
    pub fn vcpu_availability_means(&self) -> Vec<f64> {
        self.vcpu_availability.iter().map(|ci| ci.mean).collect()
    }

    /// Mean utilization of each VCPU.
    #[must_use]
    pub fn vcpu_utilization_means(&self) -> Vec<f64> {
        self.vcpu_utilization.iter().map(|ci| ci.mean).collect()
    }

    /// Mean utilization of each PCPU.
    #[must_use]
    pub fn pcpu_utilization_means(&self) -> Vec<f64> {
        self.pcpu_utilization.iter().map(|ci| ci.mean).collect()
    }

    /// Grand average VCPU availability (mean of per-VCPU means).
    #[must_use]
    pub fn avg_vcpu_availability(&self) -> f64 {
        mean(&self.vcpu_availability_means())
    }

    /// Grand average VCPU utilization — Figure 10's reported quantity.
    #[must_use]
    pub fn avg_vcpu_utilization(&self) -> f64 {
        mean(&self.vcpu_utilization_means())
    }

    /// Grand average PCPU utilization — Figure 9's reported quantity.
    #[must_use]
    pub fn avg_pcpu_utilization(&self) -> f64 {
        mean(&self.pcpu_utilization_means())
    }

    /// Mean spin fraction of each VCPU (spinlock extension).
    #[must_use]
    pub fn vcpu_spin_means(&self) -> Vec<f64> {
        self.vcpu_spin.iter().map(|ci| ci.mean).collect()
    }

    /// Grand average spin fraction (spinlock extension).
    #[must_use]
    pub fn avg_vcpu_spin(&self) -> f64 {
        mean(&self.vcpu_spin_means())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> SampleMetrics {
        SampleMetrics {
            vcpu_availability: vec![1.0, 0.5],
            vcpu_utilization: vec![0.8, 0.4],
            pcpu_utilization: vec![0.9, 0.3, 0.6],
            vcpu_spin: vec![0.1, 0.3],
        }
    }

    #[test]
    fn averages() {
        let m = metrics();
        assert!((m.avg_vcpu_availability() - 0.75).abs() < 1e-12);
        assert!((m.avg_vcpu_utilization() - 0.6).abs() < 1e-12);
        assert!((m.avg_pcpu_utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn observation_vector_layout() {
        let m = metrics();
        let obs = m.to_observations();
        assert_eq!(obs, vec![1.0, 0.5, 0.8, 0.4, 0.1, 0.3, 0.9, 0.3, 0.6]);
        assert_eq!(obs.len(), observation_arity(2, 3));
    }

    #[test]
    fn report_roundtrip() {
        let ci = |mean: f64| ConfidenceInterval {
            mean,
            half_width: 0.01,
            level: 0.95,
            n: 5,
        };
        let obs = metrics().to_observations();
        let intervals: Vec<_> = obs.iter().map(|&m| ci(m)).collect();
        let report = MetricsReport::from_intervals(intervals, 2, 3, 5);
        assert_eq!(report.vcpu_availability_means(), vec![1.0, 0.5]);
        assert_eq!(report.vcpu_utilization_means(), vec![0.8, 0.4]);
        assert_eq!(report.vcpu_spin_means(), vec![0.1, 0.3]);
        assert!((report.avg_vcpu_spin() - 0.2).abs() < 1e-12);
        assert_eq!(report.pcpu_utilization_means(), vec![0.9, 0.3, 0.6]);
        assert!((report.avg_pcpu_utilization() - 0.6).abs() < 1e-12);
        assert!((report.avg_vcpu_availability() - 0.75).abs() < 1e-12);
        assert!((report.avg_vcpu_utilization() - 0.6).abs() < 1e-12);
        assert_eq!(report.replications, 5);
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn report_arity_checked() {
        let _ = MetricsReport::from_intervals(vec![], 2, 3, 5);
    }

    #[test]
    fn vm_grouping() {
        let config = crate::SystemConfig::builder()
            .pcpus(2)
            .vm(2)
            .vm(1)
            .build()
            .unwrap();
        let m = SampleMetrics {
            vcpu_availability: vec![0.4, 0.6, 1.0],
            vcpu_utilization: vec![0.2, 0.4, 0.9],
            pcpu_utilization: vec![1.0, 1.0],
            vcpu_spin: vec![0.0, 0.0, 0.0],
        };
        assert_eq!(m.vm_availability(&config), vec![0.5, 1.0]);
        let util = m.vm_utilization(&config);
        assert!((util[0] - 0.3).abs() < 1e-12);
        assert_eq!(util[1], 0.9);
    }

    #[test]
    #[should_panic(expected = "VCPU count")]
    fn vm_grouping_checks_arity() {
        let config = crate::SystemConfig::builder()
            .pcpus(1)
            .vm(3)
            .build()
            .unwrap();
        let m = SampleMetrics {
            vcpu_availability: vec![0.5],
            vcpu_utilization: vec![0.5],
            pcpu_utilization: vec![1.0],
            vcpu_spin: vec![0.0],
        };
        let _ = m.vm_availability(&config);
    }

    #[test]
    fn empty_means_are_zero() {
        let m = SampleMetrics {
            vcpu_availability: vec![],
            vcpu_utilization: vec![],
            pcpu_utilization: vec![],
            vcpu_spin: vec![],
        };
        assert_eq!(m.avg_vcpu_availability(), 0.0);
        assert_eq!(m.avg_vcpu_spin(), 0.0);
    }
}
