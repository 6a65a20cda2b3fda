//! The `vsched perf` smoke harness: wall-clock throughput of the SAN
//! engine's incremental reevaluation core against its full-rescan
//! reference mode, across a model-size scaling axis.
//!
//! This is deliberately *not* a statistics-grade benchmark (that is
//! `perfbench/`, which times each front door end to end over many
//! units): best-of-N timed runs per (size, mode) cell is enough for the
//! two jobs it has —
//!
//! * produce a machine-readable `BENCH_perf.json` whose speedup column
//!   documents the incremental core's win as models grow, and
//! * gate CI cheaply: compared against a checked-in baseline, a >2×
//!   drop in the incremental core's *speedup over full rescan* fails
//!   the job. The speedup is a same-run ratio, so machine speed,
//!   background load and runner jitter cancel out of the comparison —
//!   absolute events/sec are recorded for the trajectory but never
//!   gated on.
//!
//! Every cell also cross-checks that both modes end bit-identical
//! (final marking and metrics) — a free differential pass on exactly
//! the configurations being timed.
//!
//! A second, *large-model* scale axis (64/256/1024 VMs, capped by
//! `--max-vms`) times the incremental engine alone and reports each
//! run's real-time factor: one clock period models a 30 ms timeslice,
//! so `rtf = ticks × 0.03 / wall_seconds`, and `rtf > 1` means the cell
//! simulates faster than the virtualized hardware it models would run.
//! Full rescan is skipped on this axis — it is O(activities) per event
//! and exists as a reference mode, not a contender at 1024 VMs.
//! Each scale cell also runs the same configuration, seed and policy on
//! [`DirectSim`] and reports its ticks/s, real-time factor and cost per
//! VCPU-tick. The baseline gate covers a second same-run ratio, the
//! direct engine's **linearity**: ns per VCPU-tick at the largest cell
//! over the same at the smallest. A direct tick is linear in VCPUs +
//! PCPUs, so the ratio sits near 1; a per-tick loop that scans every
//! VCPU once per VM would make it grow with the VM count.
//!
//! The JSON report carries a **host block** (logical cores, optional
//! commit hash, engine version) that makes absolute numbers
//! interpretable across machines.

use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};
use vsched_core::direct::DirectSim;
use vsched_core::san_model::SanSystem;
use vsched_core::{PolicyKind, SampleMetrics, SystemConfig};

/// Simulated seconds per clock period: the paper's 30 ms timeslice.
pub const TICK_SECONDS: f64 = 0.03;

/// Knobs of one perf run.
#[derive(Debug, Clone)]
pub struct PerfOpts {
    /// Simulated clock periods per timed run.
    pub ticks: u64,
    /// Seed for every run (the comparison is per-seed deterministic).
    pub seed: u64,
    /// Timed repetitions per (size, mode) cell; the fastest is reported,
    /// which filters out scheduler/allocator jitter on shared runners.
    pub repeats: usize,
    /// Largest VM count on the large-model scale axis (64/256/1024 VMs,
    /// cells above this cap are dropped; below 64 the axis is empty).
    pub max_vms: usize,
    /// Commit hash recorded in the report's host block (`--commit`).
    pub commit: Option<String>,
}

impl Default for PerfOpts {
    fn default() -> Self {
        PerfOpts {
            ticks: 2_000,
            seed: 42,
            repeats: 5,
            max_vms: 1024,
            commit: None,
        }
    }
}

/// Host facts that make absolute numbers interpretable across machines.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical cores available to this process.
    pub logical_cores: usize,
    /// Commit hash the caller passed via `--commit`, if any.
    pub commit: Option<String>,
    /// The engine semantics version the numbers were measured against.
    pub engine: &'static str,
}

impl HostInfo {
    /// Snapshot of the current host.
    #[must_use]
    pub fn current(commit: Option<String>) -> Self {
        HostInfo {
            logical_cores: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            commit,
            engine: vsched_campaign::ENGINE_VERSION,
        }
    }
}

/// One timed run's numbers.
#[derive(Debug, Clone, Copy)]
pub struct ModeSample {
    /// Activity completions processed.
    pub events: u64,
    /// Wall-clock seconds for the run.
    pub seconds: f64,
    /// `events / seconds`.
    pub events_per_sec: f64,
}

/// One timed [`DirectSim`] run's numbers.
#[derive(Debug, Clone, Copy)]
pub struct DirectSample {
    /// Wall-clock seconds for the run.
    pub seconds: f64,
    /// Simulated ticks per wall-clock second.
    pub ticks_per_sec: f64,
    /// Wall-clock nanoseconds per simulated tick per VCPU.
    pub ns_per_vcpu_tick: f64,
}

/// One (model size) cell of the scaling axis.
#[derive(Debug, Clone)]
pub struct PerfCase {
    /// Case label (`"4vm"`).
    pub name: String,
    /// VMs in the model (2 VCPUs each).
    pub vms: usize,
    /// Total VCPUs.
    pub vcpus: usize,
    /// PCPUs.
    pub pcpus: usize,
    /// The full-rescan reference mode's numbers.
    pub full_rescan: ModeSample,
    /// The incremental (default) mode's numbers.
    pub incremental: ModeSample,
    /// `incremental.events_per_sec / full_rescan.events_per_sec`.
    pub speedup: f64,
    /// Whether both modes ended bit-identical (final marking + metrics).
    pub identical: bool,
}

/// One (model size) cell of the large-model scale axis.
#[derive(Debug, Clone)]
pub struct ScaleCase {
    /// Case label (`"256vm"`).
    pub name: String,
    /// VMs in the model (2 VCPUs each).
    pub vms: usize,
    /// Total VCPUs.
    pub vcpus: usize,
    /// PCPUs.
    pub pcpus: usize,
    /// Ticks per timed run on this cell (scaled down for big models so
    /// the event count per cell stays roughly constant along the axis).
    pub ticks: u64,
    /// The sequential engine's numbers.
    pub sequential: ModeSample,
    /// The sequential run's real-time factor.
    pub sequential_rtf: f64,
    /// The direct engine's numbers on the same ticks, seed and policy.
    pub direct: DirectSample,
    /// The direct run's real-time factor.
    pub direct_rtf: f64,
}

/// The whole harness result.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Ticks per timed run.
    pub ticks: u64,
    /// Timed repetitions per cell (the fastest was kept).
    pub repeats: usize,
    /// The host the numbers were measured on.
    pub host: HostInfo,
    /// All cells, smallest model first.
    pub cases: Vec<PerfCase>,
    /// The large-model scale axis, smallest model first (empty when
    /// `max_vms < 64`).
    pub scale_cases: Vec<ScaleCase>,
}

impl PerfReport {
    /// Whether every small-axis cell's modes ended bit-identical
    /// (incremental vs full rescan).
    #[must_use]
    pub fn all_identical(&self) -> bool {
        self.cases.iter().all(|c| c.identical)
    }

    /// The real-time factor on the largest scale-axis cell, or `None`
    /// when the scale axis is empty.
    #[must_use]
    pub fn rtf_at_largest(&self) -> Option<f64> {
        self.scale_cases.last().map(|c| c.sequential_rtf)
    }

    /// Speedup of the largest model on the axis.
    #[must_use]
    pub fn speedup_at_largest(&self) -> f64 {
        self.cases.last().map_or(1.0, |c| c.speedup)
    }

    /// The direct engine's ns per VCPU-tick at the largest scale-axis
    /// cell over the same at the smallest, or `None` with fewer than two
    /// cells.
    #[must_use]
    pub fn direct_linearity(&self) -> Option<f64> {
        match self.scale_cases.as_slice() {
            [first, .., last] => Some(last.direct.ns_per_vcpu_tick / first.direct.ns_per_vcpu_tick),
            _ => None,
        }
    }

    /// The report as a JSON value with stable field order.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let sample = |s: &ModeSample| {
            json!({
                "events": s.events,
                "seconds": s.seconds,
                "events_per_sec": s.events_per_sec,
            })
        };
        json!({
            "harness": "vsched perf",
            "host": json!({
                "logical_cores": self.host.logical_cores,
                "commit": match &self.host.commit {
                    Some(c) => json!(c.clone()),
                    None => Value::Null,
                },
                "engine": self.host.engine,
            }),
            "ticks": self.ticks,
            "repeats": self.repeats,
            "cases": Value::Seq(
                self.cases
                    .iter()
                    .map(|c| {
                        json!({
                            "name": c.name.clone(),
                            "vms": c.vms,
                            "vcpus": c.vcpus,
                            "pcpus": c.pcpus,
                            "full_rescan": sample(&c.full_rescan),
                            "incremental": sample(&c.incremental),
                            "speedup": c.speedup,
                            "identical": c.identical,
                        })
                    })
                    .collect()
            ),
            "speedup_at_largest": self.speedup_at_largest(),
            "tick_seconds": TICK_SECONDS,
            "scale_cases": Value::Seq(
                self.scale_cases
                    .iter()
                    .map(|c| {
                        json!({
                            "name": c.name.clone(),
                            "vms": c.vms,
                            "vcpus": c.vcpus,
                            "pcpus": c.pcpus,
                            "ticks": c.ticks,
                            "sequential": sample(&c.sequential),
                            "sequential_rtf": c.sequential_rtf,
                            "direct": json!({
                                "seconds": c.direct.seconds,
                                "ticks_per_sec": c.direct.ticks_per_sec,
                                "ns_per_vcpu_tick": c.direct.ns_per_vcpu_tick,
                            }),
                            "direct_rtf": c.direct_rtf,
                        })
                    })
                    .collect()
            ),
            "rtf_at_largest": self.rtf_at_largest(),
            "direct_linearity": self.direct_linearity(),
        })
    }

    /// One line per cell for the terminal.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf: {} ticks per run, best of {}, {} logical cores, engine {}",
            self.ticks, self.repeats, self.host.logical_cores, self.host.engine
        );
        let _ = writeln!(out, "small: incremental vs full-rescan reevaluation");
        for c in &self.cases {
            let _ = writeln!(
                out,
                "  {:>5}: {:>10.0} ev/s incremental, {:>10.0} ev/s full-rescan, \
                 speedup {:.2}x, identical: {}",
                c.name,
                c.incremental.events_per_sec,
                c.full_rescan.events_per_sec,
                c.speedup,
                if c.identical { "yes" } else { "NO" },
            );
        }
        if !self.scale_cases.is_empty() {
            let _ = writeln!(
                out,
                "scale: sequential SAN engine and DirectSim, rtf = simulated \
                 seconds per wall second (tick = {} ms)",
                TICK_SECONDS * 1000.0
            );
            for c in &self.scale_cases {
                let _ = writeln!(
                    out,
                    "  {:>6}: {:>5} ticks, {:>10.0} ev/s sequential (rtf {:.2}), \
                     direct {:>9.0} ticks/s (rtf {:.2}, {:.1} ns/VCPU-tick)",
                    c.name,
                    c.ticks,
                    c.sequential.events_per_sec,
                    c.sequential_rtf,
                    c.direct.ticks_per_sec,
                    c.direct_rtf,
                    c.direct.ns_per_vcpu_tick,
                );
            }
        }
        if let (Some(ratio), [first, .., last]) =
            (self.direct_linearity(), self.scale_cases.as_slice())
        {
            let _ = writeln!(
                out,
                "direct linearity: {ratio:.2} (ns per VCPU-tick, {} / {})",
                last.name, first.name
            );
        }
        out
    }
}

/// The model-size axis: doubling VM counts, 2 VCPUs per VM.
fn scaling_axis() -> Vec<(String, usize)> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|vms| (format!("{vms}vm"), vms))
        .collect()
}

fn config(vms: usize) -> SystemConfig {
    let mut b = SystemConfig::builder().pcpus(vms.max(2)).sync_ratio(1, 5);
    for _ in 0..vms {
        b = b.vm(2);
    }
    b.build().expect("valid perf config")
}

/// The bit patterns of a run's metrics.
fn metric_bits(m: &SampleMetrics) -> Vec<u64> {
    m.vcpu_availability
        .iter()
        .chain(&m.vcpu_utilization)
        .chain(&m.pcpu_utilization)
        .chain(&m.vcpu_spin)
        .map(|v| v.to_bits())
        .collect()
}

/// The bit patterns both modes must agree on: final marking + metrics.
fn fingerprint(sys: &SanSystem) -> (Vec<i64>, Vec<u64>) {
    (
        sys.simulator().marking().as_slice().to_vec(),
        metric_bits(&sys.metrics()),
    )
}

/// The large-model scale axis, capped by `max_vms`.
fn scale_axis(max_vms: usize) -> Vec<(String, usize)> {
    [64usize, 256, 1024]
        .into_iter()
        .filter(|&vms| vms <= max_vms)
        .map(|vms| (format!("{vms}vm"), vms))
        .collect()
}

/// Ticks per scale-axis cell: scaled down with model size so the event
/// count per cell stays roughly constant along the axis (the event rate
/// grows about linearly in VMs), keeping the harness's wall time flat.
fn scale_ticks(vms: usize, base: u64) -> u64 {
    (base * 16 / vms as u64).max(25)
}

/// One engine mode of one cell: `full` switches on full rescan. Returns
/// the timing and the run's fingerprint.
fn timed_once(
    vms: usize,
    ticks: u64,
    full: bool,
    opts: &PerfOpts,
) -> (ModeSample, (Vec<i64>, Vec<u64>)) {
    let mut sys = SanSystem::new(config(vms), PolicyKind::RoundRobin.create(), opts.seed)
        .expect("perf model builds");
    sys.set_full_rescan(full);
    let start = Instant::now();
    sys.run(ticks).expect("perf run");
    let seconds = start.elapsed().as_secs_f64();
    let events = sys.simulator().stats().completions;
    let sample = ModeSample {
        events,
        seconds,
        events_per_sec: per_second(events as f64, seconds),
    };
    (sample, fingerprint(&sys))
}

/// Best of `opts.repeats` runs. Every repetition is the same deterministic
/// simulation, so the fingerprint is checked to be stable across them.
fn timed_run(
    vms: usize,
    ticks: u64,
    full: bool,
    opts: &PerfOpts,
) -> (ModeSample, (Vec<i64>, Vec<u64>)) {
    let (mut best, fp) = timed_once(vms, ticks, full, opts);
    for _ in 1..opts.repeats.max(1) {
        let (sample, fp_again) = timed_once(vms, ticks, full, opts);
        assert_eq!(fp, fp_again, "perf run is not deterministic");
        if sample.events_per_sec > best.events_per_sec {
            best = sample;
        }
    }
    (best, fp)
}

/// The scale-axis cells `(name, vms, ticks)` on [`DirectSim`], best of
/// `opts.repeats` per cell, with the metrics checked to be stable across
/// repeats. The repeats go round the cells rather than cell by cell, so
/// a slow spell on a shared host cannot claim every repeat of one cell
/// and skew the linearity ratio.
fn direct_axis(axis: &[(String, usize, u64)], opts: &PerfOpts) -> Vec<DirectSample> {
    let configs: Vec<SystemConfig> = axis.iter().map(|&(_, vms, _)| config(vms)).collect();
    let mut best = vec![f64::INFINITY; axis.len()];
    let mut metrics: Vec<Option<Vec<u64>>> = vec![None; axis.len()];
    for _ in 0..opts.repeats.max(1) {
        for (i, (&(_, _, ticks), config)) in axis.iter().zip(&configs).enumerate() {
            let mut sim =
                DirectSim::new(config.clone(), PolicyKind::RoundRobin.create(), opts.seed);
            let start = Instant::now();
            sim.run(ticks).expect("perf run");
            best[i] = best[i].min(start.elapsed().as_secs_f64());
            let bits = metric_bits(&sim.metrics());
            match &metrics[i] {
                Some(first) => assert_eq!(first, &bits, "perf run is not deterministic"),
                None => metrics[i] = Some(bits),
            }
        }
    }
    axis.iter()
        .zip(&configs)
        .zip(best)
        .map(|((&(_, _, ticks), config), seconds)| DirectSample {
            seconds,
            ticks_per_sec: per_second(ticks as f64, seconds),
            ns_per_vcpu_tick: seconds * 1e9 / (ticks as f64 * config.total_vcpus() as f64),
        })
        .collect()
}

fn per_second(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        f64::INFINITY
    }
}

/// Real-time factor of a run covering `ticks` clock periods.
fn rtf(ticks: u64, seconds: f64) -> f64 {
    per_second(ticks as f64 * TICK_SECONDS, seconds)
}

/// Runs the whole scaling axis, both modes per size, then the
/// large-model scale axis in incremental mode and on [`DirectSim`].
#[must_use]
pub fn run_perf(opts: &PerfOpts) -> PerfReport {
    let cases = scaling_axis()
        .into_iter()
        .map(|(name, vms)| {
            // Full-rescan first, then incremental: if something is badly
            // wrong with the dependency index, the reference number is
            // already in hand when the comparison trips.
            let (full, fp_full) = timed_run(vms, opts.ticks, true, opts);
            let (incremental, fp_inc) = timed_run(vms, opts.ticks, false, opts);
            PerfCase {
                name,
                vms,
                vcpus: vms * 2,
                pcpus: vms.max(2),
                speedup: incremental.events_per_sec / full.events_per_sec,
                identical: fp_full == fp_inc,
                full_rescan: full,
                incremental,
            }
        })
        .collect();
    let axis: Vec<(String, usize, u64)> = scale_axis(opts.max_vms)
        .into_iter()
        .map(|(name, vms)| (name, vms, scale_ticks(vms, opts.ticks)))
        .collect();
    let direct = direct_axis(&axis, opts);
    let scale_cases = axis
        .into_iter()
        .zip(direct)
        .map(|((name, vms, ticks), direct)| {
            let (sequential, _) = timed_run(vms, ticks, false, opts);
            ScaleCase {
                name,
                vms,
                vcpus: vms * 2,
                pcpus: vms.max(2),
                ticks,
                sequential_rtf: rtf(ticks, sequential.seconds),
                sequential,
                direct_rtf: rtf(ticks, direct.seconds),
                direct,
            }
        })
        .collect();
    PerfReport {
        ticks: opts.ticks,
        repeats: opts.repeats.max(1),
        host: HostInfo::current(opts.commit.clone()),
        cases,
        scale_cases,
    }
}

/// Compares a fresh report against a checked-in baseline JSON (the shape
/// [`PerfReport::to_json`] writes) and returns one line per regression;
/// empty = pass. For every case present in both, the incremental core's
/// speedup over full rescan must not have dropped by more than
/// `max_regression`×. When the baseline's scale axis has the report's
/// smallest and largest cells, the direct engine's linearity over that
/// pair must not have grown by more than `max_regression`× either. Both
/// are same-run ratios, so absolute machine speed cancels out of the
/// comparison.
///
/// # Errors
///
/// If the baseline file cannot be read or is not shaped like a perf
/// report.
pub fn check_against_baseline(
    report: &PerfReport,
    baseline_path: &Path,
    max_regression: f64,
) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    let baseline: Value = serde_json::from_str(&text)?;
    let cases = baseline
        .get("cases")
        .and_then(Value::as_array)
        .ok_or("baseline has no `cases` array")?;
    let mut regressions = Vec::new();
    for c in cases {
        let name = c.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(base_speedup) = c.get("speedup").and_then(Value::as_f64) else {
            continue;
        };
        let Some(now) = report.cases.iter().find(|rc| rc.name == name) else {
            continue;
        };
        if now.speedup * max_regression < base_speedup {
            regressions.push(format!(
                "{name}: speedup {:.2}x now vs {base_speedup:.2}x baseline \
                 (>{max_regression:.1}x regression)",
                now.speedup,
            ));
        }
    }
    if let (Some(now), [first, .., last]) =
        (report.direct_linearity(), report.scale_cases.as_slice())
    {
        let base_ns = |name: &str| {
            baseline
                .get("scale_cases")
                .and_then(Value::as_array)?
                .iter()
                .find(|c| c.get("name").and_then(Value::as_str) == Some(name))?
                .get("direct")?
                .get("ns_per_vcpu_tick")?
                .as_f64()
        };
        if let (Some(from), Some(to)) = (base_ns(&first.name), base_ns(&last.name)) {
            let base = to / from;
            if now > base * max_regression {
                regressions.push(format!(
                    "direct linearity ({} / {} ns per VCPU-tick): {now:.2} now vs \
                     {base:.2} baseline (>{max_regression:.1}x regression)",
                    last.name, first.name,
                ));
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> PerfOpts {
        PerfOpts {
            ticks: 50,
            seed: 42,
            repeats: 1,
            max_vms: 0,
            commit: None,
        }
    }

    #[test]
    fn both_modes_are_bit_identical_on_every_cell() {
        let report = run_perf(&tiny_opts());
        assert_eq!(report.cases.len(), 5);
        assert!(report.all_identical(), "{}", report.render_text());
        for c in &report.cases {
            assert_eq!(c.full_rescan.events, c.incremental.events);
            assert!(c.full_rescan.events > 0);
        }
    }

    #[test]
    fn json_shape_carries_both_modes_and_the_speedup() {
        let report = run_perf(&tiny_opts());
        let v = report.to_json();
        let cases = v.get("cases").and_then(Value::as_array).unwrap();
        assert_eq!(cases.len(), 5);
        for c in cases {
            for key in ["full_rescan", "incremental", "speedup", "identical"] {
                assert!(c.get(key).is_some(), "missing {key}");
            }
        }
        assert!(v.get("speedup_at_largest").is_some());
        // The host block makes numbers interpretable across machines.
        let host = v.get("host").unwrap();
        assert!(host.get("logical_cores").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(
            host.get("engine").and_then(Value::as_str).unwrap(),
            vsched_campaign::ENGINE_VERSION
        );
        assert!(v.get("calibration").is_none());
    }

    #[test]
    fn scale_axis_reports_sequential_rtf() {
        let opts = PerfOpts {
            ticks: 100,
            seed: 42,
            repeats: 1,
            max_vms: 64,
            commit: Some("deadbeef".into()),
        };
        let report = run_perf(&opts);
        assert_eq!(report.scale_cases.len(), 1);
        let c = &report.scale_cases[0];
        assert_eq!(
            (c.name.as_str(), c.vms, c.vcpus, c.pcpus),
            ("64vm", 64, 128, 64)
        );
        assert_eq!(c.ticks, scale_ticks(64, 100));
        assert!(c.sequential.events > 0);
        assert!(c.sequential_rtf > 0.0);
        assert_eq!(report.rtf_at_largest(), Some(c.sequential_rtf));
        assert!(c.direct.ticks_per_sec > 0.0);
        assert!(c.direct.ns_per_vcpu_tick > 0.0);
        assert!(c.direct_rtf > 0.0);
        assert_eq!(report.direct_linearity(), None, "one cell has no ratio");

        let v = report.to_json();
        assert_eq!(
            v.get("host")
                .and_then(|h| h.get("commit"))
                .and_then(Value::as_str),
            Some("deadbeef")
        );
        let scale = v.get("scale_cases").and_then(Value::as_array).unwrap();
        assert_eq!(scale.len(), 1);
        for key in [
            "name",
            "vms",
            "ticks",
            "sequential",
            "sequential_rtf",
            "direct",
            "direct_rtf",
        ] {
            assert!(scale[0].get(key).is_some(), "missing {key}");
        }
        for key in ["seconds", "ticks_per_sec", "ns_per_vcpu_tick"] {
            assert!(
                scale[0]["direct"].get(key).is_some(),
                "missing direct.{key}"
            );
        }
        assert!(v.get("rtf_at_largest").is_some());
        assert!(v.get("direct_linearity").is_some());
        let text = report.render_text();
        assert!(text.contains("64vm"));
        assert!(text.contains("ticks/s (rtf"), "{text}");
    }

    #[test]
    fn scale_axis_is_empty_below_its_smallest_cell() {
        assert!(scale_axis(0).is_empty());
        assert!(scale_axis(63).is_empty());
        assert_eq!(
            scale_axis(1024).iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![64, 256, 1024]
        );
        // Per-cell ticks shrink with model size but never below the floor.
        assert_eq!(scale_ticks(64, 2_000), 500);
        assert_eq!(scale_ticks(256, 2_000), 125);
        assert_eq!(scale_ticks(1024, 2_000), 31);
        assert_eq!(scale_ticks(1024, 100), 25);
    }

    #[test]
    fn baseline_regression_detection() {
        let report = run_perf(&tiny_opts());
        let dir = std::env::temp_dir().join(format!("vsched-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");

        // A baseline written from the report itself never regresses.
        std::fs::write(&path, serde_json::to_string(&report.to_json()).unwrap()).unwrap();
        let regressions = check_against_baseline(&report, &path, 2.0).unwrap();
        assert!(regressions.is_empty());

        // An impossibly good baseline speedup trips every case.
        let mut doctored = report.clone();
        for c in &mut doctored.cases {
            c.speedup = 1e15;
        }
        std::fs::write(&path, serde_json::to_string(&doctored.to_json()).unwrap()).unwrap();
        let regressions = check_against_baseline(&report, &path, 2.0).unwrap();
        assert_eq!(regressions.len(), report.cases.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_gates_direct_linearity() {
        let opts = PerfOpts {
            max_vms: 64,
            ..tiny_opts()
        };
        // Two scale cells without simulating a large model: the 64vm
        // cell, and a copy of it standing in for 1024vm. Fixed costs keep
        // every ratio below (1.5, 0.5) exact in floating point.
        let mut report = run_perf(&opts);
        report.scale_cases[0].direct.ns_per_vcpu_tick = 8.0;
        let mut large = report.scale_cases[0].clone();
        large.name = "1024vm".into();
        large.direct.ns_per_vcpu_tick = 12.0;
        report.scale_cases.push(large);
        assert_eq!(report.direct_linearity(), Some(1.5));
        assert!(report.render_text().contains("direct linearity: 1.50"));

        let dir = std::env::temp_dir().join(format!("vsched-perf-lin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let write = |r: &PerfReport| {
            std::fs::write(&path, serde_json::to_string(&r.to_json()).unwrap()).unwrap();
        };
        write(&report);
        assert!(check_against_baseline(&report, &path, 2.0)
            .unwrap()
            .is_empty());

        // A baseline with a flatter direct engine (ratio 0.5) trips a
        // ratio that grew past the allowed factor...
        let mut flatter = report.clone();
        flatter.scale_cases[1].direct.ns_per_vcpu_tick =
            flatter.scale_cases[0].direct.ns_per_vcpu_tick / 2.0;
        write(&flatter);
        let regressions = check_against_baseline(&report, &path, 2.0).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].contains("direct linearity"),
            "{regressions:?}"
        );
        // ...but stays within a looser one.
        assert!(check_against_baseline(&report, &path, 4.0)
            .unwrap()
            .is_empty());

        // A baseline without the same pair of cells is not compared.
        flatter.scale_cases.truncate(1);
        write(&flatter);
        assert!(check_against_baseline(&report, &path, 2.0)
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
