//! The measurement loop shared by every workload, and the per-layer
//! metrics derived from a traced unit's ledger.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use vsched_core::SampleMetrics;

use crate::calibrate::{Calibrator, Probe};
use crate::ledger::{self_times, Ledger, Span, Tracer};

/// One workload: a set-up, which is what a user pays before the first
/// simulated tick, and a timed phase that checks its own outputs.
///
/// An untraced unit runs the timed phase through the program's own front
/// door; a traced unit does the same work one public call at a time, each
/// call a span. `setup_s` times set-up-only repetitions.
///
/// Untraced units are bracketed by readings of the host's speed with the
/// workload's [`Probe`] (see [`crate::calibrate`]).
pub trait Workload {
    /// What the set-up hands to a traced unit's timed phase.
    type Ready;
    /// What an untraced unit's timed phase starts from.
    type Front;

    /// The set-up, one public call at a time (each a span when traced).
    ///
    /// # Errors
    ///
    /// Any failure of the program under test.
    fn setup(&mut self, tr: Option<Tracer<'_>>) -> Result<Self::Ready, String>;

    /// Prepares an untraced unit, outside every timing.
    ///
    /// # Errors
    ///
    /// Any failure of the program under test.
    fn prepare(&mut self) -> Result<Self::Front, String>;

    /// An untraced unit's timed phase: the program's front door. Checks
    /// its outputs against the reference.
    ///
    /// # Errors
    ///
    /// Any failure of the program under test.
    fn run(&mut self, front: Self::Front) -> Result<Unit, String>;

    /// A traced unit's timed phase: the same work decomposed into public
    /// calls. Checks its outputs against the reference.
    ///
    /// # Errors
    ///
    /// Any failure of the program under test.
    fn run_traced(&mut self, ready: Self::Ready, tr: Tracer<'_>) -> Result<Unit, String>;

    /// Operations (cells, replications, episodes) one unit attempts.
    fn ops_per_unit(&self) -> u64;

    /// Fewest set-ups to time, so that a millisecond set-up still gives
    /// a steady median.
    fn min_setups(&self) -> usize;

    /// The probe whose speed tracks this workload's timed phase.
    fn probe(&self) -> Probe;

    /// Removes what a unit left on disk; runs outside every timing.
    fn cleanup(&mut self) {}

    /// Extra measurements of a traced unit that must stay outside its
    /// span tree (recorded as counters).
    fn after_traced(&mut self, _ledger: &Ledger) {}
}

/// What one timed phase did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Operations whose output did not match the reference.
    pub failed: u64,
    /// Simulated ticks (replication-ticks for a campaign).
    pub ticks: u64,
}

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output did not match.
    pub failed: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A traced unit: its ledger plus what was measured around it.
#[derive(Debug)]
pub struct TracedUnit {
    /// Spans and counters.
    pub ledger: Arc<Ledger>,
    /// Timed-phase seconds (comparable to an untraced unit's).
    pub wall_s: f64,
    /// Process CPU seconds spent in the unit.
    pub cpu_s: f64,
    /// Simulated ticks.
    pub ticks: u64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Host seconds of every set-up-only repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of every untraced timed phase.
    pub wall_s: Vec<f64>,
    /// Host speed during each untraced timed phase: the median of the
    /// readings taken just before and just after it. `wall_s × speed`
    /// is the phase's seconds at reference speed.
    pub speed: Vec<f64>,
    /// Simulated ticks of each untraced timed phase.
    pub ticks: Vec<u64>,
    /// Traced units (traced runs only).
    pub traced: Vec<TracedUnit>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Errors met, for the report.
    pub errors: Vec<String>,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs units for about `seconds`, with set-up-only repetitions spread
/// over the run, then tops up the set-ups to `min_setups`.
///
/// A traced run pairs every untraced unit with a traced one, so that the
/// tracing overhead is measured on neighbouring units.
pub fn measure<W: Workload>(w: &mut W, seconds: f64, traced: bool) -> Measurement {
    let cal = Calibrator::new(w.probe());
    let mut m = Measurement::default();
    let start = Instant::now();
    let mut rounds = 0u32;
    loop {
        untraced_unit(w, &mut m, &cal);
        if traced {
            traced_unit(w, &mut m);
        }
        rounds += 1;
        let elapsed = secs_since(start);
        let due = (w.min_setups() as f64 * (elapsed / seconds).min(1.0)).ceil() as usize;
        if !setups(w, &mut m, due) {
            return m;
        }
        // Stop when one more round would end nearer past the budget
        // than this one ends before it.
        let elapsed = secs_since(start);
        if elapsed + 0.5 * elapsed / f64::from(rounds) >= seconds {
            break;
        }
    }
    setups(w, &mut m, w.min_setups());
    m
}

/// Times set-up-only repetitions until there are `due`; false when one
/// fails.
fn setups<W: Workload>(w: &mut W, m: &mut Measurement, due: usize) -> bool {
    while m.setup_s.len() < due {
        let t = Instant::now();
        let outcome = w.setup(None);
        let secs = secs_since(t);
        let ok = match outcome {
            Ok(ready) => {
                m.setup_s.push(secs);
                drop(ready);
                true
            }
            Err(e) => {
                m.errors.push(format!("set-up: {e}"));
                m.tally.attempted += 1;
                m.tally.failed += 1;
                false
            }
        };
        w.cleanup();
        if !ok {
            return false;
        }
    }
    true
}

/// Readings of the host speed taken at each end of an untraced unit.
const READINGS: usize = 3;

fn read_speed(cal: &Calibrator, readings: &mut Vec<f64>) {
    readings.extend((0..READINGS).map(|_| cal.speed()));
}

fn untraced_unit<W: Workload>(w: &mut W, m: &mut Measurement, cal: &Calibrator) {
    m.tally.attempted += w.ops_per_unit();
    let outcome = w.prepare().and_then(|front| {
        let mut readings = Vec::with_capacity(2 * READINGS);
        read_speed(cal, &mut readings);
        let t = Instant::now();
        let unit = w.run(front);
        let wall = secs_since(t);
        read_speed(cal, &mut readings);
        Ok((unit?, wall, median(&readings)))
    });
    match outcome {
        Ok((unit, wall, speed)) => {
            m.wall_s.push(wall);
            m.speed.push(speed);
            m.ticks.push(unit.ticks);
            m.tally.failed += unit.failed;
        }
        Err(e) => {
            m.errors.push(e);
            m.tally.failed += w.ops_per_unit();
        }
    }
    w.cleanup();
}

fn traced_unit<W: Workload>(w: &mut W, m: &mut Measurement) {
    m.tally.attempted += w.ops_per_unit();
    let ledger = Arc::new(Ledger::default());
    let cpu0 = process_cpu_s();
    let outcome = ledger.record("unit", None, |root| {
        let tr = Tracer {
            ledger: &ledger,
            parent: root,
        };
        let ready = w.setup(Some(tr))?;
        let t = Instant::now();
        let unit = w.run_traced(ready, tr)?;
        Ok::<_, String>((unit, secs_since(t)))
    });
    let cpu_s = process_cpu_s() - cpu0;
    match outcome {
        Ok((unit, wall_s)) => {
            m.tally.failed += unit.failed;
            w.after_traced(&ledger);
            m.traced.push(TracedUnit {
                ledger,
                wall_s,
                cpu_s,
                ticks: unit.ticks,
            });
        }
        Err(e) => {
            m.errors.push(e);
            m.tally.failed += w.ops_per_unit();
        }
    }
    w.cleanup();
}

/// The IEEE-754 bits of every observation: equal vectors mean
/// bit-identical metrics.
#[must_use]
pub fn observation_bits(m: &SampleMetrics) -> Vec<u64> {
    m.to_observations().iter().map(|x| x.to_bits()).collect()
}

/// Median (mean of the middle two for an even count); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile, sample count)`. With ten samples or fewer there
/// is no such percentile, and the maximum is reported as the 100th.
#[must_use]
pub fn tail(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1..=10 => (v[n - 1], 100.0, n as f64),
        _ => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64, n as f64),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced unit (`env.episodes`,
/// `tracing.overhead`, `host.speed` and `host.wall_s` are run-level and
/// added by the caller).
#[must_use]
pub fn layer_metrics(unit: &TracedUnit) -> BTreeMap<&'static str, f64> {
    let spans = unit.ledger.spans();
    let counters = unit.ledger.counters();
    let durs = |layer: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::secs)
            .collect()
    };
    // `+ 0.0` turns the empty sum, -0.0, into 0.0.
    let total = |layer: &str| durs(layer).iter().sum::<f64>() + 0.0;
    let calls = |layer: &str| durs(layer).len() as f64;
    // Self time of a layer's calls: duration minus their direct children
    // (the policy calls an engine run makes).
    let mut child_s = vec![0.0f64; spans.len()];
    for s in &spans {
        if let Some(p) = s.parent {
            child_s[p.0 as usize] += s.secs();
        }
    }
    let own_of = |layer: &str| -> f64 {
        spans
            .iter()
            .zip(&child_s)
            .filter(|(s, _)| s.layer == layer)
            .map(|(s, c)| s.secs() - c)
            .sum::<f64>()
            + 0.0
    };
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let root_s = spans.first().map_or(0.0, Span::secs);

    let mut m = BTreeMap::new();
    let cells = durs("exec.task");
    let (cell_tail, cell_pct, cell_n) = tail(&cells);
    m.insert("campaign.plan_s", total("campaign.plan"));
    m.insert("campaign.cells", cells.len() as f64);
    m.insert("campaign.cell_s_p50", median(&cells));
    m.insert("campaign.cell_s_tail", cell_tail);
    m.insert("campaign.cell_s_tail_pct", cell_pct);
    m.insert("campaign.cell_s_tail_n", cell_n);
    m.insert("campaign.render_s", total("campaign.render"));
    m.insert("store.open_s", total("store.open"));
    m.insert("store.put_s", total("store.put"));
    m.insert("store.puts", calls("store.put"));
    m.insert("store.load_s", total("store.load"));
    m.insert("store.loads", calls("store.load"));

    let pool = counter("exec.workers") * total("exec.run");
    let busy = total("exec.task");
    m.insert("exec.busy_share", ratio(busy, pool));
    m.insert("exec.idle_s", if pool > 0.0 { pool - busy } else { 0.0 });
    m.insert("stats.replications", counter("stats.replications"));

    let completions = counter("san.completions");
    let aborts = counter("san.aborts");
    let san_run = total("san.run");
    m.insert("san.build_s", total("san.build"));
    m.insert("san.run_s", san_run);
    m.insert("san.self_s", own_of("san.run"));
    m.insert("san.completions", completions);
    m.insert("san.aborts", aborts);
    m.insert(
        "san.completions_per_tick",
        if completions > 0.0 {
            ratio(completions, unit.ticks as f64)
        } else {
            0.0
        },
    );
    m.insert("san.abort_ratio", ratio(aborts, completions + aborts));
    m.insert("san.completions_per_s", ratio(completions, san_run));
    m.insert("direct.build_s", total("direct.build"));
    m.insert("direct.run_s", total("direct.run"));
    m.insert("direct.self_s", own_of("direct.run"));

    let sched_us: Vec<f64> = durs("sched.call").iter().map(|s| s * 1e6).collect();
    let sched_s = total("sched.call");
    let (sched_tail, sched_pct, sched_n) = tail(&sched_us);
    m.insert("sched.calls", sched_us.len() as f64);
    m.insert("sched.busy_s", sched_s);
    m.insert("sched.share", ratio(sched_s, root_s));
    m.insert("sched.call_us_p50", median(&sched_us));
    m.insert("sched.call_us_tail", sched_tail);
    m.insert("sched.call_us_tail_pct", sched_pct);
    m.insert("sched.call_us_tail_n", sched_n);

    m.insert("trace.load_s", total("trace.load"));
    m.insert("trace.events", calls("trace.apply"));
    m.insert("trace.segments", counter("trace.segments"));
    m.insert("trace.apply_s", total("trace.apply"));

    let step_us: Vec<f64> = durs("env.step").iter().map(|s| s * 1e6).collect();
    let step_s = total("env.step");
    let engine_s = counter("env.engine_s");
    let (step_tail, step_pct, step_n) = tail(&step_us);
    m.insert("env.steps", step_us.len() as f64);
    m.insert("env.reset_s", total("env.reset"));
    m.insert("env.step_s", step_s);
    m.insert("env.step_us_p50", median(&step_us));
    m.insert("env.step_us_tail", step_tail);
    m.insert("env.step_us_tail_pct", step_pct);
    m.insert("env.step_us_tail_n", step_n);
    m.insert("env.engine_s", engine_s);
    m.insert(
        "env.handoff_us",
        ratio((step_s - engine_s) * 1e6, step_us.len() as f64),
    );

    m.insert(
        "ledger.coverage",
        ratio(
            root_s - self_times(&spans).first().copied().unwrap_or(0.0),
            root_s,
        ),
    );
    m.insert("proc.cpu_s", unit.cpu_s);
    m
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// User plus system CPU seconds of this process, all threads included;
/// 0 when `/proc/self/stat` is unreadable.
#[must_use]
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 (utime, stime) in USER_HZ, which Linux fixes at
    // 100 for user space; the command name may hold spaces, so fields
    // are counted after its closing parenthesis.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0, 100.0));
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0, 2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
