//! The traced run's in-memory span ledger.
//!
//! A span records one call into a layer: its layer name, start and end
//! (nanoseconds since the ledger was created) and the span that caused
//! it. Spans are kept in memory and written out when the run ends.
//! Counters record what the layer did at the same boundaries (events
//! applied, completions, replications).
//!
//! With tracing off there is no ledger at all: [`span`] takes
//! `Option<Tracer>` and calls straight through on `None`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer label, e.g. `san.run`.
    pub layer: &'static str,
    /// The span this call ran inside of (possibly on another thread).
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the ledger was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the ledger was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans and counters of one traced unit of work.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Ledger {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Times `f` as a span of `layer` under `parent`; `f` receives the
    /// new span's id so that calls it makes can name it as their parent.
    pub fn record<T>(
        &self,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span ledger poisoned");
            spans.push(Span {
                layer,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            SpanId(u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans"))
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span ledger poisoned")[id.0 as usize].end_ns = end_ns;
        out
    }

    /// Adds `by` to counter `name`.
    pub fn count(&self, name: &'static str, by: f64) {
        *self
            .counters
            .lock()
            .expect("counter ledger poisoned")
            .entry(name)
            .or_insert(0.0) += by;
    }

    /// A copy of every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span ledger poisoned").clone()
    }

    /// A copy of every counter.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counters
            .lock()
            .expect("counter ledger poisoned")
            .clone()
    }
}

/// Where a traced call is recorded: the ledger and the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Tracer<'a> {
    /// The unit's ledger (an `Arc` so that policy decorators can keep it).
    pub ledger: &'a Arc<Ledger>,
    /// The span new calls are children of.
    pub parent: SpanId,
}

/// Runs `f` inside a span of `layer` when tracing, or directly when not.
/// `f` receives the tracer its own calls should use.
pub fn span<'a, T>(
    tr: Option<Tracer<'a>>,
    layer: &'static str,
    f: impl FnOnce(Option<Tracer<'a>>) -> T,
) -> T {
    match tr {
        None => f(None),
        Some(t) => t.ledger.record(layer, Some(t.parent), |id| {
            f(Some(Tracer {
                ledger: t.ledger,
                parent: id,
            }))
        }),
    }
}

/// Adds to a counter when tracing.
pub fn count(tr: Option<Tracer<'_>>, name: &'static str, by: f64) {
    if let Some(t) = tr {
        t.ledger.count(name, by);
    }
}

/// Self time of every span, in seconds.
///
/// A span's self time is the part of its interval that none of its child
/// spans cover. Children may run concurrently on other threads, so each
/// instant is split equally among the innermost spans active at it: on
/// one thread this is plain duration minus children, and across threads
/// it makes the self times of a tree add up to the root's duration.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    // (time, 0 = end / 1 = start, order) — ends before starts at equal
    // times, children end before their parents, parents start first.
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        let order = i64::try_from(i).expect("span index fits i64");
        events.push((s.start_ns, 1, order, i));
        events.push((s.end_ns, 0, -order, i));
    }
    events.sort_unstable();

    let mut own = vec![0.0f64; spans.len()];
    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut leaves: Vec<usize> = Vec::new();
    let mut prev = events.first().map_or(0, |e| e.0);
    for (t, kind, _, i) in events {
        if t > prev && !leaves.is_empty() {
            let share = (t - prev) as f64 * 1e-9 / leaves.len() as f64;
            for &l in &leaves {
                own[l] += share;
            }
        }
        prev = t;
        let parent = spans[i].parent.map(|p| p.0 as usize);
        if kind == 1 {
            open[i] = true;
            leaves.push(i);
            if let Some(p) = parent {
                if open_children[p] == 0 {
                    leaves.retain(|&l| l != p);
                }
                open_children[p] += 1;
            }
        } else {
            open[i] = false;
            leaves.retain(|&l| l != i);
            if let Some(p) = parent {
                open_children[p] -= 1;
                if open_children[p] == 0 && open[p] {
                    leaves.push(p);
                }
            }
        }
    }
    own
}

/// Writes spans as JSON lines: `{"id":..,"layer":..,"parent":..,"start_ns":..,"end_ns":..}`.
///
/// # Errors
///
/// Any I/O error from `out`.
pub fn write_spans(out: &mut impl std::io::Write, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(out);
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.0.to_string());
        writeln!(
            w,
            r#"{{"id":{id},"layer":"{}","parent":{parent},"start_ns":{},"end_ns":{}}}"#,
            s.layer, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent: parent.map(SpanId),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_self_time_is_duration_minus_children() {
        let spans = [
            s("root", None, 0, 100),
            s("a", Some(0), 10, 40),
            s("b", Some(1), 20, 30),
            s("c", Some(0), 50, 90),
        ];
        let own = self_times(&spans);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(
            own.iter().map(|&x| ns(x)).collect::<Vec<_>>(),
            [30, 20, 10, 40]
        );
    }

    #[test]
    fn concurrent_children_share_the_wall() {
        // Two workers under one pool span: 0..100, with one idle gap.
        let spans = [
            s("pool", None, 0, 100),
            s("task", Some(0), 0, 100),
            s("task", Some(0), 0, 60),
        ];
        let own = self_times(&spans);
        let total: f64 = own.iter().sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times add up to the wall"
        );
        assert!(own[0].abs() < 1e-15, "the pool is never idle");
        assert!((own[1] - 70e-9).abs() < 1e-15);
        assert!((own[2] - 30e-9).abs() < 1e-15);
    }
}
