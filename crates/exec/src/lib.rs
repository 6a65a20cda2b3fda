//! Bounded parallel execution of independent replications with
//! deterministic, replication-order merging.
//!
//! Both replication runners in this workspace (`vsched-core`'s
//! `ExperimentBuilder` and `vsched-trace`'s `TraceExperiment`) funnel
//! their replications through this crate, and campaign cells and fuzz
//! cases fan out over [`run_indexed`]. Two primitives are provided:
//!
//! * [`run_indexed`] — run a fixed range of replication indices across a
//!   bounded worker pool and return the results in index order;
//! * [`run_converged`] — the convergence-driven loop: run *speculative
//!   batches* in parallel, merge observations into a
//!   [`ReplicationController`] in ascending replication order, and re-check
//!   the stopping rule between records.
//!
//! Parallelism lives only *across* replications: one replication always
//! runs on one thread, since splitting a replication's event loop across
//! threads measured slower than sequential (see `DESIGN.md` §19).
//!
//! # Determinism
//!
//! Results are **bit-identical for any worker count**, which the drivers
//! rely on and the workspace test suite asserts. The argument:
//!
//! 1. Replication `r`'s randomness derives purely from its index (callers
//!    seed with `base_seed + r`), never from scheduling order.
//! 2. [`run_indexed`] keys every result by its index and sorts the merge,
//!    so the output vector is independent of which worker ran what.
//! 3. [`run_converged`] may *launch* different batch sizes for different
//!    `jobs` values, but it consumes results strictly in ascending
//!    replication order and re-checks [`ReplicationController::needs_more`]
//!    before recording each one. The recorded sequence is therefore the
//!    longest prefix `0, 1, 2, …` of the replication stream that the
//!    stopping rule accepts — a property of the stream alone. Surplus
//!    speculative replications are discarded (bounded wasted work, never
//!    skewed statistics).
//! 4. On failure, the error returned is the one with the **lowest**
//!    replication index. Workers claim indices in ascending order, so every
//!    index below a failed one has also been claimed and finishes; the
//!    minimum over observed errors equals what a sequential run would hit
//!    first.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use vsched_stats::{ReplicationController, StoppingRule};

/// Resolves a jobs knob to a concrete worker count.
///
/// `Some(n)` with `n >= 1` is used as-is; `None` (or `Some(0)`) selects
/// [`std::thread::available_parallelism`], falling back to 1 if the
/// parallelism of the host cannot be determined.
#[must_use]
pub fn resolve_jobs(jobs: Option<usize>) -> usize {
    match jobs {
        Some(n) if n >= 1 => n,
        _ => thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Runs `task` for every index in `start .. start + count` on at most
/// `jobs` worker threads, returning results in index order.
///
/// With `jobs == 1` (or `count <= 1`) the tasks run inline on the calling
/// thread with no pool. Otherwise `min(jobs, count)` scoped threads claim
/// indices from a shared atomic counter in ascending order.
///
/// # Errors
///
/// If any task fails, the error for the lowest failing index is returned
/// (identical to a sequential run); remaining workers stop claiming new
/// indices after the first failure.
///
/// # Panics
///
/// A panic inside `task` is propagated to the caller with its original
/// payload.
pub fn run_indexed<T, E, F>(jobs: usize, start: u64, count: usize, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(u64) -> Result<T, E> + Sync,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    let jobs = jobs.clamp(1, count);
    if jobs == 1 {
        return (0..count).map(|i| task(start + i as u64)).collect();
    }

    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let per_worker: Vec<Vec<(usize, Result<T, E>)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let result = task(start + i as u64);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        local.push((i, result));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let mut first_error: Option<(usize, E)> = None;
    for (i, result) in per_worker.into_iter().flatten() {
        match result {
            Ok(value) => slots[i] = Some(value),
            Err(e) => {
                if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_error = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every index below the claim counter completed"))
        .collect())
}

/// Convergence-driven replicated execution: speculative parallel batches,
/// merged in replication order under `rule`.
///
/// `task(rep)` runs replication `rep` (seeding from `rep` alone) and
/// `observe` extracts the per-replication observation vector that feeds the
/// [`ReplicationController`]. The controller is created lazily from the
/// first observation's arity.
///
/// Each round launches a batch sized to cover the stopping rule's remaining
/// minimum, or `jobs`, whichever is larger (capped at the rule's remaining
/// maximum), then records results in ascending order, re-checking
/// `needs_more` before every record. See the crate docs for why the outcome
/// is independent of `jobs`.
///
/// Returns the controller (intervals, replication count) and the outputs of
/// exactly the recorded replications, in order.
///
/// # Errors
///
/// The lowest-indexed task error, as for [`run_indexed`].
pub fn run_converged<T, E, F, O>(
    jobs: usize,
    rule: StoppingRule,
    task: F,
    observe: O,
) -> Result<(ReplicationController, Vec<T>), E>
where
    T: Send,
    E: Send,
    F: Fn(u64) -> Result<T, E> + Sync,
    O: Fn(&T) -> Vec<f64>,
{
    let jobs = jobs.max(1);
    let mut controller: Option<ReplicationController> = None;
    let mut recorded: Vec<T> = Vec::new();
    let mut next_rep: u64 = 0;
    while controller
        .as_ref()
        .is_none_or(ReplicationController::needs_more)
    {
        let done = recorded.len();
        let min_gap = rule.min_replications.saturating_sub(done);
        let cap = rule.max_replications.saturating_sub(done).max(1);
        let batch = min_gap.max(jobs).min(cap);
        let outputs = run_indexed(jobs, next_rep, batch, &task)?;
        next_rep += batch as u64;
        for out in outputs {
            let obs = observe(&out);
            let c = controller.get_or_insert_with(|| ReplicationController::new(rule, obs.len()));
            if !c.needs_more() {
                break; // surplus speculative replication: discard
            }
            c.record(&obs);
            recorded.push(out);
        }
    }
    let controller = controller.expect("at least one batch runs before convergence");
    Ok((controller, recorded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn resolve_jobs_explicit_and_auto() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
        assert!(resolve_jobs(Some(0)) >= 1);
    }

    #[test]
    fn run_indexed_orders_results_for_any_worker_count() {
        let task = |i: u64| -> Result<u64, ()> { Ok(i * i + 7) };
        let reference = run_indexed(1, 5, 40, task).unwrap();
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(jobs, 5, 40, task).unwrap(), reference);
        }
        assert_eq!(reference[0], 32, "starts at the offset index");
    }

    #[test]
    fn run_indexed_empty_range() {
        let out: Vec<u64> = run_indexed(4, 0, 0, |_| Ok::<_, ()>(0)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn run_indexed_reports_lowest_index_error() {
        let task = |i: u64| -> Result<u64, u64> {
            if i.is_multiple_of(3) && i > 0 {
                Err(i)
            } else {
                Ok(i)
            }
        };
        for jobs in [1, 2, 8] {
            assert_eq!(
                run_indexed(jobs, 0, 50, task).unwrap_err(),
                3,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn run_indexed_bounds_concurrency() {
        let active = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let jobs = 3;
        run_indexed(jobs, 0, 64, |_| -> Result<(), ()> {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
        let peak = high_water.load(Ordering::SeqCst);
        assert!(peak <= jobs, "peak concurrency {peak} exceeds jobs={jobs}");
        assert!(peak >= 2, "pool should actually run in parallel");
    }

    #[test]
    fn pool_overlaps_waiting_tasks() {
        // Latency-bound tasks overlap regardless of core count, so this
        // demonstrates >1.5x executor scaling even on a 1-CPU host. The
        // expected ratio is ~4x; 1.5 leaves slack for scheduler noise.
        let timed = |jobs: usize| {
            let start = std::time::Instant::now();
            run_indexed(jobs, 0, 16, |_| -> Result<(), ()> {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Ok(())
            })
            .unwrap();
            start.elapsed()
        };
        let sequential = timed(1);
        let parallel = timed(4);
        let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
        assert!(
            speedup > 1.5,
            "4 workers over 16x5ms tasks: speedup {speedup:.2} <= 1.5 \
             (seq {sequential:?}, par {parallel:?})"
        );
    }

    #[test]
    #[should_panic(expected = "deliberate task panic")]
    fn run_indexed_propagates_panics() {
        let _ = run_indexed(4, 0, 8, |i| -> Result<u64, ()> {
            assert!(i != 5, "deliberate task panic");
            Ok(i)
        });
    }

    /// A replication stream whose observations tighten as the index grows:
    /// convergence lands mid-batch for wide pools, exercising the
    /// speculative-surplus discard.
    fn noisy_task(rep: u64) -> Result<f64, ()> {
        let wobble = if rep.is_multiple_of(2) { 1.0 } else { -1.0 };
        Ok(0.5 + wobble * 0.4 / (rep + 1) as f64)
    }

    #[test]
    fn run_converged_is_invariant_to_jobs() {
        let rule = StoppingRule::new(0.95, 0.05)
            .with_min_replications(3)
            .with_max_replications(200);
        let (c1, out1) = run_converged(1, rule, noisy_task, |x: &f64| vec![*x]).unwrap();
        for jobs in [2, 4, 16] {
            let (c, out) = run_converged(jobs, rule, noisy_task, |x: &f64| vec![*x]).unwrap();
            assert_eq!(c.replications(), c1.replications(), "jobs={jobs}");
            assert_eq!(out, out1, "jobs={jobs}");
            let (a, b) = (c.intervals().unwrap(), c1.intervals().unwrap());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "jobs={jobs}");
                assert_eq!(x.half_width.to_bits(), y.half_width.to_bits());
            }
        }
    }

    #[test]
    fn run_converged_respects_min_and_max() {
        let tight = StoppingRule::new(0.95, 1e-12)
            .with_min_replications(2)
            .with_max_replications(9);
        let (c, out) = run_converged(4, tight, noisy_task, |x: &f64| vec![*x]).unwrap();
        assert_eq!(c.replications(), 9, "unconvergeable stream stops at max");
        assert_eq!(out.len(), 9);

        let loose = StoppingRule::new(0.95, 10.0)
            .with_min_replications(6)
            .with_max_replications(50);
        let (c, _) = run_converged(4, loose, noisy_task, |x: &f64| vec![*x]).unwrap();
        assert_eq!(c.replications(), 6, "converged at the minimum count");
    }

    #[test]
    fn run_converged_consumes_prefix_of_the_stream() {
        // Whatever was recorded must be replications 0..n in order.
        let seen = Mutex::new(Vec::new());
        let rule = StoppingRule::new(0.95, 0.05)
            .with_min_replications(3)
            .with_max_replications(100);
        let (c, out) = run_converged(
            8,
            rule,
            |rep| {
                seen.lock().unwrap().push(rep);
                noisy_task(rep)
            },
            |x: &f64| vec![*x],
        )
        .unwrap();
        let n = c.replications();
        assert_eq!(out.len(), n);
        let expected: Vec<f64> = (0..n as u64).map(|r| noisy_task(r).unwrap()).collect();
        assert_eq!(out, expected, "recorded outputs are the stream prefix");
        let launched = seen.lock().unwrap().len();
        assert!(
            launched >= n,
            "speculative launches at least cover the prefix"
        );
    }

    #[test]
    fn run_converged_propagates_errors() {
        let rule = StoppingRule::new(0.95, 1e-12)
            .with_min_replications(2)
            .with_max_replications(50);
        let err = run_converged(
            4,
            rule,
            |rep| {
                if rep == 7 {
                    Err("rep 7 failed")
                } else {
                    Ok((rep % 2) as f64) // alternating: never converges
                }
            },
            |x: &f64| vec![*x],
        )
        .unwrap_err();
        assert_eq!(err, "rep 7 failed");
    }
}
