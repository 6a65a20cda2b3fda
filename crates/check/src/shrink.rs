//! Greedy reproducer shrinking.
//!
//! Fuzz failures arrive wrapped in whatever topology and workload the
//! generator happened to draw. Before writing a reproducer, the driver
//! shrinks the case by trying a fixed family of simplifications — drop a
//! VM, shed a sibling VCPU, remove synchronization, flatten the load
//! distribution, halve the horizon, thin out the churn scenario one
//! trace event at a time — and greedily adopting any candidate
//! that still fails the oracle *with the same failure kinds*. The result
//! is the smallest case this family reaches, typically one or two VMs
//! with a deterministic workload, which is what a human wants to stare
//! at.
//!
//! Shrinking re-runs the oracle once per candidate, so the driver bounds
//! the effort with [`MAX_SHRINK_ROUNDS`].

use crate::case::{FuzzCase, LoadSpec, SyncSpec};
use crate::oracle::{run_case, CaseOutcome, FailureKind, OracleOpts};

/// Upper bound on greedy adoption rounds (each round tries every
/// candidate once; one round is usually enough, two catches cascades).
pub const MAX_SHRINK_ROUNDS: usize = 3;

/// Shrinks `case`, which must already fail the oracle with `original`'s
/// failures. Returns the smallest still-failing case found together with
/// its outcome; returns the input unchanged if no simplification
/// preserves the failure.
#[must_use]
pub fn shrink(
    case: &FuzzCase,
    original: &CaseOutcome,
    opts: &OracleOpts,
) -> (FuzzCase, CaseOutcome) {
    let target: Vec<FailureKind> = kinds(original);
    let mut best = case.clone();
    let mut best_outcome = original.clone();
    for _ in 0..MAX_SHRINK_ROUNDS {
        let mut improved = false;
        for candidate in candidates(&best) {
            let outcome = run_case(&candidate, opts);
            if !outcome.failures.is_empty() && kinds(&outcome) == target {
                best = candidate;
                best_outcome = outcome;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_outcome)
}

/// Sorted, deduplicated failure kinds — the shrinker's notion of "the
/// same bug" (details like tick numbers legitimately shift as the case
/// shrinks).
fn kinds(outcome: &CaseOutcome) -> Vec<FailureKind> {
    let mut ks: Vec<FailureKind> = outcome.failures.iter().map(|f| f.kind).collect();
    ks.sort_by_key(|k| *k as u8);
    ks.dedup();
    ks
}

/// Simplification candidates in decreasing order of aggressiveness.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();

    // Drop whole VMs (keep at least one). Trace events referencing the
    // dropped VM go with it; later indices shift down to stay valid.
    if case.vms.len() > 1 {
        for drop in 0..case.vms.len() {
            let mut c = case.clone();
            c.vms.remove(drop);
            c.trace.retain(|e| e.vm != drop);
            for e in &mut c.trace {
                if e.vm > drop {
                    e.vm -= 1;
                }
            }
            out.push(c);
        }
    }

    // Shed one sibling VCPU from the widest VM.
    if let Some((widest, _)) = case
        .vms
        .iter()
        .enumerate()
        .filter(|(_, vm)| vm.vcpus > 1)
        .max_by_key(|(_, vm)| vm.vcpus)
    {
        let mut c = case.clone();
        c.vms[widest].vcpus -= 1;
        out.push(c);
    }

    // Fewer PCPUs, but never fewer than the widest gang (a gang wider
    // than the machine is outside the generated envelope).
    let widest_gang = case.vms.iter().map(|vm| vm.vcpus).max().unwrap_or(1);
    if case.pcpus > widest_gang.max(1) {
        let mut c = case.clone();
        c.pcpus -= 1;
        out.push(c);
    }

    // Flatten weights.
    if case.vms.iter().any(|vm| vm.weight != 1) {
        let mut c = case.clone();
        for vm in &mut c.vms {
            vm.weight = 1;
        }
        out.push(c);
    }

    // Remove synchronization entirely.
    if case.sync.probability > 0.0 || case.sync.every.is_some() {
        let mut c = case.clone();
        c.sync = SyncSpec {
            probability: 0.0,
            every: None,
            mechanism: case.sync.mechanism,
        };
        out.push(c);
    }

    // Spinlock -> barrier (the simpler mechanism).
    if case.sync.mechanism == vsched_core::SyncMechanism::SpinLock {
        let mut c = case.clone();
        c.sync.mechanism = vsched_core::SyncMechanism::Barrier;
        out.push(c);
    }

    // Deterministic load at the distribution's center.
    if !matches!(case.load, LoadSpec::Deterministic { .. }) {
        let central = match case.load {
            LoadSpec::Deterministic { value } => value,
            LoadSpec::Uniform { low, high } => (low + high) / 2.0,
            LoadSpec::Exponential { mean } => mean,
        };
        let mut c = case.clone();
        c.load = LoadSpec::Deterministic {
            value: central.round().max(1.0),
        };
        out.push(c);
    }

    // Smaller timeslice (faster rotations surface ordering bugs sooner).
    if case.timeslice > 2 {
        let mut c = case.clone();
        c.timeslice = 2;
        out.push(c);
    }

    // Halve the horizon (keep enough ticks for meaningful statistics).
    if case.horizon >= 400 {
        let mut c = case.clone();
        c.horizon /= 2;
        out.push(c);
    }

    // Drop the whole churn scenario (adopted when the failure was never
    // about churn), then single trace events back to front — a dropped
    // event that breaks the sequence (e.g. a departure whose re-arrival
    // remains) just fails compilation with a different failure kind and
    // is rejected by the greedy loop, never adopted.
    if !case.trace.is_empty() {
        let mut c = case.clone();
        c.trace.clear();
        out.push(c);
        for drop in (0..case.trace.len()).rev() {
            let mut c = case.clone();
            c.trace.remove(drop);
            out.push(c);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CaseGen;

    #[test]
    fn candidates_stay_inside_the_envelope() {
        let g = CaseGen::new(1);
        for i in 0..30 {
            let case = g.case(i);
            for c in candidates(&case) {
                assert!(!c.vms.is_empty());
                assert!(c.pcpus >= 1);
                let widest = c.vms.iter().map(|vm| vm.vcpus).max().unwrap();
                assert!(widest <= c.pcpus, "case {i}: gang wider than machine");
                assert!(c.cell().system().is_ok(), "case {i}: candidate must build");
                // VM-index remapping must keep trace events in range.
                assert!(
                    c.trace.iter().all(|e| e.vm < c.vms.len()),
                    "case {i}: dangling trace VM index"
                );
            }
        }
    }

    #[test]
    fn shrink_keeps_a_passing_case_unchanged() {
        // A passing outcome has no failure kinds; every candidate that
        // also passes has the same (empty) kind set but empty failures,
        // so nothing is adopted.
        let case = CaseGen::new(1).case(0);
        let opts = OracleOpts {
            check_invariants: false,
            check_parallel_determinism: false,
            check_metamorphic: false,
            ..OracleOpts::default()
        };
        let outcome = run_case(&case, &opts);
        assert!(outcome.passed());
        let (shrunk, _) = shrink(&case, &outcome, &opts);
        assert_eq!(shrunk, case);
    }
}
