//! Seeded random generation of fuzz cases.
//!
//! Each case draws from its own [`vsched_des::RngStreams`] stream, keyed
//! by the case index, so case `i` of seed `s` is identical whether cases
//! run sequentially, in parallel, or alone — the same independence trick
//! the replication engine uses for per-replication streams.
//!
//! The generated envelope stays inside the regime the paper models —
//! saturated workload generators (no interarrival process) and at most
//! as many sibling VCPUs per VM as there are PCPUs, since a gang wider
//! than the machine can never co-start.

use vsched_core::PolicyKind;
use vsched_des::rng::{RngStreams, Xoshiro256StarStar};

use crate::case::{FuzzCase, LoadSpec, SyncSpec, TraceEventCase, TraceOpCase, VmCase};
use vsched_core::SyncMechanism;

/// Warm-up ticks for generated cases — long enough to leave the empty
/// initial state for every topology in the envelope.
pub const GEN_WARMUP: u64 = 200;
/// Measured ticks for generated cases — short enough that a 200-case run
/// finishes in CI, long enough that CI half-widths are meaningful.
pub const GEN_HORIZON: u64 = 800;
/// Replications per engine per case.
pub const GEN_REPLICATIONS: usize = 3;

/// Deterministic fuzz-case generator.
#[derive(Debug)]
pub struct CaseGen {
    streams: RngStreams,
}

impl CaseGen {
    /// A generator for the given master seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CaseGen {
            streams: RngStreams::new(seed),
        }
    }

    /// Generates case `index`. Pure: the same `(seed, index)` always
    /// yields the same case.
    #[must_use]
    pub fn case(&self, index: u64) -> FuzzCase {
        let mut rng = self.streams.stream(index);

        let pcpus = 1 + rng.next_below(4) as usize;
        let num_vms = 1 + rng.next_below(3) as usize;
        let max_gang = pcpus.min(3);
        let mut vms = Vec::with_capacity(num_vms);
        let mut total = 0usize;
        for _ in 0..num_vms {
            let room = max_gang.min(6 - total);
            if room == 0 {
                break;
            }
            let vcpus = 1 + rng.next_below(room as u64) as usize;
            let weight = 1 + rng.next_below(4) as u32;
            total += vcpus;
            vms.push(VmCase { vcpus, weight });
        }

        let load = match rng.next_below(3) {
            0 => LoadSpec::Deterministic {
                value: (2 + rng.next_below(12)) as f64,
            },
            1 => {
                let low = (1 + rng.next_below(5)) as f64;
                let high = low + (2 + rng.next_below(12)) as f64;
                LoadSpec::Uniform { low, high }
            }
            _ => LoadSpec::Exponential {
                mean: (3 + rng.next_below(10)) as f64,
            },
        };

        let mechanism = if rng.next_bool(0.5) {
            SyncMechanism::Barrier
        } else {
            SyncMechanism::SpinLock
        };
        let sync = if rng.next_bool(0.5) {
            SyncSpec {
                probability: 0.05 + 0.3 * rng.next_f64(),
                every: None,
                mechanism,
            }
        } else {
            SyncSpec {
                probability: 0.0,
                every: Some(2 + rng.next_below(7) as u32),
                mechanism,
            }
        };

        const TIMESLICES: [u64; 5] = [2, 3, 5, 10, 30];
        let timeslice = TIMESLICES[rng.next_below(TIMESLICES.len() as u64) as usize];

        let policy = Self::policy(&mut rng);
        let seed = rng.next();
        // Trace draws come strictly AFTER every static draw, so the
        // static prefix of a case (pcpus through seed) is byte-identical
        // to what pre-trace generator versions produced for the same
        // `(seed, index)` — old reproducer digests stay comparable.
        let trace = Self::trace(&mut rng, &vms);

        FuzzCase {
            case_index: index,
            pcpus,
            vms,
            load,
            sync,
            timeslice,
            policy,
            seed,
            warmup: GEN_WARMUP,
            horizon: GEN_HORIZON,
            replications: GEN_REPLICATIONS,
            trace,
        }
    }

    /// Draws a bounded churn scenario over the case's VMs. Half the
    /// cases stay purely static (preserving the pre-trace coverage);
    /// the rest get up to 4 events — departures, re-arrivals with the
    /// original shape, load-level steps — at strictly increasing ticks
    /// inside the run window. Sequences are valid by construction:
    /// departures only while present, arrivals only while absent, and at
    /// least one VM stays admitted at all times (the saturated envelope
    /// never goes fully idle).
    fn trace(rng: &mut Xoshiro256StarStar, vms: &[VmCase]) -> Vec<TraceEventCase> {
        if rng.next_bool(0.5) {
            return Vec::new();
        }
        let n = 1 + rng.next_below(4) as usize;
        let mut present = vec![true; vms.len()];
        let mut t = 0u64;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            t += 40 + rng.next_below(160);
            if t >= GEN_WARMUP + GEN_HORIZON {
                break;
            }
            let vm = rng.next_below(vms.len() as u64) as usize;
            let op = if !present[vm] {
                present[vm] = true;
                TraceOpCase::Arrive
            } else if present.iter().filter(|&&p| p).count() > 1 && rng.next_bool(0.5) {
                present[vm] = false;
                TraceOpCase::Depart
            } else {
                TraceOpCase::SetLoad {
                    level: 250 * (1 + rng.next_below(4) as u32),
                }
            };
            events.push(TraceEventCase { at: t, vm, op });
        }
        events
    }

    /// Draws a policy from the canonical [`PolicyKind::all`] registry
    /// (one index draw over its length, so a registry addition widens the
    /// envelope automatically), then randomizes the parameters of the
    /// parameterized kinds. The draw sequence is identical to earlier
    /// hand-enumerated versions of this function for the current registry,
    /// keeping every `(seed, index)` case stable.
    fn policy(rng: &mut Xoshiro256StarStar) -> PolicyKind {
        let mut all = PolicyKind::all();
        match all.swap_remove(rng.next_below(all.len() as u64) as usize) {
            PolicyKind::RelaxedCo { .. } => {
                let skew_resume = 1 + rng.next_below(3);
                PolicyKind::RelaxedCo {
                    skew_threshold: skew_resume + 1 + rng.next_below(8),
                    skew_resume,
                }
            }
            PolicyKind::Credit { .. } => PolicyKind::Credit {
                refill_period: 10 + rng.next_below(50),
            },
            PolicyKind::Sedf { .. } => PolicyKind::Sedf {
                period: 20 + rng.next_below(180),
            },
            PolicyKind::Bvt { .. } => PolicyKind::Bvt {
                max_lag: 500 + rng.next_below(5_000),
            },
            fixed => fixed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_index_independent() {
        let a = CaseGen::new(42);
        let b = CaseGen::new(42);
        for i in [0u64, 1, 7, 199] {
            assert_eq!(a.case(i), b.case(i));
        }
        // Different indices and different seeds decorrelate.
        assert_ne!(a.case(0), a.case(1));
        assert_ne!(CaseGen::new(42).case(3), CaseGen::new(43).case(3));
    }

    #[test]
    fn generated_cases_respect_the_envelope_and_build() {
        let g = CaseGen::new(7);
        for i in 0..100 {
            let case = g.case(i);
            assert!((1..=4).contains(&case.pcpus), "case {i}: pcpus");
            assert!((1..=3).contains(&case.vms.len()), "case {i}: vms");
            let total: usize = case.vms.iter().map(|v| v.vcpus).sum();
            assert!(total <= 6, "case {i}: total vcpus");
            for vm in &case.vms {
                assert!(
                    vm.vcpus <= case.pcpus,
                    "case {i}: gang wider than the machine"
                );
            }
            if let PolicyKind::RelaxedCo {
                skew_threshold,
                skew_resume,
            } = case.policy
            {
                assert!(skew_resume < skew_threshold, "case {i}: RCS params");
            }
            let config = case.cell().system().unwrap();
            assert_eq!(config.pcpus(), case.pcpus);
        }
    }

    #[test]
    fn generated_traces_are_valid_and_bounded() {
        let g = CaseGen::new(7);
        let mut traced = 0;
        for i in 0..100 {
            let case = g.case(i);
            assert!(case.trace.len() <= 4, "case {i}: too many events");
            for pair in case.trace.windows(2) {
                assert!(pair[0].at < pair[1].at, "case {i}: times not increasing");
            }
            for e in &case.trace {
                assert!(e.vm < case.vms.len(), "case {i}: VM index");
                assert!(
                    (0 < e.at) && (e.at < GEN_WARMUP + GEN_HORIZON),
                    "case {i}: event outside the run window"
                );
            }
            if !case.trace.is_empty() {
                traced += 1;
                // Every generated scenario compiles to the case's own
                // static topology as the union.
                let s = case.trace_schedule().unwrap();
                assert_eq!(s.config(), &case.cell().system().unwrap());
            }
        }
        assert!(
            (20..=80).contains(&traced),
            "expected roughly half the cases traced, got {traced}/100"
        );
    }
}
