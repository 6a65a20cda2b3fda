//! Small crate-internal helpers shared by both engines.

use vsched_des::{Dist, Xoshiro256StarStar};

/// Samples a distribution as a whole number of ticks, at least 1.
///
/// Both engines quantize workload durations the same way so that their
/// stochastic processes are identically distributed.
pub(crate) fn sample_ticks(dist: &Dist, rng: &mut Xoshiro256StarStar) -> u64 {
    let x = dist.sample(rng).round();
    if x < 1.0 {
        1
    } else {
        x as u64
    }
}

/// Full workload-generation level in per-mille (the static-path identity).
pub(crate) const FULL_LEVEL: u32 = 1000;

/// [`sample_ticks`] with the sample stretched by `1000/level` — interarrival
/// times under a partial load level. At full level this *is* `sample_ticks`
/// (explicit branch, so the static path stays bit-identical).
pub(crate) fn sample_ticks_scaled(dist: &Dist, rng: &mut Xoshiro256StarStar, level: u32) -> u64 {
    if level == FULL_LEVEL {
        return sample_ticks(dist, rng);
    }
    debug_assert!(level > 0, "level 0 must pause sampling, not stretch it");
    let x = (dist.sample(rng) * 1000.0 / f64::from(level)).round();
    if x < 1.0 {
        1
    } else {
        x as u64
    }
}

/// Whether a saturated generator at `level` per-mille generates at `tick`:
/// true iff the integer ramp `tick * level / 1000` steps at `tick`. Level
/// 1000 steps every tick (`tick >= 1`); level 0 never steps; intermediate
/// levels thin generation ticks evenly and deterministically — no RNG draw,
/// so pausing and resuming cannot shift the random streams, and both
/// engines compute the identical generation pattern from their shared
/// clock.
pub(crate) fn duty_allows(tick: u64, level: u32) -> bool {
    let level = u64::from(level);
    (tick * level) / 1000 > tick.saturating_sub(1) * level / 1000
}

/// Replaces `out`'s contents with `items`, keeping its capacity: the
/// in-place view and metric fills that spare the engines a heap round
/// trip per tick.
pub(crate) fn refill<T>(out: &mut Vec<T>, items: impl IntoIterator<Item = T>) {
    out.clear();
    out.extend(items);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_to_one() {
        let d = Dist::deterministic(0.0).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from(0);
        assert_eq!(sample_ticks(&d, &mut rng), 1);
    }

    #[test]
    fn rounds_to_nearest() {
        let d = Dist::deterministic(4.6).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from(0);
        assert_eq!(sample_ticks(&d, &mut rng), 5);
    }

    #[test]
    fn preserves_integers() {
        let d = Dist::deterministic(7.0).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from(0);
        assert_eq!(sample_ticks(&d, &mut rng), 7);
    }
}
