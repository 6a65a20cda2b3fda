//! Sampling distributions for activity delays and workload generation.
//!
//! The paper states that "the generation of load and sync_point is
//! configurable to any distribution and rate"; [`Dist`] is the vocabulary of
//! distributions the framework accepts. Every constructor validates its
//! parameters ([`DesError::InvalidDistribution`]) so an invalid model is
//! rejected at build time rather than producing NaN delays mid-simulation.

use crate::error::DesError;
use crate::rng::Xoshiro256StarStar;

/// A validated sampling distribution over non-negative reals.
///
/// # Example
///
/// ```
/// use vsched_des::{Dist, Xoshiro256StarStar};
///
/// let d = Dist::uniform(5.0, 15.0)?;
/// let mut rng = Xoshiro256StarStar::seed_from(1);
/// let x = d.sample(&mut rng);
/// assert!((5.0..15.0).contains(&x));
/// assert_eq!(d.mean(), 10.0);
/// # Ok::<(), vsched_des::DesError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always returns the same value.
    Deterministic {
        /// The constant value returned by every sample.
        value: f64,
    },
    /// Continuous uniform on `[low, high)`.
    Uniform {
        /// Inclusive lower bound.
        low: f64,
        /// Exclusive upper bound.
        high: f64,
    },
    /// Exponential with the given mean (`1/rate`).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Normal truncated below at zero (resampled).
    Normal {
        /// Mean of the untruncated normal.
        mean: f64,
        /// Standard deviation (must be positive).
        std_dev: f64,
    },
    /// Erlang: sum of `k` independent exponentials with total mean `mean`.
    Erlang {
        /// Shape (number of exponential stages), at least 1.
        k: u32,
        /// Mean of the sum.
        mean: f64,
    },
    /// Geometric number of trials until first success (support `1, 2, …`).
    Geometric {
        /// Per-trial success probability, in `(0, 1]`.
        p: f64,
    },
    /// Discrete uniform over the integers `low..=high`.
    DiscreteUniform {
        /// Inclusive lower bound.
        low: u64,
        /// Inclusive upper bound.
        high: u64,
    },
}

impl Dist {
    /// A distribution that always yields `value`.
    ///
    /// # Errors
    ///
    /// Fails if `value` is negative or non-finite.
    pub fn deterministic(value: f64) -> Result<Dist, DesError> {
        if !value.is_finite() || value < 0.0 {
            return Err(invalid("deterministic", "value must be finite and >= 0"));
        }
        Ok(Dist::Deterministic { value })
    }

    /// Continuous uniform on `[low, high)`.
    ///
    /// # Errors
    ///
    /// Fails unless `0 <= low < high` and both are finite.
    pub fn uniform(low: f64, high: f64) -> Result<Dist, DesError> {
        if !(low.is_finite() && high.is_finite()) || low < 0.0 || low >= high {
            return Err(invalid("uniform", "requires 0 <= low < high"));
        }
        Ok(Dist::Uniform { low, high })
    }

    /// Exponential with the given `mean`.
    ///
    /// # Errors
    ///
    /// Fails unless `mean` is finite and positive.
    pub fn exponential(mean: f64) -> Result<Dist, DesError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(invalid("exponential", "mean must be positive"));
        }
        Ok(Dist::Exponential { mean })
    }

    /// Normal truncated at zero.
    ///
    /// # Errors
    ///
    /// Fails unless `mean` is finite and non-negative and `std_dev` is finite
    /// and positive.
    pub fn normal(mean: f64, std_dev: f64) -> Result<Dist, DesError> {
        if !mean.is_finite() || mean < 0.0 || !std_dev.is_finite() || std_dev <= 0.0 {
            return Err(invalid("normal", "requires mean >= 0 and std_dev > 0"));
        }
        Ok(Dist::Normal { mean, std_dev })
    }

    /// Erlang with `k` stages and total `mean`.
    ///
    /// # Errors
    ///
    /// Fails unless `k >= 1` and `mean > 0`.
    pub fn erlang(k: u32, mean: f64) -> Result<Dist, DesError> {
        if k == 0 {
            return Err(invalid("erlang", "k must be at least 1"));
        }
        if !mean.is_finite() || mean <= 0.0 {
            return Err(invalid("erlang", "mean must be positive"));
        }
        Ok(Dist::Erlang { k, mean })
    }

    /// Geometric with success probability `p`.
    ///
    /// # Errors
    ///
    /// Fails unless `0 < p <= 1`.
    pub fn geometric(p: f64) -> Result<Dist, DesError> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(invalid("geometric", "p must be in (0, 1]"));
        }
        Ok(Dist::Geometric { p })
    }

    /// Discrete uniform over `low..=high`.
    ///
    /// # Errors
    ///
    /// Fails unless `low <= high`.
    pub fn discrete_uniform(low: u64, high: u64) -> Result<Dist, DesError> {
        if low > high {
            return Err(invalid("discrete uniform", "requires low <= high"));
        }
        Ok(Dist::DiscreteUniform { low, high })
    }

    /// Draws one sample. The result is always finite and non-negative.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        match self {
            Dist::Deterministic { value } => *value,
            Dist::Uniform { low, high } => low + (high - low) * rng.next_f64(),
            Dist::Exponential { mean } => {
                // Inverse transform; 1 - u in (0, 1] avoids ln(0).
                -mean * (1.0 - rng.next_f64()).ln()
            }
            Dist::Normal { mean, std_dev } => loop {
                let x = mean + std_dev * standard_normal(rng);
                if x >= 0.0 {
                    break x;
                }
            },
            Dist::Erlang { k, mean } => {
                let stage_mean = mean / f64::from(*k);
                (0..*k)
                    .map(|_| -stage_mean * (1.0 - rng.next_f64()).ln())
                    .sum()
            }
            Dist::Geometric { p } => {
                if *p >= 1.0 {
                    return 1.0;
                }
                // Inverse transform on the geometric CDF.
                let u = 1.0 - rng.next_f64(); // (0, 1]
                (u.ln() / (1.0 - p).ln()).ceil().max(1.0)
            }
            Dist::DiscreteUniform { low, high } => (low + rng.next_below(high - low + 1)) as f64,
        }
    }

    /// Analytical mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Deterministic { value } => *value,
            Dist::Uniform { low, high } => (low + high) / 2.0,
            Dist::Exponential { mean } | Dist::Erlang { mean, .. } => *mean,
            // Truncation bias is negligible for the parameter ranges the
            // framework uses (mean >> std_dev); report the untruncated mean.
            Dist::Normal { mean, .. } => *mean,
            Dist::Geometric { p } => 1.0 / p,
            Dist::DiscreteUniform { low, high } => (*low as f64 + *high as f64) / 2.0,
        }
    }
}

/// Standard normal via Marsaglia's polar method.
fn standard_normal(rng: &mut Xoshiro256StarStar) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

fn invalid(family: &'static str, reason: &str) -> DesError {
    DesError::InvalidDistribution {
        family,
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from(12345)
    }

    fn empirical_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Dist::deterministic(7.0).unwrap();
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 7.0);
        }
        assert_eq!(d.mean(), 7.0);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::uniform(5.0, 15.0).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((5.0..15.0).contains(&x));
        }
        assert!((empirical_mean(&d, 50_000) - 10.0).abs() < 0.1);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Dist::exponential(4.0).unwrap();
        assert!((empirical_mean(&d, 200_000) - 4.0).abs() < 0.05);
    }

    #[test]
    fn normal_truncated_nonnegative() {
        let d = Dist::normal(2.0, 3.0).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn normal_mean_converges_when_far_from_zero() {
        let d = Dist::normal(50.0, 5.0).unwrap();
        assert!((empirical_mean(&d, 100_000) - 50.0).abs() < 0.1);
    }

    #[test]
    fn erlang_mean_and_lower_variance() {
        let d = Dist::erlang(4, 8.0).unwrap();
        assert!((empirical_mean(&d, 100_000) - 8.0).abs() < 0.1);
        // Erlang-4 variance = mean^2 / 4; check it is well below exponential's.
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let m = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 16.0).abs() < 1.0, "variance {var} should be ~16");
    }

    #[test]
    fn geometric_support_and_mean() {
        let d = Dist::geometric(0.25).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!(x >= 1.0 && x.fract() == 0.0);
        }
        assert!((empirical_mean(&d, 200_000) - 4.0).abs() < 0.05);
    }

    #[test]
    fn geometric_p_one_always_one() {
        let d = Dist::geometric(1.0).unwrap();
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 1.0);
    }

    #[test]
    fn discrete_uniform_hits_all_values() {
        let d = Dist::discrete_uniform(3, 6).unwrap();
        let mut r = rng();
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = d.sample(&mut r) as usize;
            assert!((3..=6).contains(&x));
            seen[x] = true;
        }
        assert!(seen[3] && seen[4] && seen[5] && seen[6]);
        assert_eq!(d.mean(), 4.5);
    }

    #[test]
    fn constructors_validate() {
        assert!(Dist::deterministic(-1.0).is_err());
        assert!(Dist::deterministic(f64::NAN).is_err());
        assert!(Dist::uniform(5.0, 5.0).is_err());
        assert!(Dist::uniform(-1.0, 5.0).is_err());
        assert!(Dist::exponential(0.0).is_err());
        assert!(Dist::normal(1.0, 0.0).is_err());
        assert!(Dist::normal(-1.0, 1.0).is_err());
        assert!(Dist::erlang(0, 1.0).is_err());
        assert!(Dist::erlang(2, -1.0).is_err());
        assert!(Dist::geometric(0.0).is_err());
        assert!(Dist::geometric(1.5).is_err());
        assert!(Dist::discrete_uniform(5, 3).is_err());
    }

    #[test]
    fn all_samples_finite_nonnegative() {
        let dists = vec![
            Dist::deterministic(3.0).unwrap(),
            Dist::uniform(0.0, 1.0).unwrap(),
            Dist::exponential(2.0).unwrap(),
            Dist::normal(1.0, 1.0).unwrap(),
            Dist::erlang(3, 6.0).unwrap(),
            Dist::geometric(0.5).unwrap(),
            Dist::discrete_uniform(0, 9).unwrap(),
        ];
        let mut r = rng();
        for d in &dists {
            for _ in 0..1000 {
                let x = d.sample(&mut r);
                assert!(x.is_finite() && x >= 0.0, "{d:?} produced {x}");
            }
        }
    }
}
