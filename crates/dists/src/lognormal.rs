use crate::special::{inv_std_normal, std_normal_cdf};
use crate::{rng_f64, DistError, LifeDistribution, SampleKernel};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Lognormal lifetime distribution, with an optional location shift.
///
/// `ln(T − γ) ~ N(μ, σ²)`. The lognormal is the other standard
/// repair-time family in reliability practice; the restore-sensitivity
/// ablation (`exp E16`) swaps it against the paper's
/// three-parameter Weibull to show which *features* of the restore
/// distribution the DDF count actually depends on (the minimum time
/// and the mean — not the family).
///
/// # Example
///
/// ```
/// use raidsim_dists::{LifeDistribution, Lognormal};
///
/// # fn main() -> Result<(), raidsim_dists::DistError> {
/// // A restore distribution with a 6-hour floor and a long tail.
/// let d = Lognormal::new(6.0, 2.0, 0.6)?;
/// assert_eq!(d.cdf(5.9), 0.0);
/// assert!(d.mean() > 6.0 + 2.0f64.exp() * 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Lognormal {
    gamma: f64,
    mu: f64,
    sigma: f64,
}

impl Lognormal {
    /// Creates a shifted lognormal with location `gamma`, log-mean
    /// `mu` and log-standard-deviation `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] if `gamma` is negative
    /// or non-finite, `mu` non-finite, or `sigma` not positive and
    /// finite.
    pub fn new(gamma: f64, mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !gamma.is_finite() || gamma < 0.0 {
            return Err(DistError::InvalidParameter {
                name: "gamma",
                value: gamma,
                constraint: "must be finite and >= 0",
            });
        }
        if !mu.is_finite() {
            return Err(DistError::InvalidParameter {
                name: "mu",
                value: mu,
                constraint: "must be finite",
            });
        }
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(DistError::InvalidParameter {
                name: "sigma",
                value: sigma,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self { gamma, mu, sigma })
    }

    /// Creates a shifted lognormal with the given location, **mean**
    /// (beyond the location) and coefficient of variation `cv`
    /// (sd / mean of the unshifted part) — the parametrization the
    /// restore ablation uses to mean-match against a Weibull.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] for non-positive mean
    /// or cv.
    pub fn from_mean_cv(gamma: f64, mean: f64, cv: f64) -> Result<Self, DistError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(DistError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be finite and > 0",
            });
        }
        if !cv.is_finite() || cv <= 0.0 {
            return Err(DistError::InvalidParameter {
                name: "cv",
                value: cv,
                constraint: "must be finite and > 0",
            });
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self::new(gamma, mu, sigma2.sqrt())
    }

    /// Location parameter γ, hours.
    pub fn location(&self) -> f64 {
        self.gamma
    }

    /// Log-mean μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-standard-deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl LifeDistribution for Lognormal {
    fn cdf(&self, t: f64) -> f64 {
        if t <= self.gamma {
            return 0.0;
        }
        std_normal_cdf(((t - self.gamma).ln() - self.mu) / self.sigma)
    }

    fn pdf(&self, t: f64) -> f64 {
        if t <= self.gamma {
            return 0.0;
        }
        let x = t - self.gamma;
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return self.gamma;
        }
        assert!(p < 1.0, "quantile requires p in [0, 1), got {p}");
        self.gamma + (self.mu + self.sigma * inv_std_normal(p)).exp()
    }

    fn mean(&self) -> f64 {
        self.gamma + (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let u = rng_f64(rng);
        self.quantile(u)
    }

    fn lower_kernel(&self) -> Option<SampleKernel> {
        Some(SampleKernel::Lognormal {
            gamma: self.gamma,
            mu: self.mu,
            sigma: self.sigma,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Lognormal::new(-1.0, 0.0, 1.0).is_err());
        assert!(Lognormal::new(0.0, f64::NAN, 1.0).is_err());
        assert!(Lognormal::new(0.0, 0.0, 0.0).is_err());
        assert!(Lognormal::from_mean_cv(0.0, -1.0, 0.5).is_err());
        assert!(Lognormal::from_mean_cv(0.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn median_is_exp_mu() {
        let d = Lognormal::new(0.0, 2.0, 0.7).unwrap();
        // Tolerance set by the inverse-normal approximation (~1e-9
        // in z, amplified by the derivative of exp).
        assert!((d.quantile(0.5) - 2.0f64.exp()).abs() < 1e-6);
    }

    #[test]
    fn mean_matches_closed_form_and_monte_carlo() {
        let d = Lognormal::new(6.0, 1.5, 0.5).unwrap();
        let analytic = 6.0 + (1.5f64 + 0.125).exp();
        assert!((d.mean() - analytic).abs() < 1e-9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 200_000;
        let mc: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mc - analytic).abs() < 0.05, "mc = {mc}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Lognormal::new(6.0, 2.0, 0.8).unwrap();
        // Round-trip accuracy is limited by the erf approximation in
        // the CDF (~1.5e-7), not by the quantile.
        for &p in &[1e-4, 0.1, 0.5, 0.9, 0.9999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 5e-7, "p = {p}");
        }
    }

    #[test]
    fn location_shifts_support() {
        let d = Lognormal::new(6.0, 1.0, 0.5).unwrap();
        assert_eq!(d.cdf(6.0), 0.0);
        assert_eq!(d.pdf(3.0), 0.0);
        assert_eq!(d.quantile(0.0), 6.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            assert!(d.sample(&mut rng) >= 6.0);
        }
    }

    #[test]
    fn from_mean_cv_round_trips() {
        let d = Lognormal::from_mean_cv(6.0, 10.0, 0.5).unwrap();
        assert!((d.mean() - 16.0).abs() < 1e-9);
        // Variance of the unshifted part: (cv * mean)^2 = 25.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng) - 6.0).collect();
        let m = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 25.0).abs() < 0.5, "var = {var}");
    }

    #[test]
    fn hazard_is_non_monotonic() {
        // The lognormal hazard rises then falls — unlike any Weibull.
        let d = Lognormal::new(0.0, 2.0, 0.9).unwrap();
        let hs: Vec<f64> = [1.0, 5.0, 20.0, 200.0, 2_000.0]
            .iter()
            .map(|&t| d.hazard(t))
            .collect();
        let max = hs.iter().copied().fold(0.0f64, f64::max);
        assert!(hs[0] < max && *hs.last().unwrap() < max, "hs = {hs:?}");
    }
}
