//! Periodic fleet-scrub semantics — the ablation alternative to the
//! paper's per-defect exposure clock.
//!
//! The paper samples an independent `TTScrub` for every defect ("the
//! scrub time may be as short as the maximum HDD and data-bus transfer
//! rates permit, or may be as long as weeks"). Real filers instead run
//! a scrub *pass* on a fixed cadence: a defect created at a uniformly
//! random phase of the cycle waits for the next pass boundary plus the
//! pass duration. [`PeriodicScrub`] models that exposure time exactly
//! (uniform over `[pass, period + pass]`), so the scrub-semantics
//! ablation (`exp E13`) can quantify how much the semantic choice matters.

use raidsim_dists::{DistError, LifeDistribution};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Time from defect creation to correction under a periodic scrub pass:
/// uniform on `[pass_hours, period_hours + pass_hours]`.
///
/// # Example
///
/// ```
/// use raidsim_dists::LifeDistribution;
/// use raidsim_workloads::scrub_schedule::PeriodicScrub;
///
/// # fn main() -> Result<(), raidsim_dists::DistError> {
/// // Weekly pass, each pass takes 6 hours to cover the drive.
/// let s = PeriodicScrub::new(168.0, 6.0)?;
/// assert_eq!(s.cdf(5.0), 0.0);           // nothing before one pass time
/// assert_eq!(s.cdf(174.0), 1.0);         // everything within period+pass
/// assert!((s.mean() - 90.0).abs() < 1e-9); // pass + period/2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodicScrub {
    period_hours: f64,
    pass_hours: f64,
}

impl PeriodicScrub {
    /// Creates a periodic scrub exposure model with pass cadence
    /// `period_hours` and per-pass duration `pass_hours`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] if either value is
    /// non-finite, the period non-positive, or the pass negative.
    pub fn new(period_hours: f64, pass_hours: f64) -> Result<Self, DistError> {
        if !period_hours.is_finite() || period_hours <= 0.0 {
            return Err(DistError::InvalidParameter {
                name: "period_hours",
                value: period_hours,
                constraint: "must be finite and > 0",
            });
        }
        if !pass_hours.is_finite() || pass_hours < 0.0 {
            return Err(DistError::InvalidParameter {
                name: "pass_hours",
                value: pass_hours,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(Self {
            period_hours,
            pass_hours,
        })
    }

    /// The scrub cadence, hours.
    pub fn period_hours(&self) -> f64 {
        self.period_hours
    }

    /// Duration of one full pass, hours.
    pub fn pass_hours(&self) -> f64 {
        self.pass_hours
    }

    fn lo(&self) -> f64 {
        self.pass_hours
    }

    fn hi(&self) -> f64 {
        self.pass_hours + self.period_hours
    }
}

impl LifeDistribution for PeriodicScrub {
    fn cdf(&self, t: f64) -> f64 {
        if t <= self.lo() {
            0.0
        } else if t >= self.hi() {
            1.0
        } else {
            (t - self.lo()) / self.period_hours
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < self.lo() || t > self.hi() {
            0.0
        } else {
            1.0 / self.period_hours
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return self.lo();
        }
        assert!(p < 1.0, "quantile requires p in [0, 1), got {p}");
        self.lo() + p * self.period_hours
    }

    fn mean(&self) -> f64 {
        self.pass_hours + self.period_hours / 2.0
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        // Uniform phase within the cycle.
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.lo() + u * self.period_hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(PeriodicScrub::new(0.0, 1.0).is_err());
        assert!(PeriodicScrub::new(168.0, -1.0).is_err());
        assert!(PeriodicScrub::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn cdf_is_uniform_on_support() {
        let s = PeriodicScrub::new(100.0, 10.0).unwrap();
        assert_eq!(s.cdf(10.0), 0.0);
        assert!((s.cdf(60.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.cdf(110.0), 1.0);
        assert!((s.quantile(0.5) - 60.0).abs() < 1e-12);
    }

    #[test]
    fn samples_lie_in_support_and_average_correctly() {
        let s = PeriodicScrub::new(168.0, 6.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = s.sample(&mut rng);
            assert!((6.0..=174.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - s.mean()).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn comparable_to_paper_weibull_scrub() {
        use raidsim_dists::Weibull3;
        // The paper's Weibull(6, 168, 3) has mean ≈ 156 h; a weekly
        // periodic pass has mean 90 h. Same order, different shape —
        // exactly what the ablation quantifies.
        let paper = Weibull3::new(6.0, 168.0, 3.0).unwrap();
        let periodic = PeriodicScrub::new(168.0, 6.0).unwrap();
        let ratio = paper.mean() / periodic.mean();
        assert!(ratio > 1.0 && ratio < 2.5, "ratio = {ratio}");
    }

    #[test]
    fn zero_pass_time_is_allowed() {
        let s = PeriodicScrub::new(24.0, 0.0).unwrap();
        assert_eq!(s.cdf(0.0), 0.0);
        assert!((s.mean() - 12.0).abs() < 1e-12);
    }
}
