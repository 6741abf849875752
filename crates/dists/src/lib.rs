//! Probability distributions and statistical estimation substrate for
//! `raidsim`.
//!
//! This crate provides everything the Elerath–Pecht (DSN 2007) RAID
//! reliability model needs from probability theory:
//!
//! * [`Weibull3`] — the three-parameter Weibull distribution used for all
//!   four model transitions (time to operational failure, restore, latent
//!   defect, scrub), with location (`γ`), scale (`η`) and shape (`β`)
//!   parameters, closed-form moments, hazard functions and inverse-CDF
//!   sampling.
//! * [`Exponential`] — the constant-rate special case (`β = 1`), kept as a
//!   distinct type because the paper's whole argument is about the
//!   difference between the two.
//! * [`Mixture`] and [`CompetingRisks`] — the population structures the
//!   paper identifies in field data (Figure 1: "characteristics of both
//!   competing risks and population mixtures").
//! * [`Lognormal`] — the other standard repair-time family, used by the
//!   restore-sensitivity ablation; [`Degenerate`] — a point mass, used
//!   to drive the engines through hand-computable schedules in tests.
//! * [`fit`] — Weibull parameter estimation from (right-censored) field
//!   data: median-rank regression for probability plots (Figures 1 and 2)
//!   and maximum-likelihood estimation, plus bootstrap confidence
//!   intervals and Kolmogorov–Smirnov goodness-of-fit.
//! * [`empirical`] — empirical CDF, Kaplan–Meier estimator and median
//!   ranks (Benard's approximation) for plotting positions.
//! * [`rng`] — deterministic seed-stream utilities so simulations are
//!   reproducible even when run across threads.
//!
//! # Example
//!
//! ```
//! use raidsim_dists::{LifeDistribution, Weibull3};
//!
//! # fn main() -> Result<(), raidsim_dists::DistError> {
//! // The paper's base-case time-to-operational-failure distribution:
//! // eta = 461,386 h, beta = 1.12 (Section 6.1).
//! let ttop = Weibull3::new(0.0, 461_386.0, 1.12)?;
//! assert!(ttop.mean() > 400_000.0);
//!
//! // The hazard rate is increasing because beta > 1.
//! assert!(ttop.hazard(10_000.0) < ttop.hazard(80_000.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod competing;
mod degenerate;
mod error;
mod exponential;
mod lognormal;
mod mixture;
mod weibull;

pub mod empirical;
pub mod fit;
pub mod kernel;
pub mod kernel_cache;
pub mod rng;
pub mod special;

pub use competing::CompetingRisks;
pub use degenerate::Degenerate;
pub use error::DistError;
pub use exponential::Exponential;
pub use kernel::SampleKernel;
pub use kernel_cache::KernelCache;
pub use lognormal::Lognormal;
pub use mixture::Mixture;
pub use weibull::Weibull3;

use rand::Rng;

/// A continuous, non-negative lifetime distribution.
///
/// All times are in hours, matching the paper's units. Implementations
/// must satisfy the standard relationships between the reliability
/// functions; the property-test suite in this crate checks them for every
/// provided implementation:
///
/// * `cdf` is non-decreasing with `cdf(0⁻) = 0` and `cdf(∞) = 1`,
/// * `sf(t) = 1 - cdf(t)`,
/// * `hazard(t) = pdf(t) / sf(t)` wherever `sf(t) > 0`,
/// * `quantile(cdf(t)) ≈ t` on the support,
/// * `sample` draws follow `cdf` (Kolmogorov–Smirnov bound).
///
/// The trait is object-safe: the simulation engine stores the four model
/// transitions as `Box<dyn LifeDistribution>` so that operational
/// failures, restores, latent defects and scrubs can each use a different
/// distribution family (paper Section 6).
pub trait LifeDistribution: std::fmt::Debug + Send + Sync {
    /// Cumulative distribution function `F(t) = P(T ≤ t)`.
    fn cdf(&self, t: f64) -> f64;

    /// Probability density function `f(t)`.
    fn pdf(&self, t: f64) -> f64;

    /// Quantile function (inverse CDF). `p` must be in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `p` is outside `[0, 1)`; the provided
    /// distributions saturate instead (returning the support minimum for
    /// `p ≤ 0`).
    fn quantile(&self, p: f64) -> f64;

    /// Mean of the distribution, in hours.
    fn mean(&self) -> f64;

    /// Survival function `S(t) = 1 - F(t)`.
    fn sf(&self, t: f64) -> f64 {
        (1.0 - self.cdf(t)).max(0.0)
    }

    /// Hazard (instantaneous failure) rate `h(t) = f(t) / S(t)`.
    ///
    /// Returns `f64::INFINITY` where the survival function is zero.
    fn hazard(&self, t: f64) -> f64 {
        let s = self.sf(t);
        if s <= 0.0 {
            f64::INFINITY
        } else {
            self.pdf(t) / s
        }
    }

    /// Cumulative hazard `H(t) = -ln S(t)`.
    fn cum_hazard(&self, t: f64) -> f64 {
        let s = self.sf(t);
        if s <= 0.0 {
            f64::INFINITY
        } else {
            -s.ln()
        }
    }

    /// Draws one sample using inverse-transform sampling.
    ///
    /// The default implementation applies [`LifeDistribution::quantile`]
    /// to a uniform variate, which is correct for any implementation with
    /// an exact quantile function.
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let u = rng_f64(rng);
        self.quantile(u)
    }

    /// Draws a residual lifetime conditional on survival to `t0`.
    ///
    /// Returns the *additional* time beyond `t0`. Used when a process is
    /// known to have survived an observation window. The default
    /// implementation inverts the conditional CDF
    /// `F(t | T > t0) = (F(t0 + t) - F(t0)) / S(t0)`.
    fn sample_conditional(&self, t0: f64, rng: &mut dyn Rng) -> f64 {
        let s0 = self.sf(t0);
        if s0 <= 0.0 {
            return 0.0;
        }
        let u = rng_f64(rng);
        let p = self.cdf(t0) + u * s0;
        (self.quantile(p) - t0).max(0.0)
    }

    /// Lowers this distribution to a monomorphic sampling kernel
    /// ([`SampleKernel`]) whose draws are **bit-identical** to
    /// [`LifeDistribution::sample`] and
    /// [`LifeDistribution::sample_conditional`] — see the contract in
    /// [`kernel`]. The default returns `None`, which makes
    /// [`SampleKernel::lower`] fall back to the boxed `dyn` path, so
    /// implementations without a kernel keep working unchanged.
    fn lower_kernel(&self) -> Option<SampleKernel> {
        None
    }
}

/// Uniform variate in `[0, 1)` from any RNG, `dyn` included.
///
/// `rand`'s ergonomic helpers require `Sized` RNGs; this helper also
/// serves the object-safe [`LifeDistribution`] methods, while the
/// sampling kernels call it monomorphically.
#[inline]
pub(crate) fn rng_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    unit_f64(rng.next_u64())
}

/// The uniform `[0, 1)` variate of one RNG word: 53 random mantissa
/// bits, the standard conversion used by `rand`.
#[inline]
pub(crate) fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rng_f64_is_in_unit_interval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = rng_f64(&mut rng);
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let d: Box<dyn LifeDistribution> = Box::new(Weibull3::new(0.0, 100.0, 1.5).unwrap());
        assert!(d.cdf(100.0) > 0.5);
    }

    #[test]
    fn default_sf_and_hazard_are_consistent() {
        let d = Weibull3::new(0.0, 50.0, 2.0).unwrap();
        for &t in &[1.0, 10.0, 50.0, 120.0] {
            assert!((d.sf(t) - (1.0 - d.cdf(t))).abs() < 1e-12);
            let h = d.hazard(t);
            assert!((h - d.pdf(t) / d.sf(t)).abs() < 1e-9 * h.max(1.0));
        }
    }

    #[test]
    fn conditional_sample_exceeds_zero_and_respects_support() {
        let d = Weibull3::new(6.0, 12.0, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let extra = d.sample_conditional(10.0, &mut rng);
            assert!(extra >= 0.0);
        }
    }
}
