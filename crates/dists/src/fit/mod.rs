//! Weibull parameter estimation from (right-censored) life data.
//!
//! The estimator family matches standard reliability practice and the
//! plots in the paper:
//!
//! * [`rank_regression`] — median-rank regression on Weibull probability
//!   paper. This is what the straight lines in paper Figures 1 and 2 are:
//!   a least-squares fit to the plotting positions. It also yields the
//!   `R²` used to judge "a straight line indicates a good fit".
//! * [`mle`] — maximum-likelihood estimation, preferred for heavily
//!   censored samples such as the vintage data of Figure 2 (e.g. 198
//!   failures among 10,631 drives).
//! * [`mixture_em`] — two-component Weibull mixture via EM, the
//!   quantitative form of Figure 1's "population mixture" reading.
//!
//! [`bootstrap_ci`] wraps the estimators with nonparametric bootstrap
//! confidence intervals, and [`ks_statistic`] provides goodness-of-fit
//! statistics.

mod bootstrap;
mod ks;
mod mixture_em;
mod mle;
mod rank_regression;

pub use bootstrap::{bootstrap_ci, ParamCi};
pub use ks::{ks_critical_value, ks_statistic};
pub use mixture_em::{mixture_em, single_weibull_log_likelihood, FittedMixture};
pub use mle::{exponential_mle, mle};
pub use rank_regression::rank_regression;

use crate::{DistError, Weibull3};
use serde::{Deserialize, Serialize};

/// Result of fitting a two-parameter Weibull to life data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FittedWeibull {
    /// Estimated characteristic life `η̂`, in hours.
    pub eta: f64,
    /// Estimated shape `β̂`.
    pub beta: f64,
    /// Coefficient of determination of the probability-plot regression
    /// (`None` for MLE fits).
    pub r_squared: Option<f64>,
    /// Maximized log-likelihood (`None` for rank-regression fits).
    pub log_likelihood: Option<f64>,
    /// Number of exact failures used.
    pub failures: usize,
    /// Number of right-censored observations used.
    pub suspensions: usize,
}

impl FittedWeibull {
    /// Converts the fit into a usable [`Weibull3`] distribution (γ = 0).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] if the estimates are
    /// degenerate (should not happen for fits produced by this module).
    pub fn to_distribution(&self) -> Result<Weibull3, DistError> {
        Weibull3::two_param(self.eta, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_weibull_converts_to_distribution() {
        let f = FittedWeibull {
            eta: 461_386.0,
            beta: 1.12,
            r_squared: Some(0.99),
            log_likelihood: None,
            failures: 100,
            suspensions: 0,
        };
        let d = f.to_distribution().unwrap();
        assert_eq!(d.scale(), 461_386.0);
        assert_eq!(d.shape(), 1.12);
    }
}
