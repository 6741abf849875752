use crate::special::{ln_gamma, pow_batch};
use crate::{DistError, Mixture, Weibull3};
use std::sync::Arc;

/// A fitted two-component Weibull mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedMixture {
    /// Weight of the first component.
    pub weight: f64,
    /// First component `(η, β)` — by convention the one with the
    /// smaller characteristic life (the "weak" sub-population).
    pub first: (f64, f64),
    /// Second component `(η, β)`.
    pub second: (f64, f64),
    /// Log-likelihood at convergence.
    pub log_likelihood: f64,
    /// EM iterations used.
    pub iterations: usize,
}

impl FittedMixture {
    /// Converts the fit into a [`Mixture`] distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] on degenerate estimates.
    pub fn to_distribution(&self) -> Result<Mixture, DistError> {
        Mixture::new(vec![
            (
                self.weight,
                Arc::new(Weibull3::two_param(self.first.0, self.first.1)?) as _,
            ),
            (
                1.0 - self.weight,
                Arc::new(Weibull3::two_param(self.second.0, self.second.1)?) as _,
            ),
        ])
    }
}

/// Expectation-maximization fit of a two-component Weibull mixture to
/// **complete** (uncensored) failure times.
///
/// This is the estimator behind the paper's Figure 1 reading of
/// HDD #3: "In mixed populations, some of the HDDs have a failure
/// mechanism that the others do not have". When a single Weibull fits
/// poorly (curved probability plot), the mixture fit separates the
/// weak sub-population and quantifies its share.
///
/// The E-step computes component responsibilities; the M-step solves
/// the *weighted* censoring-free Weibull MLE per component (profile
/// bisection on the shape, closed-form scale). Initialization splits
/// the sample at the median; EM runs until the log-likelihood gain
/// drops below `1e-8` per observation or 500 iterations.
///
/// Right-censored data is not supported (the reproduction only needs
/// complete synthetic samples); extend with censored weighted MLE if
/// field use requires it.
///
/// # Errors
///
/// * [`DistError::InsufficientData`] with fewer than 10 failures
///   (mixtures need real sample sizes).
/// * [`DistError::InvalidParameter`] for non-positive times.
/// * [`DistError::NoConvergence`] if EM degenerates (a component's
///   weight collapses below 1e-4).
pub fn mixture_em(times: &[f64]) -> Result<FittedMixture, DistError> {
    if times.len() < 10 {
        return Err(DistError::InsufficientData {
            failures: times.len(),
            required: 10,
        });
    }
    if times.iter().any(|&t| !t.is_finite() || t <= 0.0) {
        return Err(DistError::InvalidParameter {
            name: "time",
            value: f64::NAN,
            constraint: "failure times must be finite and > 0",
        });
    }

    // Initialize by a median split.
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = sorted.len() / 2;
    let mut comp1 = weighted_weibull_mle(&sorted[..half], None)?;
    let mut comp2 = weighted_weibull_mle(&sorted[half..], None)?;
    let mut weight = 0.5f64;

    let n = times.len() as f64;
    let mut last_ll = f64::NEG_INFINITY;
    let mut resp = vec![0.0f64; times.len()];
    for iteration in 0..500 {
        // E-step: responsibility of component 1 for each observation,
        // computed in log space for stability.
        let mut ll = 0.0;
        for (r, &t) in resp.iter_mut().zip(times) {
            let l1 = weight.ln() + log_weibull_pdf(t, comp1.0, comp1.1);
            let l2 = (1.0 - weight).ln() + log_weibull_pdf(t, comp2.0, comp2.1);
            let max = l1.max(l2);
            let denom = max + ((l1 - max).exp() + (l2 - max).exp()).ln();
            *r = (l1 - denom).exp();
            ll += denom;
        }

        // M-step.
        let w1: f64 = resp.iter().sum();
        weight = w1 / n;
        if !(1e-4..=1.0 - 1e-4).contains(&weight) {
            return Err(DistError::NoConvergence {
                iterations: iteration,
            });
        }
        comp1 = weighted_weibull_mle(times, Some(&resp))?;
        let resp2: Vec<f64> = resp.iter().map(|r| 1.0 - r).collect();
        comp2 = weighted_weibull_mle(times, Some(&resp2))?;

        if (ll - last_ll).abs() < 1e-8 * n && iteration > 3 {
            return Ok(order(FittedMixture {
                weight,
                first: comp1,
                second: comp2,
                log_likelihood: ll,
                iterations: iteration + 1,
            }));
        }
        last_ll = ll;
    }
    Ok(order(FittedMixture {
        weight,
        first: comp1,
        second: comp2,
        log_likelihood: last_ll,
        iterations: 500,
    }))
}

/// Log-likelihood of a *single* two-parameter Weibull MLE on the same
/// data — the null model the mixture is compared against (a large
/// improvement means the population really is mixed).
///
/// # Errors
///
/// Propagates the single-Weibull fit errors.
pub fn single_weibull_log_likelihood(times: &[f64]) -> Result<f64, DistError> {
    let (eta, beta) = weighted_weibull_mle(times, None)?;
    Ok(times.iter().map(|&t| log_weibull_pdf(t, eta, beta)).sum())
}

fn log_weibull_pdf(t: f64, eta: f64, beta: f64) -> f64 {
    let z = t / eta;
    beta.ln() - eta.ln() + (beta - 1.0) * z.ln() - z.powf(beta)
}

/// Weighted complete-sample Weibull MLE; `weights = None` means unit
/// weights. Returns `(eta, beta)`.
fn weighted_weibull_mle(times: &[f64], weights: Option<&[f64]>) -> Result<(f64, f64), DistError> {
    let w = |i: usize| weights.map_or(1.0, |w| w[i]);
    let total: f64 = (0..times.len()).map(&w).sum();
    if total <= 1e-9 {
        return Err(DistError::NoConvergence { iterations: 0 });
    }
    let t_max = times.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
    let scaled: Vec<f64> = times.iter().map(|&t| t / t_max).collect();
    let ln_scaled: Vec<f64> = scaled.iter().map(|t| t.ln()).collect();
    let mean_ln: f64 = (0..scaled.len()).map(|i| w(i) * ln_scaled[i]).sum::<f64>() / total;

    // `t^β` for every observation, evaluated as one batch per score;
    // the sums below stay sequential, so every bit is the scalar loop's.
    let mut powers = vec![0.0; scaled.len()];
    let mut score = |beta: f64| -> f64 {
        pow_batch(&scaled, beta, &mut powers);
        let mut s0 = 0.0;
        let mut s1 = 0.0;
        for (i, (&tb, &ln_t)) in powers.iter().zip(&ln_scaled).enumerate() {
            let tb = w(i) * tb;
            s0 += tb;
            s1 += tb * ln_t;
        }
        1.0 / beta + mean_ln - s1 / s0
    };
    let (mut lo, mut hi) = (0.05, 60.0);
    if score(lo) < 0.0 || score(hi) > 0.0 {
        return Err(DistError::NoConvergence { iterations: 0 });
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            // Adjacent floats: every further step ends at `mid`, the
            // value returned below.
            break;
        }
        if score(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let beta = 0.5 * (lo + hi);
    let s0: f64 = (0..scaled.len()).map(|i| w(i) * scaled[i].powf(beta)).sum();
    let eta = t_max * (s0 / total).powf(1.0 / beta);
    // Guard against numerically absurd shapes (keeps ln_gamma happy in
    // downstream moment computations).
    let _ = ln_gamma(1.0 + 1.0 / beta);
    Ok((eta, beta))
}

fn order(mut fit: FittedMixture) -> FittedMixture {
    if fit.first.0 > fit.second.0 {
        std::mem::swap(&mut fit.first, &mut fit.second);
        fit.weight = 1.0 - fit.weight;
    }
    fit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;
    use crate::LifeDistribution;

    fn draw_mixture(w: f64, a: (f64, f64), b: (f64, f64), n: usize, seed: u64) -> Vec<f64> {
        let mix = Mixture::new(vec![
            (w, Arc::new(Weibull3::two_param(a.0, a.1).unwrap()) as _),
            (
                1.0 - w,
                Arc::new(Weibull3::two_param(b.0, b.1).unwrap()) as _,
            ),
        ])
        .unwrap();
        let mut rng = stream(seed, 0);
        (0..n).map(|_| mix.sample(&mut rng)).collect()
    }

    #[test]
    fn recovers_well_separated_components() {
        // 20% weak population (eta 500) vs healthy (eta 100,000).
        let times = draw_mixture(0.2, (500.0, 1.0), (100_000.0, 1.5), 8_000, 1);
        let fit = mixture_em(&times).unwrap();
        assert!((fit.weight - 0.2).abs() < 0.03, "weight = {}", fit.weight);
        assert!(
            (fit.first.0 - 500.0).abs() / 500.0 < 0.2,
            "eta1 = {}",
            fit.first.0
        );
        assert!(
            (fit.second.0 - 100_000.0).abs() / 100_000.0 < 0.2,
            "eta2 = {}",
            fit.second.0
        );
        assert!(fit.iterations < 500);
    }

    #[test]
    fn mixture_beats_single_weibull_on_mixed_data() {
        let times = draw_mixture(0.3, (1_000.0, 0.9), (200_000.0, 2.0), 4_000, 2);
        let fit = mixture_em(&times).unwrap();
        let single = single_weibull_log_likelihood(&times).unwrap();
        // A real mixture should gain enormously (hundreds of nats).
        assert!(
            fit.log_likelihood > single + 100.0,
            "mixture {} vs single {single}",
            fit.log_likelihood
        );
    }

    #[test]
    fn single_population_gains_little() {
        let truth = Weibull3::two_param(10_000.0, 1.3).unwrap();
        let mut rng = stream(3, 0);
        let times: Vec<f64> = (0..3_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = mixture_em(&times).unwrap();
        let single = single_weibull_log_likelihood(&times).unwrap();
        // Two extra parameters buy only a trivial improvement.
        assert!(
            fit.log_likelihood - single < 15.0,
            "gain = {}",
            fit.log_likelihood - single
        );
    }

    #[test]
    fn components_are_ordered_by_scale() {
        let times = draw_mixture(0.7, (100_000.0, 1.5), (800.0, 1.0), 5_000, 4);
        let fit = mixture_em(&times).unwrap();
        assert!(fit.first.0 < fit.second.0);
        // 30% weak (the generator's second component).
        assert!((fit.weight - 0.3).abs() < 0.05, "weight = {}", fit.weight);
    }

    #[test]
    fn fitted_distribution_matches_data_cdf() {
        let times = draw_mixture(0.25, (600.0, 1.1), (150_000.0, 1.4), 6_000, 5);
        let fit = mixture_em(&times).unwrap();
        let dist = fit.to_distribution().unwrap();
        let below = times.iter().filter(|&&t| t <= 2_000.0).count() as f64 / times.len() as f64;
        assert!(
            (dist.cdf(2_000.0) - below).abs() < 0.03,
            "model {}, empirical {below}",
            dist.cdf(2_000.0)
        );
    }

    #[test]
    fn rejects_insufficient_or_bad_data() {
        assert!(mixture_em(&[1.0; 5]).is_err());
        assert!(mixture_em(&[0.0; 20]).is_err());
        let mut with_nan = vec![1.0; 20];
        with_nan[3] = f64::NAN;
        assert!(mixture_em(&with_nan).is_err());
    }
}
