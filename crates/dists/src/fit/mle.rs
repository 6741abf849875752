use super::FittedWeibull;
use crate::empirical::Observation;
use crate::special::pow_batch;
use crate::DistError;

/// Maximum-likelihood fit of a two-parameter Weibull to right-censored
/// life data.
///
/// The log-likelihood for failures `tᵢ` (set `F`) and suspensions `sⱼ`
/// (set `S`) is
///
/// ```text
/// ℓ(η, β) = Σ_F [ln β − β ln η + (β−1) ln tᵢ − (tᵢ/η)^β] − Σ_S (sⱼ/η)^β
/// ```
///
/// For fixed `β`, the score in `η` has the closed-form solution
/// `η̂^β = Σ_all t^β / r` (with `r` the failure count), leaving a
/// one-dimensional profile equation in `β` that is strictly monotone and
/// solved here by bracketed bisection — robust for the extreme censoring
/// levels in the paper's vintage data (Figure 2: up to 98% suspended).
///
/// # Errors
///
/// * [`DistError::InsufficientData`] with fewer than 2 failures.
/// * [`DistError::InvalidParameter`] for non-positive failure times.
/// * [`DistError::NoConvergence`] if the profile root cannot be
///   bracketed in `β ∈ [0.01, 100]` (pathological data).
pub fn mle(data: &[Observation]) -> Result<FittedWeibull, DistError> {
    let failures: Vec<f64> = data.iter().filter(|o| o.failed).map(|o| o.time).collect();
    let r = failures.len();
    let suspensions = data.len() - r;
    if r < 2 {
        return Err(DistError::InsufficientData {
            failures: r,
            required: 2,
        });
    }
    if failures.iter().any(|&t| t <= 0.0) {
        return Err(DistError::InvalidParameter {
            name: "time",
            value: failures.iter().copied().fold(f64::INFINITY, f64::min),
            constraint: "failure times must be > 0",
        });
    }

    // Scale all times by the max to keep t^beta in range for large beta.
    let t_max = data
        .iter()
        .map(|o| o.time)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let all: Vec<f64> = data.iter().map(|o| (o.time / t_max).max(1e-300)).collect();
    let fail_scaled: Vec<f64> = failures.iter().map(|&t| t / t_max).collect();
    let mean_ln_fail = fail_scaled.iter().map(|t| t.ln()).sum::<f64>() / r as f64;

    // Profile score: g(beta) = 1/beta + mean(ln t_F) - S1(beta)/S0(beta)
    // where S0 = sum t^beta, S1 = sum t^beta ln t over ALL observations.
    // `ln t` is fixed and `t^β` is evaluated as one batch per score;
    // the sums stay sequential, so every bit is the scalar loop's.
    let ln_all: Vec<f64> = all.iter().map(|t| t.ln()).collect();
    let mut powers = vec![0.0; all.len()];
    let mut score = |beta: f64| -> f64 {
        pow_batch(&all, beta, &mut powers);
        let mut s0 = 0.0;
        let mut s1 = 0.0;
        for (&tb, &ln_t) in powers.iter().zip(&ln_all) {
            s0 += tb;
            s1 += tb * ln_t;
        }
        1.0 / beta + mean_ln_fail - s1 / s0
    };

    // g is strictly decreasing in beta; bracket the root.
    let (mut lo, mut hi) = (0.01, 100.0);
    if score(lo) < 0.0 || score(hi) > 0.0 {
        return Err(DistError::NoConvergence { iterations: 0 });
    }
    let mut iterations = 0;
    while hi - lo > 1e-10 * hi {
        let mid = 0.5 * (lo + hi);
        if score(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        iterations += 1;
        if iterations > 200 {
            return Err(DistError::NoConvergence { iterations });
        }
    }
    let beta = 0.5 * (lo + hi);

    let s0: f64 = all.iter().map(|&t| t.powf(beta)).sum();
    let eta_scaled = (s0 / r as f64).powf(1.0 / beta);
    let eta = eta_scaled * t_max;

    // Log-likelihood at the optimum (unscaled).
    let mut ll = 0.0;
    for &t in &failures {
        let z = t / eta;
        ll += beta.ln() - eta.ln() + (beta - 1.0) * z.ln() - z.powf(beta);
    }
    for o in data.iter().filter(|o| !o.failed) {
        ll -= (o.time / eta).powf(beta);
    }

    Ok(FittedWeibull {
        eta,
        beta,
        r_squared: None,
        log_likelihood: Some(ll),
        failures: r,
        suspensions,
    })
}

/// Maximum-likelihood estimate of an exponential rate from right-censored
/// data: `λ̂ = r / Σ_all tᵢ` (failures over total time on test).
///
/// Returns the rate per hour. This is the estimator behind every MTBF
/// number the MTTDL method consumes.
///
/// # Errors
///
/// Returns [`DistError::InsufficientData`] if there are no failures, and
/// [`DistError::InvalidParameter`] if total observed time is not
/// positive.
pub fn exponential_mle(data: &[Observation]) -> Result<f64, DistError> {
    let r = data.iter().filter(|o| o.failed).count();
    if r == 0 {
        return Err(DistError::InsufficientData {
            failures: 0,
            required: 1,
        });
    }
    let total: f64 = data.iter().map(|o| o.time).sum();
    if total <= 0.0 {
        return Err(DistError::InvalidParameter {
            name: "total_time",
            value: total,
            constraint: "total time on test must be > 0",
        });
    }
    Ok(r as f64 / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LifeDistribution, Weibull3};
    use rand::SeedableRng;

    fn censored_sample(truth: &Weibull3, n: usize, window: f64, seed: u64) -> Vec<Observation> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let t = truth.sample(&mut rng);
                if t <= window {
                    Observation::failure(t)
                } else {
                    Observation::censored(window)
                }
            })
            .collect()
    }

    #[test]
    fn recovers_complete_sample_parameters() {
        let truth = Weibull3::two_param(1_000.0, 2.0).unwrap();
        let data = censored_sample(&truth, 3_000, f64::INFINITY, 4);
        let fit = mle(&data).unwrap();
        assert!((fit.beta - 2.0).abs() < 0.08, "beta = {}", fit.beta);
        assert!((fit.eta - 1_000.0).abs() < 30.0, "eta = {}", fit.eta);
        assert_eq!(fit.suspensions, 0);
    }

    #[test]
    fn recovers_fig2_vintage_parameters_under_heavy_censoring() {
        // Vintage 2 of Figure 2: eta = 125,660, beta = 1.2162, ~24k
        // units observed to 6,000 h.
        let truth = Weibull3::two_param(125_660.0, 1.2162).unwrap();
        let data = censored_sample(&truth, 24_056, 6_000.0, 12);
        let fit = mle(&data).unwrap();
        assert!((fit.beta - 1.2162).abs() < 0.1, "beta = {}", fit.beta);
        assert!(
            (fit.eta - 125_660.0).abs() / 125_660.0 < 0.3,
            "eta = {}",
            fit.eta
        );
        assert!(fit.suspensions > 20_000);
        assert!(fit.log_likelihood.unwrap().is_finite());
    }

    #[test]
    fn beta_one_mle_matches_exponential_mle() {
        let truth = Weibull3::two_param(9_259.0, 1.0).unwrap();
        let data = censored_sample(&truth, 5_000, 8_000.0, 6);
        let w = mle(&data).unwrap();
        let lambda = exponential_mle(&data).unwrap();
        assert!((w.beta - 1.0).abs() < 0.06, "beta = {}", w.beta);
        assert!(
            (1.0 / w.eta - lambda).abs() / lambda < 0.08,
            "weibull rate = {}, exp rate = {lambda}",
            1.0 / w.eta
        );
    }

    #[test]
    fn exponential_mle_is_failures_over_time() {
        let data = vec![
            Observation::failure(100.0),
            Observation::failure(200.0),
            Observation::censored(700.0),
        ];
        let lambda = exponential_mle(&data).unwrap();
        assert!((lambda - 2.0 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_too_few_failures() {
        assert!(matches!(
            mle(&[Observation::failure(10.0)]),
            Err(DistError::InsufficientData { .. })
        ));
        assert!(matches!(
            exponential_mle(&[Observation::censored(10.0)]),
            Err(DistError::InsufficientData { .. })
        ));
    }

    #[test]
    fn rejects_nonpositive_failure_time() {
        let data = [Observation::failure(-1.0), Observation::failure(10.0)];
        assert!(mle(&data).is_err());
    }

    #[test]
    fn large_time_scales_do_not_overflow() {
        // Times at the 1e5-hour scale with beta near 3 would overflow a
        // naive sum of t^beta in f32; make sure f64 + scaling is stable.
        let truth = Weibull3::two_param(4.5e5, 3.0).unwrap();
        let data = censored_sample(&truth, 2_000, f64::INFINITY, 9);
        let fit = mle(&data).unwrap();
        assert!((fit.beta - 3.0).abs() < 0.15);
    }
}
