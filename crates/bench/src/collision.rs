//! Same-stripe defect-collision analysis.
//!
//! The reliability model counts any latent defect on any *other* drive
//! as fatal when a drive fails — but two **coexisting latent defects**
//! on different drives only destroy data if they fall in the *same
//! stripe* (and no drive has failed). The paper waves this away as "an
//! extremely rare event that is not modeled"; this module computes how
//! rare, analytically and by Monte Carlo, so the modeling decision is
//! quantified rather than asserted.

use raidsim::dists::rng::SimRng;
use rand::RngExt as _;

/// Parameters for a collision analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionModel {
    /// Drives in the group.
    pub drives: usize,
    /// Stripes per drive (capacity / stripe-unit size).
    pub stripes: u64,
    /// Expected number of simultaneously outstanding defects per drive
    /// (defect rate × mean exposure; base case ≈ 1.08e-4 × 156 ≈
    /// 0.017).
    pub defects_per_drive: f64,
}

impl CollisionModel {
    /// The paper's base case on the 500 GB SATA drive: 8 drives,
    /// 256 KiB stripe units (≈ 1.9 M stripes), medium defect rate with
    /// a one-week scrub.
    pub fn paper_base_case() -> Self {
        Self {
            drives: 8,
            stripes: (500.0e9 / 262_144.0) as u64,
            defects_per_drive: 1.08e-4 * 156.0,
        }
    }

    /// Analytic probability that at a random instant **some pair** of
    /// drives holds defects in the same stripe.
    ///
    /// With defect counts Poisson(`m`) per drive and defect positions
    /// uniform over `s` stripes, a given ordered pair of drives
    /// collides with probability `≈ m² / s`; summing over the
    /// `C(n, 2)` pairs (first-order union bound, excellent for the
    /// tiny probabilities involved):
    ///
    /// ```text
    /// P(collision) ≈ C(n, 2) · m² / s
    /// ```
    pub fn analytic_collision_probability(&self) -> f64 {
        let n = self.drives as f64;
        let pairs = n * (n - 1.0) / 2.0;
        pairs * self.defects_per_drive * self.defects_per_drive / self.stripes as f64
    }

    /// Monte Carlo estimate of the same probability: samples Poisson
    /// defect counts per drive, places defects uniformly, and checks
    /// for any cross-drive stripe collision.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn simulate_collision_probability(&self, trials: usize, rng: &mut SimRng) -> f64 {
        assert!(trials > 0, "need at least one trial");
        let mut hits = 0usize;
        let mut stripes_seen: Vec<(u64, usize)> = Vec::new();
        for _ in 0..trials {
            stripes_seen.clear();
            let mut collided = false;
            'drives: for drive in 0..self.drives {
                let count = poisson(self.defects_per_drive, rng);
                for _ in 0..count {
                    let stripe = rng.random_range(0..self.stripes);
                    if stripes_seen.iter().any(|&(s, d)| s == stripe && d != drive) {
                        collided = true;
                        break 'drives;
                    }
                    stripes_seen.push((stripe, drive));
                }
            }
            if collided {
                hits += 1;
            }
        }
        hits as f64 / trials as f64
    }

    /// Ratio of the boolean-defect DDF probability proxy to the
    /// same-stripe collision probability — how many times more likely
    /// the modeled loss path (defect + drive failure) is than the
    /// unmodeled one (defect + defect in one stripe), per unit time
    /// window in which one drive fails with probability
    /// `p_op_failure`.
    pub fn modeled_to_unmodeled_ratio(&self, p_op_failure: f64) -> f64 {
        // Modeled: a failing drive meets >=1 defect among the others.
        let n = self.drives as f64;
        let p_defect_any = 1.0 - (-self.defects_per_drive * (n - 1.0)).exp();
        (p_op_failure * p_defect_any) / self.analytic_collision_probability()
    }
}

/// Small-mean Poisson sampler (inversion by sequential search; the
/// means here are ≪ 1).
fn poisson(mean: f64, rng: &mut SimRng) -> u64 {
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.random_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
        // Defensive cap: mean < 10 in all uses here.
        if k > 1_000 {
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidsim::dists::rng::stream;

    #[test]
    fn base_case_collision_is_negligible() {
        let m = CollisionModel::paper_base_case();
        let p = m.analytic_collision_probability();
        // ~28 pairs x (0.017)^2 / 1.9e6 ~ 4e-9 — "extremely rare".
        assert!(p < 1e-8, "p = {p}");
        assert!(p > 1e-10, "p = {p}");
    }

    #[test]
    fn monte_carlo_confirms_rarity() {
        // With the tiny true probability, the MC estimate over 200k
        // trials must see at most a few hits.
        let m = CollisionModel::paper_base_case();
        let mut rng = stream(5, 0);
        let p = m.simulate_collision_probability(200_000, &mut rng);
        assert!(p < 1e-4, "p = {p}");
    }

    #[test]
    fn monte_carlo_matches_analytic_at_elevated_rates() {
        // Crank defect density until collisions are observable, then
        // compare the estimators.
        let m = CollisionModel {
            drives: 8,
            stripes: 10_000,
            defects_per_drive: 3.0,
        };
        let analytic = m.analytic_collision_probability();
        let mut rng = stream(6, 0);
        let mc = m.simulate_collision_probability(100_000, &mut rng);
        // The union bound overestimates slightly; agree within 20%.
        assert!(
            (mc - analytic).abs() / analytic < 0.2,
            "mc = {mc}, analytic = {analytic}"
        );
    }

    #[test]
    fn monte_carlo_matches_analytic_at_moderate_density() {
        let m = CollisionModel {
            drives: 8,
            stripes: 20_000,
            defects_per_drive: 2.0,
        };
        let analytic = m.analytic_collision_probability();
        let mc = m.simulate_collision_probability(50_000, &mut stream(4, 0));
        assert!(
            (analytic - mc).abs() / analytic < 0.3,
            "a = {analytic}, mc = {mc}"
        );
    }

    #[test]
    fn modeled_path_dominates_by_many_orders() {
        let m = CollisionModel::paper_base_case();
        // One-week window: p(op failure of one of 8 drives) ~ 8 * 168/461386.
        let p_op = 8.0 * 168.0 / 461_386.0;
        let ratio = m.modeled_to_unmodeled_ratio(p_op);
        assert!(ratio > 1e4, "ratio = {ratio}");
    }

    #[test]
    fn collision_probability_scales_with_pairs_and_density() {
        let base = CollisionModel {
            drives: 8,
            stripes: 1_000_000,
            defects_per_drive: 0.02,
        };
        let denser = CollisionModel {
            defects_per_drive: 0.04,
            ..base
        };
        let wider = CollisionModel { drives: 16, ..base };
        assert!(
            (denser.analytic_collision_probability() / base.analytic_collision_probability() - 4.0)
                .abs()
                < 1e-9
        );
        // 16 drives: 120 pairs vs 28 pairs.
        assert!(
            (wider.analytic_collision_probability() / base.analytic_collision_probability()
                - 120.0 / 28.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = stream(7, 0);
        let n = 100_000;
        let mean = 0.5;
        let total: u64 = (0..n).map(|_| poisson(mean, &mut rng)).sum();
        let got = total as f64 / n as f64;
        assert!((got - mean).abs() < 0.01, "mean = {got}");
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let m = CollisionModel::paper_base_case();
        m.simulate_collision_probability(0, &mut stream(1, 0));
    }
}
