//! Mean cumulative function (MCF) estimation.
//!
//! For `n` systems observed over a common window, the MCF at time `t`
//! is the average number of events per system by `t`. With every system
//! observed for the full mission (the simulation setting — no
//! staggered entry), the natural estimator at event time `tᵢ` is simply
//! `(cumulative event count) / n`, stepping at each event. A normal-
//! approximation confidence band uses the per-system count variance
//! (Nelson's unbiased variance estimator for the MCF).

use serde::{Deserialize, Serialize};

/// One step of the estimated MCF.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McfPoint {
    /// Event time, hours.
    pub time: f64,
    /// Estimated mean cumulative events per system at `time`.
    pub mean: f64,
    /// Lower bound of the confidence band.
    pub lower: f64,
    /// Upper bound of the confidence band.
    pub upper: f64,
}

/// Estimated mean cumulative function for a fleet of identically
/// observed systems.
///
/// # Example
///
/// ```
/// use raidsim_analysis::McfEstimate;
///
/// // Two systems over 100 h: one failed at 10 and 30 h, one at 20 h.
/// let events = vec![vec![10.0, 30.0], vec![20.0]];
/// let mcf = McfEstimate::from_event_times(&events, 100.0, 0.95);
/// assert_eq!(mcf.at(25.0), 1.0);        // 2 events / 2 systems by t=25
/// assert_eq!(mcf.final_value(), 1.5);   // 3 events / 2 systems
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McfEstimate {
    points: Vec<McfPoint>,
    systems: usize,
    window_hours: f64,
}

impl McfEstimate {
    /// Estimates the MCF from per-system event-time lists.
    ///
    /// `events[k]` holds the event times of system `k` (any order);
    /// every system is assumed observed over `[0, window_hours]`.
    /// `confidence` is the two-sided normal confidence level for the
    /// band (e.g. `0.95`).
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty, `window_hours` is not positive, or
    /// `confidence` is not in `(0, 1)`.
    pub fn from_event_times(events: &[Vec<f64>], window_hours: f64, confidence: f64) -> Self {
        assert!(!events.is_empty(), "need at least one system");
        assert!(
            window_hours.is_finite() && window_hours > 0.0,
            "window must be positive"
        );
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        let n = events.len() as f64;
        let z = normal_quantile(0.5 + confidence / 2.0);

        // Merge all events; remember which system produced each so the
        // variance can be accumulated incrementally.
        let mut merged: Vec<(f64, usize)> = events
            .iter()
            .enumerate()
            .flat_map(|(sys, ts)| ts.iter().map(move |&t| (t, sys)))
            .collect();
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Per-system running counts for the variance term.
        let mut counts = vec![0.0f64; events.len()];
        let mut cumulative = 0.0f64;
        let mut points = Vec::with_capacity(merged.len());
        for (t, sys) in merged {
            assert!(
                (0.0..=window_hours).contains(&t),
                "event at {t} outside observation window"
            );
            counts[sys] += 1.0;
            cumulative += 1.0;
            let mean = cumulative / n;
            // Unbiased variance of the per-system counts at this step.
            let var = if events.len() > 1 {
                let mean_count = mean;
                let ss: f64 = counts.iter().map(|c| (c - mean_count).powi(2)).sum();
                ss / (n * (n - 1.0))
            } else {
                0.0
            };
            let half = z * var.sqrt();
            points.push(McfPoint {
                time: t,
                mean,
                lower: (mean - half).max(0.0),
                upper: mean + half,
            });
        }

        Self {
            points,
            systems: events.len(),
            window_hours,
        }
    }

    /// The step points, in time order.
    pub fn points(&self) -> &[McfPoint] {
        &self.points
    }

    /// Number of systems the estimate is based on.
    pub fn systems(&self) -> usize {
        self.systems
    }

    /// Observation window, hours.
    pub fn window_hours(&self) -> f64 {
        self.window_hours
    }

    /// MCF value at time `t` (step interpolation).
    pub fn at(&self, t: f64) -> f64 {
        match self.points.partition_point(|p| p.time <= t).checked_sub(1) {
            Some(i) => self.points[i].mean,
            None => 0.0,
        }
    }

    /// Samples the estimate on an even grid of `steps` points spanning
    /// the window — the series the experiment figures print.
    pub fn sampled(&self, steps: usize) -> Vec<(f64, f64)> {
        assert!(steps >= 2, "need at least two grid points");
        (0..=steps)
            .map(|i| {
                let t = self.window_hours * i as f64 / steps as f64;
                (t, self.at(t))
            })
            .collect()
    }

    /// Final MCF value (events per system over the whole window).
    pub fn final_value(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.mean)
    }
}

/// Inverse standard normal CDF.
///
/// This is the workspace's single implementation
/// ([`raidsim_dists::special::inv_std_normal`], Acklam's rational
/// approximation, |ε| < 1.15e-9), re-exported under the name this
/// crate's estimators historically used. The batch runner's
/// z-scores come from the same function, so confidence levels agree
/// bit-for-bit across crates at every level — previously the runner
/// carried a divergent coarse fit that disagreed on non-tabulated
/// levels.
///
/// Panics if `p` is not in `(0, 1)`.
pub use raidsim_dists::special::inv_std_normal as normal_quantile;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_system_mcf() {
        // System 0 fails at 10 and 30; system 1 at 20.
        let events = vec![vec![10.0, 30.0], vec![20.0]];
        let m = McfEstimate::from_event_times(&events, 100.0, 0.95);
        assert_eq!(m.points().len(), 3);
        assert!((m.at(10.0) - 0.5).abs() < 1e-12);
        assert!((m.at(20.0) - 1.0).abs() < 1e-12);
        assert!((m.at(30.0) - 1.5).abs() < 1e-12);
        assert_eq!(m.at(5.0), 0.0);
        assert!((m.final_value() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mcf_is_monotone_nondecreasing() {
        let events = vec![vec![5.0, 50.0, 70.0], vec![], vec![20.0]];
        let m = McfEstimate::from_event_times(&events, 100.0, 0.9);
        let pts = m.points();
        assert!(pts.windows(2).all(|w| w[0].mean <= w[1].mean));
        assert!(pts.iter().all(|p| p.lower <= p.mean && p.mean <= p.upper));
    }

    #[test]
    fn confidence_band_narrows_with_more_systems() {
        // Identical event pattern replicated across fleets of different
        // sizes: the band half-width must shrink ~ 1/sqrt(n).
        let make = |n: usize| {
            let events: Vec<Vec<f64>> = (0..n)
                .map(|i| if i % 2 == 0 { vec![10.0] } else { vec![] })
                .collect();
            McfEstimate::from_event_times(&events, 100.0, 0.95)
        };
        let small = make(10);
        let large = make(1000);
        let hw = |m: &McfEstimate| {
            let p = m.points().last().copied().unwrap();
            p.upper - p.lower
        };
        assert!(hw(&large) < hw(&small) / 5.0);
    }

    #[test]
    fn poisson_fleet_recovers_linear_mcf() {
        use raidsim_dists::{Exponential, LifeDistribution};
        use rand::SeedableRng;
        // Events at constant rate 1/1000 h over 10,000 h: MCF(t) ≈ t/1000.
        let d = Exponential::from_mean(1_000.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let window = 10_000.0;
        let events: Vec<Vec<f64>> = (0..2_000)
            .map(|_| {
                let mut ts = Vec::new();
                let mut t = d.sample(&mut rng);
                while t <= window {
                    ts.push(t);
                    t += d.sample(&mut rng);
                }
                ts
            })
            .collect();
        let m = McfEstimate::from_event_times(&events, window, 0.95);
        for &(frac, expect) in &[(0.25, 2.5), (0.5, 5.0), (1.0, 10.0)] {
            let got = m.at(window * frac);
            assert!((got - expect).abs() < 0.2, "t = {frac}, mcf = {got}");
        }
    }

    #[test]
    fn sampled_grid_is_even_and_consistent() {
        let events = vec![vec![10.0], vec![90.0]];
        let m = McfEstimate::from_event_times(&events, 100.0, 0.95);
        let grid = m.sampled(10);
        assert_eq!(grid.len(), 11);
        assert_eq!(grid[0], (0.0, 0.0));
        assert!((grid[10].1 - 1.0).abs() < 1e-12);
        assert!((grid[5].0 - 50.0).abs() < 1e-12);
        assert!((grid[5].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.9995) - 3.2905).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least one system")]
    fn empty_fleet_panics() {
        McfEstimate::from_event_times(&[], 100.0, 0.95);
    }

    #[test]
    #[should_panic(expected = "outside observation window")]
    fn event_beyond_window_panics() {
        McfEstimate::from_event_times(&[vec![200.0]], 100.0, 0.95);
    }

    #[test]
    fn single_system_has_zero_band() {
        let m = McfEstimate::from_event_times(&[vec![10.0, 20.0]], 100.0, 0.95);
        for p in m.points() {
            assert_eq!(p.lower, p.mean);
            assert_eq!(p.upper, p.mean);
        }
    }
}
