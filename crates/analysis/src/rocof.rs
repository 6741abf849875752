//! Rate-of-occurrence-of-failure (ROCOF) estimation.
//!
//! "The increasing rate of occurrence of failure (ROCOF) is verified by
//! finding the number of DDFs that occur in any fixed time interval
//! (Figure 8)." The windowed estimator here is exactly that: events per
//! system per window, reported at window midpoints. A homogeneous
//! Poisson process gives a flat ROCOF; the paper's model does not.

use serde::{Deserialize, Serialize};

/// ROCOF estimate for one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocofPoint {
    /// Window midpoint, hours.
    pub time: f64,
    /// Events per system per hour in the window.
    pub rate: f64,
    /// Raw event count in the window (all systems).
    pub events: usize,
}

/// Estimates the ROCOF by counting events in `windows` equal windows
/// over `[0, window_hours]`.
///
/// `event_times` are the pooled event times across `systems` systems
/// (any order).
///
/// # Example
///
/// ```
/// use raidsim_analysis::rocof;
///
/// // 10 systems, events clustering late in the 100 h window.
/// let pts = rocof(&[80.0, 85.0, 90.0, 95.0, 15.0], 10, 100.0, 4);
/// assert_eq!(pts.len(), 4);
/// assert!(pts[3].rate > pts[0].rate); // increasing intensity
/// ```
///
/// # Panics
///
/// Panics if `systems == 0`, `windows == 0`, or `window_hours` is not
/// positive.
pub fn rocof(
    event_times: &[f64],
    systems: usize,
    window_hours: f64,
    windows: usize,
) -> Vec<RocofPoint> {
    assert!(systems > 0, "need at least one system");
    assert!(windows > 0, "need at least one window");
    assert!(
        window_hours.is_finite() && window_hours > 0.0,
        "window_hours must be positive"
    );
    let width = window_hours / windows as f64;
    let mut counts = vec![0usize; windows];
    for &t in event_times {
        assert!(
            (0.0..=window_hours).contains(&t),
            "event at {t} outside observation window"
        );
        let idx = ((t / width) as usize).min(windows - 1);
        counts[idx] += 1;
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| RocofPoint {
            time: (i as f64 + 0.5) * width,
            rate: c as f64 / systems as f64 / width,
            events: c,
        })
        .collect()
}

/// Least-squares slope of the ROCOF over time — positive means the
/// fleet's failure intensity is increasing (non-HPP), the paper's
/// Figure 8 observation.
///
/// # Panics
///
/// Panics if fewer than two points are given.
pub fn rocof_trend(points: &[RocofPoint]) -> f64 {
    assert!(points.len() >= 2, "need at least two ROCOF points");
    let n = points.len() as f64;
    let xm = points.iter().map(|p| p.time).sum::<f64>() / n;
    let ym = points.iter().map(|p| p.rate).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.time - xm) * (p.rate - ym)).sum();
    let sxx: f64 = points.iter().map(|p| (p.time - xm).powi(2)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_correct_windows() {
        let events = [5.0, 15.0, 16.0, 95.0, 100.0];
        let pts = rocof(&events, 10, 100.0, 10);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0].events, 1);
        assert_eq!(pts[1].events, 2);
        assert_eq!(pts[9].events, 2); // 95 and the boundary event at 100
        assert_eq!(pts.iter().map(|p| p.events).sum::<usize>(), 5);
    }

    #[test]
    fn rate_normalization() {
        // 10 events in one window of width 10 h across 5 systems:
        // 10 / 5 / 10 = 0.2 events/system/hour.
        let events: Vec<f64> = (0..10).map(|i| 0.5 + i as f64 * 0.9).collect();
        let pts = rocof(&events, 5, 10.0, 1);
        assert!((pts[0].rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn homogeneous_process_has_flat_rocof() {
        use raidsim_dists::{Exponential, LifeDistribution};
        use rand::SeedableRng;
        let d = Exponential::from_mean(500.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let window = 50_000.0;
        let mut events = Vec::new();
        for _ in 0..500 {
            let mut t = d.sample(&mut rng);
            while t <= window {
                events.push(t);
                t += d.sample(&mut rng);
            }
        }
        let pts = rocof(&events, 500, window, 10);
        let slope = rocof_trend(&pts);
        // Expected rate 1/500 = 2e-3; slope indistinguishable from 0
        // relative to rate / window.
        assert!(slope.abs() < 2.0e-3 / window * 5.0, "slope = {slope}");
    }

    #[test]
    fn wearout_process_has_increasing_rocof() {
        use raidsim_dists::{LifeDistribution, Weibull3};
        use rand::SeedableRng;
        // Renewal process with beta = 3 lifetimes, observed over less
        // than one mean life: intensity rises through the window.
        let d = Weibull3::two_param(10_000.0, 3.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let window = 8_000.0;
        let mut events = Vec::new();
        for _ in 0..2_000 {
            let mut t = d.sample(&mut rng);
            while t <= window {
                events.push(t);
                t += d.sample(&mut rng);
            }
        }
        let pts = rocof(&events, 2_000, window, 8);
        assert!(rocof_trend(&pts) > 0.0);
        assert!(pts.last().unwrap().rate > 5.0 * pts[0].rate.max(1e-9));
    }

    #[test]
    #[should_panic(expected = "outside observation window")]
    fn event_beyond_window_panics() {
        rocof(&[150.0], 1, 100.0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one system")]
    fn zero_systems_panics() {
        rocof(&[1.0], 0, 100.0, 4);
    }

    #[test]
    #[should_panic(expected = "at least two ROCOF points")]
    fn trend_needs_two_points() {
        rocof_trend(&[RocofPoint {
            time: 1.0,
            rate: 0.1,
            events: 1,
        }]);
    }
}
