//! Shaping helpers for parameter-sweep results.
//!
//! A sweep driver (the `exp` experiment table, the CLI `sweep` command)
//! produces one aggregate per scenario of a ladder — scrub interval,
//! group size, spare-pool depth. This module turns those
//! `(label, value)` ladders into the tables and series the paper's
//! comparisons use: a ratio column against a reference estimate
//! (Table 3's "ratio vs MTTDL"), a knob-indexed [`Series`] for the
//! figures, and a monotonicity check for ladders whose ordering is
//! itself the claim (faster scrubbing must not make reliability
//! worse).

use crate::series::Series;

/// Rows for [`crate::series::render_table`]: each sweep value plus its
/// ratio against `baseline` (the classic closed-form estimate in the
/// paper's tables).
///
/// # Panics
///
/// Panics when `baseline` is zero, non-finite, or negative — a ratio
/// against such a reference is meaningless and a driver bug.
pub fn ratio_rows(results: &[(String, f64)], baseline: f64) -> Vec<(String, Vec<f64>)> {
    assert!(
        baseline.is_finite() && baseline > 0.0,
        "ratio baseline must be a positive finite value, got {baseline}"
    );
    results
        .iter()
        .map(|(label, value)| (label.clone(), vec![*value, *value / baseline]))
        .collect()
}

/// A sweep ladder as a plottable series: one point per scenario,
/// x = the swept knob's value, y = the scenario's aggregate.
///
/// # Panics
///
/// Panics when `knobs` and `values` disagree in length — the caller
/// zipped two different ladders.
pub fn ladder_series(name: impl Into<String>, knobs: &[f64], values: &[f64]) -> Series {
    assert_eq!(
        knobs.len(),
        values.len(),
        "every swept knob needs exactly one aggregate"
    );
    Series::new(
        name,
        knobs.iter().copied().zip(values.iter().copied()).collect(),
    )
}

/// Indices where a ladder that should be non-increasing rises instead:
/// `values[i] > values[i - 1] * (1 + tolerance)` reports `i`.
///
/// Monte Carlo ladders are noisy, so `tolerance` is a relative slack
/// (e.g. `0.05`); an empty result means the ordering claim holds.
pub fn monotone_violations(values: &[f64], tolerance: f64) -> Vec<usize> {
    values
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[1] > w[0] * (1.0 + tolerance))
        .map(|(i, _)| i + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_rows_divide_by_the_baseline() {
        let rows = ratio_rows(&[("a".to_string(), 10.0), ("b".to_string(), 2.5)], 2.0);
        assert_eq!(rows[0], ("a".to_string(), vec![10.0, 5.0]));
        assert_eq!(rows[1], ("b".to_string(), vec![2.5, 1.25]));
    }

    #[test]
    #[should_panic(expected = "ratio baseline")]
    fn ratio_rows_reject_a_zero_baseline() {
        let _ = ratio_rows(&[("a".to_string(), 1.0)], 0.0);
    }

    #[test]
    fn ladder_series_zips_knobs_with_values() {
        let s = ladder_series("scrub", &[336.0, 168.0], &[150.0, 90.0]);
        assert_eq!(s.points, vec![(336.0, 150.0), (168.0, 90.0)]);
    }

    #[test]
    #[should_panic(expected = "exactly one aggregate")]
    fn ladder_series_rejects_mismatched_lengths() {
        let _ = ladder_series("x", &[1.0], &[]);
    }

    #[test]
    fn monotone_violations_report_rises_beyond_tolerance() {
        // 10 → 9 → 9.3 (a 3.3% rise) → 5.
        let values = [10.0, 9.0, 9.3, 5.0];
        assert_eq!(monotone_violations(&values, 0.05), Vec::<usize>::new());
        assert_eq!(monotone_violations(&values, 0.01), vec![2]);
    }
}
