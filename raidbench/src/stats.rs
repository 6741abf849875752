//! Order statistics for repeated measurements.

use crate::json::Json;

/// The summary every timing is reported with: median, quartiles and
/// sample count, plus (from 20 samples up) the highest percentile that
/// still has at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`; `None` below 20 samples.
    pub high: Option<(u32, f64)>,
}

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_SAMPLES: usize = 10;

impl Summary {
    /// Summarizes `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let [q1, _, q3] = quartiles(&xs);
        Some(Summary {
            n: xs.len(),
            median: median_sorted(&xs),
            q1,
            q3,
            high: high_percentile(&xs),
        })
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("n", self.n)
            .with("median", self.median)
            .with("q1", self.q1)
            .with("q3", self.q3);
        if let Some((p, v)) = self.high {
            j.push("high_pct", u64::from(p));
            j.push("high", v);
        }
        j
    }
}

/// Resamples behind [`median_spread`].
const BOOTSTRAP: usize = 500;

/// How far the median of `samples` could move on a rerun: the
/// interquartile range of bootstrap medians, as a share of the median.
/// The samples come in consecutive blocks of `per_rep`, one block per
/// repetition, and whole blocks are resampled with replacement, so
/// host drift that moves a repetition's samples together counts in the
/// spread. Deterministic: the resampling uses a fixed xorshift stream.
/// 0 for fewer than 2 blocks.
pub fn median_spread(samples: &[f64], per_rep: usize) -> f64 {
    let blocks: Vec<&[f64]> = samples.chunks(per_rep.max(1)).collect();
    let n = blocks.len();
    if n < 2 {
        return 0.0;
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut resample = Vec::with_capacity(samples.len());
    let mut medians: Vec<f64> = (0..BOOTSTRAP)
        .map(|_| {
            resample.clear();
            for _ in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                resample.extend_from_slice(blocks[(state % n as u64) as usize]);
            }
            median(&resample)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    let [q1, _, q3] = quartiles(&medians);
    let median_of = median(samples);
    if median_of == 0.0 {
        0.0
    } else {
        (q3 - q1) / median_of.abs()
    }
}

/// Pearson correlation of `ln x` with `ln y` over paired positive
/// samples: how closely one moves in proportion to the other. `None`
/// below 3 pairs, for unequal lengths, or when either side is constant.
pub fn log_correlation(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 3 {
        return None;
    }
    let ln = |v: &[f64]| v.iter().map(|x| x.ln()).collect::<Vec<f64>>();
    let (lx, ly) = (ln(xs), ln(ys));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mx, my) = (mean(&lx), mean(&ly));
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in lx.iter().zip(&ly) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    let r = sxy / (sxx * syy).sqrt();
    r.is_finite().then_some(r)
}

/// Median of an ascending, non-empty slice.
pub fn median_sorted(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

/// Quartile cut points of an ascending, non-empty slice by the
/// "exclusive" rule — the default of Python's
/// `statistics.quantiles(values, n=4)` — so spreads computed here and
/// by any script using that function agree exactly.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let len = xs.len();
    if len == 1 {
        return [xs[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
    }
    out
}

/// The highest integer percentile (nearest-rank) with at least
/// [`TAIL_SAMPLES`] samples strictly beyond it, for 20 samples or more.
pub fn high_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    (50..=99u32).rev().find_map(|p| {
        let k = (p as usize * n).div_ceil(100) - 1;
        (n - 1 - k >= TAIL_SAMPLES).then(|| (p, xs[k]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        // Two samples extrapolate past the ends: [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), None, "below 20 samples");
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        // p50 is rank 10 (value 9): ten samples beyond; p51 leaves nine.
        assert_eq!(high_percentile(&xs), Some((50, 9.0)));
        let xs: Vec<f64> = (0..64).map(f64::from).collect();
        // p84 → rank ceil(53.76) = 54 (value 53) with ten beyond.
        assert_eq!(high_percentile(&xs), Some((84, 53.0)));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), Some((99, 989.0)));
        for n in 20..400 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            let (p, v) = high_percentile(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n} p={p}");
            if p < 99 {
                let k = ((p as usize + 1) * n as usize).div_ceil(100) - 1;
                assert!(
                    n as usize - 1 - k < TAIL_SAMPLES,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn log_correlation_tracks_proportional_samples() {
        let probe = [1.0e7, 1.2e7, 1.1e7, 1.5e7, 1.05e7];
        let scaled: Vec<f64> = probe.iter().map(|p| 3e-8 * p).collect();
        assert!((log_correlation(&scaled, &probe).unwrap() - 1.0).abs() < 1e-12);
        let inverse: Vec<f64> = probe.iter().map(|p| 1.0 / p).collect();
        assert!((log_correlation(&inverse, &probe).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(log_correlation(&[1.0; 5], &probe), None, "constant side");
        assert_eq!(log_correlation(&[1.0, 2.0], &[1.0, 2.0]), None, "too few");
    }

    #[test]
    fn median_spread_shrinks_with_more_samples() {
        assert_eq!(median_spread(&[5.0], 1), 0.0);
        assert_eq!(median_spread(&[2.0; 30], 1), 0.0);
        // Evenly spread over [1.0, 1.2).
        let few: Vec<f64> = (0..10).map(|i| 1.0 + 0.02 * f64::from(i)).collect();
        let many: Vec<f64> = (0..200).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let (s_few, s_many) = (median_spread(&few, 1), median_spread(&many, 1));
        assert!(s_few > s_many, "{s_few} vs {s_many}");
        assert!(s_few <= 0.2 / 1.1 + 1e-12, "bounded by the sample range");
        assert_eq!(median_spread(&few, 1), s_few, "deterministic");
    }

    #[test]
    fn median_spread_resamples_whole_repetitions() {
        // Ten repetitions of 20 samples; each repetition's samples
        // share its level, as under host drift.
        let xs: Vec<f64> = (0..200)
            .map(|i| 1.0 + 0.02 * f64::from(i / 20) + 1e-4 * f64::from(i % 20))
            .collect();
        let (per_sample, per_rep) = (median_spread(&xs, 1), median_spread(&xs, 20));
        assert!(per_rep > 2.0 * per_sample, "{per_rep} vs {per_sample}");
        assert_eq!(median_spread(&xs[..20], 20), 0.0, "one repetition");
    }
}
