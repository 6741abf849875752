//! `raidbench compare A.json B.json`: one verdict per (metric,
//! workload) between two results files.
//!
//! For times, the verdict compares host-normalized medians: each sample
//! divided by the host-speed probe time recorded with it, which removes
//! the drift of a shared machine between the two runs. Memory, and
//! files without probe times, are compared raw.

use crate::bench::Results;
use crate::metrics::END_TO_END;
use crate::stats::{median, median_spread, Summary};
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// A median's spread is wider than the bound, so no call can be
    /// made.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for a lower-is-better metric with `bound` as a share of A's
/// median. `spread` is the wider of the two medians' spreads (see
/// [`median_spread`]).
pub fn verdict(a_median: f64, b_median: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let change = (b_median - a_median) / a_median;
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: Workload,
    pub metric: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub a: Summary,
    pub b: Summary,
    /// B's median over A's, minus 1, host-normalized when both runs
    /// recorded probe times.
    pub change: f64,
    pub normalized: bool,
    /// The wider of the two (compared) medians' bootstrap spreads, over
    /// whole repetitions.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Every (metric, workload) present in both files.
pub fn compare(a: &Results, b: &Results) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        for m in END_TO_END {
            if let (Some(ma), Some(mb)) = (a.metric(w, m.name), b.metric(w, m.name)) {
                let pair = m
                    .host_normalized
                    .then(|| ma.host_normalized().zip(mb.host_normalized()))
                    .flatten();
                let normalized = pair.is_some();
                let (xa, xb) = pair.unwrap_or_else(|| (ma.samples.clone(), mb.samples.clone()));
                let (a_median, b_median) = (median(&xa), median(&xb));
                let spread = median_spread(&xa, ma.per_rep).max(median_spread(&xb, mb.per_rep));
                rows.push(Row {
                    workload: w,
                    metric: m.name,
                    unit: m.unit,
                    bound: m.bound,
                    a: ma.summary(),
                    b: mb.summary(),
                    change: b_median / a_median - 1.0,
                    normalized,
                    spread,
                    verdict: verdict(a_median, b_median, spread, m.bound),
                });
            }
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<22} {:<18} {:>6} {:>30} {:>30} {:>8} {:>7}  verdict\n",
        "workload", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]", "change", "spread"
    );
    let cell = |s: &Summary| format!("{:.4e} [{:.3e}, {:.3e}]", s.median, s.q1, s.q3);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:<18} {:>5.0}% {:>30} {:>30} {:>+7.1}% {:>6.1}%  {}",
            r.workload.name(),
            format!("{} ({})", r.metric, r.unit),
            100.0 * r.bound,
            cell(&r.a),
            cell(&r.b),
            100.0 * r.change,
            100.0 * r.spread,
            r.verdict.as_str()
        );
    }
    if rows.iter().any(|r| !r.normalized) {
        out.push_str("(memory rows, and rows without host-speed probes, compare raw medians)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(verdict(1.0, 1.05, 0.02, 0.1), Verdict::Within);
        assert_eq!(verdict(1.0, 0.95, 0.02, 0.1), Verdict::Within);
        assert_eq!(verdict(1.0, 1.2, 0.02, 0.1), Verdict::Worse);
        assert_eq!(verdict(1.0, 0.8, 0.02, 0.1), Verdict::Better);
        // A median that could move by 30% on a rerun decides nothing.
        assert_eq!(verdict(1.0, 1.2, 0.3, 0.1), Verdict::Unresolved);
    }
}
