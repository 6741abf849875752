//! Table and series formatting for the experiment reports.
//!
//! Every paper figure is a set of named series over a common time grid;
//! every table is labeled rows of numbers. These helpers render both as
//! aligned plain text so the output of `exp E6` (Figure 7) can be
//! compared side-by-side with the paper.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A named data series over a common grid (one figure line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label, e.g. `"168 hr Scrub"`.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }

    /// Final y value (the right edge of the figure).
    pub fn final_value(&self) -> f64 {
        self.points.last().map_or(f64::NAN, |p| p.1)
    }
}

/// Renders several series sharing one x grid as an aligned text table:
/// a header row of labels, then one row per grid point.
///
/// # Panics
///
/// Panics if the series do not share an identical x grid.
pub fn render_figure(title: &str, x_label: &str, series: &[Series]) -> String {
    assert!(!series.is_empty(), "figure needs at least one series");
    let grid: Vec<f64> = series[0].points.iter().map(|p| p.0).collect();
    for s in series {
        assert_eq!(
            s.points.len(),
            grid.len(),
            "series '{}' has a different grid length",
            s.label
        );
        for (p, &x) in s.points.iter().zip(&grid) {
            assert!(
                (p.0 - x).abs() <= 1e-9 * x.abs().max(1.0),
                "series '{}' has a different grid",
                s.label
            );
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{x_label:>12}");
    for s in series {
        let _ = write!(out, "  {:>16}", truncate(&s.label, 16));
    }
    out.push('\n');
    for (i, &x) in grid.iter().enumerate() {
        let _ = write!(out, "{x:>12.0}");
        for s in series {
            let _ = write!(out, "  {:>16.4}", s.points[i].1);
        }
        out.push('\n');
    }
    out
}

/// Renders a labeled table: a header and aligned rows.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn render_table(title: &str, header: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:>24}", "");
    for h in header {
        let _ = write!(out, "  {:>14}", truncate(h, 14));
    }
    out.push('\n');
    for (label, values) in rows {
        assert_eq!(values.len(), header.len(), "row '{label}' has wrong arity");
        let _ = write!(out, "{:>24}", truncate(label, 24));
        for v in values {
            if v.abs() >= 1e5 || (v.abs() < 1e-3 && *v != 0.0) {
                let _ = write!(out, "  {v:>14.3e}");
            } else {
                let _ = write!(out, "  {v:>14.3}");
            }
        }
        out.push('\n');
    }
    out
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_aligned_grid() {
        let a = Series::new("MTTDL", vec![(0.0, 0.0), (100.0, 1.0)]);
        let b = Series::new("model", vec![(0.0, 0.0), (100.0, 2.5)]);
        let text = render_figure("Figure 6", "hours", &[a, b]);
        assert!(text.contains("# Figure 6"));
        assert!(text.contains("MTTDL"));
        assert!(text.contains("2.5000"));
        assert_eq!(text.lines().count(), 4); // title + header + 2 rows
    }

    #[test]
    #[should_panic(expected = "different grid")]
    fn mismatched_grids_panic() {
        let a = Series::new("a", vec![(0.0, 0.0), (100.0, 1.0)]);
        let b = Series::new("b", vec![(0.0, 0.0), (90.0, 1.0)]);
        render_figure("x", "t", &[a, b]);
    }

    #[test]
    fn table_renders_rows() {
        let text = render_table(
            "Table 3",
            &["DDFs in 1st year", "Ratio"],
            &[
                ("MTTDL".into(), vec![0.028, 1.0]),
                ("No scrub".into(), vec![71.0, 2536.0]),
            ],
        );
        assert!(text.contains("Table 3"));
        assert!(text.contains("No scrub"));
        assert!(text.contains("2536"));
    }

    #[test]
    fn scientific_notation_for_extremes() {
        let text = render_table("Table 1", &["rate"], &[("low".into(), vec![1.08e-5])]);
        assert!(text.contains("e-5") || text.contains("e-05"), "{text}");
    }

    #[test]
    fn series_final_value() {
        let s = Series::new("x", vec![(0.0, 0.0), (1.0, 3.5)]);
        assert_eq!(s.final_value(), 3.5);
        assert!(Series::new("e", vec![]).final_value().is_nan());
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn table_rejects_ragged_rows() {
        render_table("t", &["a", "b"], &[("r".into(), vec![1.0])]);
    }
}
