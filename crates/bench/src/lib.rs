//! The paper's experiments as one checked table.
//!
//! [`EXPERIMENTS`] holds one entry per table or figure the paper
//! reports, plus the ablations and extensions (DESIGN.md §6 is the
//! index). An entry runs at a group count and returns a [`Report`]: the
//! rendered table or figure plus the [`Claim`]s its numbers must
//! satisfy. The `exp` binary prints reports and claims and fails when a
//! claim does not hold; `tests/paper_experiments.rs` runs the same
//! entries at reduced group counts. One experiment that does not fit the
//! table stays a binary of its own ([`BINARIES`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collision;
mod extensions;
mod paper;

use raidsim::analysis::mcf::McfEstimate;
use raidsim::analysis::series::Series;
use raidsim::config::{params, RaidGroupConfig};
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::mttdl::mttdl_full;
use raidsim::run::{FusedSweep, SimulationResult};
use raidsim::stats::StreamStats;
use raidsim::sweep::SweepScenario;
use std::fmt::Write as _;

/// One experiment of the table.
#[derive(Debug)]
pub struct Experiment {
    /// Identifier, `E1`…`E20`, as in DESIGN.md §6 and EXPERIMENTS.md.
    pub id: &'static str,
    /// Groups (or drives, for E1; Monte Carlo trials per row, for E14)
    /// per scenario at full scale. E2–E4 simulate no groups and ignore
    /// the count.
    pub groups: usize,
    /// Runs the experiment at the given group count.
    pub run: fn(usize) -> Report,
}

/// What an experiment prints and what it checks.
#[derive(Debug, Default)]
pub struct Report {
    /// The rendered tables, figures and commentary, newline-terminated.
    pub text: String,
    /// The checks the numbers must pass, in report order.
    pub claims: Vec<Claim>,
}

/// One checked statement about an experiment's numbers.
#[derive(Debug)]
pub struct Claim {
    /// The statement, e.g. `no-scrub first-year ratio vs MTTDL > 1,000`.
    pub what: String,
    /// Whether the measured numbers satisfy it.
    pub holds: bool,
    /// The numbers the verdict rests on.
    pub measured: String,
}

impl Report {
    /// Appends `text` and a newline.
    pub(crate) fn line(&mut self, text: impl std::fmt::Display) {
        writeln!(self.text, "{text}").expect("writing to a String cannot fail");
    }

    /// Records a claim.
    pub(crate) fn claim(
        &mut self,
        what: impl Into<String>,
        holds: bool,
        measured: impl Into<String>,
    ) {
        self.claims.push(Claim {
            what: what.into(),
            holds,
            measured: measured.into(),
        });
    }
}

/// Every experiment of the table, in id order.
pub static EXPERIMENTS: &[Experiment] = &[
    entry("E1", 20_000, paper::fig1),
    entry("E2", 0, paper::fig2),
    entry("E3", 0, paper::table1),
    entry("E4", 0, paper::eq3),
    entry("E5", 120_000, paper::fig6),
    entry("E6", 10_000, paper::fig7),
    entry("E7", 10_000, paper::fig8),
    entry("E8", 10_000, paper::fig9),
    entry("E9", 200_000, paper::fig10),
    entry("E10", 20_000, paper::table3),
    entry("E11", 30_000, paper::headline),
    entry("E12", 10_000, extensions::raid6),
    entry("E13", 10_000, extensions::scrub_semantics),
    entry("E14", 500_000, extensions::stripe_collision),
    entry("E15", 10_000, extensions::spares),
    entry("E16", 20_000, extensions::restore_sensitivity),
    entry("E17", 10_000, extensions::groupsize),
    entry("E18", 30_000, extensions::vintage_mix),
    entry("E20", 10_000, extensions::closed_form),
];

const fn entry(id: &'static str, groups: usize, run: fn(usize) -> Report) -> Experiment {
    Experiment { id, groups, run }
}

/// The experiments that stay binaries, as `(id, binary)`: a timing
/// diagram, not a set of simulated scenarios.
pub const BINARIES: &[(&str, &str)] = &[("E19", "exp_fig5_trace")];

/// The table entry with this id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Number of RAID groups per experiment, overridable via the
/// `RAIDSIM_GROUPS` environment variable so CI can run the experiments
/// quickly while full runs use the default.
///
/// A set value that is not a positive integer prints
/// `error: RAIDSIM_GROUPS: …` and exits with status 2, the CLI's
/// bad-argument code, rather than panicking later or silently running
/// the default.
pub fn groups(default: usize) -> usize {
    let raw = std::env::var_os("RAIDSIM_GROUPS").map(|r| r.to_string_lossy().into_owned());
    parse_groups(raw.as_deref(), default).unwrap_or_else(|err| {
        eprintln!("error: RAIDSIM_GROUPS: {err}");
        std::process::exit(2)
    })
}

/// The group count `RAIDSIM_GROUPS` asks for: `default` when unset,
/// otherwise a positive integer.
fn parse_groups(raw: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    match raw.parse::<usize>() {
        Ok(0) => Err("must be a positive integer, got 0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("cannot parse '{raw}' as a positive integer")),
    }
}

/// Worker threads to use for simulation.
fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The paper's base case (Table 2).
fn base() -> RaidGroupConfig {
    RaidGroupConfig::paper_base_case().expect("the paper's base case is valid")
}

/// MTTDL of the base case's 7+1 group from the Table 2 characteristic
/// lives (equation 1), hours.
fn paper_mttdl() -> f64 {
    mttdl_full(7, 1.0 / params::TTOP_ETA, 1.0 / params::TTR_ETA)
}

/// Runs `scenarios` as one fused streaming sweep of `groups` groups
/// each and returns their labeled aggregates in input order.
///
/// # Panics
///
/// Panics if a group was quarantined: an experiment never reports
/// statistics that are missing groups.
fn streamed(scenarios: Vec<SweepScenario>, groups: usize) -> Vec<(String, StreamStats)> {
    let report = FusedSweep::new(scenarios).run_streaming(groups, threads());
    assert!(
        report.quarantined.is_empty(),
        "quarantined groups: {:?}",
        report.quarantined
    );
    report.results
}

/// Runs `scenarios` as one fused collect-mode sweep of `groups` groups
/// each and returns their labeled per-group histories in input order.
fn collected(scenarios: Vec<SweepScenario>, groups: usize) -> Vec<(String, SimulationResult)> {
    FusedSweep::new(scenarios).run_collect(groups, threads())
}

/// The base case with another scrub policy.
fn scrubbed(policy: ScrubPolicy) -> RaidGroupConfig {
    base()
        .with_scrub_policy(policy)
        .expect("the experiments' scrub policies are valid")
}

/// Converts a simulation result into a DDFs-per-1,000-groups series on
/// an even grid — one line of a paper figure.
fn ddf_series(label: impl Into<String>, result: &SimulationResult, grid_points: usize) -> Series {
    let per_system: Vec<Vec<f64>> = result
        .histories
        .iter()
        .map(|h| h.ddfs.iter().map(|e| e.time).collect())
        .collect();
    let mcf = McfEstimate::from_event_times(&per_system, result.mission_hours, 0.95);
    let pts = mcf
        .sampled(grid_points)
        .into_iter()
        .map(|(t, v)| (t, 1_000.0 * v))
        .collect();
    Series::new(label, pts)
}

/// A straight-line MTTDL series on the same grid.
fn mttdl_series(label: &str, mttdl_hours: f64, mission_hours: f64, grid_points: usize) -> Series {
    let pts = (0..=grid_points)
        .map(|i| {
            let t = mission_hours * i as f64 / grid_points as f64;
            (t, 1_000.0 * t / mttdl_hours)
        })
        .collect();
    Series::new(label, pts)
}

/// Writes the figure as an SVG chart into `$RAIDSIM_SVG_DIR` (if set).
///
/// Returns the path written, or `None` when the variable is unset.
/// Errors are reported to stderr rather than failing the experiment.
fn maybe_write_svg(
    file_stem: &str,
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
) -> Option<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(std::env::var_os("RAIDSIM_SVG_DIR")?);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create RAIDSIM_SVG_DIR: {e}");
        return None;
    }
    let path = dir.join(format!("{file_stem}.svg"));
    match raidsim::analysis::svg::write_chart(&path, title, x_label, y_label, series) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidsim::analysis::compare::FleetSummary;

    #[test]
    fn groups_env_override() {
        // Default passes through when the variable is absent.
        std::env::remove_var("RAIDSIM_GROUPS");
        assert_eq!(groups(123), 123);
    }

    #[test]
    fn parse_groups_takes_positive_integers_and_refuses_the_rest() {
        assert_eq!(parse_groups(None, 123), Ok(123));
        assert_eq!(parse_groups(Some("4000"), 123), Ok(4_000));
        for bad in ["0", "-1", "abc", ""] {
            let err = parse_groups(Some(bad), 123).unwrap_err();
            assert!(err.contains("positive integer"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn mttdl_series_is_linear() {
        let s = mttdl_series("MTTDL", 1.0e8, 87_600.0, 10);
        assert_eq!(s.points.len(), 11);
        assert_eq!(s.points[0].1, 0.0);
        let last = s.points.last().unwrap();
        assert!((last.1 - 1_000.0 * 87_600.0 / 1.0e8).abs() < 1e-9);
    }

    #[test]
    fn ddf_series_scales_final_value() {
        let r = &collected(vec![SweepScenario::new("base", base(), 1)], 100)[0].1;
        let s = ddf_series("base", r, 8);
        assert!((s.final_value() - r.ddfs_per_thousand_groups()).abs() < 1e-9);
    }

    #[test]
    fn streamed_run_matches_stored_run() {
        let scenarios = || {
            vec![
                SweepScenario::new("base", base(), 5),
                SweepScenario::new("no scrub", scrubbed(ScrubPolicy::Disabled), 6),
            ]
        };
        let stored = collected(scenarios(), 120);
        let streamed = streamed(scenarios(), 120);
        for ((label, stats), (_, result)) in streamed.iter().zip(&stored) {
            assert_eq!(*stats, StreamStats::from_result(result), "{label}");
        }
        let stats = &streamed[0].1;
        assert_eq!(
            extensions::fleet_summary(stats),
            FleetSummary {
                systems: 120,
                mean: stats.mean_ddfs(),
                variance: stats.variance_ddfs(),
            }
        );
    }

    #[test]
    fn svg_writer_respects_env_var() {
        let series = vec![Series::new("x", vec![(0.0, 0.0), (10.0, 2.0)])];
        // Unset: no file written, returns None.
        std::env::remove_var("RAIDSIM_SVG_DIR");
        assert!(maybe_write_svg("t1", "t", "x", "y", &series).is_none());
        // Set: file appears.
        let dir = std::env::temp_dir().join("raidsim_svg_env_test");
        std::env::set_var("RAIDSIM_SVG_DIR", &dir);
        let path = maybe_write_svg("t2", "t", "x", "y", &series).expect("written");
        assert!(path.exists());
        assert!(std::fs::read_to_string(&path).unwrap().contains("</svg>"));
        std::env::remove_var("RAIDSIM_SVG_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }
}
