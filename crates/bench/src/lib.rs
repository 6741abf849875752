//! Shared helpers for the experiment binaries and benches.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §6 for the index); this library holds the
//! plumbing they share so every binary stays a readable script.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use raidsim::analysis::compare::FleetSummary;
use raidsim::analysis::mcf::McfEstimate;
use raidsim::analysis::series::Series;
use raidsim::checkpoint::{CheckpointError, DriverState, SimCheckpoint};
use raidsim::config::RaidGroupConfig;
use raidsim::run::{
    CheckpointPlan, EveryGroups, Progress, SimulationResult, Simulator, StreamObserver,
};
use raidsim::stats::StreamStats;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads to use for simulation batches.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Number of RAID groups per experiment, overridable via the
/// `RAIDSIM_GROUPS` environment variable so CI can run the binaries
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

/// Runs a configuration and returns its result, parallelized and
/// deterministically seeded.
pub fn run(cfg: RaidGroupConfig, n_groups: usize, seed: u64) -> SimulationResult {
    Simulator::new(cfg).run_parallel(n_groups, seed, threads())
}

/// Runs a configuration through the bounded-memory streaming path —
/// the fleet-scale variant of [`run`]: identical statistics (the core
/// test suite enforces bit-identity with the stored path at any thread
/// count), but only aggregates are retained, so group counts are
/// limited by patience rather than memory.
///
/// Set `RAIDSIM_PROGRESS=1` to get a live groups/sec + ETA line on
/// stderr while the run is in flight.
///
/// Set `RAIDSIM_CHECKPOINT=<path>` to make the run crash-safe: the
/// accumulator is snapshotted to `<path>` every
/// `RAIDSIM_CHECKPOINT_EVERY` groups (default 5,000), and a restarted
/// experiment resumes from the file automatically — producing the same
/// bit-identical statistics the uninterrupted run would have. A file
/// from a *different* experiment (other config, seed, or group count)
/// fails loudly rather than contaminating the statistics.
pub fn run_streaming(cfg: RaidGroupConfig, n_groups: usize, seed: u64) -> StreamStats {
    if let Some(path) = std::env::var_os("RAIDSIM_CHECKPOINT") {
        let every = std::env::var("RAIDSIM_CHECKPOINT_EVERY")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(5_000);
        return run_streaming_with_checkpoint(cfg, n_groups, seed, Path::new(&path), every);
    }
    let sim = Simulator::new(cfg);
    if std::env::var_os("RAIDSIM_PROGRESS").is_some() {
        sim.run_streaming_instrumented(n_groups, seed, threads(), &StderrProgress::new())
            .0
    } else {
        sim.run_streaming(n_groups, seed, threads())
    }
}

/// The checkpointed variant of [`run_streaming`] (the
/// `RAIDSIM_CHECKPOINT` code path, callable directly): snapshots to
/// `path` every `every` groups, resumes from `path` when it already
/// exists, and returns statistics bit-identical to the plain streamed
/// run.
///
/// # Panics
///
/// Panics when `path` exists but holds a corrupt checkpoint or one
/// belonging to a different `(config, seed, group-count)` — an
/// experiment must never silently merge foreign statistics.
pub fn run_streaming_with_checkpoint(
    cfg: RaidGroupConfig,
    n_groups: usize,
    seed: u64,
    path: &Path,
    every: u64,
) -> StreamStats {
    let sim = Simulator::new(cfg);
    let driver = DriverState::fixed(n_groups as u64, 1_000.min(n_groups.max(1)) as u64, seed);
    let resume = path
        .exists()
        .then(|| SimCheckpoint::load(path))
        .transpose()
        .expect("RAIDSIM_CHECKPOINT file exists but cannot be loaded");
    if let Some(ckpt) = &resume {
        eprintln!(
            "resuming from {}: {} of {n_groups} groups already done",
            path.display(),
            ckpt.groups_done()
        );
    }
    let observer = CheckpointObserver {
        progress: std::env::var_os("RAIDSIM_PROGRESS")
            .is_some()
            .then(StderrProgress::new),
    };
    let mut cadence = EveryGroups(every);
    let mut store = raidsim::store::FsStore;
    let mut backoff = raidsim::store::AttemptBudget(3);
    let plan = CheckpointPlan {
        path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (stats, _report) = sim
        .run_checkpointed(driver, threads(), &observer, &(), Some(plan), resume)
        .expect("RAIDSIM_CHECKPOINT file belongs to a different experiment run");
    stats
}

/// Observer for checkpointed experiment runs: progress is opt-in, but
/// a failed snapshot always warns — the experiment keeps running, it
/// just would not survive a crash until a later write succeeds.
#[derive(Debug, Default)]
struct CheckpointObserver {
    progress: Option<StderrProgress>,
}

impl StreamObserver for CheckpointObserver {
    fn on_progress(&self, p: Progress) {
        if let Some(inner) = &self.progress {
            inner.on_progress(p);
        }
    }

    fn on_checkpoint_failed(&self, error: &CheckpointError) {
        eprintln!("warning: {error}; experiment continues without crash-safety");
    }
}

/// Bridges a streamed run into the two-fleet significance test
/// ([`raidsim::analysis::compare::compare_fleet_summaries`]): the
/// accumulator's exact moments are precisely the sufficient statistics
/// the comparison needs.
pub fn fleet_summary(stats: &StreamStats) -> FleetSummary {
    FleetSummary {
        systems: stats.groups() as usize,
        mean: stats.mean_ddfs(),
        variance: stats.variance_ddfs(),
    }
}

/// Minimum interval between progress reprints.
const PROGRESS_REFRESH: Duration = Duration::from_millis(500);

/// Stderr progress line for long experiment runs: groups completed,
/// throughput, and ETA. Clocks live here because the simulation crates
/// are barred from reading wall time (`cargo xtask check`
/// determinism lint); the runner only reports counts.
#[derive(Debug)]
pub struct StderrProgress {
    started: Instant,
    last_print: Mutex<Instant>,
    /// Highest `groups_done` printed so far. Worker callbacks can
    /// arrive out of order (two workers pass a stride boundary, the
    /// later count reports first), and a stale print would make the
    /// line jump backwards.
    best: std::sync::atomic::AtomicU64,
}

impl StderrProgress {
    /// Starts the clock now.
    pub fn new() -> Self {
        let now = Instant::now();
        Self {
            started: now,
            last_print: Mutex::new(now - PROGRESS_REFRESH),
            best: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl Default for StderrProgress {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamObserver for StderrProgress {
    fn on_progress(&self, p: Progress) {
        let prev = self
            .best
            .fetch_max(p.groups_done, std::sync::atomic::Ordering::Relaxed);
        if p.groups_done < prev {
            return; // stale out-of-order callback
        }
        let now = Instant::now();
        {
            let mut last = self.last_print.lock().unwrap();
            if now.duration_since(*last) < PROGRESS_REFRESH && p.groups_done < p.groups_target {
                return;
            }
            *last = now;
        }
        let secs = (now - self.started).as_secs_f64().max(1e-9);
        let rate = p.groups_done as f64 / secs;
        let eta = if rate > 0.0 {
            (p.groups_target.saturating_sub(p.groups_done)) as f64 / rate
        } else {
            f64::INFINITY
        };
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r{}/{} groups  {rate:.0} groups/s  ETA {eta:.0}s\x1b[K",
            p.groups_done, p.groups_target
        );
        if p.groups_done >= p.groups_target {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    }
}

/// Converts a simulation result into a DDFs-per-1,000-groups series on
/// an even grid — one line of a paper figure.
pub fn ddf_series(
    label: impl Into<String>,
    result: &SimulationResult,
    grid_points: usize,
) -> Series {
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

/// Writes the figure as an SVG chart into `$RAIDSIM_SVG_DIR` (if set).
///
/// Returns the path written, or `None` when the variable is unset.
/// Errors are reported to stderr rather than failing the experiment.
pub fn maybe_write_svg(
    file_stem: &str,
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("RAIDSIM_SVG_DIR")?;
    let dir = std::path::PathBuf::from(dir);
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

/// A straight-line MTTDL series on the same grid.
pub fn mttdl_series(
    label: &str,
    mttdl_hours: f64,
    mission_hours: f64,
    grid_points: usize,
) -> Series {
    let pts = (0..=grid_points)
        .map(|i| {
            let t = mission_hours * i as f64 / grid_points as f64;
            (t, 1_000.0 * t / mttdl_hours)
        })
        .collect();
    Series::new(label, pts)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let r = run(cfg, 100, 1);
        let s = ddf_series("base", &r, 8);
        assert!((s.final_value() - r.ddfs_per_thousand_groups()).abs() < 1e-9);
    }

    #[test]
    fn streamed_run_matches_stored_run() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let stored = run(cfg.clone(), 120, 5);
        let streamed = run_streaming(cfg, 120, 5);
        assert_eq!(streamed, StreamStats::from_result(&stored));
        let summary = fleet_summary(&streamed);
        assert_eq!(summary.systems, 120);
        assert_eq!(summary.mean, streamed.mean_ddfs());
        assert_eq!(summary.variance, streamed.variance_ddfs());
    }

    #[test]
    fn checkpointed_streamed_run_matches_plain() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let plain = Simulator::new(cfg.clone()).run_streaming(90, 11, threads());
        let path = std::env::temp_dir().join("raidsim_bench_ckpt_test.ckpt");
        std::fs::remove_file(&path).ok();
        let ckpt = run_streaming_with_checkpoint(cfg.clone(), 90, 11, &path, 25);
        assert_eq!(ckpt, plain);
        // The file now holds the final state, so a rerun resumes from it
        // (zero new batches) and reports the same statistics.
        let resumed = run_streaming_with_checkpoint(cfg, 90, 11, &path, 25);
        assert_eq!(resumed, plain);
        std::fs::remove_file(&path).ok();
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
