//! Running CLI steps as child processes, and reading what they print.

use raidsim_core::stats::StreamStats;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One finished child process.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub argv: Vec<String>,
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
}

impl Outcome {
    /// Why this invocation counts as a failed operation, if it does:
    /// a non-zero exit, or a `warning:` (degraded checkpointing, a
    /// failed cache write, a quarantined group) on either stream.
    pub fn failure(&self) -> Option<String> {
        if self.code != Some(0) {
            return Some(format!(
                "`{}` exited with {:?}: {}",
                self.argv.join(" "),
                self.code,
                self.stderr.trim()
            ));
        }
        for text in [&self.stdout, &self.stderr] {
            if let Some(line) = text.lines().find(|l| l.contains("warning:")) {
                return Some(format!("`{}` warned: {line}", self.argv.join(" ")));
            }
        }
        None
    }
}

/// Operations attempted and failed across a benchmark run. Every CLI
/// invocation and every correctness check is one operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
}

/// Failures kept verbatim; later ones are only counted.
const MAX_PROBLEMS: usize = 20;

impl Tally {
    /// Counts one check; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Runs one CLI step as one operation. Returns the outcome even
    /// when it failed (callers compare outputs regardless); `None` only
    /// when the process could not be started.
    pub fn step(&mut self, argv: &[String]) -> Option<Outcome> {
        self.attempted += 1;
        match run(argv) {
            Ok(out) => {
                if let Some(problem) = out.failure() {
                    self.fail(problem);
                }
                Some(out)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Spawns `argv`, waits for it, and times it from spawn to exit.
pub fn run(argv: &[String]) -> Result<Outcome, String> {
    let (program, args) = argv.split_first().ok_or("empty command line")?;
    let start = Instant::now();
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run `{}`: {e}", argv.join(" ")))?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Outcome {
        argv: argv.to_vec(),
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        wall_s,
    })
}

/// The summary block `simulate` and `merge` print, with every number
/// kept as printed so it can be compared with the library's values
/// formatted the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    pub ddfs_per_1000: String,
    pub double_operational: u64,
    pub latent_operational: u64,
    pub op_failures_per_group: String,
    pub latent_defects_per_group: String,
}

impl RunSummary {
    /// What the CLI prints for `stats`.
    pub fn of(stats: &StreamStats) -> RunSummary {
        let g = stats.groups() as f64;
        let (double_operational, latent_operational) = stats.kind_counts();
        RunSummary {
            ddfs_per_1000: format!("{:.2}", stats.ddfs_per_thousand_groups()),
            double_operational,
            latent_operational,
            op_failures_per_group: format!("{:.3}", stats.total_op_failures() as f64 / g),
            latent_defects_per_group: format!("{:.2}", stats.total_latent_defects() as f64 / g),
        }
    }

    /// Parses the summary block out of `simulate`/`merge` output.
    pub fn parse(text: &str) -> Option<RunSummary> {
        let ddfs = text
            .lines()
            .find(|l| l.starts_with("DDFs per 1,000 groups over"))?
            .rsplit(": ")
            .next()?
            .trim()
            .to_string();
        let kinds = text.lines().find(|l| l.contains("double operational:"))?;
        let rates = text
            .lines()
            .find(|l| l.contains("operational failures/group:"))?;
        Some(RunSummary {
            ddfs_per_1000: ddfs,
            double_operational: field(kinds, "double operational:")?.parse().ok()?,
            latent_operational: field(kinds, "latent+operational:")?.parse().ok()?,
            op_failures_per_group: field(rates, "operational failures/group:")?.to_string(),
            latent_defects_per_group: field(rates, "latent defects/group:")?.to_string(),
        })
    }
}

/// The first whitespace-delimited token after `label` on `line`.
fn field<'a>(line: &'a str, label: &str) -> Option<&'a str> {
    let at = line.find(label)? + label.len();
    line[at..].split_whitespace().next()
}

/// `precision run: N groups, ...` → N.
pub fn precision_groups(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("precision run:"))?;
    field(line, "precision run:")?.parse().ok()
}

/// Output with its one timing-dependent field dropped: the sweep's
/// cross-scenario steal count, which depends on thread interleaving.
/// Everything else the CLI prints is deterministic per seed.
pub fn canonical(text: &str) -> String {
    text.lines()
        .map(|line| match line.strip_prefix("scheduler:") {
            Some(_) => line.rsplit_once(", ").map_or(line, |(head, _)| head),
            None => line,
        })
        .fold(String::new(), |mut out, line| {
            out.push_str(line);
            out.push('\n');
            out
        })
}

/// What `sweep` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// `(label, DDFs per 1,000 groups as printed)` in scenario order.
    pub rows: Vec<(String, String)>,
    pub simulated: u64,
    pub cache_hits: u64,
    pub store_hits: u64,
    pub steals: u64,
}

impl SweepSummary {
    pub fn parse(text: &str) -> Option<SweepSummary> {
        let mut rows = Vec::new();
        for line in text
            .lines()
            .filter(|l| l.contains("DDFs per 1,000 groups:"))
        {
            let label = line.split_whitespace().next()?.to_string();
            rows.push((label, field(line, "DDFs per 1,000 groups:")?.to_string()));
        }
        let sched = text.lines().find(|l| l.starts_with("scheduler:"))?;
        let nums: Vec<u64> = sched
            .split(|c: char| !c.is_ascii_digit())
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        let [simulated, cache_hits, store_hits, steals] = nums[..] else {
            return None;
        };
        Some(SweepSummary {
            rows,
            simulated,
            cache_hits,
            store_hits,
            steals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from `raidsim-cli` at seed 42 with the workloads' flags.
    const PRECISION: &str = "\
precision run: 70000 groups, 95% CI half-width 2.0% of mean (stopped: relative half-width target)
DDFs per 1,000 groups over 10 years: 138.04
  double operational: 17   latent+operational: 9646
  operational failures/group: 1.243   latent defects/group: 74.47
";

    const RESUMED: &str = "\
resumed from checkpoint: 250000 groups already done
DDFs per 1,000 groups over 10 years: 1201.33
  double operational: 0   latent+operational: 300332
  operational failures/group: 1.235   latent defects/group: 15.09
";

    const MERGE: &str = "\
merged 4 shard(s) covering groups [0, 250000)
DDFs per 1,000 groups over 10 years: 1201.33
  double operational: 0   latent+operational: 300332
  operational failures/group: 1.235   latent defects/group: 15.09
wrote merged checkpoint to m.ckpt (resumable, byte-identical to an unsharded run's)
";

    const SWEEP_WARM: &str = "\
fused sweep: 13 scenario(s), 10000 groups each, seed 42, 2 thread(s)
  scrub_720h  DDFs per 1,000 groups: 458.20
  scrub_504h  DDFs per 1,000 groups: 348.90
  scrub_96h   DDFs per 1,000 groups: 84.00
  no_scrub    DDFs per 1,000 groups: 1217.10
scheduler: 0 simulated, 13 cache hit(s) (13 from disk), 0 cross-scenario steal(s)
";

    #[test]
    fn parses_precision_output() {
        assert_eq!(precision_groups(PRECISION), Some(70_000));
        let s = RunSummary::parse(PRECISION).unwrap();
        assert_eq!(
            s,
            RunSummary {
                ddfs_per_1000: "138.04".into(),
                double_operational: 17,
                latent_operational: 9646,
                op_failures_per_group: "1.243".into(),
                latent_defects_per_group: "74.47".into(),
            }
        );
    }

    #[test]
    fn parses_resume_and_merge_output() {
        assert_eq!(RunSummary::parse(RESUMED), RunSummary::parse(MERGE));
        assert_eq!(
            RunSummary::parse(MERGE).unwrap().latent_operational,
            300_332
        );
        assert_eq!(RunSummary::parse("no summary here"), None);
    }

    #[test]
    fn parses_sweep_output() {
        let s = SweepSummary::parse(SWEEP_WARM).unwrap();
        assert_eq!(s.rows.len(), 4);
        assert_eq!(s.rows[2], ("scrub_96h".to_string(), "84.00".to_string()));
        assert_eq!(s.rows[3].0, "no_scrub");
        assert_eq!(
            (s.simulated, s.cache_hits, s.store_hits, s.steals),
            (0, 13, 13, 0)
        );
        assert_eq!(SweepSummary::parse(PRECISION), None);
    }

    #[test]
    fn canonical_output_drops_only_the_steal_count() {
        let cold = SWEEP_WARM.replace(
            "0 simulated, 13 cache hit(s) (13 from disk), 0",
            "13 simulated, 0 cache hit(s) (0 from disk), 24",
        );
        let other = cold.replace(" 24 cross", " 7 cross");
        assert_ne!(cold, other);
        assert_eq!(canonical(&cold), canonical(&other));
        assert_ne!(canonical(&cold), canonical(SWEEP_WARM));
        assert_eq!(canonical(PRECISION), PRECISION);
    }

    #[test]
    fn failures_are_exit_codes_and_warnings() {
        let ok = Outcome {
            argv: vec!["x".into()],
            code: Some(0),
            stdout: PRECISION.into(),
            stderr: String::new(),
            wall_s: 0.1,
        };
        assert_eq!(ok.failure(), None);
        let warned = Outcome {
            stderr: "warning: checkpointing degraded at 1000 groups".into(),
            ..ok.clone()
        };
        assert!(warned.failure().is_some());
        let failed = Outcome {
            code: Some(4),
            ..ok
        };
        assert!(failed.failure().unwrap().contains("Some(4)"));
    }

    #[test]
    fn run_times_a_real_process() {
        let out = run(&["true".to_string()]).unwrap();
        assert_eq!(out.code, Some(0));
        assert!(out.wall_s > 0.0);
        assert!(run(&["/nonexistent/raidbench-probe".to_string()]).is_err());
    }
}
