//! The four workloads: what each runs through the CLI, the library
//! configuration that reproduces it in-process, and why it is there.
//!
//! Every CLI step runs under `taskset -c 0`. On a shared 2-vCPU host a
//! step spread over both CPUs waits on whichever vCPU the hypervisor is
//! slower to give back: two-worker `simulate` runs, which meet at a
//! barrier before each of their 500 checkpoint writes, came out
//! bimodal, with a 29% spread over ten seeds against 3.6–5.4% pinned.

use raidsim_core::config::{params, RaidGroupConfig};
use raidsim_core::engine::TimelineEngine;
use raidsim_core::mttdl::HOURS_PER_YEAR;
use raidsim_core::run::{FusedSweep, Simulator};
use raidsim_core::sweep::SweepScenario;
use raidsim_dists::Weibull3;
use raidsim_hdd::scrub::ScrubPolicy;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table3Precision,
    OponlyCheckpointed,
    SweepTimelineLadder,
    ScatterMerge,
}

/// The sweep's scrub ladder in hours; the CLI adds a no-scrub rung.
pub const LADDER: &str = "720,504,336,240,168,120,96,72,48,36,24,12";

/// Shards of the scatter/merge workload.
pub const SHARDS: u64 = 4;

/// Driver batch of every `simulate` run here: the CLI derives it as
/// `groups.clamp(100, 1000)`, and every group count used is ≥ 1000.
pub const SIM_BATCH: u64 = 1_000;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table3Precision,
        Workload::OponlyCheckpointed,
        Workload::SweepTimelineLadder,
        Workload::ScatterMerge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3Precision => "table3_precision",
            Workload::OponlyCheckpointed => "oponly_checkpointed",
            Workload::SweepTimelineLadder => "sweep_timeline_ladder",
            Workload::ScatterMerge => "scatter_merge",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Table3Precision => {
                "paper base case to 2% precision: the DES event loop and its scalar draws do \
                 almost all the work"
            }
            Workload::OponlyCheckpointed => {
                "latent defects off, so groups are cheap and per-group overhead, batch merges \
                 and 500 checkpoint fsyncs dominate; the rerun reads the checkpoint"
            }
            Workload::SweepTimelineLadder => {
                "13-scenario timeline-engine sweep, 2 threads: fused pool, steals, session \
                 opens; the cold run writes the result cache and the rerun reads it"
            }
            Workload::ScatterMerge => {
                "no-scrub run as 4 shard processes plus merge: process launches, shard \
                 snapshots, merge_shards; the rerun resumes from the merged file"
            }
        }
    }

    /// Threads the CLI runs the main steps with: `simulate` takes one
    /// per CPU it may use, and the sweep is given two.
    pub fn cli_threads(self) -> usize {
        match self {
            Workload::SweepTimelineLadder => 2,
            _ => 1,
        }
    }
}

/// Run size: the full benchmark, or `--smoke` at 1/100 of the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// Relative CI half-width at which `table3_precision` stops. The
    /// group count needed grows as 1/precision², so a tenfold looser
    /// target is the 1/100 smoke scale.
    pub fn precision(self) -> f64 {
        if self.smoke {
            0.2
        } else {
            0.02
        }
    }

    /// The `--groups` argument of the workload's main step (the group
    /// cap for `table3_precision`, groups per scenario for the sweep).
    pub fn groups(self, w: Workload) -> u64 {
        let full = match w {
            Workload::Table3Precision => return 2_000_000,
            Workload::OponlyCheckpointed => 500_000,
            Workload::SweepTimelineLadder => 10_000,
            Workload::ScatterMerge => 250_000,
        };
        if self.smoke {
            full / 100
        } else {
            full
        }
    }

    /// Groups (per scenario for the sweep) the `child` measurement
    /// simulates: about 0.1 s of work at one thread.
    pub fn child_groups(self, w: Workload) -> u64 {
        let full = match w {
            Workload::Table3Precision => 10_000,
            Workload::OponlyCheckpointed => 200_000,
            Workload::SweepTimelineLadder => 1_000,
            Workload::ScatterMerge => 60_000,
        };
        if self.smoke {
            full / 100
        } else {
            full
        }
    }
}

/// The configuration `raidsim-cli simulate` builds from its flags,
/// reproduced field for field so fingerprints and results match:
/// `ttld_off` is `--ttld-eta off`, `scrub` is `--scrub` (`None` keeps
/// the paper's 168 h background scrub).
pub fn simulate_config(ttld_off: bool, scrub: Option<ScrubPolicy>) -> RaidGroupConfig {
    let mut cfg = RaidGroupConfig::paper_base_case().expect("the paper base case is valid");
    cfg.drives = 8;
    cfg.mission_hours = 10.0 * HOURS_PER_YEAR;
    cfg.dists.ttop = Arc::new(
        Weibull3::two_param(params::TTOP_ETA, params::TTOP_BETA).expect("paper TTOp is valid"),
    );
    if ttld_off {
        cfg.dists.ttld = None;
        cfg.dists.ttscrub = None;
    } else {
        cfg = cfg
            .with_scrub_policy(scrub.unwrap_or_else(ScrubPolicy::paper_base_case))
            .expect("scrub policy applies");
    }
    cfg
}

/// The simulator behind a `simulate` workload.
pub fn simulator(w: Workload) -> Simulator {
    let cfg = match w {
        Workload::Table3Precision => simulate_config(false, None),
        Workload::OponlyCheckpointed => simulate_config(true, None),
        Workload::ScatterMerge => simulate_config(false, Some(ScrubPolicy::Disabled)),
        Workload::SweepTimelineLadder => panic!("the sweep workload is a FusedSweep"),
    };
    Simulator::new(cfg)
}

/// The fused sweep `raidsim-cli sweep --engine timeline` builds.
pub fn fused_sweep(seed: u64) -> FusedSweep {
    let mut base = RaidGroupConfig::paper_base_case().expect("the paper base case is valid");
    base.drives = 8;
    base.mission_hours = 10.0 * HOURS_PER_YEAR;
    let mut scenarios = Vec::new();
    for hours in LADDER.split(',') {
        let h: f64 = hours.parse().expect("ladder rungs are numbers");
        let cfg = base
            .clone()
            .with_scrub_policy(ScrubPolicy::with_characteristic_hours(h))
            .expect("scrub policy applies");
        scenarios.push(SweepScenario::new(format!("scrub_{h}h"), cfg, seed));
    }
    let cfg = base
        .with_scrub_policy(ScrubPolicy::Disabled)
        .expect("scrub policy applies");
    scenarios.push(SweepScenario::new("no_scrub", cfg, seed));
    FusedSweep::new(scenarios).with_engine(Arc::new(TimelineEngine))
}

/// Where the CLI and `taskset` live, and where a workload's files go.
#[derive(Debug, Clone)]
pub struct Tools {
    pub cli: PathBuf,
    pub taskset: PathBuf,
}

/// The CLI command lines of one workload.
#[derive(Debug, Clone)]
pub struct Steps {
    /// Timed together as `wall_s`.
    pub main: Vec<Vec<String>>,
    /// Timed per invocation as `rerun_s`; runs after `main`.
    pub rerun: Vec<String>,
    /// Timed per invocation as `setup_s`.
    pub setup: Vec<String>,
    /// Emptied before every `main` (a cold result cache).
    pub clear_before_main: Option<PathBuf>,
    /// Emptied before every `setup` (so each one writes its cache).
    pub clear_before_setup: Option<PathBuf>,
}

/// Paths inside a workload's work directory.
pub fn table3_checkpoint(work: &Path) -> PathBuf {
    work.join("table3.ckpt")
}
pub fn oponly_checkpoint(work: &Path) -> PathBuf {
    work.join("oponly.ckpt")
}
pub fn sweep_cache(work: &Path) -> PathBuf {
    work.join("cache")
}
pub fn shard_checkpoint(work: &Path, i: u64) -> PathBuf {
    work.join(format!("shard-{i}.ckpt"))
}
pub fn merged_checkpoint(work: &Path) -> PathBuf {
    work.join("merged.ckpt")
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

fn p(path: &Path) -> String {
    path.display().to_string()
}

impl Tools {
    /// `taskset -c 0 raidsim-cli <args>`.
    pub fn argv(&self, args: &[String]) -> Vec<String> {
        let mut argv = vec![p(&self.taskset), s("-c"), s("0"), p(&self.cli)];
        argv.extend(args.iter().cloned());
        argv
    }

    pub fn steps(&self, w: Workload, scale: Scale, seed: u64, work: &Path) -> Steps {
        let g = s(scale.groups(w));
        let seed = s(seed);
        let cmd = |args: &[&str]| self.argv(&args.iter().map(s).collect::<Vec<_>>());
        match w {
            Workload::Table3Precision => {
                let prec = s(scale.precision());
                let base = [
                    "simulate",
                    "--precision",
                    &prec,
                    "--groups",
                    &g,
                    "--seed",
                    &seed,
                ];
                let ckpt = p(&table3_checkpoint(work));
                let mut rerun: Vec<&str> = base.to_vec();
                rerun.extend(["--checkpoint", &ckpt, "--resume"]);
                let mut setup: Vec<&str> = base.to_vec();
                setup[4] = "1";
                Steps {
                    main: vec![cmd(&base)],
                    rerun: cmd(&rerun),
                    setup: cmd(&setup),
                    clear_before_main: None,
                    clear_before_setup: None,
                }
            }
            Workload::OponlyCheckpointed => {
                let ckpt = p(&oponly_checkpoint(work));
                let setup_ckpt = p(&work.join("setup.ckpt"));
                let main = [
                    "simulate",
                    "--ttld-eta",
                    "off",
                    "--groups",
                    &g,
                    "--seed",
                    &seed,
                    "--checkpoint",
                    &ckpt,
                ];
                let mut rerun = main.to_vec();
                rerun.push("--resume");
                let setup = [
                    "simulate",
                    "--ttld-eta",
                    "off",
                    "--groups",
                    "1",
                    "--seed",
                    &seed,
                    "--checkpoint",
                    &setup_ckpt,
                ];
                Steps {
                    main: vec![cmd(&main)],
                    rerun: cmd(&rerun),
                    setup: cmd(&setup),
                    clear_before_main: None,
                    clear_before_setup: None,
                }
            }
            Workload::SweepTimelineLadder => {
                let cache = p(&sweep_cache(work));
                let setup_cache = work.join("setup-cache");
                let setup_cache_arg = p(&setup_cache);
                let args = |groups: &str, dir: &str| {
                    cmd(&[
                        "sweep",
                        "--engine",
                        "timeline",
                        "--threads",
                        "2",
                        "--groups",
                        groups,
                        "--seed",
                        &seed,
                        "--scrub-hours",
                        LADDER,
                        "--cache-dir",
                        dir,
                    ])
                };
                Steps {
                    main: vec![args(&g, &cache)],
                    rerun: args(&g, &cache),
                    setup: args("1", &setup_cache_arg),
                    clear_before_main: Some(sweep_cache(work)),
                    clear_before_setup: Some(setup_cache),
                }
            }
            Workload::ScatterMerge => {
                let mut main = Vec::new();
                let mut shard_paths = Vec::new();
                for i in 1..=SHARDS {
                    let path = p(&shard_checkpoint(work, i));
                    let shard = format!("{i}/{SHARDS}");
                    main.push(cmd(&[
                        "simulate",
                        "--scrub",
                        "off",
                        "--groups",
                        &g,
                        "--seed",
                        &seed,
                        "--checkpoint",
                        &path,
                        "--shard",
                        &shard,
                    ]));
                    shard_paths.push(path);
                }
                let merged = p(&merged_checkpoint(work));
                let mut merge = vec![s("merge"), s("--out"), merged.clone()];
                merge.extend(shard_paths);
                main.push(self.argv(&merge));
                let rerun = cmd(&[
                    "simulate",
                    "--scrub",
                    "off",
                    "--groups",
                    &g,
                    "--seed",
                    &seed,
                    "--checkpoint",
                    &merged,
                    "--resume",
                ]);
                // Shard N/N of one group is [0, 1): the one group.
                let setup_ckpt = p(&work.join("setup.ckpt"));
                let last = format!("{SHARDS}/{SHARDS}");
                let setup = cmd(&[
                    "simulate",
                    "--scrub",
                    "off",
                    "--groups",
                    "1",
                    "--seed",
                    &seed,
                    "--checkpoint",
                    &setup_ckpt,
                    "--shard",
                    &last,
                ]);
                Steps {
                    main,
                    rerun,
                    setup,
                    clear_before_main: None,
                    clear_before_setup: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_whys_fit_on_one_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn smoke_scale_is_one_hundredth() {
        let (full, smoke) = (Scale { smoke: false }, Scale { smoke: true });
        for w in [
            Workload::OponlyCheckpointed,
            Workload::SweepTimelineLadder,
            Workload::ScatterMerge,
        ] {
            assert_eq!(full.groups(w), 100 * smoke.groups(w));
            assert_eq!(full.child_groups(w), 100 * smoke.child_groups(w));
        }
        assert!(smoke.groups(Workload::OponlyCheckpointed) >= SIM_BATCH);
    }

    #[test]
    fn steps_go_through_taskset() {
        let tools = Tools {
            cli: PathBuf::from("cli"),
            taskset: PathBuf::from("taskset"),
        };
        let steps = tools.steps(
            Workload::ScatterMerge,
            Scale { smoke: false },
            7,
            Path::new("w"),
        );
        assert_eq!(steps.main.len(), SHARDS as usize + 1);
        assert_eq!(steps.main[0][..4], ["taskset", "-c", "0", "cli"]);
        assert_eq!(
            steps.main[SHARDS as usize][..5],
            ["taskset", "-c", "0", "cli", "merge"]
        );
        assert_eq!(steps.rerun[..4], ["taskset", "-c", "0", "cli"]);
        assert!(steps
            .setup
            .ends_with(&["--shard".to_string(), "4/4".to_string()]));
        let t3 = tools.steps(
            Workload::Table3Precision,
            Scale { smoke: false },
            7,
            Path::new("w"),
        );
        assert!(t3.setup.windows(2).any(|w| w == ["--groups", "1"]));
        assert_eq!(t3.main[0][..4], ["taskset", "-c", "0", "cli"]);
        assert!(t3.rerun.ends_with(&["--resume".to_string()]));
    }
}
