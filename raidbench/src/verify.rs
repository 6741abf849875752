//! The correctness gate, run before any timing: every workload's CLI
//! output must equal what the library computes in-process for the same
//! driver and configuration, down to the checkpoint bytes.

use crate::baseline::Reference;
use crate::cli::{canonical, precision_groups, RunSummary, SweepSummary, Tally};
use crate::workload::{self, Scale, Steps, Tools, Workload, SIM_BATCH};
use raidsim_core::checkpoint::{DriverState, SimCheckpoint};
use raidsim_core::stats::StreamStats;
use std::path::Path;

/// A finished result in checkpoint form: what the CLI wrote (or would
/// write) for one run or one sweep scenario.
#[derive(Debug)]
pub struct Artifact {
    pub label: String,
    pub fingerprint: u64,
    pub driver: DriverState,
    pub stats: StreamStats,
}

impl Artifact {
    /// The checkpoint file image of this result.
    pub fn bytes(&self) -> Vec<u8> {
        SimCheckpoint::bytes_from_parts(self.fingerprint, &self.driver, &self.stats)
    }
}

/// What the gate established for one workload: the outputs every timed
/// repetition must reproduce, and the library's results.
#[derive(Debug)]
pub struct Verified {
    /// Canonical stdout of the main steps, concatenated.
    pub main_stdout: String,
    /// Canonical stdout of the rerun step.
    pub rerun_stdout: String,
    /// Groups the main steps simulate (every scenario for the sweep).
    pub groups: u64,
    pub artifacts: Vec<Artifact>,
}

/// Confidence level of the precision workload (the CLI's fixed 95%).
pub const CONFIDENCE: f64 = 0.95;

/// The precision workload's driver schedule, as the CLI builds it.
pub fn table3_driver(scale: Scale, seed: u64) -> DriverState {
    DriverState::precision(
        scale.precision(),
        CONFIDENCE,
        SIM_BATCH,
        scale.groups(Workload::Table3Precision),
        seed,
    )
}

fn read(path: &Path, tally: &mut Tally) -> Vec<u8> {
    match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            tally.check(false, || format!("reading {}: {e}", path.display()));
            Vec::new()
        }
    }
}

fn stdout_of(tally: &mut Tally, argv: &[String]) -> String {
    tally.step(argv).map(|o| o.stdout).unwrap_or_default()
}

/// Checks that the file the CLI wrote at `path` holds `lib` exactly.
fn same_bytes(tally: &mut Tally, what: &str, path: &Path, lib: &[u8]) {
    let cli = read(path, tally);
    tally.check(cli == lib, || {
        format!(
            "{what}: the CLI's checkpoint ({} bytes) differs from the library's ({} bytes)",
            cli.len(),
            lib.len()
        )
    });
}

fn same_summary(tally: &mut Tally, what: &str, stdout: &str, stats: &StreamStats) {
    let cli = RunSummary::parse(stdout);
    let lib = RunSummary::of(stats);
    tally.check(cli.as_ref() == Some(&lib), || {
        format!("{what}: CLI printed {cli:?}, library computed {lib:?}")
    });
}

fn resumed(groups: u64, stdout: &str) -> String {
    format!("resumed from checkpoint: {groups} groups already done\n{stdout}")
}

/// Runs the gate for `w` in `work` (which must exist and be empty).
pub fn verify(
    w: Workload,
    tools: &Tools,
    scale: Scale,
    seed: u64,
    work: &Path,
    reference: &Reference,
    tally: &mut Tally,
) -> Verified {
    let steps = tools.steps(w, scale, seed, work);
    match w {
        Workload::Table3Precision => table3(&steps, scale, seed, work, reference, tally),
        Workload::OponlyCheckpointed => oponly(&steps, scale, seed, work, tally),
        Workload::SweepTimelineLadder => sweep(&steps, scale, seed, work, tally),
        Workload::ScatterMerge => scatter(&steps, tools, scale, seed, work, tally),
    }
}

fn table3(
    steps: &Steps,
    scale: Scale,
    seed: u64,
    work: &Path,
    reference: &Reference,
    tally: &mut Tally,
) -> Verified {
    let w = Workload::Table3Precision;
    let main = stdout_of(tally, &steps.main[0]);
    let groups = precision_groups(&main);
    tally.check(groups.is_some(), || {
        format!("no precision line in {main:?}")
    });
    let groups = groups.unwrap_or(0);
    // The same run with a checkpoint prints the same numbers and leaves
    // the file the rerun step resumes from.
    let path = workload::table3_checkpoint(work);
    let mut argv = steps.main[0].clone();
    argv.extend(["--checkpoint".to_string(), path.display().to_string()]);
    let checkpointed = stdout_of(tally, &argv);
    tally.check(checkpointed == main, || {
        format!("--checkpoint changed the output: {checkpointed:?} vs {main:?}")
    });

    let sim = workload::simulator(w);
    let driver = table3_driver(scale, seed);
    // Two threads here, one in the pinned CLI: also checks that the
    // thread count changes nothing. The same holds below.
    let (stats, report) = sim
        .run_checkpointed(driver, 2, &(), &(), None, None)
        .expect("a run with no checkpoint plan and no resume cannot fail");
    tally.check(report.groups as u64 == groups, || {
        format!(
            "CLI stopped at {groups} groups, library at {}",
            report.groups
        )
    });
    let artifact = Artifact {
        label: w.name().into(),
        fingerprint: sim.run_fingerprint(),
        driver,
        stats,
    };
    same_bytes(tally, w.name(), &path, &artifact.bytes());
    same_summary(tally, w.name(), &main, &artifact.stats);
    let estimate = artifact.stats.ddfs_per_thousand_groups();
    let se = 1_000.0 * artifact.stats.half_width(1.0);
    tally.check(reference.agrees(estimate, se), || {
        format!(
            "DDFs/1000 = {estimate:.2} ± {se:.2} is more than 4 SE from the reference {:.2} ± {:.2}",
            reference.ddfs_per_1000, reference.se_per_1000
        )
    });

    let rerun = stdout_of(tally, &steps.rerun);
    let expected = resumed(groups, &main);
    tally.check(rerun == expected, || {
        format!("resume printed {rerun:?}, expected {expected:?}")
    });
    Verified {
        main_stdout: main,
        rerun_stdout: rerun,
        groups,
        artifacts: vec![artifact],
    }
}

fn oponly(steps: &Steps, scale: Scale, seed: u64, work: &Path, tally: &mut Tally) -> Verified {
    let w = Workload::OponlyCheckpointed;
    let groups = scale.groups(w);
    let main = stdout_of(tally, &steps.main[0]);
    let sim = workload::simulator(w);
    let artifact = Artifact {
        label: w.name().into(),
        fingerprint: sim.run_fingerprint(),
        driver: DriverState::fixed(groups, SIM_BATCH, seed),
        stats: sim.run_streaming(groups as usize, seed, 2),
    };
    same_bytes(
        tally,
        w.name(),
        &workload::oponly_checkpoint(work),
        &artifact.bytes(),
    );
    same_summary(tally, w.name(), &main, &artifact.stats);
    let rerun = stdout_of(tally, &steps.rerun);
    let expected = resumed(groups, &main);
    tally.check(rerun == expected, || {
        format!("resume printed {rerun:?}, expected {expected:?}")
    });
    Verified {
        main_stdout: main,
        rerun_stdout: rerun,
        groups,
        artifacts: vec![artifact],
    }
}

fn sweep(steps: &Steps, scale: Scale, seed: u64, work: &Path, tally: &mut Tally) -> Verified {
    let w = Workload::SweepTimelineLadder;
    let groups = scale.groups(w);
    let cold = stdout_of(tally, &steps.main[0]);
    let fused = workload::fused_sweep(seed);
    let scenarios = fused.scenarios().len() as u64;
    let parsed = SweepSummary::parse(&cold);
    tally.check(
        parsed
            .as_ref()
            .is_some_and(|s| s.simulated == scenarios && s.cache_hits == 0),
        || format!("cold sweep did not simulate every scenario: {cold:?}"),
    );
    // One thread here, two in the CLI.
    let report = fused.run_streaming(groups as usize, 1);
    let mut artifacts = Vec::new();
    let cache = workload::sweep_cache(work);
    for (k, (label, stats)) in report.results.into_iter().enumerate() {
        let fingerprint = fused.scenario_fingerprint(k);
        let row = (
            label.clone(),
            format!("{:.2}", stats.ddfs_per_thousand_groups()),
        );
        tally.check(
            parsed.as_ref().and_then(|s| s.rows.get(k)) == Some(&row),
            || {
                format!(
                    "sweep row {k}: CLI {:?}, library {row:?}",
                    parsed.as_ref().map(|s| &s.rows)
                )
            },
        );
        let artifact = Artifact {
            label,
            fingerprint,
            driver: DriverState::fixed(groups, groups.max(1), seed),
            stats,
        };
        let file = cache.join(format!("sweep-{fingerprint:016x}-g{groups}-s{seed}.ckpt"));
        same_bytes(tally, &artifact.label, &file, &artifact.bytes());
        artifacts.push(artifact);
    }
    let warm = stdout_of(tally, &steps.rerun);
    let warm_parsed = SweepSummary::parse(&warm);
    tally.check(
        match (&parsed, &warm_parsed) {
            (Some(c), Some(h)) => {
                h.rows == c.rows
                    && h.simulated == 0
                    && h.cache_hits == scenarios
                    && h.store_hits == scenarios
            }
            _ => false,
        },
        || format!("warm sweep did not replay the cold results from disk: {warm:?}"),
    );
    Verified {
        main_stdout: canonical(&cold),
        rerun_stdout: canonical(&warm),
        groups: groups * scenarios,
        artifacts,
    }
}

fn scatter(
    steps: &Steps,
    tools: &Tools,
    scale: Scale,
    seed: u64,
    work: &Path,
    tally: &mut Tally,
) -> Verified {
    let w = Workload::ScatterMerge;
    let groups = scale.groups(w);
    let mut main = String::new();
    for argv in &steps.main {
        main.push_str(&stdout_of(tally, argv));
    }
    let merged = read(&workload::merged_checkpoint(work), tally);
    // The merged checkpoint must be byte-equal to an unsharded run's.
    let unsharded_path = work.join("unsharded.ckpt");
    let g = groups.to_string();
    let seed_arg = seed.to_string();
    let unsharded_argv = tools.argv(
        &[
            "simulate",
            "--scrub",
            "off",
            "--groups",
            &g,
            "--seed",
            &seed_arg,
            "--checkpoint",
            &unsharded_path.display().to_string(),
        ]
        .map(String::from),
    );
    let unsharded = stdout_of(tally, &unsharded_argv);
    same_bytes(tally, "unsharded vs merged", &unsharded_path, &merged);

    let sim = workload::simulator(w);
    let artifact = Artifact {
        label: w.name().into(),
        fingerprint: sim.run_fingerprint(),
        driver: DriverState::fixed(groups, SIM_BATCH, seed),
        stats: sim.run_streaming(groups as usize, seed, 2),
    };
    same_bytes(
        tally,
        w.name(),
        &workload::merged_checkpoint(work),
        &artifact.bytes(),
    );
    same_summary(tally, "merge", &main, &artifact.stats);
    same_summary(tally, "unsharded", &unsharded, &artifact.stats);
    let rerun = stdout_of(tally, &steps.rerun);
    let expected = resumed(groups, &unsharded);
    tally.check(rerun == expected, || {
        format!("resume printed {rerun:?}, expected {expected:?}")
    });
    Verified {
        main_stdout: main,
        rerun_stdout: rerun,
        groups,
        artifacts: vec![artifact],
    }
}
