//! Command implementations.

use crate::args::Args;
use crate::error::CliError;
use crate::progress::{CliBackoff, CliCadence, CliObserver};
use raidsim::checkpoint::{merge_shards, CheckpointError, DriverState, SimCheckpoint};
use raidsim::config::{params, RaidGroupConfig, Redundancy};
use raidsim::dists::fit::{bootstrap_ci, mle, rank_regression};
use raidsim::dists::Weibull3;
use raidsim::engine::BiasPolicy;
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::mttdl::{expected_ddfs, mttdl_from_mttf, HOURS_PER_YEAR};
use raidsim::run::{CheckpointPlan, FusedSweep, PrecisionReport, Simulator, StopCriterion};
use raidsim::store::{FaultPlan, FaultStore, FsStore, SnapshotStore};
use raidsim::sweep::{SweepCache, SweepScenario};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// What a command produced: the text to print, plus whether the run
/// was gracefully interrupted (which exits with
/// [`crate::error::EXIT_INTERRUPTED`] instead of 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Text for stdout.
    pub text: String,
    /// The run stopped on SIGINT/SIGTERM after flushing its state.
    pub interrupted: bool,
}

impl From<String> for CmdOutput {
    fn from(text: String) -> Self {
        Self {
            text,
            interrupted: false,
        }
    }
}

/// Top-level usage text.
pub fn usage() -> String {
    "usage:\n\
     raidsim-cli simulate [--drives 8] [--mission-years 10] [--scrub 168|off]\n\
     \x20                 [--raid6] [--groups 10000] [--seed 42] [--csv out.csv]\n\
     \x20                 [--ttop-eta 461386] [--ttop-beta 1.12]\n\
     \x20                 [--ttld-eta 9259|off] [--precision REL] [--progress]\n\
     \x20                 [--checkpoint run.ckpt] [--resume]\n\
     \x20                 [--checkpoint-every GROUPS] [--checkpoint-secs S]\n\
     \x20                 [--checkpoint-retries N] [--checkpoint-required]\n\
     \x20                 [--fault-spec OP:KIND,...]\n\
     \x20                 [--tilt-op THETA] [--tilt-latent THETA]\n\
     \x20                 [--force-fraction F --force-window HOURS]\n\
     \x20                 [--shard I/N]\n\
     raidsim-cli merge    [--out merged.ckpt] SHARD.ckpt...\n\
     raidsim-cli mttdl    [--data-drives 7] [--mttf 461386] [--mttr 12]\n\
     \x20                 [--groups 1000] [--years 10]\n\
     raidsim-cli sweep    [--scrub-hours 336,168,48,12] [--skip-no-scrub]\n\
     \x20                 [--drives 8] [--raid6] [--mission-years 10]\n\
     \x20                 [--groups 2000] [--seed 42] [--threads N]\n\
     \x20                 [--claim-batch 64] [--engine des|timeline]\n\
     \x20                 [--cache-dir DIR]\n\
     raidsim-cli fit <life-data.csv>     rows: time_hours,failed(0|1)\n\
     raidsim-cli closedform [--drives 8] [--scrub 168|off] [--raid6]\n\
     \x20                 [--mission-years 10] [--ttop-eta N] [--ttop-beta B]\n\
     raidsim-cli table1\n\
     raidsim-cli help\n\
     \n\
     checkpointing: --checkpoint snapshots the run every\n\
     --checkpoint-every groups or --checkpoint-secs seconds, whichever\n\
     comes first (checked after each batch of up to 1,000 groups), so\n\
     a killed process loses at most the groups since the last\n\
     snapshot; add --resume to continue from the file. Mid-run\n\
     snapshots overwrite one of two checksummed slots of the file in\n\
     place; a finished or interrupted run leaves one plain snapshot.\n\
     Resuming a finished run neither re-simulates nor rewrites: it\n\
     re-reports, and the file keeps its bytes and mtime.\n\
     SIGINT/SIGTERM finish the in-flight batch, flush the checkpoint,\n\
     and print partial results; a second SIGINT/SIGTERM exits\n\
     immediately (code 5), even from a stalled checkpoint write.\n\
     \n\
     hostile I/O: transient write failures (EINTR, short writes, fsync\n\
     hiccups) retry up to --checkpoint-retries times with bounded\n\
     backoff; persistent failures (ENOSPC, torn rename) degrade the\n\
     run — it continues with identical results, warns, and backs the\n\
     cadence off — unless --checkpoint-required asks to fail fast\n\
     (exit 4). --fault-spec injects a deterministic fault schedule\n\
     into the checkpoint store for testing: comma-separated OP:KIND\n\
     with KIND one of enospc, eintr, partial, fsync, torn, corrupt,\n\
     stall<MILLIS>; OP+ makes the fault sticky from that operation\n\
     on, e.g. 2:eintr,8+:enospc.\n\
     \n\
     sharding: --shard I/N (1-based) simulates only shard I's\n\
     deterministic slice of the group range and writes its statistics\n\
     as a snapshot to --checkpoint; `merge` gathers shard snapshots\n\
     into the checkpoint an unsharded run would have written,\n\
     byte-for-byte, refusing shards from mismatched runs. Per-group\n\
     RNG streams make the merged result bit-identical to one\n\
     unsharded run at any shard count.\n\
     \n\
     sweeps: `sweep` runs a scrub-frequency ladder (plus a no-scrub\n\
     scenario unless --skip-no-scrub) as one fused execution plan: a\n\
     single worker pool drains every scenario as one job. Every\n\
     scenario uses the same seed (common random numbers), so all of\n\
     them share each group's draws: the random words and their\n\
     logarithms and powers are computed once per group, not once per\n\
     scenario. Per-scenario results are bit-identical to running each\n\
     configuration alone. Identical\n\
     scenarios within the sweep are served from a fingerprint-keyed\n\
     result cache; --cache-dir persists the cache so a re-run (or a\n\
     sweep killed partway) warm-starts from the scenarios already\n\
     finished.\n\
     \n\
     rare events: --tilt-op/--tilt-latent exponentially tilt the\n\
     failure/defect draws; --force-fraction F (in (0, 0.5]) with\n\
     --force-window HOURS resamples surviving drives into the window\n\
     whenever one more failure would lose data. Both produce an\n\
     unbiased importance-sampled estimate; the summary then reports\n\
     the weighted mean and the effective sample size.\n\
     \n\
     exit codes: 0 success; 1 internal error; 2 usage error;\n\
     3 input file unreadable/malformed; 4 checkpoint corrupt or from a\n\
     different run; 5 interrupted gracefully (partial results printed,\n\
     checkpoint flushed when one was configured)"
        .to_string()
}

/// `simulate` — run the Monte Carlo model.
pub fn simulate(argv: &[String]) -> Result<CmdOutput, CliError> {
    let args = Args::parse(argv);
    let drives: usize = args.num("drives", 8)?;
    let mission_years: f64 = args.num("mission-years", 10.0)?;
    let groups: usize = args.num("groups", 10_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let ttop_eta: f64 = args.num("ttop-eta", params::TTOP_ETA)?;
    let ttop_beta: f64 = args.num("ttop-beta", params::TTOP_BETA)?;
    let raid6 = args.switch("raid6");
    let scrub = args.string("scrub")?;
    let ttld = args.string("ttld-eta")?;
    let precision: Option<f64> = args.opt_num("precision")?;
    let csv_out = args.string("csv")?;
    let progress = args.switch("progress");
    let checkpoint = args.string("checkpoint")?;
    let resume = args.switch("resume");
    let checkpoint_every: u64 = args.num("checkpoint-every", 1_000)?;
    let checkpoint_secs: f64 = args.num("checkpoint-secs", 30.0)?;
    let checkpoint_retries: u32 = args.num("checkpoint-retries", 3)?;
    let checkpoint_required = args.switch("checkpoint-required");
    let fault_spec = args.string("fault-spec")?;
    let tilt_op: f64 = args.num("tilt-op", 0.0)?;
    let tilt_latent: f64 = args.num("tilt-latent", 0.0)?;
    let force_fraction: f64 = args.num("force-fraction", 0.0)?;
    let force_window: f64 = args.num("force-window", 0.0)?;
    let shard_spec = args.string("shard")?;
    args.reject_unknown()?;

    let shard = shard_spec
        .as_deref()
        .map(parse_shard)
        .transpose()
        .map_err(CliError::Usage)?;
    if shard.is_some() {
        if checkpoint.is_none() {
            return Err(CliError::Usage(
                "--shard writes its slice as a snapshot; add --checkpoint <path>".into(),
            ));
        }
        if precision.is_some() {
            return Err(CliError::Usage(
                "--shard needs a fixed group count; a precision-controlled stop \
                 depends on every earlier group, which a shard does not have"
                    .into(),
            ));
        }
        if resume {
            return Err(CliError::Usage(
                "--shard reruns its whole slice; drop --resume".into(),
            ));
        }
        if csv_out.is_some() {
            return Err(CliError::Usage(
                "--shard works on the streamed path only; drop --csv".into(),
            ));
        }
    }

    if resume && checkpoint.is_none() {
        return Err(CliError::Usage(
            "--resume needs --checkpoint <path> to know where to resume from".into(),
        ));
    }
    if checkpoint.is_some() && csv_out.is_some() {
        return Err(CliError::Usage(
            "--checkpoint works on the streamed path only; drop --csv".into(),
        ));
    }
    if precision.is_some_and(|p| !(p > 0.0 && p.is_finite())) {
        return Err(CliError::Usage(
            "--precision must be a positive number".into(),
        ));
    }
    let checkpoint_interval = Duration::try_from_secs_f64(checkpoint_secs)
        .ok()
        .filter(|_| checkpoint_secs > 0.0)
        .ok_or_else(|| {
            CliError::Usage("--checkpoint-secs must be a positive number of seconds".into())
        })?;
    if checkpoint_retries == 0 {
        return Err(CliError::Usage(
            "--checkpoint-retries must be at least 1 (the first attempt counts)".into(),
        ));
    }
    if checkpoint.is_none() && (checkpoint_required || fault_spec.is_some()) {
        return Err(CliError::Usage(
            "--checkpoint-required and --fault-spec act on checkpoint I/O; \
             add --checkpoint <path>"
                .into(),
        ));
    }
    let fault_plan = fault_spec
        .as_deref()
        .map(FaultPlan::parse)
        .transpose()
        .map_err(|e| CliError::Usage(format!("--fault-spec: {e}")))?;

    // Importance-sampling flags: exactly one measure-change family,
    // validated here with usage errors (the core layer asserts).
    let tilting = tilt_op != 0.0 || tilt_latent != 0.0;
    let forcing = force_fraction != 0.0 || force_window != 0.0;
    if tilting && forcing {
        return Err(CliError::Usage(
            "--tilt-op/--tilt-latent and --force-fraction/--force-window are \
             different measure changes; pick one"
                .into(),
        ));
    }
    if forcing && !(force_fraction > 0.0 && force_fraction <= 0.5) {
        return Err(CliError::Usage(
            "--force-fraction must lie in (0, 0.5]".into(),
        ));
    }
    if forcing && !(force_window > 0.0 && force_window.is_finite()) {
        return Err(CliError::Usage(
            "--force-window must be a positive number of hours (both \
             --force-fraction and --force-window are required)"
                .into(),
        ));
    }
    if tilting && !(tilt_op.is_finite() && tilt_latent.is_finite()) {
        return Err(CliError::Usage("tilt parameters must be finite".into()));
    }
    let bias = if forcing {
        BiasPolicy::ForcedCritical {
            fraction: force_fraction,
            window_hours: force_window,
        }
    } else if tilting {
        BiasPolicy::HazardTilt {
            op_theta: tilt_op,
            latent_theta: tilt_latent,
        }
    } else {
        BiasPolicy::None
    };
    if !bias.is_unbiased() && csv_out.is_some() {
        return Err(CliError::Usage(
            "per-group CSV histories are unweighted; drop --csv or the \
             importance-sampling flags"
                .into(),
        ));
    }

    let mut cfg =
        RaidGroupConfig::paper_base_case().map_err(|e| CliError::Internal(e.to_string()))?;
    cfg.drives = drives;
    cfg.mission_hours = mission_years * HOURS_PER_YEAR;
    if raid6 {
        cfg.redundancy = Redundancy::DoubleParity;
    }
    cfg.dists.ttop = Arc::new(Weibull3::two_param(ttop_eta, ttop_beta).map_err(|e| e.to_string())?);
    match ttld.as_deref() {
        Some("off") => {
            cfg.dists.ttld = None;
            cfg.dists.ttscrub = None;
        }
        Some(v) => {
            let eta: f64 = v.parse().map_err(|_| format!("--ttld-eta: bad '{v}'"))?;
            cfg.dists.ttld = Some(Arc::new(
                Weibull3::two_param(eta, 1.0).map_err(|e| e.to_string())?,
            ));
        }
        None => {}
    }
    if cfg.dists.ttld.is_some() {
        let policy = match scrub.as_deref() {
            Some("off") => ScrubPolicy::Disabled,
            Some(v) => {
                let eta: f64 = v.parse().map_err(|_| format!("--scrub: bad '{v}'"))?;
                ScrubPolicy::with_characteristic_hours(eta)
            }
            None => ScrubPolicy::paper_base_case(),
        };
        cfg = cfg.with_scrub_policy(policy).map_err(|e| e.to_string())?;
    }
    cfg.validate().map_err(|e| e.to_string())?;

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let sim = Simulator::new(cfg).with_bias(bias);
    let observer = CliObserver::new(progress);
    // The snapshot store of both the shard and the checkpointed branch:
    // the production store, optionally decorated with the requested
    // deterministic fault schedule; injected stalls really sleep at
    // this layer (the core never does).
    let mut store: Box<dyn SnapshotStore> = match fault_plan {
        Some(plan) => Box::new(FaultStore::new(FsStore, plan).with_stall_hook(Box::new(
            |millis| std::thread::sleep(Duration::from_millis(millis)),
        ))),
        None => Box::new(FsStore),
    };
    // A checkpoint that cannot be written is exit 4, not the generic
    // input-error 3: the inputs were fine, the checkpoint was not.
    let checkpoint_error = |e: CheckpointError| match e {
        e @ CheckpointError::Io { .. } => CliError::Checkpoint(e.to_string()),
        other => other.into(),
    };

    // Shard scatter: simulate only this shard's deterministic slice and
    // persist it as a snapshot for a later `merge`. Early branch — the
    // checkpointed driver below is for whole runs.
    if let Some((index, count)) = shard {
        let (lo, hi) = raidsim::run::shard_range(groups as u64, index - 1, count);
        let (stats, quarantine) = sim.run_shard(lo, hi, seed, threads, &observer);
        if !quarantine.is_empty() {
            // Same rule as the checkpoint writer: a snapshot must cover
            // its range exactly, and quarantined groups are holes.
            let first = &quarantine[0];
            return Err(CliError::Internal(format!(
                "{} group(s) quarantined (first: group {}: {}); refusing to write \
                 a shard snapshot with missing groups",
                quarantine.len(),
                first.index,
                first.message
            )));
        }
        let Some(path) = &checkpoint else {
            return Err(CliError::Internal(
                "shard run lost its snapshot path".into(),
            ));
        };
        // The driver encodes the shard range without new format fields:
        // max_groups = hi, and lo is recoverable as hi − groups held.
        // The batch is derived from the TOTAL group count so every
        // shard of a run records the same value and the merged
        // checkpoint is byte-identical to the unsharded one.
        let batch = groups.clamp(100, 1_000) as u64;
        let driver = DriverState::fixed(hi, batch, seed);
        SimCheckpoint::save_parts_to(
            store.as_mut(),
            Path::new(path),
            sim.run_fingerprint(),
            &driver,
            &stats,
        )
        .map_err(checkpoint_error)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "shard {index}/{count}: simulated groups [{lo}, {hi}) of {groups}"
        );
        if !stats.is_empty() {
            let _ = writeln!(
                out,
                "  {} groups, {:.2} DDFs per 1,000 groups (shard-local)",
                stats.groups(),
                stats.ddfs_per_thousand_groups()
            );
        }
        let _ = writeln!(
            out,
            "snapshot written to {path}; combine with `raidsim-cli merge`"
        );
        return Ok(out.into());
    }
    let precision_note = |report: &PrecisionReport| {
        format!(
            "precision run: {} groups, 95% CI half-width {:.1}% of mean (stopped: {})\n",
            report.groups,
            100.0 * report.half_width / report.mean.max(1e-12),
            report.criterion,
        )
    };

    // The streamed path never materializes per-group histories, so a
    // CSV request pins us to the stored path; everything else streams
    // through the checkpointable, signal-aware driver.
    let mut out = String::new();
    let mut interrupted = false;
    let summary = if let Some(path) = &csv_out {
        let (result, note) = if let Some(precision) = precision {
            let (r, report) = sim.run_until_precision(
                precision,
                0.95,
                groups.clamp(100, 1_000),
                groups,
                seed,
                threads,
            );
            (r, precision_note(&report))
        } else {
            (sim.run_parallel(groups, seed, threads), String::new())
        };
        let _ = write!(out, "{note}");
        let file =
            std::fs::File::create(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        result
            .write_history_csv(std::io::BufWriter::new(file))
            .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        raidsim::stats::StreamStats::from_result(&result)
    } else {
        // Batch schedule: the precision batch is unchanged from the
        // pre-checkpoint CLI (so reports are identical), and fixed
        // runs use it as the interruption/checkpoint granularity.
        let batch = groups.clamp(100, 1_000) as u64;
        let driver = if let Some(precision) = precision {
            DriverState::precision(precision, 0.95, batch, groups as u64, seed)
        } else {
            DriverState::fixed(groups as u64, batch, seed)
        };
        let resume_ckpt = match (&checkpoint, resume) {
            (Some(path), true) => Some(SimCheckpoint::load(Path::new(path))?),
            _ => None,
        };
        if let Some(ckpt) = &resume_ckpt {
            let _ = writeln!(
                out,
                "resumed from checkpoint: {} groups already done",
                ckpt.groups_done()
            );
        }
        crate::signal::install();
        let mut cadence = CliCadence::new(checkpoint_every, checkpoint_interval);
        // Transient write failures retry with wall-clock pauses, bounded
        // per write so a flapping disk cannot stall the simulation.
        let mut backoff = CliBackoff::new(checkpoint_retries, Duration::from_secs(10));
        let plan = checkpoint.as_ref().map(|path| CheckpointPlan {
            path: Path::new(path),
            cadence: &mut cadence,
            store: store.as_mut(),
            backoff: &mut backoff,
            required: checkpoint_required,
        });
        let (stats, report) = sim
            .run_checkpointed(
                driver,
                threads,
                &observer,
                &crate::signal::INTERRUPTED,
                plan,
                resume_ckpt,
            )
            // A required checkpoint write failed past its retry budget.
            .map_err(checkpoint_error)?;
        interrupted = report.criterion == StopCriterion::Interrupted;
        if precision.is_some() {
            let _ = write!(out, "{}", precision_note(&report));
        }
        if interrupted {
            let where_to = match &checkpoint {
                Some(path) => format!("; checkpoint saved to {path} (rerun with --resume)"),
                None => "; no checkpoint configured, progress is lost".to_string(),
            };
            let _ = writeln!(
                out,
                "interrupted after {} of {} groups{where_to}",
                report.groups, driver.max_groups
            );
        }
        stats
    };

    if let Some(path) = csv_out {
        let _ = writeln!(out, "wrote per-group histories to {path}");
    }
    if summary.is_empty() {
        let _ = writeln!(out, "no groups completed; no statistics to report");
        return Ok(CmdOutput {
            text: out,
            interrupted,
        });
    }
    let (op_op, latent_op) = summary.kind_counts();
    if bias.is_unbiased() {
        let _ = writeln!(
            out,
            "DDFs per 1,000 groups over {mission_years} years: {:.2}",
            summary.ddfs_per_thousand_groups()
        );
    } else {
        // Importance-sampled run: the raw per-group mean estimates the
        // *biased* measure, so report the likelihood-ratio-weighted
        // mean plus how many plain samples the weights are worth.
        let _ = writeln!(
            out,
            "weighted DDFs per 1,000 groups over {mission_years} years: {:.3}",
            1_000.0 * summary.weighted_mean_ddfs()
        );
        let _ = writeln!(
            out,
            "  importance sampling: effective sample size {:.0} of {} groups",
            summary.effective_sample_size(),
            summary.groups()
        );
    }
    let _ = writeln!(
        out,
        "  double operational: {op_op}   latent+operational: {latent_op}"
    );
    let _ = writeln!(
        out,
        "  operational failures/group: {:.3}   latent defects/group: {:.2}",
        summary.total_op_failures() as f64 / summary.groups() as f64,
        summary.total_latent_defects() as f64 / summary.groups() as f64,
    );
    Ok(CmdOutput {
        text: out,
        interrupted,
    })
}

/// Parses `--shard I/N` (1-based index, `1 <= I <= N`).
fn parse_shard(s: &str) -> Result<(u64, u64), String> {
    let err = || format!("--shard: expected I/N with 1 <= I <= N, got '{s}'");
    let Some((i, n)) = s.split_once('/') else {
        return Err(err());
    };
    let index: u64 = i.trim().parse().map_err(|_| err())?;
    let count: u64 = n.trim().parse().map_err(|_| err())?;
    if index == 0 || count == 0 || index > count {
        return Err(err());
    }
    Ok((index, count))
}

/// The report label of a sweep rung: `scrub_96h` for an ordinary value
/// (raidbench parses that form), `scrub_1e-300h` when the plain decimal
/// would run past 16 characters.
fn scrub_label(hours: f64) -> String {
    let plain = format!("{hours}");
    if plain.len() > 16 {
        format!("scrub_{hours:e}h")
    } else {
        format!("scrub_{plain}h")
    }
}

/// `sweep` — a scrub-frequency ladder as one fused execution plan.
pub fn sweep(argv: &[String]) -> Result<CmdOutput, CliError> {
    let args = Args::parse(argv);
    let scrub_hours = args.string("scrub-hours")?;
    let skip_no_scrub = args.switch("skip-no-scrub");
    let drives: usize = args.num("drives", 8)?;
    let raid6 = args.switch("raid6");
    let mission_years: f64 = args.num("mission-years", 10.0)?;
    let groups: usize = args.num("groups", 2_000)?;
    let seed: u64 = args.num("seed", 42)?;
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let threads: usize = args.num("threads", default_threads)?;
    let claim_batch: u64 = args.num("claim-batch", raidsim::run::DEFAULT_CLAIM_BATCH)?;
    let engine = args.string("engine")?;
    let cache_dir = args.string("cache-dir")?;
    args.reject_unknown()?;

    if threads == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    if claim_batch == 0 {
        return Err(CliError::Usage("--claim-batch must be at least 1".into()));
    }
    let ladder: Vec<f64> = scrub_hours
        .as_deref()
        .unwrap_or("336,168,48,12")
        .split(',')
        .filter(|v| !v.trim().is_empty())
        .map(|v| {
            let h: f64 = v
                .trim()
                .parse()
                .map_err(|_| format!("--scrub-hours: cannot parse '{v}'"))?;
            if !(h > 0.0 && h.is_finite()) {
                return Err(format!("--scrub-hours: '{v}' must be a positive number"));
            }
            Ok(h)
        })
        .collect::<Result<_, String>>()?;
    if ladder.is_empty() && skip_no_scrub {
        return Err(CliError::Usage(
            "the sweep has no scenarios: empty --scrub-hours and --skip-no-scrub".into(),
        ));
    }

    let base = {
        let mut cfg =
            RaidGroupConfig::paper_base_case().map_err(|e| CliError::Internal(e.to_string()))?;
        cfg.drives = drives;
        cfg.mission_hours = mission_years * HOURS_PER_YEAR;
        if raid6 {
            cfg.redundancy = Redundancy::DoubleParity;
        }
        cfg
    };
    // Every scenario uses the same seed — common random numbers, so the
    // ladder's differences are attributable to the scrub policy alone.
    let mut scenarios = Vec::new();
    for &hours in &ladder {
        let cfg = base
            .clone()
            .with_scrub_policy(ScrubPolicy::with_characteristic_hours(hours))
            .map_err(|e| e.to_string())?;
        scenarios.push(SweepScenario::new(scrub_label(hours), cfg, seed));
    }
    if !skip_no_scrub {
        let cfg = base
            .with_scrub_policy(ScrubPolicy::Disabled)
            .map_err(|e| e.to_string())?;
        scenarios.push(SweepScenario::new("no_scrub", cfg, seed));
    }
    for sc in &scenarios {
        sc.cfg.validate().map_err(|e| e.to_string())?;
    }

    let mut fused = FusedSweep::new(scenarios).with_claim_batch(claim_batch);
    fused = match engine.as_deref() {
        None | Some("des") => fused,
        Some("timeline") => fused.with_engine(Arc::new(raidsim::engine::TimelineEngine)),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--engine: expected 'des' or 'timeline', got '{other}'"
            )))
        }
    };
    let mut cache = match &cache_dir {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir)
                .map_err(|e| CliError::Input(format!("--cache-dir {}: {e}", dir.display())))?;
            SweepCache::with_store(Box::new(FsStore), dir)
        }
        None => SweepCache::new(),
    };
    let report = fused.run_streaming_cached(groups, threads, &mut cache);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fused sweep: {} scenario(s), {groups} groups each, seed {seed}, {threads} thread(s)",
        report.results.len()
    );
    let width = report
        .results
        .iter()
        .map(|(label, _)| label.len())
        .max()
        .unwrap_or(0);
    for (label, stats) in &report.results {
        if stats.is_empty() {
            let _ = writeln!(out, "  {label:width$}  no groups completed");
        } else {
            let _ = writeln!(
                out,
                "  {label:width$}  DDFs per 1,000 groups: {:.2}",
                stats.ddfs_per_thousand_groups()
            );
        }
    }
    let _ = writeln!(
        out,
        "scheduler: {} simulated, {} cache hit(s) ({} from disk), \
         {} cross-scenario steal(s)",
        report.simulated, report.cache_hits, report.store_hits, report.sched.steals
    );
    if !report.quarantined.is_empty() {
        let (k, q) = &report.quarantined[0];
        let _ = writeln!(
            out,
            "warning: {} group(s) quarantined (first: scenario {}, group {}: {}); \
             affected scenarios were not cached",
            report.quarantined.len(),
            k,
            q.index,
            q.message
        );
    }
    if cache.persist_errors() > 0 {
        let _ = writeln!(
            out,
            "warning: {} cache write(s) failed; the sweep completed but a re-run \
             will re-simulate those scenarios",
            cache.persist_errors()
        );
    }
    Ok(out.into())
}

/// `merge` — gather shard snapshots into the checkpoint an unsharded
/// run would have written.
pub fn merge(argv: &[String]) -> Result<CmdOutput, CliError> {
    let args = Args::parse(argv);
    let out_path = args.string("out")?;
    let paths = args.positional();
    args.reject_unknown()?;
    if paths.is_empty() {
        return Err(CliError::Usage(
            "merge needs at least one shard snapshot path".into(),
        ));
    }
    let mut shards = Vec::with_capacity(paths.len());
    for path in paths {
        let ckpt = SimCheckpoint::load(Path::new(path))
            .map_err(|e| CliError::Checkpoint(format!("{path}: {e}")))?;
        shards.push(ckpt);
    }
    let merged = merge_shards(shards).map_err(|e| CliError::Checkpoint(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "merged {} shard(s) covering groups [0, {})",
        paths.len(),
        merged.driver.max_groups
    );
    let stats = &merged.stats;
    if stats.is_empty() {
        let _ = writeln!(out, "no groups in the merged range; nothing to report");
    } else {
        let mission_years = stats.mission_hours() / HOURS_PER_YEAR;
        let (op_op, latent_op) = stats.kind_counts();
        let _ = writeln!(
            out,
            "DDFs per 1,000 groups over {mission_years} years: {:.2}",
            stats.ddfs_per_thousand_groups()
        );
        let _ = writeln!(
            out,
            "  double operational: {op_op}   latent+operational: {latent_op}"
        );
        let _ = writeln!(
            out,
            "  operational failures/group: {:.3}   latent defects/group: {:.2}",
            stats.total_op_failures() as f64 / stats.groups() as f64,
            stats.total_latent_defects() as f64 / stats.groups() as f64,
        );
    }
    if let Some(path) = out_path {
        merged
            .save(Path::new(&path))
            .map_err(|e| CliError::Checkpoint(format!("{path}: {e}")))?;
        let _ = writeln!(
            out,
            "wrote merged checkpoint to {path} (resumable, byte-identical to an \
             unsharded run's)"
        );
    }
    Ok(out.into())
}

/// `mttdl` — the closed forms.
pub fn mttdl(argv: &[String]) -> Result<CmdOutput, CliError> {
    let args = Args::parse(argv);
    let n: usize = args.num("data-drives", 7)?;
    let mttf: f64 = args.num("mttf", 461_386.0)?;
    let mttr: f64 = args.num("mttr", 12.0)?;
    let groups: f64 = args.num("groups", 1_000.0)?;
    let years: f64 = args.num("years", 10.0)?;
    args.reject_unknown()?;
    let positive = |v: f64| v.is_finite() && v > 0.0;
    let valid = [mttf, mttr, years].into_iter().all(positive)
        && groups.is_finite()
        && groups >= 0.0
        && n > 0;
    if !valid {
        return Err(CliError::Usage(
            "mttf/mttr/years must be finite and positive, groups finite and \
             non-negative, data-drives >= 1"
                .into(),
        ));
    }
    // Extreme but finite inputs can still overflow a rate, the MTTDL or
    // the expectation; refuse them rather than panic or print `inf`.
    let m = [1.0 / mttf, 1.0 / mttr]
        .into_iter()
        .all(positive)
        .then(|| mttdl_from_mttf(n, mttf, mttr))
        .filter(|&m| positive(m))
        .ok_or_else(|| CliError::Usage("mttf/mttr out of range: MTTDL overflows".into()))?;
    let e = expected_ddfs(m, groups, years * HOURS_PER_YEAR);
    if !e.is_finite() {
        return Err(CliError::Usage(
            "groups/years out of range: expected DDFs overflow".into(),
        ));
    }
    Ok(format!(
        "MTTDL = {:.0} hours = {:.0} years\nexpected DDFs for {groups:.0} groups over {years} years: {e:.3}\n",
        m,
        m / HOURS_PER_YEAR
    )
    .into())
}

/// `fit` — Weibull fits of a life-data CSV.
pub fn fit(argv: &[String]) -> Result<CmdOutput, CliError> {
    let args = Args::parse(argv);
    let positional = args.positional();
    args.reject_unknown()?;
    let [path] = positional else {
        return Err(CliError::Usage("fit needs exactly one CSV path".into()));
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
    let data = crate::csv::parse_life_data(&text).map_err(CliError::Input)?;
    let failures = data.iter().filter(|o| o.failed).count();
    let suspensions = data.len() - failures;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} observations: {failures} failures, {suspensions} suspensions",
        data.len()
    );
    let m = mle(&data).map_err(|e| CliError::Input(e.to_string()))?;
    let _ = writeln!(
        out,
        "MLE:             eta = {:.1} h, beta = {:.4}",
        m.eta, m.beta
    );
    if let Ok(r) = rank_regression(&data) {
        let _ = writeln!(
            out,
            "rank regression: eta = {:.1} h, beta = {:.4}, R^2 = {:.4}",
            r.eta,
            r.beta,
            r.r_squared.unwrap_or(f64::NAN)
        );
    }
    if let Ok((_, beta_ci)) = bootstrap_ci(&data, mle, 200, 0.90, 1) {
        let _ = writeln!(
            out,
            "beta 90% CI:     [{:.4}, {:.4}]  constant-rate (HPP) tenable: {}",
            beta_ci.lower,
            beta_ci.upper,
            if beta_ci.contains(1.0) { "yes" } else { "NO" }
        );
    }
    Ok(out.into())
}

/// `closedform` — the designer's analytic estimate.
pub fn closedform(argv: &[String]) -> Result<CmdOutput, CliError> {
    use raidsim::closed_form::{expected_ddfs_per_group, ClosedFormInputs};
    let args = Args::parse(argv);
    let drives: usize = args.num("drives", 8)?;
    let mission_years: f64 = args.num("mission-years", 10.0)?;
    let ttop_eta: f64 = args.num("ttop-eta", params::TTOP_ETA)?;
    let ttop_beta: f64 = args.num("ttop-beta", params::TTOP_BETA)?;
    let raid6 = args.switch("raid6");
    let scrub = args.string("scrub")?;
    args.reject_unknown()?;

    let scrub_eta = match scrub.as_deref() {
        Some("off") => None,
        Some(v) => Some(v.parse().map_err(|_| format!("--scrub: bad '{v}'"))?),
        None => Some(168.0),
    };
    // The group `simulate` would run with these flags, validated the
    // same way, so bad values are usage errors here too instead of a
    // panic or a meaningless estimate.
    let mut cfg =
        RaidGroupConfig::paper_base_case().map_err(|e| CliError::Internal(e.to_string()))?;
    cfg.drives = drives;
    cfg.mission_hours = mission_years * HOURS_PER_YEAR;
    if raid6 {
        cfg.redundancy = Redundancy::DoubleParity;
    }
    let policy = match scrub_eta {
        Some(eta) => ScrubPolicy::with_characteristic_hours(eta),
        None => ScrubPolicy::Disabled,
    };
    cfg.with_scrub_policy(policy)
        .map_err(|e| e.to_string())?
        .validate()
        .map_err(|e| e.to_string())?;
    // Mean of Weibull(6, eta, 3).
    let mean_scrub = scrub_eta.map(|eta: f64| 6.0 + eta * 0.893);
    let inputs = ClosedFormInputs {
        drives,
        tolerated: if raid6 { 2 } else { 1 },
        mean_scrub,
        ..ClosedFormInputs::paper_base_case()
    };
    let ttop = Weibull3::two_param(ttop_eta, ttop_beta).map_err(|e| e.to_string())?;
    let per_group = expected_ddfs_per_group(&inputs, &ttop, mission_years * HOURS_PER_YEAR);
    if !per_group.is_finite() {
        return Err(CliError::Usage(
            "ttop-eta/ttop-beta out of range: the estimate overflows".into(),
        ));
    }
    Ok(format!(
        "closed-form estimate: {:.2} DDFs per 1,000 groups over {mission_years} years\n\
         (first-order approximation; accurate to ~15% against the Monte Carlo\n\
         for scrubbed configurations — see exp E20)\n",
        1_000.0 * per_group
    )
    .into())
}

/// `table1` — the read-error-rate grid.
pub fn table1(argv: &[String]) -> Result<CmdOutput, CliError> {
    let args = Args::parse(argv);
    args.reject_unknown()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "latent-defect rates, errors/hour/drive (paper Table 1):"
    );
    for cell in raidsim::hdd::rer::table1() {
        let _ = writeln!(
            out,
            "  RER {:<5} x read rate {:<5} = {:.3e}",
            cell.rer_label, cell.intensity_label, cell.errors_per_hour
        );
    }
    Ok(out.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn sim_text(s: &str) -> String {
        simulate(&argv(s)).unwrap().text
    }

    #[test]
    fn simulate_no_latent_defects() {
        let out = sim_text("--groups 50 --seed 1 --ttld-eta off --mission-years 1");
        assert!(out.contains("latent defects/group: 0.00"), "{out}");
    }

    #[test]
    fn simulate_raid6_flag() {
        let out = sim_text("--groups 30 --raid6 --mission-years 1");
        assert!(out.contains("DDFs per 1,000 groups"));
    }

    #[test]
    fn simulate_precision_mode() {
        let out = sim_text("--groups 2000 --precision 0.5 --mission-years 2");
        assert!(out.contains("precision run"), "{out}");
        assert!(out.contains("(stopped: "), "{out}");
    }

    #[test]
    fn simulate_accepts_progress_switch() {
        let out = sim_text("--groups 30 --mission-years 1 --progress");
        assert!(out.contains("DDFs per 1,000 groups"), "{out}");
    }

    #[test]
    fn simulate_checkpoint_writes_and_resumes_identically() {
        let dir = std::env::temp_dir().join("raidsim_cli_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cmd.ckpt");
        let base = "--groups 60 --seed 3 --mission-years 1";
        let plain = sim_text(base);
        let first = sim_text(&format!("{base} --checkpoint {}", path.display()));
        assert_eq!(plain, first, "checkpointing must not change the numbers");
        // The finished run left a resumable final checkpoint; resuming
        // re-reports the same summary without re-simulating.
        let resumed = simulate(&argv(&format!(
            "{base} --checkpoint {} --resume",
            path.display()
        )))
        .unwrap();
        assert!(!resumed.interrupted);
        assert!(
            resumed.text.contains("resumed from checkpoint: 60 groups"),
            "{}",
            resumed.text
        );
        assert!(resumed.text.ends_with(&plain), "{}", resumed.text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_resume_rejects_mismatched_run() {
        let dir = std::env::temp_dir().join("raidsim_cli_ckpt_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cmd.ckpt");
        let _ = sim_text(&format!(
            "--groups 40 --seed 3 --mission-years 1 --checkpoint {}",
            path.display()
        ));
        // Different seed: typed checkpoint error, exit code 4.
        let err = simulate(&argv(&format!(
            "--groups 40 --seed 4 --mission-years 1 --checkpoint {} --resume",
            path.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Checkpoint(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_resume_missing_file_is_input_error() {
        let err = simulate(&argv(
            "--groups 10 --mission-years 1 --checkpoint /nonexistent-raidsim/x.ckpt --resume",
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err:?}");
    }

    #[test]
    fn simulate_tilted_run_reports_weighted_summary() {
        let out = sim_text("--groups 200 --seed 9 --mission-years 2 --tilt-op 1.0");
        assert!(out.contains("weighted DDFs per 1,000 groups"), "{out}");
        assert!(out.contains("effective sample size"), "{out}");
    }

    #[test]
    fn simulate_forced_run_reports_weighted_summary() {
        let out = sim_text(
            "--groups 200 --seed 9 --mission-years 2 --raid6 \
             --force-fraction 0.02 --force-window 250",
        );
        assert!(out.contains("weighted DDFs per 1,000 groups"), "{out}");
        assert!(out.contains("effective sample size"), "{out}");
    }

    #[test]
    fn simulate_bias_flag_combos_are_usage_errors() {
        // Forcing needs both parameters.
        let err = simulate(&argv("--groups 10 --force-fraction 0.1")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // The fraction bound is enforced before the core layer panics.
        let err =
            simulate(&argv("--groups 10 --force-fraction 0.7 --force-window 100")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // One measure-change family at a time.
        let err = simulate(&argv(
            "--groups 10 --tilt-op 1.0 --force-fraction 0.1 --force-window 100",
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // Per-group CSV histories carry no weights.
        let err = simulate(&argv("--groups 10 --tilt-op 1.0 --csv out.csv")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn simulate_precision_must_be_finite_and_positive() {
        // Each of these used to run a silent fixed-count job (or, for
        // `inf`, stop after the first batch as if the target were met).
        for bad in ["nan", "0", "-1", "inf"] {
            let err = simulate(&argv(&format!("--groups 10 --precision {bad}"))).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains("--precision")),
                "--precision {bad}: {err:?}"
            );
        }
    }

    #[test]
    fn removed_float_rewrite_flag_is_unknown() {
        for run in [simulate, sweep] {
            let err = run(&argv("--groups 10 --fast-math")).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m == "unknown flag --fast-math"),
                "{err:?}"
            );
        }
    }

    #[test]
    fn simulate_checkpoint_flag_combos_are_usage_errors() {
        let err = simulate(&argv("--groups 10 --resume")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        let err = simulate(&argv("--groups 10 --checkpoint a.ckpt --csv b.csv")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        let err = simulate(&argv(
            "--groups 10 --checkpoint a.ckpt --checkpoint-secs -1",
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // Finite but beyond what a `Duration` holds.
        let err = simulate(&argv(
            "--groups 10 --checkpoint a.ckpt --checkpoint-secs 1e20",
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn simulate_fault_flag_combos_are_usage_errors() {
        // Fault injection and fail-fast act on checkpoint I/O.
        let err = simulate(&argv("--groups 10 --fault-spec 0:eintr")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        let err = simulate(&argv("--groups 10 --checkpoint-required")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // A malformed plan is rejected before any simulation work.
        let err = simulate(&argv(
            "--groups 10 --checkpoint a.ckpt --fault-spec 0:frobnicate",
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // Zero retries is a contradiction (the first attempt counts).
        let err = simulate(&argv(
            "--groups 10 --checkpoint a.ckpt --checkpoint-retries 0",
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn simulate_transient_faults_retry_to_identical_results() {
        let dir = std::env::temp_dir().join("raidsim_cli_fault_transient");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cmd.ckpt");
        std::fs::remove_file(&path).ok();
        let base = "--groups 60 --seed 3 --mission-years 1";
        let plain = sim_text(base);
        // Every early store operation hiccups once; the retry layer
        // absorbs them and the summary is bit-identical.
        let faulted = sim_text(&format!(
            "{base} --checkpoint {} --fault-spec 0:eintr,2:fsync,4:partial",
            path.display()
        ));
        assert_eq!(plain, faulted, "retried faults must not change results");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_sticky_persistent_fault_degrades_but_completes() {
        let dir = std::env::temp_dir().join("raidsim_cli_fault_sticky");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cmd.ckpt");
        std::fs::remove_file(&path).ok();
        let base = "--groups 60 --seed 3 --mission-years 1";
        let plain = sim_text(base);
        let degraded = sim_text(&format!(
            "{base} --checkpoint {} --fault-spec 0+:enospc",
            path.display()
        ));
        assert_eq!(
            plain, degraded,
            "a dead checkpoint disk must not change the simulation results"
        );
        assert!(!path.exists(), "every write failed; no snapshot remains");
    }

    #[test]
    fn simulate_checkpoint_required_fails_fast_with_checkpoint_error() {
        let dir = std::env::temp_dir().join("raidsim_cli_fault_required");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cmd.ckpt");
        std::fs::remove_file(&path).ok();
        let err = simulate(&argv(&format!(
            "--groups 60 --seed 3 --mission-years 1 --checkpoint {} \
             --fault-spec 0+:enospc --checkpoint-required",
            path.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Checkpoint(_)), "{err:?}");
    }

    #[test]
    fn simulate_corrupt_checkpoint_is_checkpoint_error() {
        let dir = std::env::temp_dir().join("raidsim_cli_ckpt_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cmd.ckpt");
        std::fs::write(&path, b"RAIDSIMC but torn").unwrap();
        let err = simulate(&argv(&format!(
            "--groups 10 --mission-years 1 --checkpoint {} --resume",
            path.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Checkpoint(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_and_stored_paths_print_identical_statistics() {
        let dir = std::env::temp_dir().join("raidsim_cli_stream");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        let stats_lines = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("wrote"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        // A fixed count, and a precision run that stops on the relative
        // criterion: the stored precision run `--csv` needs must report
        // what the streamed driver reports.
        for args in [
            "--groups 40 --seed 7 --mission-years 1",
            "--groups 4000 --seed 7 --precision 0.3",
        ] {
            let streamed = sim_text(args);
            let stored = sim_text(&format!("{args} --csv {}", path.display()));
            std::fs::remove_file(&path).ok();
            assert_eq!(stats_lines(&streamed), stats_lines(&stored), "{args}");
            if args.contains("--precision") {
                assert!(
                    streamed.contains("relative half-width target"),
                    "{streamed}"
                );
            }
        }
    }

    #[test]
    fn simulate_writes_csv() {
        let dir = std::env::temp_dir().join("raidsim_cli_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        let arg = format!("--groups 20 --mission-years 1 --csv {}", path.display());
        let out = sim_text(&arg);
        assert!(out.contains("wrote per-group histories"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 21);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_runs_the_default_ladder() {
        let out = sweep(&argv("--groups 40 --mission-years 1 --threads 2"))
            .unwrap()
            .text;
        // Four ladder rungs plus the no-scrub scenario.
        assert!(out.contains("5 scenario(s)"), "{out}");
        for label in ["scrub_336h", "scrub_12h", "no_scrub"] {
            assert!(out.contains(label), "{out}");
        }
        assert!(out.contains("5 simulated"), "{out}");
    }

    #[test]
    fn sweep_matches_simulate_per_scenario() {
        // A one-rung sweep's number is exactly `simulate`'s for the
        // same configuration — fusing is invisible in the statistics.
        let sweep_out = sweep(&argv(
            "--scrub-hours 168 --skip-no-scrub --groups 50 --seed 7 \
             --mission-years 2 --threads 2",
        ))
        .unwrap()
        .text;
        let sim_out = sim_text("--groups 50 --seed 7 --scrub 168 --mission-years 2");
        let ddfs = |s: &str| {
            s.lines()
                .find(|l| l.contains("DDFs per 1,000 groups"))
                .and_then(|l| l.rsplit(' ').next())
                .map(str::to_string)
                .expect("a DDF line")
        };
        assert_eq!(ddfs(&sweep_out), ddfs(&sim_out), "{sweep_out}\n{sim_out}");
    }

    #[test]
    fn sweep_cache_dir_warm_starts_a_second_run() {
        let dir = std::env::temp_dir().join("raidsim_cli_sweep_cache");
        std::fs::remove_dir_all(&dir).ok();
        let arg = format!(
            "--scrub-hours 100,30 --skip-no-scrub --groups 40 --seed 21 \
             --mission-years 1 --threads 2 --cache-dir {}",
            dir.display()
        );
        let cold = sweep(&argv(&arg)).unwrap().text;
        assert!(cold.contains("2 simulated"), "{cold}");
        let warm = sweep(&argv(&arg)).unwrap().text;
        assert!(warm.contains("0 simulated"), "{warm}");
        assert!(warm.contains("2 cache hit(s) (2 from disk)"), "{warm}");
        // Byte-identical report lines for the scenario results.
        let rows = |s: &str| {
            s.lines()
                .filter(|l| l.contains("DDFs"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(rows(&cold), rows(&warm));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_labels_stay_short() {
        for (hours, label) in [
            (96.0, "scrub_96h"),
            (0.5, "scrub_0.5h"),
            (1000.0, "scrub_1000h"),
            (33.25, "scrub_33.25h"),
            (1e-300, "scrub_1e-300h"),
            (1e20, "scrub_1e20h"),
        ] {
            assert_eq!(scrub_label(hours), label);
        }
        let out = sweep(&argv(
            "--scrub-hours 1e-300 --skip-no-scrub --groups 4 --mission-years 1 --threads 1",
        ))
        .unwrap()
        .text;
        assert!(out.contains("scrub_1e-300h"), "{out}");
    }

    #[test]
    fn sweep_rejects_bad_flags() {
        for bad in [
            "--scrub-hours 10,frog",
            "--scrub-hours -5",
            "--skip-no-scrub --scrub-hours ,",
            "--threads 0",
            "--claim-batch 0",
            "--engine frobnicate",
            "--typo 1",
        ] {
            let err = sweep(&argv(bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn closedform_tracks_base_case() {
        let out = closedform(&argv("")).unwrap().text;
        // The base-case closed form lands near 139 per 1,000 groups.
        let value: f64 = out.split_whitespace().find_map(|w| w.parse().ok()).unwrap();
        assert!((value - 139.0).abs() < 15.0, "{out}");
        // RAID 6 is an order of magnitude better.
        let out6 = closedform(&argv("--raid6")).unwrap().text;
        let value6: f64 = out6
            .split_whitespace()
            .find_map(|w| w.parse().ok())
            .unwrap();
        assert!(value6 < value / 10.0, "{out6}");
    }

    #[test]
    fn closedform_bad_inputs_are_usage_errors() {
        // Each of these used to panic (exit 101) or print a meaningless
        // estimate.
        for bad in [
            "--drives 1",
            "--drives 2 --raid6",
            "--mission-years 0",
            "--mission-years nan",
            "--mission-years 1e300",
            "--scrub -1000",
            "--scrub nan",
            "--scrub 0",
            "--ttop-eta 1e-300",
        ] {
            let err = closedform(&argv(bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn mttdl_bad_inputs_are_usage_errors() {
        // Each is a usage error (exit 2): never a panic in the closed
        // form, and never a NaN, `inf` or negative expectation.
        for bad in [
            "--mttf nan",
            "--mttf inf",
            "--mttf 1e-310",
            "--mttf 1e200",
            "--mttr nan",
            "--mttr inf",
            "--mttr 1e-310",
            "--years nan",
            "--years inf",
            "--years -5",
            "--years 0",
            "--groups nan",
            "--groups inf",
            "--groups -7",
            "--groups 1e308 --years 1e10",
        ] {
            let err = mttdl(&argv(bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}: {err:?}");
        }
        // Zero groups is a valid question with a zero answer.
        let out = mttdl(&argv("--groups 0")).unwrap().text;
        assert!(out.contains("over 10 years: 0.000"), "{out}");
    }

    #[test]
    fn simulate_rejects_missions_beyond_the_cap() {
        // Finite but huge: it used to pass validation and then run
        // without end.
        let err = simulate(&argv("--groups 10 --mission-years 1e300")).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("mission_hours")),
            "{err:?}"
        );
    }

    #[test]
    fn simulate_and_sweep_reject_groups_beyond_the_width_cap() {
        // Work per group is quadratic in the width: 100,000 drives used
        // to pass validation and then never finish a group.
        let err = simulate(&argv("--groups 10 --drives 100000")).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("drives")),
            "{err:?}"
        );
        let err = sweep(&argv("--groups 10 --drives 100000")).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("drives")),
            "{err:?}"
        );
    }

    #[test]
    fn mttdl_validates_inputs() {
        assert!(mttdl(&argv("--mttf 0")).is_err());
        assert!(mttdl(&argv("--data-drives 0")).is_err());
    }

    #[test]
    fn fit_runs_on_temp_csv() {
        use raidsim::dists::rng::stream;
        use raidsim::dists::LifeDistribution;
        let truth = Weibull3::two_param(1_000.0, 1.8).unwrap();
        let mut rng = stream(3, 0);
        let mut text = String::from("time,failed\n");
        for _ in 0..300 {
            let _ = writeln!(text, "{:.2},1", truth.sample(&mut rng));
        }
        let dir = std::env::temp_dir().join("raidsim_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("life.csv");
        std::fs::write(&path, text).unwrap();
        let out = fit(&[path.to_string_lossy().into_owned()]).unwrap().text;
        assert!(out.contains("MLE"), "{out}");
        assert!(out.contains("tenable: NO"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fit_requires_one_path() {
        assert!(fit(&[]).is_err());
        assert!(fit(&argv("a.csv b.csv")).is_err());
    }
}
