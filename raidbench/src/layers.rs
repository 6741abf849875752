//! The traced run: per-layer metrics.
//!
//! Each repetition runs the workload's CLI main steps once, the library
//! entry points behind them untraced, and then a *replay*: the same
//! work driven step by step from here through the layers' public
//! functions — `rng::stream`, `EngineSession::simulate_group`,
//! `StreamStats::push`/`merge`, `SimCheckpoint::bytes_from_parts`,
//! `FsStore::write`, `SweepCache::lookup`/`insert`, `merge_shards`,
//! `SimCheckpoint::load` — with a span around each call. A replay's
//! numbers count only if it reproduces the CLI's results exactly
//! (byte-equal checkpoint images). After the repetitions, every
//! result is persisted and read back once more through each I/O layer
//! (the probe), and the unit costs in [`crate::micro`] are timed.

use crate::bench::{prepare, Budget};
use crate::cli::{canonical, Tally};
use crate::json::Json;
use crate::metrics::LAYERS;
use crate::micro::{session_open_us, Micro};
use crate::stats::median;
use crate::trace::{timer_overhead_ns, Fold, Tracer};
use crate::verify::{table3_driver, Artifact, Verified};
use crate::workload::{self, Scale, Steps, Workload, SHARDS, SIM_BATCH};
use raidsim_core::checkpoint::{merge_shards, CheckpointError, DriverState, SimCheckpoint};
use raidsim_core::config::RaidGroupConfig;
use raidsim_core::engine::{
    BiasPolicy, DesEngine, Engine, EngineCounters, SessionTuning, TimelineEngine,
};
use raidsim_core::events::{CheckpointDegraded, QuarantinedGroup};
use raidsim_core::run::{shard_range, CheckpointPlan, EveryGroups, StreamObserver};
use raidsim_core::stats::{SchedulerStats, StreamStats};
use raidsim_core::store::{AttemptBudget, FsStore, SnapshotStore};
use raidsim_core::sweep::SweepCache;
use raidsim_dists::rng::stream;
use raidsim_dists::KernelCache;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts what the checkpoint layer reports through the observer.
#[derive(Debug, Default)]
struct FailureCounter(AtomicU64);

impl StreamObserver for FailureCounter {
    fn on_checkpoint_failed(&self, _error: &CheckpointError) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn on_checkpoint_degraded(&self, _event: &CheckpointDegraded) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn on_group_quarantined(&self, _group: &QuarantinedGroup) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Draw-site counts the DES site model predicts from a run's totals
/// (see [`Sites::of`]).
#[derive(Debug, Clone, Copy, Default)]
struct Sites {
    ttop_block: f64,
    ttld_block: f64,
    ttop: f64,
    ttr: f64,
    ttld: f64,
    ttscrub: f64,
}

impl Sites {
    /// Every drive draws TTOp and (with latent defects) TTLd once at
    /// the start, block-drawn; each operational failure draws a TTR;
    /// each restore draws a fresh TTOp; each latent defect draws a
    /// TTScrub (when scrubbing) and, once cleared or lost with its
    /// drive, a fresh TTLd. Defects still open at mission end draw no
    /// TTLd, so the model slightly over-counts.
    fn of(cfg: &RaidGroupConfig, stats: &StreamStats) -> Sites {
        let initial = (cfg.drives as u64 * stats.groups()) as f64;
        let ld = cfg.dists.ttld.is_some();
        let defects = stats.total_latent_defects() as f64;
        Sites {
            ttop_block: initial,
            ttld_block: if ld { initial } else { 0.0 },
            ttop: stats.total_restores_completed() as f64,
            ttr: stats.total_op_failures() as f64,
            ttld: if ld { defects } else { 0.0 },
            ttscrub: if cfg.dists.ttscrub.is_some() {
                defects
            } else {
                0.0
            },
        }
    }

    fn add(&mut self, o: Sites) {
        self.ttop_block += o.ttop_block;
        self.ttld_block += o.ttld_block;
        self.ttop += o.ttop;
        self.ttr += o.ttr;
        self.ttld += o.ttld;
        self.ttscrub += o.ttscrub;
    }

    fn total(&self) -> f64 {
        self.ttop_block + self.ttld_block + self.ttop + self.ttr + self.ttld + self.ttscrub
    }

    /// Predicted kernel nanoseconds for these draws.
    fn kernel_ns(&self, m: &Micro) -> f64 {
        let k = &m.kernels;
        self.ttop_block * k.ttop.block_ns
            + self.ttld_block * k.ttld.block_ns
            + self.ttop * k.ttop.sample_ns
            + self.ttr * k.ttr.sample_ns
            + self.ttld * k.ttld.sample_ns
            + self.ttscrub * k.ttscrub.sample_ns
    }
}

/// What one traced replay did.
#[derive(Debug, Default)]
struct Replay {
    wall_s: f64,
    groups: u64,
    batches: u64,
    counters: EngineCounters,
    sites: Sites,
    writes: u64,
    write_errors: u64,
    cache_hits: u64,
    cache_store_hits: u64,
    cache_misses: u64,
    artifacts: Vec<Artifact>,
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// Streams groups `[lo, hi)` through `session` in `batch`-sized driver
/// batches, folding the per-group calls into each batch span.
/// `after_merge` runs inside the batch span once the batch is merged
/// (the checkpoint cadence hook).
#[allow(clippy::too_many_arguments)]
fn replay_range(
    t: &mut Tracer,
    session: &mut dyn raidsim_core::engine::EngineSession,
    seed: u64,
    lo: u64,
    hi: u64,
    batch: u64,
    mission_hours: f64,
    out: &mut Replay,
    after_merge: &mut dyn FnMut(&mut Tracer, &StreamStats, &mut Replay),
) -> StreamStats {
    let mut total = StreamStats::new(mission_hours);
    let mut start = lo;
    while start < hi {
        let end = (start + batch).min(hi);
        let span = t.enter("run.batch");
        let mut folds = [
            Fold::new("dists.rng.stream"),
            Fold::new("engine.simulate_group"),
            Fold::new("stats.push"),
        ];
        let mut stats = StreamStats::new(mission_hours);
        for i in start..end {
            let t0 = Instant::now();
            let mut rng = stream(seed, i);
            let t1 = Instant::now();
            let history = session.simulate_group(&mut rng);
            let t2 = Instant::now();
            stats.push(history);
            let t3 = Instant::now();
            folds[0].add(ns(t1 - t0));
            folds[1].add(ns(t2 - t1));
            folds[2].add(ns(t3 - t2));
        }
        t.attach(span, &folds);
        t.span("stats.merge", |_| total.merge(stats));
        after_merge(t, &total, out);
        t.exit(span);
        out.batches += 1;
        out.groups += end - start;
        start = end;
    }
    total
}

fn write_traced(
    t: &mut Tracer,
    path: &Path,
    fingerprint: u64,
    driver: &DriverState,
    stats: &StreamStats,
    out: &mut Replay,
) {
    let bytes = t.span("checkpoint.encode", |_| {
        SimCheckpoint::bytes_from_parts(fingerprint, driver, stats)
    });
    let ok = t
        .span("store.write", |_| FsStore.write(path, &bytes))
        .is_ok();
    out.writes += 1;
    out.write_errors += u64::from(!ok);
}

fn load_traced(t: &mut Tracer, path: &Path) -> Option<SimCheckpoint> {
    t.span("checkpoint.load", |_| SimCheckpoint::load(path))
        .ok()
}

fn open_session<'a>(
    t: &mut Tracer,
    engine: &'a dyn Engine,
    cfg: &'a RaidGroupConfig,
    kernels: Option<&mut KernelCache>,
) -> Box<dyn raidsim_core::engine::EngineSession + 'a> {
    t.span("engine.session_open", |_| match kernels {
        Some(k) => engine.session_tuned_cached(cfg, BiasPolicy::None, SessionTuning::default(), k),
        None => engine.session_tuned(cfg, BiasPolicy::None, SessionTuning::default()),
    })
}

/// The traced replay of `w`. `groups` is what the main steps simulate:
/// the groups-to-precision count for `table3_precision`, groups per
/// scenario for the sweep.
fn replay(
    t: &mut Tracer,
    w: Workload,
    scale: Scale,
    seed: u64,
    groups: u64,
    work: &Path,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let start = Instant::now();
    let replay_dir = work.join("replay");
    crate::env::fresh_dir(&replay_dir)?;
    match w {
        Workload::Table3Precision | Workload::OponlyCheckpointed => {
            let sim = workload::simulator(w);
            let cfg = sim.config();
            let engine = DesEngine::new();
            let mut session = open_session(t, &engine, cfg, None);
            let fingerprint = sim.run_fingerprint();
            let (driver, checkpointed) = if w == Workload::Table3Precision {
                (table3_driver(scale, seed), false)
            } else {
                (DriverState::fixed(groups, SIM_BATCH, seed), true)
            };
            let path = replay_dir.join("replay.ckpt");
            // The CLI's cadence: a snapshot at every 1,000 groups, which
            // with 1,000-group batches is every batch boundary.
            let mut cadence = |t: &mut Tracer, stats: &StreamStats, out: &mut Replay| {
                if checkpointed {
                    write_traced(t, &path, fingerprint, &driver, stats, out);
                }
            };
            let stats = replay_range(
                t,
                session.as_mut(),
                seed,
                0,
                groups,
                SIM_BATCH,
                cfg.mission_hours,
                &mut out,
                &mut cadence,
            );
            out.counters = session.counters();
            out.sites = Sites::of(cfg, &stats);
            out.artifacts.push(Artifact {
                label: w.name().into(),
                fingerprint,
                driver,
                stats,
            });
        }
        Workload::SweepTimelineLadder => {
            let fused = workload::fused_sweep(seed);
            let engine = TimelineEngine;
            let per = groups;
            let cache_dir = replay_dir.join("cache");
            crate::env::fresh_dir(&cache_dir)?;
            let mut cache = SweepCache::with_store(Box::new(FsStore), cache_dir.clone());
            let keys: Vec<u64> = (0..fused.scenarios().len())
                .map(|k| fused.scenario_fingerprint(k))
                .collect();
            for &fp in &keys {
                let hit = t.span("sweep.cache.lookup", |_| cache.lookup(fp, per, seed));
                debug_assert!(hit.is_none(), "the replay's cache starts empty");
            }
            // One worker's view of the fused sweep: a session per
            // scenario, kernels lowered once per sweep.
            let mut kernels = KernelCache::new();
            for (k, sc) in fused.scenarios().iter().enumerate() {
                let mut session = open_session(t, &engine, &sc.cfg, Some(&mut kernels));
                let stats = replay_range(
                    t,
                    session.as_mut(),
                    seed,
                    0,
                    per,
                    per.max(1),
                    sc.cfg.mission_hours,
                    &mut out,
                    &mut |_, _, _| {},
                );
                out.counters.merge(session.counters());
                out.sites.add(Sites::of(&sc.cfg, &stats));
                out.artifacts.push(Artifact {
                    label: sc.label.clone(),
                    fingerprint: keys[k],
                    driver: DriverState::fixed(per, per.max(1), seed),
                    stats,
                });
            }
            for a in &out.artifacts {
                t.span("sweep.cache.insert", |_| {
                    cache.insert(a.fingerprint, per, seed, &a.stats)
                });
            }
            out.writes += out.artifacts.len() as u64;
            out.write_errors += cache.persist_errors();
            // The rerun: a fresh process's cache, warm from disk.
            let mut warm = SweepCache::with_store(Box::new(FsStore), cache_dir);
            for &fp in &keys {
                let _ = t.span("sweep.cache.lookup", |_| warm.lookup(fp, per, seed));
            }
            out.cache_hits = cache.hits() + warm.hits();
            out.cache_store_hits = cache.store_hits() + warm.store_hits();
            out.cache_misses = cache.misses() + warm.misses();
        }
        Workload::ScatterMerge => {
            let sim = workload::simulator(w);
            let cfg = sim.config();
            let engine = DesEngine::new();
            let fingerprint = sim.run_fingerprint();
            let mut paths = Vec::new();
            let mut counters = EngineCounters::default();
            for i in 0..SHARDS {
                let (lo, hi) = shard_range(groups, i, SHARDS);
                // Each shard is its own process with its own session,
                // and simulates its slice as one batch.
                let mut session = open_session(t, &engine, cfg, None);
                let stats = replay_range(
                    t,
                    session.as_mut(),
                    seed,
                    lo,
                    hi,
                    (hi - lo).max(1),
                    cfg.mission_hours,
                    &mut out,
                    &mut |_, _, _| {},
                );
                counters.merge(session.counters());
                let path = replay_dir.join(format!("shard-{}.ckpt", i + 1));
                write_traced(
                    t,
                    &path,
                    fingerprint,
                    &DriverState::fixed(hi, SIM_BATCH, seed),
                    &stats,
                    &mut out,
                );
                paths.push(path);
            }
            out.counters = counters;
            let shards: Vec<SimCheckpoint> =
                paths.iter().filter_map(|p| load_traced(t, p)).collect();
            let merged = t.span("checkpoint.merge_shards", |_| merge_shards(shards));
            if let Ok(merged) = merged {
                let path = replay_dir.join("merged.ckpt");
                write_traced(
                    t,
                    &path,
                    merged.fingerprint,
                    &merged.driver,
                    &merged.stats,
                    &mut out,
                );
                // The rerun: resume from the merged file.
                let _ = load_traced(t, &path);
                out.sites = Sites::of(cfg, &merged.stats);
                out.artifacts.push(Artifact {
                    label: w.name().into(),
                    fingerprint: merged.fingerprint,
                    driver: merged.driver,
                    stats: merged.stats,
                });
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// What an untraced library run reported.
struct LibRun {
    wall_s: f64,
    /// Scheduler statistics, where the entry point reports them.
    sched: Option<SchedulerStats>,
    /// Checkpoint and cache write failures seen.
    failures: u64,
    quarantined: usize,
}

/// The library work behind the CLI's main steps for `groups` groups
/// (per scenario for the sweep; the precision run is capped there),
/// untraced, at `threads` (the scatter workload's shards run one
/// thread each).
fn library(
    w: Workload,
    scale: Scale,
    seed: u64,
    groups: u64,
    threads: usize,
    dir: &Path,
) -> Result<LibRun, String> {
    crate::env::fresh_dir(dir)?;
    let observer = FailureCounter::default();
    let start = Instant::now();
    let mut sched = None;
    let mut quarantined = 0;
    match w {
        Workload::Table3Precision => {
            let sim = workload::simulator(w);
            let driver = DriverState {
                max_groups: groups,
                ..table3_driver(scale, seed)
            };
            sim.run_checkpointed(driver, threads, &observer, &(), None, None)
                .map_err(|e| e.to_string())?;
        }
        Workload::OponlyCheckpointed => {
            let sim = workload::simulator(w);
            let path = dir.join("lib.ckpt");
            let (mut cadence, mut store, mut backoff) =
                (EveryGroups(SIM_BATCH), FsStore, AttemptBudget(3));
            let plan = CheckpointPlan {
                path: &path,
                cadence: &mut cadence,
                store: &mut store,
                backoff: &mut backoff,
                required: false,
            };
            let driver = DriverState::fixed(groups, SIM_BATCH, seed);
            sim.run_checkpointed(driver, threads, &observer, &(), Some(plan), None)
                .map_err(|e| e.to_string())?;
        }
        Workload::SweepTimelineLadder => {
            let fused = workload::fused_sweep(seed);
            let mut cache = SweepCache::with_store(Box::new(FsStore), dir.to_path_buf());
            let report = fused.run_streaming_cached(groups as usize, threads, &mut cache);
            observer
                .0
                .fetch_add(cache.persist_errors(), Ordering::Relaxed);
            quarantined = report.quarantined.len();
            sched = Some(report.sched);
        }
        Workload::ScatterMerge => {
            let sim = workload::simulator(w);
            let fp = sim.run_fingerprint();
            let mut shards = Vec::new();
            for i in 0..SHARDS {
                let (lo, hi) = shard_range(groups, i, SHARDS);
                let (stats, _) = sim.run_shard(lo, hi, seed, 1, &observer);
                let path = dir.join(format!("shard-{i}.ckpt"));
                let driver = DriverState::fixed(hi, SIM_BATCH, seed);
                SimCheckpoint::save_parts_to(&mut FsStore, &path, fp, &driver, &stats)
                    .map_err(|e| e.to_string())?;
                shards.push(SimCheckpoint::load(&path).map_err(|e| e.to_string())?);
            }
            let merged = merge_shards(shards).map_err(|e| e.to_string())?;
            merged
                .save(&dir.join("merged.ckpt"))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(LibRun {
        wall_s: start.elapsed().as_secs_f64(),
        sched,
        failures: observer.0.load(Ordering::Relaxed),
        quarantined,
    })
}

/// The library side of the set-up step: the main command's work at
/// one group, in-process (for the scatter workload, one shard).
fn library_setup(w: Workload, scale: Scale, seed: u64, dir: &Path) -> Result<f64, String> {
    if w != Workload::ScatterMerge {
        return Ok(library(w, scale, seed, 1, w.cli_threads(), dir)?.wall_s);
    }
    crate::env::fresh_dir(dir)?;
    let sim = workload::simulator(w);
    let start = Instant::now();
    let (stats, _) = sim.run_shard(0, 1, seed, 1, &());
    // The CLI's driver batch for one group: `groups.clamp(100, 1000)`.
    let driver = DriverState::fixed(1, 100, seed);
    SimCheckpoint::save_parts_to(
        &mut FsStore,
        &dir.join("setup.ckpt"),
        sim.run_fingerprint(),
        &driver,
        &stats,
    )
    .map_err(|e| e.to_string())?;
    Ok(start.elapsed().as_secs_f64())
}

/// Per-layer samples, one value per repetition (or per probe/micro pass).
#[derive(Debug, Default)]
struct Values(BTreeMap<&'static str, Vec<f64>>);

impl Values {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::layer_def(name).is_some(),
            "{name} is not in the catalogue"
        );
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[k]
}

/// Checks the replay's results against the gate's, byte for byte.
fn check_replay(tally: &mut Tally, w: Workload, replay: &Replay, verified: &Verified) {
    let same = replay.artifacts.len() == verified.artifacts.len()
        && replay
            .artifacts
            .iter()
            .zip(&verified.artifacts)
            .all(|(r, v)| r.bytes() == v.bytes());
    tally.check(same, || {
        format!(
            "{}: the traced replay does not reproduce the CLI's results",
            w.name()
        )
    });
}

/// Set-up invocations per repetition behind `cli.process_s`.
const PROCESS_SAMPLES: usize = 5;

/// One workload of a traced run, with what the gate established for it.
struct Job<'a> {
    w: Workload,
    scale: Scale,
    seed: u64,
    work: &'a Path,
    steps: Steps,
    verified: &'a Verified,
}

/// One repetition: CLI, library (untraced), replay (traced).
fn rep(
    t: &mut Tracer,
    run: u32,
    timer_ns: f64,
    job: &Job<'_>,
    tally: &mut Tally,
    v: &mut Values,
) -> Result<Replay, String> {
    let Job {
        w,
        scale,
        seed,
        work,
        ref steps,
        verified,
    } = *job;
    if let Some(dir) = &steps.clear_before_main {
        crate::env::fresh_dir(dir)?;
    }
    let mut stdout = String::new();
    for argv in &steps.main {
        if let Some(out) = tally.step(argv) {
            stdout.push_str(&out.stdout);
        }
    }
    let stdout = canonical(&stdout);
    tally.check(stdout == verified.main_stdout, || {
        format!("{}: main output changed: {stdout:?}", w.name())
    });

    // Process cost: the set-up step (the main command at one group)
    // against the library doing that one group in-process.
    let (mut cli_setup, mut lib_setup) = (Vec::new(), Vec::new());
    let setup_dir = work.join("lib-setup");
    for _ in 0..PROCESS_SAMPLES {
        if let Some(dir) = &steps.clear_before_setup {
            crate::env::fresh_dir(dir)?;
        }
        if let Some(out) = tally.step(&steps.setup) {
            cli_setup.push(out.wall_s);
        }
        lib_setup.push(library_setup(w, scale, seed, &setup_dir)?);
    }
    v.put("cli.process_s", median(&cli_setup) - median(&lib_setup));

    // Groups per scenario for the sweep; the groups the run needs
    // (to precision, for table3_precision) otherwise.
    let groups = match w {
        Workload::SweepTimelineLadder => scale.groups(w),
        _ => verified.groups,
    };
    let lib_dir = work.join("lib");
    let serial = library(w, scale, seed, groups, 1, &lib_dir)?;

    let replay = replay(t, w, scale, seed, groups, work)?;
    check_replay(tally, w, &replay, verified);

    // Pool counts at two threads: the fused sweep's own report, or the
    // instrumented streaming run of the same groups.
    let sched = match w {
        Workload::SweepTimelineLadder => library(w, scale, seed, groups, 2, &lib_dir)?
            .sched
            .ok_or("the fused sweep reports its scheduler statistics")?,
        _ => {
            workload::simulator(w)
                .run_streaming_instrumented(groups as usize, seed, 2, &())
                .1
        }
    };

    let g = replay.groups.max(1) as f64;
    let group = t.fold("engine.simulate_group", Some(run));
    let push = t.fold("stats.push", Some(run));
    let busy_ns =
        (group.busy_ns + push.busy_ns) as f64 - timer_ns * (group.count + push.count) as f64;
    // Checkpoint and cache I/O inside the replay: not driver overhead.
    let io_ns: f64 = [
        "checkpoint.encode",
        "store.write",
        "checkpoint.load",
        "checkpoint.merge_shards",
        "sweep.cache.lookup",
        "sweep.cache.insert",
    ]
    .iter()
    .flat_map(|name| t.durations(name, Some(run)))
    .sum();
    v.put("trace.overhead_frac", replay.wall_s / serial.wall_s - 1.0);
    v.put(
        "run.overhead_ns_per_group",
        (serial.wall_s * 1e9 - io_ns - busy_ns) / g,
    );
    v.put("run.driver_batches", replay.batches as f64);
    v.put("run.groups_to_precision", verified.groups as f64);
    v.put("pool.thread_spawns", sched.thread_spawns as f64);
    v.put("pool.balance", sched.balance());
    v.put("pool.steals", sched.steals as f64);
    v.put("checkpoint.writes", replay.writes as f64);
    v.put(
        "checkpoint.failures",
        (serial.failures + replay.write_errors) as f64,
    );
    v.put("sweep.cache.hits", replay.cache_hits as f64);
    v.put("sweep.cache.store_hits", replay.cache_store_hits as f64);
    v.put("sweep.cache.misses", replay.cache_misses as f64);
    v.put("sweep.quarantined", serial.quarantined as f64);
    Ok(replay)
}

/// Persists every result once more and reads it back through each I/O
/// layer, so every workload reports their unit costs.
fn probe(
    t: &mut Tracer,
    artifacts: &[Artifact],
    dir: &Path,
    tally: &mut Tally,
    v: &mut Values,
) -> Result<(), String> {
    crate::env::fresh_dir(dir)?;
    let cache_dir = dir.join("cache");
    crate::env::fresh_dir(&cache_dir)?;
    for (k, a) in artifacts.iter().enumerate() {
        // The fixed-mode snapshot of the same result, which every layer
        // (including the shard merge) accepts.
        let driver = DriverState::fixed(a.stats.groups(), a.driver.batch, a.driver.seed);
        let image = SimCheckpoint::bytes_from_parts(a.fingerprint, &driver, &a.stats);
        let mut encoded = Vec::new();
        t.span("stats.encode", |_| a.stats.encode_into(&mut encoded));
        v.put("stats.bytes", encoded.len() as f64);
        let path = dir.join(format!("probe-{k}.ckpt"));
        let mut out = Replay::default();
        write_traced(t, &path, a.fingerprint, &driver, &a.stats, &mut out);
        let loaded = load_traced(t, &path);
        tally.check(
            loaded.as_ref().map(SimCheckpoint::to_bytes) == Some(image.clone()),
            || format!("probe: {} did not read back byte-equal", a.label),
        );
        if let Some(ckpt) = loaded {
            let merged = t.span("checkpoint.merge_shards", |_| merge_shards(vec![ckpt]));
            tally.check(merged.map(|m| m.to_bytes()).ok() == Some(image), || {
                format!("probe: merging {} as one shard changed it", a.label)
            });
        }
        let (groups, seed) = (a.stats.groups(), a.driver.seed);
        let mut cache = SweepCache::with_store(Box::new(FsStore), cache_dir.clone());
        t.span("sweep.cache.insert", |_| {
            cache.insert(a.fingerprint, groups, seed, &a.stats)
        });
        let mut warm = SweepCache::with_store(Box::new(FsStore), cache_dir.clone());
        let hit = t.span("sweep.cache.lookup", |_| {
            warm.lookup(a.fingerprint, groups, seed)
        });
        tally.check(hit.is_some(), || format!("probe: cache lost {}", a.label));
    }
    Ok(())
}

/// One workload's per-layer metrics plus its trace.
#[derive(Debug)]
pub struct LayerResult {
    pub workload: Workload,
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Json,
}

fn measure(job: &Job<'_>, budget: Budget, tally: &mut Tally) -> Result<LayerResult, String> {
    let (w, scale, seed) = (job.w, job.scale, job.seed);
    let mut t = Tracer::new();
    let mut v = Values::default();
    let timer_ns = timer_overhead_ns();
    let start = Instant::now();
    let mut reps = 0u32;
    let mut last = None;
    loop {
        let done = match budget {
            Budget::Reps(n) => reps as usize >= n.max(1),
            Budget::Seconds(s) => reps >= 1 && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        t.set_run(reps);
        last = Some(rep(&mut t, reps, timer_ns, job, tally, &mut v)?);
        reps += 1;
    }
    let replay = last.ok_or("no repetition ran")?;
    t.set_run(reps);
    probe(
        &mut t,
        &replay.artifacts,
        &job.work.join("probe"),
        tally,
        &mut v,
    )?;

    let calls = if scale.smoke { 10_000 } else { 100_000 };
    let micro = Micro::measure(calls);
    let (engine, cfg): (Box<dyn Engine>, RaidGroupConfig) = match w {
        Workload::SweepTimelineLadder => (
            Box::new(TimelineEngine),
            workload::fused_sweep(seed).scenarios()[0].cfg.clone(),
        ),
        _ => (
            Box::new(DesEngine::new()),
            workload::simulator(w).config().clone(),
        ),
    };
    v.put(
        "engine.session_open_us",
        session_open_us(engine.as_ref(), &cfg, calls / 100 + 1),
    );

    // Fold- and span-derived layer times over every repetition; folded
    // per-call times less the cost of the timing itself.
    let group = t.fold("engine.simulate_group", None);
    let call_ns = |f: crate::trace::Fold| f.mean_ns() - timer_ns;
    let c = replay.counters;
    let per_group = |x: u64| x as f64 / c.groups.max(1) as f64;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let span_median = |name: &str, scale: f64| {
        let d = t.durations(name, None);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / scale
        }
    };
    let kernel_ns = replay.sites.kernel_ns(&micro) / replay.groups.max(1) as f64;
    let group_ns = group.mean_ns() - timer_ns;
    let k = &micro.kernels;
    for layer in LAYERS {
        let value = match layer.name {
            "engine.session_open_us"
            | "cli.process_s"
            | "trace.overhead_frac"
            | "run.overhead_ns_per_group"
            | "run.driver_batches"
            | "run.groups_to_precision"
            | "pool.thread_spawns"
            | "pool.balance"
            | "pool.steals"
            | "checkpoint.writes"
            | "checkpoint.failures"
            | "sweep.cache.hits"
            | "sweep.cache.store_hits"
            | "sweep.cache.misses"
            | "sweep.quarantined"
            | "stats.bytes" => v.median(layer.name),
            "engine.group_ns" => group_ns,
            "engine.group_ns.p99" => group.quantile_ns(0.99) - timer_ns,
            "engine.ns_per_event" => group_ns * c.groups as f64 / c.events.max(1) as f64,
            "engine.samples_per_group" => per_group(c.samples_drawn),
            "engine.events_per_group" => per_group(c.events),
            "engine.loop_allocs" => c.loop_allocs as f64,
            "engine.scratch_grows" => c.scratch_grows as f64,
            "engine.ddf.check_ns" => micro.ddf_check_ns,
            "engine.model.kernel_share" => kernel_ns / group_ns,
            "engine.model.residual_share" => 1.0 - kernel_ns / group_ns,
            "engine.model.count_error" => {
                (replay.sites.total() - c.samples_drawn as f64).abs()
                    / c.samples_drawn.max(1) as f64
            }
            "dists.rng.word_ns" => micro.rng_word_ns,
            "dists.rng.scalar_word_ns" => micro.rng_scalar_word_ns,
            "dists.rng.stream_ns" => call_ns(t.fold("dists.rng.stream", None)),
            "dists.kernel.ttop.sample_ns" => k.ttop.sample_ns,
            "dists.kernel.ttr.sample_ns" => k.ttr.sample_ns,
            "dists.kernel.ttld.sample_ns" => k.ttld.sample_ns,
            "dists.kernel.ttscrub.sample_ns" => k.ttscrub.sample_ns,
            "dists.kernel.ttop.block_ns" => k.ttop.block_ns,
            "dists.kernel.ttr.block_ns" => k.ttr.block_ns,
            "dists.kernel.ttld.block_ns" => k.ttld.block_ns,
            "dists.kernel.ttscrub.block_ns" => k.ttscrub.block_ns,
            "dists.kernel.lower_us" => micro.lower_us,
            "dists.kernel.cache_hit_us" => micro.cache_hit_us,
            "stats.push_ns" => call_ns(t.fold("stats.push", None)),
            "stats.merge_ns" => span_median("stats.merge", 1.0),
            "stats.encode_us" => span_median("stats.encode", 1e3),
            "checkpoint.encode_us" => span_median("checkpoint.encode", 1e3),
            "checkpoint.load_ms" => span_median("checkpoint.load", 1e6),
            "checkpoint.merge_shards_ms" => span_median("checkpoint.merge_shards", 1e6),
            "store.write_ms" => span_median("store.write", 1e6),
            "store.write_ms.p99" => percentile(&t.durations("store.write", None), 0.99) / 1e6,
            "sweep.cache.lookup_ms" => span_median("sweep.cache.lookup", 1e6),
            "sweep.cache.insert_ms" => span_median("sweep.cache.insert", 1e6),
            other => return Err(format!("no measurement for layer metric {other}")),
        };
        m.push((layer.name, value));
    }
    Ok(LayerResult {
        workload: w,
        metrics: m,
        spans: t.to_json(),
    })
}

/// Everything one traced run produced.
#[derive(Debug)]
pub struct TraceResults {
    pub tally: Tally,
    pub manifest: Json,
    pub workloads: Vec<LayerResult>,
}

/// Runs the traced benchmark: the correctness gate, then per workload
/// the traced repetitions, the probe and the unit costs.
pub fn run(
    root: &Path,
    workloads: &[Workload],
    scale: Scale,
    seed: u64,
    budget: Budget,
) -> Result<TraceResults, String> {
    let mut prepared = prepare(root, workloads, scale, seed)?;
    let mut results = Vec::new();
    for (w, work, verified) in &prepared.verified {
        let job = Job {
            w: *w,
            scale,
            seed,
            work,
            steps: prepared.tools.steps(*w, scale, seed, work),
            verified,
        };
        results.push(measure(&job, budget, &mut prepared.tally)?);
    }
    Ok(TraceResults {
        tally: std::mem::take(&mut prepared.tally),
        manifest: crate::env::manifest(root, &prepared.tools),
        workloads: results,
    })
}

/// The trace file: per workload, the layer metrics and every span.
pub fn trace_json(seed: u64, scale: Scale, r: &TraceResults) -> Json {
    let mut workloads = Json::obj();
    for lr in &r.workloads {
        let mut metrics = Json::obj();
        for (name, value) in &lr.metrics {
            let def = crate::metrics::layer_def(name).expect("catalogued");
            metrics.push(
                name,
                Json::obj()
                    .with("value", *value)
                    .with("unit", def.unit)
                    .with("moves", def.moves),
            );
        }
        workloads.push(
            lr.workload.name(),
            Json::obj()
                .with("metrics", metrics)
                .with("spans", lr.spans.clone()),
        );
    }
    Json::obj()
        .with("schema", 1u64)
        .with("seed", seed)
        .with("smoke", scale.smoke)
        .with("correct", r.tally.correct())
        .with("attempted", r.tally.attempted)
        .with("failed", r.tally.failed)
        .with(
            "problems",
            r.tally
                .problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("manifest", r.manifest.clone())
        .with("workloads", workloads)
}

pub fn trace_path(root: &Path, label: &str) -> PathBuf {
    crate::env::out_dir(root).join(format!("trace-{label}.json"))
}
