//! PERF — scheduler baseline: wall-clock, speedup, and load-balance of
//! the dynamic batch-claiming scheduler across thread counts, written
//! to `BENCH_parallel.json` so later PRs have a trajectory to regress
//! against.
//!
//! Runs the Table-3 scrub ladder at its fixed seeds plus one
//! deliberately skew-heavy configuration (population-mixed vintages —
//! the infant-mortality component front-loads expensive histories —
//! with a finite spare pool) at 1/2/4/8 threads. Every multi-threaded
//! run is asserted bit-identical to the single-threaded reference
//! before its timing is recorded: a benchmark of wrong results is
//! worthless.
//!
//! Schema 3 adds a per-configuration `block_check`: a single-threaded
//! scalar-vs-block timing pair whose statistics are asserted equal
//! before `bit_identical: true` is written, plus a top-level
//! `host_threads`/`note` pair recording the CPU budget the numbers were
//! taken under (a 1-CPU container cannot measure speedup).
//!
//! Usage: `bench_parallel [--smoke] [--out <path>]`; group count
//! defaults to 10,000 (400 with `--smoke`), overridable via
//! `RAIDSIM_GROUPS`.

use raidsim::config::{RaidGroupConfig, SparePolicy, TransitionDistributions};
use raidsim::dists::{LifeDistribution, Mixture};
use raidsim::engine::SessionTuning;
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::hdd::vintage::fig2_vintages;
use raidsim::run::Simulator;
use raidsim_bench::groups;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Thread counts the baseline ladder covers.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// One measured cell: a configuration at one thread count.
struct Cell {
    threads: usize,
    wall_ms: f64,
    per_group_ns: f64,
    speedup: f64,
    worker_groups_max: u64,
    worker_groups_min: u64,
    balance: f64,
    thread_spawns: u64,
    samples_drawn: u64,
    steady_allocs: u64,
}

/// The Table-3 scrub ladder (same policies and seeds as `exp_table3`)
/// plus the skew-heavy mixed-vintage / finite-spares configuration.
fn bench_configs() -> Vec<(String, u64, RaidGroupConfig)> {
    let policies: [(&str, ScrubPolicy); 5] = [
        ("table3_no_scrub", ScrubPolicy::Disabled),
        (
            "table3_scrub_336h",
            ScrubPolicy::with_characteristic_hours(336.0),
        ),
        (
            "table3_scrub_168h",
            ScrubPolicy::with_characteristic_hours(168.0),
        ),
        (
            "table3_scrub_48h",
            ScrubPolicy::with_characteristic_hours(48.0),
        ),
        (
            "table3_scrub_12h",
            ScrubPolicy::with_characteristic_hours(12.0),
        ),
    ];
    let mut configs: Vec<(String, u64, RaidGroupConfig)> = policies
        .into_iter()
        .enumerate()
        .map(|(i, (name, policy))| {
            (
                name.to_string(),
                11_000 + i as u64,
                RaidGroupConfig::paper_base_case()
                    .unwrap()
                    .with_scrub_policy(policy)
                    .unwrap(),
            )
        })
        .collect();

    // Skew-heavy: the Figure 2 population vintage mix puts an
    // infant-mortality component in every draw (expensive early
    // cascades for an unlucky subset of groups), and a small finite
    // spare pool serializes repairs within those groups. This is the
    // configuration static chunking handled worst.
    let vintages = fig2_vintages();
    let total: u64 = vintages.iter().map(|v| v.population()).sum();
    let components: Vec<(f64, Arc<dyn LifeDistribution>)> = vintages
        .iter()
        .map(|v| {
            (
                v.population() as f64 / total as f64,
                Arc::new(v.distribution().expect("published params valid")) as _,
            )
        })
        .collect();
    let mix = Mixture::new(components).expect("weights sum to 1");
    configs.push((
        "skew_vintage_mix_finite_spares".to_string(),
        18_000,
        RaidGroupConfig {
            dists: TransitionDistributions {
                ttop: Arc::new(mix),
                ..TransitionDistributions::weibull_both().unwrap()
            },
            spares: SparePolicy::Finite {
                pool: 2,
                replenish_hours: 336.0,
            },
            ..RaidGroupConfig::paper_base_case().unwrap()
        },
    ));
    configs
}

/// Minimal JSON string escaping (the names here are plain ASCII, but
/// correctness is cheap).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let n_groups = groups(if smoke { 400 } else { 10_000 });

    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema_version\": 3,");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(
        json,
        "  \"note\": \"timings reflect whatever CPU budget the host grants \
         ({host_threads} hardware thread(s) here); on a 1-CPU container the \
         multi-thread ladder measures scheduling overhead, not speedup, and \
         block-vs-scalar deltas are noisy — per_group_ns and speedup are \
         trajectory data, never pass/fail\","
    );
    let _ = writeln!(json, "  \"groups\": {n_groups},");
    let _ = writeln!(
        json,
        "  \"claim_batch\": {},",
        raidsim::run::DEFAULT_CLAIM_BATCH
    );
    let _ = writeln!(
        json,
        "  \"thread_ladder\": [{}],",
        THREAD_LADDER.map(|t| t.to_string()).join(", ")
    );
    json.push_str("  \"configs\": [\n");

    let configs = bench_configs();
    let n_configs = configs.len();
    for (ci, (name, seed, cfg)) in configs.into_iter().enumerate() {
        let sim = Simulator::new(cfg.clone());
        eprintln!("[{}/{n_configs}] {name}: {n_groups} groups", ci + 1);

        // Block-vs-scalar check, single-threaded: the default session
        // tuning prefetches lazy draws and horizon-cuts mission-start
        // TTOp draws, and both must be draw-for-draw bit-identical to
        // the scalar loops. Both paths are timed fresh so
        // the recorded delta is an honest like-for-like measurement, and
        // the statistics are asserted equal before anything is written —
        // `bit_identical` below is attested, not assumed.
        let scalar_sim = Simulator::new(cfg).with_tuning(SessionTuning { block_draws: false });
        let t0 = Instant::now();
        let block_stats = sim.run_streaming(n_groups, seed, 1);
        let block_per_group_ns = t0.elapsed().as_secs_f64() * 1e9 / n_groups as f64;
        let t0 = Instant::now();
        let scalar_stats = scalar_sim.run_streaming(n_groups, seed, 1);
        let scalar_per_group_ns = t0.elapsed().as_secs_f64() * 1e9 / n_groups as f64;
        assert_eq!(
            block_stats, scalar_stats,
            "{name}: default-tuned sampling diverged from the scalar path"
        );
        eprintln!(
            "  block check: scalar {scalar_per_group_ns:.0} ns/group, \
             block {block_per_group_ns:.0} ns/group, bit-identical"
        );
        let mut cells: Vec<Cell> = Vec::with_capacity(THREAD_LADDER.len());
        let mut reference = None;
        for threads in THREAD_LADDER {
            let t0 = Instant::now();
            let (stats, sched) = sim.run_streaming_instrumented(n_groups, seed, threads, &());
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            match &reference {
                None => reference = Some(stats),
                Some(reference) => assert_eq!(
                    &stats, reference,
                    "{name}: results at {threads} threads diverged from single-threaded"
                ),
            }
            // Non-timing invariants, asserted before anything is
            // recorded: the pool spawns exactly the configured worker
            // count once per run (the serial path spawns nothing), and
            // the steady-state group loop of the per-worker sessions
            // performs zero allocations.
            let expect_spawns = if threads == 1 { 0 } else { threads as u64 };
            assert_eq!(
                sched.thread_spawns, expect_spawns,
                "{name}: expected {expect_spawns} spawned workers at {threads} threads"
            );
            assert_eq!(
                sched.counters.loop_allocs, 0,
                "{name}: steady-state loop allocated at {threads} threads"
            );
            assert_eq!(
                sched.counters.groups, n_groups as u64,
                "{name}: engine counters missed groups at {threads} threads"
            );
            // Starvation regression (smoke mode, multi-CPU hosts only):
            // the claim clamp guarantees at least eight batches per
            // configured worker, so on a host that can actually run two
            // workers concurrently every worker must land at least one
            // group — the balance-0.0000 rows that motivated the
            // tightened clamp came from workers that starved outright.
            // Timing still decides the split, so the floor is "no
            // starvation", not a fairness target; 1-CPU hosts skip it
            // because a worker there can legitimately drain everything
            // before its sibling is scheduled at all.
            if smoke && threads > 1 && threads <= host_threads {
                assert!(
                    sched.balance() > 0.0,
                    "{name}: a worker starved at {threads} threads \
                     (worker groups min {} / max {})",
                    sched.min_worker_groups(),
                    sched.max_worker_groups()
                );
            }
            let speedup = cells.first().map_or(1.0, |c: &Cell| c.wall_ms / wall_ms);
            eprintln!(
                "  {threads} thread(s): {wall_ms:.0} ms  speedup {speedup:.2}x  \
                 worker groups max/min {}/{}",
                sched.max_worker_groups(),
                sched.min_worker_groups()
            );
            cells.push(Cell {
                threads,
                wall_ms,
                per_group_ns: wall_ms * 1e6 / n_groups as f64,
                speedup,
                worker_groups_max: sched.max_worker_groups(),
                worker_groups_min: sched.min_worker_groups(),
                balance: sched.balance(),
                thread_spawns: sched.thread_spawns,
                samples_drawn: sched.counters.samples_drawn,
                steady_allocs: sched.counters.loop_allocs,
            });
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", json_escape(&name));
        let _ = writeln!(json, "      \"seed\": {seed},");
        let _ = writeln!(
            json,
            "      \"block_check\": {{\"scalar_per_group_ns\": {scalar_per_group_ns:.1}, \
             \"block_per_group_ns\": {block_per_group_ns:.1}, \"bit_identical\": true}},"
        );
        let _ = writeln!(json, "      \"threads\": [");
        let n_cells = cells.len();
        for (i, c) in cells.into_iter().enumerate() {
            let comma = if i + 1 < n_cells { "," } else { "" };
            let _ = writeln!(
                json,
                "        {{\"threads\": {}, \"wall_ms\": {:.3}, \"per_group_ns\": {:.1}, \
                 \"speedup\": {:.3}, \"worker_groups_max\": {}, \
                 \"worker_groups_min\": {}, \"balance\": {:.4}, \
                 \"thread_spawns\": {}, \"samples_drawn\": {}, \
                 \"steady_allocs\": {}}}{comma}",
                c.threads,
                c.wall_ms,
                c.per_group_ns,
                c.speedup,
                c.worker_groups_max,
                c.worker_groups_min,
                c.balance,
                c.thread_spawns,
                c.samples_drawn,
                c.steady_allocs
            );
        }
        let _ = writeln!(json, "      ]");
        let comma = if ci + 1 < n_configs { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("cannot write benchmark JSON");
    println!("wrote {out_path} ({n_groups} groups per cell)");
}
