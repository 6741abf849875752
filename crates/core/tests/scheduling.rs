//! Dynamic-scheduler guarantees: claiming group batches from the
//! shared cursor must be **invisible** in the results. For any
//! configuration, thread count, and claim-batch size, the stored and
//! streamed paths must be bit-identical to a single-threaded pass, and
//! kill-and-resume under the scheduler must match an uninterrupted run.

use proptest::prelude::*;
use raidsim_core::checkpoint::{DriverState, SimCheckpoint};
use raidsim_core::config::{RaidGroupConfig, Redundancy, SparePolicy, TransitionDistributions};
use raidsim_core::engine::{BiasPolicy, DesEngine, Engine, EngineSession, SessionTuning};
use raidsim_core::events::GroupHistory;
use raidsim_core::run::{CheckpointPlan, EveryGroups, FusedSweep, RunControl, Simulator};
use raidsim_core::stats::StreamStats;
use raidsim_core::store::{AttemptBudget, FsStore};
use raidsim_core::sweep::SweepScenario;
use raidsim_dists::rng::SimRng;
use raidsim_dists::{KernelCache, LifeDistribution, Weibull3};
use raidsim_hdd::scrub::ScrubPolicy;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configurations spanning the model space, including the skew drivers
/// the scheduler exists for: infant-mortality vintages (low beta pulls
/// failures — and their event cascades — into the mission) and finite
/// spare pools (burst serialization lengthens exposed repair windows).
fn configs() -> impl Strategy<Value = RaidGroupConfig> {
    (
        3usize..9,
        proptest::bool::ANY,
        2_000.0..60_000.0f64,
        1_000.0..2.0e5f64,
        proptest::option::of(500.0..20_000.0f64),
        0.7..1.6f64,
        proptest::option::of((1u32..4, 24.0..500.0f64)),
    )
        .prop_filter_map(
            "drives must exceed parity",
            |(drives, double, mission, op_eta, ld, beta, spares)| {
                let redundancy = if double {
                    Redundancy::DoubleParity
                } else {
                    Redundancy::SingleParity
                };
                if drives <= redundancy.tolerated() {
                    return None;
                }
                let ttld: Option<Arc<dyn LifeDistribution>> =
                    ld.map(|e| Arc::new(Weibull3::two_param(e, 1.0).unwrap()) as _);
                let ttscrub: Option<Arc<dyn LifeDistribution>> = ttld
                    .is_some()
                    .then(|| Arc::new(Weibull3::new(1.0, 168.0, 3.0).unwrap()) as _);
                Some(RaidGroupConfig {
                    drives,
                    redundancy,
                    mission_hours: mission,
                    dists: TransitionDistributions {
                        ttop: Arc::new(Weibull3::two_param(op_eta, beta).unwrap()),
                        ttr: Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap()),
                        ttld,
                        ttscrub,
                    },
                    defect_reset_on_replacement: false,
                    spares: match spares {
                        None => SparePolicy::AlwaysAvailable,
                        Some((pool, replenish_hours)) => SparePolicy::Finite {
                            pool,
                            replenish_hours,
                        },
                    },
                })
            },
        )
}

/// Requests a graceful stop once `limit` batch boundaries have been
/// polled.
struct InterruptAfter {
    polls: AtomicU64,
    limit: u64,
}

impl InterruptAfter {
    fn new(limit: u64) -> Self {
        Self {
            polls: AtomicU64::new(0),
            limit,
        }
    }
}

impl RunControl for InterruptAfter {
    fn interrupted(&self) -> bool {
        self.polls.fetch_add(1, Ordering::Relaxed) >= self.limit
    }
}

fn temp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("raidsim_sched_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Non-timing scheduler invariants, exact at every thread count: spawn
/// counts match the configuration (zero on the serial path — the pool
/// is bypassed entirely), every group is accounted to some worker, the
/// engine counters see every group exactly once, and the steady-state
/// group loop of the scratch-reusing sessions performs no allocations.
#[test]
fn pool_instrumentation_invariants() {
    use raidsim_core::engine::TimelineEngine;
    for engine in [false, true] {
        for threads in [1usize, 2, 4] {
            let mut sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
            if engine {
                sim = sim.with_engine(Arc::new(TimelineEngine::new()));
            }
            let (stats, sched) = sim.run_streaming_instrumented(600, 9, threads, &());
            assert_eq!(stats.groups(), 600);
            assert_eq!(sched.total(), 600);
            let expect_spawns = if threads == 1 { 0 } else { threads as u64 };
            assert_eq!(sched.thread_spawns, expect_spawns);
            let expect_workers = if threads == 1 { 1 } else { threads };
            assert_eq!(sched.worker_groups.len(), expect_workers);
            assert_eq!(sched.counters.groups, 600);
            assert_eq!(
                sched.counters.loop_allocs, 0,
                "steady-state group loop must be allocation-free \
                 (timeline engine: {engine}, threads: {threads})"
            );
            assert!(sched.counters.samples_drawn > 0);
            assert!(sched.counters.events > 0);
        }
    }
}

/// The discrete-event engine, counting the sessions opened on it.
#[derive(Debug, Default)]
struct CountingEngine {
    inner: DesEngine,
    opened: AtomicU64,
}

impl Engine for CountingEngine {
    fn simulate_group(&self, cfg: &RaidGroupConfig, rng: &mut SimRng) -> GroupHistory {
        self.inner.simulate_group(cfg, rng)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn session_tuned_cached<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Box<dyn EngineSession + 'a> {
        self.opened.fetch_add(1, Ordering::Relaxed);
        self.inner.session_tuned_cached(cfg, bias, tuning, kernels)
    }
}

/// Sessions live as long as the executor: a worker opens one per
/// scenario it serves, not one per driver batch or per job.
#[test]
fn sessions_open_once_per_worker_and_scenario() {
    for threads in [1usize, 2] {
        let engine = Arc::new(CountingEngine::default());
        let sim =
            Simulator::new(RaidGroupConfig::paper_base_case().unwrap()).with_engine(engine.clone());
        // An unreachable precision target: every one of the 4 driver
        // batches runs.
        let (stats, _) = sim.run_until_precision_streaming(1e-9, 0.95, 50, 200, 3, threads);
        assert_eq!(stats.groups(), 200);
        assert_eq!(
            engine.opened.load(Ordering::Relaxed),
            threads as u64,
            "{threads} thread(s)"
        );
    }
    let engine = Arc::new(CountingEngine::default());
    let ladder = [12.0, 48.0, 168.0].map(|hours| {
        let cfg = RaidGroupConfig::paper_base_case()
            .unwrap()
            .with_scrub_policy(ScrubPolicy::with_characteristic_hours(hours))
            .unwrap();
        SweepScenario::new(format!("scrub {hours} h"), cfg, 5)
    });
    let report = FusedSweep::new(ladder.to_vec())
        .with_engine(engine.clone())
        .run_streaming(60, 2);
    assert_eq!(report.simulated, 3);
    let opened = engine.opened.load(Ordering::Relaxed);
    assert!(
        opened <= 6,
        "{opened} sessions for 3 scenarios on 2 workers"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tentpole guarantee: dynamic scheduling is bit-identical to
    /// `threads == 1` on both the stored and streamed paths, for any
    /// `(config, groups, seed, threads, claim_batch)`.
    #[test]
    fn dynamic_schedule_is_bit_identical_to_serial(
        cfg in configs(),
        groups in 1usize..150,
        seed in any::<u64>(),
        threads in 1usize..6,
        claim in 1u64..50,
    ) {
        let sim = Simulator::new(cfg).with_claim_batch(claim);
        let serial = sim.run(groups, seed);
        prop_assert_eq!(&sim.run_parallel(groups, seed, threads), &serial);
        prop_assert_eq!(
            sim.run_streaming(groups, seed, threads),
            StreamStats::from_result(&serial)
        );
    }

    /// Kill-and-resume under the dynamic scheduler: interrupt at a
    /// random batch boundary, resume with independently chosen thread
    /// count *and claim-batch size*, and the final statistics and
    /// report match an uninterrupted run bit-identically.
    #[test]
    fn kill_and_resume_survives_scheduler_variation(
        cfg in configs(),
        seed in any::<u64>(),
        kill_batch in 0u64..6,
        threads_a in 1usize..5,
        threads_b in 1usize..5,
        claim_a in 1u64..40,
        claim_b in 1u64..40,
    ) {
        let driver = DriverState::precision(0.25, 0.95, 20, 100, seed);
        let sim_a = Simulator::new(cfg.clone()).with_claim_batch(claim_a);
        let sim_b = Simulator::new(cfg).with_claim_batch(claim_b);

        // Uninterrupted reference, under yet another scheduling.
        let (ref_stats, ref_report) =
            sim_b.run_until_precision_streaming(0.25, 0.95, 20, 100, seed, threads_a);

        let path = temp_ckpt("sched_kill_and_resume.ckpt");
        let control = InterruptAfter::new(kill_batch);
        let mut cadence = EveryGroups(1);
        let mut store = FsStore;
        let mut backoff = AttemptBudget(1);
        let plan = CheckpointPlan {
            path: &path,
            cadence: &mut cadence,
            store: &mut store,
            backoff: &mut backoff,
            required: false,
        };
        sim_a
            .run_checkpointed(driver, threads_a, &(), &control, Some(plan), None)
            .unwrap();

        let ckpt = SimCheckpoint::load(&path).unwrap();
        let (stats, report) = sim_b
            .run_checkpointed(driver, threads_b, &(), &(), None, Some(ckpt))
            .unwrap();

        prop_assert_eq!(stats, ref_stats);
        prop_assert_eq!(report, ref_report);
        std::fs::remove_file(&path).ok();
    }
}
