//! Fused-sweep guarantees: fusing a family of scenarios into one job
//! — scenarios that share a seed bundled onto one shared draw memo per
//! group — must be **invisible** in the statistics. For any scenario
//! list, seeds, engine, sampling bias, thread count, and claim-batch
//! size, the fused runner's per-scenario aggregates must be
//! byte-identical to a sequential single-threaded run of each scenario
//! alone; a panic in one scenario of a bundle must quarantine only that
//! (scenario, group); repeated scenarios must replay from the
//! fingerprint-keyed cache without re-simulating; and a sweep resumed
//! in a fresh process must warm-start byte-identically from the
//! persisted cache.

use proptest::prelude::*;
use raidsim_core::config::RaidGroupConfig;
use raidsim_core::engine::{
    BiasPolicy, DesEngine, Engine, EngineCounters, EngineSession, SessionTuning, TimelineEngine,
};
use raidsim_core::events::GroupHistory;
use raidsim_core::run::{FusedSweep, Simulator};
use raidsim_core::stats::StreamStats;
use raidsim_core::store::FsStore;
use raidsim_core::sweep::{SweepCache, SweepScenario};
use raidsim_dists::rng::{stream, DrawMemo, SimRng};
use raidsim_dists::{KernelCache, Weibull3};
use raidsim_hdd::scrub::ScrubPolicy;
use rand::Rng;
use std::path::PathBuf;
use std::sync::Arc;

fn encode(stats: &StreamStats) -> Vec<u8> {
    let mut bytes = Vec::new();
    stats.encode_into(&mut bytes);
    bytes
}

/// A scrub-ladder scenario over the paper base case: the family shape
/// real sweeps use (one knob varies, the rest of the configuration —
/// and therefore most of the lowered kernels — is shared).
fn ladder_scenario(label: &str, scrub_hours: f64, seed: u64) -> SweepScenario {
    let cfg = RaidGroupConfig::paper_base_case()
        .unwrap()
        .with_scrub_policy(ScrubPolicy::with_characteristic_hours(scrub_hours))
        .unwrap();
    SweepScenario::new(label, cfg, seed)
}

fn temp_cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("raidsim_sweep_tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A rung of a mixed ladder: scrub characteristic hours (`None` turns
/// scrubbing off) and an optional TTOp shape, so bundled scenarios also
/// differ in which exponents their draws raise to.
fn mixed_scenario(
    label: &str,
    scrub_hours: Option<f64>,
    ttop_beta: Option<f64>,
    seed: u64,
) -> SweepScenario {
    let policy = match scrub_hours {
        Some(h) => ScrubPolicy::with_characteristic_hours(h),
        None => ScrubPolicy::Disabled,
    };
    let mut cfg = RaidGroupConfig::paper_base_case()
        .unwrap()
        .with_scrub_policy(policy)
        .unwrap();
    if let Some(beta) = ttop_beta {
        cfg.dists.ttop = Arc::new(Weibull3::two_param(461_386.0, beta).unwrap());
    }
    SweepScenario::new(label, cfg, seed)
}

/// The sampling biases a fused sweep is run under: plain, op and latent
/// tilts (both engines), and critical-boundary forcing (DES only).
fn bias_for(choice: usize, des: bool) -> BiasPolicy {
    match choice {
        1 => BiasPolicy::HazardTilt {
            op_theta: 0.8,
            latent_theta: 0.0,
        },
        2 => BiasPolicy::HazardTilt {
            op_theta: 0.0,
            latent_theta: 0.6,
        },
        3 if des => BiasPolicy::ForcedCritical {
            fraction: 0.3,
            window_hours: 200.0,
        },
        _ => BiasPolicy::None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-scenario aggregates of a fused sweep are byte-identical to a
    /// sequential single-threaded run of each scenario, for random
    /// `(scenario list, seeds, engine, bias, groups, threads,
    /// claim_batch)` tuples — the bit-identity boundary the fused
    /// scheduler promises. Seeds come from a pool of two, so a sweep
    /// holds real bundles (shared seeds), bundles of one, or a mix.
    #[test]
    fn fused_matches_sequential_per_scenario(
        rungs in proptest::collection::vec(
            (0usize..5, 8.0..400.0f64, 0usize..3, 0.7..2.5f64, 0usize..2),
            1..6,
        ),
        seed_pool in (0u64..500, 0u64..500),
        des in any::<bool>(),
        bias in 0usize..4,
        groups in 1usize..60,
        threads in 1usize..5,
        claim in 1u64..40,
    ) {
        let scenarios: Vec<SweepScenario> = rungs
            .iter()
            .enumerate()
            .map(|(k, &(scrub_on, scrub, beta_on, beta, which))| {
                // Mostly scrubbed rungs with the paper's TTOp shape.
                let scrub = (scrub_on > 0).then_some(scrub);
                let beta = (beta_on == 0).then_some(beta);
                let seed = if which == 0 { seed_pool.0 } else { seed_pool.1 };
                mixed_scenario(&format!("s{k}"), scrub, beta, seed)
            })
            .collect();
        let engine: Arc<dyn Engine> = if des {
            Arc::new(DesEngine::new())
        } else {
            Arc::new(TimelineEngine::new())
        };
        let bias = bias_for(bias, des);
        let fused = FusedSweep::new(scenarios.clone())
            .with_engine(engine.clone())
            .with_bias(bias)
            .with_claim_batch(claim);
        let report = fused.run_streaming(groups, threads);
        prop_assert_eq!(report.results.len(), scenarios.len());
        prop_assert!(report.quarantined.is_empty());
        for (k, sc) in scenarios.iter().enumerate() {
            let sequential = Simulator::new(sc.cfg.clone())
                .with_engine(engine.clone())
                .with_bias(bias)
                .with_claim_batch(claim)
                .run_streaming(groups, sc.seed, 1);
            prop_assert_eq!(
                encode(&report.results[k].1),
                encode(&sequential),
                "scenario {} diverged from its sequential run", k
            );
        }
    }

    /// Repeated identical scenarios within a sweep hit the
    /// fingerprint-keyed cache: only distinct identities simulate, the
    /// hit count reports the duplicates, and every duplicate's
    /// aggregate is byte-equal to its sibling's.
    #[test]
    fn duplicates_replay_from_the_cache(
        scrubs in proptest::collection::vec(8.0..400.0f64, 1..4),
        dup_index in 0usize..4,
        groups in 1usize..50,
        threads in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut scenarios: Vec<SweepScenario> = scrubs
            .iter()
            .enumerate()
            .map(|(k, &h)| ladder_scenario(&format!("s{k}"), h, seed))
            .collect();
        let dup = dup_index % scenarios.len();
        let mut repeat = scenarios[dup].clone();
        repeat.label = "repeat".to_string();
        scenarios.push(repeat);
        let fused = FusedSweep::new(scenarios.clone());
        let report = fused.run_streaming(groups, threads);
        prop_assert_eq!(report.simulated as usize, scrubs.len());
        prop_assert!(report.cache_hits >= 1, "the repeated scenario must hit");
        prop_assert_eq!(
            encode(&report.results[dup].1),
            encode(&report.results[scenarios.len() - 1].1),
            "the duplicate replays byte-equal"
        );
    }
}

/// An engine whose sessions panic on one group of the scenarios with
/// `drives` drives, after reading that group's draws — from the draw
/// memo in a bundle, or from the RNG alone.
#[derive(Debug)]
struct PanicOnScenario {
    inner: Arc<dyn Engine>,
    drives: usize,
    marker: u64,
}

#[derive(Debug)]
struct PanicSession<'a> {
    inner: Box<dyn EngineSession + 'a>,
    armed: bool,
    marker: u64,
}

impl PanicSession<'_> {
    fn hit(&self, start: &SimRng) -> bool {
        self.armed && start.clone().next_u64() == self.marker
    }
}

const INJECTED: &str = "injected panic in one scenario of a bundle";

impl EngineSession for PanicSession<'_> {
    fn simulate_group(&mut self, rng: &mut SimRng) -> &GroupHistory {
        if self.hit(rng) {
            self.inner.simulate_group(rng);
            panic!("{INJECTED}");
        }
        self.inner.simulate_group(rng)
    }

    fn simulate_group_memo(&mut self, memo: &mut DrawMemo) -> &GroupHistory {
        if self.hit(memo.start()) {
            self.inner.simulate_group_memo(memo);
            panic!("{INJECTED}");
        }
        self.inner.simulate_group_memo(memo)
    }

    fn counters(&self) -> EngineCounters {
        self.inner.counters()
    }
}

impl Engine for PanicOnScenario {
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
        Box::new(PanicSession {
            inner: self.inner.session_tuned_cached(cfg, bias, tuning, kernels),
            armed: cfg.drives == self.drives,
            marker: self.marker,
        })
    }
}

/// A panic in one scenario of a bundle quarantines only that
/// (scenario, group): every other scenario of the bundle, the same
/// group included, stays byte-equal to its sequential run, and the
/// panicking scenario's own aggregate equals its sequential run's,
/// which quarantines the same group. Both engines, one to three
/// threads.
#[test]
fn a_panic_in_one_scenario_quarantines_only_that_scenario_group() {
    let (seed, groups, target) = (29u64, 40usize, 17u64);
    let mut odd = mixed_scenario("odd", Some(168.0), None, seed);
    odd.cfg.drives = 9;
    let scenarios = vec![
        mixed_scenario("slow", Some(336.0), None, seed),
        odd,
        mixed_scenario("fast", Some(12.0), None, seed),
    ];
    for inner in [
        Arc::new(DesEngine::new()) as Arc<dyn Engine>,
        Arc::new(TimelineEngine::new()),
    ] {
        let engine: Arc<dyn Engine> = Arc::new(PanicOnScenario {
            inner: inner.clone(),
            drives: 9,
            marker: stream(seed, target).next_u64(),
        });
        for threads in 1..=3 {
            let report = FusedSweep::new(scenarios.clone())
                .with_engine(engine.clone())
                .run_streaming(groups, threads);
            assert_eq!(report.quarantined.len(), 1, "{threads} thread(s)");
            let (scenario, group) = &report.quarantined[0];
            assert_eq!((*scenario, group.index), (1, target));
            assert!(group.message.contains("injected panic"));
            assert_eq!(report.results[1].1.groups(), groups as u64 - 1);
            for (k, sc) in scenarios.iter().enumerate() {
                let sequential = Simulator::new(sc.cfg.clone())
                    .with_engine(engine.clone())
                    .run_streaming(groups, sc.seed, 1);
                assert_eq!(
                    encode(&report.results[k].1),
                    encode(&sequential),
                    "scenario {k} at {threads} thread(s)"
                );
            }
        }
    }
}

/// An engine that opens the sessions of the scenarios with `drives`
/// drives under `bias` instead of the sweep's, so one bundle can mix a
/// tilted scenario with plain ones.
#[derive(Debug)]
struct BiasOnScenario {
    inner: Arc<dyn Engine>,
    drives: usize,
    bias: BiasPolicy,
}

impl Engine for BiasOnScenario {
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
        let bias = if cfg.drives == self.drives {
            self.bias
        } else {
            bias
        };
        self.inner.session_tuned_cached(cfg, bias, tuning, kernels)
    }
}

/// One bundle mixing every way a scenario reads the memo's power lanes:
/// two β = 3 scrub rungs (their walks declare a lane they share), a
/// β = 2 scrub rung (a second lane), a scenario with tilted TTLd draws
/// (its TTLd chain walks draw by draw, reading TTScrub powers from the
/// lanes the others declared) and a no-scrub rung (no walk at all). Every scenario is byte-identical to its own run alone and to
/// the same sweep on the cursor-free scalar path, for both engines and
/// one to three threads.
#[test]
fn a_mixed_bundle_matches_per_scenario_runs_and_the_scalar_path() {
    let (seed, groups) = (31u64, 150usize);
    let mut rayleigh = mixed_scenario("beta2", Some(168.0), None, seed);
    rayleigh.cfg.dists.ttscrub = Some(Arc::new(Weibull3::new(6.0, 120.0, 2.0).unwrap()));
    let mut tilted = mixed_scenario("tilted", Some(168.0), None, seed);
    tilted.cfg.drives = 7;
    let scenarios = vec![
        mixed_scenario("beta3_slow", Some(336.0), None, seed),
        rayleigh,
        tilted,
        mixed_scenario("beta3_fast", Some(24.0), None, seed),
        mixed_scenario("no_scrub", None, None, seed),
    ];
    let tilt = BiasPolicy::HazardTilt {
        op_theta: 0.0,
        latent_theta: 0.6,
    };
    for inner in [
        Arc::new(DesEngine::new()) as Arc<dyn Engine>,
        Arc::new(TimelineEngine::new()),
    ] {
        let engine: Arc<dyn Engine> = Arc::new(BiasOnScenario {
            inner: inner.clone(),
            drives: 7,
            bias: tilt,
        });
        let alone: Vec<Vec<u8>> = scenarios
            .iter()
            .map(|sc| {
                let bias = if sc.cfg.drives == 7 {
                    tilt
                } else {
                    BiasPolicy::None
                };
                let stats = Simulator::new(sc.cfg.clone())
                    .with_engine(inner.clone())
                    .with_bias(bias)
                    .run_streaming(groups, sc.seed, 1);
                encode(&stats)
            })
            .collect();
        for threads in 1..=3 {
            for block_draws in [true, false] {
                let report = FusedSweep::new(scenarios.clone())
                    .with_engine(engine.clone())
                    .with_tuning(SessionTuning { block_draws })
                    .run_streaming(groups, threads);
                assert!(report.quarantined.is_empty());
                for (k, want) in alone.iter().enumerate() {
                    assert_eq!(
                        &encode(&report.results[k].1),
                        want,
                        "{} scenario {k}, {threads} thread(s), block_draws {block_draws}",
                        inner.name()
                    );
                }
            }
        }
    }
}

/// A sweep killed after a prefix of its scenarios warm-starts from the
/// persisted cache in a *fresh* invocation: the completed prefix is
/// served from the store (counted in `store_hits`), only the remainder
/// simulates, and every aggregate is byte-equal to a cold full sweep.
#[test]
fn killed_sweep_resumes_from_the_persistent_cache() {
    let dir = temp_cache_dir("resume");
    // Unique artifacts per run of this test: stale files from an
    // earlier execution would be *valid* cache hits (that is the
    // feature), which would make the assertions vacuous.
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos() as u64;
    let all: Vec<SweepScenario> = [336.0, 168.0, 48.0]
        .iter()
        .enumerate()
        .map(|(k, &h)| ladder_scenario(&format!("s{k}"), h, seed))
        .collect();
    let groups = 40;

    // Invocation 1 dies after two scenarios: model it as a sweep over
    // the prefix, persisting through the store.
    {
        let mut cache = SweepCache::with_store(Box::new(FsStore), dir.clone());
        let prefix = FusedSweep::new(all[..2].to_vec());
        let report = prefix.run_streaming_cached(groups, 2, &mut cache);
        assert_eq!(report.simulated, 2);
        assert_eq!(report.store_hits, 0);
        assert_eq!(cache.persist_errors(), 0);
    }

    // Invocation 2: fresh process state (a brand-new cache over the
    // same directory), full scenario list.
    let mut cache = SweepCache::with_store(Box::new(FsStore), dir);
    let fused = FusedSweep::new(all.clone());
    let resumed = fused.run_streaming_cached(groups, 2, &mut cache);
    assert_eq!(resumed.store_hits, 2, "the completed prefix warm-starts");
    assert_eq!(resumed.simulated, 1, "only the remainder simulates");

    // Byte-equal to a cold full sweep of the same scenarios.
    let cold = FusedSweep::new(all).run_streaming(groups, 2);
    for (k, (label, stats)) in resumed.results.iter().enumerate() {
        assert_eq!(label, &cold.results[k].0);
        assert_eq!(
            encode(stats),
            encode(&cold.results[k].1),
            "scenario {k} diverged after resume"
        );
    }
}

/// Collect mode returns per-label histories bit-identical to running
/// every configuration alone with [`Simulator::run_parallel`] under
/// common random numbers — the contract the ablation experiments rely
/// on.
#[test]
fn collect_mode_sweep_matches_independent_runs() {
    let (groups, seed) = (60, 11);
    let scenarios: Vec<SweepScenario> = [12.0, 100.0, 336.0]
        .iter()
        .enumerate()
        .map(|(k, &h)| {
            SweepScenario::new(
                format!("scrub_{k}"),
                RaidGroupConfig::paper_base_case()
                    .unwrap()
                    .with_scrub_policy(ScrubPolicy::with_characteristic_hours(h))
                    .unwrap(),
                seed,
            )
        })
        .collect();
    for threads in [1usize, 2, 3] {
        let results = FusedSweep::new(scenarios.clone()).run_collect(groups, threads);
        for ((label, got), want_sc) in results.iter().zip(&scenarios) {
            assert_eq!(label, &want_sc.label);
            let want = Simulator::new(want_sc.cfg.clone()).run_parallel(groups, seed, 1);
            assert_eq!(got, &want, "label {label} at {threads} threads");
        }
    }
}

/// In-process reuse: running the same sweep twice against one cache
/// simulates nothing the second time and replays byte-equal results.
#[test]
fn second_identical_sweep_is_served_entirely_from_the_cache() {
    let scenarios: Vec<SweepScenario> = [336.0, 48.0]
        .iter()
        .enumerate()
        .map(|(k, &h)| ladder_scenario(&format!("s{k}"), h, 13))
        .collect();
    let fused = FusedSweep::new(scenarios);
    let mut cache = SweepCache::new();
    let first = fused.run_streaming_cached(30, 2, &mut cache);
    assert_eq!(first.simulated, 2);
    assert_eq!(first.cache_hits, 0);
    let second = fused.run_streaming_cached(30, 2, &mut cache);
    assert_eq!(second.simulated, 0);
    assert_eq!(second.cache_hits, 2);
    assert!(
        second.sched.worker_groups.is_empty(),
        "a fully cached sweep spawns no pool"
    );
    for (k, (_, stats)) in second.results.iter().enumerate() {
        assert_eq!(encode(stats), encode(&first.results[k].1));
    }
}
