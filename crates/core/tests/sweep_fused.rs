//! Fused-sweep guarantees: fusing a family of scenarios into one job
//! of per-scenario slices must be **invisible** in the statistics.
//! For any scenario list, seeds, thread count, and claim-batch size,
//! the fused runner's per-scenario aggregates must be byte-identical to
//! a sequential single-threaded run of each scenario alone; repeated
//! scenarios must replay from the fingerprint-keyed cache without
//! re-simulating; and a sweep resumed in a fresh process must
//! warm-start byte-identically from the persisted cache.

use proptest::prelude::*;
use raidsim_core::config::RaidGroupConfig;
use raidsim_core::run::{sweep, FusedSweep, Simulator};
use raidsim_core::stats::StreamStats;
use raidsim_core::store::FsStore;
use raidsim_core::sweep::{SweepCache, SweepScenario};
use raidsim_hdd::scrub::ScrubPolicy;
use std::path::PathBuf;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Per-scenario aggregates of a fused sweep are byte-identical to a
    /// sequential single-threaded run of each scenario, for random
    /// `(scenario list, seeds, groups, threads, claim_batch)` tuples —
    /// the bit-identity boundary the fused scheduler promises.
    #[test]
    fn fused_matches_sequential_per_scenario(
        scrubs in proptest::collection::vec(8.0..400.0f64, 1..5),
        seeds in proptest::collection::vec(0u64..500, 5),
        groups in 1usize..60,
        threads in 1usize..4,
        claim in 1u64..40,
    ) {
        let scenarios: Vec<SweepScenario> = scrubs
            .iter()
            .enumerate()
            .map(|(k, &h)| ladder_scenario(&format!("s{k}"), h, seeds[k]))
            .collect();
        let fused = FusedSweep::new(scenarios.clone()).with_claim_batch(claim);
        let report = fused.run_streaming(groups, threads);
        prop_assert_eq!(report.results.len(), scenarios.len());
        for (k, sc) in scenarios.iter().enumerate() {
            let sequential = Simulator::new(sc.cfg.clone())
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

/// The public `sweep` entry point (now fused) still returns per-label
/// histories bit-identical to running every configuration alone with
/// [`Simulator::run`] under common random numbers — the contract the
/// ablation experiments rely on.
#[test]
fn collect_mode_sweep_matches_independent_runs() {
    let configs: Vec<(String, RaidGroupConfig)> = [12.0, 100.0, 336.0]
        .iter()
        .enumerate()
        .map(|(k, &h)| {
            (
                format!("scrub_{k}"),
                RaidGroupConfig::paper_base_case()
                    .unwrap()
                    .with_scrub_policy(ScrubPolicy::with_characteristic_hours(h))
                    .unwrap(),
            )
        })
        .collect();
    let (groups, seed) = (60, 11);
    for threads in [1usize, 2, 3] {
        let results = sweep(configs.clone(), groups, seed, threads);
        for ((label, got), (want_label, cfg)) in results.iter().zip(&configs) {
            assert_eq!(label, want_label);
            let want = Simulator::new(cfg.clone()).run(groups, seed);
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
