//! Property-based guarantees for the streaming-aggregation layer: for
//! *any* configuration, group count, seed, and thread count, the
//! bounded-memory path must reproduce the stored-history path
//! **bit-identically** — the accumulator's exact-integer moments make
//! this provable, and these tests make sure it stays true.

use proptest::prelude::*;
use raidsim_core::checkpoint::DriverState;
use raidsim_core::config::{RaidGroupConfig, Redundancy, TransitionDistributions};
use raidsim_core::run::{Simulator, StopCriterion};
use raidsim_core::stats::StreamStats;
use raidsim_dists::{LifeDistribution, Weibull3};
use std::sync::Arc;

/// Strategy over configurations spanning the model space: group sizes,
/// mission lengths, failure scales from stress-test-fast to realistic,
/// optional latent defects and scrubbing, both redundancy levels.
fn configs() -> impl Strategy<Value = RaidGroupConfig> {
    (
        2usize..10,
        proptest::bool::ANY,
        2_000.0..90_000.0f64,
        (1_000.0..4.0e5f64, 0.7..2.0f64),
        proptest::option::of((500.0..20_000.0f64, proptest::option::of(24.0..400.0f64))),
    )
        .prop_filter_map(
            "drives must exceed parity",
            |(drives, double, mission, (op_eta, op_beta), ld)| {
                let redundancy = if double {
                    Redundancy::DoubleParity
                } else {
                    Redundancy::SingleParity
                };
                if drives <= redundancy.tolerated() {
                    return None;
                }
                let ttld: Option<Arc<dyn LifeDistribution>> =
                    ld.map(|(e, _)| Arc::new(Weibull3::two_param(e, 1.0).unwrap()) as _);
                let ttscrub: Option<Arc<dyn LifeDistribution>> = ld
                    .and_then(|(_, s)| s)
                    .map(|e| Arc::new(Weibull3::new(1.0, e, 3.0).unwrap()) as _);
                Some(RaidGroupConfig {
                    drives,
                    redundancy,
                    mission_hours: mission,
                    dists: TransitionDistributions {
                        ttop: Arc::new(Weibull3::two_param(op_eta, op_beta).unwrap()),
                        ttr: Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap()),
                        ttld,
                        ttscrub,
                    },
                    defect_reset_on_replacement: false,
                    spares: raidsim_core::config::SparePolicy::AlwaysAvailable,
                })
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: streaming == stored, bit for bit, for
    /// any (config, groups, seed) at any thread count.
    #[test]
    fn streaming_reproduces_stored_statistics_bit_identically(
        cfg in configs(),
        n_groups in 1usize..120,
        seed in any::<u64>(),
        threads_a in 1usize..5,
        threads_b in 1usize..5,
    ) {
        let sim = Simulator::new(cfg);
        let stored = sim.run_parallel(n_groups, seed, threads_a);
        let streamed = sim.run_streaming(n_groups, seed, threads_b);
        prop_assert_eq!(StreamStats::from_result(&stored), streamed);
    }

    /// The streamed precision loop makes the same decisions as the
    /// stored one: identical report (same stopping batch, criterion,
    /// mean, half-width) and identical aggregates — while doing O(batch)
    /// work per batch instead of rescanning all retained histories.
    #[test]
    fn streamed_precision_run_is_identical_to_stored(
        cfg in configs(),
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let sim = Simulator::new(cfg);
        let (result, stored_report) =
            sim.run_until_precision(0.25, 0.95, 20, 100, seed, threads);
        let driver = DriverState::precision(0.25, 0.95, 20, 100, seed);
        let (stats, streamed_report) = sim
            .run_checkpointed(driver, threads, &(), &(), None, None)
            .expect("no plan and no resume cannot fail");
        prop_assert_eq!(stored_report, streamed_report);
        prop_assert_eq!(StreamStats::from_result(&result), stats);
    }
}

/// Regression: a configuration that produces no DDFs at all must still
/// converge (via the absolute half-width floor) instead of burning
/// every run to the group cap — the original `mean == 0`
/// non-convergence bug.
#[test]
fn zero_ddf_precision_run_converges() {
    let mut cfg = RaidGroupConfig::paper_base_case().unwrap();
    // Operational failures effectively never happen: no DDF can form.
    cfg.dists.ttop = Arc::new(Weibull3::two_param(1e15, 1.0).unwrap());
    let sim = Simulator::new(cfg);
    let driver = DriverState::precision(0.05, 0.95, 40, 4_000, 3);
    let (stats, report) = sim
        .run_checkpointed(driver, 2, &(), &(), None, None)
        .expect("no plan and no resume cannot fail");
    assert!(report.converged, "{report:?}");
    assert_eq!(report.criterion, StopCriterion::AbsoluteFloor);
    assert_eq!(report.mean, 0.0);
    assert_eq!(stats.total_ddfs(), 0);
    // Two batches, not the 4,000-group cap: n >= 2 after batch one, but
    // the driver needs a second batch only if the first can't certify
    // the floor — either way far below the cap.
    assert!(report.groups <= 80, "took {} groups", report.groups);
}
