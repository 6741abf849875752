//! Shard-scatter/merge bit-identity, and full-run equivalence of the
//! prefetched and horizon-cut sampling paths against the scalar loops.
//!
//! The contracts under test (DESIGN.md §18):
//!
//! * `merge_shards` over any exact tiling of `[0, G)`, at any shard
//!   count, merged in any order, produces a checkpoint **byte-equal**
//!   to the one an unsharded run writes — per-group RNG streams are a
//!   pure function of `(seed, index)` and `StreamStats` partials are
//!   exact integers with an associative, commutative merge.
//! * The default session tuning (horizon-cut init draws and prefetched
//!   event-loop draws) is draw-for-draw bit-identical to the fully
//!   scalar path, for both engines, across a configuration matrix and
//!   every importance-sampling policy.
//! * Merges refuse mismatched shards with typed errors instead of
//!   silently producing wrong statistics.

use raidsim_core::checkpoint::{
    merge_shards, CheckpointError, DriverState, SimCheckpoint, FORMAT_VERSION,
};
use raidsim_core::config::{RaidGroupConfig, Redundancy, SparePolicy, TransitionDistributions};
use raidsim_core::engine::{BiasPolicy, SessionTuning, TimelineEngine};
use raidsim_core::run::{shard_range, Simulator};
use raidsim_dists::{CompetingRisks, Degenerate, Exponential, Lognormal, Mixture, Weibull3};
use std::sync::Arc;

fn base() -> RaidGroupConfig {
    RaidGroupConfig::paper_base_case().unwrap()
}

/// Builds the shard snapshot exactly as the CLI does: the driver's
/// `max_groups` is the shard's exclusive upper bound and the batch is
/// derived from the total group count.
fn shard_snapshot(sim: &Simulator, total: u64, index: u64, count: u64, seed: u64) -> SimCheckpoint {
    let (lo, hi) = shard_range(total, index, count);
    let (stats, quarantine) = sim.run_shard(lo, hi, seed, 1, &());
    assert!(quarantine.is_empty());
    SimCheckpoint {
        format_version: FORMAT_VERSION,
        fingerprint: sim.run_fingerprint(),
        driver: DriverState::fixed(hi, total.clamp(100, 1_000), seed),
        stats,
    }
}

/// The checkpoint an unsharded fixed run over `[0, total)` leaves
/// behind.
fn unsharded_snapshot(sim: &Simulator, total: u64, seed: u64) -> SimCheckpoint {
    let stats = sim.run_streaming(total as usize, seed, 1);
    SimCheckpoint {
        format_version: FORMAT_VERSION,
        fingerprint: sim.run_fingerprint(),
        driver: DriverState::fixed(total, total.clamp(100, 1_000), seed),
        stats,
    }
}

#[test]
fn merged_shards_are_byte_equal_to_unsharded_at_every_count() {
    for (cfg, bias) in [
        (base(), BiasPolicy::None),
        (
            RaidGroupConfig {
                redundancy: Redundancy::DoubleParity,
                ..base()
            },
            BiasPolicy::None,
        ),
        (
            base(),
            BiasPolicy::HazardTilt {
                op_theta: 0.4,
                latent_theta: 0.2,
            },
        ),
    ] {
        let sim = Simulator::new(cfg).with_bias(bias);
        for seed in [7u64, 1234] {
            let total = 173u64; // not a multiple of any shard count below
            let reference = unsharded_snapshot(&sim, total, seed).to_bytes();
            for count in [1u64, 2, 4, 5] {
                let mut shards: Vec<SimCheckpoint> = (0..count)
                    .map(|i| shard_snapshot(&sim, total, i, count, seed))
                    .collect();
                // Merge order must not matter.
                shards.reverse();
                let merged = merge_shards(shards).unwrap();
                assert_eq!(
                    merged.to_bytes(),
                    reference,
                    "merge of {count} shards diverged from the unsharded run \
                     (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn zero_width_shards_merge_cleanly() {
    // More shards than groups: some slices are empty.
    let sim = Simulator::new(base());
    let total = 3u64;
    let reference = unsharded_snapshot(&sim, total, 11).to_bytes();
    let shards: Vec<SimCheckpoint> = (0..5)
        .map(|i| shard_snapshot(&sim, total, i, 5, 11))
        .collect();
    assert!(shards.iter().any(|s| s.stats.groups() == 0));
    assert_eq!(merge_shards(shards).unwrap().to_bytes(), reference);
}

#[test]
fn merge_refuses_mismatched_shards() {
    let sim = Simulator::new(base());
    let total = 60u64;
    let s0 = shard_snapshot(&sim, total, 0, 2, 7);
    let s1 = shard_snapshot(&sim, total, 1, 2, 7);

    // Empty input.
    assert!(matches!(
        merge_shards(vec![]),
        Err(CheckpointError::ConfigMismatch {
            field: "shards",
            ..
        })
    ));

    // Seed mismatch.
    let other_seed = shard_snapshot(&sim, total, 1, 2, 8);
    assert!(matches!(
        merge_shards(vec![s0.clone(), other_seed]),
        Err(CheckpointError::ConfigMismatch { field: "seed", .. })
    ));

    // Fingerprint mismatch (different configuration).
    let raid6 = Simulator::new(RaidGroupConfig {
        redundancy: Redundancy::DoubleParity,
        ..base()
    });
    let foreign = shard_snapshot(&raid6, total, 1, 2, 7);
    assert!(matches!(
        merge_shards(vec![s0.clone(), foreign]),
        Err(CheckpointError::ConfigMismatch {
            field: "fingerprint",
            ..
        })
    ));

    // Gap: [0, 30) + [45, 60).
    let quarter = shard_snapshot(&sim, total, 3, 4, 7);
    assert!(matches!(
        merge_shards(vec![s0.clone(), quarter]),
        Err(CheckpointError::ConfigMismatch { field: "range", .. })
    ));

    // Overlap: [0, 30) + [0, 15) + [30, 60).
    let overlap = shard_snapshot(&sim, total, 0, 4, 7);
    assert!(matches!(
        merge_shards(vec![s0.clone(), overlap, s1.clone()]),
        Err(CheckpointError::ConfigMismatch { field: "range", .. })
    ));

    // Precision-mode snapshots are not shards.
    let mut precision = s1.clone();
    precision.driver.precision_mode = true;
    assert!(matches!(
        merge_shards(vec![s0, precision]),
        Err(CheckpointError::ConfigMismatch { field: "mode", .. })
    ));
}

/// Configurations that reach every kind of event-loop draw site: the
/// base case plus variable-word and composite kernels, a point-mass
/// scrub, a finite spare pool, and defect reset on replacement. The
/// horizon cut's edges ride along: a short mission and a TTOp location
/// just under the mission (almost every mission-start lifetime cut), a
/// location beyond the mission (every lifetime past it, outside the
/// cut's domain) and a small-scale TTOp (a cut that never triggers).
fn equivalence_configs() -> Vec<(&'static str, RaidGroupConfig)> {
    let dists = base().dists;
    let with_dists = |dists: TransitionDistributions| RaidGroupConfig { dists, ..base() };
    let with_ttop = |gamma: f64, eta: f64| {
        with_dists(TransitionDistributions {
            ttop: Arc::new(Weibull3::new(gamma, eta, 1.12).unwrap()),
            ..dists.clone()
        })
    };
    let mission = base().mission_hours;
    vec![
        ("base", base()),
        (
            "mixture ttop",
            with_dists(TransitionDistributions {
                ttop: Arc::new(
                    Mixture::new(vec![
                        (
                            0.2,
                            Arc::new(Weibull3::two_param(40_000.0, 0.8).unwrap()) as _,
                        ),
                        (0.8, Arc::clone(&dists.ttop)),
                    ])
                    .unwrap(),
                ),
                ..dists.clone()
            }),
        ),
        (
            "competing ttop",
            with_dists(TransitionDistributions {
                ttop: Arc::new(
                    CompetingRisks::new(vec![
                        Arc::clone(&dists.ttop),
                        Arc::new(Exponential::from_mean(150_000.0).unwrap()) as _,
                    ])
                    .unwrap(),
                ),
                ..dists.clone()
            }),
        ),
        (
            "lognormal ttr",
            with_dists(TransitionDistributions {
                ttr: Arc::new(Lognormal::new(6.0, 12.0f64.ln(), 0.6).unwrap()),
                ..dists.clone()
            }),
        ),
        (
            "degenerate ttscrub",
            with_dists(TransitionDistributions {
                ttscrub: Some(Arc::new(Degenerate::new(168.0).unwrap())),
                ..dists.clone()
            }),
        ),
        (
            "finite spares",
            RaidGroupConfig {
                spares: SparePolicy::Finite {
                    pool: 1,
                    replenish_hours: 336.0,
                },
                ..base()
            },
        ),
        (
            "defect reset",
            RaidGroupConfig {
                defect_reset_on_replacement: true,
                ..base()
            },
        ),
        (
            "short mission",
            RaidGroupConfig {
                mission_hours: 1_000.0,
                ..base()
            },
        ),
        (
            "ttop location near mission",
            with_ttop(mission - 600.0, 461_386.0),
        ),
        (
            "ttop location beyond mission",
            with_ttop(mission + 1_000.0, 461_386.0),
        ),
        ("small-scale ttop", with_ttop(0.0, 5_000.0)),
    ]
}

#[test]
fn default_block_tuning_is_bit_identical_to_scalar_for_both_engines() {
    let scalar = SessionTuning { block_draws: false };
    for (name, cfg) in equivalence_configs() {
        for bias in [
            BiasPolicy::None,
            BiasPolicy::HazardTilt {
                op_theta: 0.5,
                latent_theta: 0.3,
            },
            BiasPolicy::ForcedCritical {
                fraction: 0.3,
                window_hours: 48.0,
            },
        ] {
            // Discrete-event engine (default): cut init draws, and
            // every event-loop draw through the cursor.
            let des_block = Simulator::new(cfg.clone()).with_bias(bias);
            let des_scalar = Simulator::new(cfg.clone())
                .with_bias(bias)
                .with_tuning(scalar);
            assert_eq!(
                des_block.run_streaming(150, 42, 1),
                des_scalar.run_streaming(150, 42, 1),
                "DES block path diverged from scalar for {name} under {bias:?}"
            );

            // Pairwise-timeline engine: every draw through the cursor,
            // first phase-1 TTOp draws cut. Forcing is DES-only.
            if matches!(bias, BiasPolicy::ForcedCritical { .. }) {
                continue;
            }
            let tl_block = Simulator::new(cfg.clone())
                .with_engine(Arc::new(TimelineEngine::new()))
                .with_bias(bias);
            let tl_scalar = Simulator::new(cfg.clone())
                .with_engine(Arc::new(TimelineEngine::new()))
                .with_bias(bias)
                .with_tuning(scalar);
            assert_eq!(
                tl_block.run_streaming(150, 42, 1),
                tl_scalar.run_streaming(150, 42, 1),
                "timeline block path diverged from scalar for {name} under {bias:?}"
            );
        }
    }
}

#[test]
fn block_tuning_is_scheduling_invariant() {
    // Threads exercise the pool path, which opens tuned sessions per
    // worker; results must match the serial runner bit for bit.
    let sim = Simulator::new(base());
    assert_eq!(sim.run_streaming(120, 5, 1), sim.run_streaming(120, 5, 3));
}

#[test]
fn forced_critical_bias_stays_scalar_but_completes_under_block_tuning() {
    // ForcedCritical redraws are per-event and data-dependent; under
    // block tuning they read raw words through the prefetching cursor.
    // The run completing with the same result as the explicit scalar
    // tuning proves the cursor never desynchronizes the stream.
    let bias = BiasPolicy::ForcedCritical {
        fraction: 0.3,
        window_hours: 48.0,
    };
    let block = Simulator::new(base()).with_bias(bias);
    let scalar = Simulator::new(base())
        .with_bias(bias)
        .with_tuning(SessionTuning { block_draws: false });
    assert_eq!(
        block.run_streaming(100, 13, 1),
        scalar.run_streaming(100, 13, 1)
    );
}

/// The fingerprint the removed float-rewrite tuning stamped on its
/// artifacts: FNV-1a over the exact fingerprint's little-endian bytes,
/// then the tag below.
fn legacy_tagged_fingerprint(base: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in base.to_le_bytes().iter().chain(b"fast-math") {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn leftover_rewrite_tagged_artifacts_get_a_typed_refusal() {
    let sim = Simulator::new(base());
    let scalar = Simulator::new(base()).with_tuning(SessionTuning { block_draws: false });
    assert_eq!(sim.run_fingerprint(), scalar.run_fingerprint());

    // A shard left on disk by a run under the removed tuning.
    let total = 60u64;
    let s0 = shard_snapshot(&sim, total, 0, 2, 7);
    let mut tagged = shard_snapshot(&sim, total, 1, 2, 7);
    tagged.fingerprint = legacy_tagged_fingerprint(sim.run_fingerprint());
    assert_ne!(tagged.fingerprint, sim.run_fingerprint());
    assert!(matches!(
        merge_shards(vec![s0, tagged.clone()]),
        Err(CheckpointError::ConfigMismatch {
            field: "fingerprint",
            ..
        })
    ));
    // Resuming from it is refused before any simulation work.
    assert!(matches!(
        tagged.validate_for(sim.run_fingerprint(), &tagged.driver),
        Err(CheckpointError::ConfigMismatch {
            field: "config",
            ..
        })
    ));
}
