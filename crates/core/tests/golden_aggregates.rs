//! Golden aggregate fingerprints: pins the exact bit-level output of
//! the runner for a spread of configurations covering every sampling
//! path (three-parameter Weibull, exponential, lognormal, degenerate,
//! mixture, competing risks; always-available and finite spares; both
//! engines; defect reset on and off).
//!
//! The values below were captured from the dynamic-scheduler runner
//! before the persistent worker pool and the monomorphic sampling
//! kernels landed, so any bit-level drift introduced by scheduler or
//! sampling rework fails here — not just divergence between two
//! code paths that changed together.
//!
//! Recaptured when the checkpoint format moved to version 2 (weighted
//! moments appended to `StreamStats`). The sampling path was verified
//! unchanged at the recapture: the pinned `PrecisionReport` Debug
//! string below — which depends only on the simulated moments, not
//! the codec — matched the pre-version-2 value byte for byte, and the
//! version-2 weighted fields of an unbiased run are exact integer
//! functions of the version-1 fields, so the new fingerprints pin the
//! same sampling behavior.

use raidsim_core::checkpoint::{DriverState, SimCheckpoint, FORMAT_VERSION};
use raidsim_core::config::{RaidGroupConfig, Redundancy, SparePolicy, TransitionDistributions};
use raidsim_core::engine::{BiasPolicy, DesEngine, Engine, SessionTuning, TimelineEngine};
use raidsim_core::events::GroupHistory;
use raidsim_core::run::Simulator;
use raidsim_dists::rng::stream;
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, Weibull3,
};
use std::sync::Arc;

/// FNV-1a 64 over the checkpoint serialization of the streamed
/// aggregate — every integer moment, histogram bin, and the group
/// count, byte-exact.
fn stats_fingerprint(stats: &raidsim_core::stats::StreamStats, seed: u64, groups: u64) -> u64 {
    let ckpt = SimCheckpoint {
        format_version: FORMAT_VERSION,
        fingerprint: 0,
        driver: DriverState::fixed(groups.max(stats.groups()), 1, seed),
        stats: stats.clone(),
    };
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &ckpt.to_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn base() -> RaidGroupConfig {
    RaidGroupConfig::paper_base_case().unwrap()
}

fn exponential_degenerate() -> RaidGroupConfig {
    RaidGroupConfig {
        dists: TransitionDistributions {
            ttop: Arc::new(Exponential::from_mean(40_000.0).unwrap()),
            ttr: Arc::new(Degenerate::new(24.0).unwrap()),
            ttld: None,
            ttscrub: None,
        },
        ..base()
    }
}

fn lognormal_with_defects() -> RaidGroupConfig {
    RaidGroupConfig {
        drives: 6,
        redundancy: Redundancy::SingleParity,
        dists: TransitionDistributions {
            ttop: Arc::new(Lognormal::from_mean_cv(0.0, 35_000.0, 1.4).unwrap()),
            ttr: Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap()),
            ttld: Some(Arc::new(Weibull3::two_param(9_000.0, 1.0).unwrap())),
            ttscrub: Some(Arc::new(Weibull3::new(1.0, 168.0, 3.0).unwrap())),
        },
        ..base()
    }
}

fn mixture_finite_spares() -> RaidGroupConfig {
    let infant: Arc<dyn LifeDistribution> = Arc::new(Weibull3::two_param(8_000.0, 0.8).unwrap());
    let mature: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(60_000.0).unwrap());
    RaidGroupConfig {
        dists: TransitionDistributions {
            ttop: Arc::new(Mixture::new(vec![(0.3, infant), (0.7, mature)]).unwrap()),
            ..base().dists
        },
        spares: SparePolicy::Finite {
            pool: 2,
            replenish_hours: 336.0,
        },
        defect_reset_on_replacement: true,
        ..base()
    }
}

fn competing_risks() -> RaidGroupConfig {
    let wear: Arc<dyn LifeDistribution> = Arc::new(Weibull3::two_param(50_000.0, 2.2).unwrap());
    let shock: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(150_000.0).unwrap());
    RaidGroupConfig {
        redundancy: Redundancy::DoubleParity,
        dists: TransitionDistributions {
            ttop: Arc::new(CompetingRisks::new(vec![wear, shock]).unwrap()),
            ..base().dists
        },
        ..base()
    }
}

/// `(label, config, use timeline engine, groups, seed, expected
/// fingerprint)`.
fn golden_cases() -> Vec<(&'static str, RaidGroupConfig, bool, usize, u64, u64)> {
    vec![
        ("base_des", base(), false, 300, 42, 0xd859_5659_71fb_2163),
        (
            "base_timeline",
            base(),
            true,
            300,
            42,
            0x5d91_cb40_7667_ec5b,
        ),
        (
            "exp_degenerate",
            exponential_degenerate(),
            false,
            250,
            7,
            0x1cc4_c893_bfc1_b232,
        ),
        (
            "lognormal_defects",
            lognormal_with_defects(),
            false,
            250,
            9,
            0x7ce8_f661_724b_9010,
        ),
        (
            "mixture_finite_spares",
            mixture_finite_spares(),
            false,
            250,
            11,
            0x6f05_d506_acfd_75d0,
        ),
        (
            "competing_risks_timeline",
            competing_risks(),
            true,
            200,
            13,
            0xdf65_8d7c_7871_7a4c,
        ),
    ]
}

#[test]
fn streamed_aggregates_match_pre_pool_golden_values() {
    for (label, cfg, timeline, groups, seed, expected) in golden_cases() {
        let mut sim = Simulator::new(cfg);
        if timeline {
            sim = sim.with_engine(Arc::new(TimelineEngine::new()));
        }
        for threads in [1usize, 3] {
            let stats = sim.run_streaming(groups, seed, threads);
            let got = stats_fingerprint(&stats, seed, groups as u64);
            if std::env::var("GOLDEN_CAPTURE").is_ok() {
                eprintln!("{label}: {got:#018x}");
                continue;
            }
            assert_eq!(
                got, expected,
                "{label} at {threads} thread(s): fingerprint {got:#018x}, \
                 golden {expected:#018x}"
            );
        }
    }
}

#[test]
fn precision_run_matches_pre_pool_golden_values() {
    let sim = Simulator::new(base());
    let (stats, report) = sim.run_until_precision_streaming(0.2, 0.95, 50, 400, 5, 3);
    let got = stats_fingerprint(&stats, 5, 400);
    if std::env::var("GOLDEN_CAPTURE").is_ok() {
        eprintln!("precision: {got:#018x}");
        eprintln!("report: {report:?}");
        return;
    }
    assert_eq!(
        got, 0x8b3b_02de_e1f9_d3a0,
        "precision stats fingerprint {got:#018x}"
    );
    let rendered = format!("{report:?}");
    assert_eq!(
        rendered,
        "PrecisionReport { mean: 0.145, half_width: 0.03657884471752941, \
         confidence: 0.95, groups: 400, converged: false, criterion: GroupCap, \
         quarantined: 0 }",
    );
}

/// Folds `bytes` into an FNV-1a 64 state.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hashes every field of a group history — DDF times and kinds, the
/// event counts, and the downtime and log-weight bit patterns.
fn hash_history(hash: &mut u64, h: &GroupHistory) {
    fnv1a(hash, &(h.ddfs.len() as u64).to_le_bytes());
    for e in &h.ddfs {
        fnv1a(hash, &e.time.to_bits().to_le_bytes());
        fnv1a(hash, &[e.kind as u8]);
    }
    for count in [
        h.op_failures,
        h.latent_defects,
        h.scrubs_completed,
        h.restores_completed,
        h.downtime_hours.to_bits(),
        h.log_weight.to_bits(),
    ] {
        fnv1a(hash, &count.to_le_bytes());
    }
}

/// Lifetime configurations whose operational and latent events tie
/// exactly — within a slot and across slots — so any change to the
/// order the discrete-event loop processes simultaneous events shows
/// up in the histories.
fn tie_configs() -> Vec<(&'static str, TransitionDistributions)> {
    let deg = |h: f64| -> Arc<dyn LifeDistribution> { Arc::new(Degenerate::new(h).unwrap()) };
    let mix = || -> Arc<dyn LifeDistribution> {
        let exp: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(0.0, 800.0, 1.0).unwrap());
        Arc::new(Mixture::new(vec![(0.5, deg(500.0)), (0.5, exp)]).unwrap())
    };
    let scripted = |ttr| TransitionDistributions {
        ttop: deg(1_000.0),
        ttr,
        ttld: Some(deg(500.0)),
        ttscrub: Some(deg(500.0)),
    };
    let mixed = |ttr| TransitionDistributions {
        ttop: mix(),
        ttr,
        ttld: Some(mix()),
        ttscrub: Some(mix()),
    };
    vec![
        ("degenerate, short restore", scripted(deg(10.0))),
        ("degenerate, restore ties scrub", scripted(deg(500.0))),
        ("atom mixtures, short restore", mixed(deg(10.0))),
        ("atom mixtures, mixture restore", mixed(mix())),
    ]
}

/// Pins the discrete-event engine's processing order for simultaneous
/// events. Captured before the event loop split latent-only stretches
/// into an inner loop, so it proves the two-level loop kept the
/// single-scan `(time, slot, operational-before-latent)` order — the
/// block-vs-scalar equivalence tests cannot, as both tunings run the
/// same loop.
#[test]
fn des_tie_order_matches_single_scan_golden_values() {
    let biases = [
        BiasPolicy::None,
        BiasPolicy::HazardTilt {
            op_theta: 0.5,
            latent_theta: 0.3,
        },
        BiasPolicy::ForcedCritical {
            fraction: 0.3,
            window_hours: 48.0,
        },
    ];
    let tunings = [
        SessionTuning::default(),
        SessionTuning {
            block_draws: false,
            ..SessionTuning::default()
        },
    ];
    let spares = [
        SparePolicy::AlwaysAvailable,
        SparePolicy::Finite {
            pool: 1,
            replenish_hours: 700.0,
        },
    ];
    let expected = [
        0x7b14_da8f_ae08_e511u64,
        0x019b_5188_1297_3d61,
        0xf4c8_dfe5_d471_b367,
        0xdc5e_4357_f7f7_803f,
    ];
    let engine = DesEngine::new();
    for ((label, dists), expected) in tie_configs().into_iter().zip(expected) {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for defect_reset_on_replacement in [false, true] {
            for spares in spares {
                let cfg = RaidGroupConfig {
                    mission_hours: 20_000.0,
                    dists: dists.clone(),
                    defect_reset_on_replacement,
                    spares,
                    ..base()
                };
                cfg.validate().unwrap();
                for bias in biases {
                    for tuning in tunings {
                        let mut session = engine.session_tuned(&cfg, bias, tuning);
                        for g in 0..12 {
                            hash_history(&mut hash, session.simulate_group(&mut stream(2007, g)));
                        }
                        let c = session.counters();
                        for count in [
                            c.groups,
                            c.samples_drawn,
                            c.events,
                            c.loop_allocs,
                            c.scratch_grows,
                        ] {
                            fnv1a(&mut hash, &count.to_le_bytes());
                        }
                    }
                }
            }
        }
        if std::env::var("GOLDEN_CAPTURE").is_ok() {
            eprintln!("{label}: {hash:#018x}");
            continue;
        }
        assert_eq!(
            hash, expected,
            "{label}: tie-order fingerprint {hash:#018x}, golden {expected:#018x}"
        );
    }
}
