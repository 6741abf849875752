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
//!
//! Recaptured again when the latent counters started stopping at each
//! group's last operational event (checkpoint format 3). Every case
//! also pins a DDF-side fingerprint that leaves those two counters out
//! (and, for the tie-order case, the engine counters); those were
//! captured before the change and still match, so no DDF, failure,
//! restore, downtime or weight bit moved. The latent-tilted and
//! forced cases pin the weights of the runs that keep drawing latent
//! events to the mission.

use raidsim_core::checkpoint::{DriverState, SimCheckpoint, FORMAT_VERSION};
use raidsim_core::config::{RaidGroupConfig, Redundancy, SparePolicy, TransitionDistributions};
use raidsim_core::engine::{BiasPolicy, DesEngine, Engine, SessionTuning, TimelineEngine};
use raidsim_core::events::GroupHistory;
use raidsim_core::run::{FusedSweep, Simulator};
use raidsim_core::stats::StreamStats;
use raidsim_core::sweep::SweepScenario;
use raidsim_dists::rng::stream;
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, Weibull3,
};
use raidsim_hdd::scrub::ScrubPolicy;
use std::sync::Arc;

/// FNV-1a 64 over the checkpoint serialization of the streamed
/// aggregate — every integer moment, histogram bin, and the group
/// count, byte-exact.
fn stats_fingerprint(stats: &StreamStats, seed: u64, groups: u64) -> u64 {
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

/// FNV-1a 64 over the aggregate's encoding minus its latent counters:
/// every field except `latent_defects` and `scrubs_completed` (bytes
/// 64..80 of [`StreamStats::encode_into`]'s layout) — the DDF moments,
/// kinds and histogram, the operational failures and restores, the
/// downtime, and the weighted moments. Cutting latent chains at a
/// group's last operational event moves only those two counters, so
/// this fingerprint stays fixed across that change while the full one
/// moves.
fn ddf_fingerprint(stats: &StreamStats) -> u64 {
    let mut bytes = Vec::new();
    stats.encode_into(&mut bytes);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, &bytes[..64]);
    fnv1a(&mut hash, &bytes[80..]);
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

/// `(label, config, use timeline engine, sampling measure, groups,
/// seed, expected fingerprint, expected DDF-side fingerprint)`; see
/// [`stats_fingerprint`] and [`ddf_fingerprint`].
type Golden = (
    &'static str,
    RaidGroupConfig,
    bool,
    BiasPolicy,
    usize,
    u64,
    u64,
    u64,
);

fn golden_cases() -> Vec<Golden> {
    let none = BiasPolicy::None;
    let op_tilt = BiasPolicy::HazardTilt {
        op_theta: 0.6,
        latent_theta: 0.0,
    };
    let latent_tilt = BiasPolicy::HazardTilt {
        op_theta: 0.0,
        latent_theta: 0.4,
    };
    let forced = BiasPolicy::ForcedCritical {
        fraction: 0.3,
        window_hours: 96.0,
    };
    vec![
        (
            "base_des",
            base(),
            false,
            none,
            300,
            42,
            0x6510_f9b9_6b7a_d1bd,
            0xe204_40f8_38df_5ff8,
        ),
        (
            "base_timeline",
            base(),
            true,
            none,
            300,
            42,
            0x7a30_16c3_de72_3768,
            0x85e5_93de_d632_f57d,
        ),
        (
            "exp_degenerate",
            exponential_degenerate(),
            false,
            none,
            250,
            7,
            0xbc2e_0d82_8764_5b56,
            0x46b1_166b_ba95_66af,
        ),
        (
            "lognormal_defects",
            lognormal_with_defects(),
            false,
            none,
            250,
            9,
            0xfb5b_bd71_d0f6_a878,
            0x2512_6bfa_4c9b_2a27,
        ),
        (
            "mixture_finite_spares",
            mixture_finite_spares(),
            false,
            none,
            250,
            11,
            0xb9e6_c32b_57e0_1d6d,
            0xd477_ba35_fa05_524c,
        ),
        (
            "competing_risks_timeline",
            competing_risks(),
            true,
            none,
            200,
            13,
            0x8da3_ca91_b315_ec5c,
            0xc133_87cb_8979_2441,
        ),
        (
            "op_tilt_des",
            base(),
            false,
            op_tilt,
            250,
            17,
            0xeb82_dd20_b60f_3aa2,
            0xa97e_8481_be01_f8a6,
        ),
        (
            "latent_tilt_des",
            base(),
            false,
            latent_tilt,
            250,
            19,
            0x36f0_1cc4_6503_6418,
            0x6d18_5ec4_aed3_ddbe,
        ),
        (
            "latent_tilt_timeline",
            base(),
            true,
            latent_tilt,
            250,
            23,
            0x2a53_3ea2_e43c_db27,
            0xa8e2_fbbf_9600_0135,
        ),
        (
            "forced_critical_des",
            base(),
            false,
            forced,
            250,
            29,
            0x8d96_a04c_92b3_92ef,
            0x6a82_3dfa_121a_023e,
        ),
    ]
}

#[test]
fn streamed_aggregates_match_pre_pool_golden_values() {
    for (label, cfg, timeline, bias, groups, seed, expected, expected_ddf) in golden_cases() {
        let mut sim = Simulator::new(cfg).with_bias(bias);
        if timeline {
            sim = sim.with_engine(Arc::new(TimelineEngine::new()));
        }
        for threads in [1usize, 3] {
            let stats = sim.run_streaming(groups, seed, threads);
            let got = stats_fingerprint(&stats, seed, groups as u64);
            let ddf = ddf_fingerprint(&stats);
            if std::env::var("GOLDEN_CAPTURE").is_ok() {
                eprintln!("{label}: full {got:#018x}, ddf {ddf:#018x}");
                continue;
            }
            assert_eq!(
                ddf, expected_ddf,
                "{label} at {threads} thread(s): DDF-side fingerprint {ddf:#018x}, \
                 golden {expected_ddf:#018x}"
            );
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
    let driver = DriverState::precision(0.2, 0.95, 50, 400, 5);
    let (stats, report) = sim
        .run_checkpointed(driver, 3, &(), &(), None, None)
        .expect("no plan and no resume cannot fail");
    let got = stats_fingerprint(&stats, 5, 400);
    let ddf = ddf_fingerprint(&stats);
    if std::env::var("GOLDEN_CAPTURE").is_ok() {
        eprintln!("precision: {got:#018x}, ddf {ddf:#018x}");
        eprintln!("report: {report:?}");
        return;
    }
    assert_eq!(
        ddf, 0xf1cf_346d_a4a2_9866,
        "precision DDF-side fingerprint {ddf:#018x}"
    );
    assert_eq!(
        got, 0x6bc2_9642_8481_9102,
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

/// Pins a bundled timeline ladder: two scrub rungs and a no-scrub rung
/// over clones of one base configuration share a seed, so the fused
/// sweep runs them as one bundle, sharing each group's draw memo and
/// operational phase. Captured before the bundle shared anything past
/// the operational phase, so any bit that sharing latent work moves
/// fails here.
#[test]
fn bundled_timeline_ladder_matches_golden_values() {
    let (groups, seed) = (300usize, 42u64);
    let cfg = base();
    let rung = |label: &str, policy| {
        SweepScenario::new(label, cfg.clone().with_scrub_policy(policy).unwrap(), seed)
    };
    let scenarios = vec![
        rung("336h", ScrubPolicy::with_characteristic_hours(336.0)),
        rung("none", ScrubPolicy::Disabled),
        rung("48h", ScrubPolicy::with_characteristic_hours(48.0)),
    ];
    // `(full, DDF side)` per rung, in scenario order.
    let expected = [
        (0x07d3_d14f_5308_3bf4u64, 0x5184_cd25_8bab_2d3c),
        (0x4d81_cbba_7bfe_39ee, 0x0d7c_78f0_1dbc_1072),
        (0x6080_8af5_3d67_e993, 0xbcd9_5330_23ce_630d),
    ];
    for block_draws in [true, false] {
        for threads in [1usize, 3] {
            let report = FusedSweep::new(scenarios.clone())
                .with_engine(Arc::new(TimelineEngine::new()))
                .with_tuning(SessionTuning { block_draws })
                .run_streaming(groups, threads);
            assert!(report.quarantined.is_empty());
            for ((label, stats), (want, want_ddf)) in report.results.iter().zip(expected) {
                let got = stats_fingerprint(stats, seed, groups as u64);
                let ddf = ddf_fingerprint(stats);
                if std::env::var("GOLDEN_CAPTURE").is_ok() {
                    eprintln!("bundled {label}: full {got:#018x}, ddf {ddf:#018x}");
                    continue;
                }
                let at = format!("rung {label}, {threads} thread(s), block_draws {block_draws}");
                assert_eq!(ddf, want_ddf, "{at}: DDF-side fingerprint {ddf:#018x}");
                assert_eq!(got, want, "{at}: fingerprint {got:#018x}");
            }
        }
    }
}

/// Folds `bytes` into an FNV-1a 64 state.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hashes every field of a group history — DDF times and kinds, the
/// event counts, and the downtime and log-weight bit patterns — or,
/// without `latent_counters`, every field but `latent_defects` and
/// `scrubs_completed` (see [`ddf_fingerprint`]).
fn hash_history(hash: &mut u64, h: &GroupHistory, latent_counters: bool) {
    fnv1a(hash, &(h.ddfs.len() as u64).to_le_bytes());
    for e in &h.ddfs {
        fnv1a(hash, &e.time.to_bits().to_le_bytes());
        fnv1a(hash, &[e.kind as u8]);
    }
    fnv1a(hash, &h.op_failures.to_le_bytes());
    if latent_counters {
        fnv1a(hash, &h.latent_defects.to_le_bytes());
        fnv1a(hash, &h.scrubs_completed.to_le_bytes());
    }
    for count in [
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
/// same loop. The DDF-side half has held since before the loop stopped
/// at the last operational event; the full half was recaptured then.
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
        SessionTuning { block_draws: false },
    ];
    let spares = [
        SparePolicy::AlwaysAvailable,
        SparePolicy::Finite {
            pool: 1,
            replenish_hours: 700.0,
        },
    ];
    // `(full, DDF side)` per tie configuration; the DDF-side hash
    // leaves out the latent counters and the engine counters.
    let expected = [
        (0xfd7e_c1c5_e8c0_5c51u64, 0x3519_ea36_9052_b205),
        (0x5a81_0271_5b03_fd69, 0xd2cf_52ee_2210_3685),
        (0x224b_fe9f_7c93_8987, 0x9155_6a02_f42f_1d6b),
        (0xc4d6_60a3_d99f_92a9, 0x62fc_8e62_d6a0_4495),
    ];
    let engine = DesEngine::new();
    for ((label, dists), (expected, expected_ddf)) in tie_configs().into_iter().zip(expected) {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut ddf = 0xcbf2_9ce4_8422_2325u64;
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
                            let h = session.simulate_group(&mut stream(2007, g));
                            hash_history(&mut hash, h, true);
                            hash_history(&mut ddf, h, false);
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
            eprintln!("{label}: full {hash:#018x}, ddf {ddf:#018x}");
            continue;
        }
        assert_eq!(
            ddf, expected_ddf,
            "{label}: DDF-side tie-order fingerprint {ddf:#018x}, golden {expected_ddf:#018x}"
        );
        assert_eq!(
            hash, expected,
            "{label}: tie-order fingerprint {hash:#018x}, golden {expected:#018x}"
        );
    }
}
