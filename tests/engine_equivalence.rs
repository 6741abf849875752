//! The two simulation engines implement the same semantics with
//! different structures (event loop vs pre-generated timelines + sweep).
//! Their estimates must agree statistically on every experiment
//! configuration — this is the strongest internal check the
//! reproduction has, since the paper's own implementation is not
//! available.

use raidsim::config::{RaidGroupConfig, Redundancy, TransitionDistributions};
use raidsim::engine::{DesEngine, TimelineEngine};
use raidsim::events::GroupHistory;
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::run::{SimulationResult, Simulator};
use std::sync::Arc;

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// A per-group count read off a history.
type Counter = fn(&GroupHistory) -> u64;

/// Welch's z for the difference of the mean of `field` between two
/// runs, from the per-group sample variances; `0` when neither run
/// varies and the means agree, infinite when they differ.
fn welch_z(a: &SimulationResult, b: &SimulationResult, field: Counter) -> f64 {
    let moments = |r: &SimulationResult| {
        let x: Vec<f64> = r.histories.iter().map(|h| field(h) as f64).collect();
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var / n)
    };
    let ((ma, sa), (mb, sb)) = (moments(a), moments(b));
    if ma == mb {
        return 0.0;
    }
    (ma - mb) / (sa + sb).sqrt()
}

/// Runs both engines on the same config (different, independent seeds)
/// and asserts the DDF counts agree within combined sampling noise.
fn assert_engines_agree(cfg: RaidGroupConfig, groups: usize, label: &str) {
    let des = Simulator::new(cfg.clone()).run_parallel(groups, 1000, threads());
    let timeline = Simulator::new(cfg)
        .with_engine(Arc::new(TimelineEngine::new()))
        .run_parallel(groups, 2000, threads());
    let a = des.total_ddfs() as f64;
    let b = timeline.total_ddfs() as f64;
    // Counts are near-Poisson; allow 4 x combined sigma plus slack for
    // very small counts.
    let sigma = (a + b).sqrt();
    assert!(
        (a - b).abs() <= 4.0 * sigma + 8.0,
        "{label}: des = {a}, timeline = {b}"
    );
    // Secondary statistics agree within the same near-Poisson noise
    // model as the primary DDF check.
    let ops_a = des.total_op_failures() as f64;
    let ops_b = timeline.total_op_failures() as f64;
    let ops_sigma = (ops_a + ops_b).sqrt();
    assert!(
        (ops_a - ops_b).abs() <= 4.0 * ops_sigma + 8.0,
        "{label}: op failure counts diverge (des = {ops_a}, timeline = {ops_b})"
    );
    // The latent counters stop at each group's last operational
    // event, which makes them far more dispersed than Poisson counts
    // (per-group sd ≈ 28 against ≈ 6 on the base case), so they are
    // compared at 4 standard errors of the observed per-group spread.
    let latent: [(&str, Counter); 2] = [
        ("latent defect", |h| h.latent_defects),
        ("scrub", |h| h.scrubs_completed),
    ];
    for (what, field) in latent {
        let z = welch_z(&des, &timeline, field);
        assert!(
            z.abs() <= 4.0,
            "{label}: {what} counts diverge (Welch z = {z:.2}; des = {}, timeline = {})",
            des.histories.iter().map(field).sum::<u64>(),
            timeline.histories.iter().map(field).sum::<u64>()
        );
    }
}

#[test]
fn agree_on_base_case() {
    assert_engines_agree(
        RaidGroupConfig::paper_base_case().unwrap(),
        3_000,
        "base case",
    );
}

#[test]
fn agree_without_latent_defects() {
    let cfg = RaidGroupConfig {
        dists: TransitionDistributions::weibull_both().unwrap(),
        ..RaidGroupConfig::paper_base_case().unwrap()
    };
    assert_engines_agree(cfg, 3_000, "no latent defects");
}

#[test]
fn agree_with_constant_rates() {
    let cfg = RaidGroupConfig {
        dists: TransitionDistributions::constant_rates().unwrap(),
        ..RaidGroupConfig::paper_base_case().unwrap()
    };
    assert_engines_agree(cfg, 3_000, "constant rates");
}

#[test]
fn agree_without_scrub() {
    let cfg = RaidGroupConfig::paper_base_case()
        .unwrap()
        .with_scrub_policy(ScrubPolicy::Disabled)
        .unwrap();
    assert_engines_agree(cfg, 1_000, "no scrub");
}

#[test]
fn agree_with_fast_scrub() {
    let cfg = RaidGroupConfig::paper_base_case()
        .unwrap()
        .with_scrub_policy(ScrubPolicy::with_characteristic_hours(12.0))
        .unwrap();
    assert_engines_agree(cfg, 4_000, "12 h scrub");
}

#[test]
fn agree_under_double_parity() {
    let cfg = RaidGroupConfig {
        redundancy: Redundancy::DoubleParity,
        ..RaidGroupConfig::paper_base_case().unwrap()
    }
    .with_scrub_policy(ScrubPolicy::Disabled)
    .unwrap();
    assert_engines_agree(cfg, 1_000, "raid6 no scrub");
}

/// The defect-reset refinement (physically faithful mode, DES only)
/// changes the answer by at most a few percent on the base case — the
/// quantified justification for the paper's independence assumption.
#[test]
fn defect_reset_ablation_is_small() {
    let faithful = RaidGroupConfig::paper_base_case().unwrap();
    let reset = RaidGroupConfig {
        defect_reset_on_replacement: true,
        ..RaidGroupConfig::paper_base_case().unwrap()
    };
    let groups = 6_000;
    let a = Simulator::new(faithful)
        .run_parallel(groups, 42, threads())
        .total_ddfs() as f64;
    let b = Simulator::new(reset)
        .run_parallel(groups, 42, threads())
        .total_ddfs() as f64;
    // Same seed, so most randomness is shared; the modes differ only
    // on the rare defect-pending-at-replacement paths.
    let rel = (a - b).abs() / a.max(1.0);
    assert!(rel < 0.15, "faithful = {a}, reset = {b}, rel = {rel}");
}

/// Determinism across engines: each engine is exactly reproducible for
/// a fixed seed (engine-to-engine traces differ — only statistics
/// match).
#[test]
fn each_engine_is_individually_deterministic() {
    let cfg = RaidGroupConfig::paper_base_case().unwrap();
    let a = Simulator::new(cfg.clone()).run_parallel(100, 5, 1);
    let b = Simulator::new(cfg.clone()).run_parallel(100, 5, 4);
    assert_eq!(a, b);

    let t1 = Simulator::new(cfg.clone())
        .with_engine(Arc::new(TimelineEngine::new()))
        .run_parallel(100, 5, 1);
    let t2 = Simulator::new(cfg)
        .with_engine(Arc::new(TimelineEngine::new()))
        .run_parallel(100, 5, 3);
    assert_eq!(t1, t2);
    let _ = DesEngine::new();
}
