//! Facade-level integration tests for the extension systems
//! (DESIGN.md S2 and S13–S15): each is exercised end-to-end through
//! `raidsim::` paths the way a downstream user would.

use raidsim::closed_form::{expected_ddfs_per_group, ClosedFormInputs};
use raidsim::config::{RaidGroupConfig, SparePolicy};
use raidsim::dists::rng::stream;
use raidsim::dists::{Degenerate, Lognormal, Weibull3};
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::run::{FusedSweep, Simulator};
use raidsim::sweep::SweepScenario;

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// S14: the closed form and the simulation answer the same design
/// question, through public paths only.
#[test]
fn closed_form_tracks_simulation_via_facade() {
    let ttop = Weibull3::two_param(461_386.0, 1.12).unwrap();
    let analytic =
        1_000.0 * expected_ddfs_per_group(&ClosedFormInputs::paper_base_case(), &ttop, 87_600.0);
    let mc = Simulator::new(RaidGroupConfig::paper_base_case().unwrap())
        .run_parallel(3_000, 8, threads())
        .ddfs_per_thousand_groups();
    assert!(
        (analytic - mc).abs() / mc < 0.25,
        "analytic {analytic}, mc {mc}"
    );
}

/// A sweep that keeps per-label histories (`run_collect`) orders scrub
/// policies correctly under common random numbers.
#[test]
fn sweep_orders_scrub_policies() {
    let mk = |eta: f64| {
        RaidGroupConfig::paper_base_case()
            .unwrap()
            .with_scrub_policy(ScrubPolicy::with_characteristic_hours(eta))
            .unwrap()
    };
    let results = FusedSweep::new(vec![
        SweepScenario::new("12", mk(12.0), 5),
        SweepScenario::new("168", mk(168.0), 5),
        SweepScenario::new("336", mk(336.0), 5),
    ])
    .run_collect(1_500, threads());
    let ddfs: Vec<usize> = results.iter().map(|(_, r)| r.total_ddfs()).collect();
    assert!(ddfs[0] < ddfs[1] && ddfs[1] < ddfs[2], "{ddfs:?}");
}

/// S13: finite spares never *reduce* loss, and availability is
/// reported.
#[test]
fn spares_and_availability() {
    let generous = RaidGroupConfig::paper_base_case().unwrap();
    let starved = RaidGroupConfig {
        spares: SparePolicy::Finite {
            pool: 1,
            replenish_hours: 2_000.0,
        },
        ..RaidGroupConfig::paper_base_case().unwrap()
    };
    let a = Simulator::new(generous).run_parallel(2_000, 3, threads());
    let b = Simulator::new(starved).run_parallel(2_000, 3, threads());
    // Same streams: starved spares can only delay restorations.
    let down_a: f64 = a.histories.iter().map(|h| h.downtime_hours).sum();
    let down_b: f64 = b.histories.iter().map(|h| h.downtime_hours).sum();
    assert!(down_b >= down_a, "starved pool must not reduce downtime");
    assert!(b.mean_availability(8) <= a.mean_availability(8));
    assert!(a.mean_availability(8) > 0.999);
}

/// S15: the degenerate distribution drives a fully deterministic
/// simulation through the facade.
#[test]
fn degenerate_distributions_script_the_engine() {
    let mut cfg = RaidGroupConfig::paper_base_case().unwrap();
    cfg.dists.ttop = std::sync::Arc::new(Degenerate::new(50_000.0).unwrap());
    cfg.dists.ttr = std::sync::Arc::new(Degenerate::new(10.0).unwrap());
    cfg.dists.ttld = None;
    cfg.dists.ttscrub = None;
    let r = Simulator::new(cfg).run_parallel(3, 1, 1);
    // Every group identical: one simultaneous-failure DDF at 50,000 h
    // (slot 0's failure finds a healthy group; slot 1's finds slot 0
    // down).
    for h in &r.histories {
        assert_eq!(h.ddf_count(), 1);
        assert_eq!(h.ddfs[0].time, 50_000.0);
    }
}

/// S13: lognormal restore slots into the model without disturbance.
#[test]
fn lognormal_restore_via_facade() {
    let mut cfg = RaidGroupConfig::paper_base_case().unwrap();
    cfg.dists.ttr = std::sync::Arc::new(Lognormal::from_mean_cv(6.0, 10.6, 0.5).unwrap());
    let r = Simulator::new(cfg).run_parallel(1_500, 9, threads());
    let base = Simulator::new(RaidGroupConfig::paper_base_case().unwrap()).run_parallel(
        1_500,
        9,
        threads(),
    );
    // Mean-matched restore: DDF counts agree within noise.
    let (a, b) = (r.total_ddfs() as f64, base.total_ddfs() as f64);
    assert!(
        (a - b).abs() <= 4.0 * (a + b).sqrt() + 5.0,
        "ln = {a}, weibull = {b}"
    );
}

/// CSV export and the drive catalog through the facade.
#[test]
fn csv_and_catalog_via_facade() {
    use raidsim::hdd::catalog;
    let sata = catalog::find("500GB-SATA").expect("cataloged");
    let mut cfg = RaidGroupConfig::paper_base_case().unwrap();
    cfg.dists.ttop = std::sync::Arc::new(sata.class.default_ttop().unwrap());
    let r = Simulator::new(cfg).run_parallel(40, 2, 1);
    let mut csv = Vec::new();
    r.write_history_csv(&mut csv).unwrap();
    let text = String::from_utf8(csv).unwrap();
    assert_eq!(text.lines().count(), 41);
    let mut ddf_csv = Vec::new();
    r.write_ddf_csv(&mut ddf_csv).unwrap();
    assert_eq!(
        String::from_utf8(ddf_csv).unwrap().lines().count(),
        1 + r.total_ddfs()
    );
}

/// Mixture EM through the facade diagnoses the Figure 1 populations.
#[test]
fn mixture_em_via_facade() {
    use raidsim::dists::fit::{mixture_em, single_weibull_log_likelihood};
    use raidsim::workloads::fieldgen::Fig1Population;
    let mut rng = stream(12, 0);
    let pure: Vec<f64> = (0..3_000)
        .map(|_| Fig1Population::Hdd1.distribution().sample(&mut rng))
        .collect();
    let mixed: Vec<f64> = (0..3_000)
        .map(|_| Fig1Population::Hdd3.distribution().sample(&mut rng))
        .collect();
    let gain = |ts: &[f64]| {
        mixture_em(ts).unwrap().log_likelihood - single_weibull_log_likelihood(ts).unwrap()
    };
    assert!(gain(&mixed) > 10.0 * gain(&pure).max(1.0));
}
