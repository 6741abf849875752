//! Cross-validation of the three model families.
//!
//! In the constant-rate limit, the Monte Carlo engines, the CTMC
//! transient solver and the MTTDL closed forms describe the same
//! process and must agree. Outside that limit the Monte Carlo is the
//! reference and the closed forms are the strawmen the paper knocks
//! down — these tests pin both behaviours.

use raidsim::config::{RaidGroupConfig, TransitionDistributions};
use raidsim::dists::Exponential;
use raidsim::markov::{latent_defect_chain, ld_states, mttdl_chain, mttdl_states};
use raidsim::mttdl::{expected_ddfs, mttdl_full};
use raidsim::run::Simulator;
use std::sync::Arc;

const LAMBDA: f64 = 1.0 / 461_386.0;
const MU: f64 = 1.0 / 12.0;
const MISSION: f64 = 87_600.0;

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Monte Carlo with constant rates ≈ MTTDL ≈ Markov (the paper's own
/// validation: "the model result c-c follows the MTTDL line closely").
#[test]
fn constant_rate_limit_agrees_across_all_three_models() {
    // MTTDL (equation 1).
    let per_group_mttdl = expected_ddfs(mttdl_full(7, LAMBDA, MU), 1.0, MISSION);

    // Markov.
    let chain = mttdl_chain(7, LAMBDA, MU);
    let per_group_markov =
        chain.expected_entries(&[1.0, 0.0, 0.0], &[mttdl_states::DDF], MISSION, 0.5);

    // Monte Carlo.
    let cfg = RaidGroupConfig {
        dists: TransitionDistributions::constant_rates().unwrap(),
        ..RaidGroupConfig::paper_base_case().unwrap()
    };
    let groups = 120_000;
    let r = Simulator::new(cfg).run_parallel(groups, 1234, threads());
    let per_group_mc = r.total_ddfs() as f64 / groups as f64;

    // Closed forms agree tightly.
    let rel = (per_group_markov - per_group_mttdl).abs() / per_group_mttdl;
    assert!(
        rel < 0.01,
        "markov {per_group_markov} vs mttdl {per_group_mttdl}"
    );

    // Monte Carlo agrees within sampling noise (expected count ≈ 33,
    // Poisson sigma ≈ 5.7; allow 4 sigma).
    let expected_count = per_group_mttdl * groups as f64;
    let got = r.total_ddfs() as f64;
    assert!(
        (got - expected_count).abs() < 4.0 * expected_count.sqrt() + 2.0,
        "mc count {got}, closed-form {expected_count}"
    );
    let _ = per_group_mc;
}

/// The 5-state constant-rate latent chain agrees with the Monte Carlo
/// run on exponential versions of all four distributions.
#[test]
fn latent_defect_chain_matches_monte_carlo_in_exponential_limit() {
    let lambda_ld = 1.08e-4;
    let mean_scrub = 156.0; // matches Weibull(6, 168, 3) mean
    let chain = latent_defect_chain(7, LAMBDA, MU, lambda_ld, 1.0 / mean_scrub);
    let per_group_markov = chain.expected_entries(
        &[1.0, 0.0, 0.0, 0.0, 0.0],
        &[ld_states::DDF_FROM_LATENT, ld_states::DDF_FROM_OP],
        MISSION,
        0.5,
    );

    let cfg = RaidGroupConfig {
        dists: TransitionDistributions {
            ttop: Arc::new(Exponential::new(LAMBDA).unwrap()),
            ttr: Arc::new(Exponential::new(MU).unwrap()),
            ttld: Some(Arc::new(Exponential::new(lambda_ld).unwrap())),
            ttscrub: Some(Arc::new(Exponential::from_mean(mean_scrub).unwrap())),
        },
        ..RaidGroupConfig::paper_base_case().unwrap()
    };
    let groups = 4_000;
    let r = Simulator::new(cfg).run_parallel(groups, 77, threads());
    let per_group_mc = r.total_ddfs() as f64 / groups as f64;

    // The chain tracks at most one defective drive; the MC tracks all
    // eight, so the chain runs a few percent low. Require agreement
    // within 20%.
    let rel = (per_group_mc - per_group_markov).abs() / per_group_markov;
    assert!(
        rel < 0.20,
        "mc {per_group_mc} vs markov {per_group_markov}, rel {rel}"
    );
}

/// With the paper's (non-exponential) distributions, the Monte Carlo
/// departs from MTTDL by orders of magnitude — the headline claim.
#[test]
fn paper_distributions_blow_past_mttdl() {
    let cfg = RaidGroupConfig::paper_base_case().unwrap();
    let groups = 2_000;
    let r = Simulator::new(cfg).run_parallel(groups, 9, threads());
    let per_1000 = r.ddfs_per_thousand_groups();
    let mttdl_per_1000 = expected_ddfs(mttdl_full(7, LAMBDA, MU), 1_000.0, MISSION);
    assert!(
        per_1000 > 100.0 * mttdl_per_1000,
        "model {per_1000}, mttdl {mttdl_per_1000}"
    );
}

/// Every history from a large mixed batch satisfies the engine
/// invariants (failure injection: aggressive rates to exercise edge
/// paths).
#[test]
fn histories_satisfy_invariants_under_stress() {
    use raidsim::dists::Weibull3;
    let cfg = RaidGroupConfig {
        drives: 4,
        mission_hours: 20_000.0,
        dists: TransitionDistributions {
            ttop: Arc::new(Weibull3::two_param(2_000.0, 0.7).unwrap()),
            ttr: Arc::new(Weibull3::new(12.0, 72.0, 2.0).unwrap()),
            ttld: Some(Arc::new(Weibull3::two_param(500.0, 1.0).unwrap())),
            ttscrub: Some(Arc::new(Weibull3::new(1.0, 24.0, 3.0).unwrap())),
        },
        ..RaidGroupConfig::paper_base_case().unwrap()
    };
    let r = Simulator::new(cfg.clone()).run_parallel(500, 31, 1);
    let mut saw_ddf = false;
    for h in &r.histories {
        h.assert_invariants(cfg.mission_hours);
        saw_ddf |= h.ddf_count() > 0;
    }
    assert!(saw_ddf, "stress config must produce DDFs");
}

/// The latent pathway dominates the loss modes under the base case —
/// "the latent defect occurrence rate… may be 100 times greater than
/// the operational failure rate".
#[test]
fn latent_pathway_dominates_base_case() {
    let cfg = RaidGroupConfig::paper_base_case().unwrap();
    let r = Simulator::new(cfg).run_parallel(2_000, 5, threads());
    let (op_op, latent_op) = r.kind_counts();
    assert!(
        latent_op > 20 * op_op.max(1),
        "op+op {op_op}, ld+op {latent_op}"
    );
}
