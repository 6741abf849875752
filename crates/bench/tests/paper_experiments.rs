//! Scaled-down runs of the experiment table: each test runs one entry
//! of `raidsim_bench::EXPERIMENTS` on the table's own seeds and asserts
//! that every claim of its report holds. Group counts are reduced from
//! the table's defaults where the claims hold at the reduced count
//! (EXPERIMENTS.md records the full-scale numbers). E1 and E10 run at
//! full scale: on the table's seeds, HDD #1's R^2 is 0.9878 at 8,000
//! drives, and Table 3's ladder rises at 12 h (3.0 vs 2.0 first-year
//! DDFs per 1,000, nine events against six) at 3,000 groups.

use raidsim_bench::experiment;

/// Runs entry `id` at `groups` groups and asserts all its claims hold.
fn claims_hold(id: &str, groups: usize) {
    selected_claims_hold(id, groups, |_| true);
}

/// Runs entry `id` at `groups` groups and asserts that the claims whose
/// statement `select` accepts exist and hold.
fn selected_claims_hold(id: &str, groups: usize, select: impl Fn(&str) -> bool) {
    let entry = experiment(id).unwrap_or_else(|| panic!("no experiment {id}"));
    let report = (entry.run)(groups);
    let checked: Vec<_> = report.claims.iter().filter(|c| select(&c.what)).collect();
    assert!(!checked.is_empty(), "{id} checks nothing selected");
    let failed: Vec<_> = checked.into_iter().filter(|c| !c.holds).collect();
    assert!(failed.is_empty(), "{id} at {groups} groups: {failed:#?}");
}

/// E1 / Figure 1 — only the pure-Weibull population fits a straight
/// line; the composite populations fit visibly worse.
#[test]
fn fig1_straightness_discriminates_populations() {
    claims_hold("E1", 20_000);
}

/// E2 / Figure 2 — synthetic vintage studies recover the published
/// shape ordering beta1 < beta2 < beta3.
#[test]
fn fig2_vintage_shapes_are_recovered_in_order() {
    claims_hold("E2", 1);
}

/// E3 / Table 1 — the published grid values.
#[test]
fn table1_grid_matches_paper() {
    selected_claims_hold("E3", 1, |what| !what.contains("latent-defect rate"));
}

/// E3 / Table 1 — the latent-defect rate "may be 100 times greater than
/// the operational failure rate": 1,000-fold at the grid's extreme,
/// 40-60x in the base case.
#[test]
fn latent_rate_versus_operational_rate_claim() {
    selected_claims_hold("E3", 1, |what| what.contains("latent-defect rate"));
}

/// E4 / Equation 3 — MTTDL = 36,162 years; 0.28 expected DDFs.
#[test]
fn eq3_worked_example() {
    claims_hold("E4", 1);
}

/// E5 / Figure 6 — the c-c variant tracks MTTDL; the time-dependent
/// variants differ by around 2x, not orders of magnitude.
#[test]
fn fig6_variants_bracket_mttdl() {
    claims_hold("E5", 60_000);
}

/// E6 / Figure 7 — no-scrub ≫ 168 h scrub and the no-scrub curve is
/// convex.
#[test]
fn fig7_scrub_vs_no_scrub() {
    selected_claims_hold("E6", 1_500, |what| !what.contains("MCF"));
}

/// E6 / Figure 7 — the 168 h curve's MCF ends at the direct DDF count.
#[test]
fn mcf_of_simulation_matches_counts() {
    selected_claims_hold("E6", 1_500, |what| what.contains("MCF"));
}

/// E7 / Figure 8 — the ROCOF is increasing for both Figure 7 curves.
#[test]
fn fig8_rocof_is_increasing() {
    claims_hold("E7", 2_000);
}

/// E8 / Figure 9 — longer scrub characteristic time means more DDFs,
/// monotonically across the sweep.
#[test]
fn fig9_scrub_sweep_is_monotone() {
    claims_hold("E8", 2_500);
}

/// E9 / Figure 10 — smaller beta means more DDFs: strict ordering
/// beta 0.8 > 1.0 > 1.4 over the mission.
#[test]
fn fig10_shape_sweep_ordering() {
    claims_hold("E9", 60_000);
}

/// E10 / Table 3 — first-year ratios: no scrub > 1,000x MTTDL; 168 h
/// scrub > 100x; the ladder falls as scrubbing speeds up.
#[test]
fn table3_first_year_ratios() {
    claims_hold("E10", 20_000);
}

/// The entries without claims run to a report.
#[test]
fn entries_without_claims_report() {
    for id in ["E11", "E12", "E13", "E15", "E16", "E17", "E18", "E20"] {
        let report = (experiment(id).unwrap().run)(200);
        assert!(report.claims.is_empty(), "{id} has claims: give it a test");
        assert!(report.text.lines().count() > 2, "{id}");
    }
}
