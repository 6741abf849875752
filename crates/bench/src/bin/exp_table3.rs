//! E10 — Paper Table 3: "DDF comparisons" — first-year DDFs per 1,000
//! groups and the ratio to the MTTDL estimate, across scrub policies.
//!
//! Paper rows: MTTDL (0.03); base case w/o scrub (ratio > 2,500);
//! 336 / 168 / 48 / 12 h scrub, ratios decreasing with faster scrub
//! (168 h quoted as > 360x in the text).
//!
//! The scrub ladder runs as one **fused sweep**: a single worker pool
//! drains all five scenarios as one job of per-scenario slices, with
//! each row keeping its historical seed (`11_000 + i`) and its own
//! per-scenario RNG streams — so every number here is bit-identical to
//! the row-at-a-time loop this binary used to run (the core test suite
//! property-tests exactly that equivalence).

use raidsim::analysis::series::render_table;
use raidsim::analysis::sweep::{monotone_violations, ratio_rows};
use raidsim::config::{params, RaidGroupConfig};
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::mttdl::{expected_ddfs, mttdl_full};
use raidsim::run::FusedSweep;
use raidsim::sweep::SweepScenario;
use raidsim_bench::{groups, threads};

fn main() {
    let n_groups = groups(20_000);
    let year = 8_760.0;
    let mttdl_year = expected_ddfs(
        mttdl_full(7, 1.0 / params::TTOP_ETA, 1.0 / params::TTR_ETA),
        1_000.0,
        year,
    );

    let policies: [(&str, ScrubPolicy); 5] = [
        ("Base case w/o scrub", ScrubPolicy::Disabled),
        (
            "336 hr scrub",
            ScrubPolicy::with_characteristic_hours(336.0),
        ),
        (
            "168 hr scrub",
            ScrubPolicy::with_characteristic_hours(168.0),
        ),
        ("48 hr scrub", ScrubPolicy::with_characteristic_hours(48.0)),
        ("12 hr scrub", ScrubPolicy::with_characteristic_hours(12.0)),
    ];
    let scenarios: Vec<SweepScenario> = policies
        .into_iter()
        .enumerate()
        .map(|(i, (label, policy))| {
            SweepScenario::new(
                label,
                RaidGroupConfig::paper_base_case()
                    .unwrap()
                    .with_scrub_policy(policy)
                    .unwrap(),
                11_000 + i as u64,
            )
        })
        .collect();
    // Streamed: only the accumulator is kept per row, so the row count
    // scales to fleet sizes without scaling memory. The first-year
    // horizon lands exactly on a histogram bin edge (8,760 h = bin 96
    // of 960 over the 10-year mission).
    let report = FusedSweep::new(scenarios).run_streaming(n_groups, threads());
    eprintln!(
        "fused sweep: {} scenario(s) simulated, {} cross-scenario steal(s)",
        report.simulated, report.steals
    );

    let first_year: Vec<(String, f64)> = report
        .results
        .iter()
        .map(|(label, stats)| (label.clone(), stats.per_thousand_through(year)))
        .collect();
    let mut rows = vec![("MTTDL".to_string(), vec![mttdl_year, 1.0])];
    rows.extend(ratio_rows(&first_year, mttdl_year));

    println!(
        "{}",
        render_table(
            &format!("Table 3 — first-year DDFs per 1,000 groups ({n_groups} groups/row)"),
            &["DDFs in 1st year", "ratio vs MTTDL"],
            &rows,
        )
    );
    println!(
        "Expected shape (paper): no-scrub ratio > 2,500; 168 h scrub > 360; \
         ratios fall monotonically as scrubbing speeds up."
    );
    let scrub_rung_values: Vec<f64> = first_year.iter().map(|(_, v)| *v).collect();
    let rises = monotone_violations(&scrub_rung_values, 0.05);
    if !rises.is_empty() {
        println!(
            "WARNING: ladder rises at row index(es) {rises:?} — more scrubbing \
             should not cost reliability (5% Monte Carlo slack exceeded)"
        );
    }
}
