//! Quickstart: simulate the paper's base-case RAID group and compare
//! against the MTTDL prediction.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p raidsim --example quickstart
//! ```

use raidsim::config::{params, RaidGroupConfig};
use raidsim::mttdl;
use raidsim::run::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The classical answer -------------------------------------
    // MTBF = 461,386 h, MTTR = 12 h, N = 7 data drives: the paper's
    // equation 3 worked example.
    let eq3 = mttdl::equation3_example();
    println!("MTTDL (eq. 2): {:.0} years", eq3.mttdl_years);
    println!(
        "MTTDL-predicted data-loss events, 1,000 groups x 10 years: {:.2}",
        eq3.expected_ddfs
    );

    // --- 2. The paper's model ----------------------------------------
    // 8 drives per group, Weibull failures/restores, latent defects at
    // the Table 1 medium rate, one-week background scrub.
    let cfg = RaidGroupConfig::paper_base_case()?;
    let groups = 2_000;
    let threads = std::thread::available_parallelism()?.get();
    let result = Simulator::new(cfg).run_parallel(groups, 42, threads);

    println!();
    println!("Simulated {groups} RAID groups for 10 years each:");
    println!(
        "  data-loss events per 1,000 groups: {:.1}",
        result.ddfs_per_thousand_groups()
    );
    let (op_op, latent_op) = result.kind_counts();
    println!("  from two simultaneous drive failures: {op_op}");
    println!("  from a latent defect + a drive failure: {latent_op}");
    println!(
        "  operational failures per group: {:.2}",
        result.total_op_failures() as f64 / groups as f64
    );
    // Latent defects count only up to each group's last drive failure
    // or restore: no data loss can involve a defect after that.
    println!(
        "  latent defects per group, up to its last failure or restore: {:.1}",
        result.total_latent_defects() as f64 / groups as f64
    );

    // --- 3. The headline ----------------------------------------------
    let ratio = result.ddfs_per_thousand_groups() / eq3.expected_ddfs;
    println!();
    println!("The model predicts {ratio:.0}x as many data-loss events as MTTDL.");
    println!(
        "(The paper reports ratios from 2x with no latent defects to >2,500x \
         with latent defects and no scrubbing.)"
    );

    // Mission constants are exported for downstream use:
    assert_eq!(params::MISSION_HOURS, 87_600.0);
    Ok(())
}
