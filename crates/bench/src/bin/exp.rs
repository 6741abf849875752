//! Runs experiments of the table: `exp <id>...` or `exp all`.
//!
//! Prints each report, then one `claim:` line per claim, and exits 1
//! if any claim fails (2 on a usage error). `RAIDSIM_GROUPS` overrides
//! every entry's group count; `RAIDSIM_SVG_DIR` collects the figures as
//! SVG charts.

use raidsim_bench::{experiment, groups, Experiment, BINARIES, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Result<Vec<&Experiment>, String> = match args.as_slice() {
        [] => Err("no experiment given".to_string()),
        [all] if all == "all" => Ok(EXPERIMENTS.iter().collect()),
        ids => ids
            .iter()
            .map(|id| experiment(id).ok_or_else(|| unknown(id)))
            .collect(),
    };
    let selected = selected.unwrap_or_else(|err| {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!(
            "error: {err}\nusage: exp <id>... | exp all  (ids: {})",
            ids.join(" ")
        );
        std::process::exit(2)
    });
    let mut failed = 0;
    for exp in selected {
        let report = (exp.run)(groups(exp.groups));
        print!("{}", report.text);
        for claim in &report.claims {
            let verdict = if claim.holds { "holds" } else { "FAILS" };
            println!(
                "claim: {} {verdict}: {} (measured {})",
                exp.id, claim.what, claim.measured
            );
            failed += usize::from(!claim.holds);
        }
    }
    if failed > 0 {
        eprintln!("{failed} claim(s) failed");
        std::process::exit(1);
    }
}

/// The error for an id outside the table, naming the binary for the
/// experiments that are binaries of their own.
fn unknown(id: &str) -> String {
    match BINARIES.iter().find(|(bin_id, _)| *bin_id == id) {
        Some((_, bin)) => format!("{id} is the binary `{bin}`"),
        None => format!("unknown experiment '{id}'"),
    }
}
