//! Runs the pool model checker over the CI scenario suite and prints
//! the state-space report as JSON (the contents of `BENCH_model.json`).
//!
//! `cargo xtask model` runs this binary, fails on any reported
//! violation, and diffs the output against the committed
//! `BENCH_model.json` so pool-protocol changes surface their
//! state-space delta in review; `cargo xtask model --update` refreshes
//! the committed file. The search is a deterministic DFS, so the
//! numbers are exactly reproducible.

use raidsim_core::sync_model::{check, ModelReport, Scenario};

/// The scenario suite: bounded, exhaustive, and fast enough for CI
/// (a couple of minutes in release mode, dominated by the
/// multi-group-claim contention scenario). Mirrors
/// `tests/pool_model.rs` and adds the multi-slice sweep epochs.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    let mut suite = vec![
        ("w2_e2_claim1", Scenario::new(2, vec![(0, 2), (2, 4)], 1)),
        ("w3_e2_claim2", Scenario::new(3, vec![(0, 3), (3, 6)], 2)),
        // 32 groups across 2 workers: `effective_claim(64, 32, 2) == 2`
        // under the tightened clamp (divisor 8), so this is the suite's
        // genuine multi-group-claim contention coverage (the small
        // scenarios all clamp to single-group claims). By far the
        // largest scenario — the 16 claim operations it takes to drain
        // the epoch dominate the suite's wall time.
        ("w2_e1_hi32_claim2", Scenario::new(2, vec![(0, 32)], 64)),
        // The same multi-index claim arithmetic without contention,
        // cheap enough for the debug-mode test suite too.
        ("w1_e1_hi16_claim2", Scenario::new(1, vec![(0, 16)], 64)),
        (
            "w2_ragged_empty_epoch",
            Scenario::new(2, vec![(0, 1), (1, 1), (1, 4)], 1),
        ),
    ];
    let mut spurious = Scenario::new(2, vec![(0, 2), (2, 4)], 1);
    spurious.spurious = true;
    suite.push(("w2_e2_spurious", spurious));
    for idx in 0..4 {
        let mut panic = Scenario::new(2, vec![(0, 2), (2, 4)], 1);
        panic.panic_at = Some(idx);
        suite.push((
            match idx {
                0 => "w2_e2_panic_at0",
                1 => "w2_e2_panic_at1",
                2 => "w2_e2_panic_at2",
                _ => "w2_e2_panic_at3",
            },
            panic,
        ));
    }
    // Supervised resubmission: a three-worker death whose remainder is
    // redone by the survivors, and a multi-group claim whose dying
    // worker leaves a remainder spanning several indices.
    let mut w3_panic = Scenario::new(3, vec![(0, 3)], 1);
    w3_panic.panic_at = Some(2);
    suite.push(("w3_e1_panic_resubmit", w3_panic));
    let mut wide_panic = Scenario::new(2, vec![(0, 6)], 3);
    wide_panic.panic_at = Some(1);
    suite.push(("w2_claim3_panic_remainder", wide_panic));
    // Total-loss escalation: a sticky fault kills every worker that
    // touches the index, and a single-worker death has no survivor —
    // both must abort cleanly in every interleaving.
    let mut sticky = Scenario::new(2, vec![(0, 2), (2, 4)], 1);
    sticky.panic_at = Some(1);
    sticky.sticky = true;
    suite.push(("w2_e2_sticky_total_loss", sticky));
    let mut solo = Scenario::new(1, vec![(0, 2)], 1);
    solo.panic_at = Some(0);
    suite.push(("w1_panic_abort", solo));
    // Fused-sweep coverage: one epoch of several slices, all published
    // at once — workers moving on to the next slice while peers still
    // drain the previous one, spurious wakeups, and mid-sweep deaths
    // supervised to full coverage.
    suite.push(("w2_sweep_2x2", Scenario::sweep(2, vec![2, 2], 1)));
    suite.push(("w2_sweep_ragged", Scenario::sweep(2, vec![2, 1], 1)));
    suite.push(("w3_sweep_1x1x1", Scenario::sweep(3, vec![1, 1, 1], 1)));
    suite.push(("w2_sweep_claim2", Scenario::sweep(2, vec![4, 2], 2)));
    let mut sweep_spurious = Scenario::sweep(2, vec![2, 2], 1);
    sweep_spurious.spurious = true;
    suite.push(("w2_sweep_spurious", sweep_spurious));
    let mut sweep_panic = Scenario::sweep(2, vec![2, 2], 1);
    sweep_panic.panic_at = Some(1);
    suite.push(("w2_sweep_panic_mid", sweep_panic));
    let mut sweep_sticky = Scenario::sweep(2, vec![2, 1], 1);
    sweep_sticky.panic_at = Some(0);
    sweep_sticky.sticky = true;
    suite.push(("w2_sweep_sticky_total_loss", sweep_sticky));
    suite
}

fn emit(name: &str, report: &ModelReport, out: &mut String) {
    out.push_str(&format!(
        "    {{\"scenario\": \"{name}\", \"states\": {}, \"interleavings\": {}, \
         \"max_depth\": {}, \"violations\": {}}}",
        report.states,
        report.interleavings,
        report.max_depth,
        u8::from(report.violation.is_some()),
    ));
}

fn main() {
    let mut body = String::new();
    let mut total_states = 0u64;
    let mut total_interleavings = 0u64;
    let mut max_depth = 0usize;
    let mut failed = false;
    let suite = scenarios();
    for (i, (name, scenario)) in suite.iter().enumerate() {
        let report = check(scenario);
        if let Some(v) = &report.violation {
            eprintln!("VIOLATION in {name}: {v}");
            failed = true;
        }
        total_states += report.states;
        total_interleavings = total_interleavings.saturating_add(report.interleavings);
        max_depth = max_depth.max(report.max_depth);
        emit(name, &report, &mut body);
        if i + 1 < suite.len() {
            body.push(',');
        }
        body.push('\n');
    }
    println!("{{");
    println!("  \"schema_version\": 1,");
    println!("  \"checker\": \"sync_model DFS, exact-state pruning\",");
    println!("  \"total_states\": {total_states},");
    println!("  \"total_interleavings\": {total_interleavings},");
    println!("  \"max_depth\": {max_depth},");
    println!("  \"scenarios\": [");
    print!("{body}");
    println!("  ]");
    println!("}}");
    if failed {
        std::process::exit(1);
    }
}
