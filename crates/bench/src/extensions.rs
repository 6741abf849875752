//! E12–E20 (but E19): ablations and extensions of the paper's model.

use crate::collision::CollisionModel;
use crate::{base, scrubbed, streamed, Report};
use raidsim::analysis::compare::{compare_fleet_summaries, FleetSummary};
use raidsim::analysis::series::render_table;
use raidsim::closed_form::{expected_ddfs_per_group, ClosedFormInputs};
use raidsim::config::{RaidGroupConfig, Redundancy, SparePolicy, TransitionDistributions};
use raidsim::dists::rng::stream;
use raidsim::dists::{Exponential, LifeDistribution, Lognormal, Mixture, Weibull3};
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::hdd::vintage::fig2_vintages;
use raidsim::stats::StreamStats;
use raidsim::sweep::SweepScenario;
use raidsim::workloads::scrub_schedule::PeriodicScrub;
use std::sync::Arc;

/// E12 — the paper's closing prediction: "It appears that, eventually,
/// RAID 6 will be required to meet high reliability requirements."
///
/// N+1 vs N+2 (RAID-DP-style double parity, the paper's reference
/// \[24\]) across the scrub sweep, at the 10-year horizon.
pub(crate) fn raid6(groups: usize) -> Report {
    let mut scenarios = Vec::new();
    for (i, (label, policy)) in [
        ("no scrub", ScrubPolicy::Disabled),
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
    ]
    .into_iter()
    .enumerate()
    {
        let raid6 = RaidGroupConfig {
            redundancy: Redundancy::DoubleParity,
            ..base()
        }
        .with_scrub_policy(policy)
        .unwrap();
        let seed = 13_000 + i as u64;
        scenarios.push(SweepScenario::new(label, scrubbed(policy), seed));
        scenarios.push(SweepScenario::new(label, raid6, seed + 500));
    }
    let rows: Vec<(String, Vec<f64>)> = streamed(scenarios, groups)
        .chunks(2)
        .map(|pair| {
            let r5 = pair[0].1.ddfs_per_thousand_groups();
            let r6 = pair[1].1.ddfs_per_thousand_groups();
            (
                pair[0].0.clone(),
                vec![r5, r6, if r6 > 0.0 { r5 / r6 } else { f64::INFINITY }],
            )
        })
        .collect();
    let mut report = Report::default();
    report.line(render_table(
        &format!(
            "RAID 6 extension — data-loss events per 1,000 groups / 10 yr ({groups} groups/cell)"
        ),
        &["RAID 5 (N+1)", "RAID 6 (N+2)", "improvement"],
        &rows,
    ));
    report.line(
        "Expected shape: double parity wins by 1-2 orders of magnitude \
         whenever scrubbing runs; without scrubbing latent defects \
         saturate both configurations.",
    );
    report
}

/// E13 — ablation of the scrub semantics (DESIGN.md §7): the paper's
/// per-defect Weibull exposure clock vs the periodic fleet-pass real
/// filers run.
///
/// Matching the two semantics by *mean exposure* shows the DDF count
/// depends on the scrub model almost solely through that mean — the
/// quantified justification for the paper's simpler treatment.
pub(crate) fn scrub_semantics(groups: usize) -> Report {
    let mut scenarios = Vec::new();
    for (i, eta) in [12.0, 48.0, 168.0, 336.0].into_iter().enumerate() {
        let seed = 14_000 + i as u64;
        // Paper semantics: Weibull(6, eta, 3).
        let w_mean = Weibull3::new(6.0, eta, 3.0).unwrap().mean();
        let label = format!("eta = {eta:.0} h (mean {w_mean:.0} h)");
        let w_cfg = scrubbed(ScrubPolicy::with_characteristic_hours(eta));
        // Periodic semantics matched by mean: period chosen so that
        // pass + period/2 equals the Weibull mean (6 h pass).
        let period = (2.0 * (w_mean - 6.0)).max(1.0);
        let mut p_cfg = base();
        p_cfg.dists.ttscrub = Some(Arc::new(PeriodicScrub::new(period, 6.0).unwrap()));
        scenarios.push(SweepScenario::new(label.clone(), w_cfg, seed));
        scenarios.push(SweepScenario::new(label, p_cfg, seed + 250));
    }
    let rows: Vec<(String, Vec<f64>)> = streamed(scenarios, groups)
        .chunks(2)
        .map(|pair| {
            let w = pair[0].1.ddfs_per_thousand_groups();
            let p = pair[1].1.ddfs_per_thousand_groups();
            (pair[0].0.clone(), vec![w, p, (w - p).abs() / w.max(1e-9)])
        })
        .collect();
    let mut report = Report::default();
    report.line(render_table(
        &format!("Scrub-semantics ablation — DDFs per 1,000 groups / 10 yr ({groups} groups/cell)"),
        &["Weibull clock", "periodic (mean-matched)", "rel diff"],
        &rows,
    ));
    report.line(
        "Expected shape: mean-matched semantics agree within sampling noise \
         (single-digit percent), so the scrub model's only load-bearing \
         property is its mean exposure time.",
    );
    report
}

/// E14 — ablation: the "extremely rare event that is not modeled".
///
/// The paper's model ignores the possibility that two coexisting
/// latent defects on *different* drives fall in the *same stripe*
/// (which would be silent data loss without any drive failure). This
/// experiment quantifies that event for the base case and compares it
/// against the modeled loss path (defect + drive failure), validating
/// the paper's simplification — and maps when it stops being valid
/// (no scrubbing lets defects pile up). `trials` is the number of
/// Monte Carlo trials per row.
pub(crate) fn stripe_collision(trials: usize) -> Report {
    let mut rng = stream(42, 0);
    // Modeled path over a one-week exposure window.
    let p_op = 8.0 * 168.0 / 461_386.0;
    let mut rows = Vec::new();
    // Sweep the outstanding-defect density: base case (168 h scrub),
    // slow scrub, and no-scrub after 1 and 10 years.
    let scenarios: [(&str, f64); 4] = [
        ("168 h scrub (base case)", 1.08e-4 * 156.0),
        ("336 h scrub", 1.08e-4 * 318.0),
        ("no scrub, after 1 yr", 1.08e-4 * 8_760.0),
        ("no scrub, after 10 yr", 1.08e-4 * 87_600.0),
    ];
    for (label, defects_per_drive) in scenarios {
        let m = CollisionModel {
            defects_per_drive,
            ..CollisionModel::paper_base_case()
        };
        let analytic = m.analytic_collision_probability();
        let mc = m.simulate_collision_probability(trials, &mut rng);
        let ratio = m.modeled_to_unmodeled_ratio(p_op);
        rows.push((label.to_string(), vec![analytic, mc, ratio]));
    }
    let mut report = Report::default();
    report.line(render_table(
        &format!(
            "Stripe-collision ablation — P(two defects share a stripe) ({trials} MC trials/row)"
        ),
        &["analytic", "monte carlo", "modeled/unmodeled"],
        &rows,
    ));
    report.line(
        "Reading: with any scrubbing the same-stripe collision is 4+ orders \
         of magnitude less likely than the modeled defect+failure path — \
         the paper's simplification is sound. Without scrubbing for a \
         decade, outstanding defects reach ~9 per drive and stripe \
         collisions become likely, but by then the modeled path has \
         already lost the data many times over.",
    );
    let (slow, base_case) = (rows[1].1[2], rows[0].1[2]);
    report.claim(
        "with 168 h and 336 h scrubs the modeled path is >= 10^4 times as likely as a collision",
        base_case >= 1e4 && slow >= 1e4,
        format!("{base_case:.0}x and {slow:.0}x"),
    );
    // The hit count is Binomial(trials, p) with p the collision
    // probability; the analytic union bound overstates p by a relative
    // ~p/2 (7e-4 here), far inside the band. Four standard deviations
    // give a two-sided false-positive rate of 6.3e-5 under the normal
    // approximation.
    let (p, mc) = (rows[3].1[0], rows[3].1[1]);
    let n = trials as f64;
    let hits = (mc * n).round();
    let band = 4.0 * (n * p * (1.0 - p)).sqrt();
    report.claim(
        "10 yr without scrub: Monte Carlo hits within 4 binomial sd of the analytic \
         expectation (false-positive rate 6.3e-5)",
        (hits - n * p).abs() <= band,
        format!("{hits:.0} hits vs {:.1} +- {band:.1}", n * p),
    );
    report
}

/// E15 — ablation of spare-pool availability.
///
/// The paper's state 1 assumes a spare is always on hand, and folds
/// "the delay time to physically incorporate the spare HDD" into the
/// restore distribution. This ablation makes the pool explicit: fewer
/// on-site spares and slower logistics stretch the exposure windows
/// and raise the loss count — quantifying how much of the reliability
/// budget the spares process owns.
pub(crate) fn spares(groups: usize) -> Report {
    let finite = |pool, replenish_hours| SparePolicy::Finite {
        pool,
        replenish_hours,
    };
    let policies: [(&str, SparePolicy); 5] = [
        ("always available (paper)", SparePolicy::AlwaysAvailable),
        ("4 spares / 1 week", finite(4, 168.0)),
        ("1 spare / 1 day", finite(1, 24.0)),
        ("1 spare / 1 week", finite(1, 168.0)),
        ("1 spare / 1 month", finite(1, 720.0)),
    ];
    // Common random numbers: every policy sees the same failure
    // streams, so row differences are the policy effect alone.
    let scenarios = policies
        .into_iter()
        .map(|(label, spares)| {
            SweepScenario::new(label, RaidGroupConfig { spares, ..base() }, 15_000)
        })
        .collect();
    let rows: Vec<(String, Vec<f64>)> = streamed(scenarios, groups)
        .into_iter()
        .map(|(label, stats)| {
            let values = vec![
                stats.ddfs_per_thousand_groups(),
                stats.per_thousand_through(8_760.0),
            ];
            (label, values)
        })
        .collect();
    let mut report = Report::default();
    report.line(render_table(
        &format!("Spare-pool ablation — DDFs per 1,000 groups, base case ({groups} groups/row)"),
        &["10-yr", "1st-yr"],
        &rows,
    ));
    report.line(
        "Reading: at base-case failure rates (~1.25 failures per group per \
         decade) failures rarely cluster, so even a single on-site spare \
         barely moves the loss count — the paper's always-available \
         assumption is safe for these rates. (Rows share random streams; \
         differences are the policy effect alone.)",
    );
    report
}

/// E16 — ablation: which features of the restore distribution matter?
///
/// The paper replaces the exponential restore with a three-parameter
/// Weibull (minimum 6 h, η = 12, β = 2) and shows the change moves the
/// DDF count (Figure 6, `c-r(t)` vs `c-c`). But is it the *family*
/// that matters, or just the minimum and the mean? This ablation holds
/// the location (6 h) and mean fixed and swaps families: the paper's
/// Weibull, a mean-matched lognormal, a mean-matched exponential-with-
/// offset, and the plain exponential (no minimum) the MTTDL method
/// assumes.
pub(crate) fn restore_sensitivity(groups: usize) -> Report {
    // The paper's restore: Weibull(6, 12, 2), mean = 6 + 12·Γ(1.5).
    let weibull = Weibull3::new(6.0, 12.0, 2.0).unwrap();
    let mean = weibull.mean();
    let mean_beyond = mean - 6.0;
    let restores: Vec<(&str, Arc<dyn LifeDistribution>)> = vec![
        ("Weibull(6,12,2) [paper]", Arc::new(weibull)),
        (
            "lognormal, same min+mean",
            Arc::new(Lognormal::from_mean_cv(6.0, mean_beyond, 0.52).unwrap()),
        ),
        (
            "offset exponential, same min+mean",
            Arc::new(Weibull3::new(6.0, mean_beyond, 1.0).unwrap()),
        ),
        (
            "plain exponential, same mean [MTTDL]",
            Arc::new(Exponential::from_mean(mean).unwrap()),
        ),
    ];
    let means: Vec<f64> = restores.iter().map(|(_, ttr)| ttr.mean()).collect();
    // Common random numbers across rows.
    let scenarios = restores
        .into_iter()
        .map(|(label, ttr)| {
            let mut cfg = base();
            cfg.dists.ttr = ttr;
            SweepScenario::new(label, cfg, 16_000)
        })
        .collect();
    let rows: Vec<(String, Vec<f64>)> = streamed(scenarios, groups)
        .into_iter()
        .zip(means)
        .map(|((label, stats), ttr_mean)| (label, vec![ttr_mean, stats.ddfs_per_thousand_groups()]))
        .collect();
    let mut report = Report::default();
    report.line(render_table(
        &format!("Restore-distribution sensitivity — base case ({groups} groups/row)"),
        &["restore mean (h)", "DDFs/1000/10yr"],
        &rows,
    ));
    report.line(
        "Reading: with latent defects dominating, the loss count is driven \
         by defect exposure, not restore-family detail — the three \
         minimum-respecting families agree closely, and even the plain \
         exponential moves the answer only mildly. The restore shape \
         matters most in the defect-free Figure 6 regime, where the \
         paper observed its ~2x effects.",
    );
    report
}

/// The two-fleet significance test's sufficient statistics
/// ([`raidsim::analysis::compare::compare_fleet_summaries`]): exactly
/// the accumulator's moments.
pub(crate) fn fleet_summary(stats: &StreamStats) -> FleetSummary {
    FleetSummary {
        systems: stats.groups() as usize,
        mean: stats.mean_ddfs(),
        variance: stats.variance_ddfs(),
    }
}

/// E17 — extension: RAID group size sweep.
///
/// "The RAID architect can use this model to drive the design,
/// providing insights as to the best RAID group size based on a
/// specific manufacturer's HDDs" (paper Section 8). This experiment
/// sweeps the group width at fixed redundancy and reports the loss
/// rate both per group and per petabyte-decade of stored data — the
/// unit an architect actually trades off against capacity efficiency.
/// Statistical significance of adjacent-size differences comes from
/// the two-fleet comparison in `raidsim-analysis`.
pub(crate) fn groupsize(groups: usize) -> Report {
    let widths = [4usize, 6, 8, 10, 14];
    let scenarios = widths
        .iter()
        .map(|&drives| {
            let cfg = RaidGroupConfig { drives, ..base() };
            SweepScenario::new(format!("{drives} drives"), cfg, 17_000)
        })
        .collect();
    let mut rows = Vec::new();
    let mut prev: Option<FleetSummary> = None;
    for ((label, stats), width) in streamed(scenarios, groups).into_iter().zip(widths) {
        let per_1000 = stats.ddfs_per_thousand_groups();
        // Stored data: (width - 1) data drives x 0.5 TB x 10 yr.
        let pb_decades = (width - 1) as f64 * 0.5 / 1_000.0;
        let summary = fleet_summary(&stats);
        let significant = prev
            .map(|prev| compare_fleet_summaries(&summary, &prev, 0.99).significant)
            .unwrap_or(false);
        rows.push((
            format!(
                "{label}{}",
                if significant { " (vs prev: sig.)" } else { "" }
            ),
            vec![per_1000, per_1000 / 1_000.0 / pb_decades],
        ));
        prev = Some(summary);
    }
    let mut report = Report::default();
    report.line(render_table(
        &format!("Group-size sweep — base case ({groups} groups/row, common streams)"),
        &["DDFs/1000/10yr", "losses per PB-decade"],
        &rows,
    ));
    report.line(
        "Reading: loss risk grows super-linearly in group width (more \
         drives exposed to every latent defect AND more failure \
         initiators), so even per-petabyte the wide groups lose — the \
         capacity saved on parity is paid for in data loss.",
    );
    report
}

/// E18 — extension: heterogeneous vintages in one fleet.
///
/// Figure 2 shows three vintages of one drive model with very
/// different failure distributions. Real fleets mix them. Because the
/// model samples a fresh lifetime per drive, a *mixture* distribution
/// expresses per-drive vintage assignment exactly; this experiment
/// compares a fleet built from the Figure 2 vintage mix against
/// all-best and all-worst fleets.
pub(crate) fn vintage_mix(groups: usize) -> Report {
    let vintages = fig2_vintages();
    // Population-weighted vintage mix.
    let total: u64 = vintages.iter().map(|v| v.population()).sum();
    let components: Vec<(f64, Arc<dyn LifeDistribution>)> = vintages
        .iter()
        .map(|v| {
            (
                v.population() as f64 / total as f64,
                Arc::new(v.distribution().expect("published params valid")) as _,
            )
        })
        .collect();
    let mix = Mixture::new(components).expect("weights sum to 1");
    let mut fleets: Vec<(String, Arc<dyn LifeDistribution>)> = vintages
        .iter()
        .map(|v| {
            (
                format!("all {}", v.name),
                Arc::new(v.distribution().unwrap()) as Arc<dyn LifeDistribution>,
            )
        })
        .collect();
    fleets.push(("population mix".to_string(), Arc::new(mix)));

    // No latent defects: isolate the vintage effect on the operational
    // pathway (same regime as Figure 10). Common streams across rows.
    let scenarios = fleets
        .into_iter()
        .map(|(label, ttop)| {
            let cfg = RaidGroupConfig {
                dists: TransitionDistributions {
                    ttop,
                    ..TransitionDistributions::weibull_both().unwrap()
                },
                ..base()
            };
            SweepScenario::new(label, cfg, 18_000)
        })
        .collect();
    let rows: Vec<(String, Vec<f64>)> = streamed(scenarios, groups)
        .into_iter()
        .map(|(label, stats)| {
            let values = vec![
                stats.ddfs_per_thousand_groups(),
                stats.total_op_failures() as f64 / groups as f64,
            ];
            (label, values)
        })
        .collect();
    let mut report = Report::default();
    report.line(render_table(
        &format!("Vintage-mix fleets — no latent defects ({groups} groups/row, common streams)"),
        &["DDFs/1000/10yr", "op failures/group"],
        &rows,
    ));
    report.line(
        "Reading: the short-lived vintages dominate fleet risk — the \
         population mix lands near the failure-rate-weighted average of \
         its parts, far above the all-Vintage-1 fleet. Vintage screening \
         is worth real reliability.",
    );
    report
}

/// E20 — extension: the designer's closed form.
///
/// "This model provides a tool by which RAID designers can better
/// evaluate the impact of the latent defect occurrence rate… and the
/// scrubbing rate" (paper Section 8). The first-order analytic
/// approximation in `raidsim_core::closed_form` answers those design
/// questions in microseconds; this experiment validates it against the
/// Monte Carlo across the scrub sweep and both parity levels.
pub(crate) fn closed_form(groups: usize) -> Report {
    let ttop = Weibull3::two_param(461_386.0, 1.12).unwrap();
    let horizon = 87_600.0;
    let cases: [(&str, f64, Redundancy); 5] = [
        ("12 h scrub", 12.0, Redundancy::SingleParity),
        ("48 h scrub", 48.0, Redundancy::SingleParity),
        ("168 h scrub (base)", 168.0, Redundancy::SingleParity),
        ("336 h scrub", 336.0, Redundancy::SingleParity),
        ("168 h scrub, RAID 6", 168.0, Redundancy::DoubleParity),
    ];
    let mut analytic = Vec::new();
    let mut scenarios = Vec::new();
    for (i, (label, eta, redundancy)) in cases.into_iter().enumerate() {
        let inputs = ClosedFormInputs {
            tolerated: redundancy.tolerated(),
            mean_scrub: Some(6.0 + eta * 0.893),
            ..ClosedFormInputs::paper_base_case()
        };
        analytic.push(1_000.0 * expected_ddfs_per_group(&inputs, &ttop, horizon));
        let cfg = RaidGroupConfig {
            redundancy,
            ..base()
        }
        .with_scrub_policy(ScrubPolicy::with_characteristic_hours(eta))
        .unwrap();
        scenarios.push(SweepScenario::new(label, cfg, 19_000 + i as u64));
    }
    let rows: Vec<(String, Vec<f64>)> = streamed(scenarios, groups)
        .into_iter()
        .zip(analytic)
        .map(|((label, stats), analytic)| {
            let mc = stats.ddfs_per_thousand_groups();
            (
                label,
                vec![analytic, mc, (analytic - mc).abs() / mc.max(1e-9)],
            )
        })
        .collect();
    let mut report = Report::default();
    report.line(render_table(
        &format!(
            "Closed form vs Monte Carlo — DDFs per 1,000 groups / 10 yr ({groups} groups/row)"
        ),
        &["closed form", "monte carlo", "rel err"],
        &rows,
    ));
    report.line(
        "Reading: the first-order formula tracks the simulation within \
         ~15% across the scrub sweep — accurate enough for design-space \
         exploration, with the Monte Carlo reserved for the final \
         numbers.",
    );
    report
}
