//! E1–E11: the paper's tables and figures, and its headline claim.

use crate::{
    base, collected, ddf_series, maybe_write_svg, mttdl_series, paper_mttdl, scrubbed, streamed,
    Report,
};
use raidsim::analysis::rocof::{rocof, rocof_trend};
use raidsim::analysis::series::{render_figure, render_table, Series};
use raidsim::analysis::sweep::{monotone_violations, ratio_rows};
use raidsim::analysis::trend::{laplace_statistic, CrowAmsaa};
use raidsim::config::{params, RaidGroupConfig, TransitionDistributions};
use raidsim::dists::empirical::johnson_ranks;
use raidsim::dists::fit::{mixture_em, mle, rank_regression, single_weibull_log_likelihood};
use raidsim::dists::rng::stream;
use raidsim::dists::Weibull3;
use raidsim::hdd::rer::{latent_defect_rate, table1 as rer_table1, ReadErrorRate, ReadIntensity};
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::hdd::vintage::fig2_vintages;
use raidsim::mttdl::{equation3_example, expected_ddfs, mttdl_approx, mttdl_full, HOURS_PER_YEAR};
use raidsim::run::SimulationResult;
use raidsim::sweep::SweepScenario;
use raidsim::workloads::fieldgen::{generate, Fig1Population, StudyDesign};
use raidsim::workloads::vintage_gen::synthesize;
use std::sync::Arc;

/// Grid points of the MCF figures (one per mission year).
const GRID: usize = 10;

/// First-year horizon, hours: exactly histogram bin 96 of 960 over the
/// 10-year mission, so streamed first-year counts are exact.
const YEAR: f64 = 8_760.0;

/// The DDF MCF curves of `results` on the figure grid after `lead`
/// (Figure 6's MTTDL line), also written as `<file_stem>.svg` when
/// `RAIDSIM_SVG_DIR` is set.
fn mcf_figure(
    file_stem: &str,
    svg_title: &str,
    lead: Vec<Series>,
    results: &[(String, SimulationResult)],
) -> Vec<Series> {
    let mut series = lead;
    series.extend(
        results
            .iter()
            .map(|(label, result)| ddf_series(label.as_str(), result, GRID)),
    );
    maybe_write_svg(
        file_stem,
        svg_title,
        "hours",
        "DDFs per 1,000 RAID groups",
        &series,
    );
    series
}

/// E1 — Figure 1: Weibull probability plots of three field
/// populations. Only HDD #1 (a pure Weibull) plots as a straight line;
/// HDD #2 bends upward (competing risks); HDD #3 shows two inflections
/// (mixture + competing risks). `groups` is the population per study.
///
/// Prints the plot coordinates (`ln t`, `ln(-ln(1-F))`) decimated to a
/// readable grid, plus the global straight-line fit quality per
/// population.
pub(crate) fn fig1(groups: usize) -> Report {
    let design = StudyDesign {
        population: groups,
        window_hours: 30_000.0,
        staggered_entry: 0.0,
    };

    let mut fit_rows = Vec::new();
    let mut curves: Vec<Series> = Vec::new();
    let mut r2 = Vec::new();
    for (i, pop) in Fig1Population::all().iter().enumerate() {
        let mut rng = stream(1_001, i as u64);
        let data = generate(pop.distribution().as_ref(), design, &mut rng);
        let fit = rank_regression(&data).expect("populations produce >1 failure");
        r2.push(fit.r_squared.unwrap_or(f64::NAN));

        // Mixture diagnosis: fit a 2-component EM mixture vs a single
        // Weibull on a *complete* sample from the population (window
        // truncation would distort the single-Weibull baseline). A
        // large per-observation log-likelihood gain flags a mixed
        // population.
        let mut diag_rng = stream(1_101, i as u64);
        let complete: Vec<f64> = (0..8_000)
            .map(|_| pop.distribution().sample(&mut diag_rng))
            .collect();
        let gain = match (
            mixture_em(&complete),
            single_weibull_log_likelihood(&complete),
        ) {
            (Ok(m), Ok(s)) => (m.log_likelihood - s) / complete.len() as f64,
            _ => f64::NAN,
        };
        fit_rows.push((
            pop.label().to_string(),
            vec![fit.beta, fit.eta, fit.r_squared.unwrap_or(f64::NAN), gain],
        ));

        // Decimate the probability-plot points to ~25 per decade.
        let pts = johnson_ranks(&data);
        let step = (pts.len() / 25).max(1);
        let coords: Vec<(f64, f64)> = pts.iter().step_by(step).map(|p| (p.x(), p.y())).collect();
        curves.push(Series::new(pop.label(), coords));
    }

    let mut report = Report::default();
    report.line(render_table(
        "Figure 1 — global Weibull line fits (straightness = R^2)",
        &["beta", "eta (h)", "R^2", "mix gain/obs"],
        &fit_rows,
    ));
    for s in &curves {
        report.line(format!(
            "## {} probability-plot coordinates (x = ln t, y = ln(-ln(1-F)))",
            s.label
        ));
        for (x, y) in &s.points {
            report.line(format!("{x:>10.4} {y:>10.4}"));
        }
        report.line("");
    }
    report.line(
        "Expected shape (paper): HDD #1 straight (R^2 ~ 1); HDD #2 and #3 \
         curved — their single-line fits are visibly worse and the local \
         slope increases late in life. The mixture-EM gain column makes \
         the paper's population-mixture diagnosis quantitative: ~0 for \
         the pure Weibull, largest for HDD #3 ('characteristics of both \
         competing risks and population mixtures').",
    );

    let measured = format!("R^2 = {r2:.4?}");
    report.claim(
        "HDD #1 fits a line with R^2 > 0.99",
        r2[0] > 0.99,
        &measured,
    );
    report.claim(
        "HDD #1 fits a line better than HDD #2 and HDD #3",
        r2[0] > r2[1] && r2[0] > r2[2],
        measured,
    );
    report
}

/// E2 — Figure 2: vintage effects. Three non-consecutive vintages of
/// one drive model, fitted as Weibulls:
///
/// ```text
/// beta1 = 1.0987, eta1 = 4.5444e5   (F = 198,  S = 10,433)
/// beta2 = 1.2162, eta2 = 1.2566e5   (F = 992,  S = 23,064)
/// beta3 = 1.4873, eta3 = 7.5012e4   (F = 921,  S = 22,913)
/// ```
///
/// Synthesizes each study from the published parameters, re-fits with
/// censored MLE, and prints published-vs-recovered side by side — the
/// closed loop that validates the estimation path the paper's figure
/// rests on. Because vintage 1 yields only ~10² failures inside the
/// window, single studies are noisy; the report gives the mean over 10
/// replicate studies with the between-replicate spread. The studies
/// have their published sizes, so `_groups` is unused.
pub(crate) fn fig2(_groups: usize) -> Report {
    const REPLICATES: u64 = 10;
    let mut rows = Vec::new();
    let mut recovered = Vec::new();
    for (i, v) in fig2_vintages().iter().enumerate() {
        let mut betas = Vec::new();
        let mut etas = Vec::new();
        let mut failures = Vec::new();
        for rep in 0..REPLICATES {
            let mut rng = stream(2_002, i as u64 * 1_000 + rep);
            let data = synthesize(v, &mut rng);
            failures.push(data.iter().filter(|o| o.failed).count() as f64);
            let fit = mle(&data).expect("synthetic studies have enough failures");
            betas.push(fit.beta);
            etas.push(fit.eta);
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let sd = |xs: &[f64]| {
            let m = mean(xs);
            (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
        };
        recovered.push(mean(&betas));
        rows.push((
            format!("{} published", v.name),
            vec![v.beta, f64::NAN, v.eta, v.failures as f64],
        ));
        rows.push((
            format!("{} recovered", v.name),
            vec![mean(&betas), sd(&betas), mean(&etas), mean(&failures)],
        ));
    }
    let mut report = Report::default();
    report.line(render_table(
        &format!(
            "Figure 2 — vintage Weibull fits, published vs recovered (mean of {REPLICATES} synthetic studies)"
        ),
        &["beta", "beta sd", "eta (h)", "failures"],
        &rows,
    ));
    report.line(
        "Expected shape (paper): vintage quality deteriorates — recovered \
         betas ordered 1 < 2 < 3, with vintage 1 near constant-rate \
         (beta ~ 1.1) and vintage 3 clearly wearing out (beta ~ 1.5). \
         Recovered failure counts sit below the published F because the \
         real study's drives accumulated more exposure than one 6,000 h \
         window.",
    );

    let b = &recovered;
    let measured = format!("recovered betas = {b:.4?}");
    report.claim(
        "recovered betas ordered 1 < 2 < 3",
        b[0] < b[1] && b[1] < b[2],
        &measured,
    );
    report.claim(
        "vintage 1 beta within 0.25 of 1.0987",
        (b[0] - 1.0987).abs() < 0.25,
        &measured,
    );
    report.claim(
        "vintage 3 beta within 0.25 of 1.4873",
        (b[2] - 1.4873).abs() < 0.25,
        measured,
    );
    report
}

/// E3 — Table 1: "Range of average read error rates" — hourly
/// latent-defect rates from three read-error-rate studies crossed with
/// two byte-read intensities. Deterministic; `_groups` is unused.
pub(crate) fn table1(_groups: usize) -> Report {
    // Group the six cells into the paper's 3x2 layout.
    let cells = rer_table1();
    let mut rows = Vec::new();
    for chunk in cells.chunks(2) {
        let low = &chunk[0];
        let high = &chunk[1];
        rows.push((
            format!("{} ({:.1e}/B)", low.rer_label, low.rer.errors_per_byte()),
            vec![low.errors_per_hour, high.errors_per_hour],
        ));
    }
    let mut report = Report::default();
    report.line(render_table(
        "Table 1 — latent-defect rates (errors/hour/drive)",
        &["1.35e9 B/h", "1.35e10 B/h"],
        &rows,
    ));
    report.line(
        "Paper values: Low 1.08e-5 / 1.08e-4; Med 1.08e-4 / 1.08e-3; \
         High 4.32e-4 / 4.32e-3 errors per hour.",
    );

    // Paper value and tolerance per cell, in `table1()` order.
    let paper = [
        (1.08e-5, 1e-11),
        (1.08e-4, 1e-10),
        (1.08e-4, 1e-10),
        (1.08e-3, 1e-9),
        (4.32e-4, 1e-10),
        (4.32e-3, 1e-9),
    ];
    let measured: Vec<f64> = cells.iter().map(|c| c.errors_per_hour).collect();
    report.claim(
        "the six cells equal the paper's values",
        measured.len() == paper.len()
            && measured
                .iter()
                .zip(paper)
                .all(|(m, (p, tol))| (m - p).abs() < tol),
        measured
            .iter()
            .map(|v| format!("{v:.3e}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let op_rate = 1.0 / params::TTOP_ETA;
    let max_ratio = latent_defect_rate(ReadErrorRate::HIGH, ReadIntensity::HIGH) / op_rate;
    let base_ratio = latent_defect_rate(ReadErrorRate::MEDIUM, ReadIntensity::LOW) / op_rate;
    report.claim(
        "the highest latent-defect rate exceeds the operational failure rate 1,000-fold",
        max_ratio > 1_000.0,
        format!("{max_ratio:.0}x"),
    );
    report.claim(
        "the base-case latent-defect rate is 40-60x the operational failure rate",
        base_ratio > 40.0 && base_ratio < 60.0,
        format!("{base_ratio:.1}x"),
    );
    report
}

/// E4 — Equation 3 worked example: the MTTDL arithmetic the rest of
/// the paper demolishes. "an MTTDL of 36,162 years (MTBF = 461,386 hrs;
/// MTTR = 12 hrs; N = 7), 1,000 RAID groups, and 10 years of operation"
/// → 0.28 expected DDFs. Deterministic; `_groups` is unused.
pub(crate) fn eq3(_groups: usize) -> Report {
    let lambda = 1.0 / 461_386.0;
    let mu = 1.0 / 12.0;

    let full = mttdl_full(7, lambda, mu);
    let approx = mttdl_approx(7, lambda, mu);
    let mut report = Report::default();
    report.line(format!(
        "Equation 1 (full):        MTTDL = {:>12.0} h = {:>8.0} years",
        full,
        full / HOURS_PER_YEAR
    ));
    report.line(format!(
        "Equation 2 (simplified):  MTTDL = {:>12.0} h = {:>8.0} years",
        approx,
        approx / HOURS_PER_YEAR
    ));
    report.line("");

    let ex = equation3_example();
    report.line(format!(
        "Equation 3: E[N] = 10 yr x 1,000 groups / {:.0} yr = {:.3} DDFs",
        ex.mttdl_years, ex.expected_ddfs
    ));
    report.line("Paper quotes: 36,162 years and 0.28 DDFs.");
    report.line("");

    // The sensitivity table the MTTDL method implies.
    report.line("MTTDL sensitivity (eq. 2), 1,000 groups x 10 years:");
    report.line(format!(
        "{:>8} {:>10} {:>14} {:>10}",
        "N", "MTTR (h)", "MTTDL (yr)", "E[DDFs]"
    ));
    for n in [3usize, 7, 13] {
        for mttr in [6.0, 12.0, 24.0] {
            let m = mttdl_approx(n, lambda, 1.0 / mttr);
            report.line(format!(
                "{n:>8} {mttr:>10.0} {:>14.0} {:>10.3}",
                m / HOURS_PER_YEAR,
                expected_ddfs(m, 1_000.0, 10.0 * HOURS_PER_YEAR)
            ));
        }
    }

    report.claim(
        "MTTDL within 25 years of the paper's 36,162",
        (ex.mttdl_years - 36_162.0).abs() < 25.0,
        format!("{:.1} years", ex.mttdl_years),
    );
    report.claim(
        "expected DDFs within 0.002 of 0.2770",
        (ex.expected_ddfs - 0.2770).abs() < 0.002,
        format!("{:.4}", ex.expected_ddfs),
    );
    report
}

/// E5 — Figure 6: "Model compared to MTTDL without latent defects".
/// Five lines over the 10-year mission:
///
/// * `MTTDL` — the straight line `t / MTTDL`;
/// * `c-c` — constant failure and restoration rates (must track MTTDL);
/// * `f(t)-c` — Weibull failures, constant restoration;
/// * `c-r(t)` — constant failures, Weibull restoration;
/// * `f(t)-r(t)` — Weibull both (Table 2 without latent defects).
pub(crate) fn fig6(groups: usize) -> Report {
    let variants: [(&str, TransitionDistributions); 4] = [
        ("c-c", TransitionDistributions::constant_rates().unwrap()),
        (
            "f(t)-c",
            TransitionDistributions::weibull_failures_constant_restore().unwrap(),
        ),
        (
            "c-r(t)",
            TransitionDistributions::constant_failures_weibull_restore().unwrap(),
        ),
        (
            "f(t)-r(t)",
            TransitionDistributions::weibull_both().unwrap(),
        ),
    ];
    let scenarios = variants
        .into_iter()
        .enumerate()
        .map(|(i, (label, dists))| {
            let cfg = RaidGroupConfig { dists, ..base() };
            SweepScenario::new(label, cfg, 6_100 + i as u64)
        })
        .collect();
    let results = collected(scenarios, groups);

    let mttdl = paper_mttdl();
    let series = mcf_figure(
        "fig6",
        "Figure 6 - model vs MTTDL, no latent defects",
        vec![mttdl_series("MTTDL", mttdl, params::MISSION_HOURS, GRID)],
        &results,
    );
    let mut report = Report::default();
    report.line(render_figure(
        &format!(
            "Figure 6 — DDFs per 1,000 RAID groups, no latent defects ({groups} groups/variant)"
        ),
        "hours",
        &series,
    ));
    report.line(format!(
        "Expected shape (paper): c-c follows the MTTDL line closely; the \
         time-dependent variants differ from it 'on the order of 2 to 1'. \
         MTTDL at 10 years = {:.2} DDFs per 1,000 groups ({:.0} years).",
        1_000.0 * params::MISSION_HOURS / mttdl,
        mttdl / HOURS_PER_YEAR,
    ));

    let mttdl_10yr = expected_ddfs(mttdl, 1_000.0, params::MISSION_HOURS);
    let cc = results[0].1.ddfs_per_thousand_groups();
    let ft_rt = results[3].1.ddfs_per_thousand_groups();
    report.claim(
        "c-c within 50% (+0.1) of MTTDL at 10 years",
        (cc - mttdl_10yr).abs() < 0.5 * mttdl_10yr + 0.1,
        format!("c-c {cc:.3}, MTTDL {mttdl_10yr:.3}"),
    );
    report.claim(
        "f(t)-r(t) within a factor of 4 of MTTDL at 10 years",
        ft_rt < 4.0 * mttdl_10yr && ft_rt > mttdl_10yr / 4.0,
        format!("f(t)-r(t) {ft_rt:.3}, MTTDL {mttdl_10yr:.3}"),
    );
    report
}

/// E6 — Figure 7: "Effects of latent defects with no scrub and with
/// 168 hr scrub". The base case (Table 2) against the same model with
/// scrubbing disabled; both curves are non-linear in time.
pub(crate) fn fig7(groups: usize) -> Report {
    let results = collected(
        vec![
            SweepScenario::new("No Scrub", scrubbed(ScrubPolicy::Disabled), 7_001),
            SweepScenario::new("168 hr Scrub", base(), 7_002),
        ],
        groups,
    );
    let (noscrub, scrub) = (&results[0].1, &results[1].1);
    let series = mcf_figure(
        "fig7",
        "Figure 7 - effects of latent defects",
        vec![],
        &results,
    );
    let mut report = Report::default();
    report.line(render_figure(
        &format!("Figure 7 — effects of latent defects ({groups} groups/curve)"),
        "hours",
        &series,
    ));
    report.line(
        "Expected shape (paper): without scrubbing 'over 1,200 DDFs' per \
         1,000 groups by 10 years; with a 168 h scrub an order of \
         magnitude fewer; both plots non-linear (accelerating).",
    );
    report.line(format!(
        "Final values: no scrub = {:.0}, 168 h scrub = {:.0} DDFs / 1,000 groups.",
        noscrub.ddfs_per_thousand_groups(),
        scrub.ddfs_per_thousand_groups()
    ));

    let (n, s) = (noscrub.total_ddfs(), scrub.total_ddfs());
    report.claim(
        "no scrub has over 4x the DDFs of the 168 h scrub",
        n > 4 * s.max(1),
        format!("{n} vs {s} DDFs"),
    );
    let per_1000 = noscrub.ddfs_per_thousand_groups();
    report.claim(
        "no scrub exceeds 900 DDFs per 1,000 groups",
        per_1000 > 900.0,
        format!("{per_1000:.1}"),
    );
    let first = noscrub.ddfs_by(params::MISSION_HOURS / 2.0);
    report.claim(
        "no scrub accelerates: more DDFs in the second half of the mission than the first",
        n - first > first,
        format!("{first} then {}", n - first),
    );
    let (mcf, count) = (series[1].final_value(), scrub.ddfs_per_thousand_groups());
    report.claim(
        "the 168 h curve's final MCF value equals its DDF count",
        (mcf - count).abs() < 1e-9,
        format!("MCF {mcf}, count {count}"),
    );
    report
}

/// E7 — Figure 8: ROCOFs for the two Figure 7 curves. The rate of
/// occurrence of failure (DDFs per fixed interval) increases with time
/// — direct disproof of the homogeneous-Poisson assumption for the
/// RAID group.
pub(crate) fn fig8(groups: usize) -> Report {
    const WINDOWS: usize = 10;
    let results = collected(
        vec![
            SweepScenario::new("No Scrub", scrubbed(ScrubPolicy::Disabled), 8_001),
            SweepScenario::new(
                "168 hr Scrub",
                scrubbed(ScrubPolicy::paper_base_case()),
                8_002,
            ),
        ],
        groups,
    );
    let mut report = Report::default();
    let mut series = Vec::new();
    let mut trends = Vec::new();
    for (label, result) in &results {
        let times = result.ddf_times();
        let pts = rocof(&times, groups, params::MISSION_HOURS, WINDOWS);
        let laplace = laplace_statistic(&times, params::MISSION_HOURS);
        let crow = CrowAmsaa::fit(&times, groups, params::MISSION_HOURS);
        let trend = rocof_trend(&pts);
        let (first, last) = (pts[0].rate, pts[pts.len() - 1].rate);
        report.claim(
            format!("{label} ROCOF slope > 0"),
            trend > 0.0,
            format!("{trend:+.3e}"),
        );
        report.claim(
            format!("{label} ROCOF last window above first"),
            last > first,
            format!("{first:.3e} -> {last:.3e}"),
        );
        trends.push((label, trend, laplace, crow));
        series.push(Series::new(
            label.as_str(),
            pts.iter()
                // Scale to DDFs per 1,000 groups per interval, the
                // paper's y axis.
                .map(|p| (p.time, 1_000.0 * p.events as f64 / groups as f64))
                .collect(),
        ));
    }

    report.line(render_figure(
        &format!(
            "Figure 8 — DDFs per 1,000 groups per {:.0}-hour interval",
            params::MISSION_HOURS / WINDOWS as f64
        ),
        "interval mid (h)",
        &series,
    ));
    for (label, t, laplace, crow) in trends {
        report.line(format!(
            "{label}: ROCOF LS slope = {t:+.3e}; Laplace U = {laplace:+.1} \
             (HPP => N(0,1)); Crow-AMSAA b = {:.3} (HPP => 1){}",
            crow.b,
            if crow.deteriorates_significantly(2.0) {
                " [deteriorating, >2 sigma]"
            } else {
                ""
            }
        ));
    }
    report.line(
        "Expected shape (paper): both ROCOFs increase with time; a \
         homogeneous Poisson process would be flat. The Laplace and \
         Crow-AMSAA statistics reject the HPP decisively.",
    );
    maybe_write_svg(
        "fig8",
        "Figure 8 - ROCOF of the Figure 7 curves",
        "interval midpoint (h)",
        "DDFs per 1,000 groups per interval",
        &series,
    );
    report
}

/// E8 — Figure 9: "Effects of scrub durations". The base case with
/// scrub characteristic times of 336, 168, 48 and 12 hours.
pub(crate) fn fig9(groups: usize) -> Report {
    let scenarios = [336.0, 168.0, 48.0, 12.0]
        .into_iter()
        .enumerate()
        .map(|(i, eta)| {
            SweepScenario::new(
                format!("{eta:.0} hr Scrub"),
                scrubbed(ScrubPolicy::with_characteristic_hours(eta)),
                9_000 + i as u64,
            )
        })
        .collect();
    let results = collected(scenarios, groups);
    let series = mcf_figure(
        "fig9",
        "Figure 9 - effects of scrub durations",
        vec![],
        &results,
    );
    let mut report = Report::default();
    report.line(render_figure(
        &format!("Figure 9 — effects of scrub durations ({groups} groups/curve)"),
        "hours",
        &series,
    ));
    report.line(
        "Expected shape (paper): curves ordered by scrub duration (longer \
         scrub = more DDFs), all far above the MTTDL prediction of 0.27, \
         all with increasing (non-linear) ROCOF.",
    );

    let finals: Vec<f64> = results
        .iter()
        .map(|(_, r)| r.ddfs_per_thousand_groups())
        .collect();
    report.claim(
        "DDFs fall strictly as the scrub speeds up (336 > 168 > 48 > 12 h)",
        finals.windows(2).all(|w| w[0] > w[1]),
        format!("{finals:.1?}"),
    );
    report
}

/// E9 — Figure 10: "Effects of operational failure shape parameter for
/// a given characteristic life". TTOp shape swept over
/// {0.8, 1.0, 1.12, 1.4, 2.0} with eta fixed at 461,386 h; no latent
/// defects (isolating the shape effect).
pub(crate) fn fig10(groups: usize) -> Report {
    let betas = [0.8, 1.0, 1.12, 1.4, 2.0];
    let scenarios = betas
        .into_iter()
        .enumerate()
        .map(|(i, beta)| {
            let cfg = RaidGroupConfig {
                dists: TransitionDistributions::weibull_both().unwrap(),
                ..base()
            }
            .with_ttop(Arc::new(
                Weibull3::two_param(params::TTOP_ETA, beta).unwrap(),
            ));
            SweepScenario::new(format!("beta = {beta}"), cfg, 10_000 + i as u64)
        })
        .collect();
    let results = collected(scenarios, groups);
    let series = mcf_figure(
        "fig10",
        "Figure 10 - TTOp shape sweep at fixed eta",
        vec![],
        &results,
    );
    let mut report = Report::default();
    report.line(render_figure(
        &format!("Figure 10 — TTOp shape sweep at fixed eta ({groups} groups/curve)"),
        "hours",
        &series,
    ));
    let at = |i: usize| series[i].final_value();
    report.line(format!(
        "Ratios vs beta = 1: beta 0.8 -> {:.2}x (paper: ~1.83x); beta 1.4 -> {:.2}x (paper: ~0.30x)",
        at(0) / at(1),
        at(3) / at(1),
    ));
    report.line(
        "Expected shape (paper): smaller beta (infant mortality) piles up \
         early DDFs; larger beta defers failures beyond the mission.",
    );

    let d = |i: usize| results[i].1.ddfs_per_thousand_groups();
    report.claim(
        "DDFs ordered beta 0.8 > 1.0 > 1.4",
        d(0) > d(1) && d(1) > d(3),
        format!("{:.3} > {:.3} > {:.3}", d(0), d(1), d(3)),
    );
    report
}

/// E10 — Table 3: "DDF comparisons" — first-year DDFs per 1,000 groups
/// and the ratio to the MTTDL estimate, across scrub policies.
///
/// Paper rows: MTTDL (0.03); base case w/o scrub (ratio > 2,500);
/// 336 / 168 / 48 / 12 h scrub, ratios decreasing with faster scrub
/// (168 h quoted as > 360x in the text).
pub(crate) fn table3(groups: usize) -> Report {
    let mttdl_year = expected_ddfs(paper_mttdl(), 1_000.0, YEAR);
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
    let scenarios = policies
        .into_iter()
        .enumerate()
        .map(|(i, (label, policy))| SweepScenario::new(label, scrubbed(policy), 11_000 + i as u64))
        .collect();
    let first_year: Vec<(String, f64)> = streamed(scenarios, groups)
        .into_iter()
        .map(|(label, stats)| (label, stats.per_thousand_through(YEAR)))
        .collect();
    let mut rows = vec![("MTTDL".to_string(), vec![mttdl_year, 1.0])];
    rows.extend(ratio_rows(&first_year, mttdl_year));

    let mut report = Report::default();
    report.line(render_table(
        &format!("Table 3 — first-year DDFs per 1,000 groups ({groups} groups/row)"),
        &["DDFs in 1st year", "ratio vs MTTDL"],
        &rows,
    ));
    report.line(
        "Expected shape (paper): no-scrub ratio > 2,500; 168 h scrub > 360; \
         ratios fall monotonically as scrubbing speeds up.",
    );
    let values: Vec<f64> = first_year.iter().map(|(_, v)| *v).collect();
    let rises = monotone_violations(&values, 0.05);
    if !rises.is_empty() {
        report.line(format!(
            "WARNING: ladder rises at row index(es) {rises:?} — more scrubbing \
             should not cost reliability (5% Monte Carlo slack exceeded)"
        ));
    }

    let (noscrub, scrub168) = (values[0] / mttdl_year, values[2] / mttdl_year);
    report.claim(
        "no-scrub first-year ratio vs MTTDL > 1,000",
        noscrub > 1_000.0,
        format!("{noscrub:.1}"),
    );
    report.claim(
        "168 h scrub first-year ratio vs MTTDL > 100",
        scrub168 > 100.0,
        format!("{scrub168:.1}"),
    );
    report.claim(
        "no scrub loses more than the 168 h scrub in the first year",
        values[0] > values[2],
        format!("{:.3} vs {:.3}", values[0], values[2]),
    );
    report.claim(
        "first-year DDFs do not rise as scrubbing speeds up (5% slack)",
        rises.is_empty(),
        format!("{values:.3?}, rises at {rises:?}"),
    );
    report
}

/// E11 — the abstract's headline: "Model results have been verified and
/// predict between 2 to 1,500 times as many double disk failures as
/// that estimated using the current mean time to data loss method"
/// (and "as much as 4,000 times" in the conclusions, for the worst
/// configurations over longer horizons).
///
/// Sweeps the model configurations the paper covers and reports the
/// min/max ratio to MTTDL, bracketing the claim. The no-latent-defect
/// row runs at least 100,000 groups, so it is a sweep of its own.
pub(crate) fn headline(groups: usize) -> Report {
    let mission = params::MISSION_HOURS;
    let mttdl_mission = expected_ddfs(paper_mttdl(), 1_000.0, mission);
    let mttdl_year = mttdl_mission * YEAR / mission;

    let mut rows = Vec::new();
    let mut ratios = Vec::new();

    // No latent defects: the "2x" end of the claim.
    let no_latent = RaidGroupConfig {
        dists: TransitionDistributions::weibull_both().unwrap(),
        ..base()
    };
    let ft_rt = streamed(
        vec![SweepScenario::new("f(t)-r(t)", no_latent, 12_001)],
        groups.max(100_000),
    );
    let r = ft_rt[0].1.ddfs_per_thousand_groups() / mttdl_mission;
    ratios.push(r);
    rows.push(("f(t)-r(t), no latent defects".to_string(), vec![r]));

    // Scrub sweep at the 10-year horizon.
    let scenarios = [
        ("12 hr scrub", ScrubPolicy::with_characteristic_hours(12.0)),
        ("168 hr scrub", ScrubPolicy::paper_base_case()),
        ("no scrub", ScrubPolicy::Disabled),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (label, policy))| SweepScenario::new(label, scrubbed(policy), 12_100 + i as u64))
    .collect();
    for (label, stats) in streamed(scenarios, groups) {
        let r10 = stats.ddfs_per_thousand_groups() / mttdl_mission;
        let r1 = stats.per_thousand_through(YEAR) / mttdl_year;
        ratios.push(r10);
        ratios.push(r1);
        rows.push((format!("{label}, 10-yr horizon"), vec![r10]));
        rows.push((format!("{label}, 1st-yr horizon"), vec![r1]));
    }

    let mut report = Report::default();
    report.line(render_table(
        &format!("Headline — model/MTTDL DDF ratios ({groups} groups/config)"),
        &["ratio"],
        &rows,
    ));
    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().copied().fold(0.0f64, f64::max);
    report.line(format!(
        "Ratio span across configurations: {min:.1}x .. {max:.0}x"
    ));
    report.line(
        "Paper claims: 'between 2 to 1,500 times' (abstract) and 'as much \
         as 4,000 times greater' (conclusions).",
    );
    report
}
