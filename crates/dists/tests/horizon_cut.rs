//! Property tests for [`SampleKernel::horizon_cut`].
//!
//! The cut is a uniform threshold with one promise: every uniform at or
//! above it gives a plain-draw lifetime beyond the horizon, so a draw
//! site that only compares the lifetime against times up to the horizon
//! may skip the quantile. The tests check that promise on the scalar
//! `sample` path word by word (the cut itself, the 64 grid uniforms
//! above it, random uniforms above it and the largest uniform), that the
//! cut is *tight* — within 1e-6 relative of the exact boundary, so the
//! optimisation cannot silently become a no-op — and that every case
//! outside the cut's domain reports "no cut".

use proptest::prelude::*;
use raidsim_dists::kernel::{DrawSource, BEYOND_HORIZON, NO_CUT};
use raidsim_dists::rng::DrawCursor;
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, SampleKernel,
    Weibull3,
};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Uniforms are `k·2⁻⁵³` for the 53-bit grid index `k < 2⁵³`.
const GRID: u64 = 1 << 53;

/// An RNG that yields one fixed word: the draw of grid index `k`.
struct Word(u64);

impl Rng for Word {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

fn draw_at(kernel: &SampleKernel, k: u64) -> f64 {
    kernel.sample(&mut Word(k << 11))
}

/// The grid index of a cut; the cut must lie exactly on the grid.
fn grid_index(cut: f64) -> u64 {
    let k = (cut * GRID as f64) as u64;
    assert_eq!(
        k as f64 / GRID as f64,
        cut,
        "cut {cut} is off the 53-bit grid"
    );
    k
}

fn weibull(gamma: f64, eta: f64, beta: f64) -> SampleKernel {
    let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(gamma, eta, beta).unwrap());
    SampleKernel::lower(&d)
}

/// Weibull parameters plus a horizon: the horizon sits at the exact
/// quantile of level `p`, with the location a multiple `g` of the
/// distance from it to the horizon (which bounds how far the relative
/// guard band moves the cut).
fn cut_case() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (0.0..6.0f64, 0.3..5.0f64, 0.01..0.999f64, 0.0..10.0f64).prop_map(|(log_eta, beta, p, g)| {
        let eta = 10f64.powf(log_eta);
        let span = eta * (-(-p).ln_1p()).powf(1.0 / beta);
        let gamma = g * span;
        (gamma, eta, beta, gamma + span)
    })
}

proptest! {
    #[test]
    fn every_uniform_from_the_cut_up_lands_beyond_the_horizon(
        (gamma, eta, beta, horizon) in cut_case(),
        above in proptest::collection::vec(0.0..1.0f64, 32),
    ) {
        let kernel = weibull(gamma, eta, beta);
        let cut = kernel.horizon_cut(horizon);
        prop_assert!(cut < 1.0, "no cut for γ {gamma}, η {eta}, β {beta}, H {horizon}");
        let k_cut = grid_index(cut);
        let top = GRID - 1;
        let ks = (k_cut..=(k_cut + 64).min(top))
            .chain(above.iter().map(|f| k_cut + ((top - k_cut) as f64 * f) as u64))
            .chain([top]);
        for k in ks {
            let x = draw_at(&kernel, k);
            prop_assert!(
                x > horizon,
                "uniform index {k} (cut {k_cut}) draws {x} ≤ horizon {horizon}"
            );
            let cut_draw = kernel.sample_cut(cut, &mut Word(k << 11));
            prop_assert_eq!(cut_draw, BEYOND_HORIZON);
        }
        // Below the cut the cut path is the plain path, bit for bit.
        for k in k_cut.saturating_sub(64)..k_cut {
            let plain = draw_at(&kernel, k);
            let cut_draw = kernel.sample_cut(cut, &mut Word(k << 11));
            prop_assert_eq!(plain.to_bits(), cut_draw.to_bits());
        }
    }

    #[test]
    fn the_cut_is_tight((gamma, eta, beta, horizon) in cut_case()) {
        let cut = weibull(gamma, eta, beta).horizon_cut(horizon);
        let exact = -(-((horizon - gamma) / eta).powf(beta)).exp_m1();
        let rel = (cut - exact).abs() / exact;
        prop_assert!(rel <= 1e-6, "cut {cut} is {rel:e} relative from the boundary {exact}");
    }

    #[test]
    fn cut_draws_match_across_every_path(
        (gamma, eta, beta, horizon) in cut_case(),
        seed in any::<u64>(),
        runs in proptest::collection::vec(1usize..40, 1..6),
    ) {
        // Scalar and prefetched cut draws agree bit for bit and consume
        // the same words; the cursor rewinds onto the scalar path's
        // word after each run.
        let kernel = weibull(gamma, eta, beta);
        let cut = kernel.horizon_cut(horizon);
        let mut scalar = rand::rngs::StdRng::seed_from_u64(seed);
        let mut prefetched = scalar.clone();
        let mut cursor = DrawCursor::new();
        for &len in &runs {
            cursor.begin(&prefetched);
            for i in 0..len {
                let a = scalar.plain_cut(&kernel, cut);
                let c = cursor.plain_cut(&kernel, cut);
                prop_assert_eq!(a.to_bits(), c.to_bits(), "prefetched draw #{} diverged", i);
            }
            cursor.finish(&mut prefetched);
            prop_assert_eq!(scalar.clone().next_u64(), prefetched.clone().next_u64());
        }
    }
}

#[test]
fn the_paper_base_case_cuts_most_mission_start_lifetimes() {
    // Table 3 TTOp over a 10-year mission: P(TTOp > mission) ≈ 0.856.
    let cut = weibull(0.0, 461_386.0, 1.12).horizon_cut(87_600.0);
    assert!((cut - 0.144).abs() < 1e-3, "cut {cut}");
}

#[test]
fn no_cut_outside_the_domain() {
    let k = weibull(100.0, 1_000.0, 1.5);
    for horizon in [
        100.0,
        50.0,
        0.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        assert_eq!(k.horizon_cut(horizon), NO_CUT, "horizon {horizon}");
    }
    // A horizon no 53-bit uniform reaches: the largest draw is about
    // 36.7^(1/5) ≈ 2.06.
    assert_eq!(weibull(0.0, 1.0, 5.0).horizon_cut(100.0), NO_CUT);

    // Out-of-domain or hostile parameters, built directly.
    let raw = |gamma: f64, eta: f64, inv_beta: f64| SampleKernel::Weibull3 {
        gamma,
        eta,
        beta: 1.0 / inv_beta,
        inv_beta,
    };
    for kernel in [
        raw(-1.0, 1_000.0, 1.0),
        raw(0.0, 1_000.0, 2e3),
        raw(f64::NAN, 1_000.0, 1.0),
        raw(0.0, f64::NAN, 1.0),
        raw(0.0, f64::INFINITY, 1.0),
        raw(0.0, 0.0, 1.0),
        raw(0.0, 1_000.0, f64::NAN),
        raw(0.0, 1_000.0, f64::INFINITY),
        raw(0.0, 1_000.0, 0.0),
    ] {
        assert_eq!(kernel.horizon_cut(500.0), NO_CUT, "{kernel:?}");
    }

    // Only Weibull3 is ever cut.
    let weibull_dist: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(0.0, 1e3, 1.2).unwrap());
    let exponential: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(1e3).unwrap());
    let others: Vec<Arc<dyn LifeDistribution>> = vec![
        exponential.clone(),
        Arc::new(Lognormal::new(0.0, 6.0, 0.8).unwrap()),
        Arc::new(Degenerate::new(10.0).unwrap()),
        Arc::new(
            Mixture::new(vec![
                (0.5, weibull_dist.clone()),
                (0.5, exponential.clone()),
            ])
            .unwrap(),
        ),
        Arc::new(CompetingRisks::new(vec![weibull_dist, exponential]).unwrap()),
    ];
    let boxed = SampleKernel::Boxed {
        source: Arc::new(Weibull3::new(0.0, 1e3, 1.2).unwrap()),
    };
    for kernel in others.iter().map(SampleKernel::lower).chain([boxed]) {
        assert_eq!(
            kernel.horizon_cut(500.0),
            NO_CUT,
            "{}",
            kernel.variant_name()
        );
    }
}
