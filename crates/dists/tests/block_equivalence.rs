//! Bit-equality property tests between the block-draw kernels and the
//! scalar sampling loops they replace.
//!
//! The contract (documented on `SampleKernel` and in DESIGN.md §18) is
//! that under [`MathMode::Exact`] every `*_block` method consumes
//! exactly the same RNG words and produces bit-identical `f64`s as the
//! corresponding scalar method called once per element — for **every**
//! kernel variant, including the composite and boxed fallbacks and the
//! tilted/forced importance-sampling draws (whose accumulated
//! log-weights must also match to the bit, which pins the summation
//! order). [`MathMode::Fast`] is exercised separately with an explicit
//! tolerance: per-draw relative error below `1e-12` against the exact
//! path, with the `powf`-specializable shapes (`1/β ∈ {0.5, 1, 2}`)
//! covered deliberately.
//!
//! The prefetching [`DrawCursor`] is held to the same contract for lazy
//! draw sites: any sequence of draws through it matches the bare stream
//! bit for bit, and its rewind leaves the stream on the scalar path's
//! word. The unit-shape `powf` shortcut is pinned to its basis, a
//! faithfully rounded `powf`.

use proptest::prelude::*;
use raidsim_dists::kernel::{DrawSource, Forcing, MathMode, Tilt};
use raidsim_dists::rng::DrawCursor;
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, SampleKernel,
    Weibull3,
};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const BLOCK: usize = 48;

/// Runs every block method against its scalar loop on paired streams,
/// asserting bit-equality of draws and log-weights plus final RNG
/// lockstep.
fn assert_block_bit_identical(dist: &Arc<dyn LifeDistribution>, seed: u64, fracs: &[f64]) {
    let kernel = SampleKernel::lower(dist);
    let t0s: Vec<f64> = fracs.iter().map(|&f| dist.quantile(f)).collect();
    let tilt = Tilt::new(0.35).unwrap();
    let forcing = Forcing::new(0.3).unwrap();
    let mut rng_scalar = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rng_block = rand::rngs::StdRng::seed_from_u64(seed);
    let mut block = [0.0f64; BLOCK];
    let check = |label: &str, scalar: &[f64], block: &[f64]| {
        for (i, (a, b)) in scalar.iter().zip(block).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label} #{i} diverged for {kernel:?}: scalar {a}, block {b}"
            );
        }
    };

    // Unconditional.
    let scalar: Vec<f64> = (0..BLOCK).map(|_| kernel.sample(&mut rng_scalar)).collect();
    kernel.sample_block(MathMode::Exact, &mut rng_block, &mut block);
    check("sample", &scalar, &block);

    // Conditional, at several survival ages.
    for &t0 in &t0s {
        let scalar: Vec<f64> = (0..BLOCK)
            .map(|_| kernel.sample_conditional(t0, &mut rng_scalar))
            .collect();
        kernel.sample_conditional_block(MathMode::Exact, t0, &mut rng_block, &mut block);
        check("sample_conditional", &scalar, &block);
    }

    // Tilted: draws and the accumulated log-weight must both match.
    let mut lw_scalar = 0.25f64;
    let mut lw_block = 0.25f64;
    let scalar: Vec<f64> = (0..BLOCK)
        .map(|_| kernel.sample_tilted(tilt, &mut lw_scalar, &mut rng_scalar))
        .collect();
    kernel.sample_tilted_block(
        MathMode::Exact,
        tilt,
        &mut lw_block,
        &mut rng_block,
        &mut block,
    );
    check("sample_tilted", &scalar, &block);
    assert_eq!(
        lw_scalar.to_bits(),
        lw_block.to_bits(),
        "tilted log-weight diverged for {kernel:?}: scalar {lw_scalar}, block {lw_block}"
    );

    // Conditional tilted.
    for &t0 in &t0s {
        let scalar: Vec<f64> = (0..BLOCK)
            .map(|_| kernel.sample_conditional_tilted(t0, tilt, &mut lw_scalar, &mut rng_scalar))
            .collect();
        kernel.sample_conditional_tilted_block(
            MathMode::Exact,
            t0,
            tilt,
            &mut lw_block,
            &mut rng_block,
            &mut block,
        );
        check("sample_conditional_tilted", &scalar, &block);
        assert_eq!(lw_scalar.to_bits(), lw_block.to_bits());
    }

    // Forced conditional, windows derived from the distribution scale.
    let window = (dist.quantile(0.6) - dist.quantile(0.2)).max(1.0);
    for &t0 in &t0s {
        let scalar: Vec<f64> = (0..BLOCK)
            .map(|_| {
                kernel.sample_conditional_forced(
                    t0,
                    window,
                    forcing,
                    &mut lw_scalar,
                    &mut rng_scalar,
                )
            })
            .collect();
        kernel.sample_conditional_forced_block(
            MathMode::Exact,
            t0,
            window,
            forcing,
            &mut lw_block,
            &mut rng_block,
            &mut block,
        );
        check("sample_conditional_forced", &scalar, &block);
        assert_eq!(lw_scalar.to_bits(), lw_block.to_bits());
    }

    // Lockstep: both streams must have consumed the same word count.
    assert_eq!(
        rng_scalar.next_u64(),
        rng_block.next_u64(),
        "rng streams fell out of lockstep for {kernel:?}"
    );
}

fn weibull_params() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.0..48.0f64, 1.0..1.0e6f64, 0.3..5.0f64)
}

/// The unit-shape rule behind the `powf` shortcut both math modes take
/// for β = 1: `powf` is faithfully rounded, so the representable result
/// `x¹ = x` must come back with the same bits.
fn assert_unit_powf_is_identity(x: f64) {
    // A runtime exponent, so the libm call runs rather than a fold.
    let y = x.powf(std::hint::black_box(1.0));
    assert_eq!(y.to_bits(), x.to_bits(), "{x:e}.powf(1.0) returned {y:e}");
}

#[test]
fn unit_shape_powf_is_the_identity_at_the_edges() {
    let edges = [
        0.0,
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
        f64::MIN_POSITIVE,
        f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
        1.0 + f64::EPSILON,
        f64::MAX,
        f64::INFINITY,
    ];
    // Powers of two sit where a 1-ULP error could land on the nearer
    // lower neighbor, so cover every one: subnormal, then normal.
    let subnormal_powers = (0..52).map(|j| f64::from_bits(1u64 << j));
    let normal_powers = (1..2047u64).map(|k| f64::from_bits(k << 52));
    for x in edges
        .into_iter()
        .chain(subnormal_powers)
        .chain(normal_powers)
    {
        assert_unit_powf_is_identity(x);
    }
}

/// A prefetching cursor and the bare stream must agree draw for draw:
/// the same kernel sequence drawn through [`DrawCursor`] (plain draws
/// through the `e` lane, every other form through raw words) and
/// straight from the RNG gives bit-identical values and log-weights,
/// and [`DrawCursor::finish`] leaves the RNG on the scalar path's word.
fn assert_prefetch_bit_identical(
    kernels: &[SampleKernel],
    seed: u64,
    groups: &[Vec<(usize, usize)>],
) {
    let tilt = Tilt::new(0.35).unwrap();
    let forcing = Forcing::new(0.3).unwrap();
    let mut rng_scalar = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rng_cursor = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cursor = DrawCursor::new();
    let mut lw_scalar = 0.0f64;
    let mut lw_cursor = 0.0f64;
    for ops in groups {
        cursor.begin(&rng_cursor);
        for (i, &(form, k)) in ops.iter().enumerate() {
            let kernel = &kernels[k % kernels.len()];
            let t0 = 5.0 * i as f64;
            let (a, b) = match form {
                0 => (rng_scalar.plain(kernel), cursor.plain(kernel)),
                1 => (
                    kernel.sample_tilted(tilt, &mut lw_scalar, &mut rng_scalar),
                    kernel.sample_tilted(tilt, &mut lw_cursor, &mut cursor),
                ),
                2 => (
                    kernel.sample_conditional(t0, &mut rng_scalar),
                    kernel.sample_conditional(t0, &mut cursor),
                ),
                3 => (
                    kernel.sample_conditional_tilted(t0, tilt, &mut lw_scalar, &mut rng_scalar),
                    kernel.sample_conditional_tilted(t0, tilt, &mut lw_cursor, &mut cursor),
                ),
                _ => (
                    kernel.sample_conditional_forced(
                        t0,
                        24.0,
                        forcing,
                        &mut lw_scalar,
                        &mut rng_scalar,
                    ),
                    kernel.sample_conditional_forced(
                        t0,
                        24.0,
                        forcing,
                        &mut lw_cursor,
                        &mut cursor,
                    ),
                ),
            };
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "draw #{i} (form {form}) diverged for {kernel:?}: scalar {a}, cursor {b}"
            );
            assert_eq!(lw_scalar.to_bits(), lw_cursor.to_bits());
        }
        cursor.finish(&mut rng_cursor);
        assert_eq!(
            rng_scalar.clone().next_u64(),
            rng_cursor.clone().next_u64(),
            "rewind left the stream off the scalar position after {} draws",
            ops.len()
        );
    }
}

/// One kernel of every variant, with a unit-shape Weibull among them.
fn kernel_menu((g, e, b): (f64, f64, f64), mean: f64) -> Vec<SampleKernel> {
    let weibull = Arc::new(Weibull3::new(g, e, b).unwrap());
    let exponential = Arc::new(Exponential::from_mean(mean).unwrap());
    let dists: Vec<Arc<dyn LifeDistribution>> = vec![
        weibull.clone(),
        Arc::new(Weibull3::new(g, e, 1.0).unwrap()),
        exponential.clone(),
        Arc::new(Lognormal::new(g, 3.0, 0.8).unwrap()),
        Arc::new(Degenerate::new(g + 1.0).unwrap()),
        Arc::new(Mixture::new(vec![(0.3, weibull.clone() as _), (0.7, exponential as _)]).unwrap()),
        Arc::new(
            CompetingRisks::new(vec![
                weibull as _,
                Arc::new(Exponential::from_mean(2.0 * mean).unwrap()) as _,
            ])
            .unwrap(),
        ),
        Arc::new(Shifted(Exponential::from_mean(mean).unwrap(), g)),
    ];
    dists.iter().map(SampleKernel::lower).collect()
}

fn t0_fracs() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..0.9f64, 4)
}

/// A distribution with no `lower_kernel` override: exercises the
/// `Boxed` scalar fallback inside every block method.
#[derive(Debug)]
struct Shifted(Exponential, f64);

impl LifeDistribution for Shifted {
    fn cdf(&self, t: f64) -> f64 {
        self.0.cdf(t - self.1)
    }
    fn pdf(&self, t: f64) -> f64 {
        self.0.pdf(t - self.1)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.1 + self.0.quantile(p)
    }
    fn mean(&self) -> f64 {
        self.1 + self.0.mean()
    }
}

proptest! {
    #[test]
    fn unit_shape_powf_is_the_identity(bits in any::<u64>()) {
        // Any finite x ≥ 0: a clear sign bit, and the non-finite
        // exponent folded onto the largest finite value.
        assert_unit_powf_is_identity(f64::from_bits(bits >> 1).min(f64::MAX));
    }

    #[test]
    fn prefetched_draws_are_bit_identical_and_rewind_exactly(
        params in weibull_params(),
        mean in 1.0..1.0e6f64,
        seed in any::<u64>(),
        // Several groups of (draw form, kernel) sequences, from empty
        // through several maximal refills.
        groups in proptest::collection::vec(
            proptest::collection::vec((0usize..5, 0usize..8), 0..70),
            1..4,
        ),
    ) {
        assert_prefetch_bit_identical(&kernel_menu(params, mean), seed, &groups);
    }

    /// Groups made only of plain draws: every kernel variant through
    /// the `e` lane or the raw-word fallback, at every draw count that
    /// ends a refill exactly (2, 6, 14, 30, 46) and around it.
    #[test]
    fn prefetched_plain_draws_rewind_at_every_count(
        params in weibull_params(),
        mean in 1.0..1.0e6f64,
        seed in any::<u64>(),
        k in 0usize..8,
        n in 0usize..50,
    ) {
        let plain = vec![vec![(0usize, k); n]];
        assert_prefetch_bit_identical(&kernel_menu(params, mean), seed, &plain);
    }

    #[test]
    fn weibull_blocks_are_bit_identical(
        (g, e, b) in weibull_params(),
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(g, e, b).unwrap());
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn exponential_blocks_are_bit_identical(
        mean in 1.0..1.0e6f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(mean).unwrap());
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn lognormal_blocks_are_bit_identical(
        g in 0.0..48.0f64,
        mu in -2.0..12.0f64,
        sigma in 0.05..2.5f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Lognormal::new(g, mu, sigma).unwrap());
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn degenerate_blocks_are_bit_identical(
        v in 0.0..1.0e5f64,
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Degenerate::new(v).unwrap());
        // Degenerate has no interior quantiles; condition at the point
        // of support and below.
        let kernel = SampleKernel::lower(&d);
        prop_assert_eq!(kernel.words_per_sample(), Some(0));
        assert_block_bit_identical(&d, seed, &[]);
    }

    #[test]
    fn mixture_blocks_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        mean in 1.0..1.0e6f64,
        w in 0.01..0.99f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Exponential::from_mean(mean).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Mixture::new(vec![(w, a as _), (1.0 - w, b as _)]).unwrap());
        prop_assert_eq!(SampleKernel::lower(&d).words_per_sample(), None);
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn competing_blocks_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        (g2, e2, b2) in weibull_params(),
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Weibull3::new(g2, e2, b2).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(CompetingRisks::new(vec![a as _, b as _]).unwrap());
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn boxed_blocks_are_bit_identical(
        mean in 1.0..1.0e6f64,
        shift in 0.0..100.0f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Shifted(Exponential::from_mean(mean).unwrap(), shift));
        prop_assert!(matches!(SampleKernel::lower(&d), SampleKernel::Boxed { .. }));
        assert_block_bit_identical(&d, seed, &fracs);
    }

    /// Fast math may reorder float ops but must stay within the
    /// documented per-draw tolerance of the exact path — and must
    /// consume exactly the same RNG words.
    #[test]
    fn fast_math_blocks_stay_within_tolerance(
        // β ∈ {0.5, 1, 2} hit the specialized powf exponents 2, 1 and
        // 0.5; the free range covers the generic fallback.
        beta in prop_oneof![Just(0.5f64), Just(1.0f64), Just(2.0f64), 0.3..5.0f64],
        eta in 1.0..1.0e6f64,
        gamma in 0.0..48.0f64,
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(gamma, eta, beta).unwrap());
        let kernel = SampleKernel::lower(&d);
        let mut rng_exact = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_fast = rand::rngs::StdRng::seed_from_u64(seed);
        let mut exact = [0.0f64; BLOCK];
        let mut fast = [0.0f64; BLOCK];
        kernel.sample_block(MathMode::Exact, &mut rng_exact, &mut exact);
        kernel.sample_block(MathMode::Fast, &mut rng_fast, &mut fast);
        for (i, (a, b)) in exact.iter().zip(&fast).enumerate() {
            let denom = a.abs().max(1e-300);
            let rel = (a - b).abs() / denom;
            prop_assert!(
                rel < 1e-12,
                "draw #{} rel error {} exceeds fast-math tolerance (exact {}, fast {})",
                i, rel, a, b
            );
        }
        prop_assert_eq!(rng_exact.next_u64(), rng_fast.next_u64());
    }

    /// The specializable exponents are *exactly* equal under fast math
    /// when the rewrite is value-preserving (`powf(x, 1.0) == x`), and
    /// within one ulp-scale tolerance for sqrt/square.
    #[test]
    fn fast_math_identity_exponent_is_bit_identical(
        eta in 1.0..1.0e6f64,
        gamma in 0.0..48.0f64,
        seed in any::<u64>(),
    ) {
        // β = 1: inv_beta = 1.0, powf_mode returns x unchanged and the
        // surrounding op sequence is untouched — bit-identical.
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(gamma, eta, 1.0).unwrap());
        let kernel = SampleKernel::lower(&d);
        let mut rng_exact = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_fast = rand::rngs::StdRng::seed_from_u64(seed);
        let mut exact = [0.0f64; BLOCK];
        let mut fast = [0.0f64; BLOCK];
        kernel.sample_block(MathMode::Exact, &mut rng_exact, &mut exact);
        kernel.sample_block(MathMode::Fast, &mut rng_fast, &mut fast);
        for (a, b) in exact.iter().zip(&fast) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
