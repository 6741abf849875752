//! Bit-equality property tests between the buffered and prefetched
//! draw paths and the scalar sampling loops.
//!
//! [`SampleKernel::sample_block`] must consume exactly the same RNG
//! words and produce bit-identical `f64`s as [`SampleKernel::sample`]
//! called once per element — for **every** kernel variant, including
//! the composite and boxed fallbacks.
//!
//! The prefetching [`DrawCursor`] is held to the same contract for lazy
//! draw sites: any sequence of draws through it — plain, horizon-cut,
//! tilted, conditional and forced, interleaved — matches the bare
//! stream bit for bit, and its rewind leaves the stream on the scalar
//! path's word. A bundle's shared [`DrawMemo`] is held to it too: every
//! reader of one memo, whatever its kernels and its draw sequence, sees
//! the bare stream's draws bit for bit, however the readers before it
//! extended the memo and filled its `powf` lanes. Renewal walks
//! ([`DrawSource::walk_renewal`]) through the cursor and through memo
//! readers, over the power lanes they declare and past the cursor's
//! last lane, match the provided draw-by-draw loop on the bare stream.
//! Batched mission-start pairs ([`sample_pairs`]) match their scalar
//! draws, and a memo reader opened mid-stream ([`DrawMemo::reader_at`])
//! reads on from there. The unit-shape `powf` shortcut is pinned to its
//! basis, a faithfully rounded `powf`.

use proptest::prelude::*;
use raidsim_dists::kernel::{sample_pairs, DrawSource, Forcing, MathMode, Tilt, NO_CUT};
use raidsim_dists::rng::{DrawCursor, DrawMemo};
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, SampleKernel,
    Weibull3,
};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const BLOCK: usize = 48;

/// Runs [`SampleKernel::sample_block`] against its scalar loop on
/// paired streams, asserting bit-equality of draws plus final RNG
/// lockstep.
fn assert_block_bit_identical(dist: &Arc<dyn LifeDistribution>, seed: u64) {
    let kernel = SampleKernel::lower(dist);
    let mut rng_scalar = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rng_block = rand::rngs::StdRng::seed_from_u64(seed);
    let mut block = [0.0f64; BLOCK];
    let scalar: Vec<f64> = (0..BLOCK).map(|_| kernel.sample(&mut rng_scalar)).collect();
    kernel.sample_block(MathMode::Exact, &mut rng_block, &mut block);
    for (i, (a, b)) in scalar.iter().zip(&block).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "sample #{i} diverged for {kernel:?}: scalar {a}, block {b}"
        );
    }
    assert_eq!(
        rng_scalar.next_u64(),
        rng_block.next_u64(),
        "rng streams fell out of lockstep for {kernel:?}"
    );
}

fn weibull_params() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.0..48.0f64, 1.0..1.0e6f64, 0.3..5.0f64)
}

/// The unit-shape rule behind the `powf` shortcut the kernels take for
/// β = 1: `powf` is faithfully rounded, so the representable result
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
/// the same kernel sequence drawn through [`DrawCursor`] (plain and
/// horizon-cut draws through the `e` lane, every other form through raw
/// words) and straight from the RNG gives bit-identical values and
/// log-weights, and [`DrawCursor::finish`] leaves the RNG on the scalar
/// path's word. Cut draws use each kernel's
/// [`SampleKernel::horizon_cut`] at `horizon`.
fn assert_prefetch_bit_identical(
    kernels: &[SampleKernel],
    horizon: f64,
    seed: u64,
    groups: &[Vec<(usize, usize)>],
) {
    let cuts: Vec<f64> = kernels.iter().map(|k| k.horizon_cut(horizon)).collect();
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
            let cut = cuts[k % kernels.len()];
            let t0 = 5.0 * i as f64;
            let (a, b) = match form {
                0 => (rng_scalar.plain(kernel), cursor.plain(kernel)),
                5 => (
                    rng_scalar.plain_cut(kernel, cut),
                    cursor.plain_cut(kernel, cut),
                ),
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

/// Readers of one [`DrawMemo`] and the bare stream must agree draw for
/// draw: reader `r` runs `scenarios[r]`'s `(draw form, kernel)`
/// sequence over kernel menu `r % menus.len()` after every earlier
/// reader ran its own, so later readers meet a memo that earlier ones
/// extended and whose `powf` lanes they partly filled — for other
/// exponents and other positions as well as for the same ones. With
/// `restart_after`, the memo restarts after that reader (what the
/// executor does after a panic) and the rest must agree just the same.
/// The same memo then serves a second group.
fn assert_memo_bit_identical(
    menus: &[Vec<SampleKernel>],
    horizon: f64,
    seed: u64,
    scenarios: &[Vec<(usize, usize)>],
    restart_after: Option<usize>,
) {
    let mut memo = DrawMemo::new();
    // Two groups through one memo: the second must not see the first's
    // words or powers.
    for seed in [seed, seed ^ 1] {
        memo.begin(rand::rngs::StdRng::seed_from_u64(seed));
        memo_group(menus, horizon, seed, scenarios, restart_after, &mut memo);
    }
}

fn memo_group(
    menus: &[Vec<SampleKernel>],
    horizon: f64,
    seed: u64,
    scenarios: &[Vec<(usize, usize)>],
    restart_after: Option<usize>,
    memo: &mut DrawMemo,
) {
    let tilt = Tilt::new(0.35).unwrap();
    let forcing = Forcing::new(0.3).unwrap();
    for (r, ops) in scenarios.iter().enumerate() {
        let kernels = &menus[r % menus.len()];
        let cuts: Vec<f64> = kernels.iter().map(|k| k.horizon_cut(horizon)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut reader = memo.reader();
        let mut lw_scalar = 0.0f64;
        let mut lw_memo = 0.0f64;
        for (i, &(form, k)) in ops.iter().enumerate() {
            let kernel = &kernels[k % kernels.len()];
            let cut = cuts[k % kernels.len()];
            let t0 = 5.0 * i as f64;
            let (a, b) = match form {
                0 => (rng.plain(kernel), reader.plain(kernel)),
                5 => (rng.plain_cut(kernel, cut), reader.plain_cut(kernel, cut)),
                1 => (
                    kernel.sample_tilted(tilt, &mut lw_scalar, &mut rng),
                    kernel.sample_tilted(tilt, &mut lw_memo, &mut reader),
                ),
                2 => (
                    kernel.sample_conditional(t0, &mut rng),
                    kernel.sample_conditional(t0, &mut reader),
                ),
                3 => (
                    kernel.sample_conditional_tilted(t0, tilt, &mut lw_scalar, &mut rng),
                    kernel.sample_conditional_tilted(t0, tilt, &mut lw_memo, &mut reader),
                ),
                _ => (
                    kernel.sample_conditional_forced(t0, 24.0, forcing, &mut lw_scalar, &mut rng),
                    kernel.sample_conditional_forced(t0, 24.0, forcing, &mut lw_memo, &mut reader),
                ),
            };
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "reader {r}, draw #{i} (form {form}) diverged for {kernel:?}: \
                 scalar {a}, memo {b}"
            );
            assert_eq!(lw_scalar.to_bits(), lw_memo.to_bits());
        }
        // The reader consumed exactly the scalar path's words.
        assert_eq!(reader.consumed(), ops_words(&rng, seed));
        if restart_after == Some(r) {
            memo.restart();
        }
    }
}

/// Words `rng` consumed since it was seeded with `seed`.
fn ops_words(rng: &rand::rngs::StdRng, seed: u64) -> usize {
    let mut fresh = rand::rngs::StdRng::seed_from_u64(seed);
    let target = rng.clone().next_u64();
    (0..).find(|_| fresh.next_u64() == target).unwrap()
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

/// The renewal-walk menu: a unit-shape Weibull (its power is the `e`
/// lane itself), three Weibulls of other shapes (a walk declares a lane
/// for each exponent it meets, but a cursor keeps only two, so the third
/// one walked falls back to the draw-by-draw loop there), and an
/// exponential (never walked over lanes). Returns the kernels and their
/// means.
fn walk_menu((g, e, b): (f64, f64, f64), mean: f64) -> (Vec<SampleKernel>, Vec<f64>) {
    let dists: Vec<Arc<dyn LifeDistribution>> = vec![
        Arc::new(Weibull3::new(g, e, 1.0).unwrap()),
        Arc::new(Weibull3::new(g, e, b).unwrap()),
        Arc::new(Weibull3::new(g, e, b + 0.5).unwrap()),
        Arc::new(Weibull3::new(g, e, b + 1.0).unwrap()),
        Arc::new(Exponential::from_mean(mean).unwrap()),
    ];
    let kernels = dists.iter().map(SampleKernel::lower).collect();
    let means = dists.iter().map(|d| d.mean()).collect();
    (kernels, means)
}

/// An RNG at raw xoshiro state `s`, with word 1 or 2 forced to zero
/// (uniform `u = 0`, `e = 0`) when `zero` says so: a zero `s[0]` and
/// `s[3]` make the first word zero, and a zero `s[0]` with
/// `s[3] = s[1]` the second.
fn raw_stream(mut s: [u64; 4], zero: usize) -> rand::rngs::StdRng {
    s[1] |= 1;
    match zero {
        1 => (s[0], s[3]) = (0, 0),
        2 => (s[0], s[3]) = (0, s[1]),
        _ => {}
    }
    let mut seed = [0u8; 32];
    for (chunk, word) in seed.chunks_exact_mut(8).zip(s) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    rand::rngs::StdRng::from_seed(seed)
}

/// Runs `walks` — `(a, b, cycles, pre)`: `pre` plain draws of `a`, then
/// one walk of pair `(a, b)` from `defect = clear = 0` to about `cycles`
/// mean cycles (a negative count puts the bound below the first clear)
/// — through `bare`, whose walk is the provided draw-by-draw loop, and
/// through `src`. Every walk must agree in defect and clear bits, cycle
/// count and the next word.
fn run_walks<S: DrawSource>(
    (kernels, means): (&[SampleKernel], &[f64]),
    bare: &mut rand::rngs::StdRng,
    src: &mut S,
    walks: &[(usize, usize, f64, usize)],
    label: &str,
) {
    for (w, &(ka, kb, cycles, pre)) in walks.iter().enumerate() {
        let (a, b) = (&kernels[ka], &kernels[kb]);
        for _ in 0..pre {
            assert_eq!(
                bare.plain(a).to_bits(),
                src.plain(a).to_bits(),
                "{label}, walk {w}: pre-draw"
            );
        }
        let bound = cycles * (means[ka] + means[kb]);
        let (mut d1, mut c1, mut d2, mut c2) = (0.0, 0.0, 0.0, 0.0);
        let n1 = bare.walk_renewal(a, b, &mut d1, &mut c1, bound);
        let n2 = src.walk_renewal(a, b, &mut d2, &mut c2, bound);
        assert_eq!(
            n1, n2,
            "{label}, walk {w} ({ka}, {kb}): cycle counts differ"
        );
        assert_eq!(
            d1.to_bits(),
            d2.to_bits(),
            "{label}, walk {w} ({ka}, {kb}): defect {d1} vs {d2}"
        );
        assert_eq!(
            c1.to_bits(),
            c2.to_bits(),
            "{label}, walk {w} ({ka}, {kb}): clear {c1} vs {c2}"
        );
        assert_eq!(
            bare.next_u64(),
            src.next_u64(),
            "{label}, walk {w}: next word"
        );
    }
}

/// Renewal walks through a [`DrawCursor`] (rewound afterwards) and
/// through readers of one [`DrawMemo`] — each reader over its own
/// menu, the memo restarting after reader `restart_after` — against the
/// bare stream's provided loop.
fn assert_walks_bit_identical(
    menus: &[(Vec<SampleKernel>, Vec<f64>)],
    stream: &rand::rngs::StdRng,
    walks: &[(usize, usize, f64, usize)],
    restart_after: Option<usize>,
) {
    let mut cursor = DrawCursor::new();
    let mut bare = stream.clone();
    let mut rewound = stream.clone();
    cursor.begin(&rewound);
    let menu = (&menus[0].0[..], &menus[0].1[..]);
    run_walks(menu, &mut bare, &mut cursor, walks, "cursor");
    cursor.finish(&mut rewound);
    assert_eq!(bare.next_u64(), rewound.next_u64(), "cursor rewind");

    let mut memo = DrawMemo::new();
    memo.begin(stream.clone());
    for (r, (kernels, means)) in menus.iter().enumerate() {
        let mut bare = stream.clone();
        let mut reader = memo.reader();
        run_walks(
            (kernels, means),
            &mut bare,
            &mut reader,
            walks,
            &format!("reader {r}"),
        );
        if restart_after == Some(r) {
            memo.restart();
        }
    }
}

/// A distribution with no `lower_kernel` override: exercises the
/// `Boxed` scalar fallback.
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
            proptest::collection::vec((0usize..6, 0usize..8), 0..70),
            1..4,
        ),
    ) {
        let horizon = params.0 + params.1;
        assert_prefetch_bit_identical(&kernel_menu(params, mean), horizon, seed, &groups);
    }

    /// Readers of one memo over three kernel menus: the Weibull scale
    /// varies between the first two (same exponents, so the second
    /// reuses the first's `powf` lanes) and the shape in the third
    /// (another lane).
    #[test]
    fn memo_readers_see_the_bare_stream(
        params in weibull_params(),
        mean in 1.0..1.0e6f64,
        seed in any::<u64>(),
        scenarios in proptest::collection::vec(
            proptest::collection::vec((0usize..6, 0usize..8), 0..70),
            1..5,
        ),
        restart in proptest::option::of(0usize..4),
    ) {
        let (g, e, b) = params;
        let menus = [
            kernel_menu(params, mean),
            kernel_menu((g, 2.0 * e, b), mean),
            kernel_menu((g, e, b + 0.5), 0.5 * mean),
        ];
        assert_memo_bit_identical(&menus, g + e, seed, &scenarios, restart);
    }

    /// Renewal walks over every pair of a unit, three other Weibull and
    /// a non-Weibull kernel, with `u = 0` words at the start, bounds
    /// below the first clear, walks straddling refills, plain draws
    /// before a walk (lazily filled power lanes the walk then declares)
    /// and memo readers whose menus differ in scale (the lanes are
    /// shared) with a restart, which drops the declarations, between
    /// them.
    #[test]
    fn renewal_walks_match_the_provided_loop(
        params in weibull_params(),
        mean in 1.0..1.0e6f64,
        s in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        zero in 0usize..3,
        walks in proptest::collection::vec((0usize..5, 0usize..5, -1.0..30.0f64, 0usize..20), 1..6),
        restart in proptest::option::of(0usize..3),
    ) {
        let (g, e, b) = params;
        let menus = [
            walk_menu(params, mean),
            walk_menu((g, 2.0 * e, b), 2.0 * mean),
            walk_menu((g, 0.5 * e, b), mean),
        ];
        let stream = raw_stream([s.0, s.1, s.2, s.3], zero);
        assert_walks_bit_identical(&menus, &stream, &walks, restart);
    }

    /// Batched mission-start pairs (a cut draw of `a`, a plain draw of
    /// `b`) match the scalar calls word for word, for pair counts on
    /// both sides of the sixteen-word chunk, with a zero uniform on
    /// either side of the first pair; a non-Weibull kernel reads no
    /// word.
    #[test]
    fn batched_pairs_match_the_scalar_draws(
        pa in weibull_params(),
        pb in weibull_params(),
        s in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        zero in 0usize..3,
        pairs in 0usize..40,
        uncut in any::<bool>(),
    ) {
        let a = SampleKernel::lower(&(Arc::new(Weibull3::new(pa.0, pa.1, pa.2).unwrap()) as Arc<dyn LifeDistribution>));
        let b = SampleKernel::lower(&(Arc::new(Weibull3::new(pb.0, pb.1, pb.2).unwrap()) as Arc<dyn LifeDistribution>));
        let cut = if uncut { NO_CUT } else { a.horizon_cut(pa.0 + pa.1) };
        let mut scalar = raw_stream([s.0, s.1, s.2, s.3], zero);
        let mut batched = scalar.clone();
        let mut out = vec![(0.0, 0.0); pairs];
        prop_assert!(sample_pairs(&mut batched, &a, cut, &b, &mut out));
        for (i, &(x, y)) in out.iter().enumerate() {
            prop_assert_eq!(x.to_bits(), a.sample_cut(cut, &mut scalar).to_bits(), "pair {} a", i);
            prop_assert_eq!(y.to_bits(), b.sample(&mut scalar).to_bits(), "pair {} b", i);
        }
        prop_assert_eq!(batched.next_u64(), scalar.next_u64());
        let other = SampleKernel::lower(&(Arc::new(Exponential::new(1e-3).unwrap()) as Arc<dyn LifeDistribution>));
        let mut untouched = scalar.clone();
        prop_assert!(!sample_pairs(&mut untouched, &a, cut, &other, &mut out));
        prop_assert_eq!(untouched.next_u64(), scalar.next_u64());
    }

    /// A memo reader opened at position `k` reads what a reader from
    /// the first word reads after `k` words, whether the memo already
    /// fetched past `k` or not, and every restart moves the memo's
    /// generation on.
    #[test]
    fn memo_readers_resume_at_any_position(
        seed in any::<u64>(),
        k in 0usize..60,
        prefetched in 0usize..60,
    ) {
        let mut memo = DrawMemo::new();
        memo.begin(rand::rngs::StdRng::seed_from_u64(seed));
        let generation = memo.generation();
        let mut first = memo.reader();
        for _ in 0..prefetched {
            first.next_u64();
        }
        let mut bare = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..k {
            bare.next_u64();
        }
        let mut resumed = memo.reader_at(k);
        prop_assert_eq!(resumed.consumed(), k);
        for _ in 0..20 {
            prop_assert_eq!(resumed.next_u64(), bare.next_u64());
        }
        memo.restart();
        prop_assert_ne!(memo.generation(), generation);
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
        let horizon = params.0 + params.1;
        assert_prefetch_bit_identical(&kernel_menu(params, mean), horizon, seed, &plain);
    }

    #[test]
    fn weibull_blocks_are_bit_identical(
        (g, e, b) in weibull_params(),
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(g, e, b).unwrap());
        assert_block_bit_identical(&d, seed);
    }

    #[test]
    fn exponential_blocks_are_bit_identical(
        mean in 1.0..1.0e6f64,
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(mean).unwrap());
        assert_block_bit_identical(&d, seed);
    }

    #[test]
    fn lognormal_blocks_are_bit_identical(
        g in 0.0..48.0f64,
        mu in -2.0..12.0f64,
        sigma in 0.05..2.5f64,
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Lognormal::new(g, mu, sigma).unwrap());
        assert_block_bit_identical(&d, seed);
    }

    #[test]
    fn degenerate_blocks_are_bit_identical(
        v in 0.0..1.0e5f64,
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Degenerate::new(v).unwrap());
        assert_block_bit_identical(&d, seed);
    }

    #[test]
    fn mixture_blocks_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        mean in 1.0..1.0e6f64,
        w in 0.01..0.99f64,
        seed in any::<u64>(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Exponential::from_mean(mean).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Mixture::new(vec![(w, a as _), (1.0 - w, b as _)]).unwrap());
        assert_block_bit_identical(&d, seed);
    }

    #[test]
    fn competing_blocks_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        (g2, e2, b2) in weibull_params(),
        seed in any::<u64>(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Weibull3::new(g2, e2, b2).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(CompetingRisks::new(vec![a as _, b as _]).unwrap());
        assert_block_bit_identical(&d, seed);
    }

    #[test]
    fn boxed_blocks_are_bit_identical(
        mean in 1.0..1.0e6f64,
        shift in 0.0..100.0f64,
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Shifted(Exponential::from_mean(mean).unwrap(), shift));
        prop_assert!(matches!(SampleKernel::lower(&d), SampleKernel::Boxed { .. }));
        assert_block_bit_identical(&d, seed);
    }
}
