//! Deterministic RNG stream utilities.
//!
//! The sequential Monte Carlo model runs tens of thousands of independent
//! system histories, often across threads. Reproducibility requires that
//! each history gets its own RNG stream derived deterministically from a
//! master seed — never a shared stream whose consumption order depends on
//! scheduling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG used throughout the simulation ([`StdRng`], currently
/// xoshiro256++ — fast, high-quality, and deterministic per seed).
pub type SimRng = StdRng;

/// Derives a child seed from a master seed and a stream index using the
/// SplitMix64 finalizer — a bijective avalanche mix, so distinct
/// `(seed, index)` pairs never collide on the same child seed for a
/// fixed `seed`.
///
/// # Example
///
/// ```
/// use raidsim_dists::rng::{child_seed, stream};
/// use rand::Rng;
///
/// let a = child_seed(42, 0);
/// let b = child_seed(42, 1);
/// assert_ne!(a, b);
/// // Streams for the same pair are identical and independent of the
/// // order in which other streams are consumed.
/// assert_eq!(stream(42, 7).next_u64(), stream(42, 7).next_u64());
/// ```
pub fn child_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates the RNG for stream `index` of master seed `master`.
pub fn stream(master: u64, index: u64) -> SimRng {
    SimRng::seed_from_u64(child_seed(master, index))
}

/// Fills `out` with uniform variates on `[0, 1)`, consuming exactly one
/// RNG word per element in stream order.
///
/// Element `i` is bit-identical to the `i`-th scalar uniform the
/// sampling kernels would have drawn from the same RNG state (the
/// 53-bit `next_u64` conversion), so block-filling a buffer and then
/// transforming it densely leaves both the RNG stream position and the
/// produced floats unchanged relative to the one-at-a-time path. This
/// is the foundation of the block-draw bit-identity contract (DESIGN.md
/// §18).
pub fn fill_uniforms(rng: &mut dyn rand::Rng, out: &mut [f64]) {
    for u in out.iter_mut() {
        *u = crate::rng_f64(rng);
    }
}

/// Largest [`DrawCursor`] refill, in RNG words.
const MAX_REFILL: usize = 16;

/// First [`DrawCursor`] refill after [`DrawCursor::begin`], in RNG
/// words. Refills then double up to [`MAX_REFILL`], so a group that
/// draws only a couple of samples fetches (and rewinds) only a couple
/// of spare words.
const FIRST_REFILL: usize = 2;

/// A prefetching, rewindable view of an RNG stream for lazy draw sites
/// — sites whose word count is not known before the first draw, such
/// as a discrete-event loop.
///
/// The cursor block-fills RNG words ahead of demand and, for each word,
/// also evaluates `e = −ln(1 − u)` (as `-(-u).ln_1p()`, with `u` the
/// word's 53-bit uniform) — exactly the subexpression every plain
/// Weibull quantile evaluates. A plain Weibull draw then costs only
/// `γ + η·e^{1/β}` at its site
/// ([`crate::SampleKernel::sample_prefetched`]), and the refill's
/// logarithms are independent of one another, so they overlap instead
/// of forming one serial chain through the event loop. Every other
/// consumer reads raw words through the [`rand::Rng`] impl, so the
/// word order is exactly the caller's stream.
///
/// Refills start at [`FIRST_REFILL`] words per [`DrawCursor::begin`]
/// and double up to [`MAX_REFILL`]. Before each refill the cursor keeps
/// a copy of the RNG state, so [`DrawCursor::finish`] can rewind the
/// caller's RNG to the exact position a word-by-word consumer would
/// have left it at: the unconsumed tail of the last refill is never
/// part of the stream.
#[derive(Debug, Clone)]
pub struct DrawCursor {
    words: [u64; MAX_REFILL],
    /// `e` lane: `exps[i] = -(-u_i).ln_1p()` for `words[i]`.
    exps: [f64; MAX_REFILL],
    /// Next unconsumed index into `words`/`exps`.
    pos: usize,
    /// Words fetched by the last refill.
    len: usize,
    /// Size of the next refill.
    next_refill: usize,
    /// The stream position just past the last fetched word.
    live: SimRng,
    /// The stream position before the last refill — the rewind point.
    saved: SimRng,
}

impl Default for DrawCursor {
    fn default() -> Self {
        DrawCursor::new()
    }
}

impl DrawCursor {
    /// Creates an idle cursor; call [`DrawCursor::begin`] before
    /// drawing.
    pub fn new() -> Self {
        let placeholder = SimRng::seed_from_u64(0);
        DrawCursor {
            words: [0; MAX_REFILL],
            exps: [0.0; MAX_REFILL],
            pos: 0,
            len: 0,
            next_refill: FIRST_REFILL,
            live: placeholder.clone(),
            saved: placeholder,
        }
    }

    /// Starts drawing from `rng`'s current position, discarding any
    /// words left from a previous run.
    pub fn begin(&mut self, rng: &SimRng) {
        self.live.clone_from(rng);
        self.pos = 0;
        self.len = 0;
        self.next_refill = FIRST_REFILL;
    }

    /// Leaves `rng` exactly where a word-by-word consumer of the same
    /// draws would have left it: just past the last word consumed since
    /// [`DrawCursor::begin`].
    pub fn finish(&self, rng: &mut SimRng) {
        if self.pos == self.len {
            // Nothing buffered is left over (this includes "nothing was
            // ever fetched"), so the live position is the answer.
            rng.clone_from(&self.live);
        } else {
            rng.clone_from(&self.saved);
            for _ in 0..self.pos {
                rng.next_u64();
            }
        }
    }

    /// Words fetched by the last refill but not yet consumed.
    pub fn pending(&self) -> usize {
        self.len - self.pos
    }

    /// Consumes the next word and returns its `e` lane value
    /// `-(-u).ln_1p()`, bit-identical to evaluating it from
    /// the word's uniform at the draw site. `e == 0.0` exactly when
    /// the uniform is `0.0`.
    #[inline]
    pub fn next_exp(&mut self) -> f64 {
        let i = self.advance();
        self.exps[i]
    }

    /// Consumes the next word and returns its `e` lane value, or `None`
    /// when the word's uniform is at or above `cut` — the horizon-cut
    /// test of [`crate::SampleKernel::sample_prefetched_cut`].
    #[inline]
    pub fn next_exp_below(&mut self, cut: f64) -> Option<f64> {
        let i = self.advance();
        (crate::unit_f64(self.words[i]) < cut).then_some(self.exps[i])
    }

    /// Consumes one buffered word, refilling first when none is left,
    /// and returns its index.
    #[inline]
    fn advance(&mut self) -> usize {
        if self.pos == self.len {
            self.refill();
        }
        self.pos += 1;
        self.pos - 1
    }

    /// Fetches the next block of words and evaluates their `e` lane.
    fn refill(&mut self) {
        let n = self.next_refill;
        self.saved.clone_from(&self.live);
        for w in &mut self.words[..n] {
            *w = self.live.next_u64();
        }
        for (e, &w) in self.exps[..n].iter_mut().zip(&self.words[..n]) {
            *e = -(-crate::unit_f64(w)).ln_1p();
        }
        self.pos = 0;
        self.len = n;
        self.next_refill = (n * 2).min(MAX_REFILL);
    }
}

impl Rng for DrawCursor {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.advance();
        self.words[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn child_seeds_are_distinct_for_distinct_indices() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(child_seed(123, i)), "collision at index {i}");
        }
    }

    #[test]
    fn child_seeds_differ_across_masters() {
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
    }

    #[test]
    fn streams_are_reproducible() {
        let mut a = stream(99, 5);
        let mut b = stream(99, 5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_with_different_indices_diverge_immediately() {
        let mut a = stream(99, 5);
        let mut b = stream(99, 6);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_uniforms_matches_scalar_draws_word_for_word() {
        let mut block = stream(4, 2);
        let mut scalar = stream(4, 2);
        let mut buf = [0.0f64; 64];
        fill_uniforms(&mut block, &mut buf);
        for (i, &u) in buf.iter().enumerate() {
            assert_eq!(
                u.to_bits(),
                crate::rng_f64(&mut scalar).to_bits(),
                "element {i} diverged from the scalar conversion"
            );
        }
        // Both streams must sit at the same position afterwards.
        assert_eq!(block.next_u64(), scalar.next_u64());
    }

    #[test]
    fn adjacent_indices_have_uncorrelated_low_bits() {
        // Crude avalanche check: popcount of XOR of adjacent child seeds
        // should hover around 32.
        let mut total = 0u32;
        let n = 1000u64;
        for i in 0..n {
            total += (child_seed(7, i) ^ child_seed(7, i + 1)).count_ones();
        }
        let avg = total as f64 / n as f64;
        assert!((avg - 32.0).abs() < 2.0, "avg popcount = {avg}");
    }
}
