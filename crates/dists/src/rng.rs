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
/// 53-bit `next_u64` conversion), and the RNG ends where the
/// one-at-a-time path leaves it.
pub fn fill_uniforms<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
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

/// Most power lanes a [`DrawCursor`] keeps: one per exponent of a
/// latent pair (TTLd, TTScrub).
const POWER_LANES: usize = 2;

/// A plain Weibull draw as a lane walk finishes it: `γ + η·e^{1/β}`
/// from the word's `e` lane, with `e = 0` standing for the `u = 0`
/// endpoint the quantile maps to `γ`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WeibullDraw {
    /// Location γ.
    pub gamma: f64,
    /// Scale η.
    pub eta: f64,
    /// `1/β`, the power the `e` lane is raised to.
    pub inv_beta: f64,
}

/// Where a lane walk reads a draw's power `e^{1/β}` from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Power {
    /// `1/β = 1`: the `e` lane itself.
    Unit,
    /// The declared power lane with this index.
    Lane(usize),
}

impl WeibullDraw {
    /// The draw's lifetime from its word's `e` lane value and power:
    /// exactly [`crate::SampleKernel::sample_prefetched`]'s float ops.
    #[inline(always)]
    fn finish(self, e: f64, power: f64) -> f64 {
        if e == 0.0 {
            return self.gamma;
        }
        self.gamma + self.eta * power
    }
}

/// A draw source a lane walk runs over: [`DrawCursor`] and
/// [`MemoReader`].
pub(crate) trait Lanes {
    /// Where a walk reads `inv_beta`'s powers: the `e` lane for a unit
    /// exponent, otherwise a power lane, declared now if the source has
    /// none yet. `None` when the source cannot keep one.
    fn power_lane(&mut self, inv_beta: f64) -> Option<Power>;

    /// The next unread position, the `e` lane over the buffered words,
    /// and the lanes `pa` and `pb` read from.
    fn span(&self, pa: Power, pb: Power) -> (usize, &[f64], &[f64], &[f64]);

    /// Marks every position before `pos` read.
    fn set_pos(&mut self, pos: usize);

    /// Consumes the next position, fetching first when none is
    /// buffered, and returns its index.
    fn advance(&mut self) -> usize;
}

/// Walks a renewal chain of plain Weibull draws over `src`'s lanes —
/// [`crate::kernel::DrawSource::walk_renewal`] for the cursor and the
/// memo readers — or returns `None`, consuming nothing, when a kernel is
/// not `Weibull3` or `src` has no lane for an exponent.
#[inline(always)]
pub(crate) fn walk_lanes<S: Lanes>(
    src: &mut S,
    a: &crate::SampleKernel,
    b: &crate::SampleKernel,
    defect: &mut f64,
    clear: &mut f64,
    bound: f64,
) -> Option<u64> {
    let (a, b) = (a.weibull_draw()?, b.weibull_draw()?);
    let pa = src.power_lane(a.inv_beta)?;
    let pb = src.power_lane(b.inv_beta)?;
    let mut cycles = 0;
    loop {
        let (mut pos, exps, la, lb) = src.span(pa, pb);
        cycles += walk_span(a, b, exps, la, lb, &mut pos, defect, clear, bound);
        src.set_pos(pos);
        if *clear > bound {
            return Some(cycles);
        }
        // The next cycle's words run past the buffer. A cursor refill
        // overwrites it, so each word is read as soon as it is fetched.
        let i = src.advance();
        let (_, exps, la, _) = src.span(pa, pb);
        *defect = *clear + a.finish(exps[i], la[i]);
        let j = src.advance();
        let (_, exps, _, lb) = src.span(pa, pb);
        *clear = *defect + b.finish(exps[j], lb[j]);
        cycles += 1;
    }
}

/// The lane walks' inner loop: renewal cycles `a` then `b` from
/// position `*pos` on, while `*clear <= bound` and both words of the
/// next cycle lie in `exps`. `la` and `lb` are the draws' power lanes
/// over the same positions (the `e` lane itself for a unit exponent).
/// Returns the cycles walked.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn walk_span(
    a: WeibullDraw,
    b: WeibullDraw,
    exps: &[f64],
    la: &[f64],
    lb: &[f64],
    pos: &mut usize,
    defect: &mut f64,
    clear: &mut f64,
    bound: f64,
) -> u64 {
    let (la, lb) = (&la[..exps.len()], &lb[..exps.len()]);
    let (mut i, mut d, mut c) = (*pos, *defect, *clear);
    let mut cycles = 0;
    while c <= bound && i + 1 < exps.len() {
        d = c + a.finish(exps[i], la[i]);
        c = d + b.finish(exps[i + 1], lb[i + 1]);
        i += 2;
        cycles += 1;
    }
    (*pos, *defect, *clear) = (i, d, c);
    cycles
}

/// A prefetching, rewindable view of an RNG stream for lazy draw sites
/// — sites whose word count is not known before the first draw, such
/// as a discrete-event loop.
///
/// The cursor block-fills RNG words ahead of demand and, for each word,
/// also evaluates `e = −ln(1 − u)` (as `-ln_1p(-u)` through
/// [`crate::special::ln_1p`], with `u` the word's 53-bit uniform) —
/// exactly the subexpression every plain Weibull quantile evaluates. A
/// plain Weibull draw then costs only `γ + η·e^{1/β}` at its site
/// ([`crate::SampleKernel::sample_prefetched`]), and the refill's
/// logarithms are independent of one another, so they run as one
/// vectorized batch ([`crate::special::ln_1p_batch`]) instead of one
/// serial chain through the event loop. Every other consumer reads raw
/// words through the [`rand::Rng`] impl, so the word order is exactly
/// the caller's stream.
///
/// A renewal walk ([`crate::kernel::DrawSource::walk_renewal`]) runs a
/// whole chain over the cursor's lanes. The first walk with an exponent
/// `1/β ≠ 1` declares a *power lane* for it, up to two: from then on
/// each refill also evaluates `powf(e, 1/β)` for every fetched word in
/// one [`crate::special::pow_batch`] call, and plain Weibull draws with
/// that exponent read their power from the lane too. Lanes outlive
/// [`DrawCursor::begin`], since a cursor serves one session's kernels.
/// A cursor that never walks, such as a discrete-event loop's, keeps
/// none.
///
/// Refills start at `FIRST_REFILL` words per [`DrawCursor::begin`]
/// and double up to `MAX_REFILL`. Before each refill the cursor keeps
/// a copy of the RNG state, so [`DrawCursor::finish`] can rewind the
/// caller's RNG to the exact position a word-by-word consumer would
/// have left it at: the unconsumed tail of the last refill is never
/// part of the stream.
#[derive(Debug, Clone)]
pub struct DrawCursor {
    words: [u64; MAX_REFILL],
    /// `e` lane: `exps[i] = -ln_1p(-u_i)` for `words[i]`.
    exps: [f64; MAX_REFILL],
    /// Power lanes `(1/β, powers)`, `powers[i] = pow(exps[i], 1/β)`;
    /// the first `declared` are in use.
    powers: [(f64, [f64; MAX_REFILL]); POWER_LANES],
    /// Power lanes declared.
    declared: usize,
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
            powers: [(1.0, [0.0; MAX_REFILL]); POWER_LANES],
            declared: 0,
            pos: 0,
            len: 0,
            next_refill: FIRST_REFILL,
            live: placeholder.clone(),
            saved: placeholder,
        }
    }

    /// The declared power lane of `inv_beta`, if there is one.
    #[inline]
    fn lane_of(&self, inv_beta: f64) -> Option<usize> {
        self.powers[..self.declared]
            .iter()
            .position(|(b, _)| b.to_bits() == inv_beta.to_bits())
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
    /// `-ln_1p(-u)`, bit-identical to evaluating it from
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

    /// Consumes the next word and returns its index, for
    /// [`DrawCursor::exp_at`] and [`DrawCursor::power_at`].
    #[inline]
    pub(crate) fn next_index(&mut self) -> usize {
        self.advance()
    }

    /// The `e` lane value of buffered word `i`.
    #[inline]
    pub(crate) fn exp_at(&self, i: usize) -> f64 {
        self.exps[i]
    }

    /// `powf(e_i, inv_beta)` for buffered word `i`, exactly as
    /// [`crate::SampleKernel::sample`] evaluates it: from the declared
    /// power lane when there is one.
    #[inline]
    pub(crate) fn power_at(&self, i: usize, inv_beta: f64) -> f64 {
        match self.lane_of(inv_beta) {
            Some(l) => self.powers[l].1[i],
            None => crate::kernel::powf(self.exps[i], inv_beta),
        }
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

    /// Fetches the next block of words and evaluates their `e` lane and
    /// every declared power lane.
    fn refill(&mut self) {
        let n = self.next_refill;
        self.saved.clone_from(&self.live);
        fetch_block(&mut self.live, &mut self.words[..n], &mut self.exps[..n]);
        for (inv_beta, lane) in &mut self.powers[..self.declared] {
            crate::special::pow_batch(&self.exps[..n], *inv_beta, &mut lane[..n]);
        }
        self.pos = 0;
        self.len = n;
        self.next_refill = (n * 2).min(MAX_REFILL);
    }

    /// Declares a power lane for `inv_beta`, filling it for the words
    /// already fetched. Past two lanes, and in builds without the `pow`
    /// port ([`crate::special::LN_1P_PORTED`]), where a batch is no
    /// faster than the draws' own `powf`, there is none.
    #[cold]
    fn declare_power(&mut self, inv_beta: f64) -> Option<Power> {
        if !crate::special::LN_1P_PORTED || self.declared == POWER_LANES {
            return None;
        }
        let (exponent, lane) = &mut self.powers[self.declared];
        *exponent = inv_beta;
        crate::special::pow_batch(&self.exps[..self.len], inv_beta, &mut lane[..self.len]);
        self.declared += 1;
        Some(Power::Lane(self.declared - 1))
    }

    /// The lane `power` reads from.
    #[inline(always)]
    fn lane(&self, power: Power) -> &[f64] {
        match power {
            Power::Unit => &self.exps[..self.len],
            Power::Lane(l) => &self.powers[l].1[..self.len],
        }
    }
}

impl Lanes for DrawCursor {
    #[inline(always)]
    fn power_lane(&mut self, inv_beta: f64) -> Option<Power> {
        if inv_beta == 1.0 {
            return Some(Power::Unit);
        }
        match self.lane_of(inv_beta) {
            Some(l) => Some(Power::Lane(l)),
            None => self.declare_power(inv_beta),
        }
    }

    #[inline(always)]
    fn span(&self, pa: Power, pb: Power) -> (usize, &[f64], &[f64], &[f64]) {
        (
            self.pos,
            &self.exps[..self.len],
            self.lane(pa),
            self.lane(pb),
        )
    }

    #[inline(always)]
    fn set_pos(&mut self, pos: usize) {
        self.pos = pos;
    }

    #[inline(always)]
    fn advance(&mut self) -> usize {
        DrawCursor::advance(self)
    }
}

/// Fills `words` with the next words of `live` and `exps` with their
/// `e` lane `-ln_1p(-u)`, evaluated as one [`crate::special::ln_1p_batch`]
/// call. `words` holds at most [`MAX_REFILL`] elements.
#[inline]
fn fetch_block(live: &mut SimRng, words: &mut [u64], exps: &mut [f64]) {
    let n = words.len();
    let mut neg_u = [0.0; MAX_REFILL];
    for (w, x) in words.iter_mut().zip(&mut neg_u[..n]) {
        *w = live.next_u64();
        *x = -crate::unit_f64(*w);
    }
    crate::special::ln_1p_batch(&neg_u[..n], exps);
    for e in exps.iter_mut() {
        *e = -*e;
    }
}

impl Rng for DrawCursor {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.advance();
        self.words[i]
    }
}

/// A per-group memo of one RNG stream, shared by every scenario of a
/// *bundle* — scenarios that draw the group from the same stream (same
/// seed, same stream index).
///
/// Scenarios of a scrub ladder read the same words in the same order;
/// they differ only in what each draw does with its word. So the memo
/// evaluates each stream position's pure functions once per group, and
/// every scenario's session replays them through a [`MemoReader`]:
///
/// * the word itself;
/// * its `e` lane `-ln_1p(-u)`, filled in [`DrawCursor`]'s doubling
///   batches through [`crate::special::ln_1p_batch`];
/// * one `powf(e, 1/β)` lane per distinct exponent, evaluated lazily,
///   by the first reader that needs a position's power, and reused by
///   every later one. The first renewal walk of a group
///   ([`crate::kernel::DrawSource::walk_renewal`]) with that exponent
///   declares its lane instead: from then on the lane is filled in
///   every fetch through [`crate::special::pow_batch`], and the walk
///   reads it without a per-position check.
///
/// Only the last step of a plain Weibull draw, `γ + η·power`, stays at
/// each draw site, so a rung that differs from its neighbour only in η
/// skips the `ln_1p` and the `powf` its neighbour already paid for.
/// Every cached value is a pure function of the word and the exponent,
/// so a reader sees bit for bit what a [`DrawCursor`] or the RNG itself
/// would have produced.
///
/// The memo extends on demand: a reader past the fetched prefix fetches
/// the next batch, so the scenario drawing the most words decides how
/// far the group's stream is read. Nothing is rewound: the memo owns a
/// copy of the group's stream, not the caller's RNG.
#[derive(Debug, Clone)]
pub struct DrawMemo {
    /// The group's stream at its first word: what [`DrawMemo::restart`]
    /// rebuilds from.
    start: SimRng,
    /// The stream just past the last fetched word.
    live: SimRng,
    /// Every word fetched since [`DrawMemo::begin`].
    words: Vec<u64>,
    /// `e` lane: `exps[k] = -ln_1p(-u_k)` for `words[k]`.
    exps: Vec<f64>,
    /// Size of the next fetch.
    next_refill: usize,
    /// One lane per distinct exponent seen. Lanes persist across groups,
    /// so a bundle's exponents are found after its first group; their
    /// declarations do not.
    lanes: Vec<PowerLane>,
}

/// One exponent's `powf(e, 1/β)` lane of a [`DrawMemo`].
#[derive(Debug, Clone)]
struct PowerLane {
    /// `1/β`, as bits.
    key: u64,
    /// Filled in every fetch, so it covers every fetched position;
    /// otherwise each power is NaN until a reader evaluates it.
    declared: bool,
    powers: Vec<f64>,
}

impl Default for DrawMemo {
    fn default() -> Self {
        DrawMemo::new()
    }
}

impl DrawMemo {
    /// Creates an empty memo; call [`DrawMemo::begin`] before reading.
    pub fn new() -> Self {
        let placeholder = SimRng::seed_from_u64(0);
        DrawMemo {
            start: placeholder.clone(),
            live: placeholder,
            words: Vec::new(),
            exps: Vec::new(),
            next_refill: FIRST_REFILL,
            lanes: Vec::new(),
        }
    }

    /// Starts memoizing the group whose stream is `rng`, forgetting the
    /// previous group's values (their buffers are kept).
    pub fn begin(&mut self, rng: SimRng) {
        self.start = rng;
        self.restart();
    }

    /// Forgets every value fetched or evaluated for the current group,
    /// and every lane's declaration, and starts again from its first
    /// word. The memo is a pure function of the stream, so a restarted
    /// memo serves the same values; this is how a caller that saw a
    /// reader unwind makes sure no half-written entry survives.
    pub fn restart(&mut self) {
        self.live.clone_from(&self.start);
        self.words.clear();
        self.exps.clear();
        self.next_refill = FIRST_REFILL;
        for lane in &mut self.lanes {
            lane.powers.clear();
            lane.declared = false;
        }
    }

    /// Declares `inv_beta`'s lane (`inv_beta != 1`) and returns its
    /// index: from now until the next [`DrawMemo::restart`] every fetch
    /// also evaluates `powf(e, inv_beta)` for each fetched position, as
    /// one [`crate::special::pow_batch`] call, instead of leaving it to
    /// the first reader that needs it; the positions already fetched
    /// get theirs at once. Values are the same either way, so declaring
    /// only changes how fast they come.
    #[inline]
    fn declare_power(&mut self, inv_beta: f64) -> usize {
        let key = inv_beta.to_bits();
        match self
            .lanes
            .iter()
            .position(|lane| lane.key == key && lane.declared)
        {
            Some(i) => i,
            None => self.declare_new(inv_beta),
        }
    }

    /// [`DrawMemo::declare_power`] for a lane not declared yet, kept out
    /// of line: a walk checks its lanes every time it starts.
    #[cold]
    fn declare_new(&mut self, inv_beta: f64) -> usize {
        let i = self.lane_index(inv_beta);
        let lane = &mut self.lanes[i];
        lane.declared = true;
        lane.powers.resize(self.exps.len(), 0.0);
        crate::special::pow_batch(&self.exps, inv_beta, &mut lane.powers);
        i
    }

    /// The index of `inv_beta`'s lane, made (lazy and empty) if there
    /// is none yet.
    fn lane_index(&mut self, inv_beta: f64) -> usize {
        let key = inv_beta.to_bits();
        match self.lanes.iter().position(|lane| lane.key == key) {
            Some(i) => i,
            None => {
                self.lanes.push(PowerLane {
                    key,
                    declared: false,
                    powers: Vec::new(),
                });
                self.lanes.len() - 1
            }
        }
    }

    /// The group's stream at its first word.
    pub fn start(&self) -> &SimRng {
        &self.start
    }

    /// A reader at the group's first word.
    pub fn reader(&mut self) -> MemoReader<'_> {
        MemoReader { memo: self, pos: 0 }
    }

    /// Fetches the next batch of words and evaluates their `e` lane and
    /// every declared power lane.
    fn fetch(&mut self) {
        let n = self.next_refill;
        let old = self.words.len();
        self.words.resize(old + n, 0);
        self.exps.resize(old + n, 0.0);
        fetch_block(
            &mut self.live,
            &mut self.words[old..],
            &mut self.exps[old..],
        );
        for lane in self.lanes.iter_mut().filter(|lane| lane.declared) {
            debug_assert_eq!(lane.powers.len(), old, "a declared lane covers the prefix");
            lane.powers.resize(old + n, 0.0);
            crate::special::pow_batch(
                &self.exps[old..],
                f64::from_bits(lane.key),
                &mut lane.powers[old..],
            );
        }
        self.next_refill = (n * 2).min(MAX_REFILL);
    }

    /// `powf(e_k, inv_beta)` for fetched position `k`, exactly as
    /// [`crate::SampleKernel::sample`] evaluates it, from the exponent's
    /// lane when an earlier reader already evaluated it there.
    #[inline]
    fn power(&mut self, k: usize, inv_beta: f64) -> f64 {
        let e = self.exps[k];
        if inv_beta == 1.0 {
            return crate::kernel::powf(e, inv_beta);
        }
        let i = self.lane_index(inv_beta);
        let lane = &mut self.lanes[i].powers;
        if lane.len() <= k {
            lane.resize(self.words.len(), f64::NAN);
        }
        let cached = lane[k];
        // `e` is finite, so a real power is never NaN.
        if !cached.is_nan() {
            return cached;
        }
        let power = crate::kernel::powf(e, inv_beta);
        lane[k] = power;
        power
    }
}

/// One scenario's position in a [`DrawMemo`]: a word source that yields
/// exactly the stream's words, in order, from the memo's prefix —
/// extending the memo when it reads past it. Plain Weibull draws
/// finish from the memo's lanes ([`crate::SampleKernel::sample_memo`]);
/// every other draw reads raw words through the [`Rng`] impl.
#[derive(Debug)]
pub struct MemoReader<'m> {
    memo: &'m mut DrawMemo,
    /// Next unread position.
    pos: usize,
}

impl MemoReader<'_> {
    /// Consumes the next position, fetching first when the memo holds
    /// no unread word, and returns its index.
    #[inline]
    fn advance(&mut self) -> usize {
        if self.pos == self.memo.words.len() {
            self.memo.fetch();
        }
        self.pos += 1;
        self.pos - 1
    }

    /// Consumes the next word and returns its position, or `None` when
    /// the word's uniform is at or above `cut` — the horizon-cut test of
    /// [`crate::SampleKernel::sample_cut`].
    #[inline]
    pub(crate) fn next_below(&mut self, cut: f64) -> Option<usize> {
        let k = self.advance();
        (crate::unit_f64(self.memo.words[k]) < cut).then_some(k)
    }

    /// The `e` lane value of consumed position `k`; `0.0` exactly when
    /// the word's uniform is `0.0`.
    #[inline]
    pub(crate) fn exp(&self, k: usize) -> f64 {
        self.memo.exps[k]
    }

    /// `powf(e_k, inv_beta)` for consumed position `k`, memoized per
    /// exponent.
    #[inline]
    pub(crate) fn power(&mut self, k: usize, inv_beta: f64) -> f64 {
        self.memo.power(k, inv_beta)
    }

    /// Words this reader has consumed.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// The lane `power` reads from.
    #[inline(always)]
    fn lane(&self, power: Power) -> &[f64] {
        match power {
            Power::Unit => &self.memo.exps,
            Power::Lane(l) => &self.memo.lanes[l].powers,
        }
    }
}

impl Lanes for MemoReader<'_> {
    #[inline(always)]
    fn power_lane(&mut self, inv_beta: f64) -> Option<Power> {
        if inv_beta == 1.0 {
            return Some(Power::Unit);
        }
        Some(Power::Lane(self.memo.declare_power(inv_beta)))
    }

    #[inline(always)]
    fn span(&self, pa: Power, pb: Power) -> (usize, &[f64], &[f64], &[f64]) {
        (self.pos, &self.memo.exps, self.lane(pa), self.lane(pb))
    }

    #[inline(always)]
    fn set_pos(&mut self, pos: usize) {
        self.pos = pos;
    }

    #[inline(always)]
    fn advance(&mut self) -> usize {
        MemoReader::advance(self)
    }
}

impl Rng for MemoReader<'_> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let k = self.advance();
        self.memo.words[k]
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
