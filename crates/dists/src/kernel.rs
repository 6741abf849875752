//! Monomorphic sampling kernels: the simulation hot path's view of a
//! lifetime distribution.
//!
//! The engines store model transitions as `Arc<dyn LifeDistribution>`,
//! which is the right shape for configuration (any family, any nesting)
//! but the wrong shape for the inner Monte Carlo loop: every draw pays
//! a virtual call, and the closed-form quantile paths recompute
//! invariants such as `1/β` on each evaluation. A [`SampleKernel`] is
//! the same distribution *lowered once per run* into a flat enum the
//! optimizer can inline and the caller can keep in a per-worker
//! session, with those invariants precomputed.
//!
//! # Bit-identity contract
//!
//! Lowering must be **invisible in the results**: for any seeded RNG,
//! [`SampleKernel::sample`] and [`SampleKernel::sample_conditional`]
//! must consume exactly the same RNG draws and produce bit-identical
//! `f64`s to the `dyn LifeDistribution` methods they replace. That
//! restricts the allowed transformations to:
//!
//! * hoisting pure recomputed subexpressions (`1/β` feeds the same
//!   `powf` it always did — division is deterministic, so the hoisted
//!   value is the bit pattern the `dyn` path computed inline),
//! * inlining the exact float-op sequence of the concrete overrides
//!   (including each family's choice of `ln_1p` vs `ln`, and the
//!   trait-default conditional inversion where a family does not
//!   override it), and
//! * skipping `powf` for a unit exponent: `powf` is faithfully rounded,
//!   so `x.powf(1.0)` returns `x` exactly.
//!
//! Algebraic rewrites that change the result bits — e.g. `sqrt` in
//! place of `powf(0.5)` for β = 2 — are **excluded**: they are faster
//! but not bit-equal. The `kernel_equivalence` property suite enforces
//! the contract for every variant over random parameters and seeds.
//!
//! # Horizon cut
//!
//! [`SampleKernel::horizon_cut`] is the one sanctioned departure: a
//! uniform threshold above which every plain draw lands beyond a given
//! horizon. The `*_cut` draws consume the same word but return
//! [`BEYOND_HORIZON`] for such uniforms instead of evaluating the
//! quantile, which is exact for callers that only compare the lifetime
//! against times up to the horizon. With [`NO_CUT`] they are the plain
//! draws, bit for bit.
//!
//! # Lowering table
//!
//! | `dyn` implementation | kernel variant | notes |
//! |---|---|---|
//! | [`crate::Weibull3`] | [`SampleKernel::Weibull3`] | `1/β` precomputed; conditional inlines the trait default over the Weibull `sf`/`cdf`/`quantile` overrides |
//! | [`crate::Exponential`] | [`SampleKernel::Exponential`] | conditional is memoryless, matching the override |
//! | [`crate::Lognormal`] | [`SampleKernel::Lognormal`] | conditional inlines the trait default (`sf` is the trait default `1 − cdf`) |
//! | [`crate::Degenerate`] | [`SampleKernel::Degenerate`] | consumes **no** RNG draws, matching both overrides |
//! | [`crate::Mixture`] | [`SampleKernel::Mixture`] | children lowered recursively; conditional delegates to the source object (numeric CDF inversion) |
//! | [`crate::CompetingRisks`] | [`SampleKernel::Competing`] | children lowered recursively; conditional delegates to the source object |
//! | anything else | [`SampleKernel::Boxed`] | full fallback to the `dyn` methods (e.g. future empirical resampling distributions — [`crate::empirical`] currently defines estimators, not `LifeDistribution`s) |

use crate::rng::{either_lanes, walk_lanes, DrawCursor, MemoReader, SimRng, WeibullDraw};
use crate::{rng_f64, special::ln_1p, DistError, LifeDistribution};
use rand::Rng;
use std::sync::Arc;

/// An exponential tilt of the unit-uniform variate feeding a quantile
/// kernel — the measure change behind importance sampling.
///
/// Instead of a plain uniform `u ∈ [0, 1)`, a tilted draw samples
/// `v ∈ [0, 1)` from the density `g(v) = θ·e^{−θv} / (1 − e^{−θ})` and
/// feeds `v` to the *same* quantile evaluation. For `θ > 0` the mass
/// shifts toward 0, so lifetimes come out *earlier* (every provided
/// quantile path is non-decreasing in its uniform argument); `θ < 0`
/// shifts toward 1. Each tilted draw contributes
/// `ln(f(v)/g(v)) = θ·v + ln((1 − e^{−θ})/θ)` to a running
/// log-likelihood-ratio, and re-weighting an estimator by
/// `exp(Σ log-ratios)` restores unbiasedness under the original
/// measure.
///
/// The warp is exact inverse-CDF sampling: `v = −ln_1p(−u·s)/θ` with
/// `s = 1 − e^{−θ}`, so `v` stays strictly below 1 whenever `u < 1`
/// and the downstream quantile's `p < 1` requirement is preserved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tilt {
    /// Tilt strength θ (nonzero, finite).
    theta: f64,
    /// Hoisted `1 − e^{−θ}`, computed as `−expm1(−θ)`.
    scale: f64,
    /// Hoisted `ln((1 − e^{−θ})/θ)`, the constant part of each draw's
    /// log-likelihood-ratio.
    log_norm: f64,
}

impl Tilt {
    /// Builds a tilt of strength `theta`.
    ///
    /// `theta` must be finite and nonzero (a zero tilt is the identity;
    /// callers represent "no tilt" as the absence of a `Tilt`).
    pub fn new(theta: f64) -> Result<Tilt, DistError> {
        if !theta.is_finite() || theta == 0.0 {
            return Err(DistError::InvalidParameter {
                name: "theta",
                value: theta,
                constraint: "must be finite and nonzero",
            });
        }
        let scale = -(-theta).exp_m1();
        Ok(Tilt {
            theta,
            scale,
            log_norm: (scale / theta).ln(),
        })
    }

    /// The tilt strength θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Warps a plain uniform `u ∈ [0, 1)` into a tilted uniform
    /// `v ∈ [0, 1)`, returning `(v, log-likelihood-ratio)` where the
    /// second component is `ln(f(v)/g(v))` for this single draw.
    pub fn warp(&self, u: f64) -> (f64, f64) {
        let v = -ln_1p(-u * self.scale) / self.theta;
        (v, self.theta * v + self.log_norm)
    }
}

/// A defensive forcing warp of the unit-uniform variate feeding a
/// quantile transform: the importance-sampling primitive for *window
/// forcing* (push a draw into a target sub-interval `[0, q)` of its
/// uniform domain with boosted probability).
///
/// With mixture weight `α = fraction`, the sampling density over the
/// uniform domain becomes
///
/// ```text
/// g(v) = α·(1/q)·1[v < q]  +  (1 − α)·1
/// ```
///
/// — a mixture of "forced uniformly into the window" and the plain
/// uniform. Unlike an exponential tilt, the likelihood ratio
/// `f(v)/g(v)` takes exactly **two** values: `1/(α/q + 1 − α)` inside
/// the window and `1/(1 − α)` outside. A forced draw therefore
/// contributes bounded, near-constant weight noise no matter how small
/// `q` is, which is what makes state-dependent forcing effective where
/// static tilting is not (see DESIGN.md §16).
///
/// The mixture is inverted from a *single* uniform through the
/// piecewise-linear CDF `G(v) = (α/q + 1 − α)·v` for `v < q`,
/// `G(v) = α + (1 − α)·v` beyond, so a forced draw consumes exactly one
/// RNG word, exactly like a plain draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forcing {
    fraction: f64,
}

impl Forcing {
    /// Creates a forcing warp with mixture weight `fraction` on the
    /// forced component.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] unless
    /// `0 < fraction ≤ 0.5`. The upper bound keeps the out-of-window
    /// likelihood ratio at most `2`, so the accumulated log-weight of a
    /// bounded number of forced draws stays within the exact
    /// fixed-point range of the weighted statistics (DESIGN.md §16).
    pub fn new(fraction: f64) -> Result<Forcing, DistError> {
        if !(fraction > 0.0 && fraction <= 0.5 && fraction.is_finite()) {
            return Err(DistError::InvalidParameter {
                name: "fraction",
                value: fraction,
                constraint: "must lie in (0, 0.5]",
            });
        }
        Ok(Forcing { fraction })
    }

    /// The mixture weight α on the forced component.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Warps a plain uniform `u ∈ [0, 1)` given the window mass
    /// `q ∈ (0, 1)`, returning `(v, log-likelihood-ratio)` with
    /// `v ∈ [0, 1)` and the second component `ln(f(v)/g(v))` for this
    /// single draw.
    ///
    /// A degenerate window (`q ≤ 0`, `q ≥ 1`, or non-finite) admits no
    /// measure change: the uniform passes through untouched with ratio
    /// exactly 1, mirroring how [`Tilt`] degenerates on point masses.
    pub fn warp(&self, u: f64, q: f64) -> (f64, f64) {
        if !(q > 0.0 && q < 1.0) {
            return (u, 0.0);
        }
        let a = self.fraction;
        // Mixture CDF knee at v = q: G(q) = α + (1 − α)·q.
        let knee = a + (1.0 - a) * q;
        if u < knee {
            let boost = a / q + (1.0 - a);
            (u / boost, -boost.ln())
        } else {
            ((u - a) / (1.0 - a), -(1.0 - a).ln())
        }
    }
}

/// Numerical-evaluation mode of [`SampleKernel::sample_block`].
///
/// Only [`MathMode::Exact`] exists: every draw reproduces the scalar
/// float-op sequence bit for bit. The parameter stays so block callers
/// keep one signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MathMode {
    /// Bit-identical float-op sequences.
    #[default]
    Exact,
}

/// A word source for plain draws: an RNG itself (word by word), a
/// prefetching [`DrawCursor`] over one, or a [`MemoReader`] over a
/// bundle's shared [`crate::rng::DrawMemo`]. All yield the same words
/// in the same order and bit-identical plain draws, so a draw site
/// written against `DrawSource` runs unchanged on any of them.
pub trait DrawSource: Rng {
    /// One plain (untilted, unconditional) draw from `kernel`.
    fn plain(&mut self, kernel: &SampleKernel) -> f64;

    /// One plain draw from `kernel` that yields [`BEYOND_HORIZON`] instead
    /// of evaluating the quantile when its uniform is at or above `cut`
    /// (see [`SampleKernel::horizon_cut`]). The word is consumed either
    /// way; with [`NO_CUT`] this is exactly [`DrawSource::plain`].
    fn plain_cut(&mut self, kernel: &SampleKernel, cut: f64) -> f64;

    /// Walks an alternating renewal chain while `*clear <= bound`: each
    /// cycle draws an `a` span and a `b` span,
    /// `*defect = *clear + plain(a)` then `*clear = *defect + plain(b)`,
    /// and the cycles walked are returned.
    ///
    /// The provided body is that loop, draw by draw. [`DrawCursor`] and
    /// [`MemoReader`] override it with a tight loop over their `e` and
    /// power lanes when both kernels are Weibull, declaring a lane for
    /// each exponent other than 1 that has none yet (a cursor keeps at
    /// most two, and none in builds without the `pow` port). It performs
    /// the same float operations in the same order on the same words, so
    /// the chain, the cycle count and the source's next word are
    /// bit-identical.
    fn walk_renewal(
        &mut self,
        a: &SampleKernel,
        b: &SampleKernel,
        defect: &mut f64,
        clear: &mut f64,
        bound: f64,
    ) -> u64 {
        walk_plain(self, a, b, defect, clear, bound)
    }

    /// Both plain draws one word can give: `Some((x, y))` with `x` what
    /// [`DrawSource::plain`]`(a)` and `y` what `plain(b)` would each have
    /// returned from the next word, which is consumed. A caller that
    /// needs one of the two, chosen by its own state, reads the word
    /// without branching on that state.
    ///
    /// The provided body returns `None`, consuming nothing: the source
    /// keeps no lanes. [`DrawCursor`] and [`MemoReader`] override it from
    /// their `e` and power lanes when both kernels are `Weibull3`,
    /// declaring a lane for each exponent other than 1 that has none
    /// yet, as [`DrawSource::walk_renewal`] does; they return `None` when
    /// a kernel is not `Weibull3` or an exponent gets no lane (a cursor
    /// keeps at most two, and none in builds without the `pow` port).
    fn plain_either(&mut self, a: &SampleKernel, b: &SampleKernel) -> Option<(f64, f64)> {
        let _ = (a, b);
        None
    }
}

/// [`DrawSource::walk_renewal`]'s loop, draw by draw.
#[inline]
fn walk_plain<R: DrawSource + ?Sized>(
    rng: &mut R,
    a: &SampleKernel,
    b: &SampleKernel,
    defect: &mut f64,
    clear: &mut f64,
    bound: f64,
) -> u64 {
    let mut cycles = 0;
    while *clear <= bound {
        *defect = *clear + rng.plain(a);
        *clear = *defect + rng.plain(b);
        cycles += 1;
    }
    cycles
}

impl DrawSource for SimRng {
    #[inline]
    fn plain(&mut self, kernel: &SampleKernel) -> f64 {
        kernel.sample(self)
    }

    #[inline]
    fn plain_cut(&mut self, kernel: &SampleKernel, cut: f64) -> f64 {
        kernel.sample_cut(cut, self)
    }
}

impl DrawSource for DrawCursor {
    #[inline]
    fn plain(&mut self, kernel: &SampleKernel) -> f64 {
        kernel.sample_prefetched(self)
    }

    #[inline]
    fn plain_cut(&mut self, kernel: &SampleKernel, cut: f64) -> f64 {
        kernel.sample_prefetched_cut(cut, self)
    }

    fn walk_renewal(
        &mut self,
        a: &SampleKernel,
        b: &SampleKernel,
        defect: &mut f64,
        clear: &mut f64,
        bound: f64,
    ) -> u64 {
        walk_lanes(self, a, b, defect, clear, bound)
            .unwrap_or_else(|| walk_plain(self, a, b, defect, clear, bound))
    }

    #[inline(always)]
    fn plain_either(&mut self, a: &SampleKernel, b: &SampleKernel) -> Option<(f64, f64)> {
        either_lanes(self, a, b)
    }
}

impl DrawSource for MemoReader<'_> {
    #[inline]
    fn plain(&mut self, kernel: &SampleKernel) -> f64 {
        kernel.sample_memo(NO_CUT, self)
    }

    #[inline]
    fn plain_cut(&mut self, kernel: &SampleKernel, cut: f64) -> f64 {
        kernel.sample_memo(cut, self)
    }

    fn walk_renewal(
        &mut self,
        a: &SampleKernel,
        b: &SampleKernel,
        defect: &mut f64,
        clear: &mut f64,
        bound: f64,
    ) -> u64 {
        walk_lanes(self, a, b, defect, clear, bound)
            .unwrap_or_else(|| walk_plain(self, a, b, defect, clear, bound))
    }

    #[inline(always)]
    fn plain_either(&mut self, a: &SampleKernel, b: &SampleKernel) -> Option<(f64, f64)> {
        either_lanes(self, a, b)
    }
}

/// Pairs [`sample_pairs`] draws per `ln_1p` batch: sixteen words.
const PAIR_CHUNK: usize = 8;

/// Draws `out.len()` pairs from `rng`: per pair, a plain draw from `a`
/// under the horizon cut `a_cut` ([`SampleKernel::sample_cut`]), then a
/// plain draw from `b` ([`SampleKernel::sample`]). The words read and
/// the values returned are those of the scalar calls, bit for bit.
///
/// Words are read sixteen at a time, and each chunk's `b` draws take
/// their logarithms in one [`crate::special::ln_1p_batch`] call. The
/// `a` draws keep the scalar cut test and quantile: a draw beyond its
/// cut needs no logarithm at all. Returns `false`, reading no word,
/// unless both kernels are `Weibull3`.
pub fn sample_pairs<R: Rng + ?Sized>(
    rng: &mut R,
    a: &SampleKernel,
    a_cut: f64,
    b: &SampleKernel,
    out: &mut [(f64, f64)],
) -> bool {
    let (Some(a), Some(b)) = (a.weibull_draw(), b.weibull_draw()) else {
        return false;
    };
    for chunk in out.chunks_mut(PAIR_CHUNK) {
        let m = chunk.len();
        let mut ua = [0.0; PAIR_CHUNK];
        let mut neg_ub = [0.0; PAIR_CHUNK];
        for (u, x) in ua[..m].iter_mut().zip(&mut neg_ub[..m]) {
            *u = rng_f64(rng);
            *x = -rng_f64(rng);
        }
        let mut ln = [0.0; PAIR_CHUNK];
        crate::special::ln_1p_batch(&neg_ub[..m], &mut ln[..m]);
        for ((pair, &u), &l) in chunk.iter_mut().zip(&ua[..m]).zip(&ln[..m]) {
            pair.0 = if u >= a_cut {
                BEYOND_HORIZON
            } else {
                weibull_quantile(a.gamma, a.eta, a.inv_beta, u)
            };
            // `-l` is `-ln_1p(-u)`, the `e` lane of `b`'s word.
            let e = -l;
            pair.1 = if e == 0.0 {
                b.gamma
            } else {
                b.gamma + b.eta * powf(e, b.inv_beta)
            };
        }
    }
    true
}

/// The "no cut" value of [`SampleKernel::horizon_cut`]: above every
/// uniform, so no draw is ever cut.
pub const NO_CUT: f64 = 2.0;

/// What a cut draw yields in place of its lifetime: the largest finite
/// `f64`, beyond every horizon that has a cut (a cut exists only when
/// some computed quantile exceeds the horizon). Finite rather than `∞`:
/// with `∞` pending times the discrete-event engine ran about 3% slower
/// per group on the paper's base case, against a finite stand-in with
/// identical results.
pub const BEYOND_HORIZON: f64 = f64::MAX;

/// Relative guard band of [`SampleKernel::horizon_cut`]: the cut
/// uniform's *computed* quantile must exceed `horizon·(1 + HORIZON_GUARD)`.
const HORIZON_GUARD: f64 = 1e-9;

/// Largest `1/β` [`SampleKernel::horizon_cut`] accepts: the quantile's
/// rounding error grows with `1/β` (about `(1/β + 3)` ULP), and up to
/// here it stays far inside [`HORIZON_GUARD`].
const HORIZON_MAX_INV_BETA: f64 = 1e3;

/// A lifetime distribution lowered to a monomorphic sampling kernel.
///
/// Construct via [`SampleKernel::lower`]; draw via
/// [`SampleKernel::sample`] / [`SampleKernel::sample_conditional`].
/// Both are bit-identical to the `dyn LifeDistribution` methods they
/// replace (see the module docs for the contract and the lowering
/// table).
///
/// Plain draws can also read through a prefetching
/// [`DrawCursor`] ([`SampleKernel::sample_prefetched`]), which consumes
/// the same words and produces bit-identical `f64`s.
#[derive(Debug, Clone)]
pub enum SampleKernel {
    /// Inlined three-parameter Weibull inverse CDF with `1/β`
    /// precomputed.
    Weibull3 {
        /// Location γ, hours.
        gamma: f64,
        /// Scale η, hours.
        eta: f64,
        /// Shape β (needed by the conditional path's `sf`/`cdf`).
        beta: f64,
        /// Hoisted `1.0 / β`, exactly the value the `dyn` quantile
        /// computes inline on every call.
        inv_beta: f64,
    },
    /// Inlined exponential inverse CDF; the conditional draw is
    /// memoryless.
    Exponential {
        /// Constant hazard rate λ, per hour.
        rate: f64,
    },
    /// Inlined three-parameter lognormal inverse CDF.
    Lognormal {
        /// Location γ, hours.
        gamma: f64,
        /// Log-mean μ.
        mu: f64,
        /// Log-standard-deviation σ.
        sigma: f64,
    },
    /// Point mass: returns the value without consuming any RNG draws,
    /// exactly like the `dyn` overrides.
    Degenerate {
        /// The point of support, hours.
        value: f64,
    },
    /// Weighted mixture over recursively lowered component kernels.
    Mixture {
        /// `(weight, lowered component)` pairs in construction order.
        components: Vec<(f64, SampleKernel)>,
        /// The source distribution, kept for the conditional path
        /// (numeric CDF inversion has no monomorphic shortcut).
        source: Arc<dyn LifeDistribution>,
    },
    /// Competing risks: minimum over recursively lowered mechanism
    /// kernels.
    Competing {
        /// Lowered failure mechanisms in construction order.
        risks: Vec<SampleKernel>,
        /// The source distribution, kept for the conditional path.
        source: Arc<dyn LifeDistribution>,
    },
    /// Fallback for implementations without a kernel: every draw goes
    /// through the original `dyn` methods, so unknown families keep
    /// working unchanged.
    Boxed {
        /// The source distribution.
        source: Arc<dyn LifeDistribution>,
    },
}

impl SampleKernel {
    /// Lowers a distribution to its sampling kernel, falling back to
    /// [`SampleKernel::Boxed`] for implementations that do not provide
    /// one.
    pub fn lower(dist: &Arc<dyn LifeDistribution>) -> SampleKernel {
        dist.lower_kernel().unwrap_or_else(|| SampleKernel::Boxed {
            source: Arc::clone(dist),
        })
    }

    /// A `Weibull3` kernel's plain draw, as a lane walk finishes it.
    pub(crate) fn weibull_draw(&self) -> Option<WeibullDraw> {
        match *self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                inv_beta,
                ..
            } => Some(WeibullDraw {
                gamma,
                eta,
                inv_beta,
            }),
            _ => None,
        }
    }

    /// Short variant name, for diagnostics and tests.
    pub fn variant_name(&self) -> &'static str {
        match self {
            SampleKernel::Weibull3 { .. } => "weibull3",
            SampleKernel::Exponential { .. } => "exponential",
            SampleKernel::Lognormal { .. } => "lognormal",
            SampleKernel::Degenerate { .. } => "degenerate",
            SampleKernel::Mixture { .. } => "mixture",
            SampleKernel::Competing { .. } => "competing",
            SampleKernel::Boxed { .. } => "boxed",
        }
    }

    /// Draws one lifetime; bit-identical to
    /// [`LifeDistribution::sample`] on the source distribution.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                inv_beta,
                ..
            } => {
                let u = rng_f64(rng);
                weibull_quantile(*gamma, *eta, *inv_beta, u)
            }
            SampleKernel::Exponential { rate } => {
                let u = rng_f64(rng);
                -(1.0 - u).ln() / rate
            }
            SampleKernel::Lognormal { gamma, mu, sigma } => {
                let u = rng_f64(rng);
                lognormal_quantile(*gamma, *mu, *sigma, u)
            }
            SampleKernel::Degenerate { value } => *value,
            SampleKernel::Mixture { components, .. } => {
                let mut u = rng_f64(rng);
                for (w, k) in components {
                    if u < *w {
                        return k.sample(rng);
                    }
                    u -= w;
                }
                // Floating-point slack: fall through to the last
                // component, as the dyn path does.
                components
                    .last()
                    .expect("mixture is never empty")
                    .1
                    .sample(rng)
            }
            SampleKernel::Competing { risks, .. } => risks
                .iter()
                .map(|k| k.sample(rng))
                .fold(f64::INFINITY, f64::min),
            SampleKernel::Boxed { source } => source.sample(rng),
        }
    }

    /// Draws one lifetime from a prefetching cursor; bit-identical to
    /// [`SampleKernel::sample`] on the same stream.
    ///
    /// `Weibull3` finishes the quantile from the cursor's `e` lane
    /// (`γ + η·e^{1/β}`, with `e = 0` standing for the `u = 0` endpoint
    /// the quantile maps to `γ`), reading the power from the cursor's
    /// power lane when `1/β` has one; every other variant reads raw
    /// words through the cursor's [`Rng`] impl.
    #[inline]
    pub fn sample_prefetched(&self, cursor: &mut DrawCursor) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                inv_beta,
                ..
            } => {
                let i = cursor.next_index();
                if cursor.exp_at(i) == 0.0 {
                    return *gamma;
                }
                gamma + eta * cursor.power_at(i, *inv_beta)
            }
            _ => self.sample(cursor),
        }
    }

    /// [`SampleKernel::sample`] with a horizon cut: a `Weibull3` draw
    /// whose uniform is at or above `cut` consumes its word and yields
    /// [`BEYOND_HORIZON`] without evaluating the quantile. Every other
    /// variant ignores the cut ([`SampleKernel::horizon_cut`] only ever
    /// cuts `Weibull3`). With [`NO_CUT`] this is exactly `sample`.
    #[inline]
    pub fn sample_cut<R: Rng>(&self, cut: f64, rng: &mut R) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                inv_beta,
                ..
            } => {
                let u = rng_f64(rng);
                if u >= cut {
                    return BEYOND_HORIZON;
                }
                weibull_quantile(*gamma, *eta, *inv_beta, u)
            }
            _ => self.sample(rng),
        }
    }

    /// [`SampleKernel::sample_prefetched`] with the horizon cut of
    /// [`SampleKernel::sample_cut`]: same word, same value where uncut.
    #[inline]
    pub fn sample_prefetched_cut(&self, cut: f64, cursor: &mut DrawCursor) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                inv_beta,
                ..
            } => {
                let Some(e) = cursor.next_exp_below(cut) else {
                    return BEYOND_HORIZON;
                };
                if e == 0.0 {
                    return *gamma;
                }
                gamma + eta * powf(e, *inv_beta)
            }
            _ => self.sample(cursor),
        }
    }

    /// Draws one lifetime from a bundle's draw memo with the horizon cut
    /// of [`SampleKernel::sample_cut`]; bit-identical to `sample_cut` on
    /// the same stream, and with [`NO_CUT`] to [`SampleKernel::sample`].
    ///
    /// `Weibull3` finishes the quantile as `γ + η·power` from the memo's
    /// `e` lane and its memoized `powf(e, 1/β)` lane (`e = 0` standing
    /// for the `u = 0` endpoint, as in
    /// [`SampleKernel::sample_prefetched`]); every other variant reads
    /// raw words through the reader's [`Rng`] impl.
    #[inline]
    pub fn sample_memo(&self, cut: f64, reader: &mut MemoReader<'_>) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                inv_beta,
                ..
            } => {
                let Some(k) = reader.next_below(cut) else {
                    return BEYOND_HORIZON;
                };
                if reader.exp(k) == 0.0 {
                    return *gamma;
                }
                gamma + eta * reader.power(k, *inv_beta)
            }
            _ => self.sample(reader),
        }
    }

    /// The uniform threshold beyond which a plain draw's lifetime
    /// certainly exceeds `horizon`: every uniform `u ≥ cut` gives a
    /// [`SampleKernel::sample`] lifetime `> horizon`. Returns [`NO_CUT`]
    /// unless the kernel is `Weibull3` with `γ ≥ 0` and `1/β ≤ 1e3`, and
    /// `horizon` is finite and above `γ`.
    ///
    /// The cut is a 53-bit uniform whose *computed* quantile exceeds
    /// `horizon·(1 + 1e-9)`, found by bisection over the 53-bit grid
    /// (about 53 quantile evaluations, once per session). The true
    /// quantile is strictly increasing, and the `ln_1p`/`powf`/`*`/`+`
    /// chain errs by at most about `(1/β + 3)` ULP relative — far inside
    /// the 1e-9 guard band — so every larger uniform's computed quantile
    /// also lands beyond `horizon`, even though libm is not guaranteed
    /// monotone. The band assumes normal intermediates; a cut whose
    /// `e` lane or scaled power would be subnormal gives [`NO_CUT`].
    /// Hostile parameters (NaN, infinities) give [`NO_CUT`], never a
    /// panic.
    pub fn horizon_cut(&self, horizon: f64) -> f64 {
        let SampleKernel::Weibull3 {
            gamma,
            eta,
            inv_beta,
            ..
        } = *self
        else {
            return NO_CUT;
        };
        let usable = gamma >= 0.0
            && eta.is_finite()
            && eta > 0.0
            && inv_beta > 0.0
            && inv_beta <= HORIZON_MAX_INV_BETA
            && horizon.is_finite()
            && horizon > gamma;
        if !usable {
            return NO_CUT;
        }
        let target = horizon * (1.0 + HORIZON_GUARD);
        let step = 1.0 / (1u64 << 53) as f64;
        // Grid uniforms k·2⁻⁵³ for k < 2⁵³ all lie in [0, 1), so the
        // quantile's `p < 1` requirement always holds.
        let beyond = |k: u64| weibull_quantile(gamma, eta, inv_beta, k as f64 * step) > target;
        let (mut lo, mut hi) = (0u64, (1u64 << 53) - 1);
        // Invariant: `beyond(hi)` and `!beyond(lo)` (the quantile of
        // u = 0 is γ < horizon).
        if !beyond(hi) {
            return NO_CUT;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if beyond(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let cut = hi as f64 * step;
        let e = -ln_1p(-cut);
        let power = powf(e, inv_beta);
        if e < f64::MIN_POSITIVE || power < f64::MIN_POSITIVE || eta * power < f64::MIN_POSITIVE {
            return NO_CUT;
        }
        cut
    }

    /// Draws a residual lifetime conditional on survival to `t0`;
    /// bit-identical to [`LifeDistribution::sample_conditional`] on the
    /// source distribution.
    pub fn sample_conditional<R: Rng>(&self, t0: f64, rng: &mut R) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                beta,
                inv_beta,
            } => {
                // The trait-default conditional inversion over the
                // Weibull sf/cdf/quantile overrides.
                let s0 = weibull_sf(*gamma, *eta, *beta, t0);
                if s0 <= 0.0 {
                    return 0.0;
                }
                let u = rng_f64(rng);
                let p = weibull_cdf(*gamma, *eta, *beta, t0) + u * s0;
                (weibull_quantile(*gamma, *eta, *inv_beta, p) - t0).max(0.0)
            }
            SampleKernel::Exponential { rate } => {
                // Memorylessness, matching the dyn override.
                let u = rng_f64(rng);
                -(1.0 - u).ln() / rate
            }
            SampleKernel::Lognormal { gamma, mu, sigma } => {
                // Trait-default inversion; Lognormal overrides cdf but
                // not sf, so s0 is the default `(1 - cdf).max(0)` over
                // the same cdf evaluation.
                let f0 = lognormal_cdf(*gamma, *mu, *sigma, t0);
                let s0 = (1.0 - f0).max(0.0);
                if s0 <= 0.0 {
                    return 0.0;
                }
                let u = rng_f64(rng);
                let p = f0 + u * s0;
                (lognormal_quantile(*gamma, *mu, *sigma, p) - t0).max(0.0)
            }
            SampleKernel::Degenerate { value } => (value - t0).max(0.0),
            // The composite conditionals run through numeric CDF
            // inversion with no hot-path shortcut; delegating to the
            // source object is trivially bit-identical.
            SampleKernel::Mixture { source, .. }
            | SampleKernel::Competing { source, .. }
            | SampleKernel::Boxed { source } => source.sample_conditional(t0, rng),
        }
    }

    /// Draws one lifetime under the tilted measure, accumulating the
    /// draw's log-likelihood-ratio into `log_weight`.
    ///
    /// The tilt warps the uniform variate (see [`Tilt`]) and evaluates
    /// the *same* quantile float-op sequence as [`SampleKernel::sample`],
    /// so the change of measure is exactly the warp's density ratio:
    ///
    /// * quantile families (`Weibull3`, `Exponential`, `Lognormal`)
    ///   warp their single uniform;
    /// * `Degenerate` is a point mass — no measure change is possible
    ///   and none is applied (ratio 1);
    /// * `Mixture` leaves the component-selector draw untilted (the
    ///   mixture weights are part of the model, not the sampler) and
    ///   tilts only the chosen component;
    /// * `Competing` tilts every mechanism draw, so the ratio is the
    ///   product over mechanisms;
    /// * `Boxed` falls back to the untilted `dyn` path with ratio 1 —
    ///   unknown families stay correct, just un-accelerated.
    pub fn sample_tilted<R: Rng>(&self, tilt: Tilt, log_weight: &mut f64, rng: &mut R) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                inv_beta,
                ..
            } => {
                let (v, lw) = tilt.warp(rng_f64(rng));
                *log_weight += lw;
                weibull_quantile(*gamma, *eta, *inv_beta, v)
            }
            SampleKernel::Exponential { rate } => {
                let (v, lw) = tilt.warp(rng_f64(rng));
                *log_weight += lw;
                -(1.0 - v).ln() / rate
            }
            SampleKernel::Lognormal { gamma, mu, sigma } => {
                let (v, lw) = tilt.warp(rng_f64(rng));
                *log_weight += lw;
                lognormal_quantile(*gamma, *mu, *sigma, v)
            }
            SampleKernel::Degenerate { value } => *value,
            SampleKernel::Mixture { components, .. } => {
                let mut u = rng_f64(rng);
                for (w, k) in components {
                    if u < *w {
                        return k.sample_tilted(tilt, log_weight, rng);
                    }
                    u -= w;
                }
                components
                    .last()
                    .expect("mixture is never empty")
                    .1
                    .sample_tilted(tilt, log_weight, rng)
            }
            SampleKernel::Competing { risks, .. } => risks
                .iter()
                .map(|k| k.sample_tilted(tilt, log_weight, rng))
                .fold(f64::INFINITY, f64::min),
            SampleKernel::Boxed { source } => source.sample(rng),
        }
    }

    /// Draws a residual lifetime conditional on survival to `t0` under
    /// the tilted measure, accumulating the draw's log-likelihood-ratio
    /// into `log_weight`.
    ///
    /// The conditional inversion maps its uniform through
    /// `p = F(t0) + u·S(t0)`, which is strictly increasing in `u`, so
    /// tilting the uniform tilts the conditional distribution with the
    /// identical density ratio as [`Tilt::warp`]. Composite and boxed
    /// kernels fall back to the untilted `dyn` conditional (ratio 1),
    /// mirroring [`SampleKernel::sample_conditional`].
    pub fn sample_conditional_tilted<R: Rng>(
        &self,
        t0: f64,
        tilt: Tilt,
        log_weight: &mut f64,
        rng: &mut R,
    ) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                beta,
                inv_beta,
            } => {
                let s0 = weibull_sf(*gamma, *eta, *beta, t0);
                if s0 <= 0.0 {
                    return 0.0;
                }
                let (v, lw) = tilt.warp(rng_f64(rng));
                *log_weight += lw;
                let p = weibull_cdf(*gamma, *eta, *beta, t0) + v * s0;
                (weibull_quantile(*gamma, *eta, *inv_beta, p) - t0).max(0.0)
            }
            SampleKernel::Exponential { rate } => {
                let (v, lw) = tilt.warp(rng_f64(rng));
                *log_weight += lw;
                -(1.0 - v).ln() / rate
            }
            SampleKernel::Lognormal { gamma, mu, sigma } => {
                let f0 = lognormal_cdf(*gamma, *mu, *sigma, t0);
                let s0 = (1.0 - f0).max(0.0);
                if s0 <= 0.0 {
                    return 0.0;
                }
                let (v, lw) = tilt.warp(rng_f64(rng));
                *log_weight += lw;
                let p = f0 + v * s0;
                (lognormal_quantile(*gamma, *mu, *sigma, p) - t0).max(0.0)
            }
            SampleKernel::Degenerate { value } => (value - t0).max(0.0),
            SampleKernel::Mixture { source, .. }
            | SampleKernel::Competing { source, .. }
            | SampleKernel::Boxed { source } => source.sample_conditional(t0, rng),
        }
    }

    /// Draws a residual lifetime conditional on survival to `t0`,
    /// *forcing* the draw into the residual window `(0, window]` with
    /// the boosted probability of [`Forcing`], and accumulating the
    /// draw's log-likelihood-ratio into `log_weight`.
    ///
    /// The window mass is `q = (F(t0 + window) − F(t0)) / S(t0)` — the
    /// conditional probability the residual lifetime ends inside the
    /// window — and the forcing warps the conditional uniform exactly
    /// as [`Forcing::warp`], so the measure change is the warp's
    /// two-valued density ratio. Degenerate cases (dead mass at `t0`,
    /// empty or full windows, point masses) apply no measure change;
    /// composite and boxed kernels fall back to the untilted `dyn`
    /// conditional with ratio 1, mirroring
    /// [`SampleKernel::sample_conditional_tilted`].
    pub fn sample_conditional_forced<R: Rng>(
        &self,
        t0: f64,
        window: f64,
        forcing: Forcing,
        log_weight: &mut f64,
        rng: &mut R,
    ) -> f64 {
        match self {
            SampleKernel::Weibull3 {
                gamma,
                eta,
                beta,
                inv_beta,
            } => {
                let s0 = weibull_sf(*gamma, *eta, *beta, t0);
                if s0 <= 0.0 {
                    return 0.0;
                }
                let f0 = weibull_cdf(*gamma, *eta, *beta, t0);
                let q = (weibull_cdf(*gamma, *eta, *beta, t0 + window) - f0) / s0;
                let (v, lw) = forcing.warp(rng_f64(rng), q);
                *log_weight += lw;
                let p = f0 + v * s0;
                (weibull_quantile(*gamma, *eta, *inv_beta, p) - t0).max(0.0)
            }
            SampleKernel::Exponential { rate } => {
                // Memorylessness: the residual is Exponential(rate) and
                // the window mass is 1 − exp(−rate·window).
                let q = -(-rate * window).exp_m1();
                let (v, lw) = forcing.warp(rng_f64(rng), q);
                *log_weight += lw;
                -(1.0 - v).ln() / rate
            }
            SampleKernel::Lognormal { gamma, mu, sigma } => {
                let f0 = lognormal_cdf(*gamma, *mu, *sigma, t0);
                let s0 = (1.0 - f0).max(0.0);
                if s0 <= 0.0 {
                    return 0.0;
                }
                let q = (lognormal_cdf(*gamma, *mu, *sigma, t0 + window) - f0) / s0;
                let (v, lw) = forcing.warp(rng_f64(rng), q);
                *log_weight += lw;
                let p = f0 + v * s0;
                (lognormal_quantile(*gamma, *mu, *sigma, p) - t0).max(0.0)
            }
            SampleKernel::Degenerate { value } => (value - t0).max(0.0),
            SampleKernel::Mixture { source, .. }
            | SampleKernel::Competing { source, .. }
            | SampleKernel::Boxed { source } => source.sample_conditional(t0, rng),
        }
    }

    /// Fills `out` with draws: exactly the loop calling
    /// [`SampleKernel::sample`] once per element.
    pub fn sample_block<R: Rng>(&self, _mode: MathMode, rng: &mut R, out: &mut [f64]) {
        for o in out.iter_mut() {
            *o = self.sample(rng);
        }
    }
}

/// The exact float-op sequence of `Weibull3::quantile`, with the
/// reciprocal shape hoisted.
#[inline]
fn weibull_quantile(gamma: f64, eta: f64, inv_beta: f64, p: f64) -> f64 {
    if p <= 0.0 {
        return gamma;
    }
    assert!(p < 1.0, "quantile requires p in [0, 1), got {p}");
    gamma + eta * powf(-ln_1p(-p), inv_beta)
}

/// `x.powf(e)` through [`crate::special::pow`], returning `x` itself for
/// `e == 1.0`. That shortcut is exact: `powf` is faithfully rounded
/// (error under 1 ULP), so when the true result `x¹ = x` is
/// representable it comes back unchanged — the
/// `unit_shape_powf_is_the_identity` property test pins this down.
#[inline]
pub(crate) fn powf(x: f64, e: f64) -> f64 {
    if e == 1.0 {
        x
    } else {
        crate::special::pow(x, e)
    }
}

/// The exact float-op sequence of `Weibull3::sf`.
#[inline]
fn weibull_sf(gamma: f64, eta: f64, beta: f64, t: f64) -> f64 {
    if t <= gamma {
        return 1.0;
    }
    let z = ((t - gamma) / eta).max(0.0);
    (-powf(z, beta)).exp()
}

/// The exact float-op sequence of `Weibull3::cdf`.
#[inline]
fn weibull_cdf(gamma: f64, eta: f64, beta: f64, t: f64) -> f64 {
    if t <= gamma {
        return 0.0;
    }
    let z = ((t - gamma) / eta).max(0.0);
    -(-powf(z, beta)).exp_m1()
}

/// The exact float-op sequence of `Lognormal::quantile`.
#[inline]
fn lognormal_quantile(gamma: f64, mu: f64, sigma: f64, p: f64) -> f64 {
    if p <= 0.0 {
        return gamma;
    }
    assert!(p < 1.0, "quantile requires p in [0, 1), got {p}");
    gamma + (mu + sigma * crate::special::inv_std_normal(p)).exp()
}

/// The exact float-op sequence of `Lognormal::cdf`.
#[inline]
fn lognormal_cdf(gamma: f64, mu: f64, sigma: f64, t: f64) -> f64 {
    if t <= gamma {
        return 0.0;
    }
    crate::special::std_normal_cdf(((t - gamma).ln() - mu) / sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;
    use crate::{CompetingRisks, Degenerate, Exponential, Lognormal, Mixture, Weibull3};

    fn lowered(d: Arc<dyn LifeDistribution>) -> (Arc<dyn LifeDistribution>, SampleKernel) {
        let k = SampleKernel::lower(&d);
        (d, k)
    }

    #[test]
    fn every_provided_family_lowers_to_its_own_variant() {
        let cases: Vec<(Arc<dyn LifeDistribution>, &str)> = vec![
            (Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap()), "weibull3"),
            (Arc::new(Exponential::new(1e-5).unwrap()), "exponential"),
            (
                Arc::new(Lognormal::new(0.0, 2.0, 0.7).unwrap()),
                "lognormal",
            ),
            (Arc::new(Degenerate::new(24.0).unwrap()), "degenerate"),
            (
                Arc::new(
                    Mixture::new(vec![
                        (0.4, Arc::new(Weibull3::two_param(100.0, 0.8).unwrap()) as _),
                        (0.6, Arc::new(Exponential::new(0.01).unwrap()) as _),
                    ])
                    .unwrap(),
                ),
                "mixture",
            ),
            (
                Arc::new(
                    CompetingRisks::new(vec![
                        Arc::new(Weibull3::two_param(100.0, 2.0).unwrap()) as _,
                        Arc::new(Exponential::new(0.001).unwrap()) as _,
                    ])
                    .unwrap(),
                ),
                "competing",
            ),
        ];
        for (d, want) in cases {
            assert_eq!(SampleKernel::lower(&d).variant_name(), want);
        }
    }

    #[test]
    fn mixture_lowers_children_recursively() {
        let nested: Arc<dyn LifeDistribution> = Arc::new(
            Mixture::new(vec![
                (0.5, Arc::new(Degenerate::new(10.0).unwrap()) as _),
                (0.5, Arc::new(Weibull3::two_param(50.0, 1.5).unwrap()) as _),
            ])
            .unwrap(),
        );
        match SampleKernel::lower(&nested) {
            SampleKernel::Mixture { components, .. } => {
                assert_eq!(components[0].1.variant_name(), "degenerate");
                assert_eq!(components[1].1.variant_name(), "weibull3");
            }
            other => panic!("expected mixture, got {}", other.variant_name()),
        }
    }

    #[test]
    fn degenerate_kernel_consumes_no_draws() {
        let (_, k) = lowered(Arc::new(Degenerate::new(42.0).unwrap()));
        let mut a = stream(1, 0);
        let mut b = stream(1, 0);
        assert_eq!(k.sample(&mut a), 42.0);
        assert_eq!(k.sample_conditional(40.0, &mut a), 2.0);
        // The RNG state is untouched: both streams still agree.
        assert_eq!(rng_f64(&mut a), rng_f64(&mut b));
    }

    #[test]
    fn boxed_fallback_matches_dyn_exactly() {
        /// A family the lowering table does not know.
        #[derive(Debug)]
        struct Shifted(Exponential);
        impl LifeDistribution for Shifted {
            fn cdf(&self, t: f64) -> f64 {
                self.0.cdf(t - 5.0)
            }
            fn pdf(&self, t: f64) -> f64 {
                self.0.pdf(t - 5.0)
            }
            fn quantile(&self, p: f64) -> f64 {
                5.0 + self.0.quantile(p)
            }
            fn mean(&self) -> f64 {
                5.0 + self.0.mean()
            }
        }
        let d: Arc<dyn LifeDistribution> = Arc::new(Shifted(Exponential::new(0.01).unwrap()));
        let k = SampleKernel::lower(&d);
        assert_eq!(k.variant_name(), "boxed");
        let mut a = stream(9, 3);
        let mut b = stream(9, 3);
        for _ in 0..64 {
            assert_eq!(k.sample(&mut a).to_bits(), d.sample(&mut b).to_bits());
            assert_eq!(
                k.sample_conditional(7.0, &mut a).to_bits(),
                d.sample_conditional(7.0, &mut b).to_bits()
            );
        }
    }

    #[test]
    fn tilt_rejects_zero_and_non_finite_strengths() {
        assert!(Tilt::new(0.0).is_err());
        assert!(Tilt::new(f64::NAN).is_err());
        assert!(Tilt::new(f64::INFINITY).is_err());
        assert!(Tilt::new(f64::NEG_INFINITY).is_err());
        assert_eq!(Tilt::new(1.5).unwrap().theta(), 1.5);
    }

    #[test]
    fn tilt_warp_stays_in_unit_interval_and_is_monotone() {
        for theta in [-3.0, -0.4, 0.4, 1.0, 6.0] {
            let tilt = Tilt::new(theta).unwrap();
            let mut prev = -1.0;
            for i in 0..=1_000 {
                let u = f64::from(i) / 1_001.0;
                let (v, _) = tilt.warp(u);
                assert!(
                    (0.0..1.0).contains(&v),
                    "warp({u}) = {v} left [0, 1) at theta {theta}"
                );
                assert!(v > prev, "warp is not strictly increasing at theta {theta}");
                prev = v;
            }
            // The endpoint u = 0 maps exactly to v = 0.
            assert_eq!(tilt.warp(0.0).0, 0.0);
        }
    }

    #[test]
    fn tilt_log_ratio_matches_the_density_ratio() {
        // `warp` samples v from g(v) = θ·e^{−θv} / (1 − e^{−θ}) by
        // inverse CDF; the reported log-ratio must equal ln(1/g(v))
        // since the original density of the uniform is 1.
        for theta in [-2.0f64, -0.3, 0.7, 4.0] {
            let tilt = Tilt::new(theta).unwrap();
            let norm = -(-theta).exp_m1();
            for u in [0.001, 0.25, 0.5, 0.75, 0.999] {
                let (v, lw) = tilt.warp(u);
                let g = theta * (-theta * v).exp() / norm;
                let err = (lw - (1.0 / g).ln()).abs();
                assert!(err < 1e-12, "log-ratio off by {err} at theta {theta}");
            }
        }
    }

    #[test]
    fn positive_tilt_shifts_lifetimes_earlier() {
        let tilt = Tilt::new(2.0).unwrap();
        for u in [0.1, 0.5, 0.9] {
            assert!(tilt.warp(u).0 < u, "theta > 0 must contract toward 0");
        }
        let tilt = Tilt::new(-2.0).unwrap();
        for u in [0.1, 0.5, 0.9] {
            assert!(tilt.warp(u).0 > u, "theta < 0 must push toward 1");
        }
    }

    #[test]
    fn tilted_draw_is_the_quantile_of_the_warped_uniform() {
        let tilt = Tilt::new(1.3).unwrap();
        let dists: Vec<Arc<dyn LifeDistribution>> = vec![
            Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap()),
            Arc::new(Exponential::new(1e-4).unwrap()),
            Arc::new(Lognormal::new(0.0, 2.0, 0.7).unwrap()),
        ];
        for d in dists {
            let k = SampleKernel::lower(&d);
            let mut a = stream(11, 0);
            let mut b = stream(11, 0);
            for _ in 0..64 {
                let mut lw = 0.0;
                let x = k.sample_tilted(tilt, &mut lw, &mut a);
                let (v, want_lw) = tilt.warp(rng_f64(&mut b));
                assert_eq!(x.to_bits(), d.quantile(v).to_bits());
                assert_eq!(lw.to_bits(), want_lw.to_bits());
            }
        }
    }

    #[test]
    fn degenerate_tilted_draw_consumes_no_rng_and_no_weight() {
        let (_, k) = lowered(Arc::new(Degenerate::new(42.0).unwrap()));
        let tilt = Tilt::new(2.0).unwrap();
        let mut a = stream(1, 0);
        let mut b = stream(1, 0);
        let mut lw = 0.0;
        assert_eq!(k.sample_tilted(tilt, &mut lw, &mut a), 42.0);
        assert_eq!(
            k.sample_conditional_tilted(40.0, tilt, &mut lw, &mut a),
            2.0
        );
        assert_eq!(lw, 0.0);
        assert_eq!(rng_f64(&mut a), rng_f64(&mut b));
    }

    #[test]
    fn boxed_tilted_draw_falls_back_with_unit_ratio() {
        #[derive(Debug)]
        struct Plain(Exponential);
        impl LifeDistribution for Plain {
            fn cdf(&self, t: f64) -> f64 {
                self.0.cdf(t)
            }
            fn pdf(&self, t: f64) -> f64 {
                self.0.pdf(t)
            }
            fn quantile(&self, p: f64) -> f64 {
                self.0.quantile(p)
            }
            fn mean(&self) -> f64 {
                self.0.mean()
            }
        }
        let d: Arc<dyn LifeDistribution> = Arc::new(Plain(Exponential::new(0.01).unwrap()));
        let k = SampleKernel::lower(&d);
        assert_eq!(k.variant_name(), "boxed");
        let tilt = Tilt::new(1.0).unwrap();
        let mut a = stream(3, 5);
        let mut b = stream(3, 5);
        let mut lw = 0.0;
        for _ in 0..32 {
            assert_eq!(
                k.sample_tilted(tilt, &mut lw, &mut a).to_bits(),
                d.sample(&mut b).to_bits()
            );
        }
        assert_eq!(lw, 0.0);
    }

    #[test]
    fn mixture_selector_stays_untilted() {
        // A single-component mixture must reduce to the component's
        // tilted draw after one selector uniform is consumed.
        let inner: Arc<dyn LifeDistribution> = Arc::new(Weibull3::two_param(1_000.0, 1.4).unwrap());
        let mix: Arc<dyn LifeDistribution> =
            Arc::new(Mixture::new(vec![(1.0, Arc::clone(&inner))]).unwrap());
        let km = SampleKernel::lower(&mix);
        let ki = SampleKernel::lower(&inner);
        let tilt = Tilt::new(0.9).unwrap();
        let mut a = stream(7, 2);
        let mut b = stream(7, 2);
        let mut lwa = 0.0;
        let mut lwb = 0.0;
        let x = km.sample_tilted(tilt, &mut lwa, &mut a);
        let _selector = rng_f64(&mut b);
        let y = ki.sample_tilted(tilt, &mut lwb, &mut b);
        assert_eq!(x.to_bits(), y.to_bits());
        assert_eq!(lwa.to_bits(), lwb.to_bits());
    }

    #[test]
    fn conditional_tilted_draw_warps_the_conditional_uniform() {
        let tilt = Tilt::new(1.1).unwrap();
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap());
        let k = SampleKernel::lower(&d);
        let t0 = 10.0;
        let mut a = stream(13, 1);
        let mut b = stream(13, 1);
        for _ in 0..64 {
            let mut lw = 0.0;
            let x = k.sample_conditional_tilted(t0, tilt, &mut lw, &mut a);
            let (v, want_lw) = tilt.warp(rng_f64(&mut b));
            let p = d.cdf(t0) + v * (1.0 - d.cdf(t0));
            let want = (d.quantile(p) - t0).max(0.0);
            assert_eq!(x.to_bits(), want.to_bits());
            assert_eq!(lw.to_bits(), want_lw.to_bits());
        }
    }

    #[test]
    fn forcing_rejects_out_of_range_fractions() {
        for bad in [0.0, -0.2, 0.500001, 1.0, f64::NAN, f64::INFINITY] {
            assert!(
                Forcing::new(bad).is_err(),
                "fraction {bad} must be rejected"
            );
        }
        assert_eq!(Forcing::new(0.3).unwrap().fraction(), 0.3);
        assert_eq!(Forcing::new(0.5).unwrap().fraction(), 0.5);
    }

    #[test]
    fn forcing_warp_is_monotone_and_stays_in_unit_interval() {
        for (fraction, q) in [(0.1, 1e-6), (0.3, 0.02), (0.5, 0.4), (0.25, 0.9)] {
            let f = Forcing::new(fraction).unwrap();
            let mut prev = -1.0;
            for i in 0..1000 {
                let u = i as f64 / 1000.0;
                let (v, _) = f.warp(u, q);
                assert!(
                    (0.0..1.0).contains(&v),
                    "fraction {fraction} q {q}: warp({u}) = {v} outside [0, 1)"
                );
                assert!(v >= prev, "warp must be monotone at u = {u}");
                prev = v;
            }
        }
    }

    #[test]
    fn forcing_log_ratio_matches_the_density_ratio() {
        // Inside the window the sampling density is α/q + 1 − α; outside
        // it is 1 − α. The returned log-ratio must be −ln(g(v)) exactly.
        let fraction = 0.3;
        let q = 0.05;
        let f = Forcing::new(fraction).unwrap();
        let boost = fraction / q + (1.0 - fraction);
        let mut saw_forced = false;
        let mut saw_plain = false;
        for i in 0..200 {
            let u = i as f64 / 200.0;
            let (v, lw) = f.warp(u, q);
            if v < q {
                saw_forced = true;
                assert_eq!(lw.to_bits(), (-boost.ln()).to_bits());
            } else {
                saw_plain = true;
                assert_eq!(lw.to_bits(), (-(1.0f64 - fraction).ln()).to_bits());
            }
        }
        assert!(saw_forced && saw_plain, "both branches must be exercised");
    }

    #[test]
    fn forcing_warp_preserves_expectations() {
        // Unbiasedness at the single-draw level: for any h, the
        // reweighted average of h(v) over u ~ U[0, 1) equals the plain
        // average of h(u). Midpoint quadrature at 200k points; h is the
        // window indicator (the function forcing distorts the most).
        let f = Forcing::new(0.4).unwrap();
        let q = 0.003;
        let n = 200_000;
        let mut mass = 0.0;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            let (v, lw) = f.warp(u, q);
            if v < q {
                mass += lw.exp();
            }
        }
        mass /= n as f64;
        assert!(
            (mass - q).abs() < 1e-6,
            "reweighted window mass {mass} must equal q = {q}"
        );
    }

    #[test]
    fn degenerate_forcing_windows_pass_through() {
        let f = Forcing::new(0.2).unwrap();
        for q in [0.0, -0.5, 1.0, 1.5, f64::NAN] {
            for u in [0.0, 0.37, 0.999] {
                let (v, lw) = f.warp(u, q);
                assert_eq!(v.to_bits(), u.to_bits());
                assert_eq!(lw, 0.0);
            }
        }
    }

    #[test]
    fn forced_conditional_draw_warps_the_conditional_uniform() {
        let forcing = Forcing::new(0.35).unwrap();
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap());
        let k = SampleKernel::lower(&d);
        let t0 = 10.0;
        let window = 3.0;
        let mut a = stream(17, 4);
        let mut b = stream(17, 4);
        for _ in 0..64 {
            let mut lw = 0.0;
            let x = k.sample_conditional_forced(t0, window, forcing, &mut lw, &mut a);
            let f0 = d.cdf(t0);
            let s0 = 1.0 - f0;
            let q = (d.cdf(t0 + window) - f0) / s0;
            let (v, want_lw) = forcing.warp(rng_f64(&mut b), q);
            let want = (d.quantile(f0 + v * s0) - t0).max(0.0);
            assert_eq!(x.to_bits(), want.to_bits());
            assert_eq!(lw.to_bits(), want_lw.to_bits());
        }
    }

    #[test]
    fn forced_draws_land_in_the_window_with_boosted_probability() {
        // Exponential with a window holding ~0.1% of the residual mass:
        // plain conditional draws essentially never land inside, forced
        // draws do so with probability ≈ α + (1 − α)q ≈ 0.3.
        let d: Arc<dyn LifeDistribution> = Arc::new(Exponential::new(1e-5).unwrap());
        let k = SampleKernel::lower(&d);
        let forcing = Forcing::new(0.3).unwrap();
        let window = 100.0; // q ≈ 1e-3
        let mut rng = stream(23, 0);
        let n = 2_000;
        let mut hits = 0;
        for _ in 0..n {
            let mut lw = 0.0;
            let r = k.sample_conditional_forced(5_000.0, window, forcing, &mut lw, &mut rng);
            if r <= window {
                hits += 1;
                assert!(lw < 0.0, "a forced hit must be down-weighted");
            } else {
                assert!(lw > 0.0, "a miss must be up-weighted");
            }
        }
        let rate = hits as f64 / n as f64;
        assert!(
            (0.25..0.36).contains(&rate),
            "hit rate {rate} must sit near the forcing fraction 0.3"
        );
    }

    #[test]
    fn boxed_forced_draw_falls_back_with_unit_ratio() {
        // Composite kernels have no monomorphic conditional: the forced
        // draw degrades to the plain dyn conditional with ratio 1.
        let mix: Arc<dyn LifeDistribution> = Arc::new(
            Mixture::new(vec![(1.0, Arc::new(Exponential::new(1e-4).unwrap()) as _)]).unwrap(),
        );
        let k = SampleKernel::lower(&mix);
        let forcing = Forcing::new(0.25).unwrap();
        let mut a = stream(29, 0);
        let mut b = stream(29, 0);
        let mut lw = 0.0;
        let x = k.sample_conditional_forced(100.0, 50.0, forcing, &mut lw, &mut a);
        let y = mix.sample_conditional(100.0, &mut b);
        assert_eq!(x.to_bits(), y.to_bits());
        assert_eq!(lw, 0.0);
    }
}
