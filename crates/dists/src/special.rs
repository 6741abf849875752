//! Special functions needed for Weibull moments, fitting and sampling.
//!
//! The gamma function family uses the Lanczos approximation rather than
//! a numerics crate. [`ln_1p`] and [`ln_1p_batch`] are the logarithm
//! every Weibull inverse-CDF draw starts from, and [`pow`] and
//! [`pow_batch`] the power it ends with; see their docs for where their
//! bits come from.

/// Whether [`ln_1p`], [`ln_1p_batch`], [`pow`] and [`pow_batch`] run
/// this crate's transcriptions of glibc's FMA `log1p` and `pow` (x86-64
/// Linux glibc builds with `fma` and `avx2` code generation, which the
/// repository's `.cargo/config.toml` turns on) rather than calling the
/// platform's `f64::ln_1p` and `f64::powf`.
pub const LN_1P_PORTED: bool = cfg!(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu",
    target_feature = "fma",
    target_feature = "avx2"
));

/// `ln(1 + x)`, bit-identical to `x.ln_1p()` on the hosts the port
/// targets.
///
/// On x86-64 Linux glibc builds with `fma` and `avx2` code generation
/// ([`LN_1P_PORTED`]), this is a literal transcription of the function
/// glibc's `log1p` dispatches to on FMA+AVX2 CPUs: the fdlibm algorithm
/// (`Lp1..Lp7`, `ln2_hi`/`ln2_lo`), with [`f64::mul_add`] exactly where
/// that build fuses a multiply-add. Every other build calls
/// `f64::ln_1p`. Either way the result is the platform libm's, bit for
/// bit, on the hosts the goldens were captured on; the port only makes
/// the evaluation visible to the optimizer (see [`ln_1p_batch`]).
#[inline]
pub fn ln_1p(x: f64) -> f64 {
    log1p_impl::scalar(x)
}

/// `out[i] = ln_1p(xs[i])` for every element, bit-identical to
/// [`ln_1p`] element by element.
///
/// Under [`LN_1P_PORTED`] the common lanes run one branch-free formula
/// that the compiler vectorizes (the logarithms of a batch are
/// independent), and the rare lanes the formula does not cover are
/// patched through the scalar [`ln_1p`] afterwards.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn ln_1p_batch(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "ln_1p_batch needs equal-length slices");
    log1p_impl::batch(xs, out);
}

/// Every build but the port's calls the platform `log1p`.
#[cfg(not(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu",
    target_feature = "fma",
    target_feature = "avx2"
)))]
mod log1p_impl {
    #[inline]
    pub(super) fn scalar(x: f64) -> f64 {
        x.ln_1p()
    }

    pub(super) fn batch(xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = x.ln_1p();
        }
    }
}

/// The transcription behind [`ln_1p`] and [`ln_1p_batch`]: glibc 2.36's
/// `__log1p_fma` (`sysdeps/ieee754/dbl-64/s_log1p.c` built with FMA
/// contraction). The constants, comparisons and operation order follow
/// that function's machine code; each `mul_add` stands for one of its
/// `vfmadd`/`vfnmadd`/`vfmsub` instructions, and every other operation
/// rounds separately, as in the original. DESIGN.md §18 describes how to
/// re-derive it.
#[cfg(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu",
    target_feature = "fma",
    target_feature = "avx2"
))]
mod log1p_impl {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const TWO54: f64 = f64::from_bits(0x4350_0000_0000_0000);
    const TWO_THIRDS: f64 = f64::from_bits(0x3fe5_5555_5555_5555);
    const LP1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LP2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LP3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LP4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LP5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LP6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LP7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

    /// The high 32 bits of `x`, as fdlibm's `GET_HIGH_WORD`.
    #[inline(always)]
    fn high_word(x: f64) -> i32 {
        (x.to_bits() >> 32) as i32
    }

    /// `x` with its high 32 bits replaced, as fdlibm's `SET_HIGH_WORD`.
    #[inline(always)]
    fn with_high_word(x: f64, hi: i32) -> f64 {
        f64::from_bits((u64::from(hi as u32) << 32) | (x.to_bits() & 0xffff_ffff))
    }

    /// `s·(hfsq + R)`, with `s = f/(2+f)` and `R` the degree-14
    /// polynomial in `s`, evaluated in the original's order.
    #[inline(always)]
    fn tail(f: f64, hfsq: f64) -> f64 {
        let s = f / (2.0 + f);
        let z = s * s;
        let r2 = z.mul_add(LP3, LP2);
        let r3 = z.mul_add(LP5, LP4);
        let r4 = z.mul_add(LP7, LP6);
        let z2 = z * z;
        let z4 = z2 * z2;
        let z6 = z2 * z4;
        let r = z6.mul_add(r4, z4.mul_add(r3, z.mul_add(LP1, z2 * r2)));
        s * (hfsq + r)
    }

    /// The scalar function, every branch included.
    pub(super) fn scalar(x: f64) -> f64 {
        let hx = high_word(x);
        let ax = hx & 0x7fff_ffff;
        let mut k = 1;
        let mut f = 0.0;
        let mut hu = 1;
        let mut c = 0.0;
        if hx < 0x3fda_827a {
            // x < 0.41422
            if ax >= 0x3ff0_0000 {
                // x <= -1.0, or NaN with the sign bit set.
                if x == -1.0 {
                    return -TWO54 / 0.0;
                }
                #[allow(clippy::eq_op)]
                return (x - x) / (x - x);
            }
            if ax < 0x3e20_0000 {
                // |x| < 2^-29
                if ax < 0x3c90_0000 {
                    return x;
                }
                return (-(x * x)).mul_add(0.5, x);
            }
            if hx > 0 || hx <= 0xbfd2_bec3_u32 as i32 {
                // -0.2929 < x < 0.41422
                k = 0;
                f = x;
            }
        } else if hx >= 0x7ff0_0000 {
            return x + x;
        }
        if k != 0 {
            let mut u;
            if hx < 0x4340_0000 {
                u = 1.0 + x;
                hu = high_word(u);
                k = (hu >> 20) - 1023;
                c = if k > 0 { 1.0 - (u - x) } else { x - (u - 1.0) };
                c /= u;
            } else {
                u = x;
                hu = high_word(u);
                k = (hu >> 20) - 1023;
                c = 0.0;
            }
            hu &= 0x000f_ffff;
            if hu < 0x6a09e {
                u = with_high_word(u, hu | 0x3ff0_0000);
            } else {
                k += 1;
                u = with_high_word(u, hu | 0x3fe0_0000);
                hu = (0x0010_0000 - hu) >> 2;
            }
            f = u - 1.0;
        }
        let hfsq = 0.5 * f * f;
        if hu == 0 {
            // |f| < 2^-20
            if f == 0.0 {
                if k == 0 {
                    return 0.0;
                }
                let dk = f64::from(k);
                return dk.mul_add(LN2_HI, dk.mul_add(LN2_LO, c));
            }
            let r = hfsq * (-f).mul_add(TWO_THIRDS, 1.0);
            if k == 0 {
                return f - r;
            }
            let dk = f64::from(k);
            return dk.mul_add(LN2_HI, -((r - dk.mul_add(LN2_LO, c)) - f));
        }
        let t = tail(f, hfsq);
        if k == 0 {
            return f - (hfsq - t);
        }
        let dk = f64::from(k);
        dk.mul_add(LN2_HI, -((hfsq - (t + dk.mul_add(LN2_LO, c))) - f))
    }

    /// One lane of the batch: [`scalar`] for `2⁻²⁹ ≤ |x|`, `x < 0.41422`
    /// and `x > −1`, as a single branch-free formula, or NaN where that
    /// formula does not apply.
    ///
    /// The two branches of [`scalar`]'s main path become one: the
    /// `k ≠ 0` tail `fma(k, ln2_hi, −((hfsq − (t + fma(k, ln2_lo, c))) − f))`
    /// with `k = 0` and `c = 0` is `−((hfsq − t) − f)`, which equals the
    /// `k = 0` tail `f − (hfsq − t)` exactly because IEEE subtraction
    /// is sign-symmetric (`f − a == −(a − f)`, and the final
    /// `0·ln2_hi + (−0)` turns a `−0` back into `+0`). The lanes left
    /// out — tiny `|x|`, the `hu == 0` path, a nonzero correction term
    /// `c`, and everything outside `(−1, 0.41422)` — return NaN.
    #[inline(always)]
    fn lane(x: f64) -> f64 {
        let hx = high_word(x);
        let ax = hx & 0x7fff_ffff;
        let k_zero = (hx > 0) | (hx <= 0xbfd2_bec3_u32 as i32);
        let u = 1.0 + x;
        let hu_full = high_word(u);
        // The correction term before its division by `u`: the lane is
        // covered only when it is zero, and then `c = 0/u = +0`.
        let c_num = x - (u - 1.0);
        let hm = hu_full & 0x000f_ffff;
        let halve = hm >= 0x6a09e;
        let k_main = (hu_full >> 20) - 1023 + i32::from(halve);
        let hu_main = if halve { (0x0010_0000 - hm) >> 2 } else { hm };
        let normalized = with_high_word(u, hm | if halve { 0x3fe0_0000 } else { 0x3ff0_0000 });
        let f = if k_zero { x } else { normalized - 1.0 };
        let k = if k_zero { 0 } else { k_main };
        let rare = !(0x3e20_0000..0x3ff0_0000).contains(&ax)
            | (hx >= 0x3fda_827a)
            | (!k_zero & ((hu_main == 0) | (c_num != 0.0)));
        let dk = f64::from(k);
        let hfsq = 0.5 * f * f;
        let t = tail(f, hfsq);
        // `dk * LN2_LO` is `fma(dk, LN2_LO, c)` for `c = +0`.
        let y = dk.mul_add(LN2_HI, -((hfsq - (t + dk * LN2_LO)) - f));
        if rare {
            f64::NAN
        } else {
            y
        }
    }

    /// The batch: every lane through [`lane`], then every NaN lane
    /// recomputed through [`scalar`] (which is exact for any input, so
    /// a NaN from any cause is patched correctly).
    pub(super) fn batch(xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = lane(x);
        }
        for (o, &x) in out.iter_mut().zip(xs) {
            if o.is_nan() {
                *o = scalar(x);
            }
        }
    }
}

/// `x^y`, bit-identical to `x.powf(y)` on the hosts the port targets.
///
/// Under [`LN_1P_PORTED`] this is a literal transcription of the fast
/// path of the function glibc's `pow` dispatches to on FMA+AVX2 CPUs,
/// with its lookup tables copied from that build; inputs off the fast
/// path (non-positive or subnormal `x`, extreme `y`, results near 1 or
/// beyond the exponent range) call `f64::powf`. Every other build calls
/// `f64::powf` throughout. Either way the result is the platform libm's,
/// bit for bit, on the hosts the goldens were captured on.
#[inline]
pub fn pow(x: f64, y: f64) -> f64 {
    pow_impl::scalar(x, y)
}

/// `out[i] = pow(xs[i], y)` for every element, bit-identical to [`pow`]
/// element by element.
///
/// Under [`LN_1P_PORTED`] every lane runs the fast path as one
/// branch-free formula, and the lanes it does not cover are patched
/// through `f64::powf` afterwards.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn pow_batch(xs: &[f64], y: f64, out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "pow_batch needs equal-length slices");
    pow_impl::batch(xs, y, out);
}

/// Every build but the port's calls the platform `pow`.
#[cfg(not(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu",
    target_feature = "fma",
    target_feature = "avx2"
)))]
mod pow_impl {
    #[inline]
    pub(super) fn scalar(x: f64, y: f64) -> f64 {
        x.powf(y)
    }

    pub(super) fn batch(xs: &[f64], y: f64, out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = x.powf(y);
        }
    }
}

#[cfg(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu",
    target_feature = "fma",
    target_feature = "avx2"
))]
#[path = "special/pow_port.rs"]
mod pow_impl;

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9), accurate to ~1e-13 over
/// the domain used by this crate (Weibull moments with shape ≥ 0.1).
///
/// # Panics
///
/// Panics if `x` is not finite and positive.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite() && x > 0.0, "ln_gamma domain error: x = {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
///
/// # Panics
///
/// Panics if `x` is not finite and positive.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Mean of a two-parameter Weibull with scale `eta` and shape `beta`:
/// `η · Γ(1 + 1/β)`.
pub fn weibull_mean(eta: f64, beta: f64) -> f64 {
    eta * gamma(1.0 + 1.0 / beta)
}

/// Variance of a two-parameter Weibull with scale `eta` and shape `beta`:
/// `η² [Γ(1 + 2/β) − Γ(1 + 1/β)²]`.
pub fn weibull_variance(eta: f64, beta: f64) -> f64 {
    let g1 = gamma(1.0 + 1.0 / beta);
    let g2 = gamma(1.0 + 2.0 / beta);
    eta * eta * (g2 - g1 * g1)
}

/// The error function `erf(x)`, by the Abramowitz–Stegun 7.1.26
/// rational approximation (absolute error < 1.5×10⁻⁷ — ample for
/// simulation-grade probabilities; see the accuracy notes on
/// [`inv_std_normal`]).
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    // A&S 7.1.26.
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    y.min(1.0)
}

/// Standard normal CDF `Φ(z)`.
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |ε| < 1.15×10⁻⁹).
///
/// Note that [`std_normal_cdf`] carries the larger (1.5×10⁻⁷) error of
/// the `erf` approximation, so `Φ(Φ⁻¹(p))` round-trips to ~10⁻⁷, not
/// machine precision — adequate for every use in this workspace
/// (sampling and tail probabilities of simulations with ≥10⁻³
/// statistical noise).
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)`.
pub fn inv_std_normal(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;

    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inv_std_normal(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(3) = 2, Γ(4) = 6, Γ(5) = 24.
        for (x, expected) in [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (4.0, 6.0), (5.0, 24.0)] {
            assert!(
                (gamma(x) - expected).abs() < 1e-10 * expected,
                "gamma({x}) = {}",
                gamma(x)
            );
        }
    }

    #[test]
    fn gamma_half_is_sqrt_pi() {
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn gamma_recurrence_holds() {
        // Γ(x+1) = x Γ(x) across the domain we care about.
        for i in 1..200 {
            let x = i as f64 * 0.05;
            let lhs = gamma(x + 1.0);
            let rhs = x * gamma(x);
            assert!(
                (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
                "recurrence failed at x = {x}"
            );
        }
    }

    #[test]
    fn exponential_mean_is_scale() {
        // beta = 1 reduces the Weibull to an exponential with mean eta.
        assert!((weibull_mean(461_386.0, 1.0) - 461_386.0).abs() < 1e-6);
    }

    #[test]
    fn exponential_variance_is_scale_squared() {
        let eta = 123.0;
        assert!((weibull_variance(eta, 1.0) - eta * eta).abs() < 1e-6);
    }

    #[test]
    fn rayleigh_mean_matches_closed_form() {
        // beta = 2 gives mean = eta * sqrt(pi) / 2.
        let eta = 12.0;
        let expected = eta * std::f64::consts::PI.sqrt() / 2.0;
        assert!((weibull_mean(eta, 2.0) - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ln_gamma domain error")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn erf_known_values() {
        // erf(0) = 0, erf(1) = 0.8427007929, erf(2) = 0.9953222650.
        assert!(erf(0.0).abs() < 2e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 2e-7);
        assert!((erf(2.0) - 0.995_322_27).abs() < 2e-7);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12); // odd function
        assert!(erf(6.0) <= 1.0 && erf(6.0) > 0.999_999_99);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 2e-7);
        assert!((std_normal_cdf(1.959_964) - 0.975).abs() < 2e-7);
        assert!((std_normal_cdf(-1.959_964) - 0.025).abs() < 2e-7);
    }

    #[test]
    fn inv_normal_known_values() {
        assert!(inv_std_normal(0.5).abs() < 1e-8);
        assert!((inv_std_normal(0.975) - 1.959_964).abs() < 1e-5);
        assert!((inv_std_normal(0.025) + 1.959_964).abs() < 1e-5);
        assert!((inv_std_normal(0.999_9) - 3.719_02).abs() < 1e-4);
    }

    #[test]
    fn inv_normal_round_trips_within_erf_accuracy() {
        for &p in &[0.001, 0.1, 0.3, 0.5, 0.9, 0.999] {
            let z = inv_std_normal(p);
            assert!((std_normal_cdf(z) - p).abs() < 5e-7, "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "p must be in (0, 1)")]
    fn inv_normal_rejects_out_of_range() {
        inv_std_normal(1.0);
    }
}
