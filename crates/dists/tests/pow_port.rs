//! The in-repo `pow` port against the platform's `f64::powf`.
//!
//! `raidsim_dists::special::pow` and its batch form are, under
//! `special::LN_1P_PORTED`, a transcription of glibc's FMA `pow` fast
//! path (DESIGN.md §18). The tests in `port` require bit-identity with
//! `f64::powf` over dense random and edge inputs, for the scalar and the
//! batch form; they compile only where the port does. The pinned table
//! runs on every build: it fixes the bits of `pow(x, y)` for the `e`
//! lanes of RNG words under the exponents the simulations use, edges
//! included, so the bits every Weibull draw ends with are visible and
//! checked whichever implementation a build uses.

use raidsim_dists::special::{pow, pow_batch};

/// `(x bits, y bits, pow(x, y) bits)`: `e` lanes of edge and random
/// words under TTScrub's 1/3, TTR's 1/2 and TTOp's 1/1.12, and inputs
/// off the fast path (zero, subnormal and huge `x`, results near 1 and
/// beyond the exponent range).
const PINNED: [(u64, u64, u64); 24] = [
    (0x0000000000000000, 0x3fd5555555555555, 0x0000000000000000),
    (0x3ca0000000000000, 0x3fd5555555555555, 0x3ed428a2f98d728f),
    (0x3e20000000400000, 0x3fd5555555555555, 0x3f5428a2f9a85366),
    (0x3fe62e42fefa39ef, 0x3fd5555555555555, 0x3fec51e55265f6d4),
    (0x40425e4f7b2737fa, 0x3fd5555555555555, 0x400a982b898ba5e8),
    (0x3fd59cab611239d7, 0x3fd5555555555555, 0x3fe648a3b6abd746),
    (0x400518a91b323d97, 0x3fd5555555555555, 0x3ff61ae732409973),
    (0x3fa6f753c2294a23, 0x3fd5555555555555, 0x3fd6bd60e7b62ae7),
    (0x3ca0000000000000, 0x3fe0000000000000, 0x3e46a09e667f3bcd),
    (0x3fe62e42fefa39ef, 0x3fe0000000000000, 0x3feaa4499161cd47),
    (0x40425e4f7b2737fa, 0x3fe0000000000000, 0x40183e8e2149f688),
    (0x3fd59cab611239d7, 0x3fe0000000000000, 0x3fe29871506e061b),
    (0x3fe62e42fefa39ef, 0x3fed41d41d41d41d, 0x3fe6e37a65ce4199),
    (0x40425e4f7b2737fa, 0x3fed41d41d41d41d, 0x403af96a1da9a797),
    (0x3fd59cab611239d7, 0x3fed41d41d41d41d, 0x3fd7b839320180f1),
    (0x400518a91b323d97, 0x3fed41d41d41d41d, 0x400369f0a4163ace),
    (0x0000000000000001, 0x3fd5555555555555, 0x299000000000003e),
    (0x000fffffffffffff, 0x3fe0000000000000, 0x1fffffffffffffff),
    (0x7fefffffffffffff, 0x3fd5555555555555, 0x554428a2f98d7240),
    (0x7fefffffffffffff, 0x4004000000000000, 0x7ff0000000000000),
    (0x3ff0000000000001, 0x3fd5555555555555, 0x3ff0000000000000),
    (0x3ff0000000000000, 0x3fd5555555555555, 0x3ff0000000000000),
    (0x3fe0000000000000, 0x40a0000000000000, 0x0000000000000000),
    (0x4000000000000000, 0x408ff00000000000, 0x7fd0000000000000),
];

#[test]
fn pinned_bits_hold_for_scalar_and_batch() {
    for (i, &(x, y, bits)) in PINNED.iter().enumerate() {
        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
        let scalar = pow(x, y);
        assert_eq!(
            scalar.to_bits(),
            bits,
            "pinned #{i}: pow({x:e}, {y:e}) gave {scalar:e} ({:#018x})",
            scalar.to_bits()
        );
        let mut out = [0.0];
        pow_batch(&[x], y, &mut out);
        assert_eq!(out[0].to_bits(), bits, "pinned #{i}: batch lane diverged");
    }
}

#[cfg(all(
    target_arch = "x86_64",
    target_os = "linux",
    target_env = "gnu",
    target_feature = "fma",
    target_feature = "avx2"
))]
mod port {
    use super::*;
    use raidsim_dists::rng::stream;
    use raidsim_dists::special::ln_1p_batch;
    use rand::Rng;

    // This module's gate and the library's must agree.
    const _: () = assert!(raidsim_dists::special::LN_1P_PORTED);

    /// Every exponent the simulations raise an `e` lane or a scaled
    /// time to: `1/β` for the quantiles and `β` for the survival
    /// functions, over the shapes the experiments and the CLI use.
    const EXPONENTS: [f64; 18] = [
        1.0 / 3.0,
        1.0 / 2.0,
        1.0 / 1.12,
        1.0 / 0.7,
        1.0 / 0.8,
        1.0 / 1.25,
        1.0 / 1.4,
        1.0 / 1.8,
        2.5,
        2.0 / 3.0,
        0.7,
        0.8,
        1.12,
        1.25,
        1.4,
        1.8,
        2.0,
        3.0,
    ];

    /// Largest batch the checks run at once (the cursor's refill).
    const CHUNK: usize = 16;

    /// Bit equality, except that any two NaNs agree (payloads are not
    /// part of the contract).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Checks scalar and batch `pow(x, y)` against `f64::powf` for one
    /// batch of `xs`.
    fn check_batch(label: &str, xs: &[f64], y: f64) {
        let mut out = [0.0; CHUNK];
        let out = &mut out[..xs.len()];
        pow_batch(xs, y, out);
        for (&x, &b) in xs.iter().zip(out.iter()) {
            let want = x.powf(y);
            let s = pow(x, y);
            assert!(
                same(s, want),
                "{label}: scalar port pow({x:e}, {y:e}) = {s:e} ({:#018x}), libm {want:e} ({:#018x})",
                s.to_bits(),
                want.to_bits()
            );
            assert!(
                same(b, want),
                "{label}: batch port pow({x:e}, {y:e}) = {b:e} ({:#018x}), libm {want:e} ({:#018x})",
                b.to_bits(),
                want.to_bits()
            );
        }
    }

    /// Checks every `x` against `y`, in batches of [`CHUNK`].
    fn check_all(label: &str, xs: impl IntoIterator<Item = f64>, y: f64) {
        let xs: Vec<f64> = xs.into_iter().collect();
        for chunk in xs.chunks(CHUNK) {
            check_batch(label, chunk, y);
        }
    }

    /// The uniform of one RNG word, as the sampling kernels convert it.
    fn unit(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn ten_million_random_e_lanes_match_libm_under_every_exponent() {
        let mut rng = stream(20071, 1);
        let mut neg_u = [0.0; CHUNK];
        let mut e = [0.0; CHUNK];
        for _ in 0..10_000_000 / CHUNK {
            for x in &mut neg_u {
                *x = -unit(rng.next_u64());
            }
            ln_1p_batch(&neg_u, &mut e);
            for x in &mut e {
                *x = -*x;
            }
            for &y in &EXPONENTS {
                check_batch("e lane", &e, y);
            }
        }
    }

    #[test]
    fn random_pairs_match_libm() {
        // x over the whole positive range and y over the fast path's
        // exponent band (tops 0x3be..0x43e) and a little beyond it, as
        // random bit patterns of either sign.
        let mut rng = stream(20071, 2);
        for _ in 0..100_000 {
            let w = rng.next_u64();
            let top = 0x3b0 + (w >> 52) % 0xa0;
            let y = f64::from_bits((w >> 63 << 63) | (top << 52) | (w & ((1 << 52) - 1)));
            let xs: Vec<f64> = (0..CHUNK)
                .map(|_| f64::from_bits(rng.next_u64() >> 1))
                .collect();
            check_batch("random pair", &xs, y);
            // The same lanes near 1, where most results are finite.
            let near: Vec<f64> = (0..CHUNK)
                .map(|_| 0.25 + 4.0 * unit(rng.next_u64()))
                .collect();
            check_batch("random pair near 1", &near, y);
        }
    }

    #[test]
    fn both_ends_of_every_log_table_interval_match_libm() {
        // Interval `i` holds the x whose bits minus 0x3fe6955500000000
        // carry `i` in bits 45..52; its ends are where that field turns.
        const OFF: u64 = 0x3fe6_9555_0000_0000;
        for i in 0..128u64 {
            for k in [-1i64, 0, 1, 5] {
                let start = OFF.wrapping_add((i << 45).wrapping_add((k as u64) << 52));
                let end = start.wrapping_add((1 << 45) - 1);
                let xs: Vec<f64> = [start, end]
                    .into_iter()
                    .flat_map(|b| (b - 8..b + 8).map(f64::from_bits))
                    .collect();
                for &y in &EXPONENTS {
                    check_all("log interval end", xs.iter().copied(), y);
                }
            }
        }
    }

    #[test]
    fn fast_path_edges_match_libm() {
        let mut ys = EXPONENTS.to_vec();
        // The exponent band's edges: |y| tops 0x3be (2⁻⁶⁵) and 0x43e
        // (2⁶³) and their neighbours, both signs.
        for top in [0x3be_u64, 0x43e] {
            for b in [(top << 52) - 1, top << 52, (top << 52) + 1] {
                ys.push(f64::from_bits(b));
                ys.push(-f64::from_bits(b));
            }
        }
        let mut xs = vec![
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
            f64::from_bits(f64::MIN_POSITIVE.to_bits() + 1),
            f64::MAX,
            f64::from_bits(f64::MAX.to_bits() - 1),
            1e300,
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1),
            f64::from_bits(1.0f64.to_bits() - 1),
            -1.0,
            -2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Every power of two and its neighbours: subnormal, normal and
        // huge x.
        for e in -1074..=1023_i64 {
            let p = if e < -1022 {
                f64::from_bits(1 << (e + 1074))
            } else {
                f64::from_bits(((e + 1023) as u64) << 52)
            };
            xs.extend([
                p,
                f64::from_bits(p.to_bits() + 1),
                f64::from_bits(p.to_bits() - 1),
            ]);
        }
        for &y in &ys {
            check_all("edge", xs.iter().copied(), y);
        }
    }

    #[test]
    fn ehi_near_overflow_and_underflow_matches_libm() {
        // x^y near 2^1024 and 2^−1022 (overflow, the subnormal range)
        // and 2^−1074, and near e^±512 = 2^±738.7 (|ehi| = 512, where
        // the exp fast path ends and the original takes its special
        // case); then |ehi| near 2⁻⁵⁴ (results within an ULP of 1).
        let edge = 512.0 / std::f64::consts::LN_2;
        for y in [2.0, 0.5, 3.0, 1.0 / 3.0, 7.25] {
            for target in [1024.0f64, -1022.0, -1074.0, edge, -edge] {
                let center = (target / y).exp2();
                if !center.is_normal() {
                    continue;
                }
                let c = center.to_bits();
                check_all("ehi edge", (c - 2000..c + 2000).map(f64::from_bits), y);
            }
            // ln x near ±2⁻⁵⁴/y: x within a few thousand ULP of 1.
            let one = 1.0f64.to_bits();
            check_all(
                "ehi near 2^-54",
                (one - 20_000..one + 20_000).map(f64::from_bits),
                y,
            );
        }
    }

    #[test]
    fn every_batch_length_patches_a_nan_lane_at_every_position() {
        let mut rng = stream(7, 9);
        let odd = [f64::NAN, 0.0, -1.0, 5e-324, f64::INFINITY];
        for &y in &EXPONENTS {
            for len in 1..=CHUNK {
                for pos in 0..len {
                    for &bad in &odd {
                        let mut xs: Vec<f64> =
                            (0..len).map(|_| 4.0 * unit(rng.next_u64())).collect();
                        xs[pos] = bad;
                        check_batch("odd lane", &xs, y);
                    }
                }
            }
        }
    }
}
