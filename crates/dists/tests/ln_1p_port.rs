//! The in-repo `ln_1p` port against the platform's `f64::ln_1p`.
//!
//! `raidsim_dists::special::ln_1p` and its batch form are, under
//! `special::LN_1P_PORTED`, a transcription of glibc's FMA `log1p`
//! (DESIGN.md §18). The tests in `port` require bit-identity with
//! `f64::ln_1p` over dense random and edge inputs, for the scalar and
//! the batch form; they compile only where the port does. The pinned
//! table runs on every build: it fixes the `e` lane bits
//! `-ln_1p(-u)` of 128 RNG words, edges included, so the bits every
//! Weibull draw starts from are visible and checked whichever
//! implementation a build uses.

use raidsim_dists::rng::{stream, DrawCursor};
use raidsim_dists::special::{ln_1p, ln_1p_batch};
use rand::Rng;

/// The uniform of one RNG word, as the sampling kernels convert it.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `(word, bits of -ln_1p(-u))` for edge words (zero, the smallest
/// uniforms, the 2⁻²⁹ tiny-input boundary, the −0.2929 branch boundary,
/// `u = 1 − 2⁻ʲ` and its neighbours, the largest word) and random ones.
const PINNED: [(u64, u64); 128] = [
    (0x0000000000000000, 0x0000000000000000),
    (0x0000000000000800, 0x3ca0000000000000),
    (0x0000000000001000, 0x3cb0000000000000),
    (0x00000007fffff800, 0x3e1fffffe07fffff),
    (0x0000000800000000, 0x3e20000000400000),
    (0x0000000800000800, 0x3e20000010400001),
    (0x0008000000000000, 0x3f20004001555d56),
    (0x8000000000000000, 0x3fe62e42fefa39ef),
    (0xfffffffffffff800, 0x40425e4f7b2737fa),
    (0xffffffffffffffff, 0x40425e4f7b2737fa),
    (0x4afb0ffffffff800, 0x3fd62e4420e1ff0e),
    (0x4afb100000000000, 0x3fd62e4420e1ff10),
    (0x4afb100000000800, 0x3fd62e4420e1ff13),
    (0x7ffffffffffff800, 0x3fe62e42fefa39ed),
    (0x8000000000000000, 0x3fe62e42fefa39ef),
    (0x8000000000000800, 0x3fe62e42fefa39f1),
    (0xbffffffffffff800, 0x3ff62e42fefa39ed),
    (0xc000000000000000, 0x3ff62e42fefa39ef),
    (0xc000000000000800, 0x3ff62e42fefa39f1),
    (0xdffffffffffff800, 0x4000a2b23f3bab71),
    (0xe000000000000000, 0x4000a2b23f3bab73),
    (0xe000000000000800, 0x4000a2b23f3bab75),
    (0xf7fffffffffff800, 0x400bb9d3beb8c863),
    (0xf800000000000000, 0x400bb9d3beb8c86b),
    (0xf800000000000800, 0x400bb9d3beb8c873),
    (0xfefffffffffff800, 0x40162e42fefa39cf),
    (0xff00000000000000, 0x40162e42fefa39ef),
    (0xff00000000000800, 0x40162e42fefa3a0f),
    (0xfff7fffffffff800, 0x402205966f2b4d12),
    (0xfff8000000000000, 0x402205966f2b4f12),
    (0xfff8000000000800, 0x402205966f2b5112),
    (0xfffff7fffffff800, 0x402d1cb7eea66c0a),
    (0xfffff80000000000, 0x402d1cb7eea86c0a),
    (0xfffff80000000800, 0x402d1cb7eeaa6c0a),
    (0xffffffffbffff800, 0x403791270ee9df8e),
    (0xffffffffc0000000, 0x403791272ee9dd8e),
    (0xffffffffc0000800, 0x403791274ee9df8e),
    (0xffffffffffffe800, 0x4041d1b02751cfe2),
    (0xfffffffffffff000, 0x404205966f2b4f12),
    (0xfffffffffffff800, 0x40425e4f7b2737fa),
    (0x495d6af5cff627b6, 0x3fd59cab611239d7),
    (0x0b3ab54464cfa221, 0x3fa6f753c2294a23),
    (0xedad6907cd216356, 0x400518a91b323d97),
    (0x1fe8b7ab3aefda3e, 0x3fc10a414bd0cafc),
    (0x07da38e155b0dfc7, 0x3f9fe6ca967624e3),
    (0xcf0aadfd06ecb4e1, 0x3ffa77a3bbf7fe06),
    (0x5e3b3b4f7f940a37, 0x3fdd606d00a163d4),
    (0x4f1cb7f1d65119af, 0x3fd7a88994ca3349),
    (0xb9d5de73f793b169, 0x3ff4b5977671d301),
    (0x2b626f940a770ba5, 0x3fc7c4c29d42a06a),
    (0xeea5e1ed3fdcdcb2, 0x400588209ad51125),
    (0x55413c64f9e9462f, 0x3fd9eb9b042da474),
    (0x3ab6c28e6e012c2a, 0x3fd0ac66a1f9acd6),
    (0x28c574155176ad9e, 0x3fc6347872ab49f5),
    (0x9c21196187b202bb, 0x3fee1f2356a5fc4f),
    (0x5bd361a4071bbbcc, 0x3fdc6e92a3a7fac4),
    (0x2427aa02d2b0c2fe, 0x3fc37d128eaf1b4f),
    (0x30f490824d3714bc, 0x3fcb2ac64cf0f608),
    (0xcb6b70d30d03addb, 0x3ff9534b9066f732),
    (0x0350d0b8d44925d7, 0x3f8ab2e18d27c7cb),
    (0x71043e44d30749b0, 0x3fe2a36b856faeda),
    (0x88f4279932587725, 0x3fe880544c8ad5c2),
    (0x1fec4a7958010818, 0x3fc10c4bd8978b49),
    (0x1c93a446896ae904, 0x3fbe4d23137d8d64),
    (0xc9f81b56db1beb58, 0x3ff8e3d48146cef5),
    (0x9d4cb947b9cf0774, 0x3fee7fb582852e37),
    (0x27a5eca4bb258f43, 0x3fc589eabbaceb2f),
    (0x319bb917f2293053, 0x3fcb924782db7b52),
    (0x306ccea3e9293c51, 0x3fcad6f4173ec22f),
    (0x12ec0852111cc950, 0x3fb3a865166092dc),
    (0x5043943ff1c691e6, 0x3fd81391f4d13dba),
    (0x59b942b404f6ddef, 0x3fdb9e2103b7528e),
    (0x7370764b086cedf2, 0x3fe32f6a6efef45e),
    (0x7f815848338a0102, 0x3fe60ea8b11af5ff),
    (0xf1d37ad2629850ec, 0x400726735900323f),
    (0xe0e40f9f8bd716e7, 0x4000dc852ce39352),
    (0x4cfcd6822ceb7141, 0x3fd6e4ed7be52a6c),
    (0x509dd6c29cf22f40, 0x3fd8347965e82bf4),
    (0xe3e0a90e0ec70c68, 0x4001ab3be15a1421),
    (0x80efc4a8d989a14b, 0x3fe66a6c93e22b49),
    (0x9003ac6400cb44f1, 0x3fea753352c7edcf),
    (0x8ec70ed7c43dc841, 0x3fea1b392989cf08),
    (0x39fa6b3123cf07c8, 0x3fd06f6a908d937a),
    (0x769e638e8aa8adbb, 0x3fe3ead785222ee4),
    (0x8bcfb6efc3937ea6, 0x3fe9475f9cc162af),
    (0xa424fc087137c718, 0x3ff0663ce9e8c4c3),
    (0x6396ba52e2cfb2f6, 0x3fdf8836f46bd324),
    (0xf2d998f14e25269d, 0x4007c00294c20f76),
    (0x8ca8d9c58d197a6b, 0x3fe983652c16d9c7),
    (0xe545d91e2154aa0f, 0x40021373555e9cec),
    (0xa64635a71b294787, 0x3ff0c653c0ee2af2),
    (0x3e9f445ed9fe338c, 0x3fd1f439ae4186e8),
    (0x794d8f58f831e3b5, 0x3fe48c7ce5cf5f81),
    (0xae0a80eaa09614ed, 0x3ff2392cbd945ccf),
    (0xdb092be221242e4c, 0x3ffef6b1ea653049),
    (0x745b0da31f092a7c, 0x3fe364ff5fe9ab16),
    (0x4104b0a8403736e7, 0x3fd2c082d24de7f0),
    (0x4a4fee6705e8c6ea, 0x3fd5f1df9f2f95e5),
    (0x14ae1d7fbf399a4d, 0x3fb590361594f317),
    (0x581b16d2bf0bbb7d, 0x3fdaff7bfdbeb0df),
    (0xaf2fa468fb97b97c, 0x3ff272ce01a9424c),
    (0x274dc51a2e5dfc3b, 0x3fc555cdbd2a8e5b),
    (0x028254c9efd4923f, 0x3f842bff748eaf40),
    (0x4a49f84a8ea100a9, 0x3fd5efc6145c89d8),
    (0xef54b61cbb9b3743, 0x4005da5c17f54914),
    (0x8271e9185201cf00, 0x3fe6cc40cb65da38),
    (0xdad50728ec9931cd, 0x3ffee02fc2dce35b),
    (0x62711d477589974e, 0x3fdf10834d1895e2),
    (0x81a8df9757da5491, 0x3fe6992cb8199fff),
    (0xd765606fedc5a495, 0x3ffd760272c5c5a8),
    (0x1af45e034cac0ba3, 0x3fbc7b573bc916a2),
    (0x9ca72ebc1eb22c72, 0x3fee4a369cec2db2),
    (0x4361d1be7b396d7d, 0x3fd38c8fca92bf30),
    (0xf1572582b2e4d7c8, 0x4006e17343fae760),
    (0x254d427ae85aa4f7, 0x3fc42875a4f1c9f8),
    (0x6076f2242fdb323e, 0x3fde442fe0cf4aac),
    (0xc84adaaa011c8a87, 0x3ff866a6333b7689),
    (0x75147ff175898de2, 0x3fe38f9a9913d9d2),
    (0x57e46e3b6847f50f, 0x3fdaeaa982626945),
    (0x19199620692deaec, 0x3fba6ad2d69bb3e0),
    (0xc901103b9f61f090, 0x3ff89b51c7ae210d),
    (0x09e407498ed2d34f, 0x3fa42c7a8a621cde),
    (0x7045e7023e7bd0e4, 0x3fe278ee82cc136b),
    (0xa7a0b91fcd5a26a0, 0x3ff10496b402ebab),
    (0xaa7ebdef089eeebf, 0x3ff18bb035683e64),
    (0x3c47f47f5db64670, 0x3fd12f11ae83a12e),
    (0xd956348839c7056f, 0x3ffe3e9e3cb842dd),
    (0x698f85b117173a71, 0x3fe10302553a006a),
];

#[test]
fn pinned_e_lane_bits_hold_for_scalar_and_batch() {
    let xs: Vec<f64> = PINNED.iter().map(|&(w, _)| -unit(w)).collect();
    let mut batch = vec![0.0; xs.len()];
    ln_1p_batch(&xs, &mut batch);
    for (i, (&(word, bits), &x)) in PINNED.iter().zip(&xs).enumerate() {
        let scalar = -ln_1p(x);
        assert_eq!(
            scalar.to_bits(),
            bits,
            "pinned #{i}: word {word:#018x} gave {scalar:e} ({:#018x})",
            scalar.to_bits()
        );
        assert_eq!(
            (-batch[i]).to_bits(),
            bits,
            "pinned #{i}: batch lane diverged"
        );
    }
}

#[test]
fn draw_cursor_e_lane_is_the_scalar_function_of_each_word() {
    let mut words = stream(42, 3);
    let mut cursor = DrawCursor::new();
    for round in 0..200 {
        cursor.begin(&words);
        let mut replay = words.clone();
        for _ in 0..37 {
            let e = cursor.next_exp();
            let expected = -ln_1p(-unit(replay.next_u64()));
            assert_eq!(e.to_bits(), expected.to_bits(), "round {round}");
        }
        cursor.finish(&mut words);
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

    // This module's gate and the library's must agree.
    const _: () = assert!(raidsim_dists::special::LN_1P_PORTED);

    /// The uniform `k·2⁻⁵³` of grid point `k`.
    fn grid(k: u64) -> f64 {
        k as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Largest batch the check runs at once (the cursor's refill).
    const CHUNK: usize = 16;

    /// Checks scalar and batch against `f64::ln_1p` for every input,
    /// in batches of [`CHUNK`], and returns the inputs checked.
    fn check_all(label: &str, xs: impl IntoIterator<Item = f64>) -> usize {
        let mut buf = Vec::with_capacity(CHUNK);
        let mut out = [0.0; CHUNK];
        let mut checked = 0;
        let mut flush = |buf: &mut Vec<f64>| {
            let out = &mut out[..buf.len()];
            ln_1p_batch(buf, out);
            for (&x, &b) in buf.iter().zip(out.iter()) {
                let want = x.ln_1p();
                let s = ln_1p(x);
                assert!(
                    same(s, want),
                    "{label}: scalar port ln_1p({x:e}) = {s:e} ({:#018x}), libm {want:e} ({:#018x})",
                    s.to_bits(),
                    want.to_bits()
                );
                assert!(
                    same(b, want),
                    "{label}: batch port ln_1p({x:e}) = {b:e} ({:#018x}), libm {want:e} ({:#018x})",
                    b.to_bits(),
                    want.to_bits()
                );
            }
            checked += buf.len();
            buf.clear();
        };
        for x in xs {
            buf.push(x);
            if buf.len() == CHUNK {
                flush(&mut buf);
            }
        }
        flush(&mut buf);
        checked
    }

    /// Bit equality, except that any two NaNs agree (payloads are not
    /// part of the contract).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn ten_million_random_words_match_libm() {
        let mut rng = stream(20071, 0);
        let n = check_all(
            "random word",
            (0..10_000_000).map(|_| -unit(rng.next_u64())),
        );
        assert_eq!(n, 10_000_000);
    }

    #[test]
    fn grid_ends_and_branch_boundaries_match_libm() {
        let top = 1u64 << 53;
        check_all("u = 0", [-0.0, 0.0]);
        check_all("first grid points", (0..1_000_000).map(|k| -grid(k)));
        check_all("last grid points", (top - 1_000_000..top).map(|k| -grid(k)));
        // The 2⁻²⁹ tiny-input boundary.
        let tiny = 1u64 << 24;
        check_all(
            "2^-29 boundary",
            (tiny - 5000..tiny + 5000).map(|k| -grid(k)),
        );
        // The k = 0 branch ends at x = −0.2929 (high word 0xbfd2bec4)
        // and at x = 0.41422 (high word 0x3fda827a).
        for high in [0x3fd2_bec4_u64, 0x3fda_827a] {
            let edge = f64::from_bits(high << 32);
            let k = (edge * top as f64) as u64;
            check_all(
                "branch boundary, grid",
                (k - 5000..k + 5000).flat_map(|k| [-grid(k), grid(k)]),
            );
            let bits = high << 32;
            check_all(
                "branch boundary, every float",
                (bits - 5000..bits + 5000).flat_map(|b| [f64::from_bits(b), -f64::from_bits(b)]),
            );
            // Random low words under the last high word on each side.
            let mut rng = stream(high, 1);
            check_all(
                "branch boundary, random low words",
                (0..100_000).flat_map(|_| {
                    let low = rng.next_u64() >> 32;
                    let below = f64::from_bits(((high - 1) << 32) | low);
                    let at = f64::from_bits((high << 32) | low);
                    [below, at, -below, -at]
                }),
            );
        }
    }

    #[test]
    fn one_minus_powers_of_two_match_libm() {
        // u = 1 − 2⁻ʲ makes 1 − u a power of two: the `hu == 0` path.
        let top = 1u64 << 53;
        for j in 1..=53 {
            let k = top - (1u64 << (53 - j));
            let lo = k.saturating_sub(5000);
            let hi = (k + 5000).min(top);
            check_all("1 - 2^-j", (lo..hi).map(|k| -grid(k)));
        }
    }

    #[test]
    fn special_inputs_match_libm() {
        let mut xs = vec![
            -1.0,
            -1.5,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1e-300,
            0.5,
            1.0,
            2.0,
            3.5,
            1e10,
            9.007_199_254_740_992e15,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Powers of two and their neighbours, both signs: the exponent
        // and `hu == 0` edges of every branch.
        for e in -1074..=1023_i64 {
            let p = if e < -1022 {
                f64::from_bits(1 << (e + 1074))
            } else {
                f64::from_bits(((e + 1023) as u64) << 52)
            };
            for x in [
                p,
                f64::from_bits(p.to_bits() + 1),
                f64::from_bits(p.to_bits() - 1),
            ] {
                xs.push(x);
                xs.push(-x);
            }
        }
        check_all("special", xs);
    }

    #[test]
    fn every_batch_length_patches_an_odd_lane_at_every_position() {
        // Lanes the branch-free formula leaves to the scalar port.
        let odd = [
            0.0,
            -(2f64.powi(-40)),
            -(1.0 - 2f64.powi(-7)),
            -(1.0 - 2f64.powi(-30)),
            0.6,
            -1.0,
            f64::NAN,
            f64::INFINITY,
        ];
        let mut rng = stream(7, 7);
        for len in 1..=CHUNK {
            for pos in 0..len {
                for &bad in &odd {
                    let mut xs: Vec<f64> = (0..len).map(|_| -unit(rng.next_u64())).collect();
                    xs[pos] = bad;
                    let mut out = vec![0.0; len];
                    ln_1p_batch(&xs, &mut out);
                    for (i, (&x, &y)) in xs.iter().zip(&out).enumerate() {
                        assert!(
                            same(y, x.ln_1p()),
                            "length {len}, odd lane {bad:e} at {pos}: lane {i} ({x:e}) gave {y:e}"
                        );
                    }
                }
            }
        }
    }
}
