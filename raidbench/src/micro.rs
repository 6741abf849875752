//! Unit costs of single layer operations, timed in isolation: RNG
//! words, kernel draws, kernel lowering, the DDF rule check and engine
//! session opens.

use raidsim_core::config::{RaidGroupConfig, Redundancy};
use raidsim_core::engine::ddf::{self, SlotCondition};
use raidsim_core::engine::{BiasPolicy, Engine, SessionTuning};
use raidsim_dists::kernel::MathMode;
use raidsim_dists::rng::{fill_uniforms, stream};
use raidsim_dists::{KernelCache, LifeDistribution, SampleKernel};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repeats of each timing; the median is reported.
const REPEATS: usize = 7;

/// Block length for the buffer-filling operations.
const BLOCK: usize = 4_096;

/// Median over [`REPEATS`] timings of `calls` calls of `f`, in ns per
/// call divided by `per_call` (the items one call produces).
pub fn ns_per_item(calls: u64, per_call: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(REPEATS);
    f(); // warm caches and lazy state
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / (calls as f64 * per_call as f64));
    }
    crate::stats::median(&samples)
}

/// Unit costs of one kernel: a scalar draw and a block-drawn item.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCost {
    pub sample_ns: f64,
    pub block_ns: f64,
}

/// The paper's four transition distributions, with their layer names.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    pub ttop: KernelCost,
    pub ttr: KernelCost,
    pub ttld: KernelCost,
    pub ttscrub: KernelCost,
}

pub fn kernel_cost(dist: &Arc<dyn LifeDistribution>, calls: u64) -> KernelCost {
    let kernel = SampleKernel::lower(dist);
    let mut rng = stream(7, 0);
    let sample_ns = ns_per_item(calls, 1, || {
        black_box(kernel.sample(&mut rng));
    });
    let mut buf = vec![0.0; BLOCK];
    let block_ns = ns_per_item(calls / BLOCK as u64 + 1, BLOCK, || {
        kernel.sample_block(MathMode::Exact, &mut rng, &mut buf);
        black_box(&buf);
    });
    KernelCost {
        sample_ns,
        block_ns,
    }
}

/// Every workload-independent unit cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    pub rng_word_ns: f64,
    pub rng_scalar_word_ns: f64,
    pub kernels: KernelCosts,
    pub lower_us: f64,
    pub cache_hit_us: f64,
    pub ddf_check_ns: f64,
}

impl Micro {
    /// `calls` sets the work per timing; 100 000 takes ~0.1 s in all.
    pub fn measure(calls: u64) -> Micro {
        let base = RaidGroupConfig::paper_base_case().expect("the paper base case is valid");
        let d = &base.dists;
        let ttld = d.ttld.clone().expect("the base case has latent defects");
        let ttscrub = d.ttscrub.clone().expect("the base case scrubs");

        let mut rng = stream(7, 1);
        let mut block = vec![0.0; BLOCK];
        let rng_word_ns = ns_per_item(calls / BLOCK as u64 + 1, BLOCK, || {
            fill_uniforms(&mut rng, &mut block);
            black_box(&block);
        });
        // One word per call through `&mut dyn Rng`: the per-call
        // indirection the hot path pays today.
        let mut one = [0.0; 1];
        let rng_scalar_word_ns = ns_per_item(calls, 1, || {
            fill_uniforms(&mut rng, &mut one);
            black_box(&one);
        });

        let kernels = KernelCosts {
            ttop: kernel_cost(&d.ttop, calls),
            ttr: kernel_cost(&d.ttr, calls),
            ttld: kernel_cost(&ttld, calls),
            ttscrub: kernel_cost(&ttscrub, calls),
        };

        let lower_calls = calls / 10 + 1;
        let lower_us = ns_per_item(lower_calls, 1, || {
            black_box(SampleKernel::lower(black_box(&d.ttop)));
        }) / 1_000.0;
        let mut cache = KernelCache::new();
        cache.lower(&d.ttop);
        let cache_hit_us = ns_per_item(lower_calls, 1, || {
            black_box(cache.lower(black_box(&d.ttop)));
        }) / 1_000.0;

        // An 8- and a 10-slot group, one slot defective: the common case
        // at an operational failure, which checks every slot.
        use SlotCondition::{Clean, Defective};
        let eight = [Clean, Clean, Defective, Clean, Clean, Clean, Clean, Clean];
        let ten = [
            Clean, Clean, Clean, Clean, Clean, Defective, Clean, Clean, Clean, Clean,
        ];
        let ddf_check_ns = ns_per_item(calls, 2, || {
            black_box(ddf::check(
                black_box(&eight).iter().copied(),
                Redundancy::SingleParity,
            ));
            black_box(ddf::check(
                black_box(&ten).iter().copied(),
                Redundancy::SingleParity,
            ));
        });

        Micro {
            rng_word_ns,
            rng_scalar_word_ns,
            kernels,
            lower_us,
            cache_hit_us,
            ddf_check_ns,
        }
    }
}

/// The reference probe time: host-normalized timings are what they
/// would be on a host whose [`calibration_ns`] loop takes 10 ms (about
/// what a quiet vCPU of the baseline host takes).
pub const HOST_REF_NS: f64 = 1e7;

/// Nanoseconds for a fixed CPU-bound loop (about 10 ms): xorshift words
/// through `ln` and `powf`, the operations of an inverse-CDF Weibull
/// draw. It runs none of raidsim's code, so no change to raidsim moves
/// it; only the host's speed does.
pub fn calibration_ns() -> u128 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    let start = Instant::now();
    for _ in 0..400_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        acc += black_box((-u.ln()).powf(1.0 / 1.12));
    }
    black_box(acc);
    start.elapsed().as_nanos()
}

/// Microseconds to open one engine session for `cfg`, as the runners
/// do (no bias, default tuning).
pub fn session_open_us(engine: &dyn Engine, cfg: &RaidGroupConfig, calls: u64) -> f64 {
    ns_per_item(calls, 1, || {
        black_box(engine.session_tuned(cfg, BiasPolicy::None, SessionTuning::default()));
    }) / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_grow_with_the_work() {
        let mut x = 0u64;
        let cheap = ns_per_item(1_000, 1, || x = black_box(x.wrapping_add(1)));
        let dear = ns_per_item(1_000, 1, || {
            for _ in 0..200 {
                x = black_box(x.wrapping_mul(3).wrapping_add(1));
            }
        });
        assert!(dear > cheap, "{dear} vs {cheap}");
        let m = Micro::measure(1_000);
        assert!(m.rng_word_ns > 0.0 && m.kernels.ttscrub.block_ns > 0.0 && m.ddf_check_ns > 0.0);
    }
}
