use super::ddf::{self, SlotCondition};
use super::{draw, BiasPolicy, Engine, EngineCounters, EngineSession, SessionTuning};
use crate::config::{RaidGroupConfig, Redundancy};
use crate::events::{DdfEvent, GroupHistory};
use raidsim_dists::kernel::{DrawSource, Tilt, NO_CUT};
use raidsim_dists::rng::{DrawCursor, SimRng};
use raidsim_dists::{KernelCache, SampleKernel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The paper's Figure 5 sampling procedure.
///
/// "Initially, a TTF and TTR are sampled for each HDD slot… Then,
/// pair-wise comparisons are made": each slot's operational renewal
/// timeline — alternating time-to-failure and time-to-restore spans —
/// is generated up front until it exceeds the mission, the failure
/// events are merged in time order, and each failure is compared
/// against every other slot's state at that instant (down interval
/// overlap, or uncorrected latent defect).
///
/// The latent-defect renewal chains are advanced lazily to each failure
/// instant. Per the paper's procedure the operational and defect
/// processes of a slot are **independent renewals** —
/// [`RaidGroupConfig::defect_reset_on_replacement`] is *ignored* by this
/// engine (it always behaves as `false`), and so is
/// [`crate::config::SparePolicy`] (restorations start immediately, the
/// paper's assumption); use [`super::DesEngine`] for the
/// physically-refined reset and spare-pool semantics. The
/// `engine_equivalence` tests compare the two under the paper's
/// settings.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimelineEngine;

impl TimelineEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        TimelineEngine
    }
}

/// One down-span of a slot's operational timeline.
#[derive(Debug, Clone, Copy)]
struct DownSpan {
    /// Failure instant.
    fail: f64,
    /// Restore-completion instant.
    restore: f64,
}

/// Lazily-advanced latent-defect renewal chain for one slot.
///
/// Plain state only: the sampling kernels live on the session (one pair
/// shared by all slots) and are passed into each advancing method, so a
/// chain can sit in a reusable `Vec` without borrowing the session.
#[derive(Debug, Clone, Copy)]
struct LdChain {
    /// Start of the current defect, or `INFINITY` while clean.
    defect_at: f64,
    /// End of the current defect (scrub), or `INFINITY`.
    clear_at: f64,
    /// Defects created so far (including pending).
    created: u64,
    /// Scrubs completed so far.
    scrubbed: u64,
}

/// Samples the scrub completion for a defect opening at `defect_at`.
fn schedule_clear<R: DrawSource>(
    defect_at: f64,
    ttscrub: Option<&SampleKernel>,
    samples: &mut u64,
    rng: &mut R,
) -> f64 {
    match ttscrub {
        Some(d) => {
            *samples += 1;
            defect_at + rng.plain(d)
        }
        None => f64::INFINITY,
    }
}

impl LdChain {
    fn new<R: DrawSource>(
        ttld: Option<&SampleKernel>,
        ttscrub: Option<&SampleKernel>,
        tilt: Option<Tilt>,
        samples: &mut u64,
        log_weight: &mut f64,
        rng: &mut R,
    ) -> Self {
        let mut chain = LdChain {
            defect_at: f64::INFINITY,
            clear_at: f64::INFINITY,
            created: 0,
            scrubbed: 0,
        };
        if let Some(d) = ttld {
            *samples += 1;
            chain.defect_at = draw(d, tilt, log_weight, rng);
            chain.clear_at = schedule_clear(chain.defect_at, ttscrub, samples, rng);
        }
        chain
    }

    /// Advances the chain so the current interval covers time `t`, then
    /// reports whether a defect is pending at `t`. Defect/scrub counts
    /// are accumulated (up to the mission bound) as intervals retire.
    #[allow(clippy::too_many_arguments)]
    fn defective_at<R: DrawSource>(
        &mut self,
        t: f64,
        mission: f64,
        ttld: Option<&SampleKernel>,
        ttscrub: Option<&SampleKernel>,
        tilt: Option<Tilt>,
        samples: &mut u64,
        log_weight: &mut f64,
        rng: &mut R,
    ) -> bool {
        let Some(ttld) = ttld else {
            return false;
        };
        while self.clear_at <= t {
            if self.defect_at <= mission {
                self.created += 1;
            }
            if self.clear_at <= mission {
                self.scrubbed += 1;
            }
            *samples += 1;
            let next_defect = self.clear_at + draw(ttld, tilt, log_weight, rng);
            self.defect_at = next_defect;
            self.clear_at = schedule_clear(next_defect, ttscrub, samples, rng);
        }
        self.defect_at <= t && t < self.clear_at
    }

    /// Truncates the current defect at `restore` because a DDF at
    /// `ddf_time` triggered a restoration that rebuilt the data ("shift
    /// restart time to coincide with restoration", Figure 5). Only
    /// defects that already existed at the DDF instant are affected —
    /// write errors created *during* the reconstruction remain latent
    /// (Section 4.2). Not counted as a scrub.
    #[allow(clippy::too_many_arguments)]
    fn clear_by_restore<R: DrawSource>(
        &mut self,
        ddf_time: f64,
        restore: f64,
        mission: f64,
        ttld: Option<&SampleKernel>,
        ttscrub: Option<&SampleKernel>,
        tilt: Option<Tilt>,
        samples: &mut u64,
        log_weight: &mut f64,
        rng: &mut R,
    ) {
        let Some(ttld) = ttld else { return };
        if self.defect_at <= ddf_time && restore < self.clear_at {
            if self.defect_at <= mission {
                self.created += 1;
            }
            *samples += 1;
            let next_defect = restore + draw(ttld, tilt, log_weight, rng);
            self.defect_at = next_defect;
            self.clear_at = schedule_clear(next_defect, ttscrub, samples, rng);
        }
    }

    /// Counts the remaining defects/scrubs between the chain's current
    /// position and the mission end.
    #[allow(clippy::too_many_arguments)]
    fn finalize_counts<R: DrawSource>(
        &mut self,
        mission: f64,
        ttld: Option<&SampleKernel>,
        ttscrub: Option<&SampleKernel>,
        tilt: Option<Tilt>,
        samples: &mut u64,
        log_weight: &mut f64,
        rng: &mut R,
    ) {
        let Some(ttld) = ttld else { return };
        while self.defect_at <= mission {
            self.created += 1;
            if self.clear_at <= mission {
                self.scrubbed += 1;
            } else {
                break;
            }
            *samples += 1;
            let next_defect = self.clear_at + draw(ttld, tilt, log_weight, rng);
            self.defect_at = next_defect;
            self.clear_at = schedule_clear(next_defect, ttscrub, samples, rng);
        }
    }
}

/// Persistent per-worker session for [`TimelineEngine`].
///
/// Owns the simulation state ([`TimelineState`]) and, under block
/// tuning, the prefetching [`DrawCursor`] every draw of the group reads
/// through. As with the DES engine, the phases in [`TimelineState`] are
/// the *only* implementation of the semantics, generic over where their
/// words come from — the stateless [`Engine::simulate_group`] delegates
/// through a throwaway session, and the scalar tuning runs the same
/// phases straight off the caller's RNG.
#[derive(Debug)]
struct TimelineSession {
    state: TimelineState,
    /// `Some` under block tuning: every draw of the group reads through
    /// this cursor, which [`DrawCursor::finish`] rewinds so the caller's
    /// RNG ends where the scalar path leaves it. `None` is the
    /// cursor-free scalar path, kept as the equivalence tests' oracle.
    prefetch: Option<DrawCursor>,
}

/// Everything a [`TimelineSession`] owns except its draw cursor, split
/// out so the phases can borrow both at once.
///
/// Holds the lowered sampling kernels and every phase's scratch buffer
/// (per-slot span vectors, the merged failure list, the k-way merge
/// heap, latent-defect chains, the pairwise-condition buffer and the
/// output history). All buffers are cleared-and-refilled per group, so
/// the steady-state loop performs no heap allocation.
#[derive(Debug)]
struct TimelineState {
    n: usize,
    mission: f64,
    redundancy: Redundancy,
    ttop: SampleKernel,
    ttr: SampleKernel,
    ttld: Option<SampleKernel>,
    ttscrub: Option<SampleKernel>,
    /// Importance-sampling tilt on TTOp draws; `None` leaves the
    /// measure unchanged (and the draws bit-identical).
    op_tilt: Option<Tilt>,
    /// Importance-sampling tilt on TTLd draws.
    latent_tilt: Option<Tilt>,
    /// Horizon cut for each slot's first (mission-start) TTOp draw
    /// ([`SampleKernel::horizon_cut`] at the mission). A first failure
    /// beyond the mission only ends the slot's chain, so it may read
    /// `BEYOND_HORIZON`. [`NO_CUT`] under the scalar tuning and for
    /// tilted TTOp.
    op_cut: f64,
    timelines: Vec<Vec<DownSpan>>,
    /// Merged `(fail, slot, restore)` events, time-ordered.
    failures: Vec<(f64, usize, f64)>,
    /// K-way merge frontier: `(fail bit pattern, slot, span index)`.
    /// For the non-negative finite times the timelines hold, the `u64`
    /// bit pattern orders identically to `f64::total_cmp`, and the
    /// `(slot, span index)` tie-break reproduces exactly what a stable
    /// sort of the slot-major concatenation produced — so replacing the
    /// per-group `sort_by` (and its temporary buffer) with this reused
    /// heap is bit-identical.
    merge_heap: BinaryHeap<Reverse<(u64, usize, usize)>>,
    chains: Vec<LdChain>,
    conditions: Vec<SlotCondition>,
    history: GroupHistory,
    /// Capacity high-water marks, for `scratch_grows`.
    ddfs_cap: usize,
    failures_cap: usize,
    spans_cap: usize,
    counters: EngineCounters,
}

impl TimelineSession {
    fn new(cfg: &RaidGroupConfig, bias: BiasPolicy, tuning: SessionTuning) -> Self {
        Self::new_cached(cfg, bias, tuning, &mut KernelCache::new())
    }

    fn new_cached(
        cfg: &RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Self {
        // The timeline engine generates each slot's whole renewal
        // trajectory up front (the paper's Figure 5 procedure), so it
        // has no mid-path intervention point for a state-dependent
        // measure change; refuse rather than silently ignore it.
        assert!(
            bias.forced_critical().is_none(),
            "the pairwise-timeline engine supports only draw-level tilts; \
             BiasPolicy::ForcedCritical requires the discrete-event engine"
        );
        let dists = &cfg.dists;
        let n = cfg.drives;
        let ttop = kernels.lower(&dists.ttop);
        let op_tilt = bias.op_tilt();
        let op_cut = if tuning.block_draws && op_tilt.is_none() {
            ttop.horizon_cut(cfg.mission_hours)
        } else {
            NO_CUT
        };
        TimelineSession {
            state: TimelineState {
                n,
                mission: cfg.mission_hours,
                redundancy: cfg.redundancy,
                ttop,
                ttr: kernels.lower(&dists.ttr),
                ttld: dists.ttld.as_ref().map(|d| kernels.lower(d)),
                ttscrub: dists.ttscrub.as_ref().map(|d| kernels.lower(d)),
                op_tilt,
                latent_tilt: bias.latent_tilt(),
                op_cut,
                timelines: std::iter::repeat_with(Vec::new).take(n).collect(),
                failures: Vec::new(),
                merge_heap: BinaryHeap::with_capacity(n),
                chains: Vec::with_capacity(n),
                conditions: Vec::with_capacity(n.saturating_sub(1)),
                history: GroupHistory::default(),
                ddfs_cap: 0,
                failures_cap: 0,
                spans_cap: 0,
                counters: EngineCounters::default(),
            },
            prefetch: tuning.block_draws.then(DrawCursor::new),
        }
    }
}

impl EngineSession for TimelineSession {
    fn simulate_group(&mut self, rng: &mut SimRng) -> &GroupHistory {
        let state = &mut self.state;
        match self.prefetch.as_mut() {
            Some(cursor) => {
                cursor.begin(rng);
                state.run_phases(cursor);
                cursor.finish(rng);
            }
            None => state.run_phases(rng),
        }
        &self.state.history
    }

    fn counters(&self) -> EngineCounters {
        self.state.counters
    }
}

impl TimelineState {
    /// Simulates one group, drawing every lifetime from `rng`.
    fn run_phases<R: DrawSource>(&mut self, rng: &mut R) {
        let n = self.n;
        let mission = self.mission;

        // The log-weight accumulates across phases 1, 3, 4 and 5, so it
        // resets first.
        self.history.log_weight = 0.0;

        // Phase 1 — generate each slot's operational renewal timeline
        // ("The operating and failure times are accumulated until a
        // specified mission time is exceeded", Section 5). Each chain's
        // length is data-dependent, which is why the phases draw through
        // a prefetching cursor rather than a pre-filled block.
        for spans in &mut self.timelines {
            spans.clear();
            let mut t = 0.0f64;
            // Only the draw from t = 0 may be cut: the cut is taken at
            // the mission, not at the mission minus a later start.
            let mut cut = self.op_cut;
            loop {
                self.counters.samples_drawn += 1;
                let life = match self.op_tilt {
                    Some(tilt) => self
                        .ttop
                        .sample_tilted(tilt, &mut self.history.log_weight, rng),
                    None => rng.plain_cut(&self.ttop, cut),
                };
                let fail = t + life;
                if fail > mission {
                    break;
                }
                cut = NO_CUT;
                self.counters.samples_drawn += 1;
                let restore = fail + rng.plain(&self.ttr);
                debug_assert!(
                    fail.is_finite() && restore.is_finite(),
                    "timeline spans must be finite, got fail = {fail}, restore = {restore}"
                );
                spans.push(DownSpan { fail, restore });
                t = restore;
            }
        }

        // Phase 2 — merge failure events in time order: a stable k-way
        // merge over the (already time-ordered) per-slot span lists.
        self.failures.clear();
        self.merge_heap.clear();
        for (slot, spans) in self.timelines.iter().enumerate() {
            if let Some(s) = spans.first() {
                debug_assert!(
                    s.fail.to_bits() >> 63 == 0,
                    "failure times must be non-negative for bit-pattern ordering"
                );
                self.merge_heap.push(Reverse((s.fail.to_bits(), slot, 0)));
            }
        }
        while let Some(Reverse((_, slot, i))) = self.merge_heap.pop() {
            let s = self.timelines[slot][i];
            self.failures.push((s.fail, slot, s.restore));
            if let Some(next) = self.timelines[slot].get(i + 1) {
                debug_assert!(
                    next.fail.to_bits() >> 63 == 0,
                    "failure times must be non-negative for bit-pattern ordering"
                );
                self.merge_heap
                    .push(Reverse((next.fail.to_bits(), slot, i + 1)));
            }
        }

        // Phase 3 — seed the lazily-advanced latent-defect chains.
        self.chains.clear();
        for _ in 0..n {
            self.chains.push(LdChain::new(
                self.ttld.as_ref(),
                self.ttscrub.as_ref(),
                self.latent_tilt,
                &mut self.counters.samples_drawn,
                &mut self.history.log_weight,
                rng,
            ));
        }

        // Phase 4 — the pairwise comparisons of Figure 5.
        self.history.ddfs.clear();
        self.history.op_failures = self.failures.len() as u64;
        self.history.latent_defects = 0;
        self.history.scrubs_completed = 0;
        self.history.restores_completed = self
            .timelines
            .iter()
            .flatten()
            .filter(|s| s.restore <= mission)
            .count() as u64;
        self.history.downtime_hours = self
            .timelines
            .iter()
            .flatten()
            .map(|s| s.restore.min(mission) - s.fail)
            .sum();

        let mut ddf_block_until = 0.0f64;
        for fi in 0..self.failures.len() {
            let (t, slot, restore) = self.failures[fi];
            self.counters.events += 1;
            if t < ddf_block_until {
                continue;
            }
            self.conditions.clear();
            for j in 0..n {
                if j == slot {
                    continue;
                }
                // Down if any of j's spans covers t.
                let down = self.timelines[j]
                    .iter()
                    .any(|s| s.fail < t && t < s.restore);
                let cond = if down {
                    SlotCondition::Down
                } else if self.chains[j].defective_at(
                    t,
                    mission,
                    self.ttld.as_ref(),
                    self.ttscrub.as_ref(),
                    self.latent_tilt,
                    &mut self.counters.samples_drawn,
                    &mut self.history.log_weight,
                    rng,
                ) {
                    SlotCondition::Defective
                } else {
                    SlotCondition::Clean
                };
                self.conditions.push(cond);
            }
            let verdict = ddf::check(self.conditions.iter().copied(), self.redundancy);
            if let Some(kind) = verdict.ddf {
                self.history.ddfs.push(DdfEvent { time: t, kind });
                ddf_block_until = restore;
                for (j, chain) in self.chains.iter_mut().enumerate() {
                    if j != slot {
                        chain.clear_by_restore(
                            t,
                            restore,
                            mission,
                            self.ttld.as_ref(),
                            self.ttscrub.as_ref(),
                            self.latent_tilt,
                            &mut self.counters.samples_drawn,
                            &mut self.history.log_weight,
                            rng,
                        );
                    }
                }
            }
        }

        // Phase 5 — finalize per-slot defect statistics.
        for chain in &mut self.chains {
            chain.finalize_counts(
                mission,
                self.ttld.as_ref(),
                self.ttscrub.as_ref(),
                self.latent_tilt,
                &mut self.counters.samples_drawn,
                &mut self.history.log_weight,
                rng,
            );
            self.history.latent_defects += chain.created;
            self.history.scrubs_completed += chain.scrubbed;
        }

        self.counters.groups += 1;
        if self.history.ddfs.capacity() > self.ddfs_cap {
            self.ddfs_cap = self.history.ddfs.capacity();
            self.counters.scratch_grows += 1;
        }
        if self.failures.capacity() > self.failures_cap {
            self.failures_cap = self.failures.capacity();
            self.counters.scratch_grows += 1;
        }
        let spans_cap = self.timelines.iter().map(Vec::capacity).max().unwrap_or(0);
        if spans_cap > self.spans_cap {
            self.spans_cap = spans_cap;
            self.counters.scratch_grows += 1;
        }
    }
}

impl Engine for TimelineEngine {
    fn simulate_group(&self, cfg: &RaidGroupConfig, rng: &mut SimRng) -> GroupHistory {
        TimelineSession::new(cfg, BiasPolicy::None, SessionTuning::default())
            .simulate_group(rng)
            .clone()
    }

    fn name(&self) -> &'static str {
        "pairwise-timeline"
    }

    fn session<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
    ) -> Box<dyn EngineSession + 'a> {
        self.session_tuned(cfg, bias, SessionTuning::default())
    }

    fn session_tuned<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
    ) -> Box<dyn EngineSession + 'a> {
        Box::new(TimelineSession::new(cfg, bias, tuning))
    }

    fn session_tuned_cached<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Box<dyn EngineSession + 'a> {
        Box::new(TimelineSession::new_cached(cfg, bias, tuning, kernels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RaidGroupConfig, TransitionDistributions};
    use crate::engine::DesEngine;
    use raidsim_dists::rng::stream;
    use rand::Rng;

    fn run_many(
        engine: &dyn Engine,
        cfg: &RaidGroupConfig,
        sims: u64,
        master: u64,
    ) -> (usize, u64, u64) {
        let mut ddfs = 0;
        let mut ops = 0;
        let mut lds = 0;
        for i in 0..sims {
            let mut rng = stream(master, i);
            let h = engine.simulate_group(cfg, &mut rng);
            h.assert_invariants(cfg.mission_hours);
            ddfs += h.ddf_count();
            ops += h.op_failures;
            lds += h.latent_defects;
        }
        (ddfs, ops, lds)
    }

    #[test]
    fn matches_des_engine_without_latent_defects() {
        let cfg = RaidGroupConfig {
            dists: TransitionDistributions::weibull_both().unwrap(),
            ..RaidGroupConfig::paper_base_case().unwrap()
        };
        let (_, ops_a, _) = run_many(&TimelineEngine::new(), &cfg, 400, 1);
        let (_, ops_b, _) = run_many(&DesEngine::new(), &cfg, 400, 2);
        // Operational failure counts are large (≈500 over 400 sims) and
        // near-Poisson; allow 4 x combined sigma plus small-count slack.
        let diff = (ops_a as f64 - ops_b as f64).abs();
        let scale = ((ops_a + ops_b).max(1) as f64).sqrt();
        assert!(
            diff < 4.0 * scale + 5.0,
            "timeline = {ops_a}, des = {ops_b}"
        );
    }

    #[test]
    fn matches_des_engine_on_base_case_defect_counts() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let (_, _, lds_a) = run_many(&TimelineEngine::new(), &cfg, 200, 3);
        let (_, _, lds_b) = run_many(&DesEngine::new(), &cfg, 200, 4);
        let diff = (lds_a as f64 - lds_b as f64).abs();
        let scale = ((lds_a + lds_b).max(1) as f64).sqrt();
        assert!(
            diff < 4.0 * scale + 5.0,
            "timeline = {lds_a}, des = {lds_b}"
        );
    }

    #[test]
    fn base_case_ddf_rates_agree_between_engines() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let sims = 1_500;
        let (ddf_a, _, _) = run_many(&TimelineEngine::new(), &cfg, sims, 5);
        let (ddf_b, _, _) = run_many(&DesEngine::new(), &cfg, sims, 6);
        // Poisson-ish counts ~30; allow 3-sigma-ish slack.
        let diff = (ddf_a as f64 - ddf_b as f64).abs();
        let scale = ((ddf_a + ddf_b).max(1) as f64).sqrt();
        assert!(
            diff < 4.0 * scale + 5.0,
            "timeline = {ddf_a}, des = {ddf_b}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let mut a = stream(9, 0);
        let mut b = stream(9, 0);
        let ha = TimelineEngine::new().simulate_group(&cfg, &mut a);
        let hb = TimelineEngine::new().simulate_group(&cfg, &mut b);
        assert_eq!(ha, hb);
    }

    #[test]
    fn session_reuse_is_bit_identical_to_one_shot() {
        // A session reused across many groups must reproduce the
        // per-call path exactly — scratch reuse and the merge-heap
        // rewrite of phase 2 must not change a single bit.
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let engine = TimelineEngine::new();
        let mut session = engine.session(&cfg, BiasPolicy::None);
        for i in 0..64 {
            let mut a = stream(11, i);
            let mut b = stream(11, i);
            let fresh = engine.simulate_group(&cfg, &mut a);
            let reused = session.simulate_group(&mut b);
            assert_eq!(&fresh, reused, "group {i} diverged");
        }
    }

    #[test]
    fn prefetched_group_leaves_the_rng_on_the_scalar_word() {
        // Latent defects off: a group draws one TTOp word per slot plus
        // a restore and a replacement lifetime per failure, 8 + 2f
        // words, against refills of 2, 4, 8, 16, 16, … that are used
        // up after 2, 6, 14, 30, … words. A group without failures ends
        // mid-refill and one with three failures uses its last refill
        // up exactly; the base case adds latent-defect chains that span
        // many refills.
        let base = RaidGroupConfig::paper_base_case().unwrap();
        let oponly = RaidGroupConfig {
            dists: TransitionDistributions::weibull_both().unwrap(),
            ..base.clone()
        };
        let scalar_tuning = SessionTuning {
            block_draws: false,
            ..SessionTuning::default()
        };
        let (mut no_failures, mut exact_fill, mut mid_block) = (0, 0, 0);
        for cfg in [&oponly, &base] {
            let mut prefetched =
                TimelineSession::new(cfg, BiasPolicy::None, SessionTuning::default());
            let mut scalar = TimelineSession::new(cfg, BiasPolicy::None, scalar_tuning);
            for seed in 0..300 {
                let mut a = stream(seed, 0);
                let mut b = stream(seed, 0);
                let history = prefetched.simulate_group(&mut a).clone();
                assert_eq!(&history, scalar.simulate_group(&mut b));
                assert_eq!(
                    a.next_u64(),
                    b.next_u64(),
                    "seed {seed}: the rewound RNG is off the scalar path's word"
                );
                if history.op_failures == 0 {
                    no_failures += 1;
                }
                match prefetched.prefetch.as_ref().map_or(0, DrawCursor::pending) {
                    0 => exact_fill += 1,
                    _ => mid_block += 1,
                }
            }
            // A cut draw still consumes and counts its word.
            assert_eq!(prefetched.counters(), scalar.counters());
        }
        assert!(
            no_failures > 0 && exact_fill > 0 && mid_block > 0,
            "endings not all covered: {no_failures} without failures, \
             {exact_fill} exact fills, {mid_block} mid-block"
        );
    }

    #[test]
    fn engine_names_differ() {
        assert_ne!(TimelineEngine::new().name(), DesEngine::new().name());
    }
}
