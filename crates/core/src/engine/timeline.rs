use super::ddf::{self, SlotCondition};
use super::{draw, BiasPolicy, BundleShare, Engine, EngineCounters, EngineSession, SessionTuning};
use crate::config::{RaidGroupConfig, Redundancy};
use crate::events::{DdfEvent, GroupHistory};
use raidsim_dists::kernel::{DrawSource, Tilt, NO_CUT};
use raidsim_dists::rng::{DrawCursor, DrawMemo, SimRng};
use raidsim_dists::{KernelCache, LifeDistribution, SampleKernel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

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
/// instant, and finally to the group's observation horizon, its last
/// operational event (see [`GroupHistory`]). Per the paper's procedure
/// the operational and defect processes of a slot are **independent
/// renewals** —
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

    /// Retires every interval that clears by `bound` through
    /// [`DrawSource::walk_renewal`], counting each as one defect, one
    /// scrub and two draws. Only for untilted chains with a scrub, and
    /// only for `bound <= mission`: an interval clearing by `bound`
    /// started no later (lifetimes are non-negative), so both its ends
    /// lie within the mission and both counts apply.
    fn walk<R: DrawSource>(
        &mut self,
        bound: f64,
        mission: f64,
        ttld: &SampleKernel,
        ttscrub: &SampleKernel,
        samples: &mut u64,
        rng: &mut R,
    ) {
        debug_assert!(
            bound <= mission,
            "walk bound {bound} past the mission {mission}"
        );
        // A walk that cannot retire a single interval reads no word;
        // returning here skips its setup.
        if self.clear_at > bound {
            return;
        }
        let cycles = rng.walk_renewal(
            ttld,
            ttscrub,
            &mut self.defect_at,
            &mut self.clear_at,
            bound,
        );
        self.created += cycles;
        self.scrubbed += cycles;
        *samples += 2 * cycles;
    }

    /// Advances the chain so the current interval covers time `t`, then
    /// reports whether a defect is pending at `t`. Defect/scrub counts
    /// are accumulated (up to the mission bound) as intervals retire.
    /// `t` is a failure instant, so `t <= mission`.
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
        if let (None, Some(ttscrub)) = (tilt, ttscrub) {
            self.walk(t, mission, ttld, ttscrub, samples, rng);
        } else {
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

    /// Counts the remaining defects and scrubs between the chain's
    /// current position and the group's observation `horizon` (its last
    /// operational event; see [`OpPhase::horizon`]). An
    /// untilted chain walks no further than the horizon. A tilted one
    /// walks on to the mission, so its TTLd draws — and the weight
    /// factors they carry — stay those of a whole-mission walk, but
    /// counts only the events up to the horizon.
    #[allow(clippy::too_many_arguments)]
    fn finalize_counts<R: DrawSource>(
        &mut self,
        horizon: f64,
        mission: f64,
        ttld: Option<&SampleKernel>,
        ttscrub: Option<&SampleKernel>,
        tilt: Option<Tilt>,
        samples: &mut u64,
        log_weight: &mut f64,
        rng: &mut R,
    ) {
        let Some(ttld) = ttld else { return };
        if let (None, Some(ttscrub)) = (tilt, ttscrub) {
            self.walk(horizon, mission, ttld, ttscrub, samples, rng);
            // The pending defect, if it started by the horizon.
            if self.defect_at <= horizon {
                self.created += 1;
            }
            return;
        }
        while self.defect_at <= mission {
            if self.defect_at <= horizon {
                self.created += 1;
            }
            if self.clear_at > mission {
                break;
            }
            if self.clear_at <= horizon {
                self.scrubbed += 1;
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
/// Owns the simulation state — the operational phase's parameters
/// ([`OpSpec`]) and scratch ([`OpPhase`]), and the latent phases' state
/// ([`LatentState`]) — and, under block tuning, the prefetching
/// [`DrawCursor`] every draw of the group reads through. As with the
/// DES engine, the phases are the *only* implementation of the
/// semantics, generic over where their words come from — the stateless
/// [`Engine::simulate_group`] delegates through a throwaway session, and
/// the scalar tuning runs the same phases straight off the caller's RNG.
#[derive(Debug)]
struct TimelineSession {
    spec: OpSpec,
    /// The operational phase of a group drawn from the caller's RNG; a
    /// bundle's group keeps it in the bundle's share instead
    /// ([`EngineSession::simulate_group_memo`]).
    op: OpPhase,
    latent: LatentState,
    /// `Some` under block tuning: every draw of the group reads through
    /// this cursor, which [`DrawCursor::finish`] rewinds so the caller's
    /// RNG ends where the scalar path leaves it. `None` is the
    /// cursor-free scalar path, kept as the equivalence tests' oracle.
    prefetch: Option<DrawCursor>,
}

/// Everything a group's operational phase (Figure 5 phases 1–2) depends
/// on besides its words.
#[derive(Debug)]
struct OpSpec {
    n: usize,
    mission: f64,
    ttop: SampleKernel,
    ttr: SampleKernel,
    /// Importance-sampling tilt on TTOp draws; `None` leaves the
    /// measure unchanged (and the draws bit-identical).
    op_tilt: Option<Tilt>,
    /// Horizon cut for each slot's first (mission-start) TTOp draw
    /// ([`SampleKernel::horizon_cut`] at the mission). A first failure
    /// beyond the mission only ends the slot's chain, so it may read
    /// `BEYOND_HORIZON`. [`NO_CUT`] under the scalar tuning and for
    /// tilted TTOp.
    op_cut: f64,
    /// Which other sessions compute the same phase.
    identity: OpIdentity,
}

/// The operational identity of a session: two sessions with equal
/// identities compute the same operational phase from the same words,
/// draw for draw. It is decided from the configuration and the session's
/// kernels — the slot count, the mission, the TTOp and TTR distribution
/// trees (by allocation, the key the executor's shared [`KernelCache`]
/// lowers them by), the op tilt and the horizon cut — never from what a
/// scenario is called.
#[derive(Debug, Clone)]
struct OpIdentity {
    drives: usize,
    mission: u64,
    ttop: Arc<dyn LifeDistribution>,
    ttr: Arc<dyn LifeDistribution>,
    op_tilt: Option<Tilt>,
    op_cut: u64,
}

impl PartialEq for OpIdentity {
    fn eq(&self, other: &Self) -> bool {
        self.drives == other.drives
            && self.mission == other.mission
            && Arc::ptr_eq(&self.ttop, &other.ttop)
            && Arc::ptr_eq(&self.ttr, &other.ttr)
            && self.op_tilt == other.op_tilt
            && self.op_cut == other.op_cut
    }
}

/// One group's operational phase: each slot's down spans, the merged
/// failures, and everything the latent phases read of them.
///
/// All buffers are cleared-and-refilled per group, so the steady-state
/// loop performs no heap allocation.
#[derive(Debug, Default)]
struct OpPhase {
    /// Slots of the last group; `timelines` may hold more (their
    /// allocations kept for a later spec with more slots).
    slots: usize,
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
    /// The observation horizon: the group's last operational event
    /// within the mission, a failure or a restore completion. No DDF
    /// rule reads a latent state past it, and a group without
    /// operational events observes none (its horizon is −∞).
    horizon: f64,
    /// Restores completed within the mission.
    restores: u64,
    /// Down time within the mission, hours.
    downtime: f64,
    /// Distribution sampling calls of phase 1.
    samples: u64,
    /// Phase 1's log-likelihood-ratio (TTOp tilt): where the group's
    /// log-weight stands when the latent phases start.
    log_weight: f64,
    /// Capacity high-water marks, for `scratch_grows`.
    failures_cap: usize,
    spans_cap: usize,
}

impl OpPhase {
    /// The last group's per-slot span lists.
    fn timelines(&self) -> &[Vec<DownSpan>] {
        &self.timelines[..self.slots]
    }
}

/// A bundle's shared operational phase: the phase the last timeline
/// session computed for the current group, for every later session of
/// the bundle with the same [`OpIdentity`].
#[derive(Debug, Default)]
pub(super) struct SharedOp {
    /// The memo generation the phase was computed from; `None` while no
    /// phase is complete.
    generation: Option<u64>,
    identity: Option<OpIdentity>,
    op: OpPhase,
    /// Words phase 1 read: where the latent phases start reading.
    words: usize,
}

impl SharedOp {
    /// Whether this holds `identity`'s phase of memo generation
    /// `generation`.
    fn holds(&self, generation: u64, identity: &OpIdentity) -> bool {
        self.generation == Some(generation) && self.identity.as_ref() == Some(identity)
    }
}

/// What a session's latent seeds (Figure 5 phase 3) are a function of
/// besides the memo's words, for sessions whose seeds a bundle can
/// share: untilted chains with `Weibull3` TTLd and TTScrub kernels.
///
/// Slot `j`'s chain starts from two words: its TTLd onset, a plain draw
/// at word `start + 2j`, and its first scrub span, a plain TTScrub draw
/// at the next word. The onset depends on the whole TTLd kernel, the
/// scrub word only through TTScrub's exponent: its `powf(e, 1/β)` and
/// whether its `e` lane is 0. Each session finishes the span with its
/// own `γ` and `η`, so rungs that differ only in their scrub scale share
/// every seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeedIdentity {
    /// The memo word phase 3 starts reading at: the words phase 1 read.
    start: usize,
    /// Chains seeded: the slot count.
    n: usize,
    /// The TTLd kernel's `(γ, η, β, 1/β)`, as bits.
    ttld: [u64; 4],
    /// TTScrub's `1/β`, as bits.
    scrub_inv_beta: u64,
}

/// A session's side of [`SeedIdentity`]: the kernel parameters its
/// shared seeds are read and finished with.
#[derive(Debug, Clone, Copy)]
struct SeedSpec {
    ttld: [u64; 4],
    /// TTScrub's location γ, scale η and `1/β`.
    scrub: (f64, f64, f64),
}

impl SeedSpec {
    /// The spec of an untilted session whose TTLd and TTScrub kernels
    /// are both `Weibull3`; `None` for every other session, which seeds
    /// its chains draw by draw.
    fn of(
        ttld: Option<&SampleKernel>,
        ttscrub: Option<&SampleKernel>,
        latent_tilt: Option<Tilt>,
    ) -> Option<SeedSpec> {
        match (ttld?, ttscrub?, latent_tilt) {
            (
                &SampleKernel::Weibull3 {
                    gamma,
                    eta,
                    beta,
                    inv_beta,
                },
                &SampleKernel::Weibull3 {
                    gamma: scrub_gamma,
                    eta: scrub_eta,
                    inv_beta: scrub_inv_beta,
                    ..
                },
                None,
            ) => Some(SeedSpec {
                ttld: [gamma, eta, beta, inv_beta].map(f64::to_bits),
                scrub: (scrub_gamma, scrub_eta, scrub_inv_beta),
            }),
            _ => None,
        }
    }

    /// The identity of this spec's seeds for `n` chains read from word
    /// `start` on.
    fn identity(&self, start: usize, n: usize) -> SeedIdentity {
        SeedIdentity {
            start,
            n,
            ttld: self.ttld,
            scrub_inv_beta: self.scrub.2.to_bits(),
        }
    }
}

/// One slot's shared latent seed: its TTLd onset and its first scrub
/// word's power (`None` when that word's `e` lane is 0).
type Seed = (f64, Option<f64>);

/// A bundle's shared latent seeds: the seeds the last session with a
/// [`SeedSpec`] read for the current group, for every later session of
/// the bundle with the same [`SeedIdentity`].
#[derive(Debug, Default)]
pub(super) struct SharedSeeds {
    /// The memo generation the seeds were read from; `None` while no
    /// set is complete.
    generation: Option<u64>,
    identity: Option<SeedIdentity>,
    seeds: Vec<Seed>,
}

impl SharedSeeds {
    /// The seeds of `identity` in memo generation `generation`, read
    /// from `memo` first unless this already holds them. The second
    /// value counts how often the seed buffer grew.
    fn get(
        &mut self,
        generation: u64,
        identity: SeedIdentity,
        ttld: &SampleKernel,
        memo: &mut DrawMemo,
    ) -> (&[Seed], u64) {
        let mut grows = 0;
        if self.generation != Some(generation) || self.identity != Some(identity) {
            self.generation = None;
            let cap = self.seeds.capacity();
            self.seeds.clear();
            let mut reader = memo.reader_at(identity.start);
            for _ in 0..identity.n {
                let onset = reader.plain(ttld);
                let scrub = reader.next_power(f64::from_bits(identity.scrub_inv_beta));
                self.seeds.push((onset, scrub));
            }
            grows = u64::from(self.seeds.capacity() > cap);
            self.identity = Some(identity);
            self.generation = Some(generation);
        }
        (&self.seeds, grows)
    }
}

/// The latent phases' kernels and scratch (Figure 5 phases 3–5) and the
/// group's output.
///
/// Holds the latent-defect chains, the pairwise-condition buffer and the
/// output history; all are cleared-and-refilled per group.
#[derive(Debug)]
struct LatentState {
    n: usize,
    mission: f64,
    redundancy: Redundancy,
    ttld: Option<SampleKernel>,
    ttscrub: Option<SampleKernel>,
    /// Importance-sampling tilt on TTLd draws.
    latent_tilt: Option<Tilt>,
    /// `Some` when a bundle may share this session's latent seeds.
    seed_spec: Option<SeedSpec>,
    chains: Vec<LdChain>,
    conditions: Vec<SlotCondition>,
    history: GroupHistory,
    /// Capacity high-water mark of `history.ddfs`, for `scratch_grows`.
    ddfs_cap: usize,
    counters: EngineCounters,
}

impl TimelineSession {
    fn new(
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
        let ttld = dists.ttld.as_ref().map(|d| kernels.lower(d));
        let ttscrub = dists.ttscrub.as_ref().map(|d| kernels.lower(d));
        let latent_tilt = bias.latent_tilt();
        TimelineSession {
            spec: OpSpec {
                n,
                mission: cfg.mission_hours,
                ttop,
                ttr: kernels.lower(&dists.ttr),
                op_tilt,
                op_cut,
                identity: OpIdentity {
                    drives: n,
                    mission: cfg.mission_hours.to_bits(),
                    ttop: Arc::clone(&dists.ttop),
                    ttr: Arc::clone(&dists.ttr),
                    op_tilt,
                    op_cut: op_cut.to_bits(),
                },
            },
            op: OpPhase::default(),
            latent: LatentState {
                n,
                mission: cfg.mission_hours,
                redundancy: cfg.redundancy,
                seed_spec: SeedSpec::of(ttld.as_ref(), ttscrub.as_ref(), latent_tilt),
                ttld,
                ttscrub,
                latent_tilt,
                chains: Vec::with_capacity(n),
                conditions: Vec::with_capacity(n.saturating_sub(1)),
                history: GroupHistory::default(),
                ddfs_cap: 0,
                counters: EngineCounters::default(),
            },
            prefetch: tuning.block_draws.then(DrawCursor::new),
        }
    }
}

impl EngineSession for TimelineSession {
    fn simulate_group(&mut self, rng: &mut SimRng) -> &GroupHistory {
        let TimelineSession {
            spec,
            op,
            latent,
            prefetch,
        } = self;
        match prefetch.as_mut() {
            Some(cursor) => {
                cursor.begin(rng);
                latent.run_group(spec, op, cursor);
                cursor.finish(rng);
            }
            None => latent.run_group(spec, op, rng),
        }
        &self.latent.history
    }

    /// Reuses the bundle's operational phase when an earlier session
    /// with the same [`OpIdentity`] computed it from this memo
    /// generation, and otherwise computes it into the share for later
    /// sessions. A session with a [`SeedSpec`] does the same with its
    /// latent seeds, keyed by [`SeedIdentity`]. Either way the latent
    /// phases read on from the word the shared work stopped at, so every
    /// word is the one a single reader of the whole group reads.
    fn simulate_group_memo(
        &mut self,
        memo: &mut DrawMemo,
        share: &mut BundleShare,
    ) -> &GroupHistory {
        let BundleShare {
            timeline: shared,
            seeds,
        } = share;
        let generation = memo.generation();
        if !shared.holds(generation, &self.spec.identity) {
            shared.generation = None;
            let mut reader = memo.reader();
            self.latent.counters.scratch_grows += self.spec.run(&mut shared.op, &mut reader);
            shared.words = reader.consumed();
            if shared.identity.as_ref() != Some(&self.spec.identity) {
                shared.identity = Some(self.spec.identity.clone());
            }
            shared.generation = Some(generation);
        }
        let op = &shared.op;
        let latent = &mut self.latent;
        match (latent.seed_spec, &latent.ttld) {
            // A group without failures seeds no untilted chain.
            (Some(spec), Some(ttld)) if !op.failures.is_empty() => {
                let identity = spec.identity(shared.words, latent.n);
                let (seeds, grows) = seeds.get(generation, identity, ttld, memo);
                latent.counters.scratch_grows += grows;
                latent.seed_shared(op, spec, seeds);
                latent.compare(op, &mut memo.reader_at(identity.start + 2 * identity.n));
            }
            _ => latent.run(op, &mut memo.reader_at(shared.words)),
        }
        &self.latent.history
    }

    fn counters(&self) -> EngineCounters {
        self.latent.counters
    }
}

impl OpSpec {
    /// Figure 5 phases 1–2 for one group into `op`, drawing every
    /// lifetime from `rng`. Returns how many of `op`'s buffers grew.
    fn run<R: DrawSource>(&self, op: &mut OpPhase, rng: &mut R) -> u64 {
        let mission = self.mission;
        op.samples = 0;
        op.log_weight = 0.0;
        op.slots = self.n;
        if op.timelines.len() < self.n {
            op.timelines.resize_with(self.n, Vec::new);
        }

        // Phase 1 — generate each slot's operational renewal timeline
        // ("The operating and failure times are accumulated until a
        // specified mission time is exceeded", Section 5). Each chain's
        // length is data-dependent, which is why the phases draw through
        // a prefetching cursor rather than a pre-filled block.
        for spans in &mut op.timelines[..self.n] {
            spans.clear();
            let mut t = 0.0f64;
            // Only the draw from t = 0 may be cut: the cut is taken at
            // the mission, not at the mission minus a later start.
            let mut cut = self.op_cut;
            loop {
                op.samples += 1;
                let life = match self.op_tilt {
                    Some(tilt) => self.ttop.sample_tilted(tilt, &mut op.log_weight, rng),
                    None => rng.plain_cut(&self.ttop, cut),
                };
                let fail = t + life;
                if fail > mission {
                    break;
                }
                cut = NO_CUT;
                op.samples += 1;
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
        let timelines = &op.timelines[..self.n];
        op.failures.clear();
        op.merge_heap.clear();
        for (slot, spans) in timelines.iter().enumerate() {
            if let Some(s) = spans.first() {
                debug_assert!(
                    s.fail.to_bits() >> 63 == 0,
                    "failure times must be non-negative for bit-pattern ordering"
                );
                op.merge_heap.push(Reverse((s.fail.to_bits(), slot, 0)));
            }
        }
        while let Some(Reverse((_, slot, i))) = op.merge_heap.pop() {
            let s = timelines[slot][i];
            op.failures.push((s.fail, slot, s.restore));
            if let Some(next) = timelines[slot].get(i + 1) {
                debug_assert!(
                    next.fail.to_bits() >> 63 == 0,
                    "failure times must be non-negative for bit-pattern ordering"
                );
                op.merge_heap
                    .push(Reverse((next.fail.to_bits(), slot, i + 1)));
            }
        }

        op.restores = timelines
            .iter()
            .flatten()
            .filter(|s| s.restore <= mission)
            .count() as u64;
        op.downtime = timelines
            .iter()
            .flatten()
            .map(|s| s.restore.min(mission) - s.fail)
            .sum();
        op.horizon = timelines
            .iter()
            .flatten()
            .map(|s| {
                if s.restore <= mission {
                    s.restore
                } else {
                    s.fail
                }
            })
            .fold(f64::NEG_INFINITY, f64::max);

        let mut grows = 0;
        if op.failures.capacity() > op.failures_cap {
            op.failures_cap = op.failures.capacity();
            grows += 1;
        }
        let spans_cap = timelines.iter().map(Vec::capacity).max().unwrap_or(0);
        if spans_cap > op.spans_cap {
            op.spans_cap = spans_cap;
            grows += 1;
        }
        grows
    }
}

impl LatentState {
    /// Simulates one group, drawing every lifetime from `rng`: the
    /// operational phase into `op`, then the latent phases.
    fn run_group<R: DrawSource>(&mut self, spec: &OpSpec, op: &mut OpPhase, rng: &mut R) {
        self.counters.scratch_grows += spec.run(op, rng);
        self.run(op, rng);
    }

    /// Figure 5 phases 3–5 for the group whose operational phase is
    /// `op`, reading on from the word after phase 1's last.
    fn run<R: DrawSource>(&mut self, op: &OpPhase, rng: &mut R) {
        self.begin(op);
        // Phase 3 — seed the lazily-advanced latent-defect chains. A
        // group without failures reads no latent state (its horizon is
        // −∞), so untilted chains are not seeded at all; tilted ones
        // are, since their draws carry weight factors.
        if !op.failures.is_empty() || self.latent_tilt.is_some() {
            for _ in 0..self.n {
                self.chains.push(LdChain::new(
                    self.ttld.as_ref(),
                    self.ttscrub.as_ref(),
                    self.latent_tilt,
                    &mut self.counters.samples_drawn,
                    &mut self.history.log_weight,
                    rng,
                ));
            }
        }
        self.compare(op, rng);
    }

    /// Starts the latent phases of the group whose operational phase is
    /// `op`: no chains yet, and the log-weight and draw count where
    /// phase 1 left them (the log-weight accumulates across phases 1, 3,
    /// 4 and 5).
    fn begin(&mut self, op: &OpPhase) {
        debug_assert_eq!(
            op.timelines().len(),
            self.n,
            "an operational phase of another slot count"
        );
        self.history.log_weight = op.log_weight;
        self.counters.samples_drawn += op.samples;
        self.chains.clear();
    }

    /// Phase 3 from a bundle's shared seeds, one per slot: the chains
    /// [`LdChain::new`] seeds from the same two words per slot, with the
    /// float ops of [`raidsim_dists::SampleKernel::sample_memo`] — a
    /// scrub word whose `e` lane is 0 gives the span `γ`, any other
    /// `γ + η·power`. The two draws per slot count as this session's.
    fn seed_shared(&mut self, op: &OpPhase, spec: SeedSpec, seeds: &[Seed]) {
        self.begin(op);
        let (gamma, eta, _) = spec.scrub;
        self.chains
            .extend(seeds.iter().map(|&(onset, power)| LdChain {
                defect_at: onset,
                clear_at: match power {
                    Some(power) => onset + (gamma + eta * power),
                    None => onset + gamma,
                },
                created: 0,
                scrubbed: 0,
            }));
        self.counters.samples_drawn += 2 * seeds.len() as u64;
    }

    /// Figure 5 phases 4–5 over the seeded chains, reading on from the
    /// word after phase 3's last.
    fn compare<R: DrawSource>(&mut self, op: &OpPhase, rng: &mut R) {
        let mission = self.mission;
        let timelines = op.timelines();

        // Phase 4 — the pairwise comparisons of Figure 5.
        self.history.ddfs.clear();
        self.history.op_failures = op.failures.len() as u64;
        self.history.latent_defects = 0;
        self.history.scrubs_completed = 0;
        self.history.restores_completed = op.restores;
        self.history.downtime_hours = op.downtime;

        let mut ddf_block_until = 0.0f64;
        for &(t, slot, restore) in &op.failures {
            self.counters.events += 1;
            if t < ddf_block_until {
                continue;
            }
            self.conditions.clear();
            for (j, spans) in timelines.iter().enumerate() {
                if j == slot {
                    continue;
                }
                // Down if any of j's spans covers t.
                let down = spans.iter().any(|s| s.fail < t && t < s.restore);
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

        // Phase 5 — finalize per-slot defect statistics up to the
        // observation horizon.
        for chain in &mut self.chains {
            chain.finalize_counts(
                op.horizon,
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
    }
}

impl Engine for TimelineEngine {
    fn simulate_group(&self, cfg: &RaidGroupConfig, rng: &mut SimRng) -> GroupHistory {
        TimelineSession::new(
            cfg,
            BiasPolicy::None,
            SessionTuning::default(),
            &mut KernelCache::new(),
        )
        .simulate_group(rng)
        .clone()
    }

    fn name(&self) -> &'static str {
        "pairwise-timeline"
    }

    fn session_tuned_cached<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Box<dyn EngineSession + 'a> {
        Box::new(TimelineSession::new(cfg, bias, tuning, kernels))
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
    ) -> (usize, u64) {
        let mut ddfs = 0;
        let mut ops = 0;
        for i in 0..sims {
            let mut rng = stream(master, i);
            let h = engine.simulate_group(cfg, &mut rng);
            h.assert_invariants(cfg.mission_hours);
            ddfs += h.ddf_count();
            ops += h.op_failures;
        }
        (ddfs, ops)
    }

    #[test]
    fn matches_des_engine_without_latent_defects() {
        let cfg = RaidGroupConfig {
            dists: TransitionDistributions::weibull_both().unwrap(),
            ..RaidGroupConfig::paper_base_case().unwrap()
        };
        let (_, ops_a) = run_many(&TimelineEngine::new(), &cfg, 400, 1);
        let (_, ops_b) = run_many(&DesEngine::new(), &cfg, 400, 2);
        // Operational failure counts are large (≈500 over 400 sims) and
        // near-Poisson; allow 4 x combined sigma plus small-count slack.
        let diff = (ops_a as f64 - ops_b as f64).abs();
        let scale = ((ops_a + ops_b).max(1) as f64).sqrt();
        assert!(
            diff < 4.0 * scale + 5.0,
            "timeline = {ops_a}, des = {ops_b}"
        );
    }

    /// Welch's z for the difference of two sample means, from the
    /// per-group sample variances.
    fn welch_z(a: &[f64], b: &[f64]) -> f64 {
        let moments = |x: &[f64]| {
            let n = x.len() as f64;
            let mean = x.iter().sum::<f64>() / n;
            let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            (mean, var / n)
        };
        let ((ma, sa), (mb, sb)) = (moments(a), moments(b));
        (ma - mb) / (sa + sb).sqrt()
    }

    #[test]
    fn matches_des_engine_on_base_case_defect_counts() {
        // Counts stop at each group's last operational event, so they
        // spread far wider than a Poisson count (sd ≈ 28 against ≈ 6
        // at a mean of ≈ 33): compare the means at 4 standard errors
        // of the observed per-group spread.
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let counts = |engine: &dyn Engine, master: u64| -> Vec<f64> {
            (0..400)
                .map(|i| {
                    let h = engine.simulate_group(&cfg, &mut stream(master, i));
                    h.assert_invariants(cfg.mission_hours);
                    h.latent_defects as f64
                })
                .collect()
        };
        let a = counts(&TimelineEngine::new(), 3);
        let b = counts(&DesEngine::new(), 4);
        let z = welch_z(&a, &b);
        assert!(z.abs() <= 4.0, "Welch z = {z}");
    }

    #[test]
    fn base_case_ddf_rates_agree_between_engines() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let sims = 1_500;
        let (ddf_a, _) = run_many(&TimelineEngine::new(), &cfg, sims, 5);
        let (ddf_b, _) = run_many(&DesEngine::new(), &cfg, sims, 6);
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
        let mut session = engine.session_tuned(&cfg, BiasPolicy::None, SessionTuning::default());
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
        let scalar_tuning = SessionTuning { block_draws: false };
        let (mut no_failures, mut exact_fill, mut mid_block) = (0, 0, 0);
        for cfg in [&oponly, &base] {
            let mut prefetched = TimelineSession::new(
                cfg,
                BiasPolicy::None,
                SessionTuning::default(),
                &mut KernelCache::new(),
            );
            let mut scalar = TimelineSession::new(
                cfg,
                BiasPolicy::None,
                scalar_tuning,
                &mut KernelCache::new(),
            );
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
    fn failure_free_groups_seed_latent_chains_only_under_a_latent_tilt() {
        // A group without failures observes no latent state, so plain
        // sessions draw one TTOp word per slot and nothing else; under a
        // latent tilt the chains are still seeded and walked, because
        // their draws carry the group's weight.
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let n = cfg.drives as u64;
        let tilt = BiasPolicy::HazardTilt {
            op_theta: 0.0,
            latent_theta: 0.6,
        };
        let open = |bias| {
            TimelineSession::new(
                &cfg,
                bias,
                SessionTuning::default(),
                &mut KernelCache::new(),
            )
        };
        let (mut plain, mut tilted) = (open(BiasPolicy::None), open(tilt));
        let mut failure_free = 0;
        for seed in 0..200 {
            let before = (plain.counters(), tilted.counters());
            let h = plain.simulate_group(&mut stream(seed, 0)).clone();
            let t = tilted.simulate_group(&mut stream(seed, 0)).clone();
            // The op phase does not depend on the latent tilt.
            assert_eq!(h.op_failures, t.op_failures, "seed {seed}");
            if h.op_failures > 0 {
                continue;
            }
            failure_free += 1;
            assert_eq!(plain.counters().samples_drawn - before.0.samples_drawn, n);
            assert_eq!(h.log_weight, 0.0);
            assert_eq!((h.latent_defects, h.scrubs_completed), (0, 0));
            let drawn = tilted.counters().samples_drawn - before.1.samples_drawn;
            assert!(
                drawn >= 3 * n,
                "seed {seed}: {drawn} draws, no latent seeds"
            );
            assert_ne!(
                t.log_weight, 0.0,
                "seed {seed}: the tilted seeds' weight is lost"
            );
            assert_eq!((t.latent_defects, t.scrubs_completed), (0, 0));
        }
        assert!(failure_free > 20, "only {failure_free} failure-free groups");
    }

    #[test]
    fn a_shared_op_phase_reproduces_the_memo_path() {
        // Rungs of a scrub ladder share their TTOp and TTR trees, so
        // the later ones read the first's operational phase from the
        // share; a rung with its own TTOp tree computes its own. Each
        // history, and every counter but `scratch_grows`, is what the
        // rung's session returns from the memo with a share of its own.
        use raidsim_dists::Weibull3;
        use raidsim_hdd::scrub::ScrubPolicy;
        let base = RaidGroupConfig::paper_base_case().unwrap();
        let rung = |hours: f64| {
            base.clone()
                .with_scrub_policy(ScrubPolicy::with_characteristic_hours(hours))
                .unwrap()
        };
        let mut other_ttop = rung(48.0);
        other_ttop.dists.ttop = Arc::new(Weibull3::two_param(461_386.0, 0.9).unwrap());
        let cfgs = [rung(336.0), other_ttop, rung(48.0), rung(12.0)];
        // Without block draws no TTOp draw is cut, so only the TTOp
        // tree tells the second rung's phase from the first's.
        for block_draws in [true, false] {
            let tuning = SessionTuning { block_draws };
            let mut kernels = KernelCache::new();
            let mut open = || -> Vec<TimelineSession> {
                cfgs.iter()
                    .map(|cfg| TimelineSession::new(cfg, BiasPolicy::None, tuning, &mut kernels))
                    .collect()
            };
            let (mut bundled, mut alone) = (open(), open());
            let (mut memo, mut share) = (DrawMemo::new(), BundleShare::new());
            for group in 0..300 {
                memo.begin(stream(13, group));
                for (k, (b, a)) in bundled.iter_mut().zip(&mut alone).enumerate() {
                    let want = a
                        .simulate_group_memo(&mut memo, &mut BundleShare::new())
                        .clone();
                    let got = b.simulate_group_memo(&mut memo, &mut share);
                    assert_eq!(got, &want, "rung {k}, group {group}, {tuning:?}");
                }
            }
            for (b, a) in bundled.iter().zip(&alone) {
                let (mut b, mut a) = (b.counters(), a.counters());
                (b.scratch_grows, a.scratch_grows) = (0, 0);
                assert_eq!(b, a);
            }
        }
    }

    /// Rungs in bundle order: the 48 h rung reads the 336 h rung's
    /// seeds, and the 720 h rung the 168 h rung's across three rungs that
    /// seed draw by draw (a latent tilt, no scrub, a capped scrub); each
    /// other rung differs from the seeds in the share in one part of
    /// its identity — its own TTOp (its seeds start at another word),
    /// TTScrub exponent or TTLd.
    fn seed_identity_rungs() -> Vec<(RaidGroupConfig, BiasPolicy)> {
        use raidsim_dists::Weibull3;
        use raidsim_hdd::scrub::ScrubPolicy;
        let base = RaidGroupConfig::paper_base_case().unwrap();
        let with = |policy| base.clone().with_scrub_policy(policy).unwrap();
        let rung = |hours| with(ScrubPolicy::with_characteristic_hours(hours));
        let mut own_ttop = rung(336.0);
        own_ttop.dists.ttop = Arc::new(Weibull3::two_param(461_386.0, 0.9).unwrap());
        let mut own_ttld = rung(168.0);
        own_ttld.dists.ttld = Some(Arc::new(Weibull3::two_param(4_000.0, 1.0).unwrap()));
        let mut own_shape = rung(168.0);
        own_shape.dists.ttscrub = Some(Arc::new(Weibull3::new(6.0, 168.0, 2.0).unwrap()));
        let capped = with(ScrubPolicy::Background {
            min_hours: 6.0,
            characteristic_hours: 168.0,
            max_hours: Some(150.0),
        });
        let tilt = BiasPolicy::HazardTilt {
            op_theta: 0.0,
            latent_theta: 0.6,
        };
        let none = BiasPolicy::None;
        vec![
            (rung(336.0), none),
            (rung(48.0), none),
            (own_ttop, none),
            (rung(12.0), none),
            (own_shape, none),
            (own_ttld, none),
            (rung(168.0), none),
            (rung(24.0), tilt),
            (with(ScrubPolicy::Disabled), none),
            (capped, none),
            (rung(720.0), none),
        ]
    }

    #[test]
    fn shared_latent_seeds_reproduce_the_scalar_path() {
        // Every rung of one bundle reads the group from one memo and
        // one share, in bundle order, and must return what its session
        // returns from the group's own stream — a path that shares
        // nothing — with every counter but `scratch_grows` equal.
        let rungs = seed_identity_rungs();
        for block_draws in [true, false] {
            let tuning = SessionTuning { block_draws };
            let mut kernels = KernelCache::new();
            let mut open = || -> Vec<TimelineSession> {
                rungs
                    .iter()
                    .map(|(cfg, bias)| TimelineSession::new(cfg, *bias, tuning, &mut kernels))
                    .collect()
            };
            let (mut bundled, mut alone) = (open(), open());
            let shared = bundled
                .iter()
                .filter(|s| s.latent.seed_spec.is_some())
                .count();
            assert_eq!(shared, 8, "rungs that share seeds");
            let (mut memo, mut share) = (DrawMemo::new(), BundleShare::new());
            for group in 0..300 {
                memo.begin(stream(17, group));
                for (k, (b, a)) in bundled.iter_mut().zip(&mut alone).enumerate() {
                    let want = a.simulate_group(&mut memo.start().clone()).clone();
                    let got = b.simulate_group_memo(&mut memo, &mut share);
                    assert_eq!(got, &want, "rung {k}, group {group}, {tuning:?}");
                }
            }
            for (k, (b, a)) in bundled.iter().zip(&alone).enumerate() {
                let (mut b, mut a) = (b.counters(), a.counters());
                (b.scratch_grows, a.scratch_grows) = (0, 0);
                assert_eq!(b, a, "rung {k}, {tuning:?}");
            }
        }
    }

    /// A raw xoshiro stream whose second word is 0 (`u = 0`, `e = 0`):
    /// with `s[0] = 0` and `s[3] = s[1]`, the first output
    /// `rotl(s[0] + s[3], 23) + s[0]` is nonzero and the second is 0.
    fn second_word_zero(s1: u64, s2: u64) -> SimRng {
        use rand::SeedableRng;
        let s1 = s1 | 1;
        let mut seed = [0u8; 32];
        for (chunk, word) in seed.chunks_exact_mut(8).zip([0, s1, s2, s1]) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        SimRng::from_seed(seed)
    }

    #[test]
    fn a_zero_scrub_word_finishes_its_shared_seed_at_the_scrub_location() {
        // Slot 0's scrub word is the memo's second word. Its `e` lane
        // is 0, so `sample_memo` returns TTScrub's γ without a power,
        // and the shared seed must give the chain that clear time too.
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let n = cfg.drives;
        let mut session = TimelineSession::new(
            &cfg,
            BiasPolicy::None,
            SessionTuning::default(),
            &mut KernelCache::new(),
        );
        let spec = session
            .latent
            .seed_spec
            .expect("the base case shares seeds");
        let (ttld, ttscrub) = (
            session.latent.ttld.clone().unwrap(),
            session.latent.ttscrub.clone().unwrap(),
        );
        let op = OpPhase {
            slots: n,
            timelines: vec![Vec::new(); n],
            ..OpPhase::default()
        };
        for (s1, s2) in [(3, 5), (0x9e37_79b9_7f4a_7c15, 7), (u64::MAX, u64::MAX)] {
            let mut memo = DrawMemo::new();
            memo.begin(second_word_zero(s1, s2));
            assert_eq!(memo.reader_at(1).next_u64(), 0, "the second word is 0");
            // Seeded draw by draw, as a session outside a bundle does.
            let (mut samples, mut log_weight) = (0, 0.0);
            let mut reader = memo.reader();
            let want: Vec<LdChain> = (0..n)
                .map(|_| {
                    LdChain::new(
                        Some(&ttld),
                        Some(&ttscrub),
                        None,
                        &mut samples,
                        &mut log_weight,
                        &mut reader,
                    )
                })
                .collect();
            let (gamma, _, _) = spec.scrub;
            assert_eq!(
                want[0].clear_at.to_bits(),
                (want[0].defect_at + gamma).to_bits(),
                "sample_memo's γ branch"
            );
            let mut shared = SharedSeeds::default();
            let (seeds, _) = shared.get(memo.generation(), spec.identity(0, n), &ttld, &mut memo);
            assert_eq!(seeds[0].1, None, "slot 0's scrub word has e = 0");
            session.latent.seed_shared(&op, spec, seeds);
            for (j, (got, want)) in session.latent.chains.iter().zip(&want).enumerate() {
                assert_eq!(
                    (got.defect_at.to_bits(), got.clear_at.to_bits()),
                    (want.defect_at.to_bits(), want.clear_at.to_bits()),
                    "slot {j}"
                );
            }
            assert_eq!(samples, 2 * n as u64);
        }
    }

    #[test]
    fn engine_names_differ() {
        assert_ne!(TimelineEngine::new().name(), DesEngine::new().name());
    }
}
