use super::ddf::{self, SlotCondition};
use super::{draw, BiasPolicy, Engine, EngineCounters, EngineSession, SessionTuning};
use crate::config::{RaidGroupConfig, Redundancy, SparePolicy};
use crate::events::{DdfEvent, GroupHistory};
use raidsim_dists::kernel::{DrawSource, Forcing, Tilt, NO_CUT};
use raidsim_dists::rng::{DrawCursor, SimRng};
use raidsim_dists::{KernelCache, SampleKernel};

/// Tracks the on-site spare pool for [`SparePolicy::Finite`].
///
/// Availability times are kept in a min-heap keyed on the IEEE-754 bit
/// pattern: for non-negative finite `f64` (which all pool times are —
/// see the `debug_assert!` in [`Self::acquire`]) the `u64` bit pattern
/// orders identically to `f64::total_cmp`, so the earliest spare pops
/// in O(log pool) without any float comparison at all. The previous
/// implementation rescanned the whole pool (O(pool)) on every failure.
#[derive(Debug)]
struct SparePool {
    /// Min-heap of times at which spares are (or become) available,
    /// keyed on `f64::to_bits`.
    available_at: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    replenish_hours: f64,
    /// Configured pool size, kept so [`Self::reset`] can refill.
    pool_size: usize,
}

impl SparePool {
    /// Builds a pool for the policy, or `None` when spares are always
    /// on hand. All validation happens here, once, so [`Self::acquire`]
    /// stays panic-free on the hot path.
    ///
    /// # Panics
    ///
    /// Panics on an empty pool or a non-finite/negative replenish time
    /// — conditions [`RaidGroupConfig::validate`] already rejects.
    fn new(policy: SparePolicy) -> Option<Self> {
        match policy {
            SparePolicy::AlwaysAvailable => None,
            SparePolicy::Finite {
                pool,
                replenish_hours,
            } => {
                assert!(pool > 0, "spare pool must hold at least one spare");
                assert!(
                    replenish_hours.is_finite() && replenish_hours >= 0.0,
                    "replenish time must be finite and non-negative, got {replenish_hours}"
                );
                Some(Self {
                    available_at: std::iter::repeat_n(
                        std::cmp::Reverse(0.0f64.to_bits()),
                        pool as usize,
                    )
                    .collect(),
                    replenish_hours,
                    pool_size: pool as usize,
                })
            }
        }
    }

    /// Returns the pool to its fresh state (every spare on hand at
    /// t = 0) without releasing the heap's allocation, so a session can
    /// reuse it across groups.
    fn reset(&mut self) {
        self.available_at.clear();
        for _ in 0..self.pool_size {
            self.available_at.push(std::cmp::Reverse(0.0f64.to_bits()));
        }
    }

    /// Consumes the earliest-available spare for a failure at time `t`;
    /// returns when reconstruction can start (≥ `t`). A reorder for
    /// the consumed spare arrives `replenish_hours` after the start.
    fn acquire(&mut self, t: f64) -> f64 {
        debug_assert!(
            t.is_finite() && t >= 0.0,
            "failure time must be finite and non-negative, got {t}"
        );
        // The pool is validated non-empty at construction and every pop
        // is matched by a push below, so the heap is never empty.
        let std::cmp::Reverse(bits) = self
            .available_at
            .pop()
            .expect("spare pool is never empty between acquisitions");
        let start = f64::from_bits(bits).max(t);
        let next = start + self.replenish_hours;
        // Bit-pattern ordering requires non-negative times; the sign
        // bit being clear is exactly that.
        debug_assert!(
            next.is_finite() && next.to_bits() >> 63 == 0,
            "spare availability time must stay finite and non-negative, got {next}"
        );
        self.available_at.push(std::cmp::Reverse(next.to_bits()));
        start
    }
}

/// Discrete-event simulation engine.
///
/// Every slot carries two tiny state machines — the operational
/// (up/down) and latent-defect (clean/defective) renewal processes —
/// each exposing the time of its next event. Events fire in
/// `(time, slot, operational-before-latent)` order until every next
/// event lies beyond the mission. The loop is two-level: each outer
/// iteration finds the earliest operational event, and an inner loop
/// first fires every latent event that precedes it, scanning the latent
/// clocks alone (see `DesState::run_events`).
///
/// Sampling is lazy: a slot's next time-to-failure is drawn only when
/// the previous period ends, exactly mirroring the sequential sampling
/// of the paper's Section 5 but organized as an event loop rather than
/// pairwise timeline comparisons (see [`super::TimelineEngine`] for the
/// paper's own organization; the two must agree statistically).
#[derive(Debug, Clone, Copy, Default)]
pub struct DesEngine;

impl DesEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        DesEngine
    }
}

/// Per-slot simulation state.
#[derive(Debug, Clone)]
struct Slot {
    /// `true` if the drive is up (next op event is a failure); `false`
    /// if down (next op event is its restore completion).
    up: bool,
    /// Install time of the drive currently in the slot (`0.0` for the
    /// initial population, the restore-completion time thereafter).
    /// Gives the drive's age, which the critical-boundary forcing
    /// needs to resample its remaining lifetime conditionally.
    born_at: f64,
    /// Time of the drive's most recent forced resample
    /// (`NEG_INFINITY` when never forced). A drive whose previous
    /// forcing window still covers the present is skipped by later
    /// triggers — the refractory rule in [`DesState::force_critical`].
    forced_at: f64,
    /// Time of the next operational-process event.
    next_op: f64,
    /// `true` if an uncorrected latent defect exists.
    defective: bool,
    /// Time of the next latent-defect-process event (defect creation
    /// when clean, correction when defective). `INFINITY` when the
    /// process is disabled or the defect will never be scrubbed.
    next_ld: f64,
    /// When the current defect clears because of a DDF-triggered
    /// restoration rather than a scrub (so it must not count as a
    /// scrub completion).
    clear_is_restore: bool,
}

/// Persistent per-worker session for [`DesEngine`].
///
/// Owns the simulation state ([`DesState`]) and, under block tuning,
/// the prefetching [`DrawCursor`] every event-loop draw reads through.
/// The event-processing code in [`DesState`] is the *only*
/// implementation of the DES semantics, generic over where its words
/// come from — the stateless [`Engine::simulate_group`] entry point
/// delegates here through a throwaway session, and the scalar tuning
/// runs the same loop straight off the caller's RNG, which makes both
/// bit-identities structural rather than merely tested.
#[derive(Debug)]
struct DesSession {
    state: DesState,
    /// `Some` under block tuning: the event loop draws through this
    /// cursor, which [`DrawCursor::finish`] rewinds so the caller's RNG
    /// ends where the scalar path leaves it. `None` is the cursor-free
    /// scalar path, kept as the equivalence tests' oracle.
    prefetch: Option<DrawCursor>,
}

/// Everything a [`DesSession`] owns except its draw cursor, split out
/// so the event loop can borrow both at once.
///
/// Holds the sampling kernels lowered once from the configuration's
/// distributions plus every piece of per-group scratch (slot vector,
/// spare pool, output history), so the group loop performs no heap
/// allocation in the steady state.
#[derive(Debug)]
struct DesState {
    n: usize,
    mission: f64,
    redundancy: Redundancy,
    defect_reset: bool,
    ttop: SampleKernel,
    ttr: SampleKernel,
    ttld: Option<SampleKernel>,
    ttscrub: Option<SampleKernel>,
    /// Importance-sampling tilt on TTOp draws; `None` leaves the
    /// measure unchanged (and the draws bit-identical).
    op_tilt: Option<Tilt>,
    /// Importance-sampling tilt on TTLd draws.
    latent_tilt: Option<Tilt>,
    /// Critical-boundary forcing `(warp, window hours)`; `None` leaves
    /// the event loop untouched (and the draws bit-identical).
    force: Option<(Forcing, f64)>,
    /// Per-group cap on forced redraws, sized so the accumulated
    /// positive log-weight stays within the exact fixed-point range of
    /// the weighted statistics (see [`force_budget_for`]).
    force_budget_full: u32,
    slots: Vec<Slot>,
    spares: Option<SparePool>,
    history: GroupHistory,
    /// High-water mark of `history.ddfs` capacity, for `scratch_grows`.
    ddfs_cap: usize,
    counters: EngineCounters,
    /// Horizon cut for the mission-start TTOp draws
    /// ([`SampleKernel::horizon_cut`] at the mission under block tuning
    /// with untilted TTOp draws; [`NO_CUT`] otherwise). A pending
    /// failure beyond the mission either loses to an event time
    /// `≤ mission` (in the operational scan, as the latent stretch's
    /// bound, and as `<= t` in `force_critical`) or is met only once
    /// every pending event lies beyond the mission and the group ends,
    /// so it may read any other value beyond the mission instead.
    op_cut: f64,
}

impl DesSession {
    fn new(
        cfg: &RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Self {
        DesSession {
            state: DesState::new(cfg, bias, tuning, kernels),
            prefetch: tuning.block_draws.then(DrawCursor::new),
        }
    }
}

impl DesState {
    fn new(
        cfg: &RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Self {
        let dists = &cfg.dists;
        let ttop = kernels.lower(&dists.ttop);
        let op_tilt = bias.op_tilt();
        let op_cut = if tuning.block_draws && op_tilt.is_none() {
            ttop.horizon_cut(cfg.mission_hours)
        } else {
            NO_CUT
        };
        Self {
            n: cfg.drives,
            mission: cfg.mission_hours,
            redundancy: cfg.redundancy,
            defect_reset: cfg.defect_reset_on_replacement,
            ttop,
            ttr: kernels.lower(&dists.ttr),
            ttld: dists.ttld.as_ref().map(|d| kernels.lower(d)),
            ttscrub: dists.ttscrub.as_ref().map(|d| kernels.lower(d)),
            op_tilt,
            latent_tilt: bias.latent_tilt(),
            force: bias.forced_critical(),
            force_budget_full: bias
                .forced_critical()
                .map_or(0, |(f, _)| force_budget_for(f)),
            slots: Vec::with_capacity(cfg.drives),
            spares: SparePool::new(cfg.spares),
            history: GroupHistory::default(),
            ddfs_cap: 0,
            counters: EngineCounters::default(),
            op_cut,
        }
    }

    /// Resamples every surviving clean drive's pending failure time if
    /// the group sits at (or beyond) the critical boundary — one more
    /// clean-drive failure causes a DDF — forcing the redraws into the
    /// policy window. Called after each degrading event (operational
    /// failure or defect exposure), so a sojourn that deepens re-forces
    /// with a fresh window and the f-paths that lose data stay covered
    /// by forced windows; `budget` caps forced draws per group so the
    /// accumulated positive log-weight stays within the exact
    /// fixed-point range of the weighted statistics.
    ///
    /// Discarding a pending failure time and redrawing from its
    /// conditional distribution given survival to `t` is
    /// measure-preserving: the event loop has used the pending value
    /// only through the fact that it has not yet occurred (every
    /// earlier event was selected as a strict minimum over it), which
    /// is exactly the conditioning event. A later re-trigger may
    /// discard a previously forced value the same way; its accumulated
    /// log-ratio stays in the weight, because the original measure is
    /// equivalently described as resampling the *true* conditional on
    /// the identical (history-measurable) schedule. Slots whose pending
    /// time ties `t` are skipped so atom-carrying lifetime
    /// distributions stay correct under the strict conditioning.
    fn force_critical<R: DrawSource>(
        &mut self,
        t: f64,
        ddf_block_until: f64,
        budget: &mut u32,
        rng: &mut R,
    ) {
        let Some((forcing, window)) = self.force else {
            return;
        };
        // Inside a post-DDF blocking window no failure can be recorded
        // (rule 5): forcing there would spend budget and weight noise
        // on paths that cannot contribute.
        if *budget == 0 || t < ddf_block_until {
            return;
        }
        // Once the group has recorded a DDF it has already contributed
        // the estimator mass the forcing exists to capture; further
        // forcing would boost the far rarer multi-DDF tail at the cost
        // of extra weight churn and simulated restore work. Like the
        // other trigger conditions this depends only on the recorded
        // history, never on pending draws, so it is just a (coarser)
        // choice of proposal measure.
        if !self.history.ddfs.is_empty() {
            return;
        }
        let tolerated = self.redundancy.tolerated();
        let non_clean = self.slots.iter().filter(|s| !s.up || s.defective).count();
        if non_clean < tolerated {
            return;
        }
        let ttop = &self.ttop;
        let log_weight = &mut self.history.log_weight;
        for s in self.slots.iter_mut() {
            if *budget == 0 {
                return;
            }
            if !s.up || s.defective || s.next_op <= t {
                continue;
            }
            // Refractory rule: a drive forced less than one window ago
            // still has a live forcing window covering the present, so
            // resampling it would discard a boosted draw (and spend
            // budget and weight noise) for no extra coverage. The skip
            // depends only on trigger *times* — history-measurable —
            // never on the pending value, so the per-drive conditional
            // resampling argument above is untouched: skipped drives
            // simply keep the measure their last forcing installed.
            if t - s.forced_at < window {
                continue;
            }
            *budget -= 1;
            self.counters.samples_drawn += 1;
            let age = t - s.born_at;
            let residual = ttop.sample_conditional_forced(age, window, forcing, log_weight, rng);
            s.next_op = t + residual;
            s.forced_at = t;
        }
    }
}

/// Per-group cap on forced conditional redraws for a given warp. Each
/// forced draw adds at most `ln(1/(1 − fraction))` to the group's
/// log-weight (only misses add weight; hits subtract), so capping the
/// draw count at `19 / ln(1/(1 − fraction))` bounds the positive
/// excursion by 19 nats — under the `≈ 22.2` ceiling the fixed-point
/// weight encoding of `StreamStats` can represent. The 512 cap bounds
/// worst-case work per group for very mild fractions.
fn force_budget_for(forcing: Forcing) -> u32 {
    let per_miss = -(1.0 - forcing.fraction()).ln();
    ((19.0 / per_miss) as u32).min(512)
}

impl EngineSession for DesSession {
    fn simulate_group(&mut self, rng: &mut SimRng) -> &GroupHistory {
        let state = &mut self.state;
        state.start_group(rng);
        match self.prefetch.as_mut() {
            Some(cursor) => {
                cursor.begin(rng);
                state.run_events(cursor);
                cursor.finish(rng);
            }
            None => state.run_events(rng),
        }
        &self.state.history
    }

    fn counters(&self) -> EngineCounters {
        self.state.counters
    }
}

impl DesState {
    /// Resets the per-group scratch and draws every slot's initial
    /// lifetimes straight from `rng`, before any cursor begins.
    fn start_group(&mut self, rng: &mut SimRng) {
        // Reset the scratch: clear-and-refill keeps every allocation.
        self.history.ddfs.clear();
        self.history.op_failures = 0;
        self.history.latent_defects = 0;
        self.history.scrubs_completed = 0;
        self.history.restores_completed = 0;
        self.history.downtime_hours = 0.0;
        self.history.log_weight = 0.0;
        if let Some(pool) = self.spares.as_mut() {
            pool.reset();
        }
        self.slots.clear();
        for _ in 0..self.n {
            // Sampling order per slot (ttop then ttld) matches the
            // original collect-based construction bit for bit. An
            // untilted TTOp draw past the horizon cut reads
            // `BEYOND_HORIZON`: dead, like the lifetime it stands for.
            self.counters.samples_drawn += 1;
            let next_op = match self.op_tilt {
                None => rng.plain_cut(&self.ttop, self.op_cut),
                Some(_) => draw(&self.ttop, self.op_tilt, &mut self.history.log_weight, rng),
            };
            let next_ld = match &self.ttld {
                Some(d) => {
                    self.counters.samples_drawn += 1;
                    draw(d, self.latent_tilt, &mut self.history.log_weight, rng)
                }
                None => f64::INFINITY,
            };
            self.slots.push(Slot {
                up: true,
                born_at: 0.0,
                forced_at: f64::NEG_INFINITY,
                next_op,
                defective: false,
                next_ld,
                clear_is_restore: false,
            });
        }
    }

    /// Runs the event loop to the end of the mission, drawing every
    /// lazy lifetime from `rng`.
    ///
    /// Events fire in `(time, slot, operational-before-latent)` order.
    /// The loop is two-level because latent events (defect creations
    /// and scrub completions) outnumber operational ones ~60:1 in the
    /// paper's base case and never move an operational clock: each
    /// outer iteration scans `next_op` once for the earliest
    /// operational event, then an inner loop fires every latent event
    /// that precedes it, scanning `next_ld` alone. A forced redraw
    /// after a defect creation rewrites `next_op`, so it restarts the
    /// outer scan.
    fn run_events<R: DrawSource>(&mut self, rng: &mut R) {
        let mission = self.mission;
        let ld_enabled = self.ttld.is_some();
        // Rule 5: no DDF can be recorded before this time.
        let mut ddf_block_until = 0.0f64;
        // Forced-redraw budget for this group (see `force_critical`).
        let mut force_budget = self.force_budget_full;

        'group: loop {
            let (t, idx) = earliest(&self.slots, |s| s.next_op);
            // The latent-only stretch before operational event `(t,
            // idx)`. A latent event at the same time precedes it only
            // from an earlier slot: the single scan over both clocks
            // visits slot by slot, operational before latent.
            if ld_enabled {
                loop {
                    let (t_ld, j) = earliest(&self.slots, |s| s.next_ld);
                    if !(t_ld < t || (t_ld == t && j < idx)) {
                        break;
                    }
                    if t_ld > mission {
                        break 'group;
                    }
                    debug_assert!(t_ld.is_finite(), "event time must be finite, got {t_ld}");
                    self.counters.events += 1;
                    if self.latent_event(t_ld, j, rng) && self.force.is_some() {
                        // The exposure may have put the group on the
                        // critical boundary; a forced redraw moves the
                        // operational clocks, so rescan them.
                        self.force_critical(t_ld, ddf_block_until, &mut force_budget, rng);
                        continue 'group;
                    }
                }
            }
            if t > mission {
                break;
            }
            debug_assert!(t.is_finite(), "event time must be finite, got {t}");
            self.counters.events += 1;

            if self.slots[idx].up {
                // Operational failure. Reconstruction starts when a
                // spare is on hand ("the delay time to physically
                // incorporate the spare HDD", Section 4.2).
                self.history.op_failures += 1;
                let start = match self.spares.as_mut() {
                    Some(pool) => pool.acquire(t),
                    None => t,
                };
                self.counters.samples_drawn += 1;
                let restore_at = start + rng.plain(&self.ttr);
                debug_assert!(
                    restore_at.is_finite(),
                    "restore time must be finite, got {restore_at}"
                );
                // Drive-hours down within the mission window.
                self.history.downtime_hours += restore_at.min(mission) - t;

                // Evaluate the DDF rules against the rest of the
                // group (rule 5: only outside the blocking window).
                if t >= ddf_block_until {
                    let others = self
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != idx)
                        .map(|(_, s)| {
                            if !s.up {
                                SlotCondition::Down
                            } else if s.defective {
                                SlotCondition::Defective
                            } else {
                                SlotCondition::Clean
                            }
                        });
                    let verdict = ddf::check(others, self.redundancy);
                    if let Some(kind) = verdict.ddf {
                        self.history.ddfs.push(DdfEvent { time: t, kind });
                        ddf_block_until = restore_at;
                        // Defective participants are rebuilt along
                        // with the failed drive ("the TTR for the
                        // failure is the same as the concomitant
                        // operational failure time", Section 5):
                        // their defect clears at this restoration.
                        for (j, s) in self.slots.iter_mut().enumerate() {
                            if j != idx && s.up && s.defective {
                                s.next_ld = restore_at;
                                s.clear_is_restore = true;
                            }
                        }
                    }
                }

                // The failed drive goes down. Its own defect (if
                // any) dies with it; the drive counts as Down, not
                // Defective, until restored (rule 6).
                let defect_reset = self.defect_reset;
                let s = &mut self.slots[idx];
                s.up = false;
                s.next_op = restore_at;
                if s.defective {
                    s.defective = false;
                    // The pending scrub completion is moot.
                    s.next_ld = if defect_reset {
                        f64::INFINITY // re-armed at restore below
                    } else {
                        match &self.ttld {
                            Some(d) => {
                                self.counters.samples_drawn += 1;
                                restore_at
                                    + draw(d, self.latent_tilt, &mut self.history.log_weight, rng)
                            }
                            None => f64::INFINITY,
                        }
                    };
                    s.clear_is_restore = false;
                } else if defect_reset && ld_enabled {
                    // Freeze the pending defect-creation clock; a
                    // fresh drive gets a fresh clock at restore.
                    s.next_ld = f64::INFINITY;
                }
                // The failure may have put the group on the
                // critical boundary.
                self.force_critical(t, ddf_block_until, &mut force_budget, rng);
            } else {
                // Restore completion: new drive, fresh clocks.
                self.history.restores_completed += 1;
                self.counters.samples_drawn += 1;
                let next_op = t + draw(&self.ttop, self.op_tilt, &mut self.history.log_weight, rng);
                let defect_reset = self.defect_reset;
                let s = &mut self.slots[idx];
                s.up = true;
                s.born_at = t;
                s.forced_at = f64::NEG_INFINITY;
                s.next_op = next_op;
                if defect_reset && ld_enabled {
                    s.defective = false;
                    s.next_ld = match &self.ttld {
                        Some(d) => {
                            self.counters.samples_drawn += 1;
                            t + draw(d, self.latent_tilt, &mut self.history.log_weight, rng)
                        }
                        None => f64::INFINITY,
                    };
                    s.clear_is_restore = false;
                }
            }
        }

        self.counters.groups += 1;
        if self.history.ddfs.capacity() > self.ddfs_cap {
            self.ddfs_cap = self.history.ddfs.capacity();
            self.counters.scratch_grows += 1;
        }
    }

    /// Fires slot `j`'s latent event at time `t`: a scrub (or
    /// DDF-triggered restoration) clears its defect and redraws TTLd,
    /// or a defect appears and draws its TTScrub. Returns `true` for a
    /// defect creation — the exposure that may need forcing.
    fn latent_event<R: DrawSource>(&mut self, t: f64, j: usize, rng: &mut R) -> bool {
        let s = &mut self.slots[j];
        if s.defective {
            // Defect corrected (by scrub, or by a DDF-triggered
            // restoration).
            s.defective = false;
            if s.clear_is_restore {
                s.clear_is_restore = false;
            } else {
                self.history.scrubs_completed += 1;
            }
            s.next_ld = match &self.ttld {
                Some(d) => {
                    self.counters.samples_drawn += 1;
                    t + draw(d, self.latent_tilt, &mut self.history.log_weight, rng)
                }
                None => f64::INFINITY,
            };
            false
        } else {
            // Latent defect created.
            self.history.latent_defects += 1;
            s.defective = true;
            s.next_ld = match &self.ttscrub {
                Some(d) => {
                    self.counters.samples_drawn += 1;
                    t + rng.plain(d)
                }
                None => f64::INFINITY, // never scrubbed
            };
            true
        }
    }
}

/// The earliest `clock` over `slots` and its slot index, the first
/// slot winning ties; `(INFINITY, 0)` when every clock is infinite.
#[inline(always)]
fn earliest(slots: &[Slot], clock: impl Fn(&Slot) -> f64) -> (f64, usize) {
    let mut t = f64::INFINITY;
    let mut idx = 0;
    for (i, s) in slots.iter().enumerate() {
        if clock(s) < t {
            t = clock(s);
            idx = i;
        }
    }
    (t, idx)
}

impl Engine for DesEngine {
    fn simulate_group(&self, cfg: &RaidGroupConfig, rng: &mut SimRng) -> GroupHistory {
        DesSession::new(
            cfg,
            BiasPolicy::None,
            SessionTuning::default(),
            &mut KernelCache::new(),
        )
        .simulate_group(rng)
        .clone()
    }

    fn name(&self) -> &'static str {
        "discrete-event"
    }

    fn session_tuned_cached<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Box<dyn EngineSession + 'a> {
        Box::new(DesSession::new(cfg, bias, tuning, kernels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RaidGroupConfig, Redundancy, TransitionDistributions};
    use raidsim_dists::rng::stream;
    use raidsim_dists::{Exponential, Weibull3};
    use rand::Rng;
    use std::sync::Arc;

    fn run_one(cfg: &RaidGroupConfig, seed: u64) -> GroupHistory {
        let mut rng = stream(seed, 0);
        DesEngine::new().simulate_group(cfg, &mut rng)
    }

    #[test]
    fn no_latent_defects_means_no_latent_ddfs() {
        let cfg = RaidGroupConfig {
            dists: TransitionDistributions::weibull_both().unwrap(),
            ..RaidGroupConfig::paper_base_case().unwrap()
        };
        for seed in 0..50 {
            let h = run_one(&cfg, seed);
            assert_eq!(h.latent_defects, 0);
            assert!(h
                .ddfs
                .iter()
                .all(|e| e.kind == crate::events::DdfKind::DoubleOperational));
            h.assert_invariants(cfg.mission_hours);
        }
    }

    #[test]
    fn base_case_produces_latent_ddfs() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let mut total_ddfs = 0;
        let mut latent = 0;
        for seed in 0..300 {
            let h = run_one(&cfg, seed);
            h.assert_invariants(cfg.mission_hours);
            total_ddfs += h.ddf_count();
            latent += h
                .ddfs
                .iter()
                .filter(|e| e.kind == crate::events::DdfKind::LatentThenOperational)
                .count();
        }
        assert!(total_ddfs > 0, "base case must produce DDFs in 300 sims");
        // The latent pathway dominates (the paper's whole point).
        assert!(latent * 2 > total_ddfs, "latent = {latent} of {total_ddfs}");
    }

    #[test]
    fn no_scrub_produces_many_more_ddfs_than_base() {
        let base = RaidGroupConfig::paper_base_case().unwrap();
        let noscrub = RaidGroupConfig {
            dists: TransitionDistributions {
                ttscrub: None,
                ..TransitionDistributions::paper_base_case().unwrap()
            },
            ..RaidGroupConfig::paper_base_case().unwrap()
        };
        let mut base_ddfs = 0;
        let mut noscrub_ddfs = 0;
        for seed in 0..200 {
            base_ddfs += run_one(&base, seed).ddf_count();
            noscrub_ddfs += run_one(&noscrub, seed + 1_000_000).ddf_count();
        }
        assert!(
            noscrub_ddfs > 3 * base_ddfs.max(1),
            "no-scrub = {noscrub_ddfs}, base = {base_ddfs}"
        );
    }

    #[test]
    fn double_parity_slashes_ddfs() {
        let single = RaidGroupConfig::paper_base_case().unwrap();
        let double = RaidGroupConfig {
            redundancy: Redundancy::DoubleParity,
            ..RaidGroupConfig::paper_base_case().unwrap()
        };
        let mut s = 0;
        let mut d = 0;
        for seed in 0..300 {
            s += run_one(&single, seed).ddf_count();
            d += run_one(&double, seed).ddf_count();
        }
        assert!(d * 5 < s.max(5), "single = {s}, double = {d}");
    }

    #[test]
    fn ddfs_never_overlap_blocking_window() {
        // Stress config: fast failures, slow restores, so DDFs are
        // frequent and the rule-5 window matters.
        let cfg = RaidGroupConfig {
            drives: 8,
            redundancy: Redundancy::SingleParity,
            mission_hours: 10_000.0,
            dists: TransitionDistributions {
                ttop: Arc::new(Exponential::from_mean(500.0).unwrap()),
                ttr: Arc::new(Weibull3::new(24.0, 48.0, 2.0).unwrap()),
                ttld: None,
                ttscrub: None,
            },
            defect_reset_on_replacement: false,
            spares: crate::config::SparePolicy::AlwaysAvailable,
        };
        for seed in 0..100 {
            let h = run_one(&cfg, seed);
            h.assert_invariants(cfg.mission_hours);
            // Consecutive DDFs must be separated by at least the
            // minimum restore time (24 h location parameter).
            for w in h.ddfs.windows(2) {
                assert!(
                    w[1].time - w[0].time >= 24.0 - 1e-9,
                    "DDFs too close: {:?}",
                    w
                );
            }
        }
    }

    #[test]
    fn prefetched_group_leaves_the_rng_on_the_scalar_word() {
        // The init words come straight from the RNG before the cursor
        // begins, so only event-loop draws pass through it. Latent
        // defects off: groups draw 0, 2, 4, … event-loop words (a
        // restore and a replacement lifetime per failure), so the
        // refill schedule 2, 4, 8, … meets every ending below; the base
        // case adds long groups that span several full refills.
        let base = RaidGroupConfig::paper_base_case().unwrap();
        let oponly = RaidGroupConfig {
            dists: TransitionDistributions::weibull_both().unwrap(),
            ..base.clone()
        };
        let scalar_tuning = SessionTuning { block_draws: false };
        let (mut no_draws, mut exact_fill, mut mid_block) = (0, 0, 0);
        for cfg in [&oponly, &base] {
            let init_draws = (cfg.drives * if cfg.dists.ttld.is_some() { 2 } else { 1 }) as u64;
            let mut prefetched = DesSession::new(
                cfg,
                BiasPolicy::None,
                SessionTuning::default(),
                &mut KernelCache::new(),
            );
            let mut scalar = DesSession::new(
                cfg,
                BiasPolicy::None,
                scalar_tuning,
                &mut KernelCache::new(),
            );
            for seed in 0..200 {
                let mut a = stream(seed, 0);
                let mut b = stream(seed, 0);
                let drawn = prefetched.counters().samples_drawn;
                let history = prefetched.simulate_group(&mut a).clone();
                assert_eq!(&history, scalar.simulate_group(&mut b));
                assert_eq!(
                    a.next_u64(),
                    b.next_u64(),
                    "seed {seed}: the rewound RNG is off the scalar path's word"
                );
                let loop_draws = prefetched.counters().samples_drawn - drawn - init_draws;
                let pending = prefetched.prefetch.as_ref().map_or(0, DrawCursor::pending);
                match (loop_draws, pending) {
                    (0, _) => no_draws += 1,
                    (_, 0) => exact_fill += 1,
                    _ => mid_block += 1,
                }
            }
        }
        assert!(
            no_draws > 0 && exact_fill > 0 && mid_block > 0,
            "endings not all covered: {no_draws} without draws, \
             {exact_fill} exact fills, {mid_block} mid-block"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let a = run_one(&cfg, 7);
        let b = run_one(&cfg, 7);
        assert_eq!(a, b);
        let c = run_one(&cfg, 8);
        assert!(a != c || a.ddfs.is_empty()); // different seed, different path
    }

    #[test]
    fn counters_are_plausible_for_base_case() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let mut ops = 0;
        let mut lds = 0;
        let n = 200;
        for seed in 0..n {
            let h = run_one(&cfg, seed);
            ops += h.op_failures;
            lds += h.latent_defects;
        }
        // Expected op failures per group over 10 years ≈
        // 8 × (87600/461386)^1.12 ≈ 1.25.
        let ops_per_group = ops as f64 / n as f64;
        assert!(
            (ops_per_group - 1.25).abs() < 0.25,
            "ops/group = {ops_per_group}"
        );
        // Latent defects arrive at ~1.08e-4/h × 8 drives × 87,600 h ≈ 76.
        let lds_per_group = lds as f64 / n as f64;
        assert!(
            (lds_per_group - 75.7).abs() < 8.0,
            "lds/group = {lds_per_group}"
        );
    }

    #[test]
    fn scarce_spares_increase_ddfs() {
        // A single spare with a two-week reorder time stretches
        // reconstruction windows whenever failures cluster, so DDFs
        // can only go up relative to infinite spares.
        let plentiful = RaidGroupConfig::paper_base_case().unwrap();
        let scarce = RaidGroupConfig {
            spares: SparePolicy::Finite {
                pool: 1,
                replenish_hours: 336.0,
            },
            ..RaidGroupConfig::paper_base_case().unwrap()
        };
        let mut p = 0usize;
        let mut s = 0usize;
        for seed in 0..400 {
            p += run_one(&plentiful, seed).ddf_count();
            s += run_one(&scarce, seed).ddf_count();
        }
        assert!(s >= p, "scarce = {s}, plentiful = {p}");
    }

    #[test]
    fn generous_spare_pool_matches_always_available() {
        // With more spares than drives and same-day replenishment, the
        // pool never runs dry; results must be identical (the spare
        // acquisition consumes no randomness).
        let infinite = RaidGroupConfig::paper_base_case().unwrap();
        let generous = RaidGroupConfig {
            spares: SparePolicy::Finite {
                pool: 32,
                replenish_hours: 1.0,
            },
            ..RaidGroupConfig::paper_base_case().unwrap()
        };
        for seed in 0..50 {
            assert_eq!(run_one(&infinite, seed), run_one(&generous, seed));
        }
    }

    #[test]
    fn spare_pool_serializes_restarts_under_burst() {
        // Deterministic micro-check of the pool itself.
        let mut pool = SparePool::new(SparePolicy::Finite {
            pool: 1,
            replenish_hours: 100.0,
        })
        .unwrap();
        assert_eq!(pool.acquire(10.0), 10.0); // immediate
                                              // Next failure at 20: the reorder lands at 110.
        assert_eq!(pool.acquire(20.0), 110.0);
        // And the next at 500: pool has recovered by 210 < 500.
        assert_eq!(pool.acquire(500.0), 500.0);
    }

    #[test]
    fn spare_pool_heap_matches_linear_scan() {
        // Reference implementation: the O(pool) min-scan the heap
        // replaced. Over a long deterministic failure schedule on a
        // large pool the two must produce identical acquisition times.
        struct ScanPool {
            available_at: Vec<f64>,
            replenish_hours: f64,
        }
        impl ScanPool {
            fn acquire(&mut self, t: f64) -> f64 {
                let mut idx = 0;
                for i in 1..self.available_at.len() {
                    if self.available_at[i]
                        .total_cmp(&self.available_at[idx])
                        .is_lt()
                    {
                        idx = i;
                    }
                }
                let start = self.available_at[idx].max(t);
                self.available_at[idx] = start + self.replenish_hours;
                start
            }
        }
        let replenish_hours = 337.5;
        let mut heap = SparePool::new(SparePolicy::Finite {
            pool: 64,
            replenish_hours,
        })
        .unwrap();
        let mut scan = ScanPool {
            available_at: vec![0.0; 64],
            replenish_hours,
        };
        // Irregular, bursty schedule: long quiet stretches, clustered
        // bursts that drain the pool, and fractional times so ties and
        // rounding paths are exercised.
        let mut t = 0.0f64;
        for k in 0..5_000u64 {
            t += match k % 7 {
                0 => 0.0,   // simultaneous failure (tie on t)
                1 => 0.125, // burst
                2 => 0.125,
                3 => 41.75,
                4 => 3.0625,
                5 => 977.5, // quiet stretch, pool recovers
                _ => 0.5,
            };
            let a = heap.acquire(t);
            let b = scan.acquire(t);
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at failure {k}, t = {t}");
        }
    }

    #[test]
    fn defect_reset_mode_reduces_latent_exposure() {
        // With reset-on-replacement, defects pending on a replaced
        // drive vanish, so the DDF count cannot be higher than in the
        // paper-faithful mode (statistically).
        let faithful = RaidGroupConfig::paper_base_case().unwrap();
        let reset = RaidGroupConfig {
            defect_reset_on_replacement: true,
            ..RaidGroupConfig::paper_base_case().unwrap()
        };
        let mut f = 0usize;
        let mut r = 0usize;
        for seed in 0..400 {
            f += run_one(&faithful, seed).ddf_count();
            r += run_one(&reset, seed).ddf_count();
        }
        // Allow statistical noise but require no large increase.
        assert!(
            (r as f64) < (f as f64) * 1.3 + 10.0,
            "reset = {r}, faithful = {f}"
        );
    }
}
