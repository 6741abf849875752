//! Persistent worker pool behind the parallel batch runner.
//!
//! One pool is created per run — not per driver batch. Workers are
//! spawned once, each opens one [`crate::engine::EngineSession`] whose
//! scratch buffers and lowered sampling kernels live for the whole run,
//! and driver batches are dispatched to the pool as *epochs* over a
//! condition variable. The per-batch `thread::scope` spawn/join cycles
//! of the previous runner are replaced by an epoch handshake:
//!
//! 1. the coordinator publishes a job (a claim cursor over `[lo, hi)`
//!    plus the accumulation mode), bumps the epoch, and wakes every
//!    worker;
//! 2. workers drain the cursor, merge their local partials into the
//!    epoch accumulator, and check out;
//! 3. the coordinator sleeps until the last worker has checked out.
//!
//! The checkout of the last worker is the quiesce point: every index in
//! `[lo, hi)` has completed, so the finished set is still an exact
//! prefix of the group-index space at every batch boundary — the same
//! invariant the join barrier used to provide, which is what checkpoint
//! resume depends on (see [`crate::checkpoint`]).
//!
//! The handshake itself — every guarded decision listed above — is not
//! implemented here. It lives in [`crate::sync_model`] as pure
//! transitions on [`PoolCore`], which this module executes through the
//! [`SyncOps`] seam ([`StdSync`]: one mutex, two condvars) and which
//! the model checker executes under a virtual scheduler, exhaustively,
//! in `tests/pool_model.rs`. The split keeps exactly one copy of the
//! protocol: what is proved is what runs. This module adds only the
//! *data plane* — the claim cursor and the epoch accumulators — kept in
//! a second mutex ([`EpochData`]) that is never held while sleeping.
//! The two-lock split is safe because the data plane is only written by
//! the coordinator while no epoch is in flight (`active == 0`, before
//! publish / after quiesce) and by workers strictly before their own
//! guarded check-out, so the protocol's quiesce point orders every
//! access; the model checker verifies the ordering claims.
//!
//! Determinism is unchanged from the scoped runner: which worker
//! simulates a group cannot affect its history (per-group RNG streams),
//! [`StreamStats`] partials are exact-integer state that merges
//! bit-identically in any order, and collected histories are
//! reassembled in group-index order by the coordinator.
//!
//! Failure handling is *supervised* (see DESIGN.md §17):
//!
//! * In stream mode, a panic while simulating one group is caught and
//!   the group **quarantined**: its index still counts toward the
//!   completed watermark (so batch arithmetic and the prefix invariant
//!   hold) but its statistics are excluded, the session is reopened,
//!   and the run continues. Quarantined groups surface through
//!   [`BatchRunner::drain_quarantine`] and make the run unresumable.
//! * A panic that kills a whole worker (an observer callback, session
//!   construction, a collect-mode group) trips its
//!   [`SupervisionGuard`]: the worker's *unmerged* claimed ranges —
//!   all of them, because its private accumulator dies with it — are
//!   resubmitted through [`PoolCore::mark_lost`], and survivors pick
//!   them up at their guarded check-out ([`PoolCore::check_out`]
//!   refuses to let a worker leave while the queue is non-empty), so
//!   no interleaving can quiesce the epoch with work unserved.
//!   Aggregates stay bit-identical because per-group RNG streams make
//!   redone work reproduce the dead worker's results exactly. (The
//!   shared progress counter may over-count redone groups; it feeds
//!   progress display only, never batch arithmetic.)
//! * Losing the *last* worker degenerates to the unsupervised abort:
//!   the pool latches `panicked` and the coordinator re-raises at its
//!   quiesce wait instead of deadlocking.
//!
//! Lock poisoning is deliberately ignored (`PoisonError::into_inner`)
//! because every critical section leaves the shared state consistent on
//! its own.

use crate::config::RaidGroupConfig;
use crate::engine::{BiasPolicy, Engine, EngineCounters, EngineSession, SessionTuning};
use crate::events::{GroupHistory, QuarantinedGroup};
use crate::run::{
    panic_message, BatchCursor, BatchRunner, Progress, StreamObserver, PROGRESS_STRIDE,
};
use crate::stats::{SchedulerStats, StreamStats};
use crate::sync_model::{
    effective_claim, CheckOutcome, Cv, JobSpec, PoolCore, QuiescePoll, StdSync, SweepPoll, SyncOps,
    Wake, WorkerPoll,
};
use raidsim_dists::rng::stream;
use raidsim_dists::KernelCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Everything a pool worker needs, borrowed from the driving run.
pub(crate) struct PoolCtx<'a> {
    /// Engine shared by all workers (each opens its own session).
    pub engine: &'a dyn Engine,
    /// Configuration being simulated.
    pub cfg: &'a RaidGroupConfig,
    /// Sampling-measure change each worker session applies (see
    /// [`BiasPolicy`]); scheduling invariance is unaffected because
    /// every session applies the same policy to the same per-group
    /// streams.
    pub bias: BiasPolicy,
    /// Session tuning every worker session opens with; every tuning is
    /// bit-identical to the scalar path, so
    /// scheduling invariance is preserved.
    pub tuning: SessionTuning,
    /// Base seed; group `i` uses RNG stream `i`.
    pub seed: u64,
    /// Worker count (callers route `threads == 1` around the pool).
    pub threads: usize,
    /// Configured claim-batch size, clamped per epoch by
    /// [`effective_claim`].
    pub claim_batch: u64,
    /// Progress sink; called from worker threads.
    pub observer: &'a dyn StreamObserver,
    /// Global completed-group counter (absolute, survives across
    /// epochs; resumed runs start it at the checkpointed prefix).
    pub done: &'a AtomicU64,
    /// Target group count reported in progress callbacks.
    pub target: u64,
}

/// The data plane of one epoch: the claim cursor workers drain and the
/// accumulators they merge into. Guarded by its own mutex, held only
/// for short non-blocking sections (install, cursor hand-out, merge,
/// harvest) — all ordering between them is provided by the protocol in
/// [`PoolCore`], never by this lock.
struct EpochData {
    /// Cursor of the current epoch, `Some` from install to harvest.
    cursor: Option<Arc<BatchCursor>>,
    /// Stream-mode epoch accumulator (`None` in collect mode).
    stream_acc: Option<StreamStats>,
    /// Collect-mode epoch accumulator: `(start_index, histories)` per
    /// claimed batch, in arbitrary completion order.
    collect_acc: Vec<(u64, Vec<GroupHistory>)>,
    /// Stream-mode groups whose simulation panicked this epoch.
    quarantine: Vec<QuarantinedGroup>,
}

struct Shared {
    /// Protocol state + condvars; all blocking goes through here.
    sync: StdSync,
    /// Epoch data plane (see [`EpochData`]).
    data: Mutex<EpochData>,
}

fn lock_data(shared: &Shared) -> MutexGuard<'_, EpochData> {
    shared.data.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Requests worker shutdown when dropped, so the enclosing
/// `thread::scope` can join even if the driver body unwinds.
struct ShutdownOnDrop<'a>(&'a StdSync);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        let wake = self.0.guarded(PoolCore::request_shutdown);
        self.0.wake(wake);
    }
}

/// Supervises one worker: tracks what the pool is owed if the worker
/// dies (a panic unwinding through its serve loop) and settles the debt
/// from its `Drop`.
///
/// `pending` accumulates **every** range the worker claimed since its
/// current serve began — completed ones included, because the worker's
/// private accumulator (and with it the results of completed ranges)
/// dies with the worker; only the merge publishes them. It is cleared
/// immediately after the merge publishes, with no panic point in
/// between, so no death can double-count or lose a range.
///
/// Disarmed on normal serve-loop exit.
struct SupervisionGuard<'a> {
    sync: &'a StdSync,
    armed: bool,
    /// Last epoch this worker accepted.
    seen_epoch: u64,
    /// `true` between accepting an epoch and checking out of it (the
    /// check-out clears it inside the guarded section).
    serving: bool,
    /// Claimed-but-unmerged ranges of the current serve.
    pending: Vec<(u64, u64)>,
}

impl Drop for SupervisionGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let (seen, serving) = (self.seen_epoch, self.serving);
        let remainder = std::mem::take(&mut self.pending);
        let wake = self
            .sync
            .guarded(|core| core.mark_lost(seen, serving, remainder));
        self.sync.wake(wake);
    }
}

/// Dispatches driver batches to the worker pool; implements
/// [`BatchRunner`] for the drivers in [`crate::run`].
pub(crate) struct PoolRunner<'env, 'p> {
    ctx: &'p PoolCtx<'env>,
    shared: &'p Shared,
    /// Quarantined groups harvested from completed epochs, awaiting
    /// [`BatchRunner::drain_quarantine`].
    quarantined: Vec<QuarantinedGroup>,
}

impl PoolRunner<'_, '_> {
    /// Publishes `[lo, hi)` as the next epoch, wakes the workers, and
    /// blocks until the epoch quiesces. Returns the data guard so the
    /// caller can take the epoch's accumulator.
    ///
    /// # Panics
    ///
    /// Re-raises (as a coordinator panic) when the pool lost every
    /// worker — partial losses are supervised and do not surface here.
    fn run_epoch(&mut self, lo: usize, hi: usize, collect: bool) -> MutexGuard<'_, EpochData> {
        debug_assert!(lo <= hi);
        let count = (hi - lo) as u64;
        let claim = effective_claim(self.ctx.claim_batch, count, self.ctx.threads as u64);
        let spec = JobSpec {
            lo: lo as u64,
            hi: hi as u64,
            claim,
            collect,
        };
        // Install the data plane first: workers cannot observe it until
        // the guarded publish makes the epoch visible, and no worker
        // from the previous epoch can still touch it (`active == 0`).
        {
            let mut data = lock_data(self.shared);
            data.cursor = Some(Arc::new(BatchCursor::new(lo, hi, claim)));
            data.stream_acc = (!collect).then(|| StreamStats::new(self.ctx.cfg.mission_hours));
            data.collect_acc.clear();
            data.quarantine.clear();
        }
        let wake = self.shared.sync.guarded(|core| core.publish(spec));
        self.shared.sync.wake(wake);
        let outcome = self
            .shared
            .sync
            .poll_until(Cv::Quiesced, |core| match core.quiesce_poll() {
                QuiescePoll::Wait => None,
                other => Some(other),
            });
        self.shared.sync.guarded(PoolCore::retire);
        if outcome == QuiescePoll::Panicked {
            panic!("simulation worker panicked");
        }
        let mut data = lock_data(self.shared);
        data.cursor = None;
        data
    }
}

impl BatchRunner for PoolRunner<'_, '_> {
    fn stream_batch(&mut self, lo: usize, hi: usize) -> StreamStats {
        let mut data = self.run_epoch(lo, hi, false);
        let mut quarantined = std::mem::take(&mut data.quarantine);
        let stats = data
            .stream_acc
            .take()
            .expect("stream epochs publish an accumulator");
        drop(data);
        // Deterministic order for observers regardless of which worker
        // hit which group first. The explicit comparator (not
        // `sort_unstable_by_key`) keeps the float-discipline lint happy.
        #[allow(clippy::unnecessary_sort_by)]
        quarantined.sort_unstable_by(|a, b| a.index.cmp(&b.index));
        self.quarantined.append(&mut quarantined);
        stats
    }

    fn drain_quarantine(&mut self) -> Vec<QuarantinedGroup> {
        std::mem::take(&mut self.quarantined)
    }

    fn collect_batch(&mut self, lo: usize, hi: usize) -> Vec<GroupHistory> {
        let mut data = self.run_epoch(lo, hi, true);
        let mut parts = std::mem::take(&mut data.collect_acc);
        drop(data);
        // Claim starts are unique within the epoch, so sorting by start
        // (an integer index — no float ordering involved) and
        // concatenating restores exact group-index order no matter
        // which worker produced which batch. The explicit comparator is
        // deliberate: the float-discipline lint bans the `_by_key` form
        // in simulation crates because float keys cannot implement Ord.
        #[allow(clippy::unnecessary_sort_by)]
        parts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut histories = Vec::with_capacity(hi - lo);
        for (_, mut batch) in parts {
            histories.append(&mut batch);
        }
        histories
    }
}

/// Counts a completed group against the global counter and reports a
/// progress stride if this worker crossed into a new bucket (the same
/// per-worker monotone stride accounting the scoped runner used).
fn note_progress(
    observer: &dyn StreamObserver,
    done: &AtomicU64,
    target: u64,
    last_bucket: &mut u64,
) {
    let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
    let bucket = completed / PROGRESS_STRIDE;
    if bucket > *last_bucket {
        *last_bucket = bucket;
        observer.on_progress(Progress {
            groups_done: completed,
            groups_target: target,
        });
    }
}

fn note_group(ctx: &PoolCtx<'_>, last_bucket: &mut u64) {
    note_progress(ctx.observer, ctx.done, ctx.target, last_bucket);
}

/// Claims the next cursor range as `[start, end)` group indices.
fn claim_u64(cursor: &BatchCursor) -> Option<(u64, u64)> {
    cursor.claim().map(|r| (r.start as u64, r.end as u64))
}

/// Runs the guarded check-out for a worker that has merged everything
/// it claimed. Returns a resubmitted range if the check-out was refused
/// (the worker stays serving and must redo it), or `None` once the
/// worker is out (with the requested wake delivered).
fn attempt_check_out(sync: &StdSync, guard: &mut SupervisionGuard<'_>) -> Option<(u64, u64)> {
    let (redo, wake) = {
        let serving = &mut guard.serving;
        let pending = &mut guard.pending;
        sync.guarded(|core| match core.check_out() {
            // Recording the redo in `pending` inside the guarded
            // section keeps the supervision accounting gap-free: from
            // the instant the range leaves the pool's queue it is
            // covered by this worker's guard.
            CheckOutcome::Redo(range) => {
                pending.push(range);
                (Some(range), Wake::None)
            }
            CheckOutcome::Out(wake) => {
                *serving = false;
                (None, wake)
            }
        })
    };
    sync.wake(wake);
    redo
}

/// Body of one pool worker: open a session once, then serve epochs
/// until shutdown. Returns the worker's lifetime group count and its
/// session's work counters.
fn worker_loop(ctx: &PoolCtx<'_>, shared: &Shared) -> (u64, EngineCounters) {
    let mut session = ctx.engine.session_tuned(ctx.cfg, ctx.bias, ctx.tuning);
    let mut groups_done = 0u64;
    // Stride accounting starts at the current global bucket so a
    // resumed run does not re-report strides its checkpointed prefix
    // already covered.
    let mut last_bucket = ctx.done.load(Ordering::Relaxed) / PROGRESS_STRIDE;
    let mut guard = SupervisionGuard {
        sync: &shared.sync,
        armed: true,
        seen_epoch: 0,
        serving: false,
        pending: Vec::new(),
    };
    loop {
        let seen = guard.seen_epoch;
        let poll = shared
            .sync
            .poll_until(Cv::Work, |core| match core.worker_poll(seen) {
                WorkerPoll::Wait => None,
                WorkerPoll::Shutdown => Some(None),
                WorkerPoll::Job(spec, epoch) => Some(Some((spec, epoch))),
            });
        let Some((job, epoch)) = poll else { break };
        guard.seen_epoch = epoch;
        guard.serving = true;
        let cursor = lock_data(shared)
            .cursor
            .clone()
            .expect("a published epoch carries a cursor");
        // Each round drains the claim source (the cursor, then any
        // range the refused check-out handed back), merges, and
        // attempts the guarded check-out. Merge-before-check-out: the
        // check-out is what publishes this worker's merge to the
        // coordinator's harvest, and `serving` clears inside the
        // guarded section itself, so a death at any point is accounted
        // exactly once.
        let mut next = claim_u64(&cursor);
        if job.collect {
            loop {
                let mut local: Vec<(u64, Vec<GroupHistory>)> = Vec::new();
                while let Some((start, end)) = next {
                    guard.pending.push((start, end));
                    let mut batch = Vec::with_capacity((end - start) as usize);
                    for i in start..end {
                        let mut rng = stream(ctx.seed, i);
                        batch.push(session.simulate_group(&mut rng).clone());
                        groups_done += 1;
                        note_group(ctx, &mut last_bucket);
                    }
                    local.push((start, batch));
                    next = claim_u64(&cursor);
                }
                lock_data(shared).collect_acc.append(&mut local);
                guard.pending.clear();
                next = attempt_check_out(&shared.sync, &mut guard);
                if next.is_none() {
                    break;
                }
            }
        } else {
            loop {
                let mut stats = StreamStats::new(ctx.cfg.mission_hours);
                let mut quarantined: Vec<QuarantinedGroup> = Vec::new();
                while let Some((start, end)) = next {
                    guard.pending.push((start, end));
                    for i in start..end {
                        let mut rng = stream(ctx.seed, i);
                        // Unwind safety: `stats` is only mutated by
                        // `push`, which runs after `simulate_group`
                        // returned a complete history — a panic leaves
                        // it untouched. The session may be mid-update,
                        // so it is replaced.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            stats.push(session.simulate_group(&mut rng));
                        }));
                        if let Err(payload) = outcome {
                            quarantined.push(QuarantinedGroup {
                                index: i,
                                message: panic_message(payload.as_ref()),
                            });
                            session = ctx.engine.session_tuned(ctx.cfg, ctx.bias, ctx.tuning);
                        }
                        groups_done += 1;
                        note_group(ctx, &mut last_bucket);
                    }
                    next = claim_u64(&cursor);
                }
                {
                    let mut data = lock_data(shared);
                    data.stream_acc
                        .as_mut()
                        .expect("stream epochs publish an accumulator")
                        .merge(stats);
                    data.quarantine.append(&mut quarantined);
                }
                guard.pending.clear();
                next = attempt_check_out(&shared.sync, &mut guard);
                if next.is_none() {
                    break;
                }
            }
        }
    }
    guard.armed = false;
    (groups_done, session.counters())
}

/// Spawns the pool, runs `body` against a [`PoolRunner`], shuts the
/// workers down, and reports per-worker scheduling statistics
/// (including how many workers died and were supervised out).
///
/// # Panics
///
/// Panics only when *every* worker died (total loss): the coordinator
/// re-raises at its quiesce wait, after all threads have been joined so
/// no worker outlives the borrowed context. Partial losses are
/// supervised: survivors redo the dead workers' unmerged ranges and the
/// run completes with bit-identical aggregates.
pub(crate) fn run_with_pool<R>(
    ctx: PoolCtx<'_>,
    body: impl FnOnce(&mut dyn BatchRunner) -> R,
) -> (R, SchedulerStats) {
    debug_assert!(ctx.threads > 1, "serial runs bypass the pool");
    let shared = Shared {
        sync: StdSync::new(ctx.threads),
        data: Mutex::new(EpochData {
            cursor: None,
            stream_acc: None,
            collect_acc: Vec::new(),
            quarantine: Vec::new(),
        }),
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ctx.threads);
        for _ in 0..ctx.threads {
            let ctx = &ctx;
            let shared = &shared;
            handles.push(scope.spawn(move || worker_loop(ctx, shared)));
        }
        let result = {
            // Shut the workers down even when `body` unwinds, so the
            // scope's implicit joins cannot deadlock.
            let _shutdown = ShutdownOnDrop(&shared.sync);
            let mut runner = PoolRunner {
                ctx: &ctx,
                shared: &shared,
                quarantined: Vec::new(),
            };
            body(&mut runner)
        };
        let mut worker_groups = Vec::with_capacity(ctx.threads);
        let mut counters = EngineCounters::default();
        let mut workers_lost = 0u64;
        for h in handles {
            match h.join() {
                Ok((groups, c)) => {
                    worker_groups.push(groups);
                    counters.merge(c);
                }
                // A supervised death: its guard already settled the
                // accounting (resubmission or, on total loss, the
                // coordinator's re-raise above), so the payload is
                // spent — record the loss and move on.
                Err(_) => {
                    worker_groups.push(0);
                    workers_lost += 1;
                }
            }
        }
        let sched = SchedulerStats {
            worker_groups,
            thread_spawns: ctx.threads as u64,
            workers_lost,
            steals: 0,
            counters,
        };
        (result, sched)
    })
}

// ---------------------------------------------------------------------------
// Fused multi-scenario sweep executor
// ---------------------------------------------------------------------------
//
// A sweep used to be a loop over independent runs: spawn a pool, drain
// one scenario, quiesce, tear the pool down, repeat. Every scenario
// boundary was a full barrier, so each scenario's tail (fewer remaining
// groups than threads) starved the other workers. The fused executor
// below keeps ONE pool alive for the whole sweep and publishes the
// scenarios into a cross-scenario work queue: the coordinator opens the
// sweep with [`PoolCore::publish_sweep`], appends each further scenario
// with [`PoolCore::extend_sweep`] *while workers are still draining the
// previous ones*, and closes the queue with [`PoolCore::seal_sweep`].
// A worker that exhausts scenario `s` asks [`PoolCore::sweep_poll`]
// whether scenario `s + 1` is published yet — if so it *steals* into it
// immediately instead of idling at a quiesce barrier; only when the
// queue is sealed and fully served does it check out. The protocol
// extension is model-checked in `sync_model` (including a mutation test
// that catches a lost wakeup at the scenario boundary) exactly like the
// base epoch handshake.
//
// Determinism is scenario-local: scenario `k` covering global indices
// `[lo, hi)` simulates its group `i` with RNG stream `i - lo` drawn
// from the scenario's own seed, and merges into the scenario's own
// [`StreamStats`] accumulator — so per-scenario aggregates are
// bit-identical to a sequential per-scenario run at every thread count,
// no matter which worker steals what. Supervision carries over
// unchanged: a dead worker's unmerged ranges are resubmitted through
// the same `mark_lost`/`check_out` queue, and survivors map each redone
// range back to its scenario by the global-offset partition. One
// difference from the single-scenario loop is merge granularity:
// sweep workers merge and clear their pending set at every scenario
// boundary, while the model merges only at check-out — production's
// death-resubmit set is therefore a subset of the model's, and the
// model proves coverage for the larger set, so production is a sound
// refinement.
//
// Each worker owns one [`KernelCache`], so a distribution tree shared
// by several scenarios (a scrub ladder varies one knob, the rest of the
// config is identical) is lowered once per worker instead of once per
// (worker, scenario). Sessions are opened lazily per (worker,
// scenario): a worker that never touches scenario `k` never pays for
// its session.

/// One scenario of a fused sweep, planned into the sweep's global group
/// index space by the caller: scenario groups occupy `[lo, hi)` and
/// group `i` uses RNG stream `i - lo` of `seed`.
pub(crate) struct PlannedScenario {
    /// Configuration this scenario simulates.
    pub cfg: Arc<RaidGroupConfig>,
    /// The scenario's own master seed (streams are scenario-local).
    pub seed: u64,
    /// First global group index of this scenario.
    pub lo: u64,
    /// One past the last global group index of this scenario.
    pub hi: u64,
}

/// Everything a sweep worker needs, borrowed from the driving sweep.
pub(crate) struct SweepCtx<'a> {
    /// Engine shared by all workers and scenarios.
    pub engine: &'a dyn Engine,
    /// Scenarios in publish order, with precomputed global offsets.
    pub scenarios: &'a [PlannedScenario],
    /// Sampling-measure change applied by every session (see
    /// [`PoolCtx::bias`]).
    pub bias: BiasPolicy,
    /// Session tuning applied by every session (see [`PoolCtx::tuning`]).
    pub tuning: SessionTuning,
    /// Worker count (callers route `threads == 1` around the pool).
    pub threads: usize,
    /// Configured claim-batch size, clamped per scenario by
    /// [`effective_claim`].
    pub claim_batch: u64,
    /// `true` to collect full histories, `false` to stream statistics.
    pub collect: bool,
    /// Progress sink; called from worker threads.
    pub observer: &'a dyn StreamObserver,
    /// Global completed-group counter across the whole sweep.
    pub done: &'a AtomicU64,
    /// Target group count reported in progress callbacks.
    pub target: u64,
}

/// The sweep data plane: one cursor and one accumulator per published
/// scenario, in scenario order. Guarded by its own mutex under the same
/// discipline as [`EpochData`]: held only for short non-blocking
/// sections, with all ordering provided by the protocol. The vectors
/// only grow while the sweep is open; workers index them by scenario,
/// and [`PoolCore::sweep_poll`] guarantees a scenario is published
/// before any worker asks for its cursor.
struct SweepData {
    /// Claim cursor of each published scenario.
    cursors: Vec<Arc<BatchCursor>>,
    /// Stream-mode accumulator of each published scenario (empty in
    /// collect mode).
    stream_accs: Vec<StreamStats>,
    /// Collect-mode accumulator of each published scenario (empty in
    /// stream mode): `(start_index, histories)` per claimed batch.
    collect_accs: Vec<Vec<(u64, Vec<GroupHistory>)>>,
    /// Quarantined groups: `(scenario index, group)` with the group's
    /// index *local to its scenario*.
    quarantine: Vec<(usize, QuarantinedGroup)>,
}

struct SweepShared {
    /// Protocol state + condvars; all blocking goes through here.
    sync: StdSync,
    /// Sweep data plane (see [`SweepData`]).
    data: Mutex<SweepData>,
}

fn lock_sweep_data(shared: &SweepShared) -> MutexGuard<'_, SweepData> {
    shared.data.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything [`run_sweep_pool`] hands back to the sweep driver.
pub(crate) struct SweepHarvest {
    /// Per-scenario stream statistics, in scenario order (stream mode).
    pub stream_accs: Vec<StreamStats>,
    /// Per-scenario histories in group order (collect mode).
    pub collect_accs: Vec<Vec<GroupHistory>>,
    /// Quarantined groups as `(scenario index, group)` with
    /// scenario-local indices, sorted by `(scenario, index)`.
    pub quarantine: Vec<(usize, QuarantinedGroup)>,
    /// Scheduling statistics for the whole sweep, including
    /// [`SchedulerStats::steals`].
    pub sched: SchedulerStats,
}

/// Maps a resubmitted global range back to the scenario that claimed
/// it. Claimed ranges never span scenarios (each comes from one
/// scenario's cursor), so the range's start pins it.
fn scenario_of(scenarios: &[PlannedScenario], start: u64) -> usize {
    scenarios
        .iter()
        .position(|sc| start >= sc.lo && start < sc.hi)
        .expect("resubmitted range maps to a published scenario")
}

/// Body of one sweep worker: serve scenarios from the cross-scenario
/// queue until it is sealed and drained, then check out. Returns the
/// worker's lifetime group count, the number of cross-scenario steals
/// it performed, and its sessions' merged work counters.
fn sweep_worker_loop<'e>(ctx: &SweepCtx<'e>, shared: &SweepShared) -> (u64, u64, EngineCounters) {
    // One kernel cache and one lazily-opened session per scenario, all
    // private to this worker — no sync primitives touch them.
    let mut kernels = KernelCache::new();
    let mut sessions: Vec<Option<Box<dyn EngineSession + 'e>>> = Vec::new();
    sessions.resize_with(ctx.scenarios.len(), || None);
    let mut groups_done = 0u64;
    let mut steals = 0u64;
    let mut last_bucket = ctx.done.load(Ordering::Relaxed) / PROGRESS_STRIDE;
    let mut guard = SupervisionGuard {
        sync: &shared.sync,
        armed: true,
        seen_epoch: 0,
        serving: false,
        pending: Vec::new(),
    };
    loop {
        let seen = guard.seen_epoch;
        let poll = shared
            .sync
            .poll_until(Cv::Work, |core| match core.worker_poll(seen) {
                WorkerPoll::Wait => None,
                WorkerPoll::Shutdown => Some(None),
                WorkerPoll::Job(spec, epoch) => Some(Some((spec, epoch))),
            });
        let Some((_job, epoch)) = poll else { break };
        guard.seen_epoch = epoch;
        guard.serving = true;
        // Walk the scenario queue. `s` only moves forward once
        // `sweep_poll` confirms the next scenario is published, so
        // indexing the data-plane vectors by `s` is always in bounds.
        let mut s: usize = 0;
        loop {
            let cursor = lock_sweep_data(shared)
                .cursors
                .get(s)
                .cloned()
                .expect("a published sweep scenario carries a cursor");
            let sc = &ctx.scenarios[s];
            let mut claimed_any = false;
            if ctx.collect {
                let mut local: Vec<(u64, Vec<GroupHistory>)> = Vec::new();
                while let Some((start, end)) = claim_u64(&cursor) {
                    claimed_any = true;
                    guard.pending.push((start, end));
                    let session = sessions[s].get_or_insert_with(|| {
                        ctx.engine.session_tuned_cached(
                            sc.cfg.as_ref(),
                            ctx.bias,
                            ctx.tuning,
                            &mut kernels,
                        )
                    });
                    let mut batch = Vec::with_capacity((end - start) as usize);
                    for i in start..end {
                        let mut rng = stream(sc.seed, i - sc.lo);
                        batch.push(session.simulate_group(&mut rng).clone());
                        groups_done += 1;
                        note_progress(ctx.observer, ctx.done, ctx.target, &mut last_bucket);
                    }
                    local.push((start, batch));
                }
                if !local.is_empty() {
                    lock_sweep_data(shared).collect_accs[s].append(&mut local);
                }
                guard.pending.clear();
            } else {
                let mut stats = StreamStats::new(sc.cfg.mission_hours);
                let mut quarantined: Vec<(usize, QuarantinedGroup)> = Vec::new();
                while let Some((start, end)) = claim_u64(&cursor) {
                    claimed_any = true;
                    guard.pending.push((start, end));
                    for i in start..end {
                        let mut rng = stream(sc.seed, i - sc.lo);
                        let session = sessions[s].get_or_insert_with(|| {
                            ctx.engine.session_tuned_cached(
                                sc.cfg.as_ref(),
                                ctx.bias,
                                ctx.tuning,
                                &mut kernels,
                            )
                        });
                        // Unwind safety: as in `worker_loop`, `stats`
                        // is only touched after `simulate_group`
                        // returned. The session may be mid-update, so
                        // it is dropped and reopened lazily.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            stats.push(session.simulate_group(&mut rng));
                        }));
                        if let Err(payload) = outcome {
                            quarantined.push((
                                s,
                                QuarantinedGroup {
                                    index: i - sc.lo,
                                    message: panic_message(payload.as_ref()),
                                },
                            ));
                            sessions[s] = None;
                        }
                        groups_done += 1;
                        note_progress(ctx.observer, ctx.done, ctx.target, &mut last_bucket);
                    }
                }
                if claimed_any {
                    let mut data = lock_sweep_data(shared);
                    data.stream_accs[s].merge(stats);
                    data.quarantine.append(&mut quarantined);
                }
                guard.pending.clear();
            }
            // Claiming from any scenario after the first one this
            // worker drained is a cross-scenario steal: without the
            // fused queue the worker would have idled at the previous
            // scenario's quiesce barrier instead.
            if claimed_any && s > 0 {
                steals += 1;
            }
            let served = s as u64;
            let more = shared
                .sync
                .poll_until(Cv::Work, |core| match core.sweep_poll(served) {
                    SweepPoll::Wait => None,
                    SweepPoll::Next => Some(true),
                    SweepPoll::Drained => Some(false),
                });
            if more {
                s += 1;
            } else {
                break;
            }
        }
        // The queue is sealed and drained; check out, redoing any
        // ranges a dead worker left behind. Each redone range maps to
        // exactly one scenario and replays its RNG streams, so the
        // merge is bit-identical to the work the dead worker lost.
        while let Some((start, end)) = attempt_check_out(&shared.sync, &mut guard) {
            let s = scenario_of(ctx.scenarios, start);
            let sc = &ctx.scenarios[s];
            if ctx.collect {
                let session = sessions[s].get_or_insert_with(|| {
                    ctx.engine.session_tuned_cached(
                        sc.cfg.as_ref(),
                        ctx.bias,
                        ctx.tuning,
                        &mut kernels,
                    )
                });
                let mut batch = Vec::with_capacity((end - start) as usize);
                for i in start..end {
                    let mut rng = stream(sc.seed, i - sc.lo);
                    batch.push(session.simulate_group(&mut rng).clone());
                    groups_done += 1;
                    note_progress(ctx.observer, ctx.done, ctx.target, &mut last_bucket);
                }
                lock_sweep_data(shared).collect_accs[s].push((start, batch));
                guard.pending.clear();
            } else {
                let mut stats = StreamStats::new(sc.cfg.mission_hours);
                let mut quarantined: Vec<(usize, QuarantinedGroup)> = Vec::new();
                for i in start..end {
                    let mut rng = stream(sc.seed, i - sc.lo);
                    let session = sessions[s].get_or_insert_with(|| {
                        ctx.engine.session_tuned_cached(
                            sc.cfg.as_ref(),
                            ctx.bias,
                            ctx.tuning,
                            &mut kernels,
                        )
                    });
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        stats.push(session.simulate_group(&mut rng));
                    }));
                    if let Err(payload) = outcome {
                        quarantined.push((
                            s,
                            QuarantinedGroup {
                                index: i - sc.lo,
                                message: panic_message(payload.as_ref()),
                            },
                        ));
                        sessions[s] = None;
                    }
                    groups_done += 1;
                    note_progress(ctx.observer, ctx.done, ctx.target, &mut last_bucket);
                }
                {
                    let mut data = lock_sweep_data(shared);
                    data.stream_accs[s].merge(stats);
                    data.quarantine.append(&mut quarantined);
                }
                guard.pending.clear();
            }
        }
    }
    guard.armed = false;
    let mut counters = EngineCounters::default();
    for session in sessions.into_iter().flatten() {
        counters.merge(session.counters());
    }
    (groups_done, steals, counters)
}

/// Runs a fused sweep: one pool for all scenarios, published into the
/// cross-scenario queue as fast as the coordinator can install their
/// cursors, with workers stealing across scenario boundaries instead of
/// quiescing at them. The single quiesce point is the end of the whole
/// sweep.
///
/// # Panics
///
/// Panics only when *every* worker died (total loss), exactly as
/// [`run_with_pool`] does.
pub(crate) fn run_sweep_pool(ctx: SweepCtx<'_>) -> SweepHarvest {
    debug_assert!(ctx.threads > 1, "serial sweeps bypass the pool");
    debug_assert!(
        !ctx.scenarios.is_empty(),
        "a sweep publishes at least one scenario"
    );
    let n = ctx.scenarios.len();
    let shared = SweepShared {
        sync: StdSync::new(ctx.threads),
        data: Mutex::new(SweepData {
            cursors: Vec::with_capacity(n),
            stream_accs: Vec::with_capacity(n),
            collect_accs: Vec::with_capacity(n),
            quarantine: Vec::new(),
        }),
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ctx.threads);
        for _ in 0..ctx.threads {
            let ctx = &ctx;
            let shared = &shared;
            handles.push(scope.spawn(move || sweep_worker_loop(ctx, shared)));
        }
        let (stream_accs, collect_parts, mut quarantine) = {
            // Shut the workers down even when publishing or the
            // quiesce wait unwinds, so the scope's joins cannot
            // deadlock.
            let _shutdown = ShutdownOnDrop(&shared.sync);
            for (k, sc) in ctx.scenarios.iter().enumerate() {
                debug_assert!(sc.lo < sc.hi, "scenarios cover at least one group");
                let count = sc.hi - sc.lo;
                let claim = effective_claim(ctx.claim_batch, count, ctx.threads as u64);
                // Install the scenario's data plane before the guarded
                // publish makes it claimable: the lock release below
                // happens-before any worker's `sweep_poll` observes
                // the scenario, so the cursor fetch cannot miss.
                {
                    let mut data = lock_sweep_data(&shared);
                    data.cursors.push(Arc::new(BatchCursor::new(
                        sc.lo as usize,
                        sc.hi as usize,
                        claim,
                    )));
                    if ctx.collect {
                        data.collect_accs.push(Vec::new());
                    } else {
                        data.stream_accs
                            .push(StreamStats::new(sc.cfg.mission_hours));
                    }
                }
                let spec = JobSpec {
                    lo: sc.lo,
                    hi: sc.hi,
                    claim,
                    collect: ctx.collect,
                };
                let wake = shared.sync.guarded(|core| {
                    if k == 0 {
                        core.publish_sweep(spec)
                    } else {
                        // The fused sweep's defining transition:
                        // appended while workers are active.
                        core.extend_sweep(sc.hi)
                    }
                });
                shared.sync.wake(wake);
            }
            let wake = shared.sync.guarded(PoolCore::seal_sweep);
            shared.sync.wake(wake);
            let outcome = shared
                .sync
                .poll_until(Cv::Quiesced, |core| match core.quiesce_poll() {
                    QuiescePoll::Wait => None,
                    other => Some(other),
                });
            shared.sync.guarded(PoolCore::retire);
            if outcome == QuiescePoll::Panicked {
                panic!("simulation worker panicked");
            }
            let mut data = lock_sweep_data(&shared);
            data.cursors.clear();
            (
                std::mem::take(&mut data.stream_accs),
                std::mem::take(&mut data.collect_accs),
                std::mem::take(&mut data.quarantine),
            )
        };
        let mut worker_groups = Vec::with_capacity(ctx.threads);
        let mut counters = EngineCounters::default();
        let mut workers_lost = 0u64;
        let mut steals = 0u64;
        for h in handles {
            match h.join() {
                Ok((groups, worker_steals, c)) => {
                    worker_groups.push(groups);
                    steals += worker_steals;
                    counters.merge(c);
                }
                Err(_) => {
                    worker_groups.push(0);
                    workers_lost += 1;
                }
            }
        }
        // Deterministic order for observers (integer keys — see the
        // comparator notes in `stream_batch`/`collect_batch`).
        #[allow(clippy::unnecessary_sort_by)]
        quarantine.sort_unstable_by(|a, b| (a.0, a.1.index).cmp(&(b.0, b.1.index)));
        let collect_accs = collect_parts
            .into_iter()
            .map(|mut parts| {
                #[allow(clippy::unnecessary_sort_by)]
                parts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                let mut histories = Vec::new();
                for (_, mut batch) in parts {
                    histories.append(&mut batch);
                }
                histories
            })
            .collect();
        SweepHarvest {
            stream_accs,
            collect_accs,
            quarantine,
            sched: SchedulerStats {
                worker_groups,
                thread_spawns: ctx.threads as u64,
                workers_lost,
                steals,
                counters,
            },
        }
    })
}
