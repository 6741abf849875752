//! The executor: one group loop behind every run, shard and sweep.
//!
//! An executor is opened once per run (or per sweep) and serves *jobs*.
//! A job is a list of *slices* — `{bundle, lo, hi, first_stream}`,
//! group `i` of a slice simulated on RNG stream
//! `i - lo + first_stream` of the bundle's seed for every scenario of
//! the bundle. Every (scenario, group) streams into the scenario's
//! [`StreamStats`], a group whose simulation panics being quarantined;
//! a stored run also records each pushed group's history in the
//! executor's [`HistorySink`]. A *bundle* is a run of scenarios
//! that share a seed, and so read every group from the same stream. A
//! precision or checkpointed run publishes one single-slice job per
//! driver batch; a plain run or a shard is one single-slice job; a
//! fused sweep is one job with a slice per bundle. Every slice has its
//! own claim cursor.
//!
//! A bundle of two or more scenarios is simulated group by group: the
//! worker fills one [`DrawMemo`] from the group's stream and runs every
//! scenario's session against it in scenario order
//! ([`EngineSession::simulate_group_memo`]), so each stream position's
//! `ln_1p` and `powf` are evaluated once per group, not once per
//! scenario. The sessions also pass one [`BundleShare`] along, through
//! which the timeline engine computes a group's operational phase once
//! for every scenario with the same operational identity. A bundle of
//! one reads its stream through the session's own draw cursor, as a
//! single-scenario run does.
//!
//! With `threads == 1` the calling thread is the only worker and
//! nothing is spawned. Otherwise workers are spawned once per executor
//! and each job is one *epoch* of the pool's handshake:
//!
//! 1. the coordinator installs the job (every slice's cursor), bumps
//!    the epoch, and wakes every worker;
//! 2. each worker walks the slices in order, draining each cursor
//!    before moving to the next (claiming from a later slice after an
//!    earlier one ran dry is a counted *steal*), merges its partials
//!    into the job's accumulators, and checks out;
//! 3. the coordinator sleeps until the last worker has checked out.
//!
//! The checkout of the last worker is the quiesce point: every index of
//! every slice has completed, so at each driver-batch boundary the
//! finished set is an exact prefix of the group-index space — what
//! checkpoint resume depends on (see [`crate::checkpoint`]).
//!
//! Both kinds of executor run the same per-slice loop ([`Worker`]):
//! one [`KernelCache`], one [`DrawMemo`] and one [`BundleShare`] per
//! worker, sessions keyed by scenario and kept for the executor's life,
//! a session lookup per claimed range, and per (scenario, group) the
//! simulation under `catch_unwind`, the push (and, for a stored run,
//! the history record) and the progress tick.
//!
//! The handshake itself is not implemented here. It lives in
//! [`crate::sync_model`] as pure transitions on [`PoolCore`], which this
//! module executes through the [`SyncOps`] seam ([`StdSync`]: one
//! mutex, two condvars) and which the model checker executes under a
//! virtual scheduler, exhaustively, in `tests/pool_model.rs`. There is
//! one copy of the protocol: what is proved is what runs. This module
//! adds only the *data plane* — the job's cursors and accumulators —
//! behind a second mutex ([`Plane`]) that is never held while
//! sleeping. The two-lock split is safe because the coordinator writes
//! the plane only while no epoch is in flight (`active == 0`, before
//! publish / after quiesce) and workers write it strictly before their
//! own guarded check-out, so the quiesce point orders every access.
//!
//! Determinism: which worker simulates a group cannot affect its
//! history (per-group RNG streams), [`StreamStats`] partials are
//! exact-integer state that merges bit-identically in any order, and
//! recorded histories sit in per-scenario slots indexed by stream.
//!
//! Failure handling is *supervised* (see DESIGN.md §17):
//!
//! * A panic while simulating one group is caught and
//!   the (scenario, group) **quarantined**: its index still counts
//!   toward the completed watermark but its statistics are excluded,
//!   the session's counters are folded into the worker's total, the
//!   session is reopened, the draw memo is rebuilt from the group's
//!   stream, and the run continues — with the bundle's other scenarios
//!   of the same group included.
//! * A panic that kills a whole worker (an observer callback, session
//!   construction) trips its
//!   [`SupervisionGuard`]: the worker's *unmerged* claimed ranges are
//!   resubmitted through [`PoolCore::mark_lost`], and survivors redo
//!   them at their guarded check-out ([`PoolCore::check_out`] refuses
//!   to let a worker leave while the queue is non-empty). Aggregates
//!   stay bit-identical because per-group RNG streams make redone work
//!   reproduce the dead worker's results exactly; a redone group's
//!   history overwrites the identical one the dead worker may have
//!   left in the [`HistorySink`]. (The shared progress counter may
//!   over-count redone groups; it feeds progress display only.) With
//!   `threads == 1` there is no survivor, so such a panic propagates to
//!   the caller.
//! * Losing the *last* worker degenerates to the unsupervised abort:
//!   the pool latches `panicked` and the coordinator re-raises at its
//!   quiesce wait instead of deadlocking.
//!
//! Lock poisoning is deliberately ignored (`PoisonError::into_inner`)
//! because every critical section leaves the shared state consistent on
//! its own.

use crate::config::RaidGroupConfig;
use crate::engine::{
    BiasPolicy, BundleShare, Engine, EngineCounters, EngineSession, SessionTuning,
};
use crate::events::{GroupHistory, QuarantinedGroup};
use crate::run::{panic_message, BatchCursor, Progress, StreamObserver, PROGRESS_STRIDE};
use crate::stats::{SchedulerStats, StreamStats};
use crate::sync_model::{
    effective_claim, CheckOutcome, Cv, JobSpec, PoolCore, QuiescePoll, StdSync, SyncOps, Wake,
    WorkerPoll,
};
use raidsim_dists::rng::{stream, DrawMemo};
use raidsim_dists::KernelCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One scenario an executor serves.
pub(crate) struct ScenarioRef<'a> {
    /// Configuration simulated.
    pub cfg: &'a RaidGroupConfig,
    /// Master seed the scenario's per-group streams derive from.
    pub seed: u64,
}

/// Everything an executor's workers share, borrowed from the driving
/// run or sweep.
pub(crate) struct ExecCtx<'a> {
    /// Engine shared by all workers (each opens its own sessions).
    pub engine: &'a dyn Engine,
    /// Scenarios that slices refer to by index.
    pub scenarios: Vec<ScenarioRef<'a>>,
    /// Sampling-measure change every session applies (see
    /// [`BiasPolicy`]).
    pub bias: BiasPolicy,
    /// Session tuning every session opens with; every tuning is
    /// bit-identical to the scalar path.
    pub tuning: SessionTuning,
    /// Worker count; `1` runs on the calling thread.
    pub threads: usize,
    /// Configured claim-batch size, clamped per slice by
    /// [`effective_claim`].
    pub claim_batch: u64,
    /// Progress sink; called from worker threads.
    pub observer: &'a dyn StreamObserver,
    /// Global completed-group counter (absolute; resumed runs start it
    /// at the checkpointed prefix).
    pub done: &'a AtomicU64,
    /// Target group count reported in progress callbacks.
    pub target: u64,
    /// Where a stored run records its histories; `None` for a streamed
    /// run.
    pub histories: Option<&'a HistorySink>,
}

/// One recorded history, keyed by (executor scenario, stream index).
type HistoryRecord = (usize, u64, GroupHistory);

/// The histories of a stored run: per executor scenario, one slot per
/// stream index (a stored run simulates streams `0..n` of every
/// scenario), filled when a worker pushed that group's statistics. A
/// worker hands over its records once per claimed range. A survivor
/// that redoes a dead worker's unmerged ranges fills the same slots
/// with the same histories again, so no group is kept twice.
pub(crate) struct HistorySink(Mutex<Vec<Vec<Option<GroupHistory>>>>);

impl HistorySink {
    /// An empty sink for `scenarios` executor scenarios.
    pub(crate) fn new(scenarios: usize) -> Self {
        HistorySink(Mutex::new((0..scenarios).map(|_| Vec::new()).collect()))
    }

    /// Moves `records` into their slots, leaving `records` empty.
    fn fill(&self, records: &mut Vec<HistoryRecord>) {
        let mut slots = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        for (scenario, index, history) in records.drain(..) {
            let slots = &mut slots[scenario];
            let index = index as usize;
            if slots.len() <= index {
                slots.resize_with(index + 1, || None);
            }
            slots[index] = Some(history);
        }
    }

    /// Moves scenario `e`'s slots to scenario `order[e]`, as
    /// [`Harvest::permuted`] does.
    pub(crate) fn permute(&self, order: &[usize]) {
        let mut slots = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        *slots = place(std::mem::take(&mut *slots), order);
    }

    /// Each scenario's histories in stream-index order. A slot left
    /// empty belongs to a quarantined group, which a stored run refuses
    /// before it reads its histories.
    pub(crate) fn into_histories(self) -> Vec<Vec<GroupHistory>> {
        self.0
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|slots| slots.into_iter().flatten().collect())
            .collect()
    }
}

/// Groups `[lo, hi)` of one bundle of scenarios; group `i` uses RNG
/// stream `i - lo + first_stream` of the bundle's seed. The slices of
/// one job cover disjoint index ranges and disjoint bundles.
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    /// The bundle: indices into [`ExecCtx::scenarios`] of scenarios that
    /// share a seed, simulated in this order.
    pub bundle: std::ops::Range<usize>,
    /// First group index (inclusive).
    pub lo: u64,
    /// One past the last group index.
    pub hi: u64,
    /// Stream of the slice's first group.
    pub first_stream: u64,
}

impl Slice {
    /// Groups `[lo, hi)` of scenario 0 on streams `lo..hi`: a driver
    /// batch, a shard, or a whole single-configuration run.
    pub(crate) fn range(lo: u64, hi: u64) -> Self {
        Slice {
            bundle: 0..1,
            lo,
            hi,
            first_stream: lo,
        }
    }

    fn stream_index(&self, i: u64) -> u64 {
        i - self.lo + self.first_stream
    }
}

/// A job's results, one entry per scenario of the executor in scenario
/// order.
#[derive(Default)]
pub(crate) struct Harvest {
    /// Each scenario's aggregate.
    pub stats: Vec<StreamStats>,
    /// Quarantined groups as `(scenario, group)`, the group's index
    /// being its stream index, sorted by `(scenario, index)`.
    pub quarantine: Vec<(usize, QuarantinedGroup)>,
}

impl Harvest {
    /// Moves scenario `e`'s results to position `order[e]`; `order` is
    /// a permutation of the scenario indices.
    #[allow(clippy::unnecessary_sort_by)]
    pub(crate) fn permuted(self, order: &[usize]) -> Harvest {
        let mut quarantine: Vec<_> = self
            .quarantine
            .into_iter()
            .map(|(e, g)| (order[e], g))
            .collect();
        quarantine.sort_by(|a, b| (a.0, a.1.index).cmp(&(b.0, b.1.index)));
        Harvest {
            stats: place(self.stats, order),
            quarantine,
        }
    }
}

/// Moves `items[e]` to position `order[e]`; `order` is a permutation of
/// the item indices. The explicit comparator keeps the float-discipline
/// lint satisfied (see [`harvest`]).
#[allow(clippy::unnecessary_sort_by)]
fn place<T>(items: Vec<T>, order: &[usize]) -> Vec<T> {
    let mut placed: Vec<(usize, T)> = order.iter().copied().zip(items).collect();
    placed.sort_by(|a, b| a.0.cmp(&b.0));
    placed.into_iter().map(|(_, item)| item).collect()
}

/// A published job: its slices and one claim cursor per slice.
struct Job {
    slices: Vec<Slice>,
    cursors: Vec<BatchCursor>,
}

impl Job {
    /// The slice holding a resubmitted range. A claimed range never
    /// spans slices (each comes from one slice's cursor), so its start
    /// pins it.
    fn slice_of(&self, start: u64) -> usize {
        self.slices
            .iter()
            .position(|s| start >= s.lo && start < s.hi)
            .expect("a resubmitted range lies inside one of the job's slices")
    }
}

/// One scenario's share of a job's results, accumulated per worker and
/// merged into the job's accumulator at check-out.
#[derive(Default)]
struct Part {
    /// The aggregate, `None` until a group lands.
    stats: Option<StreamStats>,
    /// Groups whose simulation panicked.
    quarantine: Vec<QuarantinedGroup>,
}

impl Part {
    fn merge(&mut self, other: Part) {
        match (&mut self.stats, other.stats) {
            (Some(acc), Some(stats)) => acc.merge(stats),
            (acc, stats @ Some(_)) => *acc = stats,
            (_, None) => {}
        }
        self.quarantine.extend(other.quarantine);
    }
}

fn empty_parts(n: usize) -> Vec<Part> {
    (0..n).map(|_| Part::default()).collect()
}

/// A worker's private state: one kernel cache, one draw memo and its
/// bundle share, one session per scenario it has served, and its
/// lifetime tallies.
struct Worker<'a> {
    kernels: KernelCache,
    /// The current group's draws, shared by the scenarios of a bundle.
    memo: DrawMemo,
    /// Work the scenarios of a bundle share within a group, such as the
    /// timeline engine's operational phase.
    share: BundleShare,
    sessions: Vec<Option<Box<dyn EngineSession + 'a>>>,
    /// Counters of sessions discarded after a quarantined panic.
    retired: EngineCounters,
    groups: u64,
    steals: u64,
    /// Last progress stride this worker reported.
    last_bucket: u64,
    /// A stored run's records of the range being simulated.
    records: Vec<HistoryRecord>,
}

impl<'a> Worker<'a> {
    fn new(ctx: &ExecCtx<'a>) -> Self {
        let mut sessions = Vec::new();
        sessions.resize_with(ctx.scenarios.len(), || None);
        Worker {
            kernels: KernelCache::new(),
            memo: DrawMemo::new(),
            share: BundleShare::new(),
            sessions,
            retired: EngineCounters::default(),
            groups: 0,
            steals: 0,
            // Stride accounting starts at the current global bucket so
            // a resumed run does not re-report strides its checkpointed
            // prefix already covered.
            last_bucket: ctx.done.load(Ordering::Relaxed) / PROGRESS_STRIDE,
            records: Vec::new(),
        }
    }

    /// Walks the job's slices in order, draining each cursor, and
    /// records every claimed range in `pending`. Claiming from any slice
    /// but the job's first is a counted steal: the worker moved on to
    /// another bundle instead of idling.
    fn drain(
        &mut self,
        ctx: &ExecCtx<'a>,
        job: &Job,
        parts: &mut [Part],
        pending: &mut Vec<(u64, u64)>,
    ) {
        for (k, (slice, cursor)) in job.slices.iter().zip(&job.cursors).enumerate() {
            // Opened on entry, claimed from or not, so the sessions a
            // worker opens are a function of the jobs it serves, not of
            // how the claims fell.
            for scenario in slice.bundle.clone() {
                if self.sessions[scenario].is_none() {
                    self.sessions[scenario] = Some(self.open(ctx, scenario));
                }
            }
            let mut claimed = false;
            while let Some(range) = cursor.claim() {
                claimed = true;
                pending.push((range.start, range.end));
                self.run_range(ctx, slice, range, parts);
            }
            if claimed && k > 0 {
                self.steals += 1;
            }
        }
    }

    /// Simulates the claimed range of `slice` for every scenario of its
    /// bundle, into each scenario's part.
    fn run_range(
        &mut self,
        ctx: &ExecCtx<'a>,
        slice: &Slice,
        range: std::ops::Range<u64>,
        parts: &mut [Part],
    ) {
        let bundle = slice.bundle.clone();
        let seed = ctx.scenarios[bundle.start].seed;
        // A bundle of one keeps the session's own draw cursor: without a
        // second reader the memo has nothing to share.
        let shared = bundle.len() > 1;
        let keep = ctx.histories.is_some();
        let mut sessions: Vec<_> = bundle
            .clone()
            .map(|m| match self.sessions[m].take() {
                Some(session) => session,
                None => self.open(ctx, m),
            })
            .collect();
        for i in range.clone() {
            let index = slice.stream_index(i);
            if shared {
                self.memo.begin(stream(seed, index));
            }
            for (j, m) in bundle.clone().enumerate() {
                let session = sessions[j].as_mut();
                let memo = shared.then_some((&mut self.memo, &mut self.share));
                let mission = ctx.scenarios[m].cfg.mission_hours;
                let stats = parts[m]
                    .stats
                    .get_or_insert_with(|| StreamStats::new(mission));
                // Unwind safety: `stats` and the records are only written
                // after the simulation returned a complete history — a
                // panic leaves both untouched. The session may be
                // mid-update, so it is replaced; its counters are kept.
                // The memo may hold a half-written entry, so it restarts
                // from the group's first word, which also retires
                // everything the share holds for it.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let history = simulate(session, memo, seed, index);
                    stats.push(history);
                    keep.then(|| history.clone())
                }));
                match outcome {
                    Ok(Some(history)) => self.records.push((m, index, history)),
                    Ok(None) => {}
                    Err(payload) => {
                        parts[m].quarantine.push(QuarantinedGroup {
                            index,
                            message: panic_message(payload.as_ref()),
                        });
                        self.retired.merge(sessions[j].counters());
                        sessions[j] = self.open(ctx, m);
                        self.memo.restart();
                    }
                }
                self.tick(ctx);
            }
        }
        if let Some(sink) = ctx.histories {
            sink.fill(&mut self.records);
        }
        for (m, session) in bundle.zip(sessions) {
            self.sessions[m] = Some(session);
        }
    }

    fn open(&mut self, ctx: &ExecCtx<'a>, scenario: usize) -> Box<dyn EngineSession + 'a> {
        let cfg = ctx.scenarios[scenario].cfg;
        ctx.engine
            .session_tuned_cached(cfg, ctx.bias, ctx.tuning, &mut self.kernels)
    }

    /// Counts a completed group and reports a progress stride if this
    /// worker crossed into a new bucket — per-worker monotone by
    /// construction.
    fn tick(&mut self, ctx: &ExecCtx<'_>) {
        self.groups += 1;
        let completed = ctx.done.fetch_add(1, Ordering::Relaxed) + 1;
        let bucket = completed / PROGRESS_STRIDE;
        if bucket > self.last_bucket {
            self.last_bucket = bucket;
            ctx.observer.on_progress(Progress {
                groups_done: completed,
                groups_target: ctx.target,
            });
        }
    }

    /// Lifetime group count, steals, and the counters of every session
    /// this worker opened.
    fn tally(self) -> (u64, u64, EngineCounters) {
        let mut counters = self.retired;
        for session in self.sessions.into_iter().flatten() {
            counters.merge(session.counters());
        }
        (self.groups, self.steals, counters)
    }
}

/// Simulates group `index` of one scenario: from the bundle's draw memo
/// and share when the group has them, else from the group's own stream.
fn simulate<'s>(
    session: &'s mut (dyn EngineSession + '_),
    memo: Option<(&mut DrawMemo, &mut BundleShare)>,
    seed: u64,
    index: u64,
) -> &'s GroupHistory {
    match memo {
        Some((memo, share)) => session.simulate_group_memo(memo, share),
        None => session.simulate_group(&mut stream(seed, index)),
    }
}

/// The data plane: the job in flight and the accumulators its workers
/// merge into, one per slice. Guarded by its own mutex, held only for
/// short non-blocking sections (install, job hand-out, merge, harvest)
/// — all ordering between them comes from the protocol in
/// [`PoolCore`], never from this lock.
struct Plane {
    job: Option<Arc<Job>>,
    parts: Vec<Part>,
}

struct Shared {
    /// Protocol state + condvars; all blocking goes through here.
    sync: StdSync,
    /// Data plane (see [`Plane`]).
    plane: Mutex<Plane>,
}

fn lock_plane(shared: &Shared) -> MutexGuard<'_, Plane> {
    shared.plane.lock().unwrap_or_else(PoisonError::into_inner)
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
/// private partials (and with them the results of completed ranges) die
/// with the worker; only the merge publishes them. It is cleared
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

/// Body of one pool worker: serve epochs until shutdown. Returns the
/// worker's [`Worker::tally`].
fn serve(ctx: &ExecCtx<'_>, shared: &Shared) -> (u64, u64, EngineCounters) {
    let mut worker = Worker::new(ctx);
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
                WorkerPoll::Job(_, epoch) => Some(Some(epoch)),
            });
        let Some(epoch) = poll else { break };
        guard.seen_epoch = epoch;
        guard.serving = true;
        let job = lock_plane(shared)
            .job
            .clone()
            .expect("a published epoch carries its job");
        let mut parts = empty_parts(ctx.scenarios.len());
        worker.drain(ctx, &job, &mut parts, &mut guard.pending);
        // Merge, then attempt the guarded check-out; a refused
        // check-out hands back a dead worker's range to redo first.
        // `serving` clears inside the guarded section itself, so a
        // death at any point is accounted exactly once.
        loop {
            {
                let mut plane = lock_plane(shared);
                for (acc, part) in plane.parts.iter_mut().zip(&mut parts) {
                    acc.merge(std::mem::take(part));
                }
            }
            guard.pending.clear();
            let Some((start, end)) = attempt_check_out(&shared.sync, &mut guard) else {
                break;
            };
            let k = job.slice_of(start);
            worker.run_range(ctx, &job.slices[k], start..end, &mut parts);
        }
    }
    guard.armed = false;
    worker.tally()
}

enum Workers<'e, 'a> {
    /// `threads == 1`: the calling thread's worker.
    Serial(&'e mut Worker<'a>),
    /// The spawned pool.
    Pool(&'e Shared),
}

/// Serves jobs on the calling thread or the pool (see the module docs).
pub(crate) struct Executor<'e, 'a> {
    ctx: &'e ExecCtx<'a>,
    workers: Workers<'e, 'a>,
}

impl Executor<'_, '_> {
    /// Runs one job to completion: every group of every slice has been
    /// simulated when this returns.
    ///
    /// # Panics
    ///
    /// Re-raises (as a coordinator panic) when the pool lost every
    /// worker — partial losses are supervised and do not surface here.
    /// With `threads == 1`, a panic outside a group's simulation
    /// propagates.
    pub(crate) fn run(&mut self, slices: Vec<Slice>) -> Harvest {
        let cursors = slices
            .iter()
            .map(|s| {
                let claim =
                    effective_claim(self.ctx.claim_batch, s.hi - s.lo, self.ctx.threads as u64);
                BatchCursor::new(s.lo, s.hi, claim)
            })
            .collect();
        let job = Arc::new(Job { slices, cursors });
        let parts = match &mut self.workers {
            Workers::Serial(worker) => {
                let mut parts = empty_parts(self.ctx.scenarios.len());
                worker.drain(self.ctx, &job, &mut parts, &mut Vec::new());
                parts
            }
            Workers::Pool(shared) => publish(shared, &job, self.ctx.scenarios.len()),
        };
        harvest(self.ctx, parts)
    }
}

/// Publishes `job` as the next epoch, wakes the workers, blocks until
/// the epoch quiesces, and takes the merged parts, one per scenario of
/// the executor's `scenarios`.
///
/// # Panics
///
/// Re-raises when the pool lost every worker.
fn publish(shared: &Shared, job: &Arc<Job>, scenarios: usize) -> Vec<Part> {
    let spec = JobSpec {
        lo: job.slices.iter().map(|s| s.lo).min().unwrap_or(0),
        hi: job.slices.iter().map(|s| s.hi).max().unwrap_or(0),
    };
    // Install the data plane first: workers cannot observe it until the
    // guarded publish makes the epoch visible, and no worker from the
    // previous epoch can still touch it (`active == 0`).
    {
        let mut plane = lock_plane(shared);
        plane.parts = empty_parts(scenarios);
        plane.job = Some(Arc::clone(job));
    }
    let wake = shared.sync.guarded(|core| core.publish(spec));
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
    let mut plane = lock_plane(shared);
    plane.job = None;
    std::mem::take(&mut plane.parts)
}

/// Assembles a job's merged parts into per-scenario results. Sorting by
/// integer keys restores group order whichever worker produced what;
/// the explicit comparators (not `sort_unstable_by_key`) keep the
/// float-discipline lint, which bans the `_by_key` form in simulation
/// crates, satisfied.
#[allow(clippy::unnecessary_sort_by)]
fn harvest(ctx: &ExecCtx<'_>, parts: Vec<Part>) -> Harvest {
    let mut out = Harvest::default();
    for (m, mut part) in parts.into_iter().enumerate() {
        let mission = ctx.scenarios[m].cfg.mission_hours;
        out.stats
            .push(part.stats.unwrap_or_else(|| StreamStats::new(mission)));
        part.quarantine
            .sort_unstable_by(|a, b| a.index.cmp(&b.index));
        out.quarantine
            .extend(part.quarantine.into_iter().map(|g| (m, g)));
    }
    out
}

/// Opens an executor for `ctx`, runs `body` against it, and reports the
/// executor's scheduling statistics. Spawns `ctx.threads` workers once
/// (none when `ctx.threads == 1`) and shuts them down after `body`.
///
/// # Panics
///
/// Panics if `ctx.threads == 0`, and when *every* worker died (total
/// loss): the coordinator re-raises at its quiesce wait, after all
/// threads have been joined so no worker outlives the borrowed context.
/// Partial losses are supervised: survivors redo the dead workers'
/// unmerged ranges and the run completes with bit-identical aggregates.
pub(crate) fn execute<'a, R>(
    ctx: ExecCtx<'a>,
    body: impl FnOnce(&mut Executor<'_, 'a>) -> R,
) -> (R, SchedulerStats) {
    assert!(ctx.threads > 0, "need at least one thread");
    if ctx.threads == 1 {
        let mut worker = Worker::new(&ctx);
        let result = body(&mut Executor {
            ctx: &ctx,
            workers: Workers::Serial(&mut worker),
        });
        let (groups, _, counters) = worker.tally();
        let sched = SchedulerStats {
            worker_groups: vec![groups],
            thread_spawns: 0,
            workers_lost: 0,
            // Moving on to the next slice on the only thread steals
            // from nobody.
            steals: 0,
            counters,
        };
        return (result, sched);
    }
    let shared = Shared {
        sync: StdSync::new(ctx.threads),
        plane: Mutex::new(Plane {
            job: None,
            parts: Vec::new(),
        }),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|_| {
                let (ctx, shared) = (&ctx, &shared);
                scope.spawn(move || serve(ctx, shared))
            })
            .collect();
        let result = {
            // Shut the workers down even when `body` unwinds, so the
            // scope's implicit joins cannot deadlock.
            let _shutdown = ShutdownOnDrop(&shared.sync);
            body(&mut Executor {
                ctx: &ctx,
                workers: Workers::Pool(&shared),
            })
        };
        let mut sched = SchedulerStats {
            worker_groups: Vec::with_capacity(ctx.threads),
            thread_spawns: ctx.threads as u64,
            workers_lost: 0,
            steals: 0,
            counters: EngineCounters::default(),
        };
        for h in handles {
            match h.join() {
                Ok((groups, steals, counters)) => {
                    sched.worker_groups.push(groups);
                    sched.steals += steals;
                    sched.counters.merge(counters);
                }
                // A supervised death: its guard already settled the
                // accounting (resubmission or, on total loss, the
                // coordinator's re-raise), so the payload is spent —
                // record the loss and move on.
                Err(_) => {
                    sched.worker_groups.push(0);
                    sched.workers_lost += 1;
                }
            }
        }
        (result, sched)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DesEngine;
    use crate::run::DEFAULT_CLAIM_BATCH;
    use std::sync::atomic::AtomicBool;

    /// Panics on its first progress callback, killing the worker that
    /// makes it.
    struct PanicOnce(AtomicBool);

    impl StreamObserver for PanicOnce {
        fn on_progress(&self, _progress: Progress) {
            assert!(!self.0.swap(false, Ordering::SeqCst), "injected panic");
        }
    }

    /// A worker that dies after handing over some histories has its
    /// unmerged ranges redone; the redo fills the same slots again, so
    /// the run returns exactly the serial run's histories, with no
    /// group missing or kept twice.
    #[test]
    fn a_history_sink_that_loses_a_worker_keeps_one_history_per_group() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        let engine = DesEngine::new();
        let (groups, seed) = (4 * PROGRESS_STRIDE, 29);
        let run = |threads: usize, observer: &dyn StreamObserver| {
            let sink = HistorySink::new(1);
            let done = AtomicU64::new(0);
            let ctx = ExecCtx {
                engine: &engine,
                scenarios: vec![ScenarioRef { cfg: &cfg, seed }],
                bias: BiasPolicy::None,
                tuning: SessionTuning::default(),
                threads,
                claim_batch: DEFAULT_CLAIM_BATCH,
                observer,
                done: &done,
                target: groups,
                histories: Some(&sink),
            };
            let (_, sched) = execute(ctx, |exec| exec.run(vec![Slice::range(0, groups)]));
            (sink, sched)
        };
        let (serial, _) = run(1, &());
        let serial = serial.into_histories();
        let (survived, sched) = run(3, &PanicOnce(AtomicBool::new(true)));
        assert!(
            sched.workers_lost >= 1,
            "the observer panic must kill a worker"
        );
        assert_eq!(survived.into_histories(), serial);
        assert_eq!(serial[0].len() as u64, groups);
    }
}
