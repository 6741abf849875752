//! Synchronization model of the worker pool: the [`SyncOps`] seam and
//! an exhaustive interleaving checker for the epoch handshake — the
//! pool's one protocol.
//!
//! Every job the executor in [`crate::pool`] serves is one *epoch*: a
//! list of slices whose claim cursors are all installed before the
//! guarded publish. A driver batch is an epoch of one slice; a fused
//! sweep is one epoch with a slice per scenario. A worker that drains a
//! slice moves on to the next one locally, with no guarded step, and
//! checks out after the last.
//!
//! The pool's correctness argument ("the last check-out is the quiesce
//! point, so the finished set is always an exact prefix of the
//! group-index space") used to rest on property tests that *sample* a
//! handful of interleavings. This module machine-checks it instead:
//!
//! * **[`PoolCore`]** is the pure control state of the protocol —
//!   epoch counter, published job, active-worker count, shutdown and
//!   panic latches — with every guarded transition expressed as a
//!   method (`publish`, `worker_poll`, `check_out`, `quiesce_poll`,
//!   `retire`, `request_shutdown`, `mark_panicked`). The production
//!   pool in [`crate::pool`] executes **these exact methods** inside
//!   its mutex; the model checker executes the same methods from a
//!   virtual scheduler. There is one copy of the protocol logic.
//! * **[`SyncOps`]** abstracts the synchronization substrate the
//!   transitions run on. [`StdSync`] is the production implementation
//!   (one `Mutex<PoolCore>`, two `Condvar`s, with the
//!   atomic-release-and-wait semantics `poll_until` documents).
//!   [`check`] interprets the same operations with a virtual scheduler:
//!   `guarded` is one atomic step, a failed poll atomically parks the
//!   virtual thread on its condition variable, and `wake` moves parked
//!   threads back to runnable.
//! * **[`check`]** runs a depth-first search over *every* scheduling
//!   decision of a bounded [`Scenario`] (workers × epochs × slices ×
//!   claims),
//!   pruning on exact encoded states (not lossy hashes, so pruning can
//!   never mask a violation). At every state it asserts: no group index
//!   is ever merged twice (no double-claimed batch), the simulated
//!   set at each quiesce point is exactly the prefix `[0, hi)` (the
//!   checkpoint watermark), a supervised worker death resubmits its
//!   unmerged ranges so survivors finish the epoch with full coverage
//!   (while a *total* loss aborts, propagating to the coordinator's
//!   quiesce wait with every worker exiting), and no reachable state
//!   strands a sleeping thread with nobody left to wake it (no lost
//!   wakeup, no deadlock).
//!
//! The model's faithfulness argument, step by step, is laid out in
//! DESIGN.md §15. Its key reductions: scheduling decisions only matter
//! at synchronization points, so each lock region is one atomic step
//! (regions are serialized by the mutex in production); purely local
//! work (simulating the groups of one claimed range) commutes with
//! everything and is folded into one step; and the epoch accumulators
//! are exact-integer state whose merges commute bit-identically, so the
//! model tracks *which* indices were simulated rather than their
//! values. [`Mutation`]s deliberately break the protocol — dropping a
//! wakeup, parking outside the lock, under-counting `active` — and the
//! test suite asserts the checker catches every one, so "the model
//! found no violation" is evidence about the protocol, not about a
//! checker too weak to see bugs.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, PoisonError};

/// The pool's two condition variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cv {
    /// Workers wait here for the next epoch (or shutdown).
    Work,
    /// The coordinator waits here for the epoch to quiesce.
    Quiesced,
}

/// Which waiters a guarded transition requires waking. Returned by the
/// [`PoolCore`] transitions so neither implementation can forget a
/// notification — dropping one is exactly the lost-wakeup class the
/// checker exists to rule out (and [`Mutation::SkipPublishWake`] proves
/// it would catch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an unapplied Wake is a lost wakeup"]
pub enum Wake {
    /// No waiter needs waking.
    None,
    /// Wake every worker parked on [`Cv::Work`].
    Work,
    /// Wake the coordinator parked on [`Cv::Quiesced`].
    Quiesced,
    /// Wake both sides (panic propagation).
    Both,
}

/// Control metadata of one published epoch (one job: a driver batch,
/// a shard, a whole run, or a fused sweep).
///
/// Deliberately `Copy`. The job's slices, their claim cursors and the
/// epoch accumulators are data, not control, and live outside
/// [`PoolCore`] (behind a plain mutex in production, as bookkeeping in
/// the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Lowest group index of the job's slices (inclusive).
    pub lo: u64,
    /// One past the highest group index of the job's slices.
    pub hi: u64,
    /// `true`: collect per-batch histories; `false`: stream into the
    /// epoch accumulators.
    pub collect: bool,
}

/// Pure control state of the epoch handshake.
///
/// `epoch` strictly increases; a worker serves a job exactly once per
/// epoch (it tracks the last epoch it served and only accepts a newer
/// one). The invariants the transitions preserve — checked in every
/// interleaving by [`check`] — are listed in the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolCore {
    /// Current epoch number; `0` before the first publish.
    pub epoch: u64,
    /// The published job, `Some` from publish to retire.
    pub job: Option<JobSpec>,
    /// Workers still draining the current epoch.
    pub active: usize,
    /// Set once; workers exit at their next idle poll.
    pub shutdown: bool,
    /// Set by a worker's panic guard; observed at the quiesce wait.
    pub panicked: bool,
    /// Workers that died (panicked) over the pool's lifetime and were
    /// supervised out (see [`PoolCore::mark_lost`]).
    pub lost: usize,
    /// `[start, end)` group ranges a dead worker claimed but never
    /// merged, awaiting a survivor. Living in the *control* state —
    /// not the data plane — is what makes supervision race-free:
    /// [`PoolCore::check_out`] inspects this queue in the same guarded
    /// step as the check-out decision, so no interleaving can quiesce
    /// an epoch while resubmitted work is unserved.
    pub resubmit: Vec<(u64, u64)>,
    threads: usize,
}

/// A worker's idle-poll outcome ([`PoolCore::worker_poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerPoll {
    /// Shutdown requested: exit the serve loop.
    Shutdown,
    /// A new epoch is published: serve it (the `u64` is the epoch to
    /// record as seen).
    Job(JobSpec, u64),
    /// Nothing new: wait on [`Cv::Work`].
    Wait,
}

/// A worker's check-out outcome ([`PoolCore::check_out`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Checked out; deliver the wake.
    Out(Wake),
    /// A dead worker's resubmitted range is waiting: the caller takes
    /// it, stays checked in, and checks out again after merging it.
    Redo((u64, u64)),
}

/// The coordinator's quiesce-poll outcome ([`PoolCore::quiesce_poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuiescePoll {
    /// Every worker has checked out of the epoch.
    Quiesced,
    /// A worker panicked; re-raise after retiring the job.
    Panicked,
    /// Workers still active: wait on [`Cv::Quiesced`].
    Wait,
}

impl PoolCore {
    /// Fresh pool state for `threads` workers.
    pub fn new(threads: usize) -> Self {
        PoolCore {
            epoch: 0,
            job: None,
            active: 0,
            shutdown: false,
            panicked: false,
            lost: 0,
            resubmit: Vec::new(),
            threads,
        }
    }

    /// Workers still alive (spawned minus supervised-out deaths).
    pub fn alive(&self) -> usize {
        self.threads - self.lost
    }

    /// Coordinator: publishes `spec` as the next epoch and arms the
    /// active count with the *surviving* worker population. Requires
    /// the previous epoch to have fully quiesced (`active == 0`) — the
    /// model checker proves every interleaving satisfies this.
    pub fn publish(&mut self, spec: JobSpec) -> Wake {
        debug_assert_eq!(self.active, 0, "previous epoch fully quiesced");
        debug_assert!(
            self.resubmit.is_empty(),
            "an epoch cannot quiesce with resubmitted work unserved"
        );
        self.epoch += 1;
        self.job = Some(spec);
        self.active = self.alive();
        Wake::Work
    }

    /// Worker: decides, under the lock, whether to exit, serve a newly
    /// published epoch, or keep waiting. Shutdown wins over a pending
    /// job, matching the panic path (a panicked pool must drain its
    /// workers, not hand them more work).
    pub fn worker_poll(&self, seen_epoch: u64) -> WorkerPoll {
        if self.shutdown {
            return WorkerPoll::Shutdown;
        }
        if self.epoch > seen_epoch {
            let spec = self
                .job
                .expect("a published epoch carries a job (model-checked)");
            return WorkerPoll::Job(spec, self.epoch);
        }
        WorkerPoll::Wait
    }

    /// Worker: attempts to check out of the current epoch after merging
    /// its partial results. If a dead worker's resubmitted range is
    /// waiting, the check-out is *refused*: the caller takes the range,
    /// stays checked in, and tries again after simulating and merging
    /// it. Otherwise the worker checks out, and the last one out wakes
    /// the coordinator.
    ///
    /// Taking the range and deciding the check-out in one guarded step
    /// closes the race this queue would otherwise have: no worker can
    /// slip out between a death's resubmission and the quiesce point,
    /// so the queue is provably empty whenever the epoch quiesces.
    ///
    /// The decrement cannot underflow: each worker checks out exactly
    /// once per epoch it accepted (guarded by its seen-epoch counter)
    /// and `publish` armed `active` with the worker count — an argument
    /// the model checker verifies in every interleaving.
    pub fn check_out(&mut self) -> CheckOutcome {
        if let Some(range) = self.resubmit.pop() {
            return CheckOutcome::Redo(range);
        }
        self.active -= 1;
        if self.active == 0 {
            CheckOutcome::Out(Wake::Quiesced)
        } else {
            CheckOutcome::Out(Wake::None)
        }
    }

    /// Coordinator: polls the quiesce condition. Panic wins over an
    /// apparent quiesce so a re-raise is never missed.
    pub fn quiesce_poll(&self) -> QuiescePoll {
        if self.panicked {
            QuiescePoll::Panicked
        } else if self.active == 0 {
            QuiescePoll::Quiesced
        } else {
            QuiescePoll::Wait
        }
    }

    /// Coordinator: clears the published job after the quiesce point
    /// (reached normally or through a panic).
    pub fn retire(&mut self) {
        self.job = None;
    }

    /// Coordinator (or its drop guard): requests worker shutdown.
    pub fn request_shutdown(&mut self) -> Wake {
        self.shutdown = true;
        Wake::Work
    }

    /// A worker's panic guard: latch the panic, force shutdown, and
    /// wake both sides so the coordinator re-raises at its quiesce wait
    /// instead of deadlocking.
    ///
    /// This is the *unsupervised* path, kept for total loss: when the
    /// last alive worker dies there is nobody left to resubmit work to,
    /// so the run must abort. Supervised single-worker deaths go
    /// through [`PoolCore::mark_lost`] instead.
    pub fn mark_panicked(&mut self) -> Wake {
        self.panicked = true;
        self.shutdown = true;
        Wake::Both
    }

    /// A worker's supervision guard, on that worker's death (panic
    /// unwinding through its serve loop): accounts the loss and
    /// resubmits the worker's unmerged claimed ranges so the pool keeps
    /// functioning with the survivors.
    ///
    /// * `seen_epoch` — the last epoch the dead worker *accepted*.
    /// * `serving` — `true` when death struck between accepting an
    ///   epoch and checking out of it.
    /// * `remainder` — every range the dead worker claimed since its
    ///   serve began, completed ones included: its private accumulator
    ///   died with it, so nothing it did this epoch was published.
    ///   Survivors redo them against the same per-group RNG streams,
    ///   reproducing the lost results bit-identically. Non-empty
    ///   implies `serving`.
    ///
    /// Decision table, proved over every interleaving by the model
    /// checker and unit-tested directly for the paths the model elides:
    ///
    /// * Last alive worker: degenerate to [`PoolCore::mark_panicked`] —
    ///   total loss aborts the run.
    /// * The dead worker owes the epoch a check-out if it was serving,
    ///   **or** if an epoch it never accepted is in flight (`publish`
    ///   armed `active` counting it — dying idle before accepting must
    ///   not leave the coordinator waiting forever).
    /// * While any survivor is still checked in (`active > 0`), nothing
    ///   more is needed: its own [`PoolCore::check_out`] must inspect
    ///   the queue before it can leave, so the remainder is served.
    /// * If this death's check-out would quiesce the epoch with the
    ///   queue non-empty, the epoch is *re-armed* instead: `epoch`
    ///   advances (same job) and `active` is armed with the survivor
    ///   count. Every survivor has already accepted and checked out of
    ///   the old epoch number (that is what `active == 0` means), so
    ///   each serves exactly once more and the queue drains.
    pub fn mark_lost(
        &mut self,
        seen_epoch: u64,
        serving: bool,
        remainder: Vec<(u64, u64)>,
    ) -> Wake {
        debug_assert!(
            remainder.is_empty() || serving,
            "resubmission implies serving"
        );
        self.resubmit.extend(remainder);
        self.lost += 1;
        if self.lost == self.threads {
            return self.mark_panicked();
        }
        let owes = serving || (self.job.is_some() && self.epoch > seen_epoch);
        if owes {
            self.active -= 1;
        }
        if self.active == 0 && !self.resubmit.is_empty() {
            self.epoch += 1;
            self.active = self.alive();
            return Wake::Work;
        }
        if owes && self.active == 0 {
            return Wake::Quiesced;
        }
        Wake::None
    }
}

/// Computes the half-open range claimed by a cursor step that read
/// `start` before advancing by `claim`: `None` once `start` passes
/// `hi`, otherwise `[start, min(start + claim, hi))`.
///
/// This is the single copy of the claim arithmetic: the production
/// [`crate::run`] cursor applies it to an `AtomicU64` fetch-add, the
/// model checker applies it to a virtual cursor, so "every index handed
/// out exactly once" is proved for the arithmetic both sides run.
pub fn claim_range(start: u64, hi: u64, claim: u64) -> Option<(u64, u64)> {
    debug_assert!(claim > 0, "claim batch must be positive");
    if start >= hi {
        return None;
    }
    Some((start, (start + claim).min(hi)))
}

/// Clamps the configured claim-batch size so a single epoch is never
/// starved: with `eff = min(configured, max(1, count / (8·threads)))`
/// the epoch yields `ceil(count / eff)` batches, which is at least
/// `min(threads, count)` — whenever there are at least as many groups
/// as workers, every worker can claim work. (If `count ≥ 8·threads`,
/// `eff·8·threads ≤ count`, so there are at least `8·threads` batches;
/// otherwise `eff == 1` and there are `count` batches.) The factor of
/// eight keeps a tail of small batches available to re-balance workers
/// stuck on expensive groups; it was four until `BENCH_parallel.json`
/// showed a fast first worker draining a whole 400-group epoch
/// (`balance: 0.0000`) before its peers were scheduled — when `count`
/// is near `threads · configured`, halving the clamp doubles the
/// number of late batches a waking worker can still claim.
pub fn effective_claim(configured: u64, count: u64, threads: u64) -> u64 {
    debug_assert!(configured > 0 && threads > 0);
    configured.min((count / (threads * 8)).max(1))
}

/// The synchronization substrate the pool protocol runs on.
///
/// Production uses [`StdSync`]; the model checker interprets the same
/// three operations under a virtual scheduler (each `guarded` call is
/// one atomic step, a failed poll atomically parks the caller, `wake`
/// makes parked threads runnable again). The semantics `poll_until`
/// promises — the predicate check and the transition to waiting are
/// atomic with respect to other `guarded` sections — is precisely what
/// `std::sync::Condvar::wait` provides and what the virtual scheduler
/// models; breaking that atomicity is [`Mutation::NonAtomicPark`], and
/// the checker demonstrably catches it.
pub trait SyncOps {
    /// Runs one guarded protocol transition atomically with respect to
    /// every other `guarded` and `poll_until` section.
    fn guarded<R>(&self, f: impl FnOnce(&mut PoolCore) -> R) -> R;

    /// Runs `poll` under the state lock; on `None` the lock is
    /// atomically released and the caller sleeps on `cv` until a wake,
    /// then retries. Returns the first `Some`.
    fn poll_until<R>(&self, cv: Cv, poll: impl FnMut(&mut PoolCore) -> Option<R>) -> R;

    /// Delivers the wakeups a guarded transition requested.
    fn wake(&self, wake: Wake);
}

/// Production [`SyncOps`]: one mutex over [`PoolCore`] plus the two
/// condition variables. Lock poisoning is deliberately ignored
/// (`PoisonError::into_inner`): every guarded section leaves the state
/// consistent on its own, and the panic path must be able to make
/// progress through the same lock it poisoned.
#[derive(Debug)]
pub struct StdSync {
    state: Mutex<PoolCore>,
    work: Condvar,
    quiesced: Condvar,
}

impl StdSync {
    /// Fresh production sync state for `threads` workers.
    pub fn new(threads: usize) -> Self {
        StdSync {
            state: Mutex::new(PoolCore::new(threads)),
            work: Condvar::new(),
            quiesced: Condvar::new(),
        }
    }

    fn cv(&self, cv: Cv) -> &Condvar {
        match cv {
            Cv::Work => &self.work,
            Cv::Quiesced => &self.quiesced,
        }
    }
}

impl SyncOps for StdSync {
    fn guarded<R>(&self, f: impl FnOnce(&mut PoolCore) -> R) -> R {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut st)
    }

    fn poll_until<R>(&self, cv: Cv, mut poll: impl FnMut(&mut PoolCore) -> Option<R>) -> R {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = poll(&mut st) {
                return r;
            }
            st = self.cv(cv).wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn wake(&self, wake: Wake) {
        match wake {
            Wake::None => {}
            Wake::Work => self.work.notify_all(),
            Wake::Quiesced => self.quiesced.notify_all(),
            Wake::Both => {
                self.work.notify_all();
                self.quiesced.notify_all();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Model checker
// ---------------------------------------------------------------------

/// Deliberate protocol breakages, used to prove the checker can detect
/// the bug classes it claims to rule out. [`check`] must report a
/// violation for every non-`None` mutation (the test suite asserts
/// this); production code never runs mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The faithful protocol.
    None,
    /// The coordinator publishes an epoch but never wakes the workers:
    /// the classic dropped-notify lost wakeup.
    SkipPublishWake,
    /// The last worker checks out but never wakes the coordinator.
    SkipCheckoutWake,
    /// A dying worker accounts its loss but wakes nobody — survivors
    /// parked on [`Cv::Work`] never learn the epoch was re-armed.
    SkipPanicWake,
    /// Workers check their wait predicate and *then* park in a separate
    /// step (the check-then-sleep race `Condvar::wait`'s atomic
    /// release-and-wait exists to prevent).
    NonAtomicPark,
    /// `publish` arms `active` with one worker too few, so the epoch
    /// can quiesce before the last worker has merged its results.
    UnderCountActive,
    /// A dying worker's supervision guard reports the death but
    /// discards its unmerged claimed ranges instead of resubmitting
    /// them — the lost-remainder bug the watermark invariant exists to
    /// catch.
    DropRemainder,
}

/// A bounded pool schedule for the checker to exhaust.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Worker count (the coordinator is an additional virtual thread).
    pub workers: usize,
    /// The published jobs in order, each a list of slices given as
    /// `[lo, hi)` group-index ranges, all installed at publish with a
    /// cursor each. The standard scenarios tile a prefix starting at 0,
    /// matching the drivers in [`crate::run`] (a driver batch is one
    /// slice; a fused sweep is one epoch with a slice per scenario);
    /// overlapping ranges are accepted and are caught as double-claim
    /// violations (a seeded-violation test).
    pub epochs: Vec<Vec<(u64, u64)>>,
    /// Configured claim size; each slice applies [`effective_claim`].
    pub claim: u64,
    /// If `Some(i)`, simulating group index `i` panics (after the
    /// indices claimed before it in the same batch completed). One-shot
    /// by default: the first worker to reach the index dies and the
    /// fault disarms, so its resubmitted range succeeds on a survivor.
    pub panic_at: Option<u64>,
    /// Make `panic_at` persistent: *every* worker that simulates the
    /// index dies, so supervision must escalate to a total-loss abort.
    pub sticky: bool,
    /// Allow spurious wakeups: any parked thread may wake at any time.
    /// The protocol must be correct under both condvar contracts.
    pub spurious: bool,
    /// Protocol breakage to inject (see [`Mutation`]).
    pub mutation: Mutation,
}

impl Scenario {
    /// A faithful scenario over contiguous prefix epochs of one slice
    /// each (driver batches).
    pub fn new(workers: usize, epochs: Vec<(u64, u64)>, claim: u64) -> Self {
        Scenario {
            workers,
            epochs: epochs.into_iter().map(|e| vec![e]).collect(),
            claim,
            panic_at: None,
            sticky: false,
            spurious: false,
            mutation: Mutation::None,
        }
    }

    /// A faithful fused-sweep scenario: one epoch with one slice per
    /// entry of `counts`, the slices tiling `[0, Σ counts)` in order.
    pub fn sweep(workers: usize, counts: Vec<u64>, claim: u64) -> Self {
        let mut lo = 0;
        let slices = counts
            .into_iter()
            .map(|count| {
                lo += count;
                (lo - count, lo)
            })
            .collect();
        Scenario {
            workers,
            epochs: vec![slices],
            claim,
            panic_at: None,
            sticky: false,
            spurious: false,
            mutation: Mutation::None,
        }
    }

    /// One past the last index of epoch `k` (its last slice's `hi`).
    fn epoch_hi(&self, k: usize) -> u64 {
        self.epochs[k].last().map_or(0, |&(_, hi)| hi)
    }

    /// Total group count across all epochs (assumes prefix epochs).
    fn total(&self) -> u64 {
        self.epochs
            .len()
            .checked_sub(1)
            .map_or(0, |k| self.epoch_hi(k))
    }

    /// Whether the configured panic fault can actually fire.
    fn poison_reachable(&self) -> bool {
        self.panic_at.is_some_and(|i| i < self.total())
    }

    /// Whether the run is expected to abort (re-raise a panic): the
    /// fault kills every worker, either because it never disarms or
    /// because there is no survivor to resubmit to.
    fn expect_abort(&self) -> bool {
        self.poison_reachable() && (self.sticky || self.workers == 1)
    }
}

/// What the exhaustive search found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelReport {
    /// Distinct states explored (after pruning on exact state
    /// encodings).
    pub states: u64,
    /// Distinct complete schedules through the pruned state graph
    /// (path count, saturating at `u64::MAX`).
    pub interleavings: u64,
    /// Longest scheduling-step sequence from the initial state to a
    /// terminal state.
    pub max_depth: usize,
    /// The first invariant violation found, if any. `None` means every
    /// reachable interleaving satisfies every invariant.
    pub violation: Option<String>,
}

/// Virtual-thread program counter for one worker. Each variant's step
/// mirrors one synchronization action of the production worker in
/// [`crate::pool`] (see DESIGN.md §15 for the line-by-line map).
#[derive(Debug, Clone, PartialEq, Eq)]
enum WorkerPc {
    /// About to run the idle poll (one `guarded` step; parks
    /// atomically on `Wait` — except under `NonAtomicPark`).
    Idle,
    /// `NonAtomicPark` only: decided to park, not yet parked.
    PrePark,
    /// Parked on [`Cv::Work`].
    ParkedWork,
    /// About to fetch-add on the epoch cursor.
    Claim,
    /// Simulating the claimed range `[cur, end)` (one step; panics at
    /// `panic_at` if it lies in the range and the fault is armed).
    Simulate { cur: u64, end: u64 },
    /// About to run the guarded merge-and-check-out step (which may
    /// hand back a resubmitted range instead of checking out).
    CheckOut,
    /// Check-out said this worker was last: deliver the quiesce wake.
    WakeQuiesced,
    /// Supervision guard, dying: about to run the guarded
    /// [`PoolCore::mark_lost`] with the unmerged claimed ranges.
    MarkLost,
    /// Supervision guard, dying: about to deliver the wake `mark_lost`
    /// requested.
    WakeDeath { wake: Wake },
    /// Serve loop exited (normally or by death).
    Exited,
}

/// Virtual-thread program counter for the coordinator, covering the
/// driver loop over `scenario.epochs` plus the shutdown/join tail.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CoordPc {
    /// About to install the epoch data (every slice's cursor) and run
    /// the guarded publish.
    Publish,
    /// About to deliver the publish wake.
    WakeWorkers,
    /// About to run the quiesce poll (parks atomically on `Wait`).
    Await,
    /// Parked on [`Cv::Quiesced`].
    ParkedQuiesced,
    /// About to run the guarded retire; `panicked: true` re-raises.
    Retire { panicked: bool },
    /// About to run the guarded shutdown request (drop guard).
    Shutdown { panicked: bool },
    /// About to deliver the shutdown wake.
    WakeShutdown { panicked: bool },
    /// Joining worker threads (runnable once every worker has exited).
    Join { panicked: bool },
    /// Run complete.
    Done { panicked: bool },
}

/// One reachable state of the virtual pool.
#[derive(Debug, Clone)]
struct ModelState {
    core: PoolCore,
    /// Virtual claim cursors of the current epoch, one per slice, each
    /// `(next, hi, claim)`.
    cursors: Vec<(u64, u64, u64)>,
    /// Whether `scenario.panic_at` can still fire (one-shot faults
    /// disarm at the first death; sticky faults never do).
    panic_armed: bool,
    /// Index into `scenario.epochs` of the next epoch to publish.
    epoch_idx: usize,
    coord: CoordPc,
    workers: Vec<WorkerState>,
    /// Sorted global set of *merged* group indices — the epoch
    /// accumulator's coverage, updated at each worker's check-out.
    simulated: Vec<u64>,
}

#[derive(Debug, Clone)]
struct WorkerState {
    pc: WorkerPc,
    seen_epoch: u64,
    /// Index of the slice this worker is draining, reset to 0 each
    /// time it accepts an epoch (a re-armed epoch makes survivors skate
    /// over the exhausted cursors to the redo queue).
    slice: u64,
    /// Ranges claimed since this worker's current serve began, none of
    /// them merged yet (the production supervision guard's pending
    /// list). Resubmitted wholesale if the worker dies; cleared at the
    /// merge.
    pending: Vec<(u64, u64)>,
    /// Indices this worker simulated but has not merged (its private
    /// accumulator). Moved into `ModelState::simulated` at check-out;
    /// discarded if the worker dies — that is exactly why `pending`
    /// must resubmit even completed ranges.
    local: Vec<u64>,
}

impl ModelState {
    fn initial(scenario: &Scenario) -> Self {
        ModelState {
            core: PoolCore::new(scenario.workers),
            cursors: Vec::new(),
            panic_armed: scenario.panic_at.is_some(),
            epoch_idx: 0,
            coord: CoordPc::Publish,
            workers: vec![
                WorkerState {
                    pc: WorkerPc::Idle,
                    seen_epoch: 0,
                    slice: 0,
                    pending: Vec::new(),
                    local: Vec::new(),
                };
                scenario.workers
            ],
            simulated: Vec::new(),
        }
    }

    /// Exact canonical encoding, used as the pruning key. Everything
    /// that can influence future behavior or a future invariant check
    /// is included, so pruning is sound by construction.
    fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        let push = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push(out, self.core.epoch);
        push(out, self.core.active as u64);
        push(out, self.core.lost as u64);
        out.push(u8::from(self.core.shutdown));
        out.push(u8::from(self.core.panicked));
        out.push(u8::from(self.panic_armed));
        push(out, self.core.resubmit.len() as u64);
        for &(lo, hi) in &self.core.resubmit {
            push(out, lo);
            push(out, hi);
        }
        match self.core.job {
            None => out.push(0),
            Some(spec) => {
                out.push(1);
                push(out, spec.lo);
                push(out, spec.hi);
                out.push(u8::from(spec.collect));
            }
        }
        push(out, self.cursors.len() as u64);
        for &(next, hi, claim) in &self.cursors {
            push(out, next);
            push(out, hi);
            push(out, claim);
        }
        push(out, self.epoch_idx as u64);
        encode_coord(&self.coord, out);
        for w in &self.workers {
            push(out, w.seen_epoch);
            push(out, w.slice);
            encode_worker(&w.pc, out);
            push(out, w.pending.len() as u64);
            for &(lo, hi) in &w.pending {
                push(out, lo);
                push(out, hi);
            }
            push(out, w.local.len() as u64);
            for &i in &w.local {
                push(out, i);
            }
        }
        push(out, self.simulated.len() as u64);
        for &i in &self.simulated {
            push(out, i);
        }
    }
}

fn encode_coord(pc: &CoordPc, out: &mut Vec<u8>) {
    let (tag, flag) = match pc {
        CoordPc::Publish => (0u8, false),
        CoordPc::WakeWorkers => (1, false),
        CoordPc::Await => (2, false),
        CoordPc::ParkedQuiesced => (3, false),
        CoordPc::Retire { panicked } => (4, *panicked),
        CoordPc::Shutdown { panicked } => (5, *panicked),
        CoordPc::WakeShutdown { panicked } => (6, *panicked),
        CoordPc::Join { panicked } => (7, *panicked),
        CoordPc::Done { panicked } => (8, *panicked),
    };
    out.push(tag);
    out.push(u8::from(flag));
}

fn encode_worker(pc: &WorkerPc, out: &mut Vec<u8>) {
    match pc {
        WorkerPc::Idle => out.push(0),
        WorkerPc::PrePark => out.push(1),
        WorkerPc::ParkedWork => out.push(2),
        WorkerPc::Claim => out.push(3),
        WorkerPc::Simulate { cur, end } => {
            out.push(4);
            out.extend_from_slice(&cur.to_le_bytes());
            out.extend_from_slice(&end.to_le_bytes());
        }
        WorkerPc::CheckOut => out.push(5),
        WorkerPc::WakeQuiesced => out.push(6),
        WorkerPc::MarkLost => out.push(7),
        WorkerPc::Exited => out.push(9),
        WorkerPc::WakeDeath { wake } => {
            out.push(8);
            out.push(match wake {
                Wake::None => 0,
                Wake::Work => 1,
                Wake::Quiesced => 2,
                Wake::Both => 3,
            });
        }
    }
}

/// A scheduler decision: which virtual thread steps next (or a spurious
/// wakeup of a parked thread, when the scenario allows them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Coordinator,
    Worker(usize),
    SpuriousWorker(usize),
    SpuriousCoordinator,
}

/// Exhaustively explores every interleaving of `scenario` and checks
/// the pool invariants in each reachable state.
///
/// The search is a depth-first traversal of the scheduling tree with
/// memoization on exact state encodings: two schedules that reach the
/// same state share their entire future, so each distinct state is
/// expanded once. `interleavings` counts complete schedules through
/// the resulting graph (the number a pruning-free search would
/// enumerate), saturating at `u64::MAX`.
pub fn check(scenario: &Scenario) -> ModelReport {
    let mut explorer = Explorer {
        scenario,
        memo: BTreeMap::new(),
        max_depth: 0,
        violation: None,
        key_buf: Vec::new(),
    };
    let interleavings = explorer.explore(&ModelState::initial(scenario), 0);
    ModelReport {
        states: explorer.memo.len() as u64,
        interleavings,
        max_depth: explorer.max_depth,
        violation: explorer.violation,
    }
}

struct Explorer<'a> {
    scenario: &'a Scenario,
    /// Encoded state → number of complete schedules reachable from it.
    memo: BTreeMap<Vec<u8>, u64>,
    max_depth: usize,
    violation: Option<String>,
    key_buf: Vec<u8>,
}

impl Explorer<'_> {
    /// Returns the (saturating) number of schedules from `state`.
    fn explore(&mut self, state: &ModelState, depth: usize) -> u64 {
        if self.violation.is_some() {
            return 0;
        }
        self.max_depth = self.max_depth.max(depth);
        state.encode(&mut self.key_buf);
        if let Some(&paths) = self.memo.get(&self.key_buf) {
            return paths;
        }
        // Mark in-progress with 0 paths; the protocol has no cycles
        // back to an unfinished ancestor (epochs and the simulated set
        // grow monotonically along every edge that returns to a parked
        // or idle pc), so this is only ever read back for genuinely
        // explored states.
        let key = self.key_buf.clone();
        self.memo.insert(key.clone(), 0);

        let decisions = self.runnable(state);
        let paths = if decisions.is_empty() {
            match self.check_terminal(state) {
                Ok(()) => 1,
                Err(v) => {
                    self.violation.get_or_insert(v);
                    0
                }
            }
        } else {
            let mut total: u64 = 0;
            for d in decisions {
                let mut next = state.clone();
                if let Err(v) = self.apply(&mut next, d) {
                    self.violation.get_or_insert(v);
                    return 0;
                }
                total = total.saturating_add(self.explore(&next, depth + 1));
                if self.violation.is_some() {
                    return 0;
                }
            }
            total
        };
        self.memo.insert(key, paths);
        paths
    }

    fn runnable(&self, state: &ModelState) -> Vec<Decision> {
        let mut out = Vec::new();
        match &state.coord {
            CoordPc::ParkedQuiesced => {
                if self.scenario.spurious {
                    out.push(Decision::SpuriousCoordinator);
                }
            }
            CoordPc::Join { .. } => {
                if state.workers.iter().all(|w| w.pc == WorkerPc::Exited) {
                    out.push(Decision::Coordinator);
                }
            }
            CoordPc::Done { .. } => {}
            _ => out.push(Decision::Coordinator),
        }
        for (i, w) in state.workers.iter().enumerate() {
            match w.pc {
                WorkerPc::ParkedWork => {
                    if self.scenario.spurious {
                        out.push(Decision::SpuriousWorker(i));
                    }
                }
                WorkerPc::Exited => {}
                _ => out.push(Decision::Worker(i)),
            }
        }
        out
    }

    /// Applies one scheduling decision, checking step-local invariants.
    fn apply(&self, state: &mut ModelState, decision: Decision) -> Result<(), String> {
        match decision {
            Decision::SpuriousWorker(i) => {
                // A spurious wake returns the worker to its idle poll;
                // the predicate re-check is what makes spurious
                // wakeups harmless.
                state.workers[i].pc = WorkerPc::Idle;
                Ok(())
            }
            Decision::SpuriousCoordinator => {
                state.coord = CoordPc::Await;
                Ok(())
            }
            Decision::Coordinator => self.step_coordinator(state),
            Decision::Worker(i) => self.step_worker(state, i),
        }
    }

    fn deliver(&self, state: &mut ModelState, wake: Wake) {
        let (work, quiesced) = match wake {
            Wake::None => (false, false),
            Wake::Work => (true, false),
            Wake::Quiesced => (false, true),
            Wake::Both => (true, true),
        };
        if work {
            for w in &mut state.workers {
                if w.pc == WorkerPc::ParkedWork {
                    w.pc = WorkerPc::Idle;
                }
            }
        }
        if quiesced && state.coord == CoordPc::ParkedQuiesced {
            state.coord = CoordPc::Await;
        }
    }

    fn step_coordinator(&self, state: &mut ModelState) -> Result<(), String> {
        match state.coord.clone() {
            CoordPc::Publish => {
                if state.core.active != 0 {
                    return Err(format!(
                        "publish with {} workers still active in the previous epoch",
                        state.core.active
                    ));
                }
                let slices = &self.scenario.epochs[state.epoch_idx];
                let workers = self.scenario.workers as u64;
                // Production installs every slice's cursor and
                // accumulator (under the data mutex) before the guarded
                // publish; folded into this step because workers cannot
                // observe the data until the publish makes the epoch
                // visible.
                state.cursors = slices
                    .iter()
                    .map(|&(lo, hi)| {
                        (
                            lo,
                            hi,
                            effective_claim(self.scenario.claim, hi - lo, workers),
                        )
                    })
                    .collect();
                let lo = slices.first().map_or(0, |&(lo, _)| lo);
                let spec = JobSpec {
                    lo,
                    hi: slices.last().map_or(lo, |&(_, hi)| hi),
                    collect: false,
                };
                let wake = state.core.publish(spec);
                if self.scenario.mutation == Mutation::UnderCountActive {
                    state.core.active = state.core.active.saturating_sub(1);
                }
                debug_assert_eq!(wake, Wake::Work);
                state.coord = CoordPc::WakeWorkers;
                Ok(())
            }
            CoordPc::WakeWorkers => {
                if self.scenario.mutation != Mutation::SkipPublishWake {
                    self.deliver(state, Wake::Work);
                }
                state.coord = CoordPc::Await;
                Ok(())
            }
            CoordPc::Await => {
                match state.core.quiesce_poll() {
                    QuiescePoll::Wait => state.coord = CoordPc::ParkedQuiesced,
                    QuiescePoll::Quiesced => state.coord = CoordPc::Retire { panicked: false },
                    QuiescePoll::Panicked => state.coord = CoordPc::Retire { panicked: true },
                }
                Ok(())
            }
            CoordPc::Retire { panicked } => {
                state.core.retire();
                if panicked {
                    // Re-raise: unwind into the drop guard.
                    state.coord = CoordPc::Shutdown { panicked: true };
                    return Ok(());
                }
                // Quiesce-point watermark: the simulated set must be
                // exactly the prefix [0, hi) of this epoch's last slice
                // (a shortfall in any slice shows up as a hole).
                let hi = self.scenario.epoch_hi(state.epoch_idx);
                let expected: Vec<u64> = (0..hi).collect();
                if state.simulated != expected {
                    return Err(format!(
                        "watermark broken at quiesce of epoch {}: simulated {:?}, expected [0, {})",
                        state.core.epoch, state.simulated, hi
                    ));
                }
                state.epoch_idx += 1;
                state.coord = if state.epoch_idx == self.scenario.epochs.len() {
                    CoordPc::Shutdown { panicked: false }
                } else {
                    CoordPc::Publish
                };
                Ok(())
            }
            CoordPc::Shutdown { panicked } => {
                let wake = state.core.request_shutdown();
                debug_assert_eq!(wake, Wake::Work);
                state.coord = CoordPc::WakeShutdown { panicked };
                Ok(())
            }
            CoordPc::WakeShutdown { panicked } => {
                self.deliver(state, Wake::Work);
                state.coord = CoordPc::Join { panicked };
                Ok(())
            }
            CoordPc::Join { panicked } => {
                state.coord = CoordPc::Done { panicked };
                Ok(())
            }
            CoordPc::ParkedQuiesced | CoordPc::Done { .. } => {
                Err("scheduler stepped an unrunnable coordinator".into())
            }
        }
    }

    fn step_worker(&self, state: &mut ModelState, i: usize) -> Result<(), String> {
        let pc = state.workers[i].pc.clone();
        match pc {
            WorkerPc::Idle => {
                let seen = state.workers[i].seen_epoch;
                // Shared-code precondition: `worker_poll` asserts that a
                // visible new epoch carries a job. A broken protocol can
                // retire the job while a worker is still unserved (e.g.
                // `UnderCountActive` quiesces early); surface that as a
                // violation rather than tripping the assert.
                if !state.core.shutdown && state.core.epoch > seen && state.core.job.is_none() {
                    return Err(format!(
                        "epoch {} retired before worker {i} was served (early quiesce)",
                        state.core.epoch
                    ));
                }
                match state.core.worker_poll(seen) {
                    WorkerPoll::Shutdown => state.workers[i].pc = WorkerPc::Exited,
                    WorkerPoll::Job(_, epoch) => {
                        state.workers[i].seen_epoch = epoch;
                        state.workers[i].slice = 0;
                        state.workers[i].pc = WorkerPc::Claim;
                    }
                    WorkerPoll::Wait => {
                        state.workers[i].pc = if self.scenario.mutation == Mutation::NonAtomicPark {
                            WorkerPc::PrePark
                        } else {
                            WorkerPc::ParkedWork
                        };
                    }
                }
                Ok(())
            }
            WorkerPc::PrePark => {
                // The lost-wakeup race: parks regardless of what was
                // published since the predicate check.
                state.workers[i].pc = WorkerPc::ParkedWork;
                Ok(())
            }
            WorkerPc::Claim => {
                let s = state.workers[i].slice as usize;
                let &(next, hi, claim) = state
                    .cursors
                    .get(s)
                    .ok_or("worker claiming with no cursor installed")?;
                state.cursors[s] = (next + claim, hi, claim);
                match claim_range(next, hi, claim) {
                    Some((lo, end)) => {
                        state.workers[i].pending.push((lo, end));
                        state.workers[i].pc = WorkerPc::Simulate { cur: lo, end };
                    }
                    // Slice drained: move on to the next one locally,
                    // no guarded step — every cursor was installed at
                    // publish.
                    None if s + 1 < state.cursors.len() => state.workers[i].slice += 1,
                    None => state.workers[i].pc = WorkerPc::CheckOut,
                }
                Ok(())
            }
            WorkerPc::Simulate { cur, end } => {
                for idx in cur..end {
                    if state.panic_armed && self.scenario.panic_at == Some(idx) {
                        if !self.scenario.sticky {
                            state.panic_armed = false;
                        }
                        // The worker's private accumulator dies with
                        // it; its pending ranges carry the work onward.
                        state.workers[i].local.clear();
                        state.workers[i].pc = WorkerPc::MarkLost;
                        return Ok(());
                    }
                    let local = &mut state.workers[i].local;
                    match local.binary_search(&idx) {
                        Ok(_) => {
                            return Err(format!(
                                "group index {idx} simulated twice (double-claimed batch)"
                            ));
                        }
                        Err(pos) => local.insert(pos, idx),
                    }
                }
                state.workers[i].pc = WorkerPc::Claim;
                Ok(())
            }
            WorkerPc::CheckOut => {
                // Production merges this worker's partial into the
                // epoch accumulator and clears the supervision guard's
                // pending list (data mutex) immediately before the
                // guarded check-out; merges are exact-integer state and
                // commute, so the model moves the worker's index set
                // into the global one. Double merges surface here, at
                // merge time, because a dead worker's *unmerged* copy
                // is legitimately re-simulated by a survivor.
                let local = std::mem::take(&mut state.workers[i].local);
                for idx in local {
                    match state.simulated.binary_search(&idx) {
                        Ok(_) => {
                            return Err(format!(
                                "group index {idx} simulated twice (double-claimed batch)"
                            ));
                        }
                        Err(pos) => state.simulated.insert(pos, idx),
                    }
                }
                state.workers[i].pending.clear();
                if state.core.resubmit.is_empty() && state.core.active == 0 {
                    return Err("check-out with active == 0 (double check-out)".into());
                }
                match state.core.check_out() {
                    CheckOutcome::Redo((lo, end)) => {
                        state.workers[i].pending.push((lo, end));
                        state.workers[i].pc = WorkerPc::Simulate { cur: lo, end };
                    }
                    CheckOutcome::Out(wake) => {
                        state.workers[i].pc = match wake {
                            Wake::Quiesced => WorkerPc::WakeQuiesced,
                            _ => WorkerPc::Idle,
                        };
                    }
                }
                Ok(())
            }
            WorkerPc::WakeQuiesced => {
                if self.scenario.mutation != Mutation::SkipCheckoutWake {
                    self.deliver(state, Wake::Quiesced);
                }
                state.workers[i].pc = WorkerPc::Idle;
                Ok(())
            }
            WorkerPc::MarkLost => {
                // Model deaths always strike mid-simulation, so the
                // worker is serving with a non-empty pending list. The
                // idle-death and empty-remainder rows of `mark_lost`'s
                // decision table are covered by direct unit tests.
                let remainder = if self.scenario.mutation == Mutation::DropRemainder {
                    state.workers[i].pending.clear();
                    Vec::new()
                } else {
                    std::mem::take(&mut state.workers[i].pending)
                };
                let seen = state.workers[i].seen_epoch;
                let wake = state.core.mark_lost(seen, true, remainder);
                state.workers[i].pc = WorkerPc::WakeDeath { wake };
                Ok(())
            }
            WorkerPc::WakeDeath { wake } => {
                if self.scenario.mutation != Mutation::SkipPanicWake {
                    self.deliver(state, wake);
                }
                state.workers[i].pc = WorkerPc::Exited;
                Ok(())
            }
            WorkerPc::ParkedWork | WorkerPc::Exited => {
                Err("scheduler stepped an unrunnable worker".into())
            }
        }
    }

    /// A state with no runnable thread must be the clean (or cleanly
    /// panicked) end of the run; anything else is a deadlock — some
    /// thread is parked with nobody left to wake it (a lost wakeup) or
    /// blocked on a join that can never complete.
    fn check_terminal(&self, state: &ModelState) -> Result<(), String> {
        let all_exited = state.workers.iter().all(|w| w.pc == WorkerPc::Exited);
        match &state.coord {
            CoordPc::Done { panicked } => {
                if !all_exited {
                    return Err("coordinator finished with workers still alive".into());
                }
                let expect_abort = self.scenario.expect_abort();
                if *panicked != expect_abort {
                    return Err(if expect_abort {
                        format!(
                            "total-loss scenario completed without re-raising the panic \
                             (lost {} of {} workers)",
                            state.core.lost, self.scenario.workers
                        )
                    } else {
                        "panic re-raised in a scenario supervision should survive".into()
                    });
                }
                if expect_abort {
                    return Ok(());
                }
                let expect_lost = usize::from(self.scenario.poison_reachable());
                if state.core.lost != expect_lost {
                    return Err(format!(
                        "run completed with {} lost workers, expected {expect_lost}",
                        state.core.lost
                    ));
                }
                let expected: Vec<u64> = (0..self.scenario.total()).collect();
                if state.simulated == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "run completed with simulated set {:?}, expected [0, {})",
                        state.simulated,
                        self.scenario.total()
                    ))
                }
            }
            other => Err(format!(
                "deadlock: no runnable thread (coordinator at {other:?}, workers {:?})",
                state
                    .workers
                    .iter()
                    .map(|w| format!("{:?}", w.pc))
                    .collect::<Vec<_>>()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_claim_is_clamped_and_positive() {
        // Small ranges fall back to single-group batches.
        assert_eq!(effective_claim(64, 0, 4), 1);
        assert_eq!(effective_claim(64, 10, 4), 1);
        // Large ranges keep the configured size.
        assert_eq!(effective_claim(64, 1_000_000, 4), 64);
        // In between: the clamp, not the configured value.
        assert_eq!(effective_claim(64, 100, 4), 3);
        // A configured claim of one is never inflated.
        assert_eq!(effective_claim(1, 1_000_000, 4), 1);
    }

    #[test]
    fn small_runs_yield_enough_batches_to_balance() {
        // Regression for the `balance: 0.0000` rows in
        // BENCH_parallel.json: a 400-group run under `claim_batch=64`
        // used to yield so few batches that the first worker could
        // drain the whole epoch before its peers were scheduled. The
        // clamp must now leave at least eight batches per worker
        // whenever the run is large enough to support them.
        for threads in [2u64, 4, 8] {
            for count in [400u64, 800, 1_000] {
                let eff = effective_claim(64, count, threads);
                let batches = count.div_ceil(eff);
                assert!(
                    batches >= 8 * threads.min(count / 8),
                    "count={count} threads={threads} eff={eff} batches={batches}"
                );
            }
        }
        // The concrete bench shape: 400 groups, 2 workers, claim 64.
        assert_eq!(effective_claim(64, 400, 2), 25);
        assert!(400u64.div_ceil(25) >= 16);
    }

    #[test]
    fn every_worker_can_claim_a_batch_when_groups_cover_threads() {
        // Starvation fix: whenever `count >= threads`, the epoch must
        // yield at least `threads` batches so no worker sits idle on
        // an already-drained cursor while whole batches remain.
        for threads in 1..=16u64 {
            for count in [
                threads,
                threads + 1,
                2 * threads,
                4 * threads,
                4 * threads + 3,
                100,
                1_000,
                65_536,
            ] {
                if count < threads {
                    continue;
                }
                for configured in [1, 2, 7, 64, 1_000, u64::MAX / 2] {
                    let eff = effective_claim(configured, count, threads);
                    assert!(eff > 0);
                    assert!(eff <= configured);
                    let batches = count.div_ceil(eff);
                    assert!(
                        batches >= threads.min(count),
                        "configured={configured} count={count} threads={threads} \
                         eff={eff} batches={batches}"
                    );
                }
            }
        }
    }

    #[test]
    fn claim_range_partitions_the_index_space() {
        let mut next = 0u64;
        let mut seen = Vec::new();
        while let Some((lo, hi)) = claim_range(next, 103, 10) {
            next += 10;
            seen.extend(lo..hi);
        }
        assert_eq!(seen, (0..103).collect::<Vec<_>>());
        // Overshooting cursors stay exhausted.
        assert_eq!(claim_range(110, 103, 10), None);
    }

    #[test]
    fn core_transitions_follow_the_handshake() {
        let mut core = PoolCore::new(2);
        assert_eq!(core.worker_poll(0), WorkerPoll::Wait);
        let spec = JobSpec {
            lo: 0,
            hi: 4,
            collect: false,
        };
        assert_eq!(core.publish(spec), Wake::Work);
        assert_eq!(core.worker_poll(0), WorkerPoll::Job(spec, 1));
        assert_eq!(core.quiesce_poll(), QuiescePoll::Wait);
        assert_eq!(core.check_out(), CheckOutcome::Out(Wake::None));
        assert_eq!(core.check_out(), CheckOutcome::Out(Wake::Quiesced));
        assert_eq!(core.quiesce_poll(), QuiescePoll::Quiesced);
        core.retire();
        assert_eq!(core.job, None);
        assert_eq!(core.request_shutdown(), Wake::Work);
        assert_eq!(core.worker_poll(1), WorkerPoll::Shutdown);
    }

    #[test]
    fn panic_latch_wins_over_quiesce_and_forces_shutdown() {
        let mut core = PoolCore::new(1);
        let _ = core.publish(JobSpec {
            lo: 0,
            hi: 1,
            collect: false,
        });
        assert_eq!(core.mark_panicked(), Wake::Both);
        // Even if active were to reach zero, panic is reported first.
        let _ = core.check_out();
        assert_eq!(core.quiesce_poll(), QuiescePoll::Panicked);
        // And workers drain out instead of taking more work.
        assert_eq!(core.worker_poll(0), WorkerPoll::Shutdown);
    }

    #[test]
    fn std_sync_round_trips_the_protocol_serially() {
        let sync = StdSync::new(1);
        let spec = JobSpec {
            lo: 0,
            hi: 2,
            collect: true,
        };
        let wake = sync.guarded(|c| c.publish(spec));
        sync.wake(wake);
        // poll_until returns immediately when the predicate holds.
        let (got, epoch) = sync.poll_until(Cv::Work, |c| match c.worker_poll(0) {
            WorkerPoll::Job(spec, epoch) => Some((spec, epoch)),
            _ => None,
        });
        assert_eq!((got, epoch), (spec, 1));
        let wake = sync.guarded(|c| match c.check_out() {
            CheckOutcome::Out(wake) => wake,
            CheckOutcome::Redo(range) => panic!("nothing to redo, got {range:?}"),
        });
        sync.wake(wake);
        let poll = sync.poll_until(Cv::Quiesced, |c| match c.quiesce_poll() {
            QuiescePoll::Wait => None,
            other => Some(other),
        });
        assert_eq!(poll, QuiescePoll::Quiesced);
    }

    #[test]
    fn smallest_scenario_is_exhausted_without_violation() {
        let report = check(&Scenario::new(2, vec![(0, 2)], 1));
        assert_eq!(report.violation, None);
        assert!(report.states > 10, "{report:?}");
        assert!(report.interleavings > 1, "{report:?}");
        assert!(report.max_depth > 10, "{report:?}");
    }

    #[test]
    fn every_mutation_is_caught() {
        // Each mutation on driver batches (one slice per epoch) and on
        // a fused sweep (one epoch of two slices).
        for scenario in [
            Scenario::new(2, vec![(0, 2), (2, 4)], 1),
            Scenario::sweep(2, vec![2, 2], 1),
        ] {
            for mutation in [
                Mutation::SkipPublishWake,
                Mutation::SkipCheckoutWake,
                Mutation::NonAtomicPark,
                Mutation::UnderCountActive,
            ] {
                let mut scenario = scenario.clone();
                scenario.mutation = mutation;
                let report = check(&scenario);
                assert!(
                    report.violation.is_some(),
                    "mutation {mutation:?} was not caught on {:?}",
                    scenario.epochs
                );
            }
        }
        // The death-path mutations need a worker death to corrupt.
        for scenario in [
            Scenario::new(2, vec![(0, 2)], 1),
            Scenario::sweep(2, vec![2, 2], 1),
        ] {
            for mutation in [Mutation::SkipPanicWake, Mutation::DropRemainder] {
                let mut scenario = scenario.clone();
                scenario.panic_at = Some(1);
                scenario.mutation = mutation;
                let report = check(&scenario);
                assert!(
                    report.violation.is_some(),
                    "mutation {mutation:?} was not caught on {:?}",
                    scenario.epochs
                );
            }
        }
    }

    #[test]
    fn sweep_scenarios_are_exhausted_without_violation() {
        // Cross-slice stealing in every interleaving: a worker that
        // drains slice 0 moves on to slice 1 while its peers are still
        // in slice 0 — all schedules must cover the fused index space
        // exactly.
        for counts in [vec![2, 2], vec![2, 1], vec![1, 2], vec![1, 1, 1]] {
            let report = check(&Scenario::sweep(2, counts.clone(), 1));
            assert_eq!(report.violation, None, "sweep {counts:?}: {report:?}");
            assert!(report.states > 10, "{report:?}");
        }
        // A claim spanning a whole scenario still honors boundaries.
        let report = check(&Scenario::sweep(2, vec![2, 2], 2));
        assert_eq!(report.violation, None, "{report:?}");
    }

    #[test]
    fn sweep_survives_spurious_wakeups_at_the_boundary() {
        // Only the idle poll parks; a sweep's slice boundaries are
        // local, so spurious wakeups are exercised on the one epoch.
        let mut scenario = Scenario::sweep(2, vec![2, 1], 1);
        scenario.spurious = true;
        let report = check(&scenario);
        assert_eq!(report.violation, None, "{report:?}");
    }

    #[test]
    fn sweep_death_mid_sweep_is_supervised_to_full_coverage() {
        // A worker dies simulating slice 0 (index 1) or slice 1
        // (index 2): the survivor redoes the resubmitted ranges after
        // the slices drain, and the fused watermark still holds.
        for panic_at in [1u64, 2] {
            let mut scenario = Scenario::sweep(2, vec![2, 2], 1);
            scenario.panic_at = Some(panic_at);
            let report = check(&scenario);
            assert_eq!(report.violation, None, "panic_at {panic_at}: {report:?}");
        }
        // Total loss mid-sweep aborts.
        let mut scenario = Scenario::sweep(2, vec![2, 1], 1);
        scenario.panic_at = Some(1);
        scenario.sticky = true;
        let report = check(&scenario);
        assert_eq!(report.violation, None, "{report:?}");
    }

    #[test]
    fn supervised_death_completes_with_full_coverage() {
        // One worker dies mid-epoch; the survivor redoes its ranges and
        // the run completes cleanly in every interleaving.
        for claim in [1, 2] {
            let mut scenario = Scenario::new(2, vec![(0, 4)], claim);
            scenario.panic_at = Some(1);
            let report = check(&scenario);
            assert_eq!(report.violation, None, "claim {claim}: {report:?}");
        }
        // Three workers, death late in the epoch, across two epochs.
        let mut scenario = Scenario::new(3, vec![(0, 3), (3, 5)], 1);
        scenario.panic_at = Some(4);
        let report = check(&scenario);
        assert_eq!(report.violation, None, "{report:?}");
    }

    #[test]
    fn sticky_panic_escalates_to_total_loss_abort() {
        let mut scenario = Scenario::new(2, vec![(0, 3)], 1);
        scenario.panic_at = Some(1);
        scenario.sticky = true;
        let report = check(&scenario);
        assert_eq!(report.violation, None, "{report:?}");
        // A single worker has nobody to resubmit to: one-shot or not,
        // its death is a total loss.
        let mut scenario = Scenario::new(1, vec![(0, 2)], 1);
        scenario.panic_at = Some(0);
        let report = check(&scenario);
        assert_eq!(report.violation, None, "{report:?}");
    }

    #[test]
    fn mark_lost_idle_death_still_quiesces_the_epoch() {
        // Two workers; B accepts and finishes the epoch, A dies idle
        // without ever accepting it. A owes the check-out `publish`
        // armed on its behalf; its death must deliver it.
        let mut core = PoolCore::new(2);
        let _ = core.publish(JobSpec {
            lo: 0,
            hi: 2,
            collect: false,
        });
        assert_eq!(core.check_out(), CheckOutcome::Out(Wake::None)); // B
        assert_eq!(core.mark_lost(0, false, Vec::new()), Wake::Quiesced); // A
        assert_eq!(core.quiesce_poll(), QuiescePoll::Quiesced);
        assert_eq!(core.lost, 1);
        assert!(!core.panicked);
    }

    #[test]
    fn mark_lost_between_epochs_owes_nothing() {
        // A worker that served and checked out dies while no epoch is
        // in flight: no accounting changes, no wake.
        let mut core = PoolCore::new(2);
        let _ = core.publish(JobSpec {
            lo: 0,
            hi: 2,
            collect: false,
        });
        assert_eq!(core.check_out(), CheckOutcome::Out(Wake::None));
        assert_eq!(core.check_out(), CheckOutcome::Out(Wake::Quiesced));
        core.retire();
        assert_eq!(core.mark_lost(1, false, Vec::new()), Wake::None);
        assert_eq!(core.active, 0);
        // The next epoch arms with the survivor only.
        let _ = core.publish(JobSpec {
            lo: 2,
            hi: 4,
            collect: false,
        });
        assert_eq!(core.active, 1);
    }

    #[test]
    fn mark_lost_resubmission_is_served_before_quiesce() {
        // A dies serving while B is still checked in: no re-arm is
        // needed, because B's own check-out must inspect the queue.
        let mut core = PoolCore::new(2);
        let _ = core.publish(JobSpec {
            lo: 0,
            hi: 2,
            collect: false,
        });
        assert_eq!(core.mark_lost(1, true, vec![(0, 1)]), Wake::None);
        assert_eq!(core.epoch, 1);
        assert_eq!(core.check_out(), CheckOutcome::Redo((0, 1))); // B redoes
        assert_eq!(core.check_out(), CheckOutcome::Out(Wake::Quiesced));
        assert_eq!(core.quiesce_poll(), QuiescePoll::Quiesced);
        assert!(core.resubmit.is_empty());
    }

    #[test]
    fn mark_lost_rearms_when_it_would_quiesce_with_work_pending() {
        // B has already checked out when A dies resubmitting: A's owed
        // check-out would quiesce the epoch, so the epoch re-arms and
        // B serves once more to drain the queue.
        let mut core = PoolCore::new(2);
        let _ = core.publish(JobSpec {
            lo: 0,
            hi: 2,
            collect: false,
        });
        assert_eq!(core.check_out(), CheckOutcome::Out(Wake::None)); // B
        assert_eq!(core.mark_lost(1, true, vec![(0, 1)]), Wake::Work); // A
        assert_eq!(core.epoch, 2);
        assert_eq!(core.active, 1);
        // B re-serves under the new epoch number, redoes A's range,
        // and only then checks out.
        assert!(matches!(core.worker_poll(1), WorkerPoll::Job(_, 2)));
        assert_eq!(core.check_out(), CheckOutcome::Redo((0, 1)));
        assert_eq!(core.check_out(), CheckOutcome::Out(Wake::Quiesced));
        assert_eq!(core.quiesce_poll(), QuiescePoll::Quiesced);
    }

    #[test]
    fn mark_lost_total_loss_degenerates_to_panic_abort() {
        let mut core = PoolCore::new(1);
        let _ = core.publish(JobSpec {
            lo: 0,
            hi: 1,
            collect: false,
        });
        assert_eq!(core.mark_lost(1, true, vec![(0, 1)]), Wake::Both);
        assert!(core.panicked && core.shutdown);
        assert_eq!(core.quiesce_poll(), QuiescePoll::Panicked);
        assert_eq!(core.worker_poll(1), WorkerPoll::Shutdown);
    }

    #[test]
    fn overlapping_epochs_are_reported_as_double_claims() {
        // A seeded violation of the no-double-claim invariant itself:
        // epoch 2 re-publishes an index epoch 1 already covered.
        let report = check(&Scenario::new(2, vec![(0, 2), (1, 3)], 1));
        let v = report.violation.expect("overlap must be caught");
        assert!(v.contains("simulated twice"), "{v}");
    }
}
