//! Batch runner: thousands of independent RAID-group histories.
//!
//! "If 10,000 simulations are needed to develop the cumulative failure
//! function… it is equivalent to monitoring the number of DDFs for
//! 10,000 systems over the mission life" (paper Section 5). The runner
//! assigns every group index its own deterministic RNG stream, so a run
//! is exactly reproducible regardless of how many threads execute it.
//!
//! # Scheduling
//!
//! Workers do **not** receive contiguous static chunks of the
//! group-index space. Group costs are heavily skewed — a group that
//! draws a DDF cascade, a long repair chain, or an infant-mortality
//! vintage simulates orders of magnitude more events than a quiet one —
//! so static chunking lets one unlucky worker serialize the whole run.
//! Instead, workers repeatedly *claim* fixed-size index batches (sized
//! by [`Simulator::with_claim_batch`]) from a shared atomic cursor
//! until the range is exhausted: a worker stuck on an expensive batch
//! simply claims fewer batches while the others drain the rest.
//!
//! Dynamic claiming is invisible in the results:
//!
//! * per-group RNG streams are a pure function of `(seed, index)`, so
//!   *which worker* simulates a group cannot change its history;
//! * the streamed accumulator ([`StreamStats`]) is exact-integer state,
//!   so per-worker partials merge to bit-identical totals in any order;
//! * a stored run streams like any other and records each pushed
//!   group's history in its scenario's slot for the group's stream
//!   index, so the histories come out in group-index order.
//!
//! # Entry points
//!
//! One entry point per run shape:
//!
//! | shape | fixed count | precision target |
//! |---|---|---|
//! | stored histories | [`Simulator::run_parallel`] | [`Simulator::run_until_precision`] |
//! | streamed aggregate | [`Simulator::run_streaming`], [`Simulator::run_streaming_instrumented`] | [`Simulator::run_checkpointed`] |
//! | one shard of a run | [`Simulator::run_shard`] | — |
//! | scenario sweep | [`FusedSweep::run_streaming`], [`FusedSweep::run_streaming_cached`], [`FusedSweep::run_collect`] | — |
//!
//! [`Simulator::run_checkpointed`] also runs fixed counts
//! ([`DriverState::fixed`]), and is the only entry that checkpoints or
//! resumes; with no plan and no resume it is the streamed precision
//! run, and [`Simulator::run_until_precision`] is that run keeping its
//! histories.
//!
//! Every entry point streams: each group runs under the same
//! quarantine code at every thread count. A stored entry point returns
//! every history or none, so it panics, naming the group, when a
//! group's simulation panicked.
//!
//! # Worker lifecycle
//!
//! Every entry point is a logic-free wrapper over one executor (see
//! `crate::pool`), opened once per run or sweep: workers are spawned
//! once (none when `threads == 1`), each keeps one
//! [`crate::engine::EngineSession`] per scenario — reusable scratch plus
//! sampling kernels lowered once — and each driver batch, shard, whole
//! run or fused sweep is one job of slices.
//!
//! Checkpoint compatibility is preserved because claiming happens
//! *within* a driver batch: a batch's job returns only once every index
//! in `[lo, hi)` has completed (the coordinator sleeps until the last
//! worker checks out of the epoch), so at every batch boundary the
//! completed set is still an exact prefix `[0, watermark)` of the index
//! space — precisely the state a checkpoint can resume bit-identically
//! (see [`crate::checkpoint`]).

use crate::checkpoint::{
    config_fingerprint, CheckpointError, DriverState, Journal, SimCheckpoint, FORMAT_VERSION,
};
use crate::config::RaidGroupConfig;
use crate::engine::{BiasPolicy, DesEngine, Engine, SessionTuning};
use crate::events::{CheckpointDegraded, DdfKind, GroupHistory, QuarantinedGroup};
use crate::pool::{self, ExecCtx, Executor, Harvest, HistorySink, ScenarioRef, Slice};
use crate::stats::{SchedulerStats, StreamStats};
use crate::store::{RetryBackoff, SnapshotStore};
use crate::sweep::{validate_scenarios, SweepCache, SweepReport, SweepScenario};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Progress snapshot delivered to a [`StreamObserver`].
///
/// Deliberately clock-free: simulation crates may not read wall time
/// (the determinism lint enforces this), so rates and ETAs are computed
/// by the observer, which lives in a layer that owns a clock (the
/// CLI's progress line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Progress {
    /// Groups completed so far.
    pub groups_done: u64,
    /// Groups the current run is working toward (the requested count,
    /// or the group cap for precision-controlled runs).
    pub groups_target: u64,
}

/// Receives progress callbacks from the streaming runner.
///
/// Callbacks may arrive from any worker thread (the runner reports
/// every [`PROGRESS_STRIDE`] completed groups) and additionally from
/// the coordinating thread at batch boundaries of the precision loops.
/// Observers must therefore be `Sync`; the no-op observer `()` is
/// always available.
pub trait StreamObserver: Sync {
    /// Called as groups complete. Default: ignore.
    fn on_progress(&self, progress: Progress) {
        let _ = progress;
    }

    /// Called from the coordinating thread after a checkpoint has been
    /// durably written (temp file, fsync, rename all succeeded).
    /// Default: ignore.
    fn on_checkpoint_saved(&self, path: &Path, groups_done: u64) {
        let _ = (path, groups_done);
    }

    /// Called from the coordinating thread when a checkpoint write
    /// fails past its retry budget. Unless the plan marked
    /// checkpointing required, the run **continues**: losing
    /// resumability must not lose the simulation work itself, so a
    /// failed write is a warning, not an abort, and the next batch
    /// boundary retries. Default: ignore.
    fn on_checkpoint_failed(&self, error: &CheckpointError) {
        let _ = error;
    }

    /// Called from the coordinating thread once per healthy-to-degraded
    /// transition of checkpointing: a write just failed past its retry
    /// budget either persistently or repeatedly, the run keeps going
    /// with identical final aggregates, and the cadence has been told
    /// to back off ([`CheckpointCadence::on_write_outcome`]). Default:
    /// ignore.
    fn on_checkpoint_degraded(&self, event: &CheckpointDegraded) {
        let _ = event;
    }

    /// Called from the coordinating thread of a precision or
    /// checkpointed run when a group's simulation panicked and was
    /// quarantined instead of aborting the run (see the quarantine
    /// notes on [`QuarantinedGroup`]). Default: ignore.
    fn on_group_quarantined(&self, group: &QuarantinedGroup) {
        let _ = group;
    }
}

/// The no-op observer.
impl StreamObserver for () {}

/// Cooperative interruption for long runs.
///
/// The driver polls [`RunControl::interrupted`] at every batch boundary
/// — never mid-batch — so an interrupted run always holds statistics
/// for an exact prefix `[0, n)` of the group-index space, which is
/// precisely the state a checkpoint can resume bit-identically.
pub trait RunControl: Sync {
    /// `true` once a graceful stop has been requested. Default: never.
    fn interrupted(&self) -> bool {
        false
    }
}

/// The never-interrupted control.
impl RunControl for () {}

/// Set the flag to `true` (e.g. from a signal handler) to request a
/// graceful stop at the next batch boundary.
impl RunControl for AtomicBool {
    fn interrupted(&self) -> bool {
        self.load(Ordering::Relaxed)
    }
}

/// Decides at each batch boundary whether a checkpoint is written.
///
/// Lives behind a trait because simulation crates may not read wall
/// time (the determinism lint): the core ships the clock-free
/// [`EveryGroups`], and clock-based cadences ("at most every 30 s")
/// are implemented by layers that own a clock, such as the CLI.
pub trait CheckpointCadence {
    /// `true` if a checkpoint should be written now. `groups_done` is
    /// the total completed; `groups_since_last_write` counts from the
    /// last *successful* write (or from the resume point), so a failed
    /// write is retried at the next boundary.
    fn due(&mut self, groups_done: u64, groups_since_last_write: u64) -> bool;

    /// Told the outcome of every checkpoint write the driver attempted
    /// (after retries). Self-degrading cadences back off on failure so
    /// a dead disk is not hammered at every boundary, and reset on
    /// success. Default: ignore.
    fn on_write_outcome(&mut self, success: bool) {
        let _ = success;
    }
}

/// Clock-free cadence: write once at least this many groups have
/// completed since the last successful write (values at or below the
/// batch size write at every batch boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EveryGroups(
    /// Minimum completed groups between writes.
    pub u64,
);

impl CheckpointCadence for EveryGroups {
    fn due(&mut self, _groups_done: u64, groups_since_last_write: u64) -> bool {
        groups_since_last_write >= self.0
    }
}

/// Where, when, and through what store a checkpointed run persists its
/// snapshots — plus the retry policy and the failure stance.
pub struct CheckpointPlan<'a> {
    /// Target file. Mid-run snapshots go to a two-slot journal here: the
    /// run's first one creates it atomically, later ones overwrite one
    /// slot in place. The run's final write atomically replaces it with
    /// the canonical image (see [`crate::checkpoint`]'s file formats).
    pub path: &'a Path,
    /// Write schedule, consulted at each batch boundary.
    pub cadence: &'a mut dyn CheckpointCadence,
    /// Snapshot I/O implementation: the production
    /// [`crate::store::FsStore`], or a fault-injected / in-memory store
    /// under test.
    pub store: &'a mut dyn SnapshotStore,
    /// Retry policy for transient write failures (see
    /// [`crate::store::RetryBackoff`]).
    pub backoff: &'a mut dyn RetryBackoff,
    /// When `true`, a checkpoint write that fails past its retry budget
    /// aborts the run with the write's [`CheckpointError`] instead of
    /// degrading — for operators who would rather lose the run than its
    /// resumability.
    pub required: bool,
}

impl std::fmt::Debug for CheckpointPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointPlan")
            .field("path", &self.path)
            .field("required", &self.required)
            .finish_non_exhaustive()
    }
}

/// How often (in completed groups) workers report to the observer.
pub const PROGRESS_STRIDE: u64 = 256;

/// Default number of consecutive group indices a worker claims from the
/// scheduler cursor per request.
///
/// Large enough to amortize the atomic claim and keep the per-worker
/// accumulator cache-warm, small enough that one expensive batch cannot
/// leave the remaining workers idle for long.
pub const DEFAULT_CLAIM_BATCH: u64 = 64;

/// Shared claim cursor for the dynamic scheduler: workers atomically
/// claim `claim`-sized batches of group indices from `[next, hi)` until
/// the range is exhausted.
pub(crate) struct BatchCursor {
    next: AtomicU64,
    hi: u64,
    claim: u64,
}

impl BatchCursor {
    pub(crate) fn new(lo: u64, hi: u64, claim: u64) -> Self {
        debug_assert!(claim > 0, "claim batch must be positive");
        Self {
            next: AtomicU64::new(lo),
            hi,
            claim,
        }
    }

    /// Claims the next batch; `None` once the range is exhausted. Every
    /// index in `[lo, hi)` is handed out exactly once across all claims.
    ///
    /// `Relaxed` suffices: the cursor carries no data — a group's
    /// history is a pure function of `(seed, index)`, and per-worker
    /// results only meet at the merge before each worker's guarded
    /// check-out, which is already a synchronization point. Workers
    /// stop at the first `None`, so
    /// the cursor overshoots `hi` by at most `claim × workers`: far
    /// from `u64::MAX` for any reachable input.
    pub(crate) fn claim(&self) -> Option<std::ops::Range<u64>> {
        let start = self.next.fetch_add(self.claim, Ordering::Relaxed);
        // The range arithmetic is shared with the model checker
        // (`sync_model::claim_range`), which proves every index in
        // `[lo, hi)` is handed out exactly once across all claims.
        let (lo, end) = crate::sync_model::claim_range(start, self.hi, self.claim)?;
        Some(lo..end)
    }
}

/// Renders a caught panic payload for a [`QuarantinedGroup`] record.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Streams groups `[lo, hi)` of a single-configuration executor as one
/// job; returns the aggregate and the quarantined groups.
fn stream_range(
    exec: &mut Executor<'_, '_>,
    lo: u64,
    hi: u64,
) -> (StreamStats, Vec<QuarantinedGroup>) {
    let mut harvest = exec.run(vec![Slice::range(lo, hi)]);
    let quarantine = harvest.quarantine.into_iter().map(|(_, g)| g).collect();
    (harvest.stats.swap_remove(0), quarantine)
}

/// Panics naming `group`, a group of a stored run (of scenario `label`,
/// in a sweep) whose simulation panicked: stored histories cover every
/// group, so a stored run cannot skip one.
fn refuse_quarantined(label: Option<&str>, group: &QuarantinedGroup) -> ! {
    let scenario = label.map_or_else(String::new, |l| format!(" of scenario {l:?}"));
    panic!(
        "group {}{scenario} panicked and was quarantined; a stored run keeps every group: {}",
        group.index, group.message
    )
}

/// The stored precision run's observer: a quarantined group ends the
/// run (see [`refuse_quarantined`]).
struct RefuseQuarantine;

impl StreamObserver for RefuseQuarantine {
    fn on_group_quarantined(&self, group: &QuarantinedGroup) {
        refuse_quarantined(None, group)
    }
}

/// Runs batches of group simulations against one configuration.
///
/// # Example
///
/// ```
/// use raidsim_core::config::RaidGroupConfig;
/// use raidsim_core::run::Simulator;
///
/// # fn main() -> Result<(), raidsim_core::CoreError> {
/// let sim = Simulator::new(RaidGroupConfig::paper_base_case()?);
/// // Identical results regardless of thread count: per-group RNG
/// // streams make scheduling invisible.
/// assert_eq!(sim.run_parallel(100, 7, 1), sim.run_parallel(100, 7, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: RaidGroupConfig,
    engine: Arc<dyn Engine>,
    claim_batch: u64,
    bias: BiasPolicy,
    tuning: SessionTuning,
}

impl Simulator {
    /// Creates a simulator with the default discrete-event engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — construct configs via
    /// the provided constructors and call
    /// [`RaidGroupConfig::validate`] first when handling untrusted
    /// input.
    pub fn new(cfg: RaidGroupConfig) -> Self {
        cfg.validate().expect("invalid RAID group configuration");
        Self {
            cfg,
            engine: Arc::new(DesEngine::new()),
            claim_batch: DEFAULT_CLAIM_BATCH,
            bias: BiasPolicy::None,
            tuning: SessionTuning::default(),
        }
    }

    /// Replaces the engine (e.g. with
    /// [`crate::engine::TimelineEngine`]).
    pub fn with_engine(mut self, engine: Arc<dyn Engine>) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the scheduler's claim-batch size: how many consecutive
    /// group indices a worker takes from the shared cursor per claim.
    /// Results are bit-identical for every value (see the module-level
    /// scheduling notes); this is purely a throughput knob — smaller
    /// batches balance skewed workloads better, larger batches claim
    /// less often.
    ///
    /// # Panics
    ///
    /// Panics if `claim_batch == 0`.
    pub fn with_claim_batch(mut self, claim_batch: u64) -> Self {
        assert!(claim_batch > 0, "claim batch must be positive");
        self.claim_batch = claim_batch;
        self
    }

    /// Replaces the sampling-measure change applied to every group
    /// (importance sampling for rare-event acceleration; see
    /// [`BiasPolicy`]).
    ///
    /// Under a bias the per-group histories are drawn from the tilted
    /// measure — raw totals on a [`SimulationResult`] then describe the
    /// *sampling* measure, while the unbiased estimates of the original
    /// measure come from the weighted [`StreamStats`] accessors
    /// ([`StreamStats::weighted_mean_ddfs`],
    /// [`StreamStats::weighted_half_width`]) and from the
    /// [`PrecisionReport`], which switches to them automatically.
    /// With [`BiasPolicy::None`] every path is bit-identical to a
    /// simulator that never had a bias configured.
    ///
    /// # Panics
    ///
    /// Panics if a tilt strength is non-finite.
    pub fn with_bias(mut self, bias: BiasPolicy) -> Self {
        bias.validate();
        self.bias = bias;
        self
    }

    /// Replaces the session tuning. Every tuning is bit-identical to
    /// the fully scalar path, so the tuning never enters the run
    /// fingerprint: artifacts from tuned and untuned runs resume and
    /// merge across each other.
    pub fn with_tuning(mut self, tuning: SessionTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The fingerprint this simulator stamps on checkpoints and shard
    /// snapshots: [`config_fingerprint`] over the configuration,
    /// engine, and bias. Artifacts merge or resume only when these
    /// match.
    pub fn run_fingerprint(&self) -> u64 {
        config_fingerprint(&self.cfg, self.engine.name(), self.bias)
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &RaidGroupConfig {
        &self.cfg
    }

    /// Simulates `groups` independent RAID groups across `threads`
    /// worker threads and returns every history.
    ///
    /// Group `i` uses RNG stream `i` of `seed`, so the result is a
    /// deterministic function of `(config, groups, seed)`: every
    /// `threads` value produces exactly the same result (per-group RNG
    /// streams make the partitioning invisible).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, and, naming the group, if any group's
    /// simulation panics.
    pub fn run_parallel(&self, groups: usize, seed: u64, threads: usize) -> SimulationResult {
        let sink = HistorySink::new(1);
        let ((_, quarantine), _sched) =
            self.execute(seed, threads, &(), 0, groups as u64, Some(&sink), |exec| {
                stream_range(exec, 0, groups as u64)
            });
        if let Some(group) = quarantine.first() {
            refuse_quarantined(None, group);
        }
        SimulationResult {
            histories: sink.into_histories().swap_remove(0),
            mission_hours: self.cfg.mission_hours,
        }
    }

    /// Simulates `groups` independent RAID groups and returns only the
    /// streamed aggregate — memory stays constant no matter how large
    /// the fleet is.
    ///
    /// Produces an aggregate bit-identical to
    /// [`StreamStats::from_result`] over [`Simulator::run_parallel`]
    /// with the same `(groups, seed)`, at any `threads` (see the
    /// determinism argument in [`crate::stats`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_streaming(&self, groups: usize, seed: u64, threads: usize) -> StreamStats {
        self.run_streaming_instrumented(groups, seed, threads, &())
            .0
    }

    /// [`Simulator::run_streaming`] with progress callbacks to
    /// `observer` plus scheduler instrumentation: how many groups each
    /// worker ended up simulating, for load-balance diagnostics. The
    /// statistics half of the return is bit-identical to
    /// [`Simulator::run_streaming`]; the [`SchedulerStats`] half
    /// depends on thread timing and is diagnostic only.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_streaming_instrumented(
        &self,
        groups: usize,
        seed: u64,
        threads: usize,
        observer: &dyn StreamObserver,
    ) -> (StreamStats, SchedulerStats) {
        let ((stats, _quarantine), sched) =
            self.execute(seed, threads, observer, 0, groups as u64, None, |exec| {
                stream_range(exec, 0, groups as u64)
            });
        observer.on_progress(Progress {
            groups_done: groups as u64,
            groups_target: groups as u64,
        });
        (stats, sched)
    }

    /// Opens this run's executor — one scenario: this configuration on
    /// `seed`'s streams — and runs `body` against it (see
    /// `crate::pool`). A run spawns its workers once no matter how many
    /// jobs it dispatches. Progress counts from `done` completed groups
    /// toward `target`; a stored run passes the sink its histories go
    /// to.
    ///
    /// Progress: each worker keeps its own last-reported stride bucket
    /// (`completed / PROGRESS_STRIDE`) and reports whenever the global
    /// counter has crossed into a new bucket since it last reported —
    /// per-worker monotone by construction. Terminal sub-stride
    /// remainders are covered by the guaranteed final callback every
    /// driver issues.
    #[allow(clippy::too_many_arguments)]
    fn execute<R>(
        &self,
        seed: u64,
        threads: usize,
        observer: &dyn StreamObserver,
        done: u64,
        target: u64,
        histories: Option<&HistorySink>,
        body: impl FnOnce(&mut Executor<'_, '_>) -> R,
    ) -> (R, SchedulerStats) {
        let done = AtomicU64::new(done);
        let ctx = ExecCtx {
            engine: self.engine.as_ref(),
            scenarios: vec![ScenarioRef {
                cfg: &self.cfg,
                seed,
            }],
            bias: self.bias,
            tuning: self.tuning,
            threads,
            claim_batch: self.claim_batch,
            observer,
            done: &done,
            target,
            histories,
        };
        pool::execute(ctx, body)
    }
}

/// Which stopping rule ended a precision-controlled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopCriterion {
    /// The confidence half-width dropped below `target_relative ×
    /// mean`.
    RelativeWidth,
    /// The confidence half-width dropped below the absolute floor
    /// ([`ABSOLUTE_HALF_WIDTH_FLOOR`]). This is how zero- and
    /// near-zero-event configurations converge: a relative criterion
    /// alone is unsatisfiable at `mean == 0`, which used to burn every
    /// low-rate RAID-6 run to the group cap.
    AbsoluteFloor,
    /// `max_groups` was reached before either width criterion.
    GroupCap,
    /// A graceful stop was requested ([`RunControl::interrupted`])
    /// before any other criterion fired. The statistics cover the
    /// completed group prefix exactly and a checkpointed run has
    /// flushed them, so the run can be resumed bit-identically.
    Interrupted,
}

impl std::fmt::Display for StopCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopCriterion::RelativeWidth => "relative half-width target",
            StopCriterion::AbsoluteFloor => "absolute half-width floor",
            StopCriterion::GroupCap => "group cap",
            StopCriterion::Interrupted => "graceful interruption",
        })
    }
}

/// The deterministic half-open group range `[lo, hi)` owned by shard
/// `index` (0-based) of `count` over `total` groups.
///
/// Ranges tile `[0, total)` exactly — contiguous, non-overlapping, and
/// sizes differing by at most one group — so `merge`-ing every shard's
/// statistics reproduces the unsharded run bit-identically. Computed in
/// `u128` so `total * count` cannot overflow.
///
/// # Panics
///
/// Panics if `count == 0` or `index >= count`.
pub fn shard_range(total: u64, index: u64, count: u64) -> (u64, u64) {
    assert!(count > 0, "shard count must be positive");
    assert!(index < count, "shard index {index} out of range 0..{count}");
    let lo = (u128::from(total) * u128::from(index) / u128::from(count)) as u64;
    let hi = (u128::from(total) * u128::from(index + 1) / u128::from(count)) as u64;
    (lo, hi)
}

/// Absolute confidence-half-width floor for precision-controlled runs,
/// in DDFs per group: once the interval is this tight in absolute
/// terms, more groups cannot change any decision the estimate informs
/// (1 DDF per 1,000 groups resolves every table in the paper), so the
/// run converges even when the observed mean is zero.
pub const ABSOLUTE_HALF_WIDTH_FLOOR: f64 = 1e-3;

/// Report from a precision-controlled run
/// ([`Simulator::run_until_precision`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionReport {
    /// Estimated mean DDFs per group over the mission.
    pub mean: f64,
    /// Half-width of the normal-approximation confidence interval for
    /// the mean.
    pub half_width: f64,
    /// Confidence level used.
    pub confidence: f64,
    /// Groups simulated.
    pub groups: usize,
    /// Whether the requested precision was reached before the group
    /// cap.
    pub converged: bool,
    /// Which stopping rule fired.
    pub criterion: StopCriterion,
    /// Groups whose simulation panicked and was quarantined (streaming
    /// drivers only; always `0` when nothing went wrong). Quarantined
    /// indices count toward the group cap but are **excluded** from
    /// `mean`/`half_width`/`groups`, so a non-zero count here means the
    /// estimates cover fewer groups than were attempted.
    pub quarantined: usize,
}

impl Simulator {
    /// Runs batches until the relative confidence-interval half-width
    /// of the mean DDFs-per-group estimate drops to
    /// `target_relative`, or `max_groups` is reached.
    ///
    /// "If 10,000 simulations are needed to develop the cumulative
    /// failure function" — this is the tool that tells you whether
    /// they are. The returned result is identical to a plain
    /// [`Simulator::run_parallel`] with the same seed and the final
    /// group count, so precision control never changes the estimand.
    /// It is the streamed precision run —
    /// [`Simulator::run_checkpointed`] with [`DriverState::precision`],
    /// no plan and no resume — keeping every history, so the statistics
    /// and [`PrecisionReport`] are identical to that run's.
    ///
    /// # Panics
    ///
    /// Panics if `target_relative` or `batch` are not positive, if
    /// `confidence` is not in `(0, 1)`, and, naming the group, if any
    /// group's simulation panics.
    pub fn run_until_precision(
        &self,
        target_relative: f64,
        confidence: f64,
        batch: usize,
        max_groups: usize,
        seed: u64,
        threads: usize,
    ) -> (SimulationResult, PrecisionReport) {
        let mut stats = StreamStats::new(self.cfg.mission_hours);
        let driver = DriverState::precision(
            target_relative,
            confidence,
            batch as u64,
            max_groups as u64,
            seed,
        );
        let observer = &RefuseQuarantine;
        let sink = HistorySink::new(1);
        let (report, _sched) = self.execute(
            seed,
            threads,
            observer,
            0,
            max_groups as u64,
            Some(&sink),
            |exec| {
                self.precision_driver(
                    &driver,
                    &mut stats,
                    observer,
                    &(),
                    &mut None,
                    &mut None,
                    0,
                    exec,
                )
            },
        );
        let result = SimulationResult {
            histories: sink.into_histories().swap_remove(0),
            mission_hours: self.cfg.mission_hours,
        };
        (result, report)
    }

    /// Checkpointed, interruptible run: the driver behind the CLI's
    /// `--checkpoint`/`--resume` flags and the kill-and-resume tests.
    ///
    /// Runs `driver.batch`-sized batches toward `driver.max_groups` —
    /// with the width stopping rules active when
    /// `driver.precision_mode` is set (see
    /// [`DriverState::precision`] / [`DriverState::fixed`]) — writing a
    /// [`SimCheckpoint`] at every batch boundary `plan`'s cadence
    /// approves, plus once more before returning. That last write is
    /// skipped when the run added no group, quarantined none, and the
    /// file already holds the canonical image it would write — a resumed
    /// finished run rewrites nothing; the check is one read through the
    /// plan's store. A failed write is
    /// reported via [`StreamObserver::on_checkpoint_failed`] and the
    /// run continues. `control` is polled at each batch boundary; when
    /// it reports an interruption the run flushes a final checkpoint
    /// and returns with [`StopCriterion::Interrupted`].
    ///
    /// Resuming from `resume` (after it validates against this run's
    /// fingerprint and `driver`) produces final statistics bit-identical
    /// to the same run never having stopped, at any `threads` — the
    /// argument is laid out in [`crate::checkpoint`] and enforced by the
    /// kill-and-resume property test. The checkpoint is taken by value:
    /// its statistics become the run's accumulator directly, so
    /// resuming never copies the moment state.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::VersionMismatch`] when `resume` is of another
    /// format version, [`CheckpointError::ConfigMismatch`] (or a corrupt
    /// variant surfaced by the caller's load) when it does not belong
    /// to exactly this `(config, engine, driver)`, and
    /// the failed write's error when a `required` plan cannot persist.
    /// With no `plan` and no `resume` the run cannot fail: it always
    /// returns `Ok`, and callers may `expect` it.
    ///
    /// # Panics
    ///
    /// As [`Simulator::run_until_precision`] for invalid precision
    /// parameters, and if `threads == 0`.
    pub fn run_checkpointed(
        &self,
        driver: DriverState,
        threads: usize,
        observer: &dyn StreamObserver,
        control: &dyn RunControl,
        mut plan: Option<CheckpointPlan<'_>>,
        resume: Option<SimCheckpoint>,
    ) -> Result<(StreamStats, PrecisionReport), CheckpointError> {
        let fingerprint = self.run_fingerprint();
        let mut stats = match resume {
            Some(ckpt) => {
                // Older formats counted latent events over the whole
                // mission; folding their counts into horizon counts
                // would mix two meanings in one accumulator.
                if ckpt.format_version != FORMAT_VERSION {
                    return Err(CheckpointError::VersionMismatch {
                        found: ckpt.format_version,
                        expected: FORMAT_VERSION,
                    });
                }
                ckpt.validate_for(fingerprint, &driver)?;
                if ckpt.stats.mission_hours() != self.cfg.mission_hours {
                    return Err(CheckpointError::ConfigMismatch {
                        field: "mission",
                        reason: format!(
                            "checkpoint mission is {} h, configuration says {} h",
                            ckpt.stats.mission_hours(),
                            self.cfg.mission_hours
                        ),
                    });
                }
                // Moved, not cloned: the checkpoint's statistics become
                // the run's accumulator.
                ckpt.stats
            }
            None => StreamStats::new(self.cfg.mission_hours),
        };
        let seed = driver.seed;
        let max_groups = driver.max_groups;
        let done = stats.groups();
        let mut plan_failure = None;
        let (report, _sched) =
            self.execute(seed, threads, observer, done, max_groups, None, |exec| {
                self.precision_driver(
                    &driver,
                    &mut stats,
                    observer,
                    control,
                    &mut plan,
                    &mut plan_failure,
                    fingerprint,
                    exec,
                )
            });
        // A required checkpoint that could not be written aborts the
        // run with the write's error: the operator asked to fail fast
        // rather than continue unresumably.
        if let Some(error) = plan_failure {
            return Err(error);
        }
        Ok((stats, report))
    }

    /// Simulates exactly the group-index range `[lo, hi)` of a larger
    /// fixed run — the scatter half of shard-scatter/merge.
    ///
    /// Per-group RNG streams are a pure function of `(seed, index)` and
    /// [`StreamStats`] holds exact-integer partials whose merge is
    /// associative and commutative, so merging the statistics of shards
    /// that tile `[0, total)` — in any order, at any shard count — is
    /// bit-identical to one unsharded [`Simulator::run_streaming`] over
    /// the full range (see [`crate::checkpoint::merge_shards`]).
    ///
    /// Returns the shard's statistics plus any quarantined groups;
    /// callers that persist the shard should refuse to write a snapshot
    /// while the quarantine is non-empty, exactly like the checkpoint
    /// writer.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `threads == 0`.
    pub fn run_shard(
        &self,
        lo: u64,
        hi: u64,
        seed: u64,
        threads: usize,
        observer: &dyn StreamObserver,
    ) -> (StreamStats, Vec<QuarantinedGroup>) {
        assert!(lo <= hi, "shard range must satisfy lo <= hi");
        let span = hi - lo;
        let (out, _sched) = self.execute(seed, threads, observer, 0, span, None, |exec| {
            stream_range(exec, lo, hi)
        });
        observer.on_progress(Progress {
            groups_done: span,
            groups_target: span,
        });
        out
    }

    /// The shared precision loop. Each batch `[lo, hi)` is one job
    /// streamed through `exec`; the driver merges batches into `stats`
    /// and does O(1) statistics work per batch against the exact
    /// integer moments, so total statistics cost is O(groups) — not
    /// quadratic — and every caller produces bit-identical reports.
    ///
    /// Stopping rules are evaluated at the **top** of the loop, before
    /// any simulation work: a resumed run whose checkpoint already
    /// satisfies a criterion (or already holds `max_groups` groups)
    /// returns immediately without simulating a single extra group.
    /// The evaluation order per boundary — width criteria, then the
    /// cap, then interruption — is unchanged from the pre-checkpoint
    /// driver, so uninterrupted runs report exactly what they always
    /// did.
    #[allow(clippy::too_many_arguments)]
    fn precision_driver(
        &self,
        driver: &DriverState,
        stats: &mut StreamStats,
        observer: &dyn StreamObserver,
        control: &dyn RunControl,
        plan: &mut Option<CheckpointPlan<'_>>,
        plan_failure: &mut Option<CheckpointError>,
        fingerprint: u64,
        exec: &mut Executor<'_, '_>,
    ) -> PrecisionReport {
        if driver.precision_mode {
            assert!(
                driver.target_relative > 0.0,
                "target relative half-width must be positive"
            );
            assert!(
                driver.confidence > 0.0 && driver.confidence < 1.0,
                "confidence must be in (0, 1)"
            );
        }
        assert!(driver.batch > 0, "batch size must be positive");
        // The driver path must never copy the moment accumulator — not
        // when merging batches, not when writing checkpoints, not when
        // assembling the report. Debug builds count this thread's
        // `StreamStats` clones and assert the driver added none.
        #[cfg(debug_assertions)]
        let clones_at_entry = crate::stats::clone_audit::count();
        let z = if driver.precision_mode {
            z_score(driver.confidence)
        } else {
            0.0
        };
        let confidence = driver.confidence;
        // Under a bias the estimand is still the original-measure mean,
        // so the driver steers and reports on the weighted estimator.
        // Unbiased runs keep the plain code path (bit-identical reports
        // to every earlier build).
        let biased = !self.bias.is_unbiased();
        let estimate = move |stats: &StreamStats| {
            if biased {
                (stats.weighted_mean_ddfs(), stats.weighted_half_width(z))
            } else {
                (stats.mean_ddfs(), stats.half_width(z))
            }
        };
        let report = |stats: &StreamStats, criterion: StopCriterion, quarantined: u64| {
            let n = stats.groups();
            let (mean, half_width) = match n {
                0 => (0.0, 0.0),
                1 => {
                    let m = if biased {
                        stats.weighted_mean_ddfs()
                    } else {
                        stats.mean_ddfs()
                    };
                    (m, 0.0)
                }
                _ => estimate(stats),
            };
            PrecisionReport {
                mean,
                half_width,
                confidence,
                groups: n as usize,
                converged: matches!(
                    criterion,
                    StopCriterion::RelativeWidth | StopCriterion::AbsoluteFloor
                ),
                criterion,
                quarantined: quarantined as usize,
            }
        };
        // Counts from the resume point: the checkpoint being resumed
        // already holds this prefix, so there is nothing to flush until
        // new groups complete.
        let mut last_written = stats.groups();
        let groups_at_entry = last_written;
        // The journal this run's mid-run snapshots overwrite in place,
        // once the first of them has created it.
        let mut journal = None;
        // Quarantined groups count toward the index watermark (their
        // streams were consumed) but not toward the statistics; resumed
        // checkpoints are always quarantine-free because writes are
        // refused once the count is non-zero.
        let mut quarantined: u64 = 0;
        // Checkpoint degradation bookkeeping (see `CheckpointDegraded`).
        let mut consecutive_failures: u64 = 0;
        let mut degraded = false;
        let criterion = loop {
            let n = stats.groups();
            let attempted = n + quarantined;
            if driver.precision_mode && n >= 2 {
                let (mean, half) = estimate(stats);
                if mean > 0.0 && half <= driver.target_relative * mean {
                    break StopCriterion::RelativeWidth;
                }
                if half <= ABSOLUTE_HALF_WIDTH_FLOOR {
                    break StopCriterion::AbsoluteFloor;
                }
            }
            if attempted >= driver.max_groups {
                break StopCriterion::GroupCap;
            }
            if control.interrupted() {
                break StopCriterion::Interrupted;
            }
            let start = attempted;
            let take = driver.batch.min(driver.max_groups - attempted);
            let (batch_stats, batch_quarantine) = stream_range(exec, start, start + take);
            stats.merge(batch_stats);
            for group in &batch_quarantine {
                observer.on_group_quarantined(group);
            }
            quarantined += batch_quarantine.len() as u64;
            observer.on_progress(Progress {
                groups_done: stats.groups() + quarantined,
                groups_target: driver.max_groups,
            });
            if let Some(p) = plan.as_mut() {
                if p.cadence.due(stats.groups(), stats.groups() - last_written) {
                    match write_checkpoint(
                        fingerprint,
                        driver,
                        stats,
                        quarantined,
                        p,
                        Some(&mut journal),
                        observer,
                    ) {
                        Ok(()) => {
                            last_written = stats.groups();
                            consecutive_failures = 0;
                            degraded = false;
                            p.cadence.on_write_outcome(true);
                        }
                        Err(error) => {
                            consecutive_failures += 1;
                            p.cadence.on_write_outcome(false);
                            if p.required {
                                *plan_failure = Some(error);
                                break StopCriterion::Interrupted;
                            }
                            // Healthy-to-degraded transition: the first
                            // persistent failure, or the second
                            // consecutive exhausted-transient one.
                            if !degraded && (!error.transient() || consecutive_failures >= 2) {
                                degraded = true;
                                observer.on_checkpoint_degraded(&CheckpointDegraded {
                                    groups_done: stats.groups(),
                                    consecutive_failures,
                                    error,
                                });
                            }
                        }
                    }
                }
            }
        };
        // Guaranteed terminal callback: every driver reports the final
        // count, even when the last batch is shorter than the progress
        // stride or zero batches ran (a resume whose checkpoint already
        // satisfies a stopping rule).
        observer.on_progress(Progress {
            groups_done: stats.groups() + quarantined,
            groups_target: driver.max_groups,
        });
        // Final flush, so the file on disk always reflects the state
        // this run returned with — an interrupted run resumes from the
        // exact stopping point, and resuming a finished run re-reports
        // without re-simulating. Written as the canonical image through
        // the atomic path, even when the last mid-run snapshot already
        // covered this count: that one sits in the journal, and a
        // finished run leaves the canonical bytes. A run that added no
        // group and quarantined none writes nothing when the file
        // already holds exactly that image (a resumed finished run);
        // a journal or an older format still gets rewritten. Skipped
        // when a required write already failed: the run is aborting
        // with that error.
        if plan_failure.is_none() {
            if let Some(p) = plan.as_mut() {
                let idle = stats.groups() == groups_at_entry && quarantined == 0;
                let outcome = if idle && holds_image(p, fingerprint, driver, stats) {
                    Ok(())
                } else {
                    write_checkpoint(fingerprint, driver, stats, quarantined, p, None, observer)
                };
                p.cadence.on_write_outcome(outcome.is_ok());
                match outcome {
                    Ok(()) => {}
                    Err(error) if p.required => *plan_failure = Some(error),
                    Err(_) => {}
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            crate::stats::clone_audit::count(),
            clones_at_entry,
            "the driver path cloned StreamStats moment state"
        );
        report(stats, criterion, quarantined)
    }
}

/// A fused multi-scenario sweep: one persistent worker pool serves
/// *every* scenario as one job, instead of spawning and quiescing a
/// pool per scenario.
///
/// Scenarios with the same seed share their draws. They read the same
/// stream for every group, so they form one *bundle*: a worker reads
/// each group's stream once into a shared draw memo — the RNG words,
/// their `ln_1p` lane and one memoized `powf(e, 1/β)` lane per
/// exponent — and runs every scenario of the bundle against it, in
/// input order. A scrub ladder under common random numbers is one
/// bundle, and each rung pays only its own `γ + η·power` per draw.
/// The memo holds only pure functions of the stream, so bundling, like
/// fusing, never changes a bit of any result.
///
/// A per-scenario loop pays two costs at every scenario boundary: a
/// full pool spawn/join cycle, and end-of-scenario starvation — once a
/// scenario's tail holds fewer unclaimed batches than there are
/// workers, the surplus workers idle at the quiesce barrier while the
/// tail drains. The fused plan removes both: every bundle is a slice
/// of one epoch, all published at once, so a worker that exhausts one
/// bundle's cursor *steals* into the next immediately
/// ([`SchedulerStats::steals`] counts these). The epoch handshake is
/// model-checked exhaustively in [`crate::sync_model`], multi-slice
/// epochs included.
///
/// Fusing is invisible in the statistics: each scenario keeps its own
/// seed's RNG streams, its own lowered sampling kernels, and its own
/// exact-integer [`StreamStats`] accumulator, so per-scenario
/// aggregates are **bit-identical** to running the scenarios one at a
/// time — sequentially or at any thread count (property-tested in
/// `tests/sweep_fused.rs`). What fusing does share is lowering work —
/// each worker lowers every distinct distribution tree once per sweep
/// (via [`raidsim_dists::KernelCache`]), not once per scenario — and,
/// within a bundle, the draws (above).
///
/// Repeated scenarios are deduplicated through a
/// fingerprint-keyed [`SweepCache`]: within a sweep, only the first
/// occurrence of each `(fingerprint, groups, seed)` identity simulates;
/// across invocations, a cache constructed with
/// [`SweepCache::with_store`] warm-starts from persisted results.
///
/// # Example
///
/// ```
/// use raidsim_core::config::RaidGroupConfig;
/// use raidsim_core::run::FusedSweep;
/// use raidsim_core::sweep::SweepScenario;
/// use raidsim_hdd::scrub::ScrubPolicy;
///
/// # fn main() -> Result<(), raidsim_core::CoreError> {
/// let fast = RaidGroupConfig::paper_base_case()?
///     .with_scrub_policy(ScrubPolicy::with_characteristic_hours(12.0))?;
/// let slow = RaidGroupConfig::paper_base_case()?
///     .with_scrub_policy(ScrubPolicy::with_characteristic_hours(336.0))?;
/// let sweep = FusedSweep::new(vec![
///     SweepScenario::new("fast", fast, 7),
///     SweepScenario::new("slow", slow, 7),
/// ]);
/// let report = sweep.run_streaming(200, 2);
/// assert!(report.results[0].1.total_ddfs() <= report.results[1].1.total_ddfs());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FusedSweep {
    scenarios: Vec<SweepScenario>,
    engine: Arc<dyn Engine>,
    claim_batch: u64,
    bias: BiasPolicy,
    tuning: SessionTuning,
}

impl FusedSweep {
    /// Creates a fused sweep over `scenarios` with the default
    /// discrete-event engine.
    ///
    /// # Panics
    ///
    /// Panics if any scenario configuration is invalid (see
    /// [`Simulator::new`]).
    pub fn new(scenarios: Vec<SweepScenario>) -> Self {
        validate_scenarios(&scenarios);
        Self {
            scenarios,
            engine: Arc::new(DesEngine::new()),
            claim_batch: DEFAULT_CLAIM_BATCH,
            bias: BiasPolicy::None,
            tuning: SessionTuning::default(),
        }
    }

    /// Replaces the engine, as [`Simulator::with_engine`].
    pub fn with_engine(mut self, engine: Arc<dyn Engine>) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the claim-batch size, as
    /// [`Simulator::with_claim_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `claim_batch == 0`.
    pub fn with_claim_batch(mut self, claim_batch: u64) -> Self {
        assert!(claim_batch > 0, "claim batch must be positive");
        self.claim_batch = claim_batch;
        self
    }

    /// Replaces the sampling bias, as [`Simulator::with_bias`].
    ///
    /// # Panics
    ///
    /// Panics if a tilt strength is non-finite.
    pub fn with_bias(mut self, bias: BiasPolicy) -> Self {
        bias.validate();
        self.bias = bias;
        self
    }

    /// Replaces the session tuning, as [`Simulator::with_tuning`].
    pub fn with_tuning(mut self, tuning: SessionTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The scenarios of this sweep, in input order.
    pub fn scenarios(&self) -> &[SweepScenario] {
        &self.scenarios
    }

    /// The cache fingerprint of scenario `index` under this sweep's
    /// engine and bias — the first component of the
    /// [`SweepCache`] key, identical to what [`Simulator::run_fingerprint`]
    /// would stamp for the same setup.
    pub fn scenario_fingerprint(&self, index: usize) -> u64 {
        self.fingerprint_of(&self.scenarios[index].cfg)
    }

    fn fingerprint_of(&self, cfg: &RaidGroupConfig) -> u64 {
        config_fingerprint(cfg, self.engine.name(), self.bias)
    }

    /// Runs the sweep in streaming mode with a throwaway in-memory
    /// cache: in-sweep duplicates are still deduplicated, but nothing
    /// persists beyond the call.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, or if every worker died (see
    /// [`Simulator::run_streaming`]).
    pub fn run_streaming(&self, groups: usize, threads: usize) -> SweepReport {
        self.run_streaming_cached(groups, threads, &mut SweepCache::new())
    }

    /// Runs the sweep in streaming mode against a caller-owned
    /// [`SweepCache`]: scenarios whose `(fingerprint, groups, seed)`
    /// identity hits the cache replay their stored aggregate
    /// byte-for-byte instead of simulating; the rest are fused into one
    /// job and inserted afterwards, one [`SweepCache::insert_batch`]
    /// per seed (unless quarantined — a partial aggregate is never
    /// cached), so a persistent cache makes one durable write per
    /// `(groups, seed)` image.
    ///
    /// Per-scenario aggregates are bit-identical to a sequential
    /// [`Simulator::run_streaming`] per scenario, whatever mixture of
    /// cache hits and thread counts produced them.
    ///
    /// # Panics
    ///
    /// As [`FusedSweep::run_streaming`].
    pub fn run_streaming_cached(
        &self,
        groups: usize,
        threads: usize,
        cache: &mut SweepCache,
    ) -> SweepReport {
        assert!(threads > 0, "need at least one thread");
        let n = self.scenarios.len();
        let hits_before = cache.hits();
        let store_hits_before = cache.store_hits();
        if groups == 0 {
            // Zero groups aggregate to empty statistics; nothing is
            // simulated and nothing is worth caching.
            let results = self
                .scenarios
                .iter()
                .map(|sc| (sc.label.clone(), StreamStats::new(sc.cfg.mission_hours)))
                .collect();
            return SweepReport {
                results,
                cache_hits: 0,
                store_hits: 0,
                simulated: 0,
                quarantined: Vec::new(),
                sched: SchedulerStats::default(),
            };
        }
        let keys: Vec<u64> = self
            .scenarios
            .iter()
            .map(|sc| self.fingerprint_of(&sc.cfg))
            .collect();
        // Resolve every scenario: a cache hit replays immediately, the
        // first occurrence of a new identity is planned into the fused
        // run, and later occurrences are deferred to replay from the
        // planned sibling's result.
        let mut results: Vec<Option<StreamStats>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        // Input index that owns each planned scenario.
        let mut planned_input: Vec<usize> = Vec::new();
        let mut owner_of: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        let mut deferred: Vec<(usize, usize)> = Vec::new();
        for (i, sc) in self.scenarios.iter().enumerate() {
            if let Some(stats) = cache.lookup(keys[i], groups as u64, sc.seed) {
                results[i] = Some(stats);
                continue;
            }
            if let Some(&p) = owner_of.get(&(keys[i], sc.seed)) {
                deferred.push((i, p));
                continue;
            }
            owner_of.insert((keys[i], sc.seed), planned_input.len());
            planned_input.push(i);
        }
        let simulated = planned_input.len() as u64;
        let (harvest, sched) = if planned_input.is_empty() {
            (Harvest::default(), SchedulerStats::default())
        } else {
            self.execute(&planned_input, groups, threads, None)
        };
        // A quarantined scenario's aggregate excludes groups its
        // watermark counts — refuse to cache it, exactly as the
        // checkpoint writer refuses to snapshot after a quarantine.
        let mut tainted = vec![false; planned_input.len()];
        for (p, _) in &harvest.quarantine {
            tainted[*p] = true;
        }
        // One batch per seed, so a persistent cache writes each
        // `(groups, seed)` image once.
        let mut seeds: Vec<u64> = planned_input
            .iter()
            .map(|&i| self.scenarios[i].seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        for seed in seeds {
            let batch: Vec<(u64, &StreamStats)> = planned_input
                .iter()
                .zip(&harvest.stats)
                .zip(&tainted)
                .filter(|((&i, _), &tainted)| !tainted && self.scenarios[i].seed == seed)
                .map(|((&i, stats), _)| (keys[i], stats))
                .collect();
            cache.insert_batch(groups as u64, seed, &batch);
        }
        for (p, stats) in harvest.stats.into_iter().enumerate() {
            results[planned_input[p]] = Some(stats);
        }
        for (i, p) in deferred {
            let owner = planned_input[p];
            let replay = if tainted[p] {
                // The cache refused the sibling, so replay it locally —
                // still byte-equal, but not counted as a cache hit.
                let owner_stats = results[owner]
                    .as_ref()
                    .expect("planned scenarios resolved above");
                let mut bytes = Vec::new();
                owner_stats.encode_into(&mut bytes);
                StreamStats::decode(&bytes).expect("freshly encoded statistics decode")
            } else {
                cache
                    .lookup(keys[i], groups as u64, self.scenarios[i].seed)
                    .expect("the owning scenario was inserted above")
            };
            results[i] = Some(replay);
        }
        let quarantined = harvest
            .quarantine
            .into_iter()
            .map(|(p, g)| (planned_input[p], g))
            .collect();
        let results = self
            .scenarios
            .iter()
            .zip(results)
            .map(|(sc, stats)| {
                (
                    sc.label.clone(),
                    stats.expect("every scenario resolved to an aggregate"),
                )
            })
            .collect();
        SweepReport {
            results,
            cache_hits: cache.hits() - hits_before,
            store_hits: cache.store_hits() - store_hits_before,
            simulated,
            quarantined,
            sched,
        }
    }

    /// Runs the sweep keeping every history, returning full per-group
    /// histories per scenario in input order — the fused counterpart of
    /// a per-scenario [`Simulator::run_parallel`] loop, with histories
    /// bit-identical to it. Scenarios on one seed run under **common
    /// random numbers**: every configuration sees the same per-group
    /// RNG streams, so differences between their results are the
    /// configuration effect alone (the variance reduction the ablation
    /// experiments rely on). It does not consult the result
    /// cache (it stores aggregates, not histories) and does not
    /// deduplicate.
    ///
    /// # Example
    ///
    /// ```
    /// use raidsim_core::config::RaidGroupConfig;
    /// use raidsim_core::run::FusedSweep;
    /// use raidsim_core::sweep::SweepScenario;
    /// use raidsim_hdd::scrub::ScrubPolicy;
    ///
    /// # fn main() -> Result<(), raidsim_core::CoreError> {
    /// let fast = RaidGroupConfig::paper_base_case()?
    ///     .with_scrub_policy(ScrubPolicy::with_characteristic_hours(12.0))?;
    /// let slow = RaidGroupConfig::paper_base_case()?
    ///     .with_scrub_policy(ScrubPolicy::with_characteristic_hours(336.0))?;
    /// let sweep = FusedSweep::new(vec![
    ///     SweepScenario::new("fast", fast, 7),
    ///     SweepScenario::new("slow", slow, 7),
    /// ]);
    /// let results = sweep.run_collect(200, 2);
    /// assert!(results[0].1.total_ddfs() <= results[1].1.total_ddfs());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, if every worker died, and — matching
    /// [`Simulator::run_parallel`] — naming the scenario and the group,
    /// if any group's simulation panics.
    pub fn run_collect(&self, groups: usize, threads: usize) -> Vec<(String, SimulationResult)> {
        assert!(threads > 0, "need at least one thread");
        let n = self.scenarios.len();
        let sink = HistorySink::new(n);
        if n > 0 && groups > 0 {
            let all: Vec<usize> = (0..n).collect();
            let (harvest, _sched) = self.execute(&all, groups, threads, Some(&sink));
            if let Some((p, group)) = harvest.quarantine.first() {
                refuse_quarantined(Some(&self.scenarios[*p].label), group);
            }
        }
        self.scenarios
            .iter()
            .zip(sink.into_histories())
            .map(|(sc, histories)| {
                (
                    sc.label.clone(),
                    SimulationResult {
                        histories,
                        mission_hours: sc.cfg.mission_hours,
                    },
                )
            })
            .collect()
    }

    /// Simulates `groups` groups of each `planned` input scenario as one
    /// fused job, every scenario on its own seed's streams `0..groups`.
    ///
    /// Planned scenarios that share a seed read the same stream for
    /// every group, so they form one *bundle*: one slice whose groups
    /// are each simulated once per scenario against one shared draw
    /// memo, the bundle's scenarios in input order (see
    /// [`crate::pool`]). Bundles follow the order of their first
    /// scenario. Without block draws — the scalar A/B lever of
    /// [`SessionTuning`] — every scenario is a bundle of one. The
    /// harvest, and the records of `histories` for a stored run, are
    /// returned indexed like `planned`.
    fn execute(
        &self,
        planned: &[usize],
        groups: usize,
        threads: usize,
        histories: Option<&HistorySink>,
    ) -> (Harvest, SchedulerStats) {
        let groups = groups as u64;
        let mut bundles: Vec<Vec<usize>> = Vec::new();
        let mut bundle_of_seed: BTreeMap<u64, usize> = BTreeMap::new();
        for (p, &i) in planned.iter().enumerate() {
            let seed = self.scenarios[i].seed;
            match bundle_of_seed.get(&seed) {
                Some(&b) if self.tuning.block_draws => bundles[b].push(p),
                _ => {
                    bundle_of_seed.insert(seed, bundles.len());
                    bundles.push(vec![p]);
                }
            }
        }
        // Executor scenario index -> planned position.
        let order: Vec<usize> = bundles.iter().flatten().copied().collect();
        let mut slices = Vec::with_capacity(bundles.len());
        let mut first = 0;
        for (b, members) in (0u64..).zip(&bundles) {
            slices.push(Slice {
                bundle: first..first + members.len(),
                lo: b * groups,
                hi: (b + 1) * groups,
                first_stream: 0,
            });
            first += members.len();
        }
        let done = AtomicU64::new(0);
        let ctx = ExecCtx {
            engine: self.engine.as_ref(),
            scenarios: order
                .iter()
                .map(|&p| ScenarioRef {
                    cfg: &self.scenarios[planned[p]].cfg,
                    seed: self.scenarios[planned[p]].seed,
                })
                .collect(),
            bias: self.bias,
            tuning: self.tuning,
            threads,
            claim_batch: self.claim_batch,
            observer: &(),
            done: &done,
            target: planned.len() as u64 * groups,
            histories,
        };
        let (harvest, sched) = pool::execute(ctx, |exec| exec.run(slices));
        if let Some(sink) = histories {
            sink.permute(&order);
        }
        (harvest.permuted(&order), sched)
    }
}

/// Snapshots the current run state through the plan's store, retrying
/// transient failures under the plan's backoff budget, and reports the
/// outcome to the observer. The returned error is the *last* attempt's
/// failure; the driver decides whether it is fatal (required mode) or a
/// degradation.
///
/// Refused outright once any group has been quarantined: the stats
/// exclude the quarantined groups while the watermark would count them,
/// so a snapshot taken now would resume into different statistics than
/// continuing produces. Any checkpoint already on disk predates the
/// first quarantine and remains valid.
///
/// `journal` is `Some` for a mid-run snapshot, which goes to the run's
/// journal (see [`persist`]), and `None` for the final write of the
/// canonical image.
fn write_checkpoint(
    fingerprint: u64,
    driver: &DriverState,
    stats: &StreamStats,
    quarantined: u64,
    plan: &mut CheckpointPlan<'_>,
    mut journal: Option<&mut Option<Journal>>,
    observer: &dyn StreamObserver,
) -> Result<(), CheckpointError> {
    if quarantined > 0 {
        let error = CheckpointError::Unresumable {
            reason: format!(
                "{quarantined} group(s) were quarantined after the last checkpoint; \
                 the completed prefix is no longer fully aggregated"
            ),
        };
        observer.on_checkpoint_failed(&error);
        return Err(error);
    }
    plan.backoff.begin();
    let attempts = plan.backoff.attempts().max(1);
    // Serialized once, straight from the live accumulator: assembling a
    // `SimCheckpoint` value here would clone the moment state on every
    // write (and trip the driver's clone audit).
    let image = SimCheckpoint::bytes_from_parts(fingerprint, driver, stats);
    let mut attempt = 0;
    loop {
        attempt += 1;
        let outcome = match journal.as_deref_mut() {
            Some(journal) => persist(plan.store, plan.path, &image, journal),
            None => plan.store.write(plan.path, &image),
        };
        match outcome {
            Ok(()) => {
                observer.on_checkpoint_saved(plan.path, stats.groups());
                return Ok(());
            }
            Err(error) => {
                // Only transient failures are worth another attempt,
                // and the backoff can cut the budget short (the CLI
                // does when its wall-clock deadline passes).
                if error.transient() && attempt < attempts && plan.backoff.pause(attempt, &error) {
                    continue;
                }
                observer.on_checkpoint_failed(&error);
                return Err(error);
            }
        }
    }
}

/// `true` when the plan's file already holds exactly the canonical image
/// of `stats` under `driver`. One read through the plan's store — one
/// [`crate::store::FaultStore`] operation; a failed read is a `false`,
/// which only costs the write it would have saved.
fn holds_image(
    plan: &mut CheckpointPlan<'_>,
    fingerprint: u64,
    driver: &DriverState,
    stats: &StreamStats,
) -> bool {
    let image = SimCheckpoint::bytes_from_parts(fingerprint, driver, stats);
    plan.store.read(plan.path).is_ok_and(|bytes| bytes == image)
}

/// One attempt at a mid-run snapshot: overwrite the journal's next slot
/// in place, or create the journal atomically when this run has none or
/// `image` outgrew its slots. A failed in-place write leaves `journal`
/// as it was, so a retry targets the same slot with the same sequence
/// number; a failed creation forgets the journal, since the file's
/// state is then unknown.
fn persist(
    store: &mut dyn SnapshotStore,
    path: &Path,
    image: &[u8],
    journal: &mut Option<Journal>,
) -> Result<(), CheckpointError> {
    if let Some(open) = journal.as_mut() {
        if let Some((offset, slot)) = open.next_write(image) {
            store.write_at(path, offset, &slot)?;
            open.committed();
            return Ok(());
        }
    }
    let (created, file) = Journal::create(image);
    *journal = None;
    store.write(path, &file)?;
    *journal = Some(created);
    Ok(())
}

/// Two-sided z-score for the given confidence level, via the
/// workspace's single inverse-normal implementation
/// ([`raidsim_dists::special::inv_std_normal`], Acklam, |ε| < 1.15e-9).
fn z_score(confidence: f64) -> f64 {
    raidsim_dists::special::inv_std_normal(0.5 + confidence / 2.0)
}

/// Aggregated result of a batch of group simulations.
///
/// # Empty-result policy
///
/// Totals and counts ([`SimulationResult::total_ddfs`],
/// [`SimulationResult::ddfs_by`], [`SimulationResult::kind_counts`],
/// [`SimulationResult::total_op_failures`], …) are `0` on an empty
/// result: an empty sum is well defined. Per-group rates
/// ([`SimulationResult::ddfs_per_thousand_groups`],
/// [`SimulationResult::per_thousand_by`],
/// [`SimulationResult::mean_availability`]) are statistically undefined
/// without at least one group and **panic** rather than fabricate a
/// value — previously `per_thousand_by` silently reported `0` while
/// `mean_availability` panicked, and a silent zero in a reliability
/// report is the worse failure mode. [`crate::stats::StreamStats`]
/// follows the same policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// One history per simulated group, in group-index order.
    pub histories: Vec<GroupHistory>,
    /// Mission length, hours.
    pub mission_hours: f64,
}

impl SimulationResult {
    /// Number of simulated groups.
    pub fn groups(&self) -> usize {
        self.histories.len()
    }

    /// Total DDFs across all groups over the full mission.
    pub fn total_ddfs(&self) -> usize {
        self.histories.iter().map(|h| h.ddf_count()).sum()
    }

    /// Total DDFs occurring at or before `t` hours.
    pub fn ddfs_by(&self, t: f64) -> usize {
        self.histories.iter().map(|h| h.ddfs_by(t)).sum()
    }

    /// DDFs per 1,000 RAID groups over the full mission — the y-axis of
    /// the paper's Figures 6, 7 and 9.
    ///
    /// # Panics
    ///
    /// Panics on an empty result (see the empty-result policy).
    pub fn ddfs_per_thousand_groups(&self) -> f64 {
        self.per_thousand_by(self.mission_hours)
    }

    /// DDFs per 1,000 groups at or before `t` hours.
    ///
    /// # Panics
    ///
    /// Panics on an empty result (see the empty-result policy).
    pub fn per_thousand_by(&self, t: f64) -> f64 {
        assert!(
            !self.histories.is_empty(),
            "no groups simulated (per-group rates are undefined on an empty result)"
        );
        1_000.0 * self.ddfs_by(t) as f64 / self.groups() as f64
    }

    /// All DDF times across all groups, sorted ascending — the input to
    /// the mean-cumulative-function estimator.
    pub fn ddf_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self
            .histories
            .iter()
            .flat_map(|h| h.ddfs.iter().map(|e| e.time))
            .collect();
        debug_assert!(
            times.iter().all(|t| t.is_finite()),
            "DDF times must be finite"
        );
        times.sort_by(f64::total_cmp);
        times
    }

    /// DDF counts by kind: `(double-operational, latent-then-operational)`.
    pub fn kind_counts(&self) -> (usize, usize) {
        let mut op = 0;
        let mut latent = 0;
        for h in &self.histories {
            for e in &h.ddfs {
                match e.kind {
                    DdfKind::DoubleOperational => op += 1,
                    DdfKind::LatentThenOperational => latent += 1,
                }
            }
        }
        (op, latent)
    }

    /// Total operational failures across groups.
    pub fn total_op_failures(&self) -> u64 {
        self.histories.iter().map(|h| h.op_failures).sum()
    }

    /// Total latent defects created across groups, each group counting
    /// up to its observation horizon (see [`GroupHistory::latent_defects`]).
    pub fn total_latent_defects(&self) -> u64 {
        self.histories.iter().map(|h| h.latent_defects).sum()
    }

    /// Fleet-average drive availability: up drive-hours over total
    /// drive-hours.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty or `drives == 0`.
    pub fn mean_availability(&self, drives: usize) -> f64 {
        assert!(!self.histories.is_empty(), "no histories");
        assert!(drives > 0, "need at least one drive");
        let down: f64 = self.histories.iter().map(|h| h.downtime_hours).sum();
        1.0 - down / (self.histories.len() as f64 * drives as f64 * self.mission_hours)
    }

    /// Writes one CSV row per group history (`group, ddfs, op_failures,
    /// latent_defects, scrubs_completed, restores_completed,
    /// downtime_hours, log_weight`) for analysis in external tooling.
    /// The `latent_defects` and `scrubs_completed` columns count up to
    /// the group's observation horizon, its last operational event
    /// (zero for a group without one; see [`GroupHistory`]), not over
    /// the whole mission. The `log_weight` column is the
    /// importance-sampling log-likelihood-ratio — all zeros for
    /// unbiased runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_history_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "group,ddfs,op_failures,latent_defects,scrubs_completed,restores_completed,\
             downtime_hours,log_weight"
        )?;
        for (i, h) in self.histories.iter().enumerate() {
            writeln!(
                w,
                "{i},{},{},{},{},{},{:.4},{:.6}",
                h.ddf_count(),
                h.op_failures,
                h.latent_defects,
                h.scrubs_completed,
                h.restores_completed,
                h.downtime_hours,
                h.log_weight
            )?;
        }
        Ok(())
    }

    /// Writes all DDF event times (`group, time_hours, kind`) as CSV.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_ddf_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "group,time_hours,kind")?;
        for (i, h) in self.histories.iter().enumerate() {
            for e in &h.ddfs {
                let kind = match e.kind {
                    DdfKind::DoubleOperational => "double_operational",
                    DdfKind::LatentThenOperational => "latent_then_operational",
                };
                writeln!(w, "{i},{:.4},{kind}", e.time)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransitionDistributions;

    fn base() -> RaidGroupConfig {
        RaidGroupConfig::paper_base_case().unwrap()
    }

    #[test]
    fn run_is_deterministic() {
        let sim = Simulator::new(base());
        let a = sim.run_parallel(50, 11, 1);
        let b = sim.run_parallel(50, 11, 1);
        assert_eq!(a, b);
        let c = sim.run_parallel(50, 12, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_equals_serial() {
        let sim = Simulator::new(base());
        let serial = sim.run_parallel(64, 99, 1);
        for threads in [2, 3, 8] {
            let parallel = sim.run_parallel(64, 99, threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_with_one_thread_matches() {
        // One thread is the plain serial loop: group `i` is the engine's
        // history on stream `i` of the seed.
        let sim = Simulator::new(base());
        let serial: Vec<GroupHistory> = (0..10)
            .map(|i| {
                DesEngine::new().simulate_group(sim.config(), &mut raidsim_dists::rng::stream(5, i))
            })
            .collect();
        assert_eq!(sim.run_parallel(10, 5, 1).histories, serial);
    }

    #[test]
    fn counters_aggregate() {
        let sim = Simulator::new(base());
        let r = sim.run_parallel(100, 3, 1);
        assert_eq!(r.groups(), 100);
        assert_eq!(r.total_ddfs(), r.kind_counts().0 + r.kind_counts().1);
        assert_eq!(r.ddfs_by(r.mission_hours), r.total_ddfs());
        assert_eq!(r.ddfs_by(0.0), 0);
        let times = r.ddf_times();
        assert_eq!(times.len(), r.total_ddfs());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn per_thousand_scaling() {
        let sim = Simulator::new(base());
        let r = sim.run_parallel(500, 21, 1);
        let expect = 1_000.0 * r.total_ddfs() as f64 / 500.0;
        assert!((r.ddfs_per_thousand_groups() - expect).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid RAID group configuration")]
    fn invalid_config_panics_at_construction() {
        let mut cfg = base();
        cfg.drives = 0;
        let _ = Simulator::new(cfg);
    }

    #[test]
    fn timeline_engine_via_with_engine() {
        use crate::engine::TimelineEngine;
        let sim = Simulator::new(base()).with_engine(Arc::new(TimelineEngine::new()));
        let r = sim.run_parallel(20, 7, 1);
        assert_eq!(r.groups(), 20);
    }

    #[test]
    fn csv_export_round_trips_counts() {
        let sim = Simulator::new(base());
        let r = sim.run_parallel(50, 2, 1);
        let mut hist_csv = Vec::new();
        r.write_history_csv(&mut hist_csv).unwrap();
        let text = String::from_utf8(hist_csv).unwrap();
        assert_eq!(text.lines().count(), 51); // header + 50 groups
        assert!(text.starts_with("group,ddfs,"));
        // Sum of the ddfs column equals total_ddfs.
        let total: usize = text
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, r.total_ddfs());

        let mut ddf_csv = Vec::new();
        r.write_ddf_csv(&mut ddf_csv).unwrap();
        let text = String::from_utf8(ddf_csv).unwrap();
        assert_eq!(text.lines().count(), 1 + r.total_ddfs());
    }

    #[test]
    fn availability_is_near_one_for_base_case() {
        // ~1.25 failures per group per decade x ~16.6 h mean restore
        // over 8 x 87,600 drive-hours: availability ~ 1 - 3e-5.
        let sim = Simulator::new(base());
        let r = sim.run_parallel(500, 13, 1);
        let a = r.mean_availability(8);
        assert!(a > 0.9999 && a < 1.0, "availability = {a}");
        // Consistency with the analytic expectation.
        let expected_down = r.total_op_failures() as f64 * 16.6;
        let measured_down: f64 = r.histories.iter().map(|h| h.downtime_hours).sum();
        assert!(
            (measured_down - expected_down).abs() / expected_down < 0.2,
            "measured {measured_down}, expected {expected_down}"
        );
    }

    #[test]
    fn engines_agree_on_downtime() {
        use crate::engine::TimelineEngine;
        let sim_des = Simulator::new(base());
        let sim_tl = Simulator::new(base()).with_engine(Arc::new(TimelineEngine::new()));
        let d: f64 = sim_des
            .run_parallel(800, 19, 1)
            .histories
            .iter()
            .map(|h| h.downtime_hours)
            .sum();
        let t: f64 = sim_tl
            .run_parallel(800, 23, 1)
            .histories
            .iter()
            .map(|h| h.downtime_hours)
            .sum();
        assert!(
            (d - t).abs() / d.max(1.0) < 0.15,
            "des = {d}, timeline = {t}"
        );
    }

    #[test]
    fn precision_run_converges_and_matches_plain_run() {
        let sim = Simulator::new(base());
        let (result, report) = sim.run_until_precision(0.25, 0.90, 200, 4_000, 99, 4);
        assert!(report.converged, "{report:?}");
        assert!(report.half_width / report.mean <= 0.25);
        assert_eq!(report.groups, result.groups());
        // The estimand is unchanged: same as a plain run of that size.
        let plain = sim.run_parallel(result.groups(), 99, 1);
        assert_eq!(result, plain);
    }

    #[test]
    fn precision_run_hits_cap_for_impossible_target() {
        let sim = Simulator::new(base());
        let (result, report) = sim.run_until_precision(1e-6, 0.95, 50, 150, 3, 2);
        assert!(!report.converged);
        assert_eq!(result.groups(), 150);
        assert_eq!(report.groups, 150);
    }

    #[test]
    fn streaming_matches_stored_at_any_thread_count() {
        let sim = Simulator::new(base());
        let stored = StreamStats::from_result(&sim.run_parallel(120, 41, 1));
        for threads in [1, 2, 3, 8] {
            let streamed = sim.run_streaming(120, 41, threads);
            assert_eq!(streamed, stored, "threads = {threads}");
        }
    }

    #[test]
    fn streaming_aggregates_match_stored_accessors() {
        let sim = Simulator::new(base());
        let stored = sim.run_parallel(150, 5, 1);
        let s = sim.run_streaming(150, 5, 4);
        assert_eq!(s.groups() as usize, stored.groups());
        assert_eq!(s.total_ddfs() as usize, stored.total_ddfs());
        let (op, latent) = stored.kind_counts();
        assert_eq!(s.kind_counts(), (op as u64, latent as u64));
        assert_eq!(s.total_op_failures(), stored.total_op_failures());
        assert_eq!(s.total_latent_defects(), stored.total_latent_defects());
        assert_eq!(s.ddf_time_histogram().iter().sum::<u64>(), s.total_ddfs());
        assert!((s.ddfs_per_thousand_groups() - stored.ddfs_per_thousand_groups()).abs() < 1e-9);
        let down: f64 = stored.histories.iter().map(|h| h.downtime_hours).sum();
        assert!((s.downtime_hours() - down).abs() < 1e-6);
    }

    #[test]
    fn precision_streaming_report_is_identical_to_stored() {
        let sim = Simulator::new(base());
        for stored_threads in [1, 3] {
            let (result, stored_report) =
                sim.run_until_precision(0.25, 0.90, 200, 4_000, 99, stored_threads);
            for threads in [1, 3, 8] {
                let driver = DriverState::precision(0.25, 0.90, 200, 4_000, 99);
                let (stats, report) = sim
                    .run_checkpointed(driver, threads, &(), &(), None, None)
                    .expect("no plan and no resume cannot fail");
                assert_eq!(
                    report, stored_report,
                    "threads = {stored_threads}/{threads}"
                );
                assert_eq!(stats, StreamStats::from_result(&result));
            }
        }
    }

    #[test]
    fn zero_event_config_converges_on_absolute_floor() {
        // A drive that essentially cannot fail inside the mission: the
        // old `mean > 0` gate burned this to max_groups every time.
        let mut cfg = base();
        cfg.dists.ttop = Arc::new(raidsim_dists::Weibull3::two_param(1e15, 1.0).unwrap());
        let sim = Simulator::new(cfg);
        let (result, report) = sim.run_until_precision(0.1, 0.95, 50, 100_000, 7, 2);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.criterion, StopCriterion::AbsoluteFloor);
        assert_eq!(report.mean, 0.0);
        assert_eq!(result.groups(), 50, "should stop after the first batch");
    }

    #[test]
    fn converged_report_names_relative_criterion() {
        let sim = Simulator::new(base());
        let (_, report) = sim.run_until_precision(0.25, 0.90, 200, 4_000, 99, 4);
        assert_eq!(report.criterion, StopCriterion::RelativeWidth);
        assert!(report.converged);
    }

    #[test]
    fn capped_report_names_group_cap() {
        let sim = Simulator::new(base());
        let (_, report) = sim.run_until_precision(1e-6, 0.95, 50, 150, 3, 2);
        assert_eq!(report.criterion, StopCriterion::GroupCap);
        assert!(!report.converged);
    }

    #[test]
    fn observer_sees_monotone_progress() {
        use std::sync::Mutex;
        #[derive(Debug, Default)]
        struct Recorder(Mutex<Vec<Progress>>);
        impl StreamObserver for Recorder {
            fn on_progress(&self, p: Progress) {
                self.0.lock().unwrap().push(p);
            }
        }
        let sim = Simulator::new(base());
        let rec = Recorder::default();
        let stats = sim.run_streaming_instrumented(600, 9, 3, &rec).0;
        assert_eq!(stats.groups(), 600);
        let seen = rec.0.lock().unwrap();
        assert!(!seen.is_empty());
        let last = seen.last().unwrap();
        assert_eq!(last.groups_done, 600);
        assert_eq!(last.groups_target, 600);
        assert!(seen.iter().all(|p| p.groups_done <= p.groups_target));
    }

    #[test]
    fn claim_batch_size_never_changes_results() {
        let sim = Simulator::new(base());
        let serial = sim.run_parallel(130, 77, 1);
        let streamed_serial = StreamStats::from_result(&serial);
        for claim in [1, 2, 7, 64, 1_000] {
            let tuned = sim.clone().with_claim_batch(claim);
            assert_eq!(tuned.run_parallel(130, 77, 4), serial, "claim = {claim}");
            assert_eq!(
                tuned.run_streaming(130, 77, 4),
                streamed_serial,
                "claim = {claim}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "claim batch must be positive")]
    fn zero_claim_batch_panics() {
        let _ = Simulator::new(base()).with_claim_batch(0);
    }

    #[test]
    fn instrumented_worker_counts_cover_every_group() {
        let sim = Simulator::new(base()).with_claim_batch(16);
        let (stats, sched) = sim.run_streaming_instrumented(500, 3, 4, &());
        assert_eq!(stats.groups(), 500);
        assert_eq!(sched.total(), 500);
        assert_eq!(sched.worker_groups.len(), 4);
        assert!(sched.max_worker_groups() >= sched.min_worker_groups());
        let balance = sched.balance();
        assert!((0.0..=1.0).contains(&balance), "balance = {balance}");
        // Serial path: one synthetic worker holding everything.
        let (_, sched1) = sim.run_streaming_instrumented(500, 3, 1, &());
        assert_eq!(sched1.worker_groups, vec![500]);
        assert_eq!(sched1.balance(), 1.0);
    }

    #[test]
    fn batch_cursor_hands_out_each_index_once() {
        let cursor = BatchCursor::new(5, 103, 10);
        let mut seen = Vec::new();
        while let Some(range) = cursor.claim() {
            seen.extend(range);
        }
        assert_eq!(seen, (5..103).collect::<Vec<_>>());
        // Exhausted cursors stay exhausted.
        assert!(cursor.claim().is_none());
    }

    /// Records every progress callback, for stride/finality assertions.
    #[derive(Debug, Default)]
    struct ProgressRecorder(std::sync::Mutex<Vec<Progress>>);
    impl StreamObserver for ProgressRecorder {
        fn on_progress(&self, p: Progress) {
            self.0.lock().unwrap().push(p);
        }
    }

    #[test]
    fn single_thread_progress_hits_every_stride_and_finishes() {
        let sim = Simulator::new(base());
        let rec = ProgressRecorder::default();
        let groups = 2 * PROGRESS_STRIDE + 37; // short terminal remainder
        sim.run_streaming_instrumented(groups as usize, 13, 1, &rec);
        let seen = rec.0.lock().unwrap();
        // Strictly increasing — per-worker stride accounting is
        // monotone by construction.
        assert!(
            seen.windows(2).all(|w| w[0].groups_done < w[1].groups_done),
            "{seen:?}"
        );
        // Every stride boundary observed, in order.
        let strides: Vec<u64> = seen
            .iter()
            .map(|p| p.groups_done)
            .filter(|d| d.is_multiple_of(PROGRESS_STRIDE))
            .collect();
        assert_eq!(strides, vec![PROGRESS_STRIDE, 2 * PROGRESS_STRIDE]);
        // The sub-stride remainder is covered by the final callback.
        assert_eq!(seen.last().unwrap().groups_done, groups);
    }

    #[test]
    fn every_driver_reports_a_final_callback() {
        let sim = Simulator::new(base());
        for threads in [1, 3] {
            let rec = ProgressRecorder::default();
            // 100 groups < PROGRESS_STRIDE: without the guaranteed
            // final callback no stride would ever fire.
            sim.run_streaming_instrumented(100, 5, threads, &rec);
            let seen = rec.0.lock().unwrap();
            assert_eq!(
                seen.last().map(|p| p.groups_done),
                Some(100),
                "threads = {threads}"
            );

            let rec = ProgressRecorder::default();
            let driver = DriverState::precision(0.25, 0.90, 90, 4_000, 99);
            let (stats, _) = sim
                .run_checkpointed(driver, threads, &rec, &(), None, None)
                .expect("no plan and no resume cannot fail");
            let seen = rec.0.lock().unwrap();
            assert_eq!(
                seen.last().map(|p| p.groups_done),
                Some(stats.groups()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn fused_sweep_uses_the_given_engine() {
        use crate::engine::TimelineEngine;
        // The two engines sample differently, so identical seeds give
        // different histories; `FusedSweep::with_engine` must propagate
        // the engine rather than silently using the default.
        let scenarios = || vec![SweepScenario::new("base", base(), 21)];
        let results_des = FusedSweep::new(scenarios()).run_collect(50, 2);
        let results_tl = FusedSweep::new(scenarios())
            .with_engine(Arc::new(TimelineEngine::new()))
            .run_collect(50, 2);
        let direct_tl = Simulator::new(base())
            .with_engine(Arc::new(TimelineEngine::new()))
            .run_parallel(50, 21, 2);
        assert_eq!(results_tl[0].1, direct_tl);
        assert_ne!(results_tl[0].1, results_des[0].1);
    }

    #[test]
    #[should_panic(expected = "no groups simulated")]
    fn empty_per_thousand_panics() {
        let r = SimulationResult {
            histories: Vec::new(),
            mission_hours: 100.0,
        };
        r.ddfs_per_thousand_groups();
    }

    #[test]
    #[should_panic(expected = "no histories")]
    fn empty_availability_panics() {
        let r = SimulationResult {
            histories: Vec::new(),
            mission_hours: 100.0,
        };
        r.mean_availability(8);
    }

    #[test]
    fn z_scores_for_common_levels() {
        assert!((super::z_score(0.95) - 1.959964).abs() < 1e-5);
        assert!((super::z_score(0.99) - 2.5758293).abs() < 1e-6);
        // Interpolated level is in the right ballpark.
        let z = super::z_score(0.975);
        assert!(z > 2.0 && z < 2.5, "z = {z}");
    }

    #[test]
    fn unbiased_runs_have_zero_log_weights() {
        let sim = Simulator::new(base());
        let r = sim.run_parallel(60, 3, 1);
        assert!(r.histories.iter().all(|h| h.log_weight == 0.0));
        let s = sim.run_streaming(60, 3, 2);
        assert_eq!(s.weight_sum(), 60.0);
        assert_eq!(s.effective_sample_size(), 60.0);
    }

    #[test]
    fn biased_runs_are_deterministic_and_scheduling_invariant() {
        let bias = BiasPolicy::HazardTilt {
            op_theta: 1.0,
            latent_theta: 0.25,
        };
        let sim = Simulator::new(base()).with_bias(bias);
        let serial = sim.run_parallel(90, 17, 1);
        // Tilting visits different paths than the plain measure…
        assert_ne!(serial, Simulator::new(base()).run_parallel(90, 17, 1));
        // …records non-trivial weights…
        assert!(serial.histories.iter().any(|h| h.log_weight != 0.0));
        // …and stays a pure function of (config, bias, seed) at any
        // thread count and claim size.
        let stored = StreamStats::from_result(&serial);
        for threads in [1, 2, 4] {
            assert_eq!(sim.run_parallel(90, 17, threads), serial);
            assert_eq!(sim.run_streaming(90, 17, threads), stored);
        }
        let tuned = sim.clone().with_claim_batch(7);
        assert_eq!(tuned.run_streaming(90, 17, 3), stored);
    }

    #[test]
    fn biased_precision_report_uses_the_weighted_estimator() {
        let bias = BiasPolicy::HazardTilt {
            op_theta: 1.2,
            latent_theta: 0.0,
        };
        let sim = Simulator::new(base()).with_bias(bias);
        let driver = DriverState::precision(0.25, 0.90, 200, 2_000, 7);
        let (stats, report) = sim
            .run_checkpointed(driver, 2, &(), &(), None, None)
            .expect("no plan and no resume cannot fail");
        assert_eq!(report.mean, stats.weighted_mean_ddfs());
        let z = super::z_score(0.90);
        assert_eq!(report.half_width, stats.weighted_half_width(z));
        assert!(stats.effective_sample_size() <= stats.groups() as f64);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_tilt_is_rejected() {
        let _ = Simulator::new(base()).with_bias(BiasPolicy::HazardTilt {
            op_theta: f64::NAN,
            latent_theta: 0.0,
        });
    }

    #[test]
    fn no_latent_defect_config_counts_zero_defects() {
        let cfg = RaidGroupConfig {
            dists: TransitionDistributions::constant_rates().unwrap(),
            ..base()
        };
        let r = Simulator::new(cfg).run_parallel(200, 17, 1);
        assert_eq!(r.total_latent_defects(), 0);
        assert_eq!(r.kind_counts().1, 0);
    }
}
