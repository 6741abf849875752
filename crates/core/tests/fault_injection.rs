//! Deterministic fault-injection torture tests: checkpoint I/O under a
//! hostile store, and worker-panic supervision end to end.
//!
//! The contract under test is the robustness tentpole (DESIGN.md §17):
//! for **every** fault kind at **every** store-operation index, a
//! checkpointed run either completes bit-identically to an undisturbed
//! reference, or refuses with a *typed* [`CheckpointError`] — never a
//! wrong answer, never a hang, never an unclassified panic. The sweep
//! runs entirely against [`MemStore`] through the seeded [`FaultStore`]
//! decorator, so each failure is exactly reproducible from its
//! `(kind, op index)` coordinates.
//!
//! The supervision half injects panics into the *engine* instead of the
//! store: a one-shot panic in collect mode kills a pool worker and the
//! survivors must redo its remainder bit-identically; a deterministic
//! per-group panic in stream mode must quarantine the same group with
//! the same aggregates at every thread count; a sticky panic (every
//! worker that touches the group dies) must escalate to the
//! coordinator's clean abort.

use raidsim_core::checkpoint::{CheckpointError, DriverState, SimCheckpoint};
use raidsim_core::config::RaidGroupConfig;
use raidsim_core::engine::{DesEngine, Engine};
use raidsim_core::events::{CheckpointDegraded, GroupHistory, QuarantinedGroup};
use raidsim_core::run::{
    CheckpointPlan, EveryGroups, FusedSweep, RunControl, Simulator, StreamObserver,
};
use raidsim_core::store::{AttemptBudget, FaultKind, FaultPlan, FaultStore, MemStore};
use raidsim_core::sweep::SweepScenario;
use raidsim_dists::rng::{stream, SimRng};
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn base() -> RaidGroupConfig {
    RaidGroupConfig::paper_base_case().unwrap()
}

/// Requests a graceful stop once `limit` batch boundaries have been
/// polled, mimicking a SIGINT landing mid-run.
struct InterruptAfter {
    polls: AtomicU64,
    limit: u64,
}

impl InterruptAfter {
    fn new(limit: u64) -> Self {
        Self {
            polls: AtomicU64::new(0),
            limit,
        }
    }
}

impl RunControl for InterruptAfter {
    fn interrupted(&self) -> bool {
        self.polls.fetch_add(1, Ordering::Relaxed) >= self.limit
    }
}

/// Records every checkpoint lifecycle event the run emits.
#[derive(Default)]
struct Recorder {
    saved: AtomicU64,
    failed: AtomicU64,
    degraded: Mutex<Vec<CheckpointDegraded>>,
    quarantined: Mutex<Vec<QuarantinedGroup>>,
}

impl StreamObserver for Recorder {
    fn on_checkpoint_saved(&self, _path: &Path, _groups_done: u64) {
        self.saved.fetch_add(1, Ordering::Relaxed);
    }
    fn on_checkpoint_failed(&self, _error: &CheckpointError) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
    fn on_checkpoint_degraded(&self, event: &CheckpointDegraded) {
        self.degraded.lock().unwrap().push(event.clone());
    }
    fn on_group_quarantined(&self, group: &QuarantinedGroup) {
        self.quarantined.lock().unwrap().push(group.clone());
    }
}

fn mem_path() -> PathBuf {
    PathBuf::from("mem://torture.ckpt")
}

/// Precision-driver parameters shared by every checkpoint leg: small
/// batches (min 20, cap 100) so a run crosses several checkpoint
/// writes before finishing.
const PRECISION: (f64, f64, usize, usize) = (0.25, 0.95, 20, 100);

fn driver(seed: u64) -> DriverState {
    let (hw, conf, min, max) = PRECISION;
    DriverState::precision(hw, conf, min as u64, max as u64, seed)
}

fn reference(
    seed: u64,
) -> (
    raidsim_core::stats::StreamStats,
    raidsim_core::run::PrecisionReport,
) {
    let (hw, conf, min, max) = PRECISION;
    Simulator::new(base()).run_until_precision_streaming(hw, conf, min, max, seed, 2)
}

/// The torture sweep: every fault kind at every early store-operation
/// index, against an interrupted-then-resumed checkpointed run. Each
/// case must end in one of exactly two states — final statistics
/// bit-identical to the undisturbed reference, or a typed refusal at
/// resume (after which a fresh start still reaches the reference).
#[test]
fn every_fault_kind_at_every_op_index_is_identical_or_refused() {
    let kinds = [
        FaultKind::Enospc,
        FaultKind::Eintr,
        FaultKind::PartialWrite,
        FaultKind::FsyncFail,
        FaultKind::TornRename,
        FaultKind::ReadCorruption,
        FaultKind::Stall { millis: 3 },
    ];
    let seed = 41;
    let (ref_stats, ref_report) = reference(seed);
    let path = mem_path();
    for kind in kinds {
        for op in 0..6u64 {
            let label = format!("{kind} at op {op}");
            let mut store = FaultStore::new(MemStore::new(), FaultPlan::new().at(op, kind))
                .with_stall_hook(Box::new(|_millis| {}));
            let sim = Simulator::new(base());

            // Interrupted leg: the fault lands on some write attempt
            // (or, for late indices, on the resume read below).
            let control = InterruptAfter::new(2);
            let mut cadence = EveryGroups(1);
            let mut backoff = AttemptBudget(2);
            let plan = CheckpointPlan {
                path: &path,
                cadence: &mut cadence,
                store: &mut store,
                backoff: &mut backoff,
                required: false,
            };
            sim.run_checkpointed(driver(seed), 2, &(), &control, Some(plan), None)
                .unwrap_or_else(|e| panic!("{label}: optional checkpointing must not abort: {e}"));

            // Resume through the same faulty store, so read faults at
            // the remaining op indices are exercised too.
            match SimCheckpoint::load_from(&mut store, &path) {
                Ok(ckpt) => {
                    let (stats, report) = sim
                        .run_checkpointed(driver(seed), 3, &(), &(), None, Some(ckpt))
                        .unwrap_or_else(|e| panic!("{label}: clean resume failed: {e}"));
                    assert_eq!(stats, ref_stats, "{label}: resumed stats diverged");
                    assert_eq!(report, ref_report, "{label}: resumed report diverged");
                }
                Err(
                    CheckpointError::Io { .. }
                    | CheckpointError::Corrupt { .. }
                    | CheckpointError::VersionMismatch { .. },
                ) => {
                    // Typed refusal: the snapshot is absent, torn, or
                    // unreadable. Recovery is a fresh start, which must
                    // still reach the reference bit-identically.
                    let (stats, report) = sim
                        .run_checkpointed(driver(seed), 2, &(), &(), None, None)
                        .unwrap_or_else(|e| panic!("{label}: fresh restart failed: {e}"));
                    assert_eq!(stats, ref_stats, "{label}: restart stats diverged");
                    assert_eq!(report, ref_report, "{label}: restart report diverged");
                }
                Err(other) => panic!("{label}: unexpected refusal class: {other}"),
            }
        }
    }
}

/// Transient faults (EINTR-class) inside the retry budget are invisible:
/// no failure event reaches the observer, a snapshot lands in the
/// store, and the run's statistics are untouched.
#[test]
fn transient_faults_are_absorbed_by_the_retry_budget() {
    let seed = 43;
    let (ref_stats, _) = reference(seed);
    let plan = FaultPlan::new()
        .at(0, FaultKind::Eintr)
        .at(2, FaultKind::FsyncFail)
        .at(4, FaultKind::PartialWrite);
    let mut store = FaultStore::new(MemStore::new(), plan);
    let path = mem_path();
    let recorder = Recorder::default();
    let mut cadence = EveryGroups(1);
    let mut backoff = AttemptBudget(3);
    let ckpt_plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (stats, _) = Simulator::new(base())
        .run_checkpointed(driver(seed), 2, &recorder, &(), Some(ckpt_plan), None)
        .unwrap();
    assert_eq!(stats, ref_stats);
    assert_eq!(
        recorder.failed.load(Ordering::Relaxed),
        0,
        "retried transients must not surface as failures"
    );
    assert!(recorder.saved.load(Ordering::Relaxed) >= 1);
    assert!(recorder.degraded.lock().unwrap().is_empty());
    assert!(
        !store.injected().is_empty(),
        "the plan must actually have fired"
    );
    assert!(
        store.into_inner().get(&path).is_some(),
        "a snapshot must have landed despite the transients"
    );
}

/// A persistently failing store degrades the run instead of killing it:
/// the typed degradation event fires, no snapshot ever lands, and the
/// final statistics are still bit-identical to the reference.
#[test]
fn sticky_persistent_fault_degrades_but_completes_identically() {
    let seed = 47;
    let (ref_stats, ref_report) = reference(seed);
    let mut store = FaultStore::new(
        MemStore::new(),
        FaultPlan::new().from_op(0, FaultKind::Enospc),
    );
    let path = mem_path();
    let recorder = Recorder::default();
    let mut cadence = EveryGroups(1);
    let mut backoff = AttemptBudget(2);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (stats, report) = Simulator::new(base())
        .run_checkpointed(driver(seed), 2, &recorder, &(), Some(plan), None)
        .unwrap();
    assert_eq!(stats, ref_stats, "degraded run must not perturb results");
    assert_eq!(report, ref_report);
    let degraded = recorder.degraded.lock().unwrap();
    assert!(
        !degraded.is_empty(),
        "persistent failure past the budget must emit a degradation event"
    );
    assert!(
        degraded.iter().all(|d| !d.error.transient()),
        "ENOSPC must be classified persistent: {degraded:?}"
    );
    drop(degraded);
    assert_eq!(recorder.saved.load(Ordering::Relaxed), 0);
    assert!(store.into_inner().get(&path).is_none());
}

/// `required: true` is the fail-fast contract: the first write that
/// exhausts its budget aborts the run with the write's typed error.
#[test]
fn required_checkpointing_fails_fast_with_the_write_error() {
    let mut store = FaultStore::new(
        MemStore::new(),
        FaultPlan::new().from_op(0, FaultKind::Enospc),
    );
    let path = mem_path();
    let mut cadence = EveryGroups(1);
    let mut backoff = AttemptBudget(2);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: true,
    };
    let err = Simulator::new(base())
        .run_checkpointed(driver(53), 2, &(), &(), Some(plan), None)
        .unwrap_err();
    match err {
        CheckpointError::Io {
            transient, reason, ..
        } => {
            assert!(!transient, "ENOSPC is persistent");
            assert!(reason.contains("ENOSPC"), "{reason}");
        }
        other => panic!("expected the injected Io error, got {other}"),
    }
}

/// A torn rename leaves a truncated image at the destination; the
/// checksum must refuse it on load — resuming from a torn snapshot is
/// never allowed to happen silently.
#[test]
fn torn_rename_is_refused_by_the_checksum_on_load() {
    let seed = 59;
    // Sticky: every write tears, so the torn image is what load finds
    // (a one-shot tear would be healed by the next successful write).
    let mut store = FaultStore::new(
        MemStore::new(),
        FaultPlan::new().from_op(0, FaultKind::TornRename),
    );
    let path = mem_path();
    let mut cadence = EveryGroups(1);
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    Simulator::new(base())
        .run_checkpointed(
            driver(seed),
            2,
            &(),
            &InterruptAfter::new(1),
            Some(plan),
            None,
        )
        .unwrap();
    let mut inner = store.into_inner();
    assert!(
        inner.get(&path).is_some(),
        "the torn image must really be at the destination"
    );
    match SimCheckpoint::load_from(&mut inner, &path) {
        Err(CheckpointError::Corrupt { .. } | CheckpointError::VersionMismatch { .. }) => {}
        other => panic!("a torn snapshot must be refused, got {other:?}"),
    }
}

/// An engine that panics exactly once (on its first group), then
/// behaves identically to the inner engine — including on the redo of
/// the group whose first attempt died.
#[derive(Debug)]
struct PanicOnce {
    inner: DesEngine,
    armed: AtomicBool,
}

impl PanicOnce {
    fn new() -> Self {
        Self {
            inner: DesEngine::new(),
            armed: AtomicBool::new(true),
        }
    }
}

impl Engine for PanicOnce {
    fn simulate_group(&self, cfg: &RaidGroupConfig, rng: &mut SimRng) -> GroupHistory {
        assert!(
            !self.armed.swap(false, Ordering::SeqCst),
            "injected one-shot panic"
        );
        self.inner.simulate_group(cfg, rng)
    }
    fn name(&self) -> &'static str {
        "discrete-event"
    }
}

/// Collect-mode supervision end to end: a worker dies mid-run (one-shot
/// engine panic), its unclaimed remainder — including the very group
/// whose attempt died — is resubmitted to the survivors, and because
/// every group re-derives its RNG stream from `(seed, index)`, the
/// final result is bit-identical to an undisturbed serial run.
#[test]
fn collect_mode_worker_death_redoes_the_remainder_bit_identically() {
    let groups = 80;
    let seed = 61;
    let plain = Simulator::new(base()).run(groups, seed);
    let survived = Simulator::new(base())
        .with_engine(Arc::new(PanicOnce::new()))
        .run_parallel(groups, seed, 3);
    assert_eq!(survived, plain, "redone work diverged from the reference");
}

/// An engine whose panic is *deterministic per group index*, with no
/// side channel: it draws one `u64` before delegating and dies iff the
/// draw equals the first `u64` of the target group's stream. Both the
/// panic site and every non-target group's trajectory are pure
/// functions of `(seed, index)`, so any two runs of this engine agree
/// exactly — the property the quarantine determinism test needs.
/// Because the redo of the target group re-derives the same stream,
/// the panic is sticky: every worker that touches the group dies.
#[derive(Debug)]
struct PanicOnMarker {
    inner: DesEngine,
    marker: u64,
}

impl PanicOnMarker {
    fn new(seed: u64, target: u64) -> Self {
        Self {
            inner: DesEngine::new(),
            marker: stream(seed, target).next_u64(),
        }
    }
}

impl Engine for PanicOnMarker {
    fn simulate_group(&self, cfg: &RaidGroupConfig, rng: &mut SimRng) -> GroupHistory {
        assert!(rng.next_u64() != self.marker, "injected sticky panic");
        self.inner.simulate_group(cfg, rng)
    }
    fn name(&self) -> &'static str {
        "discrete-event"
    }
}

/// Stream-mode quarantine is deterministic: the same group is
/// quarantined with the same panic message and the same surviving
/// aggregates at every thread count — a panicking group can never make
/// two runs of the same seed disagree.
#[test]
fn stream_mode_quarantine_is_identical_across_thread_counts() {
    let groups = 48;
    let seed = 67;
    let target = 31u64;
    let mut legs = Vec::new();
    for threads in [1usize, 4] {
        let recorder = Recorder::default();
        let (stats, report) = Simulator::new(base())
            .with_engine(Arc::new(PanicOnMarker::new(seed, target)))
            .run_until_precision_streaming_observed(
                0.25, 0.95, groups, groups, seed, threads, &recorder,
            );
        let quarantined = recorder.quarantined.lock().unwrap().clone();
        assert_eq!(
            quarantined.iter().map(|q| q.index).collect::<Vec<_>>(),
            vec![target],
            "{threads} thread(s): exactly the target group is quarantined"
        );
        assert!(quarantined[0].message.contains("injected sticky panic"));
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            stats.groups(),
            groups as u64 - 1,
            "the quarantined group's statistics are excluded"
        );
        legs.push((stats, report));
    }
    assert_eq!(
        legs[0], legs[1],
        "serial and pooled quarantine runs diverged"
    );
}

/// A quarantined group discards its (possibly torn) session, but not
/// the work that session counted: the engine counters cover every group
/// that completed, at every thread count, on the single-configuration
/// path and the fused-sweep path alike.
#[test]
fn quarantine_keeps_engine_counters_exact() {
    let groups = 48;
    let seed = 67;
    let target = 31u64;
    let engine = || Arc::new(PanicOnMarker::new(seed, target));
    let mut loop_allocs = Vec::new();
    for threads in [1usize, 2, 4] {
        let (stats, sched) = Simulator::new(base())
            .with_engine(engine())
            .run_streaming_instrumented(groups, seed, threads, &());
        assert_eq!(stats.groups(), groups as u64 - 1);
        assert_eq!(
            sched.counters.groups,
            groups as u64 - 1,
            "run at {threads} thread(s)"
        );
        let report = FusedSweep::new(vec![SweepScenario::new("base", base(), seed)])
            .with_engine(engine())
            .run_streaming(groups, threads);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(
            report.sched.counters.groups,
            groups as u64 - 1,
            "sweep at {threads} thread(s)"
        );
        loop_allocs.push((
            sched.counters.loop_allocs,
            report.sched.counters.loop_allocs,
        ));
    }
    assert!(
        loop_allocs.iter().all(|&a| a == loop_allocs[0]),
        "loop_allocs depend on the thread count: {loop_allocs:?}"
    );
}

/// A sticky panic in collect mode kills every worker that touches the
/// group; with no survivor left to resubmit to, the coordinator must
/// abort by re-raising — a clean, classified end, not a hang.
#[test]
fn sticky_collect_mode_panic_escalates_to_a_clean_abort() {
    let groups = 24;
    let seed = 71;
    let sim = Simulator::new(base()).with_engine(Arc::new(PanicOnMarker::new(seed, 5)));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_parallel(groups, seed, 2)
    }));
    let payload = outcome.expect_err("total worker loss must abort the run");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        message.contains("simulation worker panicked"),
        "the abort must carry the supervision message, got {message:?}"
    );
}
