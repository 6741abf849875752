//! Kill-and-resume guarantees for the checkpoint layer: interrupting a
//! run at *any* batch boundary and resuming from the flushed
//! checkpoint must reproduce the uninterrupted run's final statistics
//! and report **bit-identically**, at any thread count — and a
//! checkpoint that does not belong to the requested run must be
//! rejected with a typed error, never silently resumed.

use proptest::prelude::*;
use raidsim_core::checkpoint::JOURNAL_MAGIC;
use raidsim_core::checkpoint::{CheckpointError, DriverState, SimCheckpoint, FORMAT_VERSION};
use raidsim_core::config::{RaidGroupConfig, Redundancy, TransitionDistributions};
use raidsim_core::run::{
    CheckpointPlan, EveryGroups, RunControl, Simulator, StopCriterion, StreamObserver,
};
use raidsim_core::store::{AttemptBudget, FaultKind, FaultPlan, FaultStore, FsStore, MemStore};
use raidsim_dists::{LifeDistribution, Weibull3};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configurations spanning the model space (compact version of the
/// streaming-test strategy): group sizes, mission lengths, fast and
/// realistic failure scales, optional latent defects, both redundancy
/// levels.
fn configs() -> impl Strategy<Value = RaidGroupConfig> {
    (
        3usize..9,
        proptest::bool::ANY,
        2_000.0..60_000.0f64,
        1_000.0..2.0e5f64,
        proptest::option::of(500.0..20_000.0f64),
    )
        .prop_filter_map(
            "drives must exceed parity",
            |(drives, double, mission, op_eta, ld)| {
                let redundancy = if double {
                    Redundancy::DoubleParity
                } else {
                    Redundancy::SingleParity
                };
                if drives <= redundancy.tolerated() {
                    return None;
                }
                let ttld: Option<Arc<dyn LifeDistribution>> =
                    ld.map(|e| Arc::new(Weibull3::two_param(e, 1.0).unwrap()) as _);
                let ttscrub: Option<Arc<dyn LifeDistribution>> = ttld
                    .is_some()
                    .then(|| Arc::new(Weibull3::new(1.0, 168.0, 3.0).unwrap()) as _);
                Some(RaidGroupConfig {
                    drives,
                    redundancy,
                    mission_hours: mission,
                    dists: TransitionDistributions {
                        ttop: Arc::new(Weibull3::two_param(op_eta, 1.2).unwrap()),
                        ttr: Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap()),
                        ttld,
                        ttscrub,
                    },
                    defect_reset_on_replacement: false,
                    spares: raidsim_core::config::SparePolicy::AlwaysAvailable,
                })
            },
        )
}

/// Requests a graceful stop once `limit` batch boundaries have been
/// polled — the test's stand-in for a SIGINT landing mid-run.
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

/// Records checkpoint outcomes so tests can assert on the
/// warn-and-continue contract.
#[derive(Default)]
struct CheckpointRecorder {
    saved: AtomicU64,
    failed: AtomicU64,
}

impl StreamObserver for CheckpointRecorder {
    fn on_checkpoint_saved(&self, _path: &Path, _groups_done: u64) {
        self.saved.fetch_add(1, Ordering::Relaxed);
    }

    fn on_checkpoint_failed(&self, _error: &CheckpointError) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
}

fn temp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("raidsim_ckpt_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole guarantee: kill at a random batch boundary, resume
    /// on a possibly different thread count, and the final statistics
    /// and report are bit-identical to never having been interrupted.
    #[test]
    fn kill_and_resume_is_bit_identical(
        cfg in configs(),
        seed in any::<u64>(),
        kill_batch in 0u64..6,
        threads_a in 1usize..5,
        threads_b in 1usize..5,
    ) {
        let sim = Simulator::new(cfg);
        let driver = DriverState::precision(0.25, 0.95, 20, 100, seed);

        // Uninterrupted reference: no plan, no resume.
        let (ref_stats, ref_report) = sim
            .run_checkpointed(driver, threads_a, &(), &(), None, None)
            .expect("no plan and no resume cannot fail");

        // Interrupted leg: graceful stop after `kill_batch` boundaries
        // (0 = before any work), checkpointing every batch.
        let path = temp_ckpt("kill_and_resume.ckpt");
        let control = InterruptAfter::new(kill_batch);
        let mut cadence = EveryGroups(1);
        let mut store = FsStore;
        let mut backoff = AttemptBudget(1);
        let plan = CheckpointPlan {
            path: &path,
            cadence: &mut cadence,
            store: &mut store,
            backoff: &mut backoff,
            required: false,
        };
        let (_, first_report) = sim
            .run_checkpointed(driver, threads_a, &(), &control, Some(plan), None)
            .unwrap();

        // Resume leg: load the flushed checkpoint and continue, on an
        // independently chosen thread count.
        let ckpt = SimCheckpoint::load(&path).unwrap();
        prop_assert_eq!(ckpt.groups_done() as usize, first_report.groups);
        let mut cadence = EveryGroups(1);
        let mut store = FsStore;
        let mut backoff = AttemptBudget(1);
        let plan = CheckpointPlan {
            path: &path,
            cadence: &mut cadence,
            store: &mut store,
            backoff: &mut backoff,
            required: false,
        };
        let (stats, report) = sim
            .run_checkpointed(driver, threads_b, &(), &(), Some(plan), Some(ckpt))
            .unwrap();

        prop_assert_eq!(stats, ref_stats);
        prop_assert_eq!(report, ref_report);
        std::fs::remove_file(&path).ok();
    }

    /// Fixed group-count runs checkpoint too: batched, checkpointed
    /// execution reproduces the plain streaming path bit-identically.
    #[test]
    fn fixed_mode_checkpointed_matches_run_streaming(
        cfg in configs(),
        seed in any::<u64>(),
        n_groups in 1u64..80,
        batch in 1u64..40,
        threads in 1usize..5,
    ) {
        let sim = Simulator::new(cfg);
        let reference = sim.run_streaming(n_groups as usize, seed, threads);
        let path = temp_ckpt("fixed_mode.ckpt");
        let mut cadence = EveryGroups(1);
        let mut store = FsStore;
        let mut backoff = AttemptBudget(1);
        let plan = CheckpointPlan {
            path: &path,
            cadence: &mut cadence,
            store: &mut store,
            backoff: &mut backoff,
            required: false,
        };
        let (stats, report) = sim
            .run_checkpointed(
                DriverState::fixed(n_groups, batch, seed),
                threads,
                &(),
                &(),
                Some(plan),
                None,
            )
            .unwrap();
        prop_assert_eq!(stats, reference);
        prop_assert_eq!(report.criterion, StopCriterion::GroupCap);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn interrupted_run_reports_interruption_and_flushes() {
    let sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
    let driver = DriverState::precision(0.01, 0.95, 25, 10_000, 11);
    let path = temp_ckpt("interrupt_flush.ckpt");
    let control = InterruptAfter::new(3);
    let recorder = CheckpointRecorder::default();
    // Cadence that never fires: the final flush alone must still leave
    // a resumable file on disk.
    let mut cadence = EveryGroups(u64::MAX);
    let mut store = FsStore;
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (stats, report) = sim
        .run_checkpointed(driver, 2, &recorder, &control, Some(plan), None)
        .unwrap();
    assert_eq!(report.criterion, StopCriterion::Interrupted);
    assert!(!report.converged);
    assert_eq!(stats.groups(), 75, "three 25-group batches before the stop");
    assert_eq!(recorder.saved.load(Ordering::Relaxed), 1);
    assert_eq!(recorder.failed.load(Ordering::Relaxed), 0);
    let ckpt = SimCheckpoint::load(&path).unwrap();
    assert_eq!(ckpt.groups_done(), 75);
    assert_eq!(ckpt.stats, stats);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resuming_a_finished_checkpoint_runs_zero_batches() {
    let sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
    let driver = DriverState::precision(0.25, 0.90, 50, 2_000, 7);
    let path = temp_ckpt("finished.ckpt");
    let mut cadence = EveryGroups(1);
    let mut store = FsStore;
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (stats, report) = sim
        .run_checkpointed(driver, 2, &(), &(), Some(plan), None)
        .unwrap();
    assert!(report.converged);

    // Resume the *final* checkpoint: the driver must re-report without
    // simulating — interrupt-before-any-work proves no batch ran.
    let ckpt = SimCheckpoint::load(&path).unwrap();
    let control = InterruptAfter::new(0);
    let (again_stats, again_report) = sim
        .run_checkpointed(driver, 4, &(), &control, None, Some(ckpt))
        .unwrap();
    assert_eq!(again_stats, stats);
    assert_eq!(again_report, report);
    assert_ne!(again_report.criterion, StopCriterion::Interrupted);
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_checkpoints_are_rejected_with_typed_errors() {
    let base = RaidGroupConfig::paper_base_case().unwrap();
    let sim = Simulator::new(base.clone());
    let driver = DriverState::precision(0.25, 0.90, 50, 500, 7);
    let path = temp_ckpt("mismatch.ckpt");
    let mut cadence = EveryGroups(1);
    let mut store = FsStore;
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    sim.run_checkpointed(driver, 2, &(), &(), Some(plan), None)
        .unwrap();
    let ckpt = SimCheckpoint::load(&path).unwrap();

    // Different seed: same config, but the RNG streams differ.
    let mut other = driver;
    other.seed = 8;
    match sim.run_checkpointed(other, 2, &(), &(), None, Some(ckpt.clone())) {
        Err(CheckpointError::ConfigMismatch { field: "seed", .. }) => {}
        other => panic!("expected seed mismatch, got {other:?}"),
    }

    // Different configuration: the fingerprint catches it.
    let mut cfg = base;
    cfg.drives += 1;
    match Simulator::new(cfg).run_checkpointed(driver, 2, &(), &(), None, Some(ckpt)) {
        Err(CheckpointError::ConfigMismatch {
            field: "config", ..
        }) => {}
        other => panic!("expected config mismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Formats 1 and 2 counted latent events over the whole mission, so a
/// resume from one would fold whole-mission counts into horizon counts:
/// the file is refused on load, and a snapshot claiming such a version
/// is refused on resume, both with a typed version error.
#[test]
fn older_format_checkpoints_are_refused_on_resume() {
    let sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
    let driver = DriverState::fixed(90, 30, 11);
    let path = temp_ckpt("older_format.ckpt");
    let mut cadence = EveryGroups(1);
    let mut store = FsStore;
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let control = InterruptAfter::new(1);
    sim.run_checkpointed(driver, 2, &(), &control, Some(plan), None)
        .unwrap();
    let mut ckpt = SimCheckpoint::load(&path).unwrap();
    assert!(ckpt.groups_done() < 90, "the interrupt must land mid-run");

    // The same image stamped as format 2, checksum intact.
    let mut image = std::fs::read(&path).unwrap();
    image[8..12].copy_from_slice(&2u32.to_le_bytes());
    let n = image.len();
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    for &b in &image[..n - 8] {
        sum = (sum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    image[n - 8..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &image).unwrap();
    let refused = CheckpointError::VersionMismatch {
        found: 2,
        expected: FORMAT_VERSION,
    };
    assert_eq!(SimCheckpoint::load(&path), Err(refused.clone()));

    ckpt.format_version = 2;
    assert_eq!(
        sim.run_checkpointed(driver, 2, &(), &(), None, Some(ckpt)),
        Err(refused)
    );
    std::fs::remove_file(&path).ok();
}

/// Satellite: a failing checkpoint write warns and continues — the run
/// still completes with statistics bit-identical to an un-checkpointed
/// run, every boundary reports the failure, and nothing panics.
#[test]
fn unwritable_checkpoint_path_warns_and_continues() {
    let sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
    let driver = DriverState::fixed(120, 40, 5);
    let recorder = CheckpointRecorder::default();
    let path = Path::new("/nonexistent-raidsim-dir/run.ckpt");
    let mut cadence = EveryGroups(1);
    let mut store = FsStore;
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (stats, report) = sim
        .run_checkpointed(driver, 2, &recorder, &(), Some(plan), None)
        .unwrap();
    assert_eq!(stats, sim.run_streaming(120, 5, 2));
    assert_eq!(report.groups, 120);
    assert_eq!(recorder.saved.load(Ordering::Relaxed), 0);
    // Three in-loop boundaries fail, and with no successful write the
    // final flush retries (and fails) once more.
    assert_eq!(recorder.failed.load(Ordering::Relaxed), 4);
}

/// Mid-run snapshots go to the journal, but a finished or interrupted
/// run leaves exactly the canonical image of its final state.
#[test]
fn finished_and_interrupted_runs_leave_the_canonical_image() {
    let sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
    let driver = DriverState::fixed(200, 40, 13);
    let path = PathBuf::from("mem://final.ckpt");
    for control in [InterruptAfter::new(u64::MAX), InterruptAfter::new(3)] {
        let mut store = MemStore::new();
        let mut cadence = EveryGroups(1);
        let mut backoff = AttemptBudget(1);
        let plan = CheckpointPlan {
            path: &path,
            cadence: &mut cadence,
            store: &mut store,
            backoff: &mut backoff,
            required: false,
        };
        let (stats, report) = sim
            .run_checkpointed(driver, 2, &(), &control, Some(plan), None)
            .unwrap();
        let expected = SimCheckpoint::bytes_from_parts(sim.run_fingerprint(), &driver, &stats);
        assert_eq!(
            store.get(&path),
            Some(expected.as_slice()),
            "{:?} run",
            report.criterion
        );
    }
}

/// A process that dies between snapshots leaves the journal: with every
/// write from the fourth on failing, the file still holds the third
/// snapshot, and resuming from it reaches the uninterrupted result.
#[test]
fn a_journal_left_mid_run_resumes_to_the_reference() {
    let sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
    let driver = DriverState::fixed(200, 40, 17);
    let path = PathBuf::from("mem://killed.ckpt");
    let mut store = FaultStore::new(
        MemStore::new(),
        FaultPlan::new().from_op(3, FaultKind::Enospc),
    );
    let mut cadence = EveryGroups(1);
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (reference, _) = sim
        .run_checkpointed(driver, 2, &(), &(), Some(plan), None)
        .unwrap();
    let mut inner = store.into_inner();
    assert!(inner.get(&path).unwrap().starts_with(&JOURNAL_MAGIC));
    let ckpt = SimCheckpoint::load_from(&mut inner, &path).unwrap();
    assert_eq!(ckpt.groups_done(), 120, "three 40-group snapshots landed");
    let (stats, report) = sim
        .run_checkpointed(driver, 3, &(), &(), None, Some(ckpt))
        .unwrap();
    assert_eq!(stats, reference);
    assert_eq!(report.criterion, StopCriterion::GroupCap);
}

/// Resuming a finished run adds no group, so it writes nothing: the
/// canonical file keeps its bytes and its modification time, and the
/// store sees one operation, the read that compared the image.
#[test]
fn an_idle_resume_from_a_canonical_file_writes_nothing() {
    let sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
    let driver = DriverState::fixed(120, 40, 23);
    let path = temp_ckpt("idle-canonical.ckpt");
    let mut cadence = EveryGroups(1);
    let mut store = FsStore;
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (stats, report) = sim
        .run_checkpointed(driver, 2, &(), &(), Some(plan), None)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));

    // Every write would fail; reads are unaffected.
    let mut cadence = EveryGroups(1);
    let mut store = FaultStore::new(FsStore, FaultPlan::new().from_op(0, FaultKind::Enospc));
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let resumed = SimCheckpoint::load(&path).unwrap();
    let (again_stats, again_report) = sim
        .run_checkpointed(driver, 2, &(), &(), Some(plan), Some(resumed))
        .unwrap();
    assert_eq!((again_stats, again_report), (stats, report));
    assert_eq!(store.operations(), 1, "one read, no write");
    assert!(store.injected().is_empty(), "a write was attempted");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    assert_eq!(
        std::fs::metadata(&path).unwrap().modified().unwrap(),
        mtime,
        "the idle resume touched the file"
    );
    std::fs::remove_file(&path).ok();
}

/// An idle resume from a journal still promotes it: when the final
/// flush of a finished run failed, the file is a journal whose newest
/// slot holds the final state, and resuming it without new groups
/// leaves the canonical image.
#[test]
fn an_idle_resume_from_a_final_journal_leaves_the_canonical_image() {
    let sim = Simulator::new(RaidGroupConfig::paper_base_case().unwrap());
    let driver = DriverState::fixed(120, 40, 29);
    let path = PathBuf::from("mem://idle-journal.ckpt");
    // Ops 0–2 are the three mid-run snapshots; op 3, the final flush,
    // fails and leaves the journal behind.
    let mut store = FaultStore::new(MemStore::new(), FaultPlan::new().at(3, FaultKind::Enospc));
    let mut cadence = EveryGroups(1);
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (stats, _) = sim
        .run_checkpointed(driver, 2, &(), &(), Some(plan), None)
        .unwrap();
    let mut store = store.into_inner();
    assert!(store.get(&path).unwrap().starts_with(&JOURNAL_MAGIC));
    let resumed = SimCheckpoint::load_from(&mut store, &path).unwrap();
    assert_eq!(resumed.groups_done(), 120, "the newest slot is final");

    let mut cadence = EveryGroups(1);
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path: &path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    let (again, _) = sim
        .run_checkpointed(driver, 2, &(), &(), Some(plan), Some(resumed))
        .unwrap();
    assert_eq!(again, stats);
    let canonical = SimCheckpoint::bytes_from_parts(sim.run_fingerprint(), &driver, &stats);
    assert_eq!(store.get(&path), Some(canonical.as_slice()));
}
