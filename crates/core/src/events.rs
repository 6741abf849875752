//! Event records produced by the simulation engines, plus the typed
//! run-health events the robustness layer reports (quarantined groups,
//! checkpoint degradation).

use crate::checkpoint::CheckpointError;
use serde::{Deserialize, Serialize};

/// How a double-disk failure came about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DdfKind {
    /// Two (or, under double parity, three) simultaneous operational
    /// failures — the only mode MTTDL knows about.
    DoubleOperational,
    /// An operational failure struck while another drive carried an
    /// uncorrected latent defect — the mode MTTDL misses entirely.
    LatentThenOperational,
}

/// One double-disk-failure (data-loss) event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdfEvent {
    /// Simulation time, hours since mission start.
    pub time: f64,
    /// Failure combination that caused the loss.
    pub kind: DdfKind,
}

/// History of one simulated RAID group over its mission.
///
/// Every field but the two latent counters covers the whole mission.
/// `latent_defects` and `scrubs_completed` stop at the group's
/// *observation horizon*: the time of its last operational event within
/// the mission, the later of its last failure and its last restore
/// completion. The DDF rules read a slot's latent state only at another
/// slot's failure instant, so no latent event after the horizon can
/// change any other field, and the engines draw none there (a
/// latent-tilted or forced run draws them for its weights and forced
/// redraws, but still does not count them). A group without operational
/// events counts no latent events. On the paper's base case this is
/// ≈ 33 defects per group, against ≈ 74 over the whole mission.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupHistory {
    /// Data-loss events in chronological order.
    pub ddfs: Vec<DdfEvent>,
    /// Operational failures over the mission (all drives).
    pub op_failures: u64,
    /// Latent defects created up to the observation horizon (all
    /// drives).
    pub latent_defects: u64,
    /// Latent defects corrected by scrubbing up to the observation
    /// horizon.
    pub scrubs_completed: u64,
    /// Drive restorations completed.
    pub restores_completed: u64,
    /// Total drive-hours spent down (failed or reconstructing) inside
    /// the mission window, summed across all slots.
    pub downtime_hours: f64,
    /// Natural log of the group's importance-sampling likelihood ratio
    /// `f/g` (original over sampling measure), accumulated over every
    /// tilted draw. `0.0` — weight exactly 1 — for unbiased runs.
    pub log_weight: f64,
}

impl GroupHistory {
    /// Number of data-loss events.
    pub fn ddf_count(&self) -> usize {
        self.ddfs.len()
    }

    /// Fraction of drive-hours the group's slots were up:
    /// `1 − downtime / (drives × mission)`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive inputs.
    pub fn availability(&self, drives: usize, mission_hours: f64) -> f64 {
        assert!(drives > 0 && mission_hours > 0.0, "need a real group");
        1.0 - self.downtime_hours / (drives as f64 * mission_hours)
    }

    /// DDFs no later than `t` hours.
    pub fn ddfs_by(&self, t: f64) -> usize {
        self.ddfs.iter().filter(|e| e.time <= t).count()
    }

    /// Checks the invariants every engine must maintain; used by the
    /// property tests.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on violation: unsorted DDF times,
    /// DDFs outside the mission, more scrubs than defects, more DDFs
    /// than operational failures, or latent defects counted in a group
    /// without operational failures (whose observation horizon is
    /// empty).
    pub fn assert_invariants(&self, mission_hours: f64) {
        assert!(
            self.ddfs.windows(2).all(|w| w[0].time <= w[1].time),
            "DDF times must be sorted"
        );
        assert!(
            self.ddfs
                .iter()
                .all(|e| e.time >= 0.0 && e.time <= mission_hours),
            "DDF outside mission window"
        );
        assert!(
            self.scrubs_completed <= self.latent_defects,
            "more scrubs than defects: {} > {}",
            self.scrubs_completed,
            self.latent_defects
        );
        assert!(
            (self.ddfs.len() as u64) <= self.op_failures,
            "every DDF is triggered by an operational failure"
        );
        assert!(
            self.op_failures > 0 || self.latent_defects == 0,
            "latent defects counted past the observation horizon of a group \
             without operational events"
        );
        assert!(
            self.downtime_hours >= 0.0 && self.downtime_hours.is_finite(),
            "downtime must be finite and non-negative"
        );
        assert!(
            self.op_failures > 0 || self.downtime_hours == 0.0,
            "downtime without failures"
        );
        assert!(
            self.log_weight.is_finite(),
            "log-weight must be finite, got {}",
            self.log_weight
        );
    }
}

/// One group whose simulation panicked and was quarantined instead of
/// aborting the run (see the supervision notes in [`crate::run`]; a
/// stored entry point, which keeps every history, panics naming the
/// group instead). The group's index is counted toward the completed
/// watermark but its statistics are excluded — the final report carries
/// the quarantine count so the omission is visible, and checkpointing
/// is refused from then on so no resume can silently disagree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedGroup {
    /// Group index whose simulation panicked.
    pub index: u64,
    /// Panic payload rendered to text (`"<non-string panic>"` when the
    /// payload was not a string).
    pub message: String,
}

/// Typed notification that checkpointing has degraded: a write failed
/// past its retry budget, the run keeps going (aggregates are
/// unaffected), and the cadence backs off. Emitted once per
/// healthy-to-degraded transition through
/// [`crate::run::StreamObserver::on_checkpoint_degraded`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointDegraded {
    /// Completed-group watermark at the failed write.
    pub groups_done: u64,
    /// Consecutive failed checkpoint writes, this one included.
    pub consecutive_failures: u64,
    /// The error that exhausted the retry budget.
    pub error: CheckpointError,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> GroupHistory {
        GroupHistory {
            ddfs: vec![
                DdfEvent {
                    time: 100.0,
                    kind: DdfKind::LatentThenOperational,
                },
                DdfEvent {
                    time: 5_000.0,
                    kind: DdfKind::DoubleOperational,
                },
            ],
            op_failures: 3,
            latent_defects: 5,
            scrubs_completed: 4,
            restores_completed: 3,
            downtime_hours: 40.0,
            log_weight: 0.0,
        }
    }

    #[test]
    fn availability_from_downtime() {
        let h = history();
        // 40 drive-hours down out of 8 x 87,600.
        let a = h.availability(8, 87_600.0);
        assert!((a - (1.0 - 40.0 / 700_800.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "downtime without failures")]
    fn downtime_without_failures_panics() {
        let h = GroupHistory {
            downtime_hours: 5.0,
            ..GroupHistory::default()
        };
        h.assert_invariants(100.0);
    }

    #[test]
    fn counting_helpers() {
        let h = history();
        assert_eq!(h.ddf_count(), 2);
        assert_eq!(h.ddfs_by(99.0), 0);
        assert_eq!(h.ddfs_by(100.0), 1);
        assert_eq!(h.ddfs_by(1e6), 2);
    }

    #[test]
    fn invariants_hold_for_valid_history() {
        history().assert_invariants(87_600.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_ddfs_panic() {
        let mut h = history();
        h.ddfs.reverse();
        h.assert_invariants(87_600.0);
    }

    #[test]
    #[should_panic(expected = "outside mission")]
    fn out_of_mission_ddf_panics() {
        let h = history();
        h.assert_invariants(1_000.0);
    }

    #[test]
    #[should_panic(expected = "more scrubs than defects")]
    fn scrub_overcount_panics() {
        let mut h = history();
        h.scrubs_completed = 10;
        h.assert_invariants(87_600.0);
    }

    #[test]
    #[should_panic(expected = "past the observation horizon")]
    fn latent_counts_without_operational_events_panic() {
        let h = GroupHistory {
            latent_defects: 1,
            ..GroupHistory::default()
        };
        h.assert_invariants(100.0);
    }

    #[test]
    #[should_panic(expected = "triggered by an operational failure")]
    fn ddf_overcount_panics() {
        let mut h = history();
        h.op_failures = 1;
        h.assert_invariants(87_600.0);
    }
}
