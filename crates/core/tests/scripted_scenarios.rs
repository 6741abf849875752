//! Scripted, fully deterministic engine scenarios.
//!
//! Every transition distribution is a point mass ([`Degenerate`]), so
//! the entire event schedule is hand-computable and the DDF rules of
//! paper Sections 4.2/5 can be asserted event by event — not just
//! statistically.
//!
//! Tie-breaking note: simultaneous events are processed in slot order
//! (the DES scans slots ascending and strict `<` keeps the first
//! minimum), which the schedules below rely on.

use raidsim_core::config::{RaidGroupConfig, Redundancy, TransitionDistributions};
use raidsim_core::engine::{DesEngine, Engine, TimelineEngine};
use raidsim_core::events::DdfKind;
use raidsim_dists::rng::stream;
use raidsim_dists::{Degenerate, LifeDistribution};
use std::sync::Arc;

fn point(value: f64) -> Arc<dyn LifeDistribution> {
    Arc::new(Degenerate::new(value).unwrap())
}

fn scripted(
    drives: usize,
    mission: f64,
    ttop: f64,
    ttr: f64,
    ttld: Option<f64>,
    ttscrub: Option<f64>,
) -> RaidGroupConfig {
    RaidGroupConfig {
        drives,
        redundancy: Redundancy::SingleParity,
        mission_hours: mission,
        dists: TransitionDistributions {
            ttop: point(ttop),
            ttr: point(ttr),
            ttld: ttld.map(point),
            ttscrub: ttscrub.map(point),
        },
        defect_reset_on_replacement: false,
        spares: raidsim_core::config::SparePolicy::AlwaysAvailable,
    }
}

fn run(cfg: &RaidGroupConfig) -> raidsim_core::events::GroupHistory {
    let mut rng = stream(0, 0);
    let h = DesEngine::new().simulate_group(cfg, &mut rng);
    h.assert_invariants(cfg.mission_hours);
    h
}

/// Rule 1 (two simultaneous operational failures): with every drive
/// failing at exactly t = 100 and restoring in 50 h, slot 0's failure
/// finds a healthy group (no DDF), slot 1's failure finds slot 0 down
/// (DDF), and slots 2..n fall inside the blocking window. The cycle
/// then repeats every 150 h.
#[test]
fn simultaneous_failures_produce_one_ddf_per_cycle() {
    let cfg = scripted(8, 1_000.0, 100.0, 50.0, None, None);
    let h = run(&cfg);
    let times: Vec<f64> = h.ddfs.iter().map(|e| e.time).collect();
    assert_eq!(
        times,
        vec![100.0, 250.0, 400.0, 550.0, 700.0, 850.0, 1_000.0],
        "one DDF per 150 h failure cycle"
    );
    assert!(h.ddfs.iter().all(|e| e.kind == DdfKind::DoubleOperational));
    // 8 failures per cycle x 7 cycles.
    assert_eq!(h.op_failures, 56);
}

/// Rule 2 (latent defect then operational failure): defects appear on
/// every drive at t = 30 (scrubbed at t = 70); the first operational
/// failure at t = 50 meets seven defective peers — data loss, latent
/// pathway.
#[test]
fn latent_defect_then_failure_is_a_latent_ddf() {
    let cfg = scripted(8, 60.0, 50.0, 1_000.0, Some(30.0), Some(40.0));
    let h = run(&cfg);
    assert_eq!(h.ddfs.len(), 1);
    assert_eq!(h.ddfs[0].time, 50.0);
    assert_eq!(h.ddfs[0].kind, DdfKind::LatentThenOperational);
    assert_eq!(h.latent_defects, 8);
}

/// Rule 4 (operational failure then defect — not a DDF): every drive
/// fails at t = 50 and defects only appear at t = 60, *during* the
/// restoration window. The t = 50 data loss is therefore purely
/// operational (rule 1, from the simultaneous failures) — the later
/// defects must not have created any loss event of their own, and
/// only the *second* failure cycle (t = 50 + 20 + 50 = 120), which
/// meets the standing unscrubbed defects, produces a latent-pathway
/// loss.
#[test]
fn failure_before_defect_is_not_a_ddf() {
    let cfg = scripted(8, 130.0, 50.0, 20.0, Some(60.0), None);
    let h = run(&cfg);
    let summary: Vec<(f64, DdfKind)> = h.ddfs.iter().map(|e| (e.time, e.kind)).collect();
    assert_eq!(
        summary,
        vec![
            (50.0, DdfKind::DoubleOperational),
            (120.0, DdfKind::LatentThenOperational),
        ],
        "defect arrivals themselves never trigger data loss"
    );
}

/// Rule 3 (defects alone never lose data): every drive carries a
/// defect from t = 30 to 40, 70 to 80, …, 430 to 440, and every drive
/// fails at t = 450 with an instant restore, so no failure overlaps
/// another or meets a defect. The latent counters stop at that last
/// operational event, which sees all 88 defects (and their scrubs) of
/// the eleven cycles before it — and zero DDFs.
#[test]
fn defects_alone_are_harmless() {
    let cfg = scripted(8, 500.0, 450.0, 0.0, Some(30.0), Some(10.0));
    let h = run(&cfg);
    assert_eq!(h.ddf_count(), 0);
    assert_eq!(h.op_failures, 8);
    assert_eq!(h.latent_defects, 88);
    assert_eq!(h.scrubs_completed, 88);
}

/// The latent counters count to the group's observation horizon — its
/// last failure or restore within the mission — on both engines. With
/// a defect cycle every 40 h (defects at 30, 70, 110, …, each scrubbed
/// 10 h later) and every drive failing at `ttop` with an instant
/// restore, the horizon is `ttop`: a defect or scrub before it counts,
/// one after it does not (at 450 that is the defect at 470 and its
/// scrub at 480, both inside the 490 h mission), and a group whose
/// drives never fail counts none.
#[test]
fn latent_counters_stop_at_the_last_operational_event() {
    let engines: [&dyn Engine; 2] = [&DesEngine::new(), &TimelineEngine::new()];
    for engine in engines {
        for (ttop, per_drive) in [(450.0, 11), (250.0, 6), (10_000.0, 0)] {
            let cfg = scripted(8, 490.0, ttop, 0.0, Some(30.0), Some(10.0));
            let h = engine.simulate_group(&cfg, &mut stream(0, 0));
            h.assert_invariants(cfg.mission_hours);
            let name = engine.name();
            assert_eq!(h.ddf_count(), 0, "{name}, failures at {ttop} h");
            assert_eq!(
                (h.latent_defects, h.scrubs_completed),
                (8 * per_drive, 8 * per_drive),
                "{name}, failures at {ttop} h"
            );
        }
    }
}

/// Rule 5 (blocking window): with failures every 10 h and restores
/// taking 100 h, overlaps are continuous — but DDFs may only recur
/// after the previous one's restoration completes.
#[test]
fn blocking_window_throttles_ddf_recording() {
    let cfg = scripted(4, 1_000.0, 10.0, 100.0, None, None);
    let h = run(&cfg);
    for w in h.ddfs.windows(2) {
        assert!(
            w[1].time - w[0].time >= 100.0 - 1e-9,
            "DDFs {} and {} violate the restore window",
            w[0].time,
            w[1].time
        );
    }
    assert!(h.ddf_count() >= 2, "schedule must produce repeated DDFs");
}

/// Scrubbing beats the race: defects at t = 30 are scrubbed by t = 40,
/// so the failures at t = 45 find a *clean* group — the only loss is
/// the unavoidable rule-1 overlap of the simultaneous failures, and it
/// is classified as double-operational, not latent. Compare with
/// `latent_defect_then_failure_is_a_latent_ddf`, where the scrub is
/// too slow and the same schedule loses data through the latent
/// pathway.
#[test]
fn fast_scrub_wins_the_race() {
    let cfg = scripted(8, 46.0, 45.0, 1_000.0, Some(30.0), Some(10.0));
    let h = run(&cfg);
    assert_eq!(h.scrubs_completed, 8, "all eight defects scrubbed first");
    assert_eq!(h.ddf_count(), 1);
    assert_eq!(
        h.ddfs[0].kind,
        DdfKind::DoubleOperational,
        "no latent pathway remains after the scrub"
    );
}

/// Double parity needs a third concurrent event: the rule-1 schedule
/// that loses data every cycle under single parity survives under
/// double parity only until the *third* simultaneous failure.
#[test]
fn double_parity_requires_three_overlaps() {
    let mut cfg = scripted(8, 200.0, 100.0, 50.0, None, None);
    cfg.redundancy = Redundancy::DoubleParity;
    let h = run(&cfg);
    // Slot 0: no others down. Slot 1: one down — tolerated. Slot 2:
    // two down — data loss.
    assert_eq!(h.ddfs.len(), 1);
    assert_eq!(h.ddfs[0].time, 100.0);
    assert_eq!(h.ddfs[0].kind, DdfKind::DoubleOperational);
}

/// The defective drive's own failure does not pair with its own
/// defect (Figure 4, note 1): a 2-drive group where only the failing
/// drive ever carries the defect.
#[test]
fn own_defect_does_not_count() {
    // Both drives get defects at 30; both fail at 50. Slot 0's failure
    // sees slot 1 defective -> that IS a DDF (different drive). To
    // isolate note 1 use a mission that ends before slot 1's defect
    // can matter... instead verify directly with a single-data-drive
    // mirror where the *other* drive is clean:
    // drives = 2, defects at 30 on both, but slot 1's failure at 50
    // happens inside the blocking window of slot 0's DDF, so exactly
    // one DDF is recorded; the self-defect never creates a second.
    let cfg = scripted(2, 60.0, 50.0, 100.0, Some(30.0), None);
    let h = run(&cfg);
    assert_eq!(h.ddf_count(), 1);
    assert_eq!(h.ddfs[0].time, 50.0);
}

/// Mission truncation: events beyond the mission never appear.
#[test]
fn mission_edge_is_respected() {
    let cfg = scripted(8, 99.9, 100.0, 50.0, None, None);
    let h = run(&cfg);
    assert_eq!(h.op_failures, 0);
    assert_eq!(h.ddf_count(), 0);
}
