//! Scenario descriptions and the fingerprint-keyed result cache behind
//! the fused sweep runner ([`crate::run::FusedSweep`]).
//!
//! A *sweep* simulates a labeled family of configurations (a scrub
//! ladder, an ablation grid) under common random numbers. Two scenarios
//! of a sweep — or of two different CLI invocations — are *the same
//! experiment* exactly when their [`crate::checkpoint::config_fingerprint`]
//! (configuration + engine + bias), group count, and seed
//! all match: the fingerprint pins every input that can change a
//! simulated history, and `(groups, seed)` pin the RNG streams drawn.
//! That triple is therefore the cache key, and a cache hit may replay
//! the stored statistics **byte-for-byte** instead of re-simulating —
//! the same identity argument that lets checkpoints resume across
//! process boundaries.
//!
//! The cache stores each result as its exact [`StreamStats`] encoding
//! (the checkpoint codec), not as a live accumulator: replays decode a
//! fresh value, so no clone of driver-owned state ever happens (see the
//! clone audit in [`crate::stats`]), and the byte-equality contract is
//! literal — what the test asserts is what the cache stores.
//!
//! Persistence rides the existing [`SnapshotStore`] seam: with a store
//! attached, every insert also writes an ordinary fixed-mode
//! [`SimCheckpoint`] named after the key, and a miss probes the store
//! before simulating — warm-starting repeated sweeps across CLI
//! invocations exactly like `--resume` warm-starts a single run. A
//! stored artifact is only accepted after
//! [`SimCheckpoint::validate_for`] and a completed-prefix check, so a
//! foreign or truncated file degrades to a miss, never to wrong
//! results.
//!
//! This module is pure bookkeeping: it owns no threads, locks, or
//! atomics (the sync-audit lint keeps it that way). The scheduling half
//! of the fused sweep lives in `pool.rs` / `sync_model.rs`, where it is
//! model-checked.

use crate::checkpoint::{DriverState, SimCheckpoint};
use crate::config::RaidGroupConfig;
use crate::stats::StreamStats;
use crate::store::SnapshotStore;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One labeled scenario of a sweep.
#[derive(Debug, Clone)]
pub struct SweepScenario {
    /// Label carried through to the report (not part of the cache key:
    /// renaming a scenario does not change the experiment).
    pub label: String,
    /// Configuration to simulate.
    pub cfg: RaidGroupConfig,
    /// Master seed of the scenario's per-group RNG streams. Sweeps
    /// under common random numbers give every scenario the same seed.
    /// Scenarios of a [`crate::run::FusedSweep`] with the same seed
    /// share their draws: each group's stream is read once per bundle
    /// and replayed to every scenario (bit-identically).
    pub seed: u64,
}

impl SweepScenario {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, cfg: RaidGroupConfig, seed: u64) -> Self {
        Self {
            label: label.into(),
            cfg,
            seed,
        }
    }
}

/// Fingerprint-keyed result cache for sweep scenarios.
///
/// Keys are `(config_fingerprint, groups, seed)` — see the module
/// documentation for why that triple is exactly the identity of a
/// scenario's result. Values are exact [`StreamStats`] encodings;
/// [`SweepCache::lookup`] decodes a fresh copy per hit.
///
/// With no store attached the cache lives for one process (in-sweep
/// dedupe and repeated in-process sweeps). [`SweepCache::with_store`]
/// adds write-through persistence and a read probe on miss.
#[derive(Default)]
pub struct SweepCache {
    /// Exact encodings, keyed by `(fingerprint, groups, seed)`. A
    /// `BTreeMap` (not a hash map) keeps iteration deterministic, per
    /// the workspace determinism lint.
    entries: BTreeMap<(u64, u64, u64), Vec<u8>>,
    /// Persistence seam: the store and the directory artifacts live in.
    store: Option<(Box<dyn SnapshotStore>, PathBuf)>,
    hits: u64,
    store_hits: u64,
    misses: u64,
    persist_errors: u64,
}

impl SweepCache {
    /// An in-memory cache (no persistence).
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that writes every insert through `store` into `dir` and
    /// probes `dir` on miss. The directory must already exist when the
    /// store is the filesystem; a failing write degrades to
    /// memory-only operation and is counted in
    /// [`SweepCache::persist_errors`], never raised — a broken cache
    /// directory must not fail a sweep that can simply re-simulate.
    pub fn with_store(store: Box<dyn SnapshotStore>, dir: PathBuf) -> Self {
        Self {
            store: Some((store, dir)),
            ..Self::default()
        }
    }

    /// The artifact name for a key — stable across invocations, one
    /// file per experiment identity.
    fn file_name(fingerprint: u64, groups: u64, seed: u64) -> String {
        format!("sweep-{fingerprint:016x}-g{groups}-s{seed}.ckpt")
    }

    /// The driver schedule stamped on persisted artifacts: a fixed run
    /// of exactly `groups` groups in one batch. Probes validate against
    /// the same schedule, so an artifact from a different seed or group
    /// count is refused by the checkpoint codec itself.
    fn driver_for(groups: u64, seed: u64) -> DriverState {
        DriverState::fixed(groups, groups.max(1), seed)
    }

    /// Looks the key up in memory, then (on miss) in the attached
    /// store. A store hit is validated, promoted into memory, and
    /// counted in both [`SweepCache::store_hits`] and
    /// [`SweepCache::hits`]; any store or validation failure is a
    /// plain miss.
    pub fn lookup(&mut self, fingerprint: u64, groups: u64, seed: u64) -> Option<StreamStats> {
        let key = (fingerprint, groups, seed);
        if let Some(bytes) = self.entries.get(&key) {
            let stats =
                StreamStats::decode(bytes).expect("cache entries hold validly encoded statistics");
            self.hits += 1;
            return Some(stats);
        }
        if let Some((store, dir)) = &mut self.store {
            let path = dir.join(Self::file_name(fingerprint, groups, seed));
            if let Ok(ckpt) = SimCheckpoint::load_from(store.as_mut(), &path) {
                let complete = ckpt.groups_done() == groups;
                let valid = ckpt
                    .validate_for(fingerprint, &Self::driver_for(groups, seed))
                    .is_ok();
                if complete && valid {
                    let mut bytes = Vec::new();
                    ckpt.stats.encode_into(&mut bytes);
                    self.entries.insert(key, bytes);
                    self.hits += 1;
                    self.store_hits += 1;
                    return Some(ckpt.stats);
                }
            }
        }
        self.misses += 1;
        None
    }

    /// Records a freshly simulated result under its key, writing
    /// through to the attached store if any.
    ///
    /// Callers must not insert partial results (the fused runner skips
    /// scenarios with quarantined groups, for the same reason the
    /// checkpoint writer refuses them: the statistics exclude groups
    /// the watermark counts).
    pub fn insert(&mut self, fingerprint: u64, groups: u64, seed: u64, stats: &StreamStats) {
        let mut bytes = Vec::new();
        stats.encode_into(&mut bytes);
        self.entries.insert((fingerprint, groups, seed), bytes);
        if let Some((store, dir)) = &mut self.store {
            let path = dir.join(Self::file_name(fingerprint, groups, seed));
            let driver = Self::driver_for(groups, seed);
            if SimCheckpoint::save_parts_to(store.as_mut(), &path, fingerprint, &driver, stats)
                .is_err()
            {
                self.persist_errors += 1;
            }
        }
    }

    /// Cached entries currently held in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is held in memory.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime lookup hits (memory and store).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime hits served by the attached store (also counted in
    /// [`SweepCache::hits`]).
    pub fn store_hits(&self) -> u64 {
        self.store_hits
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Write-through failures silently absorbed (see
    /// [`SweepCache::with_store`]).
    pub fn persist_errors(&self) -> u64 {
        self.persist_errors
    }
}

impl std::fmt::Debug for SweepCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepCache")
            .field("entries", &self.entries.len())
            .field("persistent", &self.store.is_some())
            .field("hits", &self.hits)
            .field("store_hits", &self.store_hits)
            .field("misses", &self.misses)
            .field("persist_errors", &self.persist_errors)
            .finish()
    }
}

/// Everything a fused streaming sweep reports: per-scenario aggregates
/// in input order plus the run's scheduling and caching diagnostics.
///
/// The statistics are bit-identical to a sequential
/// [`crate::run::Simulator::run_streaming`] per scenario at any thread
/// count; everything else (steals, worker balance) is timing-dependent
/// and diagnostic only.
#[derive(Debug)]
pub struct SweepReport {
    /// `(label, aggregate)` per input scenario, in input order.
    pub results: Vec<(String, StreamStats)>,
    /// Scenarios served by the cache this sweep (in-sweep duplicates
    /// plus warm starts), including [`SweepReport::store_hits`].
    pub cache_hits: u64,
    /// Cache hits served from the persistent store.
    pub store_hits: u64,
    /// Scenarios actually simulated this sweep.
    pub simulated: u64,
    /// Quarantined groups as `(input scenario index, group)`, with the
    /// group index local to its scenario. Scenarios listed here are
    /// excluded from the cache.
    pub quarantined: Vec<(usize, crate::events::QuarantinedGroup)>,
    /// Scheduler statistics of the simulating run. When every scenario
    /// was served from the cache, no pool ran and `worker_groups` is
    /// empty. `sched.steals` counts the fused pool's cross-scenario
    /// steals: claims from another bundle of same-seed scenarios. It
    /// is `0` for serial runs and for sweeps whose scenarios all share
    /// one seed.
    pub sched: crate::stats::SchedulerStats,
}

/// Validates every scenario configuration, panicking like
/// [`crate::run::Simulator::new`] does for a single run.
pub(crate) fn validate_scenarios(scenarios: &[SweepScenario]) {
    for sc in scenarios {
        sc.cfg
            .validate()
            .expect("invalid RAID group configuration in sweep scenario");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn stats_of(groups: u64) -> StreamStats {
        use crate::config::RaidGroupConfig;
        use crate::run::Simulator;
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        Simulator::new(cfg).run_streaming(groups as usize, 7, 1)
    }

    #[test]
    fn memory_hits_replay_byte_equal() {
        let mut cache = SweepCache::new();
        assert!(cache.lookup(0xabcd, 16, 7).is_none());
        let stats = stats_of(16);
        cache.insert(0xabcd, 16, 7, &stats);
        let replay = cache.lookup(0xabcd, 16, 7).expect("inserted entry hits");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        stats.encode_into(&mut a);
        replay.encode_into(&mut b);
        assert_eq!(a, b, "replayed statistics are byte-identical");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.store_hits(), 0);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let mut cache = SweepCache::new();
        let stats = stats_of(8);
        cache.insert(1, 8, 7, &stats);
        assert!(cache.lookup(2, 8, 7).is_none(), "fingerprint is keyed");
        assert!(cache.lookup(1, 9, 7).is_none(), "group count is keyed");
        assert!(cache.lookup(1, 8, 8).is_none(), "seed is keyed");
        assert!(cache.lookup(1, 8, 7).is_some());
    }

    #[test]
    fn store_round_trip_warm_starts_a_fresh_cache() {
        let dir = PathBuf::from("cache");
        let stats = stats_of(12);
        // First invocation: simulate and persist.
        let backing = {
            let mut cache = SweepCache::with_store(Box::new(MemStore::new()), dir.clone());
            cache.insert(0xfeed, 12, 3, &stats);
            assert_eq!(cache.persist_errors(), 0);
            // Steal the store back out to hand to the "next invocation".
            match cache.store {
                Some((store, _)) => store,
                None => unreachable!("store was attached"),
            }
        };
        // Second invocation: cold memory, warm store.
        let mut cache = SweepCache::with_store(backing, dir);
        let replay = cache
            .lookup(0xfeed, 12, 3)
            .expect("persisted artifact warm-starts the next invocation");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        stats.encode_into(&mut a);
        replay.encode_into(&mut b);
        assert_eq!(a, b);
        assert_eq!(cache.store_hits(), 1);
        assert_eq!(cache.hits(), 1);
        // The artifact was promoted into memory: the next lookup does
        // not touch the store.
        assert!(cache.lookup(0xfeed, 12, 3).is_some());
        assert_eq!(cache.store_hits(), 1);
    }

    #[test]
    fn older_format_entries_are_misses() {
        let dir = PathBuf::from("cache");
        let stats = stats_of(10);
        let mut cache = SweepCache::with_store(Box::new(MemStore::new()), dir.clone());
        cache.insert(0xbeef, 10, 5, &stats);
        let Some((mut store, _)) = cache.store.take() else {
            unreachable!("store was attached")
        };
        // An entry an older build wrote under the same name: format 2
        // counted latent events over the whole mission.
        let path = dir.join(SweepCache::file_name(0xbeef, 10, 5));
        let image = store.read(&path).unwrap();
        store
            .write(&path, &crate::checkpoint::restamped(image, 2))
            .unwrap();
        let mut cache = SweepCache::with_store(store, dir);
        assert!(cache.lookup(0xbeef, 10, 5).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn foreign_artifacts_degrade_to_a_miss() {
        let dir = PathBuf::from("cache");
        let stats = stats_of(10);
        let mut cache = SweepCache::with_store(Box::new(MemStore::new()), dir);
        cache.insert(0xbeef, 10, 5, &stats);
        // Same file would be probed for a different seed only if the
        // name matched — it cannot, so this is a pure miss...
        assert!(cache.lookup(0xbeef, 10, 6).is_none());
        // ...and even a name collision would be refused by
        // `validate_for` (exercised through the checkpoint tests).
        assert_eq!(cache.misses(), 1);
    }
}
