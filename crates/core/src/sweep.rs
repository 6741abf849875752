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
//! Persistence rides the existing [`SnapshotStore`] seam. With a store
//! attached, every result of one `(groups, seed)` pair lives in one
//! image, `sweep-g{groups}-s{seed}.cache`: the magic `RAIDSWP1`, then
//! one frame per entry, each a little-endian `u64` length followed by
//! an ordinary fixed-mode [`SimCheckpoint`] image. A sweep hands the
//! fresh results of each `(groups, seed)` pair to one
//! [`SweepCache::insert_batch`], which
//! re-reads the image, merges them in and writes it once through
//! [`SnapshotStore::write`] — one durable write per sweep, not one per
//! scenario — and a lookup that misses memory reads the image once and
//! serves every entry in it. Each frame keeps its own checksum and
//! format version, and is only accepted after
//! [`SimCheckpoint::validate_for`] and a completed-prefix check, so a
//! corrupt or older-format frame, or a torn tail, degrades to a miss
//! for the entries it holds, never to wrong results. (A damaged length
//! prefix loses the frames after it the same way.) Two sweeps writing
//! one image concurrently can drop each other's entries: the cost is a
//! later re-simulation, never a wrong result.
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

/// Leading magic bytes of a sweep cache image. The frames after it are
/// checkpoint images that carry their own [`crate::checkpoint::FORMAT_VERSION`],
/// so only a change of the container layout changes this.
const IMAGE_MAGIC: [u8; 8] = *b"RAIDSWP1";

/// The persistent half of a [`SweepCache`].
struct Persistence {
    store: Box<dyn SnapshotStore>,
    dir: PathBuf,
    /// `(groups, seed)` images already read, so a lookup reads each at
    /// most once.
    read: Vec<(u64, u64)>,
    /// Exact encodings read from an image that no lookup has claimed
    /// yet, keyed like [`SweepCache`]'s memory.
    unclaimed: BTreeMap<(u64, u64, u64), Vec<u8>>,
}

impl Persistence {
    fn path(&self, groups: u64, seed: u64) -> PathBuf {
        self.dir.join(format!("sweep-g{groups}-s{seed}.cache"))
    }

    /// The `(groups, seed)` image's bytes; empty when it cannot be read
    /// (a missing image is the cold start).
    fn read_image(&mut self, groups: u64, seed: u64) -> Vec<u8> {
        let path = self.path(groups, seed);
        if !self.read.contains(&(groups, seed)) {
            self.read.push((groups, seed));
        }
        self.store.read(&path).unwrap_or_default()
    }
}

/// The frames of a cache image, in order. A missing or foreign header
/// yields none; a frame whose length runs past the end (a torn tail)
/// ends the walk.
fn frames(image: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = image.strip_prefix(&IMAGE_MAGIC[..]).unwrap_or_default();
    std::iter::from_fn(move || {
        let (len, tail) = rest.split_first_chunk::<8>()?;
        let len = usize::try_from(u64::from_le_bytes(*len)).ok()?;
        let frame = tail.get(..len)?;
        rest = &tail[len..];
        Some(frame)
    })
}

/// The exact encoding the cache keeps of `stats`.
fn encoded(stats: &StreamStats) -> Vec<u8> {
    let mut bytes = Vec::new();
    stats.encode_into(&mut bytes);
    bytes
}

/// The image's usable entries as `(fingerprint, frame, statistics)`,
/// in image order. A frame is usable only if it parses (checksum and
/// format version), was stamped with the `(groups, seed)` schedule, and
/// holds the complete group prefix; anything else is skipped, so it
/// reads as a miss.
fn valid_entries(image: &[u8], groups: u64, seed: u64) -> Vec<(u64, &[u8], StreamStats)> {
    let driver = SweepCache::driver_for(groups, seed);
    let mut entries = Vec::new();
    for frame in frames(image) {
        let Ok(ckpt) = SimCheckpoint::from_bytes(frame) else {
            continue;
        };
        // Keyed by its own fingerprint, so this checks the schedule.
        let valid = ckpt.validate_for(ckpt.fingerprint, &driver).is_ok();
        if valid && ckpt.groups_done() == groups {
            entries.push((ckpt.fingerprint, frame, ckpt.stats));
        }
    }
    entries
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
    store: Option<Persistence>,
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
            store: Some(Persistence {
                store,
                dir,
                read: Vec::new(),
                unclaimed: BTreeMap::new(),
            }),
            ..Self::default()
        }
    }

    /// The driver schedule stamped on persisted entries: a fixed run
    /// of exactly `groups` groups in one batch. Reads validate against
    /// the same schedule, so an entry from a different seed or group
    /// count is refused by the checkpoint codec itself.
    fn driver_for(groups: u64, seed: u64) -> DriverState {
        DriverState::fixed(groups, groups.max(1), seed)
    }

    /// Looks the key up in memory, then (on miss) in the attached
    /// store's `(groups, seed)` image, which is read at most once. A
    /// store hit is promoted into memory and counted in both
    /// [`SweepCache::store_hits`] and [`SweepCache::hits`]; any store
    /// or validation failure is a plain miss.
    pub fn lookup(&mut self, fingerprint: u64, groups: u64, seed: u64) -> Option<StreamStats> {
        let key = (fingerprint, groups, seed);
        if let Some(p) = self
            .store
            .as_mut()
            .filter(|_| !self.entries.contains_key(&key))
        {
            if !p.read.contains(&(groups, seed)) {
                let image = p.read_image(groups, seed);
                for (fp, _, stats) in valid_entries(&image, groups, seed) {
                    p.unclaimed.insert((fp, groups, seed), encoded(&stats));
                }
            }
            if let Some(bytes) = p.unclaimed.remove(&key) {
                self.entries.insert(key, bytes);
                self.store_hits += 1;
            }
        }
        let Some(bytes) = self.entries.get(&key) else {
            self.misses += 1;
            return None;
        };
        let stats =
            StreamStats::decode(bytes).expect("cache entries hold validly encoded statistics");
        self.hits += 1;
        Some(stats)
    }

    /// Records one freshly simulated result under its key: a batch of
    /// one (see [`SweepCache::insert_batch`]), durable on return.
    pub fn insert(&mut self, fingerprint: u64, groups: u64, seed: u64, stats: &StreamStats) {
        self.insert_batch(groups, seed, &[(fingerprint, stats)]);
    }

    /// Records freshly simulated results of one `(groups, seed)` pair,
    /// each `(fingerprint, stats)`, writing through to the attached
    /// store if any.
    ///
    /// The pair's image is re-read, merged with the batch's entries
    /// (which replace same-key ones) and written once, so entries other
    /// writers persisted meanwhile are kept. A failed write counts
    /// every entry of the batch in [`SweepCache::persist_errors`]. An
    /// empty batch touches no store.
    ///
    /// Callers must not insert partial results (the fused runner skips
    /// scenarios with quarantined groups, for the same reason the
    /// checkpoint writer refuses them: the statistics exclude groups
    /// the watermark counts).
    pub fn insert_batch(&mut self, groups: u64, seed: u64, batch: &[(u64, &StreamStats)]) {
        let driver = Self::driver_for(groups, seed);
        // The image's frames, keyed like the memory.
        let mut frames: BTreeMap<(u64, u64, u64), Vec<u8>> = BTreeMap::new();
        for &(fingerprint, stats) in batch {
            let key = (fingerprint, groups, seed);
            self.entries.insert(key, encoded(stats));
            if self.store.is_some() {
                let frame = SimCheckpoint::bytes_from_parts(fingerprint, &driver, stats);
                frames.insert(key, frame);
            }
        }
        let fresh = frames.len() as u64;
        let Some(p) = self.store.as_mut().filter(|_| fresh > 0) else {
            return;
        };
        let old = p.read_image(groups, seed);
        for (fp, frame, stats) in valid_entries(&old, groups, seed) {
            let key = (fp, groups, seed);
            if frames.contains_key(&key) {
                continue;
            }
            frames.insert(key, frame.to_vec());
            if !self.entries.contains_key(&key) {
                p.unclaimed.insert(key, encoded(&stats));
            }
        }
        let mut image = IMAGE_MAGIC.to_vec();
        for frame in frames.values() {
            image.extend_from_slice(&(frame.len() as u64).to_le_bytes());
            image.extend_from_slice(frame);
        }
        if p.store.write(&p.path(groups, seed), &image).is_err() {
            self.persist_errors += fresh;
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

    /// Inserted entries whose image write failed (see
    /// [`SweepCache::with_store`]): each is a scenario a later sweep
    /// re-simulates.
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

    /// Takes the attached store back out, to hand to the "next
    /// invocation".
    fn store_of(cache: SweepCache) -> Box<dyn SnapshotStore> {
        match cache.store {
            Some(p) => p.store,
            None => unreachable!("store was attached"),
        }
    }

    #[test]
    fn memory_hits_replay_byte_equal() {
        let mut cache = SweepCache::new();
        assert!(cache.lookup(0xabcd, 16, 7).is_none());
        let stats = stats_of(16);
        cache.insert(0xabcd, 16, 7, &stats);
        let replay = cache.lookup(0xabcd, 16, 7).expect("inserted entry hits");
        assert_eq!(
            encoded(&stats),
            encoded(&replay),
            "replayed statistics are byte-identical"
        );
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
            store_of(cache)
        };
        // Second invocation: cold memory, warm store.
        let mut cache = SweepCache::with_store(backing, dir);
        let replay = cache
            .lookup(0xfeed, 12, 3)
            .expect("persisted artifact warm-starts the next invocation");
        assert_eq!(encoded(&stats), encoded(&replay));
        assert_eq!(cache.store_hits(), 1);
        assert_eq!(cache.hits(), 1);
        // The artifact was promoted into memory: the next lookup does
        // not touch the store.
        assert!(cache.lookup(0xfeed, 12, 3).is_some());
        assert_eq!(cache.store_hits(), 1);
    }

    #[test]
    fn a_failed_image_write_counts_every_entry_it_carried() {
        use crate::store::{FaultKind, FaultPlan, FaultStore};
        let stats = stats_of(10);
        // Operation 0 is the batch's re-read, 1 its write.
        let store = FaultStore::new(MemStore::new(), FaultPlan::new().at(1, FaultKind::Enospc));
        let mut cache = SweepCache::with_store(Box::new(store), PathBuf::from("cache"));
        let batch: Vec<(u64, &StreamStats)> = (0..3).map(|fp| (fp, &stats)).collect();
        cache.insert_batch(10, 5, &batch);
        assert_eq!(
            cache.persist_errors(),
            3,
            "three scenarios went unpersisted"
        );
        assert_eq!(cache.len(), 3, "memory still serves them");
    }

    #[test]
    fn older_format_entries_are_misses() {
        let dir = PathBuf::from("cache");
        let stats = stats_of(10);
        let mut cache = SweepCache::with_store(Box::new(MemStore::new()), dir.clone());
        cache.insert(0xbeef, 10, 5, &stats);
        let mut store = store_of(cache);
        // An entry an older build wrote: format 2 counted latent events
        // over the whole mission. Restamp the image's one frame.
        let path = dir.join("sweep-g10-s5.cache");
        let image = store.read(&path).unwrap();
        let frame = frames(&image).next().expect("one frame").to_vec();
        let mut restamped = image[..16].to_vec();
        restamped.extend_from_slice(&crate::checkpoint::restamped(frame, 2));
        store.write(&path, &restamped).unwrap();
        let mut cache = SweepCache::with_store(store, dir);
        assert!(cache.lookup(0xbeef, 10, 5).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn a_torn_tail_loses_only_the_frames_it_cut() {
        let dir = PathBuf::from("cache");
        let stats = stats_of(10);
        let mut cache = SweepCache::with_store(Box::new(MemStore::new()), dir.clone());
        let batch: Vec<(u64, &StreamStats)> = (0..3).map(|fp| (fp, &stats)).collect();
        cache.insert_batch(10, 5, &batch);
        let mut store = store_of(cache);
        let path = dir.join("sweep-g10-s5.cache");
        let image = store.read(&path).unwrap();
        // Cut the last frame short by one byte.
        store.write(&path, &image[..image.len() - 1]).unwrap();
        let mut cache = SweepCache::with_store(store, dir);
        assert!(cache.lookup(0, 10, 5).is_some());
        assert!(cache.lookup(1, 10, 5).is_some());
        assert!(cache.lookup(2, 10, 5).is_none());
        assert_eq!((cache.store_hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn foreign_artifacts_degrade_to_a_miss() {
        let dir = PathBuf::from("cache");
        let stats = stats_of(10);
        let mut cache = SweepCache::with_store(Box::new(MemStore::new()), dir);
        cache.insert(0xbeef, 10, 5, &stats);
        // Another seed names another image, so this is a pure miss...
        assert!(cache.lookup(0xbeef, 10, 6).is_none());
        // ...and even a frame under the wrong name would be refused by
        // `validate_for` (exercised through the checkpoint tests).
        assert_eq!(cache.misses(), 1);
    }
}
