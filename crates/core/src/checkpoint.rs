//! Crash-safe checkpoint/resume for long Monte Carlo runs.
//!
//! The paper's headline numbers come from sequential Monte Carlo over
//! tens of thousands of multi-year RAID-group histories, and the
//! low-DDF-rate configurations (RAID 6, aggressive scrubbing) need the
//! largest group counts to converge — exactly the runs most likely to be
//! killed by a timeout, an OOM, or an operator Ctrl-C. This module makes
//! those runs preemptible: a [`SimCheckpoint`] is a versioned,
//! checksummed binary snapshot of everything the streamed precision
//! driver needs to continue, and resuming from it is **provably
//! bit-identical** to never having been interrupted.
//!
//! # Why resume is exact
//!
//! Three properties combine:
//!
//! 1. Group `i` always draws from RNG stream `(master_seed, i)`
//!    ([`raidsim_dists::rng::stream`]), so simulating groups `[n, m)`
//!    tomorrow yields the same histories as it would have today.
//! 2. The batch runner completes groups as a **prefix** `[0, n)` of the
//!    index space. Workers claim index batches *dynamically* within a
//!    driver batch (see the scheduling notes in [`crate::run`]), but a
//!    driver batch `[lo, hi)` only returns once every index in it has
//!    completed — the worker joins are a barrier — and checkpoints are
//!    only taken at those boundaries, so the completed-prefix watermark
//!    `n` (the accumulator's group count) fully describes "which groups
//!    are done" regardless of how claims interleaved inside the batch.
//! 3. [`StreamStats`] state is exact integers, so the accumulator after
//!    resuming and merging `[n, m)` is bit-identical to the
//!    uninterrupted accumulator over `[0, m)` at any thread count (the
//!    determinism argument in [`crate::stats`]).
//!
//! The driver state (batch schedule, stopping targets, master seed) is
//! stored alongside the statistics, so the resumed run evaluates its
//! stopping rules at the same batch boundaries with the same thresholds
//! and therefore stops at the same group count with the same
//! [`crate::run::StopCriterion`].
//!
//! # File formats (little-endian throughout)
//!
//! A checkpoint file is either a canonical image or a journal of them.
//!
//! ## Canonical image (format version 3)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "RAIDSIMC"
//! 8       4     format version (u32)
//! 12      8     payload length L (u64)
//! 20      L     payload
//! 20+L    8     FNV-1a 64 checksum of bytes [0, 20+L)
//! ```
//!
//! Payload:
//!
//! ```text
//! 8     config fingerprint (u64; see [`config_fingerprint`])
//! 1     driver mode (0 = fixed group count, 1 = precision-controlled)
//! 8     target relative half-width (f64 bits)
//! 8     confidence level (f64 bits)
//! 8     batch size (u64)
//! 8     group cap (u64)
//! 8     master seed (u64)
//! 8     completed group count n (u64; completed indices are [0, n))
//! rest  [`StreamStats`] state ([`StreamStats::encode_into`])
//! ```
//!
//! Version 2 extended the [`StreamStats`] block with the five weighted
//! importance-sampling moments and folded the bias policy into the
//! fingerprint. Version 3 kept that layout but changed what the latent
//! counters mean: `latent_defects` and `scrubs_completed` count events
//! up to each group's observation horizon, its last operational event,
//! where earlier versions counted the whole mission (see
//! [`crate::events::GroupHistory`]). Files of versions 1 and 2 are
//! refused with [`CheckpointError::VersionMismatch`]: resuming or
//! merging them would add whole-mission counts to horizon counts.
//!
//! This canonical image is what every finished or interrupted run, shard
//! and cache entry leaves on disk. Its writes are atomic: the image goes
//! to a sibling temp file, is fsynced, and is renamed over the target,
//! so a crash mid-write leaves either the previous checkpoint or the new
//! one — never a torn file.
//!
//! ## Journal (mid-run snapshots)
//!
//! While a checkpointed run is in flight, its periodic snapshots go to a
//! two-slot journal at the same path instead, so each one costs one
//! in-place write and `sync_data` rather than a temp file, `fsync`,
//! rename and directory sync:
//!
//! ```text
//! offset      size  field
//! 0           8     magic "RAIDSIMJ"
//! 8           4     journal version (u32, [`JOURNAL_VERSION`])
//! 12          8     slot capacity C (u64, a multiple of 4096)
//! 20          8     FNV-1a 64 checksum of bytes [0, 20)
//! 28          4068  zero (the header fills one 4 KiB page)
//! 4096        C     slot 0
//! 4096 + C    C     slot 1
//! ```
//!
//! Each slot:
//!
//! ```text
//! 0       8     sequence number (u64; higher is newer)
//! 8       8     image length N (u64)
//! 16      N     a complete canonical "RAIDSIMC" image
//! 16+N    …     zero padding
//! C-8     8     FNV-1a 64 checksum of slot bytes [0, C-8)
//! ```
//!
//! Slots start at 4 KiB-aligned offsets and span whole pages, so writing
//! one never touches a page of the header or of the other slot. A run's
//! first snapshot creates the journal atomically (image in slot 0); each
//! later one overwrites, in place, the slot that does not hold the
//! newest durable snapshot, with the next sequence number. A crash
//! mid-write can therefore tear only that slot, and the other still
//! holds the previous snapshot — the same "lose at most the groups since
//! the last snapshot" bound as the atomic path. A snapshot too large for
//! the slots re-creates the journal atomically. The run's final write
//! (finish or interruption) replaces the journal atomically with the
//! canonical image, so finished runs leave exactly the canonical bytes.
//!
//! [`SimCheckpoint::from_bytes`] reads both forms: from a journal it
//! takes the intact slot with the higher sequence number (one intact
//! slot is enough) and returns [`CheckpointError::Corrupt`] when neither
//! is intact.
//!
//! Loads validate the magic, version, checksum, and every structural
//! invariant of the payload, and return typed [`CheckpointError`]s
//! instead of panicking or silently resuming the wrong run.
//!
//! The codec is hand-rolled: the accumulator's exact state uses `u128`
//! fields, which the vendored offline serde does not support.

use crate::config::RaidGroupConfig;
use crate::engine::BiasPolicy;
use crate::stats::{Decoder, StreamStats};
use crate::store::{FsStore, SnapshotStore};
use std::fmt;
use std::path::Path;

/// On-disk format version; bumped whenever the layout or the meaning of
/// any field changes. Version 2 added the weighted importance-sampling
/// moments; version 3 made the latent counters count to each group's
/// observation horizon. This is the only version a build reads.
pub const FORMAT_VERSION: u32 = 3;

/// Leading magic bytes of every canonical checkpoint image.
pub const MAGIC: [u8; 8] = *b"RAIDSIMC";

/// Leading magic bytes of a mid-run checkpoint journal (see the module
/// docs).
pub const JOURNAL_MAGIC: [u8; 8] = *b"RAIDSIMJ";

/// Journal container version; the images in its slots carry their own
/// [`FORMAT_VERSION`].
pub const JOURNAL_VERSION: u32 = 1;

/// The journal's page size: its header fills one page and each slot
/// spans whole pages.
const PAGE: usize = 4096;

/// Slot framing bytes: sequence and image length before the image, the
/// checksum at the slot's end.
const SLOT_FRAMING: usize = 24;

/// Typed failures of checkpoint save, load, or resume validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// Operating-system error text.
        reason: String,
        /// Whether a retry could plausibly succeed (`EINTR`-class
        /// failures) or is pointless (`ENOSPC`, permissions, torn
        /// destination). The retry layer in [`crate::store`] only
        /// retries transient failures.
        transient: bool,
    },
    /// The file is not a checkpoint, is torn, or fails its checksum or
    /// structural validation.
    Corrupt {
        /// What was wrong.
        reason: String,
    },
    /// The file was written by a different (incompatible) code/format
    /// version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The checkpoint belongs to a different run: another configuration,
    /// engine, seed, or precision schedule. Resuming would silently
    /// produce wrong statistics, so it is refused.
    ConfigMismatch {
        /// Which part of the run identity differs.
        field: &'static str,
        /// Human-readable detail.
        reason: String,
    },
    /// The run's state can no longer be snapshotted: writing a
    /// checkpoint now would produce a file that resumes into *different*
    /// statistics than continuing would (e.g. after a quarantined group
    /// punched a hole in the completed prefix). The run keeps going;
    /// only checkpointing is refused.
    Unresumable {
        /// Why the in-memory state cannot be snapshotted.
        reason: String,
    },
}

impl CheckpointError {
    /// True when retrying the failed operation could plausibly succeed.
    /// Only I/O failures are ever transient; corruption, version and
    /// config mismatches, and unresumable state are final.
    pub fn transient(&self) -> bool {
        matches!(
            self,
            CheckpointError::Io {
                transient: true,
                ..
            }
        )
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io {
                path,
                reason,
                transient,
            } => {
                let class = if *transient {
                    "transient"
                } else {
                    "persistent"
                };
                write!(f, "checkpoint I/O error ({class}) on {path}: {reason}")
            }
            CheckpointError::Corrupt { reason } => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} is not the supported version {expected}"
            ),
            CheckpointError::ConfigMismatch { field, reason } => write!(
                f,
                "checkpoint belongs to a different run ({field}): {reason}"
            ),
            CheckpointError::Unresumable { reason } => {
                write!(f, "run state is no longer checkpointable: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Fingerprint binding a checkpoint to one run identity: the full
/// configuration (drives, redundancy, mission, every transition
/// distribution's parameters, spare policy), the engine implementation,
/// the bias policy (a resumed run must re-draw under the same measure
/// or the weights are meaningless), and the on-disk format version.
///
/// The hash is FNV-1a 64 over the configuration's and policy's `Debug`
/// renderings — Rust's float formatting is shortest-round-trip and
/// deterministic, so equal configurations always fingerprint equally
/// and any parameter change (even in the last significant digit)
/// changes the fingerprint.
pub fn config_fingerprint(cfg: &RaidGroupConfig, engine_name: &str, bias: BiasPolicy) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(&FORMAT_VERSION.to_le_bytes());
    hash.write(engine_name.as_bytes());
    hash.write(b"\0");
    hash.write(format!("{cfg:?}").as_bytes());
    hash.write(b"\0");
    hash.write(format!("{bias:?}").as_bytes());
    hash.finish()
}

/// The precision driver's bookkeeping, persisted so a resumed run
/// evaluates its stopping rules on the same schedule with the same
/// thresholds (a different batch size would check the criteria at
/// different boundaries and could stop at a different group count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverState {
    /// `true` for precision-controlled runs, `false` for fixed
    /// group-count runs (where the width criteria are disabled).
    pub precision_mode: bool,
    /// Relative confidence-half-width target (0 in fixed mode).
    pub target_relative: f64,
    /// Confidence level (0 in fixed mode).
    pub confidence: f64,
    /// Groups per batch; checkpoints land on multiples of this.
    pub batch: u64,
    /// Group cap (or the fixed group count).
    pub max_groups: u64,
    /// Master seed of the per-group RNG streams.
    pub seed: u64,
}

impl DriverState {
    /// Schedule for a fixed group-count run: no width criteria,
    /// `groups` is both the target and the cap, simulated in
    /// `batch`-sized checkpointable slices.
    pub fn fixed(groups: u64, batch: u64, seed: u64) -> Self {
        Self {
            precision_mode: false,
            target_relative: 0.0,
            confidence: 0.0,
            batch,
            max_groups: groups,
            seed,
        }
    }

    /// Schedule for a precision-controlled run — the parameters of
    /// [`crate::run::Simulator::run_until_precision`], and of the streamed
    /// precision run through [`crate::run::Simulator::run_checkpointed`].
    pub fn precision(
        target_relative: f64,
        confidence: f64,
        batch: u64,
        max_groups: u64,
        seed: u64,
    ) -> Self {
        Self {
            precision_mode: true,
            target_relative,
            confidence,
            batch,
            max_groups,
            seed,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.precision_mode));
        out.extend_from_slice(&self.target_relative.to_bits().to_le_bytes());
        out.extend_from_slice(&self.confidence.to_bits().to_le_bytes());
        out.extend_from_slice(&self.batch.to_le_bytes());
        out.extend_from_slice(&self.max_groups.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, String> {
        let mode = r.u8()?;
        if mode > 1 {
            return Err(format!("driver mode byte {mode} is not 0 or 1"));
        }
        Ok(Self {
            precision_mode: mode == 1,
            target_relative: f64::from_bits(r.u64()?),
            confidence: f64::from_bits(r.u64()?),
            batch: r.u64()?,
            max_groups: r.u64()?,
            seed: r.u64()?,
        })
    }

    /// Returns the first field on which `self` (the requested run) and
    /// `stored` (the checkpoint) disagree. Floats compare by bit
    /// pattern: the resumed schedule must be *exactly* the one that
    /// produced the checkpoint, or bit-identity is forfeit.
    fn first_mismatch(&self, stored: &DriverState) -> Option<(&'static str, String)> {
        if self.precision_mode != stored.precision_mode {
            return Some((
                "mode",
                format!(
                    "requested {} run, checkpoint is from a {} run",
                    mode_name(self.precision_mode),
                    mode_name(stored.precision_mode)
                ),
            ));
        }
        if self.target_relative.to_bits() != stored.target_relative.to_bits() {
            return Some((
                "target_relative",
                format!(
                    "requested {}, checkpoint has {}",
                    self.target_relative, stored.target_relative
                ),
            ));
        }
        if self.confidence.to_bits() != stored.confidence.to_bits() {
            return Some((
                "confidence",
                format!(
                    "requested {}, checkpoint has {}",
                    self.confidence, stored.confidence
                ),
            ));
        }
        if self.batch != stored.batch {
            return Some((
                "batch",
                format!("requested {}, checkpoint has {}", self.batch, stored.batch),
            ));
        }
        if self.max_groups != stored.max_groups {
            return Some((
                "max_groups",
                format!(
                    "requested {}, checkpoint has {}",
                    self.max_groups, stored.max_groups
                ),
            ));
        }
        if self.seed != stored.seed {
            return Some((
                "seed",
                format!("requested {}, checkpoint has {}", self.seed, stored.seed),
            ));
        }
        None
    }
}

fn mode_name(precision: bool) -> &'static str {
    if precision {
        "precision-controlled"
    } else {
        "fixed group-count"
    }
}

/// A resumable snapshot of an in-flight (or finished) run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// Format version of the snapshot: [`FORMAT_VERSION`] for every
    /// parsed or freshly built one. The runner and [`merge_shards`]
    /// refuse any other with [`CheckpointError::VersionMismatch`].
    pub format_version: u32,
    /// Run identity (see [`config_fingerprint`]).
    pub fingerprint: u64,
    /// The precision driver's schedule and thresholds.
    pub driver: DriverState,
    /// Merged statistics over the completed group prefix
    /// `[0, stats.groups())`.
    pub stats: StreamStats,
}

impl SimCheckpoint {
    /// Completed groups: indices `[0, groups_done())` are folded into
    /// [`SimCheckpoint::stats`].
    pub fn groups_done(&self) -> u64 {
        self.stats.groups()
    }

    /// Serializes the full checkpoint file image (header, payload,
    /// checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::bytes_from_parts(self.fingerprint, &self.driver, &self.stats)
    }

    /// Serializes a checkpoint image from borrowed parts, without
    /// requiring an assembled `SimCheckpoint` — the batch runner
    /// checkpoints mid-run from its live accumulator, and this borrowed
    /// form is what lets it do so without cloning the [`StreamStats`].
    pub fn bytes_from_parts(
        fingerprint: u64,
        driver: &DriverState,
        stats: &StreamStats,
    ) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&fingerprint.to_le_bytes());
        driver.encode_into(&mut payload);
        payload.extend_from_slice(&stats.groups().to_le_bytes());
        stats.encode_into(&mut payload);

        let mut out = Vec::with_capacity(28 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let mut hash = Fnv1a::new();
        hash.write(&out);
        out.extend_from_slice(&hash.finish().to_le_bytes());
        out
    }

    /// Parses a checkpoint file: a canonical image, or a journal whose
    /// newest intact slot holds one.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] for a bad magic, torn length,
    /// failed checksum, invalid payload, or a journal with no intact
    /// slot; [`CheckpointError::VersionMismatch`] when the format or
    /// journal version is not one this build reads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.starts_with(&JOURNAL_MAGIC) {
            return Self::from_journal(bytes);
        }
        Self::from_image(bytes)
    }

    /// Parses a journal: the newest intact slot whose image parses.
    fn from_journal(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let corrupt = |reason: &str| CheckpointError::Corrupt {
            reason: format!("journal: {reason}"),
        };
        let header = bytes
            .get(..PAGE)
            .ok_or_else(|| corrupt("shorter than its header page"))?;
        let mut hash = Fnv1a::new();
        hash.write(&header[..20]);
        let mut r = Decoder::new(&header[8..]);
        let (version, capacity, sum) = (
            r.u32().map_err(|_| corrupt("header"))?,
            r.u64().map_err(|_| corrupt("header"))?,
            r.u64().map_err(|_| corrupt("header"))?,
        );
        if hash.finish() != sum {
            return Err(corrupt("header checksum mismatch"));
        }
        if version != JOURNAL_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                expected: JOURNAL_VERSION,
            });
        }
        let capacity = usize::try_from(capacity)
            .ok()
            .filter(|&c| c >= PAGE && c % PAGE == 0)
            .ok_or_else(|| corrupt("slot capacity is not a positive multiple of 4096"))?;
        if capacity
            .checked_mul(2)
            .and_then(|slots| slots.checked_add(PAGE))
            != Some(bytes.len())
        {
            return Err(corrupt("file length disagrees with the slot capacity"));
        }
        let mut slots: Vec<(u64, &[u8])> = bytes[PAGE..]
            .chunks_exact(capacity)
            .filter_map(intact_slot)
            .collect();
        slots.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        slots
            .into_iter()
            .map(|(_, image)| Self::from_image(image))
            .reduce(Result::or)
            .unwrap_or_else(|| Err(corrupt("neither slot is intact")))
    }

    /// Parses a canonical checkpoint image.
    fn from_image(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let corrupt = |reason: String| CheckpointError::Corrupt { reason };
        let mut r = Decoder::new(bytes);
        let magic: [u8; 8] = r.take().map_err(|_| {
            corrupt(format!(
                "file is {} byte(s), shorter than the header",
                bytes.len()
            ))
        })?;
        if magic != MAGIC {
            return Err(corrupt("leading magic bytes are not \"RAIDSIMC\"".into()));
        }
        let version = r
            .u32()
            .map_err(|_| corrupt("truncated before the version field".into()))?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let payload_len = r
            .u64()
            .map_err(|_| corrupt("truncated before the payload length".into()))?
            as usize;
        let expected_total = 28usize
            .checked_add(payload_len)
            .ok_or_else(|| corrupt("payload length overflows".into()))?;
        if bytes.len() != expected_total {
            return Err(corrupt(format!(
                "file is {} byte(s), header promises {expected_total}",
                bytes.len()
            )));
        }
        let body = &bytes[..20 + payload_len];
        let mut hash = Fnv1a::new();
        hash.write(body);
        let mut tail = Decoder::new(&bytes[20 + payload_len..]);
        let stored_sum = tail
            .u64()
            .map_err(|_| corrupt("truncated before the checksum".into()))?;
        if hash.finish() != stored_sum {
            return Err(corrupt(
                "checksum mismatch (the file was altered or torn)".into(),
            ));
        }

        let mut p = Decoder::new(&bytes[20..20 + payload_len]);
        let fingerprint = p.u64().map_err(|e| corrupt(format!("payload: {e}")))?;
        let driver = DriverState::decode(&mut p).map_err(|e| corrupt(format!("payload: {e}")))?;
        let groups_done = p.u64().map_err(|e| corrupt(format!("payload: {e}")))?;
        let stats = StreamStats::decode(p.remaining())
            .map_err(|e| corrupt(format!("statistics state: {e}")))?;
        if stats.groups() != groups_done {
            return Err(corrupt(format!(
                "completed-group count {groups_done} disagrees with the \
                 statistics state ({} groups)",
                stats.groups()
            )));
        }
        if groups_done > driver.max_groups {
            return Err(corrupt(format!(
                "completed-group count {groups_done} exceeds the group cap {}",
                driver.max_groups
            )));
        }
        Ok(Self {
            format_version: version,
            fingerprint,
            driver,
            stats,
        })
    }

    /// Atomically writes the checkpoint to `path`: the image goes to a
    /// sibling `<path>.tmp`, is flushed to disk, and is renamed over the
    /// target, so a crash mid-write can never leave a torn file at
    /// `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the temp file cannot be created,
    /// written, synced, or renamed.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        Self::save_parts(path, self.fingerprint, &self.driver, &self.stats)
    }

    /// Atomically writes a checkpoint assembled from borrowed parts —
    /// the clone-free counterpart of [`SimCheckpoint::save`], used by
    /// the batch runner's periodic mid-run snapshots.
    ///
    /// # Errors
    ///
    /// As [`SimCheckpoint::save`].
    pub fn save_parts(
        path: &Path,
        fingerprint: u64,
        driver: &DriverState,
        stats: &StreamStats,
    ) -> Result<(), CheckpointError> {
        Self::save_parts_to(&mut FsStore, path, fingerprint, driver, stats)
    }

    /// As [`SimCheckpoint::save_parts`], but through any
    /// [`SnapshotStore`] — the seam the drivers use so checkpoint I/O
    /// can be redirected (in-memory, fault-injected) without touching
    /// the codec.
    ///
    /// # Errors
    ///
    /// Whatever the store reports.
    pub fn save_parts_to(
        store: &mut dyn SnapshotStore,
        path: &Path,
        fingerprint: u64,
        driver: &DriverState,
        stats: &StreamStats,
    ) -> Result<(), CheckpointError> {
        let bytes = Self::bytes_from_parts(fingerprint, driver, stats);
        store.write(path, &bytes)
    }

    /// Reads and parses the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read; otherwise
    /// as [`SimCheckpoint::from_bytes`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::load_from(&mut FsStore, path)
    }

    /// As [`SimCheckpoint::load`], but through any [`SnapshotStore`].
    ///
    /// # Errors
    ///
    /// As [`SimCheckpoint::load`].
    pub fn load_from(store: &mut dyn SnapshotStore, path: &Path) -> Result<Self, CheckpointError> {
        let bytes = store.read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Checks that this checkpoint belongs to the run described by
    /// `fingerprint` and `driver` — called by the runner before any
    /// simulation work, so a wrong checkpoint is refused instead of
    /// silently producing wrong statistics.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] naming the first field that
    /// differs.
    pub fn validate_for(
        &self,
        fingerprint: u64,
        driver: &DriverState,
    ) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                field: "config",
                reason: format!(
                    "fingerprint {:016x} in the checkpoint, {fingerprint:016x} for the \
                     requested configuration/engine",
                    self.fingerprint
                ),
            });
        }
        if let Some((field, reason)) = driver.first_mismatch(&self.driver) {
            return Err(CheckpointError::ConfigMismatch { field, reason });
        }
        Ok(())
    }
}

/// The `(sequence, image)` of a journal slot whose checksum holds.
fn intact_slot(slot: &[u8]) -> Option<(u64, &[u8])> {
    let (body, sum) = slot.split_at(slot.len() - 8);
    let mut hash = Fnv1a::new();
    hash.write(body);
    if sum != hash.finish().to_le_bytes() {
        return None;
    }
    let mut r = Decoder::new(body);
    let seq = r.u64().ok()?;
    let len = usize::try_from(r.u64().ok()?).ok()?;
    Some((seq, r.remaining().get(..len)?))
}

/// The writer's side of a checkpoint journal (module docs): which slot
/// holds the newest durable snapshot, and its sequence number. A run
/// keeps one for as long as the file at its path is the journal it
/// created; a resumed run starts a fresh one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Journal {
    capacity: usize,
    newest: usize,
    seq: u64,
}

impl Journal {
    /// A journal holding `image` in slot 0, and the whole file to write
    /// atomically.
    pub(crate) fn create(image: &[u8]) -> (Self, Vec<u8>) {
        let capacity = (image.len() + SLOT_FRAMING).next_multiple_of(PAGE);
        let journal = Journal {
            capacity,
            newest: 0,
            seq: 1,
        };
        let mut file = Vec::with_capacity(PAGE + 2 * capacity);
        file.extend_from_slice(&JOURNAL_MAGIC);
        file.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        file.extend_from_slice(&(capacity as u64).to_le_bytes());
        let mut hash = Fnv1a::new();
        hash.write(&file);
        file.extend_from_slice(&hash.finish().to_le_bytes());
        file.resize(PAGE, 0);
        file.extend_from_slice(&journal.slot(1, image));
        file.resize(PAGE + 2 * capacity, 0);
        (journal, file)
    }

    /// The in-place write that makes `image` the newest snapshot: the
    /// byte offset of the slot not holding the newest durable one, and
    /// that slot's full contents. `None` when `image` does not fit.
    pub(crate) fn next_write(&self, image: &[u8]) -> Option<(u64, Vec<u8>)> {
        if image.len() + SLOT_FRAMING > self.capacity {
            return None;
        }
        let target = 1 - self.newest;
        let offset = PAGE + target * self.capacity;
        Some((offset as u64, self.slot(self.seq + 1, image)))
    }

    /// Records that the write [`Journal::next_write`] described is
    /// durable.
    pub(crate) fn committed(&mut self) {
        self.newest = 1 - self.newest;
        self.seq += 1;
    }

    fn slot(&self, seq: u64, image: &[u8]) -> Vec<u8> {
        let mut slot = Vec::with_capacity(self.capacity);
        slot.extend_from_slice(&seq.to_le_bytes());
        slot.extend_from_slice(&(image.len() as u64).to_le_bytes());
        slot.extend_from_slice(image);
        slot.resize(self.capacity - 8, 0);
        let mut hash = Fnv1a::new();
        hash.write(&slot);
        slot.extend_from_slice(&hash.finish().to_le_bytes());
        slot
    }
}

/// Gathers per-shard snapshots (the scatter half is
/// [`crate::run::Simulator::run_shard`]) into the checkpoint an
/// unsharded run over the union range would have written —
/// byte-for-byte, at any shard count, merged in any order.
///
/// A shard snapshot is an ordinary fixed-mode [`SimCheckpoint`] whose
/// driver records `max_groups = hi` (the shard's exclusive upper group
/// index); the lower bound is recovered as `hi − stats.groups()`, so
/// the format needed no new fields. The merge refuses — with a typed
/// [`CheckpointError::ConfigMismatch`] naming the offending field —
/// unless every shard carries the same fingerprint, seed, and batch,
/// is fixed-mode, and the ranges tile `[0, G)` exactly (no gaps, no
/// overlaps, starting at zero). Statistics fold via the exact-integer
/// [`StreamStats::merge`], which is associative and commutative, so
/// the result is bit-identical to the unsharded accumulator.
///
/// # Errors
///
/// [`CheckpointError::VersionMismatch`] for a shard of another format
/// version; [`CheckpointError::ConfigMismatch`] as described above
/// (also for an empty shard list).
pub fn merge_shards(mut shards: Vec<SimCheckpoint>) -> Result<SimCheckpoint, CheckpointError> {
    let Some(first) = shards.first() else {
        return Err(CheckpointError::ConfigMismatch {
            field: "shards",
            reason: "no shard snapshots to merge".to_string(),
        });
    };
    let fingerprint = first.fingerprint;
    let seed = first.driver.seed;
    let batch = first.driver.batch;
    for (i, shard) in shards.iter().enumerate() {
        if shard.format_version != FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: shard.format_version,
                expected: FORMAT_VERSION,
            });
        }
        if shard.fingerprint != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                field: "fingerprint",
                reason: format!(
                    "shard {i} has fingerprint {:016x}, shard 0 has {fingerprint:016x} — \
                     shards must come from the same configuration, engine, and bias",
                    shard.fingerprint
                ),
            });
        }
        if shard.driver.precision_mode {
            return Err(CheckpointError::ConfigMismatch {
                field: "mode",
                reason: format!(
                    "shard {i} is from a precision-controlled run; \
                     shards are fixed group-range snapshots"
                ),
            });
        }
        if shard.driver.seed != seed {
            return Err(CheckpointError::ConfigMismatch {
                field: "seed",
                reason: format!(
                    "shard {i} has seed {}, shard 0 has {seed}",
                    shard.driver.seed
                ),
            });
        }
        if shard.driver.batch != batch {
            return Err(CheckpointError::ConfigMismatch {
                field: "batch",
                reason: format!(
                    "shard {i} has batch {}, shard 0 has {batch}",
                    shard.driver.batch
                ),
            });
        }
        if shard.stats.groups() > shard.driver.max_groups {
            return Err(CheckpointError::ConfigMismatch {
                field: "range",
                reason: format!(
                    "shard {i} holds {} groups but its range ends at group {}",
                    shard.stats.groups(),
                    shard.driver.max_groups
                ),
            });
        }
    }
    // Recover each shard's [lo, hi) and demand an exact tiling of
    // [0, G). Sorting by lo makes gaps and overlaps adjacent-pair
    // checks; the merge itself is order-insensitive.
    // The secondary key orders a zero-width shard (possible when the
    // shard count exceeds the group count) before the full shard that
    // starts at the same index.
    shards.sort_by_key(|s| (s.driver.max_groups - s.stats.groups(), s.driver.max_groups));
    let mut expected_lo = 0u64;
    for shard in &shards {
        let lo = shard.driver.max_groups - shard.stats.groups();
        if lo != expected_lo {
            let kind = if lo > expected_lo { "gap" } else { "overlap" };
            return Err(CheckpointError::ConfigMismatch {
                field: "range",
                reason: format!(
                    "{kind} in shard coverage: expected a shard starting at group \
                     {expected_lo}, found one starting at {lo}"
                ),
            });
        }
        expected_lo = shard.driver.max_groups;
    }
    let total = expected_lo;
    let mut iter = shards.into_iter();
    let Some(first) = iter.next() else {
        unreachable!("non-empty checked above");
    };
    let mut stats = first.stats;
    for shard in iter {
        stats.merge(shard.stats);
    }
    Ok(SimCheckpoint {
        format_version: FORMAT_VERSION,
        fingerprint,
        driver: DriverState::fixed(total, batch, seed),
        stats,
    })
}

/// `image` (a canonical checkpoint image) re-stamped as format
/// `version`, its checksum recomputed so only the version is wrong —
/// the file an older or newer build would have left.
#[cfg(test)]
pub(crate) fn restamped(mut image: Vec<u8>, version: u32) -> Vec<u8> {
    image[8..12].copy_from_slice(&version.to_le_bytes());
    let n = image.len();
    let mut hash = Fnv1a::new();
    hash.write(&image[..n - 8]);
    let sum = hash.finish();
    image[n - 8..].copy_from_slice(&sum.to_le_bytes());
    image
}

/// FNV-1a 64-bit: tiny, dependency-free, and deterministic across
/// platforms — adequate for torn-write/bit-rot detection (any single
/// flipped bit changes the digest), not for adversarial integrity.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Simulator;

    fn base() -> RaidGroupConfig {
        RaidGroupConfig::paper_base_case().unwrap()
    }

    fn sample_checkpoint() -> SimCheckpoint {
        let sim = Simulator::new(base());
        let stats = sim.run_streaming(60, 9, 2);
        SimCheckpoint {
            format_version: FORMAT_VERSION,
            fingerprint: config_fingerprint(&base(), "des", BiasPolicy::None),
            driver: DriverState {
                precision_mode: true,
                target_relative: 0.25,
                confidence: 0.95,
                batch: 20,
                max_groups: 500,
                seed: 9,
            },
            stats,
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        assert_eq!(SimCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("raidsim_ckpt_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ckpt = sample_checkpoint();
        ckpt.save(&path).unwrap();
        assert_eq!(SimCheckpoint::load(&path).unwrap(), ckpt);
        // Overwriting is also atomic and clean.
        ckpt.save(&path).unwrap();
        assert_eq!(SimCheckpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_corrupt_at_every_length() {
        let bytes = sample_checkpoint().to_bytes();
        for len in 0..bytes.len() {
            match SimCheckpoint::from_bytes(&bytes[..len]) {
                Err(CheckpointError::Corrupt { .. }) => {}
                other => panic!("{len}-byte prefix: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match SimCheckpoint::from_bytes(&bad) {
                Err(CheckpointError::Corrupt { .. } | CheckpointError::VersionMismatch { .. }) => {}
                other => panic!("flip at byte {i}: expected an error, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SimCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt { .. })
        ));

        let bytes = restamped(sample_checkpoint().to_bytes(), 99);
        assert_eq!(
            SimCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::VersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn fingerprint_separates_configs_engines_versions_and_biases() {
        let a = config_fingerprint(&base(), "des", BiasPolicy::None);
        assert_eq!(
            a,
            config_fingerprint(&base(), "des", BiasPolicy::None),
            "not deterministic"
        );
        assert_ne!(a, config_fingerprint(&base(), "timeline", BiasPolicy::None));
        let mut cfg = base();
        cfg.drives = 9;
        assert_ne!(a, config_fingerprint(&cfg, "des", BiasPolicy::None));
        // A sub-percent parameter nudge still changes the fingerprint.
        let mut cfg = base();
        cfg.mission_hours += 1.0;
        assert_ne!(a, config_fingerprint(&cfg, "des", BiasPolicy::None));
        // The sampling measure is part of the run identity…
        let tilt = BiasPolicy::HazardTilt {
            op_theta: 1.5,
            latent_theta: 0.0,
        };
        assert_ne!(a, config_fingerprint(&base(), "des", tilt));
        let other_tilt = BiasPolicy::HazardTilt {
            op_theta: 1.5,
            latent_theta: 0.1,
        };
        assert_ne!(
            config_fingerprint(&base(), "des", tilt),
            config_fingerprint(&base(), "des", other_tilt)
        );
    }

    #[test]
    fn older_format_shards_are_refused_by_merge() {
        // Formats 1 and 2 counted latent events over the whole mission,
        // so their images no longer load…
        let shard = SimCheckpoint {
            driver: DriverState::fixed(60, 20, 9),
            ..sample_checkpoint()
        };
        for version in [1, 2] {
            assert_eq!(
                SimCheckpoint::from_bytes(&restamped(shard.to_bytes(), version)),
                Err(CheckpointError::VersionMismatch {
                    found: version,
                    expected: FORMAT_VERSION
                })
            );
        }
        assert!(merge_shards(vec![shard.clone()]).is_ok());
        // …and a snapshot that claims such a version is no shard to
        // merge, wherever it sits in the list.
        let old = SimCheckpoint {
            format_version: 2,
            ..shard.clone()
        };
        for shards in [vec![old.clone()], vec![shard, old]] {
            assert_eq!(
                merge_shards(shards),
                Err(CheckpointError::VersionMismatch {
                    found: 2,
                    expected: FORMAT_VERSION
                })
            );
        }
    }

    #[test]
    fn validate_for_names_the_mismatch() {
        let ckpt = sample_checkpoint();
        let mut driver = ckpt.driver;
        assert!(ckpt.validate_for(ckpt.fingerprint, &driver).is_ok());

        assert!(matches!(
            ckpt.validate_for(ckpt.fingerprint ^ 1, &driver),
            Err(CheckpointError::ConfigMismatch {
                field: "config",
                ..
            })
        ));
        driver.seed = 10;
        assert!(matches!(
            ckpt.validate_for(ckpt.fingerprint, &driver),
            Err(CheckpointError::ConfigMismatch { field: "seed", .. })
        ));
        driver = ckpt.driver;
        driver.batch = 64;
        assert!(matches!(
            ckpt.validate_for(ckpt.fingerprint, &driver),
            Err(CheckpointError::ConfigMismatch { field: "batch", .. })
        ));
        driver = ckpt.driver;
        driver.precision_mode = false;
        assert!(matches!(
            ckpt.validate_for(ckpt.fingerprint, &driver),
            Err(CheckpointError::ConfigMismatch { field: "mode", .. })
        ));
    }

    /// Snapshots of one run's growing completed prefix, as the driver
    /// writes them.
    fn snapshot_run() -> Vec<SimCheckpoint> {
        let sim = Simulator::new(base());
        let template = sample_checkpoint();
        (1..=5)
            .map(|k| SimCheckpoint {
                stats: sim.run_streaming(10 * k, 9, 1),
                ..template.clone()
            })
            .collect()
    }

    /// The journal after `snaps[0]` created it and each later snapshot
    /// was written to its slot in place.
    fn journal_of(snaps: &[SimCheckpoint]) -> (Journal, Vec<u8>) {
        let (mut journal, mut file) = Journal::create(&snaps[0].to_bytes());
        for snap in &snaps[1..] {
            let (offset, slot) = journal.next_write(&snap.to_bytes()).unwrap();
            let at = offset as usize;
            file[at..at + slot.len()].copy_from_slice(&slot);
            journal.committed();
        }
        (journal, file)
    }

    #[test]
    fn journal_slots_are_page_aligned_and_read_back_the_newest() {
        let snaps = snapshot_run();
        for n in 1..=snaps.len() {
            let (journal, file) = journal_of(&snaps[..n]);
            assert_eq!(journal.capacity % PAGE, 0);
            assert_eq!(file.len(), PAGE + 2 * journal.capacity);
            assert_eq!(SimCheckpoint::from_bytes(&file).unwrap(), snaps[n - 1]);
        }
    }

    #[test]
    fn torn_slot_writes_fall_back_to_the_previous_snapshot() {
        let snaps = snapshot_run();
        for j in 1..snaps.len() {
            let (journal, file) = journal_of(&snaps[..j]);
            let (offset, slot) = journal.next_write(&snaps[j].to_bytes()).unwrap();
            let at = offset as usize;
            for tear in (0..slot.len()).step_by(512) {
                let mut torn = file.clone();
                torn[at..at + tear].copy_from_slice(&slot[..tear]);
                assert_eq!(
                    SimCheckpoint::from_bytes(&torn).unwrap(),
                    snaps[j - 1],
                    "write of snapshot {j} torn after {tear} bytes"
                );
            }
        }
    }

    #[test]
    fn one_intact_slot_is_enough_and_none_is_corrupt() {
        let snaps = snapshot_run();
        for j in 1..snaps.len() {
            let (journal, file) = journal_of(&snaps[..=j]);
            let cap = journal.capacity;
            let (newest, older) = (PAGE + (j % 2) * cap, PAGE + ((j - 1) % 2) * cap);
            for pos in (0..cap).step_by(509).chain([cap - 1]) {
                let flip = |slots: &[usize]| {
                    let mut bad = file.clone();
                    for slot in slots {
                        bad[slot + pos] ^= 0x40;
                    }
                    SimCheckpoint::from_bytes(&bad)
                };
                assert_eq!(flip(&[newest]).unwrap(), snaps[j - 1], "{j}: newest, {pos}");
                assert_eq!(flip(&[older]).unwrap(), snaps[j], "{j}: older, {pos}");
                assert!(
                    matches!(flip(&[newest, older]), Err(CheckpointError::Corrupt { .. })),
                    "{j}: both slots flipped at {pos}"
                );
            }
        }
    }

    #[test]
    fn journal_header_damage_and_truncation_are_typed() {
        let (_, file) = journal_of(&snapshot_run()[..2]);
        for i in 0..28 {
            let mut bad = file.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(
                    SimCheckpoint::from_bytes(&bad),
                    Err(CheckpointError::Corrupt { .. })
                ),
                "header flip at byte {i}"
            );
        }
        for len in (0..file.len()).step_by(1021) {
            assert!(
                matches!(
                    SimCheckpoint::from_bytes(&file[..len]),
                    Err(CheckpointError::Corrupt { .. })
                ),
                "{len}-byte prefix"
            );
        }
        let mut future = file.clone();
        future[8..12].copy_from_slice(&7u32.to_le_bytes());
        let mut hash = Fnv1a::new();
        hash.write(&future[..20]);
        let sum = hash.finish();
        future[20..28].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SimCheckpoint::from_bytes(&future),
            Err(CheckpointError::VersionMismatch {
                found: 7,
                expected: JOURNAL_VERSION
            })
        );
    }

    #[test]
    fn an_image_larger_than_a_slot_asks_for_a_new_journal() {
        let (journal, _) = Journal::create(&[0; 100]);
        assert_eq!(journal.capacity, PAGE);
        assert!(journal.next_write(&[0; PAGE - SLOT_FRAMING]).is_some());
        assert!(journal.next_write(&[0; PAGE - SLOT_FRAMING + 1]).is_none());
    }

    #[test]
    fn unwritable_directory_is_an_io_error() {
        let ckpt = sample_checkpoint();
        let path = Path::new("/nonexistent-raidsim-dir/run.ckpt");
        assert!(matches!(ckpt.save(path), Err(CheckpointError::Io { .. })));
        assert!(matches!(
            SimCheckpoint::load(path),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vector: "foobar" -> 0x85944171f73967e8.
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
