//! Pluggable checkpoint I/O with deterministic fault injection.
//!
//! The paper's argument is that real systems fail in correlated, messy
//! ways that idealized models miss — and the simulator's own host is no
//! exception. Long runs hit full disks, interrupted syscalls, failed
//! fsyncs, and torn renames, and a checkpoint layer that has never
//! executed those paths under test will corrupt or lose state exactly
//! when it matters. This module splits checkpoint persistence into a
//! small [`SnapshotStore`] trait with three implementations:
//!
//! * [`FsStore`] — the production path: write to a sibling temp file,
//!   fsync, rename over the target, best-effort directory sync. A crash
//!   mid-write leaves either the old snapshot or the new one, never a
//!   torn file. Its in-place `write_at` (open, seek, write,
//!   `sync_data`) serves the checkpoint journal's slot writes.
//! * [`MemStore`] — an in-memory map, used by tests and by callers that
//!   want snapshot semantics without a filesystem.
//! * [`FaultStore`] — a decorator that injects a **deterministic,
//!   replayable schedule of faults** ([`FaultPlan`]) in front of any
//!   inner store. Every store operation consumes one operation index;
//!   the plan maps indices to [`FaultKind`]s, so a failure sequence
//!   reproduces exactly from its plan (or from the seed that generated
//!   it) — the property the torture harness (`cargo xtask torture`,
//!   `tests/fault_injection.rs`) relies on to sweep every fault at
//!   every operation index.
//!
//! Faults are classified **transient** (retry may succeed: `EINTR`,
//! short write, fsync hiccup) or **persistent** (retry is pointless:
//! `ENOSPC`, torn destination) via [`CheckpointError::transient`]. The
//! retry layer ([`RetryBackoff`], [`AttemptBudget`]) retries only
//! transient failures under a bounded, clock-free attempt budget; the
//! CLI wraps it with wall-clock sleeps and a deadline (the core stays
//! clock-free per the determinism lint). What happens after the budget
//! is exhausted — degrade cadence or abort — is the driver's decision
//! (see [`crate::run`]).

use crate::checkpoint::CheckpointError;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// Abstract checkpoint I/O: one atomic snapshot write, one in-place
/// write, one full read.
///
/// `write` must be atomic with respect to crashes of the *caller*: on
/// `Ok(())` the snapshot at `path` is durably the given bytes; on
/// `Err(_)` the previous snapshot (if any) must still be intact unless
/// the error says otherwise (a torn destination reports a persistent
/// error and is caught by the checkpoint checksum on load).
///
/// `write_at` is *not* atomic: a crash or failure may leave the range
/// it covers torn. The checkpoint journal uses it only on a slot that
/// does not hold the newest durable snapshot, and only on ranges its
/// slot checksum covers (see [`crate::checkpoint`]).
pub trait SnapshotStore {
    /// Atomically replaces the snapshot at `path` with `bytes`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] describing the failed operation;
    /// [`CheckpointError::transient`] tells the retry layer whether
    /// another attempt could succeed.
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// Overwrites the existing snapshot at `path` with `bytes` starting
    /// at byte `offset`, then makes the written data durable.
    ///
    /// # Errors
    ///
    /// As [`SnapshotStore::write`]; also when nothing is stored at
    /// `path` yet.
    fn write_at(&mut self, path: &Path, offset: u64, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// Reads the entire snapshot at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the snapshot cannot be read.
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, CheckpointError>;
}

/// Maps an OS error to a typed, classified [`CheckpointError::Io`].
///
/// Interrupted / would-block / timed-out are the retryable kinds; all
/// other OS errors (no space, permission, missing directory, I/O
/// errors) are persistent — retrying without operator intervention
/// cannot help.
pub fn classify_io(path: &Path, e: &std::io::Error) -> CheckpointError {
    use std::io::ErrorKind;
    CheckpointError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
        transient: matches!(
            e.kind(),
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
        ),
    }
}

/// The production filesystem store: temp file + fsync + atomic rename
/// for whole snapshots, open + seek + write + `sync_data` in place.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsStore;

/// Writes `bytes` to the fresh file `tmp`, syncs it, and renames it over
/// `path`.
fn replace_via(tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut file = std::fs::File::create(tmp).map_err(|e| classify_io(tmp, &e))?;
    file.write_all(bytes).map_err(|e| classify_io(tmp, &e))?;
    file.sync_all().map_err(|e| classify_io(tmp, &e))?;
    drop(file);
    std::fs::rename(tmp, path).map_err(|e| classify_io(path, &e))
}

impl SnapshotStore for FsStore {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        if let Err(error) = replace_via(&tmp, path, bytes) {
            // A leftover temp file would hold the space the write may
            // have run out of; the write's own error is what matters.
            let _ = std::fs::remove_file(&tmp);
            return Err(error);
        }
        // Durability of the rename itself needs the directory synced;
        // best-effort, since not every platform allows opening one.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    fn write_at(&mut self, path: &Path, offset: u64, bytes: &[u8]) -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| classify_io(path, &e);
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(io)?;
        file.seek(SeekFrom::Start(offset)).map_err(io)?;
        file.write_all(bytes).map_err(io)?;
        file.sync_data().map_err(io)
    }

    fn read(&mut self, path: &Path) -> Result<Vec<u8>, CheckpointError> {
        std::fs::read(path).map_err(|e| classify_io(path, &e))
    }
}

/// An in-memory snapshot store: writes are trivially atomic, reads
/// return the last written image. Keyed by the path's display string.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the stored image for `path`, if any.
    pub fn get(&self, path: &Path) -> Option<&[u8]> {
        self.files
            .get(&path.display().to_string())
            .map(Vec::as_slice)
    }

    fn missing(path: &Path) -> CheckpointError {
        CheckpointError::Io {
            path: path.display().to_string(),
            reason: "no snapshot stored at this path".to_string(),
            transient: false,
        }
    }
}

impl SnapshotStore for MemStore {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.files
            .insert(path.display().to_string(), bytes.to_vec());
        Ok(())
    }

    /// Patches the stored image, zero-extending it as a file would be
    /// when the range ends past its end.
    fn write_at(&mut self, path: &Path, offset: u64, bytes: &[u8]) -> Result<(), CheckpointError> {
        let image = self
            .files
            .get_mut(&path.display().to_string())
            .ok_or_else(|| Self::missing(path))?;
        let range = usize::try_from(offset)
            .ok()
            .and_then(|start| Some(start..start.checked_add(bytes.len())?))
            .ok_or_else(|| CheckpointError::Io {
                path: path.display().to_string(),
                reason: format!("offset {offset} is beyond the address space"),
                transient: false,
            })?;
        if image.len() < range.end {
            image.resize(range.end, 0);
        }
        image[range].copy_from_slice(bytes);
        Ok(())
    }

    fn read(&mut self, path: &Path) -> Result<Vec<u8>, CheckpointError> {
        self.files
            .get(&path.display().to_string())
            .cloned()
            .ok_or_else(|| Self::missing(path))
    }
}

/// One injectable storage fault. The taxonomy follows the failure modes
/// a checkpoint writer actually meets (DESIGN.md §17): each kind states
/// what the caller observes *and* what state the fault leaves behind,
/// for an atomic [`SnapshotStore::write`] and for an in-place
/// [`SnapshotStore::write_at`] (a journal slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC`: the write fails persistently; the destination is
    /// untouched (the temp file never replaced it; no slot byte is
    /// written).
    Enospc,
    /// `EINTR`: the operation fails transiently; a retry may succeed.
    /// Nothing is written.
    Eintr,
    /// Short write, transient. Atomic: the temp file is torn but the
    /// rename never happens, so the destination is untouched. In
    /// place: the first half of the range is written, tearing the slot.
    PartialWrite,
    /// `fsync` failure: data may not be durable; the write is reported
    /// failed (transient). Atomic: a fresh temp file is retried from
    /// scratch and the destination is untouched. In place: the range is
    /// written in full, with its durability unknown.
    FsyncFail,
    /// Torn destination, persistent. Atomic: the destination ends up
    /// with a truncated image. In place: the first half of the range is
    /// written, tearing the slot. Either way the torn bytes are
    /// *detectable* — the checkpoint checksums refuse them on load — so
    /// this exercises the "never resume from a torn file" property.
    TornRename,
    /// Read corruption: the read "succeeds" but one byte is flipped,
    /// exercising checksum validation downstream. Ignored on writes.
    ReadCorruption,
    /// Latency stall: the operation succeeds after invoking the stall
    /// hook (the CLI sleeps; core tests count). Exercises interruption
    /// and watchdog paths without failing the operation.
    Stall {
        /// Stall duration passed to the hook, in milliseconds.
        millis: u64,
    },
}

impl FaultKind {
    /// Parses a fault name as used in plan specs: `enospc`, `eintr`,
    /// `partial`, `fsync`, `torn`, `corrupt`, or `stall<MILLIS>`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "enospc" => Ok(FaultKind::Enospc),
            "eintr" => Ok(FaultKind::Eintr),
            "partial" => Ok(FaultKind::PartialWrite),
            "fsync" => Ok(FaultKind::FsyncFail),
            "torn" => Ok(FaultKind::TornRename),
            "corrupt" => Ok(FaultKind::ReadCorruption),
            _ => match name.strip_prefix("stall") {
                Some(ms) => match ms.parse::<u64>() {
                    Ok(millis) => Ok(FaultKind::Stall { millis }),
                    Err(_) => Err(format!("bad stall duration in fault kind `{name}`")),
                },
                None => Err(format!(
                    "unknown fault kind `{name}` (expected enospc, eintr, partial, fsync, \
                     torn, corrupt, or stall<MILLIS>)"
                )),
            },
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Enospc => write!(f, "enospc"),
            FaultKind::Eintr => write!(f, "eintr"),
            FaultKind::PartialWrite => write!(f, "partial"),
            FaultKind::FsyncFail => write!(f, "fsync"),
            FaultKind::TornRename => write!(f, "torn"),
            FaultKind::ReadCorruption => write!(f, "corrupt"),
            FaultKind::Stall { millis } => write!(f, "stall{millis}"),
        }
    }
}

/// A reproducible schedule of injected faults, keyed by the decorated
/// store's operation index (each `write`, `write_at` or `read` attempt
/// consumes one index, so "the third store operation fails" means the same thing on
/// every replay).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// One-shot faults at specific operation indices.
    entries: BTreeMap<u64, FaultKind>,
    /// Sticky fault: every operation at or beyond this index faults —
    /// models a disk that fails and stays failed (e.g. `ENOSPC`).
    sticky: Option<(u64, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan: no faults; the decorated store is transparent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a one-shot fault at operation index `op` (builder style).
    #[must_use]
    pub fn at(mut self, op: u64, kind: FaultKind) -> Self {
        self.entries.insert(op, kind);
        self
    }

    /// Makes every operation at or beyond `op` fail with `kind`
    /// (builder style). One-shot entries below `op` still apply.
    #[must_use]
    pub fn from_op(mut self, op: u64, kind: FaultKind) -> Self {
        self.sticky = Some((op, kind));
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.sticky.is_none()
    }

    /// The fault (if any) scheduled for operation index `op`. Sticky
    /// faults take precedence over one-shot entries at the same index.
    pub fn fault_for(&self, op: u64) -> Option<FaultKind> {
        if let Some((from, kind)) = self.sticky {
            if op >= from {
                return Some(kind);
            }
        }
        self.entries.get(&op).copied()
    }

    /// Derives a pseudo-random plan from a seed: over operation indices
    /// `[0, horizon)`, roughly one in `density` operations gets a fault
    /// whose kind is also seed-derived (stalls are excluded — seeded
    /// plans stay wall-clock-free so they can run anywhere, including
    /// the clock-free core tests). The same `(seed, horizon, density)`
    /// always yields the same plan, so any failure sequence found by a
    /// randomized sweep is replayable from its seed alone.
    pub fn seeded(seed: u64, horizon: u64, density: u64) -> Self {
        let density = density.max(1);
        let mut plan = FaultPlan::new();
        for op in 0..horizon {
            let h = splitmix64(seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if h.is_multiple_of(density) {
                let kind = match (h >> 32) % 6 {
                    0 => FaultKind::Enospc,
                    1 => FaultKind::Eintr,
                    2 => FaultKind::PartialWrite,
                    3 => FaultKind::FsyncFail,
                    4 => FaultKind::TornRename,
                    _ => FaultKind::ReadCorruption,
                };
                plan.entries.insert(op, kind);
            }
        }
        plan
    }

    /// Parses a plan spec: comma-separated `OP:KIND` (one-shot) or
    /// `OP+:KIND` (sticky from `OP` onward) entries, e.g.
    /// `2:eintr,5:partial,8+:enospc` or `4:stall2000`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (op_part, kind_part) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry `{entry}` is missing `:` (OP:KIND)"))?;
            let kind = FaultKind::parse(kind_part.trim())?;
            let op_part = op_part.trim();
            if let Some(op) = op_part.strip_suffix('+') {
                let op = op
                    .parse::<u64>()
                    .map_err(|_| format!("bad operation index in fault entry `{entry}`"))?;
                plan.sticky = Some((op, kind));
            } else {
                let op = op_part
                    .parse::<u64>()
                    .map_err(|_| format!("bad operation index in fault entry `{entry}`"))?;
                plan.entries.insert(op, kind);
            }
        }
        Ok(plan)
    }
}

/// SplitMix64 finalizer — the same bijective mixer the RNG stream
/// factory uses, inlined here for plain integer hashing (no generator
/// is constructed; seeded plans are hashes, not RNG draws).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fault the [`FaultStore`] actually injected, for post-run forensics
/// ("which operation failed, and how") in tests and the torture report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Operation index the fault fired at.
    pub op: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// Whether the faulted operation was a write or a read.
    pub write: bool,
}

/// Decorates any [`SnapshotStore`] with a deterministic fault schedule.
///
/// Each `write`/`write_at`/`read` *attempt* consumes one operation index — a retry
/// is the next operation and may therefore succeed, which is exactly
/// how transient faults behave in the wild and what the retry layer's
/// tests rely on.
pub struct FaultStore<S> {
    inner: S,
    plan: FaultPlan,
    op: u64,
    log: Vec<InjectedFault>,
    stall: Option<Box<dyn FnMut(u64) + Send>>,
}

impl<S: fmt::Debug> fmt::Debug for FaultStore<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultStore")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .field("op", &self.op)
            .field("log", &self.log)
            .field("stall", &self.stall.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl<S: SnapshotStore> FaultStore<S> {
    /// Wraps `inner`, injecting faults according to `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultStore {
            inner,
            plan,
            op: 0,
            log: Vec::new(),
            stall: None,
        }
    }

    /// Installs the hook invoked (with the stall's milliseconds) when a
    /// [`FaultKind::Stall`] fires. The core never sleeps — the CLI
    /// installs a real sleep here; core tests install a counter.
    #[must_use]
    pub fn with_stall_hook(mut self, hook: Box<dyn FnMut(u64) + Send>) -> Self {
        self.stall = Some(hook);
        self
    }

    /// The faults injected so far, in operation order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.log
    }

    /// Number of store operations attempted so far (the next index).
    pub fn operations(&self) -> u64 {
        self.op
    }

    /// Consumes the decorator, returning the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn next_op(&mut self) -> (u64, Option<FaultKind>) {
        let op = self.op;
        self.op += 1;
        (op, self.plan.fault_for(op))
    }

    fn injected_err(path: &Path, kind: FaultKind, in_place: bool) -> CheckpointError {
        let (reason, transient) = match (kind, in_place) {
            (FaultKind::Enospc, _) => ("injected: no space left on device (ENOSPC)", false),
            (FaultKind::Eintr, _) => ("injected: interrupted system call (EINTR)", true),
            (FaultKind::PartialWrite, false) => ("injected: short write, temp file torn", true),
            (FaultKind::PartialWrite, true) => ("injected: short write, slot torn", true),
            (FaultKind::FsyncFail, _) => ("injected: fsync failed, durability unknown", true),
            (FaultKind::TornRename, false) => ("injected: rename torn, destination corrupt", false),
            (FaultKind::TornRename, true) => ("injected: write torn, slot corrupt", false),
            // Corruption and stalls do not produce errors.
            (FaultKind::ReadCorruption | FaultKind::Stall { .. }, _) => unreachable!(),
        };
        CheckpointError::Io {
            path: path.display().to_string(),
            reason: reason.to_string(),
            transient,
        }
    }

    /// One write operation, atomic (`in_place == false`) or in place,
    /// with `put` performing it on the inner store. Leaves behind what
    /// the scheduled fault's [`FaultKind`] documents.
    fn faulted_write(
        &mut self,
        path: &Path,
        bytes: &[u8],
        in_place: bool,
        mut put: impl FnMut(&mut S, &[u8]) -> Result<(), CheckpointError>,
    ) -> Result<(), CheckpointError> {
        let (op, fault) = self.next_op();
        let kind = match fault {
            // Read-only fault: transparent on the write path.
            None | Some(FaultKind::ReadCorruption) => return put(&mut self.inner, bytes),
            Some(kind) => kind,
        };
        self.log.push(InjectedFault {
            op,
            kind,
            write: true,
        });
        let torn = &bytes[..bytes.len() / 2];
        let left_behind = match kind {
            FaultKind::Stall { millis } => {
                if let Some(hook) = self.stall.as_mut() {
                    hook(millis);
                }
                return put(&mut self.inner, bytes);
            }
            // The destination really is torn — the checkpoint checksums
            // must catch it on load.
            FaultKind::TornRename => Some(torn),
            FaultKind::PartialWrite if in_place => Some(torn),
            FaultKind::FsyncFail if in_place => Some(bytes),
            _ => None,
        };
        if let Some(written) = left_behind {
            put(&mut self.inner, written)?;
        }
        Err(Self::injected_err(path, kind, in_place))
    }
}

impl<S: SnapshotStore> SnapshotStore for FaultStore<S> {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.faulted_write(path, bytes, false, |inner, b| inner.write(path, b))
    }

    fn write_at(&mut self, path: &Path, offset: u64, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.faulted_write(path, bytes, true, |inner, b| {
            inner.write_at(path, offset, b)
        })
    }

    fn read(&mut self, path: &Path) -> Result<Vec<u8>, CheckpointError> {
        let (op, fault) = self.next_op();
        match fault {
            Some(FaultKind::Eintr) => {
                self.log.push(InjectedFault {
                    op,
                    kind: FaultKind::Eintr,
                    write: false,
                });
                Err(CheckpointError::Io {
                    path: path.display().to_string(),
                    reason: "injected: interrupted system call (EINTR)".to_string(),
                    transient: true,
                })
            }
            Some(FaultKind::ReadCorruption) => {
                self.log.push(InjectedFault {
                    op,
                    kind: FaultKind::ReadCorruption,
                    write: false,
                });
                let mut bytes = self.inner.read(path)?;
                if !bytes.is_empty() {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0xff;
                }
                Ok(bytes)
            }
            Some(FaultKind::Stall { millis }) => {
                self.log.push(InjectedFault {
                    op,
                    kind: FaultKind::Stall { millis },
                    write: false,
                });
                if let Some(hook) = self.stall.as_mut() {
                    hook(millis);
                }
                self.inner.read(path)
            }
            // Write-only faults are transparent on the read path.
            _ => self.inner.read(path),
        }
    }
}

/// Retry policy for transient checkpoint-store failures. The driver's
/// retry loop asks for the attempt budget up front, then calls
/// [`RetryBackoff::pause`] between attempts; returning `false` aborts
/// the remaining budget (the CLI does this when its wall-clock deadline
/// passes — the core itself never reads a clock).
pub trait RetryBackoff {
    /// Maximum attempts per checkpoint write (1 = no retries).
    fn attempts(&self) -> u32;

    /// Called once when a write (with its possible retries) starts.
    fn begin(&mut self) {}

    /// Called after attempt `attempt` (1-based) failed with `error`,
    /// before the next attempt. Return `false` to stop retrying now.
    fn pause(&mut self, attempt: u32, error: &CheckpointError) -> bool {
        let _ = (attempt, error);
        true
    }
}

/// Clock-free retry policy: a fixed attempt budget, no pauses. The
/// deterministic default inside the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptBudget(pub u32);

impl RetryBackoff for AttemptBudget {
    fn attempts(&self) -> u32 {
        self.0.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p() -> PathBuf {
        PathBuf::from("snap.ckpt")
    }

    #[test]
    fn mem_store_round_trips() {
        let mut store = MemStore::new();
        store.write(&p(), b"abc").unwrap();
        assert_eq!(store.read(&p()).unwrap(), b"abc");
        store.write(&p(), b"defg").unwrap();
        assert_eq!(store.read(&p()).unwrap(), b"defg");
        let missing = store.read(Path::new("other")).unwrap_err();
        assert!(!missing.transient());
    }

    #[test]
    fn plan_spec_round_trips() {
        let plan = FaultPlan::parse("2:eintr, 5:partial,8+:enospc,4:stall2000").unwrap();
        assert_eq!(plan.fault_for(2), Some(FaultKind::Eintr));
        assert_eq!(plan.fault_for(5), Some(FaultKind::PartialWrite));
        assert_eq!(plan.fault_for(4), Some(FaultKind::Stall { millis: 2000 }));
        assert_eq!(plan.fault_for(3), None);
        assert_eq!(plan.fault_for(8), Some(FaultKind::Enospc));
        assert_eq!(plan.fault_for(900), Some(FaultKind::Enospc));
    }

    #[test]
    fn plan_spec_rejects_garbage() {
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("1:frobnicate").is_err());
        assert!(FaultPlan::parse("x:eintr").is_err());
        assert!(FaultPlan::parse("3:stallfast").is_err());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 64, 3);
        let b = FaultPlan::seeded(7, 64, 3);
        let c = FaultPlan::seeded(8, 64, 3);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ somewhere in 64 ops");
        assert!(
            !a.is_empty(),
            "density 3 over 64 ops should inject something"
        );
        // Stalls are excluded from seeded plans.
        for op in 0..64 {
            assert!(!matches!(a.fault_for(op), Some(FaultKind::Stall { .. })));
        }
    }

    #[test]
    fn transient_faults_clear_on_retry() {
        let plan = FaultPlan::new().at(0, FaultKind::Eintr);
        let mut store = FaultStore::new(MemStore::new(), plan);
        let err = store.write(&p(), b"abc").unwrap_err();
        assert!(err.transient());
        store.write(&p(), b"abc").unwrap();
        assert_eq!(store.read(&p()).unwrap(), b"abc");
        assert_eq!(store.injected().len(), 1);
    }

    #[test]
    fn enospc_is_persistent_and_preserves_destination() {
        let plan = FaultPlan::new().at(1, FaultKind::Enospc);
        let mut store = FaultStore::new(MemStore::new(), plan);
        store.write(&p(), b"old").unwrap();
        let err = store.write(&p(), b"new").unwrap_err();
        assert!(!err.transient());
        assert_eq!(store.read(&p()).unwrap(), b"old");
    }

    #[test]
    fn torn_rename_truncates_destination() {
        let plan = FaultPlan::new().at(1, FaultKind::TornRename);
        let mut store = FaultStore::new(MemStore::new(), plan);
        store.write(&p(), b"oldold").unwrap();
        let err = store.write(&p(), b"newnew").unwrap_err();
        assert!(!err.transient());
        assert_eq!(store.read(&p()).unwrap(), b"new", "half the new image");
    }

    #[test]
    fn read_corruption_flips_one_byte() {
        let plan = FaultPlan::new().at(1, FaultKind::ReadCorruption);
        let mut store = FaultStore::new(MemStore::new(), plan);
        store.write(&p(), b"abcd").unwrap();
        let corrupt = store.read(&p()).unwrap();
        assert_ne!(corrupt, b"abcd");
        assert_eq!(corrupt.len(), 4);
        assert_eq!(store.read(&p()).unwrap(), b"abcd", "one-shot fault");
    }

    #[test]
    fn stall_invokes_hook_then_succeeds() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let stalled = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&stalled);
        let plan = FaultPlan::new().at(0, FaultKind::Stall { millis: 250 });
        let mut store = FaultStore::new(MemStore::new(), plan)
            .with_stall_hook(Box::new(move |ms| sink.store(ms, Ordering::Relaxed)));
        store.write(&p(), b"abc").unwrap();
        assert_eq!(stalled.load(Ordering::Relaxed), 250);
        assert_eq!(store.read(&p()).unwrap(), b"abc");
    }

    #[test]
    fn sticky_faults_never_clear() {
        let plan = FaultPlan::new().from_op(0, FaultKind::Enospc);
        let mut store = FaultStore::new(MemStore::new(), plan);
        for _ in 0..5 {
            assert!(store.write(&p(), b"abc").is_err());
        }
        assert_eq!(store.operations(), 5);
        assert_eq!(store.injected().len(), 5);
    }

    #[test]
    fn failed_fs_write_removes_its_temp_file() {
        // The rename target is a non-empty directory, so every step up
        // to the rename succeeds and the rename itself fails.
        let dir = std::env::temp_dir().join("raidsim_store_blocked");
        let path = dir.join("blocked.ckpt");
        std::fs::create_dir_all(path.join("occupant")).unwrap();
        let err = FsStore.write(&path, b"snapshot").unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err:?}");
        assert!(
            !dir.join("blocked.ckpt.tmp").exists(),
            "temp file left behind"
        );
        assert!(path.is_dir(), "the target is untouched");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fs_write_at_overwrites_in_place() {
        let dir = std::env::temp_dir().join("raidsim_store_write_at");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal");
        FsStore.write(&path, b"aaaaaaaa").unwrap();
        FsStore.write_at(&path, 2, b"bcd").unwrap();
        assert_eq!(FsStore.read(&path).unwrap(), b"aabcdaaa");
        std::fs::remove_file(&path).ok();
        let missing = FsStore.write_at(&path, 0, b"x").unwrap_err();
        assert!(!missing.transient(), "no file to patch is persistent");
    }

    #[test]
    fn mem_write_at_patches_and_extends() {
        let mut store = MemStore::new();
        assert!(store.write_at(&p(), 0, b"x").is_err(), "nothing to patch");
        store.write(&p(), b"abcd").unwrap();
        store.write_at(&p(), 1, b"XY").unwrap();
        assert_eq!(store.get(&p()).unwrap(), b"aXYd");
        store.write_at(&p(), 6, b"Z").unwrap();
        assert_eq!(store.get(&p()).unwrap(), b"aXYd\0\0Z");
    }

    #[test]
    fn in_place_faults_leave_what_their_kind_documents() {
        let old = b"oldoldoldold";
        let new = b"NEWNEWNEWNEW";
        let cases: [(FaultKind, &[u8], bool); 5] = [
            (FaultKind::Enospc, old, false),
            (FaultKind::Eintr, old, true),
            (FaultKind::PartialWrite, b"NEWNEWoldold", true),
            (FaultKind::FsyncFail, new, true),
            (FaultKind::TornRename, b"NEWNEWoldold", false),
        ];
        for (kind, left, transient) in cases {
            let mut store = FaultStore::new(MemStore::new(), FaultPlan::new().at(1, kind));
            store.write(&p(), old).unwrap();
            let err = store.write_at(&p(), 0, new).unwrap_err();
            assert_eq!(err.transient(), transient, "{kind}");
            assert_eq!(store.read(&p()).unwrap(), left, "{kind}");
            assert_eq!(store.operations(), 3, "{kind}: each op counts once");
        }
        // Stalls and read-only faults write the range in full.
        for kind in [FaultKind::Stall { millis: 1 }, FaultKind::ReadCorruption] {
            let mut store = FaultStore::new(MemStore::new(), FaultPlan::new().at(1, kind));
            store.write(&p(), old).unwrap();
            store.write_at(&p(), 0, new).unwrap();
            assert_eq!(store.into_inner().get(&p()).unwrap(), new, "{kind}");
        }
    }

    #[test]
    fn attempt_budget_is_at_least_one() {
        assert_eq!(AttemptBudget(0).attempts(), 1);
        assert_eq!(AttemptBudget(4).attempts(), 4);
    }
}
