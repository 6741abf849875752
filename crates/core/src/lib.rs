//! Core of `raidsim`: the Elerath–Pecht NHPP latent-defect RAID
//! reliability model (DSN 2007).
//!
//! The paper replaces the classic MTTDL closed form — which assumes
//! constant failure and repair rates and ignores latent defects — with a
//! **sequential Monte Carlo simulation** of each RAID group. Every drive
//! slot carries two independent renewal processes:
//!
//! * an **operational** process alternating up (time-to-operational-
//!   failure, `TTOp`) and down (time-to-restore, `TTR`) periods, and
//! * a **latent-defect** process alternating clean (time-to-latent-
//!   defect, `TTLd`) and defective (time-to-scrub, `TTScrub`) periods.
//!
//! A double-disk failure (DDF) occurs when an operational failure strikes
//! while another drive is either down (two simultaneous operational
//! failures) or carrying an uncorrected latent defect (the reverse order
//! — defect created *during* a reconstruction — is explicitly not a DDF,
//! paper Section 4.2).
//!
//! # Layout
//!
//! * [`config`] — RAID group configuration and the paper's Table 2
//!   parameter sets.
//! * [`engine`] — two interchangeable simulation engines: a
//!   discrete-event engine and the paper's Figure 5 pairwise-timeline
//!   procedure, cross-validated against each other.
//! * [`run`] — the batch runner: thousands of independent group
//!   histories, optionally across threads, deterministically seeded.
//! * [`stats`] — bounded-memory streaming aggregation: a mergeable,
//!   exact-integer accumulator and progress observability for
//!   fleet-scale runs that cannot afford to retain every history.
//! * [`checkpoint`] — crash-safe snapshot/resume for long runs:
//!   versioned, checksummed on-disk state with bit-identical
//!   continuation.
//! * [`store`] — pluggable checkpoint I/O ([`store::SnapshotStore`]):
//!   the production fsync+rename path, an in-memory store, and a
//!   seeded deterministic fault injector ([`store::FaultStore`]) with
//!   the bounded retry policy the drivers use under hostile I/O.
//! * [`sync_model`] — the worker pool's synchronization protocol as
//!   pure transitions behind a [`sync_model::SyncOps`] seam, plus an
//!   exhaustive interleaving checker that proves the epoch handshake
//!   (no lost wakeup, no double-claim, exact-prefix watermark) in
//!   every schedule of bounded scenarios.
//! * [`mttdl`] — the closed forms the paper argues against
//!   (equations 1–3), kept as the comparison baseline.
//! * [`markov`] — a small continuous-time Markov chain transient solver;
//!   in the constant-rate limit the Monte Carlo, the Markov model and
//!   MTTDL must all agree, which the test suite verifies.
//! * [`events`] — DDF event records and per-group histories.
//!
//! # Example
//!
//! ```
//! use raidsim_core::config::RaidGroupConfig;
//! use raidsim_core::run::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's base case: 8 drives, 10-year mission, latent defects,
//! // 168-hour scrub.
//! let cfg = RaidGroupConfig::paper_base_case()?;
//! let result = Simulator::new(cfg).run_parallel(200, 42, 1);
//! // The base case sees roughly an order of magnitude more DDFs than
//! // the MTTDL prediction of ~0.27 per 1000 groups.
//! let per_1000 = result.ddfs_per_thousand_groups();
//! assert!(per_1000 > 10.0, "got {per_1000}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod closed_form;
pub mod config;
pub mod engine;
pub mod events;
pub mod markov;
pub mod mttdl;
pub mod run;
pub mod stats;
pub mod store;
pub mod sweep;
pub mod sync_model;

mod pool;

mod error;

pub use error::CoreError;
