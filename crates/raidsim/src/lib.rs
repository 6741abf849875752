//! `raidsim` — a reproduction of Elerath & Pecht, *"Enhanced Reliability
//! Modeling of RAID Storage Systems"* (DSN 2007).
//!
//! RAID reliability is traditionally summarized by a *mean time to data
//! loss* (MTTDL) computed from constant failure and repair rates. The
//! paper shows with large field populations that drive failure rates are
//! not constant, restorations have hard physical minimum times, and —
//! most importantly — drives silently accumulate *latent defects*
//! (undetected data corruption) that turn a single later drive failure
//! into data loss. Its replacement is a sequential Monte Carlo model
//! over four Weibull-distributed transitions; this crate is a complete,
//! tested implementation of that model and of everything needed to
//! regenerate the paper's tables and figures.
//!
//! # Quick start
//!
//! ```
//! use raidsim::config::RaidGroupConfig;
//! use raidsim::run::Simulator;
//! use raidsim::mttdl;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's base case: 8 drives, 10-year mission, latent defects,
//! // one-week scrub.
//! let cfg = RaidGroupConfig::paper_base_case()?;
//! let result = Simulator::new(cfg).run_parallel(500, 42, 1);
//!
//! // What the classic closed form would have told you:
//! let predicted = mttdl::equation3_example().expected_ddfs; // ~0.28 / 1000 groups
//!
//! // What the model actually measures (hundreds of times more):
//! let measured = result.ddfs_per_thousand_groups();
//! assert!(measured > 20.0 * predicted);
//! # Ok(())
//! # }
//! ```
//!
//! # Crate map
//!
//! This facade re-exports the workspace crates:
//!
//! * [`dists`] — three-parameter Weibull, mixtures, competing risks,
//!   censored fitting ([`raidsim_dists`]).
//! * [`hdd`] — drive/bus parameters, drive catalog, read-error-rate,
//!   restore-time and scrub-pass models ([`raidsim_hdd`]).
//! * [`config`], [`engine`], [`run`], [`stats`], [`checkpoint`],
//!   [`store`], [`sweep`], [`sync_model`], [`mttdl`], [`markov`],
//!   [`closed_form`], [`events`] — the core model ([`raidsim_core`]).
//! * [`analysis`] — mean cumulative functions, ROCOF, intervals
//!   ([`raidsim_analysis`]).
//! * [`workloads`] — synthetic field populations and the periodic
//!   scrub pass ([`raidsim_workloads`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use raidsim_analysis as analysis;
pub use raidsim_dists as dists;
pub use raidsim_hdd as hdd;
pub use raidsim_workloads as workloads;

pub use raidsim_core::{
    checkpoint, closed_form, config, engine, events, markov, mttdl, run, stats, store, sweep,
    sync_model, CoreError,
};

/// The paper's four base-case transition distributions and standard
/// mission constants, re-exported at the top level for convenience.
pub use raidsim_core::config::params;
