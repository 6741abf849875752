//! Output analysis for `raidsim`.
//!
//! The paper's result figures are functions of repairable-system event
//! data, not component lifetimes:
//!
//! * Figures 6, 7 and 9 plot the **mean cumulative function** (MCF) —
//!   expected DDFs per system (scaled to 1,000 RAID groups) versus time.
//!   The paper cites Trindade & Nathan's simple plots for monitoring
//!   field reliability of repairable systems \[23\]; [`mcf`] implements
//!   that estimator with confidence bounds.
//! * Figure 8 plots the **rate of occurrence of failure** (ROCOF) — the
//!   derivative of the MCF, estimated in fixed windows by [`rocof()`].
//!   Its non-constancy is the paper's disproof of the homogeneous
//!   Poisson assumption.
//! * [`series`] formats the curves and tables the experiment reports
//!   print.
//! * [`sweep`] shapes parameter-sweep ladders (one aggregate per
//!   scenario) into ratio tables, knob-indexed series, and
//!   monotonicity checks.
//! * [`trend`] turns the "increasing ROCOF" observation into test
//!   statistics: the Laplace trend test, the MIL-HDBK-189 chi-square
//!   test, and the Crow-AMSAA power-law NHPP fit (the paper cites
//!   Crow's repairable-systems methodology \[4\]).
//! * [`svg`] renders the figure series as standalone SVG line charts so
//!   each figure of the `exp` runner can emit a plottable artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod mcf;
pub mod rocof;
pub mod series;
pub mod svg;
pub mod sweep;
pub mod trend;

pub use compare::{compare_fleets, FleetComparison};
pub use mcf::{McfEstimate, McfPoint};
pub use rocof::{rocof, RocofPoint};
pub use trend::{laplace_statistic, mil_hdbk_189_statistic, CrowAmsaa};
