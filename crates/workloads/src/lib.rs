//! Workload and field-data synthesis for `raidsim`.
//!
//! The paper's evidence base is proprietary NetApp field data
//! (>120,000 drives). This crate builds the *statistically equivalent*
//! synthetic substitute: populations drawn from the published
//! distributions, observed through the same censoring windows, ready to
//! be re-fitted by `raidsim_dists::fit` — which is exactly what the
//! Figure 1 / Figure 2 reproductions do (see DESIGN.md §5 for the
//! substitution argument).
//!
//! * [`fieldgen`] — population generators with observation-window
//!   censoring and staggered service entry, plus the three Figure 1
//!   population shapes (pure Weibull, competing-risk upturn,
//!   mixture + competing risks).
//! * [`vintage_gen`] — populations matching the Figure 2 vintages.
//! * [`scrub_schedule`] — the periodic fleet-scrub alternative to the
//!   paper's per-defect exposure clock (the scrub-semantics ablation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fieldgen;
pub mod scrub_schedule;
pub mod vintage_gen;
