//! Hard-disk-drive substrate for `raidsim`.
//!
//! The Elerath–Pecht model (DSN 2007) derives its four transition
//! distributions from *physical* drive quantities: capacities, bus and
//! media transfer rates and read-error rates per byte. This crate models
//! those quantities so the simulation parameters are grounded rather
//! than free-floating numbers:
//!
//! * [`units`] — capacity and data-rate newtypes.
//! * [`Interface`] and [`DriveSpec`] — drive and bus parameters for the
//!   drives the paper discusses (144 GB Fibre Channel, 500 GB SATA).
//! * [`rer`] — the read-error-rate model behind Table 1 and the latent
//!   defect (TTLd) distribution of Section 6.3.
//! * [`restore`] — the minimum-restore-time model of Section 6.2,
//!   reproducing the worked examples (≈3 h for a 144 GB FC drive in a
//!   group of 14; 10.4 h for a 500 GB SATA drive), and the capped
//!   restore distribution for OS-enforced reconstruction deadlines.
//! * [`scrub`] — the scrub-pass-time model of Section 6.4.
//! * [`vintage`] — the published vintage populations of Figure 2.
//!
//! # Example
//!
//! ```
//! use raidsim_hdd::{DriveSpec, Interface};
//! use raidsim_hdd::units::{Capacity, DataRate};
//!
//! # fn main() -> Result<(), raidsim_hdd::HddError> {
//! // The paper's SATA example drive (Section 6.2).
//! let drive = DriveSpec::builder("500GB-SATA")
//!     .capacity(Capacity::from_gb(500.0))
//!     .interface(Interface::SataI)
//!     .sustained_rate(DataRate::from_mb_per_s(50.0))
//!     .build()?;
//! let min_restore = raidsim_hdd::restore::minimum_restore_hours(&drive, 14);
//! assert!((min_restore - 10.4).abs() < 0.1); // the paper's 10.4 h
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod drive;
mod error;
mod interface;

pub mod catalog;
pub mod rer;
pub mod restore;
pub mod scrub;
pub mod units;
pub mod vintage;

pub use drive::{DriveSpec, DriveSpecBuilder};
pub use error::HddError;
pub use interface::Interface;
