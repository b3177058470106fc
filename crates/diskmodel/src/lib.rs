//! `diskmodel` — the electro-mechanical model of a hard disk drive.
//!
//! This crate is the pure, stateless heart of the simulator: given a
//! drive's parameters it answers *how long* and *how much power* any
//! mechanical action takes. It contains no queuing or scheduling — that
//! lives in the `intradisk` crate.
//!
//! # Modules
//!
//! * [`params`] — drive parameter sets with a builder and validation.
//! * [`presets`] — calibrated parameter sets for every drive the paper
//!   discusses (Seagate Barracuda ES, the Table 2 array drives, and the
//!   three historical drives of Table 1), plus RPM-variant helpers.
//! * [`geometry`] — zoned-bit-recording layout and the LBA → physical
//!   location mapping (cylinder, surface, rotational angle).
//! * [`seek`] — the two-regime seek-time curve.
//! * [`rotation`] — rotational position as a pure function of time.
//! * [`power`] — the spindle/VCM/channel power scaling laws of the
//!   paper's Section 3 and the per-mode power levels used by Figures 3
//!   and 6.
//! * [`cost`] — the component cost model of Table 9a and the
//!   iso-performance cost comparison of Figure 9b.
//! * [`thermal`] — a lumped RC enclosure model quantifying the paper's
//!   "RPMs are not going to increase" argument.
//!
//! # Example
//!
//! ```
//! use diskmodel::presets;
//!
//! let drive = presets::barracuda_es_750gb();
//! assert_eq!(drive.rpm(), 7200);
//! // A full revolution at 7200 RPM takes 8.33 ms.
//! assert!((drive.rotation_period().as_millis() - 8.333).abs() < 0.01);
//! ```

// Determinism and robustness lints for simulator state (DESIGN.md §6),
// gated by `cargo clippy -- -D warnings` in scripts/verify.sh. They sit
// here rather than under `[lints]` because every crate inherits
// `[lints] workspace = true`, which cargo cannot mix with per-crate
// entries. `float_cmp` is off under `cfg(test)`, where comparing a
// pinned result bit for bit is the point.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::wildcard_enum_match_arm
)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod cost;
pub mod error;
pub mod geometry;
pub mod params;
pub mod power;
pub mod presets;
pub mod rotation;
pub mod seek;
pub mod thermal;

pub use error::{DiskModelError, DriveError};
pub use geometry::{Geometry, PhysLoc, TrackSegment, Zone};
pub use params::{DiskParams, DiskParamsBuilder};
pub use power::PowerModel;
pub use rotation::RotationModel;
pub use seek::SeekProfile;
pub use thermal::ThermalModel;
