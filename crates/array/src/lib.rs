//! `array` — the storage-array substrate.
//!
//! Server storage systems spread a dataset over many drives, "typically
//! using RAID" (§1). This crate provides that substrate for the study:
//!
//! * [`layout`] — block layouts: RAID-0 striping, plain concatenation
//!   (the data layout the limit study assumes when migrating a
//!   multi-disk array onto one big drive), and left-symmetric RAID-5
//!   with read-modify-write parity updates.
//! * [`controller`] — an array controller that decomposes logical
//!   requests into per-disk sub-requests, tracks their completion
//!   (including the two-phase RAID-5 write), and aggregates metrics.
//!
//! Both the MD baselines (arrays of conventional drives) and the
//! arrays-of-intra-disk-parallel-drives of §7.3 are instances of
//! [`controller::ArrayController`] — the member drives just carry
//! different [`intradisk::DriveConfig`]s. The controller is an
//! [`intradisk::Device`] and steps its members as `Device`s, so an
//! array runs under the same loop ([`intradisk::simulate`]) as a lone
//! drive.
//!
//! # Example
//!
//! ```
//! use array::{ArrayController, Layout};
//! use diskmodel::presets;
//! use intradisk::{simulate, DriveConfig, IoKind, IoRequest, NullObserver};
//! use simkit::SimTime;
//! use telemetry::NullRecorder;
//!
//! let params = presets::array_drive_10k_19gb();
//! let array = ArrayController::new(&params, DriveConfig::conventional(), 4,
//!                                  Layout::raid5_default());
//! // A small write: RAID-5 reads old data and parity, then writes both.
//! let req = IoRequest::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Write);
//! let r = simulate([req], array, &mut NullRecorder, &mut NullObserver).expect("valid replay");
//! assert_eq!(r.completed, 1);
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

pub mod controller;
pub mod counters;
pub mod layout;

pub use controller::{
    ArrayController, ArrayMetrics, ArrayRunResult, DiskCompletion, LogicalCompletion,
};
pub use layout::{Layout, MappedRequest, Phase, SubRequest};
