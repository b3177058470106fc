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
//! different [`intradisk::DriveConfig`]s.
//!
//! # Example
//!
//! ```
//! use array::{ArrayController, Layout};
//! use diskmodel::presets;
//! use intradisk::{DriveConfig, IoKind, IoRequest};
//! use simkit::SimTime;
//!
//! let params = presets::array_drive_10k_19gb();
//! let mut array = ArrayController::new(&params, DriveConfig::conventional(), 4,
//!                                      Layout::striped_default());
//! let req = IoRequest::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
//! let started = array.submit(req, SimTime::ZERO).expect("submitted at arrival");
//! assert_eq!(started.len(), 1); // one idle disk began service
//! ```

pub mod controller;
pub mod counters;
pub mod layout;

pub use controller::{
    ArrayController, ArrayMetrics, ArrayRunResult, DiskCompletion, LogicalCompletion,
};
pub use layout::{Layout, MappedRequest, Phase, SubRequest};
