//! `intradisk` — the paper's primary contribution: disk drives that
//! exploit parallelism in the I/O request stream.
//!
//! A conventional drive serializes every request through seek →
//! rotational latency → transfer using a single arm assembly. An
//! *intra-disk parallel* drive decouples the electro-mechanical
//! resources; this crate implements the paper's DASH taxonomy
//! ([`dash`]) and, in full detail, the design the paper evaluates:
//! **HC-SD-SA(n)** — `D1 An S1 H1` — a drive with `n` independently
//! positioned arm assemblies where at any instant only one arm may be in
//! motion and only one head may transfer, but the shortest-positioning-
//! time-first scheduler may dispatch whichever idle arm minimizes the
//! positioning time of a request ([`drive`]). The same engine models
//! the technical report's two relaxations of those restrictions
//! ([`OverlapMode`]).
//!
//! # Crate layout
//!
//! * [`dash`] — the `Dk Al Sm Hn` taxonomy of §4.
//! * [`request`] — I/O requests and completed-request records.
//! * [`cache`] — the segmented on-board disk cache.
//! * [`sched`] — queueing policies: FCFS, SSTF, and SPTF \[42\].
//! * [`service`] — positioning/transfer planning for one request on a
//!   chosen arm assembly (the mechanical inner loop).
//! * [`drive`] — the drive state machine gluing the above together, in
//!   every [`OverlapMode`].
//! * [`device`] — the [`Device`] contract and [`simulate`], the one run
//!   loop every engine (drive, array, DRPM) runs under.
//! * [`metrics`] — per-drive statistics and the four-mode power
//!   attribution of Figures 3 and 6.
//! * [`failure`] — SMART-style actuator deconfiguration (§8).
//!
//! # Example: a 2-actuator drive beats a conventional one
//!
//! ```
//! use diskmodel::presets;
//! use intradisk::{simulate, DiskDrive, DriveConfig, IoKind, IoRequest, NullObserver};
//! use simkit::SimTime;
//! use telemetry::NullRecorder;
//!
//! fn run(actuators: u32) -> f64 {
//!     let params = presets::barracuda_es_750gb();
//!     let drive = DiskDrive::new(&params, DriveConfig::sa(actuators));
//!     // 200 back-to-back scattered reads.
//!     let reqs = (0..200u64).map(|i| {
//!         IoRequest::new(i, SimTime::ZERO, (i * 7_919_993) % 1_000_000_000, 8, IoKind::Read)
//!     });
//!     let r = simulate(reqs, drive, &mut NullRecorder, &mut NullObserver).expect("valid replay");
//!     r.metrics.response_time_ms.mean()
//! }
//!
//! assert!(run(2) < run(1));
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

pub mod cache;
pub mod counters;
pub mod dash;
pub mod device;
pub mod drive;
pub mod drpm;
pub mod failure;
pub mod metrics;
pub mod request;
pub mod sched;
pub mod service;

pub use cache::SegmentedCache;
pub use dash::DashConfig;
pub use device::{simulate, Device, NullObserver, RunObserver};
pub use drive::{
    ArmPlacement, DiskDrive, DriveConfig, DriveRunResult, LatencyScaling, OverlapMode,
};
pub use metrics::{DriveMetrics, DriveMode, PowerBreakdown};
pub use request::{CompletedIo, IoKind, IoRequest, ServiceBreakdown};
pub use sched::QueuePolicy;
