//! `simkit` — the discrete-event simulation substrate used by the
//! intra-disk parallelism reproduction.
//!
//! The crate provides four small, dependency-free building blocks:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) with millisecond conversion helpers (disk latencies
//!   are conventionally reported in milliseconds).
//! * [`event`] — a deterministic event calendar ([`EventQueue`]) with
//!   stable FIFO ordering among simultaneous events. The production
//!   queue is a hierarchical timing wheel ([`WheelEventQueue`]); the
//!   original binary heap survives as [`HeapEventQueue`], the oracle
//!   the differential test suite compares the wheel against.
//! * [`pool`] — a generation-tagged slab allocator ([`pool::Slab`])
//!   that keeps steady-state request dispatch allocation-free while
//!   detecting use-after-recycle at the API level.
//! * [`rng`] / [`dist`] — a seedable, forkable pseudo-random number
//!   generator ([`Rng64`]) and the random variates the workload
//!   generators need (exponential, Zipf, log-normal, ...). These are
//!   implemented from first principles so simulation results are
//!   bit-reproducible and independent of external crate versions.
//! * [`stats`] — bucketed histograms (the paper reports CDFs/PDFs over
//!   fixed bucket edges), streaming summaries, percentile extraction,
//!   and time-weighted mode accounting used for power attribution.
//! * [`counters`] — deterministic kernel counters: named monotonic
//!   totals of simulated work (wheel traffic, slab churn, histogram
//!   records) batched per instance and flushed on drop, exported by
//!   the experiment harness as byte-stable JSON.
//!
//! # Example
//!
//! ```
//! use simkit::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(2.0), "b");
//! q.push(SimTime::ZERO, "a");
//! assert_eq!(q.pop().map(|e| e.payload), Some("a"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("b"));
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

pub mod counters;
pub mod dist;
pub mod event;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use counters::{Counter, DropCounter};
pub use dist::{Bernoulli, Exponential, LogNormal, Pareto, Sample, UniformRange, Zipf};
pub use event::{
    Calendar, EventQueue, HeapEventQueue, QueueStats, ScheduledEvent, WheelEventQueue,
};
pub use pool::{Slab, SlotId};
pub use rng::Rng64;
pub use stats::{
    Cdf, DecodeError, Histogram, ModeAccumulator, Pdf, ResponseStats, StatsMode, StreamingHistogram,
};
pub use time::{SimDuration, SimTime};
