//! `workload` — the I/O request streams of the study.
//!
//! Layers:
//!
//! * [`source`] — the pull-based ingestion interface
//!   ([`RequestSource`]): run loops pull one request at a time, so
//!   generated workloads replay in O(1) memory and run size is bounded
//!   by simulated time, not RAM. [`Trace`] plugs in through
//!   [`IntoRequestSource`] for backward compatibility.
//! * [`book`] — [`TraceBook`], one sweep's workloads: each profile's
//!   trace generated once on first use and replayed by every run of
//!   the sweep (traces up to [`MAX_STORED_REQUESTS`]; longer ones
//!   stream lazily).
//! * [`trace`] — the in-memory trace representation plus summary
//!   statistics (read fraction, mean inter-arrival time, footprint).
//! * [`arrival`] — arrival processes: Poisson (exponential
//!   inter-arrival, used by the §7.3 synthetic study), log-normal, and
//!   a two-state Markov-modulated Poisson process for the bursty
//!   commercial workloads.
//! * [`synth`] / [`profiles`] — generators. [`synth::SyntheticSpec`]
//!   reproduces the paper's §7.3 synthetic workloads exactly as
//!   described (1M requests, 60% reads, 20% sequential, exponential
//!   inter-arrivals of mean 8/4/1 ms). [`profiles`] provides calibrated
//!   stand-ins for the four commercial traces of Table 2 — see
//!   DESIGN.md for the substitution rationale. Both expose lazy
//!   `source(...)` constructors; `generate(...)` materializes.
//! * [`spc`] — a parser for SPC-format trace files (the format the
//!   UMass repository distributes the original Financial/Websearch
//!   traces in), so the real traces can be replayed when available —
//!   materialized ([`spc::read_trace`]) or streamed line by line
//!   ([`spc::SpcSource`]).

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

pub mod arrival;
pub mod book;
pub mod counters;
pub mod profiles;
pub mod source;
pub mod spc;
pub mod synth;
pub mod trace;

pub use arrival::{ArrivalProcess, Mmpp};
pub use book::{BookSource, TraceBook, MAX_STORED_REQUESTS};
pub use profiles::{profile_for, ProfileSource, TraceProfile, WorkloadKind};
pub use source::{
    collect_trace, CountingSource, IntoRequestSource, RequestSource, Requests, TraceSource,
};
pub use spc::SpcSource;
pub use synth::{SynthSource, SyntheticSpec};
pub use trace::{Trace, TraceStats};
