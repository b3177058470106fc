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
pub use source::{collect_trace, CountingSource, IntoRequestSource, RequestSource, TraceSource};
pub use spc::SpcSource;
pub use synth::{SynthSource, SyntheticSpec};
pub use trace::{Trace, TraceStats};
