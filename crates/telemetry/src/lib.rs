//! `telemetry` — deterministic per-request event tracing for the
//! intra-disk parallelism reproduction.
//!
//! The paper's argument is entirely about *where simulated time and
//! energy go* — seek vs. rotational wait vs. transfer, per arm
//! assembly. The aggregate `DriveMetrics` answer "how much, in total";
//! this crate answers "what happened, when", as a typed event stream
//! that can be exported to Perfetto, cross-checked against the
//! aggregates, and analyzed post hoc.
//!
//! Four guarantees shape the design:
//!
//! 1. **Virtual time only.** Every event is stamped with [`SimTime`];
//!    the trace plane never reads a wall clock, so a trace is part of
//!    the simulator's determinism contract: byte-identical across runs,
//!    hosts, and `--jobs` values. The one documented exception is
//!    [`prof`], the host-time *self*-profiling plane: it reads the
//!    host clock to attribute the simulator's own execution time, and
//!    its measurements flow only outward (stderr, profile files) —
//!    never into sim state or results.
//! 2. **Near-zero cost when off.** Instrumented code is generic over
//!    [`Recorder`] and gates event construction on the associated
//!    constant `R::ENABLED`. With [`NullRecorder`] the branch is
//!    statically false and the instrumentation compiles away.
//! 3. **Bounded memory.** [`RingRecorder`] retains the most recent N
//!    samples and counts what it dropped.
//! 4. **Order is explicit.** Components emit events in *simulation*
//!    order, not timestamp order (a dispatch plans a whole media access
//!    and emits its future phase boundaries immediately). Every
//!    [`Sample`] carries a sequence number; `(time, seq)` is the total,
//!    canonical order used by the exporters ([`chrome_trace_json`],
//!    [`timeline_csv`]), the analyzer ([`TraceAnalysis`]), and the
//!    validator ([`schema::validate`]).
//!
//! ```
//! use simkit::SimTime;
//! use telemetry::{Recorder, RingRecorder, TraceEvent, IoOp, TraceAnalysis};
//!
//! let mut rec = RingRecorder::new();
//! rec.record(SimTime::from_millis(1.0), TraceEvent::RequestSubmitted {
//!     req: 0, lba: 64, sectors: 8, op: IoOp::Read,
//! });
//! rec.record(SimTime::from_millis(4.0), TraceEvent::Complete { req: 0 });
//! let analysis = TraceAnalysis::from_samples(&rec.sorted_samples());
//! assert_eq!(analysis.scope(0).map(|s| s.completed), Some(1));
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

pub mod analyze;
pub mod event;
pub mod export;
pub mod metrics;
pub mod prof;
pub mod recorder;
pub mod schema;

pub use analyze::{ActuatorTimeline, ModePowers, QueueDepthStats, ScopeAnalysis, TraceAnalysis};
pub use event::{sort_samples, IoOp, PowerMode, Sample, TraceEvent};
pub use export::{chrome_trace_json, timeline_csv, MODE_TID, REQUESTS_TID};
pub use metrics::{MetricsRecorder, MetricsRegistry, MetricsSnapshot};
pub use recorder::{NullRecorder, Recorder, RingRecorder, ScopedRecorder, DEFAULT_CAPACITY};

#[doc(no_inline)]
pub use simkit::SimTime;
