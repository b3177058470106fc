//! `testkit` — the workspace's own property-based testing engine and
//! golden-regression assertions.
//!
//! The seed's property suite was written against an external framework
//! that cannot be fetched in the hermetic build environment, so it had
//! never actually run. This crate replaces it with a zero-dependency
//! engine built on the workspace's own deterministic [`simkit::Rng64`]:
//!
//! * [`source`] — a recordable/replayable *choice stream*. Generators
//!   consume raw 64-bit choices; smaller choices mean simpler values.
//! * [`gen`] — generators and combinators ([`Gen`], ranges, vectors,
//!   `map`/`and_then`) that stay shrinkable through composition.
//! * [`runner`] — the property runner: deterministic per-property
//!   seeding, bounded choice-stream shrinking, and failing-case replay
//!   via the `TESTKIT_SEED` environment variable.
//! * [`golden`] — named assertions with explicit tolerances for the
//!   paper's replicated numbers (calibration points, power tables,
//!   service-time orderings).
//! * [`lexer`] — a Rust tokenizer for tests that scan the workspace's
//!   own sources (comments and string literals stay opaque).
//!
//! # Example
//!
//! ```
//! use testkit::{check, gen};
//!
//! check("rotation_fraction_in_unit_interval", |t| {
//!     let rpm = t.draw(&gen::u32_in(3_600..=15_000));
//!     let period_ms = 60_000.0 / rpm as f64;
//!     assert!(period_ms > 0.0 && period_ms < 60_000.0);
//! });
//! ```
//!
//! # Reproducibility contract
//!
//! Every property's base seed is derived from its name, so a suite is
//! bit-identical run to run with no state files. A failure report
//! prints the minimal shrunk inputs plus a `TESTKIT_SEED=…` incantation
//! that replays exactly the failing case; `TESTKIT_CASES=N` scales the
//! number of cases for soak runs.

pub mod gen;
pub mod golden;
pub mod lexer;
pub mod runner;
pub mod source;

pub use gen::Gen;
pub use runner::{check, check_with, Config, TestCase};
pub use source::Source;
