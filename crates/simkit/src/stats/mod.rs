//! Statistics used to report simulation results the way the paper does:
//! CDFs/PDFs over fixed bucket edges, percentiles, and time-weighted
//! operating-mode accounting for power attribution.

mod histogram;
mod meanmax;
mod response;
mod streamhist;
mod summary;
mod timeweight;

pub use histogram::{Cdf, Histogram, Pdf};
pub use meanmax::MeanMax;
pub use response::{ResponseStats, StatsMode};
pub use streamhist::StreamingHistogram;
// `Summary` stays reachable as `stats::Summary` for oracle use (the
// differential test suites compare streaming estimates against it),
// but it is no longer re-exported at the crate root: production
// response-time collection goes through `ResponseStats`.
pub use summary::Summary;
pub use timeweight::ModeAccumulator;
