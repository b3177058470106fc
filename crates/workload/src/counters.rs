//! Deterministic workload-ingestion counters.
//!
//! One counter: requests pulled through
//! [`CountingSource`](crate::CountingSource) wrappers. A pure function of the
//! workload spec, so the exported total is byte-identical across runs,
//! hosts, and `--jobs`.

use simkit::counters::Counter;

/// Requests pulled from wrapped request sources.
pub static REQUESTS_PULLED: Counter = Counter::new("workload.requests_pulled");

/// Every counter this crate owns, in export (name) order.
pub fn all() -> [&'static Counter; 1] {
    [&REQUESTS_PULLED]
}

/// Reset every counter this crate owns.
pub fn reset_all() {
    for c in all() {
        c.reset();
    }
}
