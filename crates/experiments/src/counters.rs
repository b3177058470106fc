//! Executor counters, split across the two observability planes.
//!
//! * [`POINTS_RUN`] is **deterministic**: a sweep runs exactly the
//!   points its plan enumerates, regardless of worker count or steal
//!   interleaving, so the exported total is byte-identical across
//!   runs, hosts, and `--jobs`.
//! * [`WORKERS_SPAWNED`] and [`STEALS`] are **host-plane**: they
//!   depend on `--jobs` and on scheduler timing, so the counter export
//!   quarantines them in the non-gated `"host"` section
//!   (see `crate::profile`). So are the split replay's
//!   [`SCALE_SEGMENTS`], [`SCALE_FALLBACKS`] and
//!   [`SCALE_RERUN_REQUESTS`], which vary with `--jobs` and with how
//!   fast each of its two threads runs.

use simkit::counters::Counter;

/// Experiment points executed (deterministic: plan-sized).
pub static POINTS_RUN: Counter = Counter::new("experiments.points_run");

/// Worker threads spawned by parallel sweeps (host-plane).
pub static WORKERS_SPAWNED: Counter = Counter::new("exec.workers_spawned");

/// Points stolen from a peer worker's queue (host-plane).
pub static STEALS: Counter = Counter::new("exec.steals");

/// Requests of scout segments that a split `repro scale` replay's leader
/// replayed too: up to the snapshot it took each coupled segment over
/// at, and the whole of each segment the scout replayed that fell back
/// (host-plane: zero at `--jobs 1`).
pub static SCALE_RERUN_REQUESTS: Counter = Counter::new("scale.rerun_requests");

/// Segments of a split replay taken over from the scout (host-plane).
pub static SCALE_SEGMENTS: Counter = Counter::new("scale.segments");

/// Segments of a split replay the leader ran itself: the scout's run
/// did not couple, or did not come back in time (host-plane).
pub static SCALE_FALLBACKS: Counter = Counter::new("scale.fallbacks");

/// The deterministic counters this crate owns, in export (name) order.
pub fn deterministic() -> [&'static Counter; 1] {
    [&POINTS_RUN]
}

/// The host-plane counters this crate owns, in export (name) order.
pub fn host() -> [&'static Counter; 5] {
    [
        &STEALS,
        &WORKERS_SPAWNED,
        &SCALE_FALLBACKS,
        &SCALE_RERUN_REQUESTS,
        &SCALE_SEGMENTS,
    ]
}

/// Reset every counter this crate owns (both planes).
pub fn reset_all() {
    for c in deterministic() {
        c.reset();
    }
    for c in host() {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_name_sorted_and_disjoint() {
        let det: Vec<_> = deterministic().iter().map(|c| c.name()).collect();
        let host: Vec<_> = host().iter().map(|c| c.name()).collect();
        let mut sorted = det.clone();
        sorted.sort_unstable();
        assert_eq!(det, sorted);
        let mut sorted = host.clone();
        sorted.sort_unstable();
        assert_eq!(host, sorted);
        assert!(det.iter().all(|n| !host.contains(n)));
    }
}
