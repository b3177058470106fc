//! Deterministic drive-level kernel counters.
//!
//! Counts the work the scheduler and cost model do per simulated run —
//! dispatch scans, per-arm visits, SPTF candidate comparisons,
//! positioning/plan evaluations, cache probe outcomes, and the pending
//! queue's high-water mark. All counts are pure functions of the
//! workload and configuration (never of host timing), so the exported
//! totals are byte-identical across runs, hosts, and `--jobs`.
//!
//! Hot paths batch increments in per-drive [`DropCounter`]s (see
//! [`simkit::counters`]) and flush once when the drive drops; the
//! dispatch scan adds its counts once per scan. A split replay's
//! speculative drive marks, rebases and hands over its batchers
//! ([`ProfMark`]) so that only the logical run's work flushes.

use simkit::counters::{Counter, DropCounter};

/// Read probes answered by the segmented cache.
pub static CACHE_HITS: Counter = Counter::new("intradisk.cache.hits");
/// Read probes that missed and went to the media.
pub static CACHE_MISSES: Counter = Counter::new("intradisk.cache.misses");
/// Full arm-loop access plans (`plan_set_with_heads`): service starts
/// that no SPTF scan priced first (from `submit`, FCFS, SSTF).
pub static PLAN_EVALS: Counter = Counter::new("intradisk.cost.plan_evals");
/// Seek+rotation positioning estimates the SPTF scan computed; arms
/// pruned on their seek alone are not counted.
pub static POSITIONING_EVALS: Counter = Counter::new("intradisk.cost.positioning_evals");
/// Eligible arms visited across all dispatch scans, pruned or not.
pub static ARM_VISITS: Counter = Counter::new("intradisk.dispatch.arm_visits");
/// Queued candidates whose dispatch cost was evaluated.
pub static CANDIDATES: Counter = Counter::new("intradisk.dispatch.candidates");
/// Dispatch scans over the pending queue.
pub static SCANS: Counter = Counter::new("intradisk.dispatch.scans");
/// Best-so-far comparisons the SPTF scan made (one per estimate).
pub static SPTF_COMPARES: Counter = Counter::new("intradisk.dispatch.sptf_compares");
/// Deepest the pending queue got on any one drive.
pub static QUEUE_PEAK_DEPTH: Counter = Counter::new_max("intradisk.queue.peak_depth");

/// Every counter this crate owns, in export (name) order.
pub fn all() -> [&'static Counter; 9] {
    [
        &CACHE_HITS,
        &CACHE_MISSES,
        &PLAN_EVALS,
        &POSITIONING_EVALS,
        &ARM_VISITS,
        &CANDIDATES,
        &SCANS,
        &SPTF_COMPARES,
        &QUEUE_PEAK_DEPTH,
    ]
}

/// Reset every counter this crate owns.
pub fn reset_all() {
    for c in all() {
        c.reset();
    }
}

/// Per-drive batchers for the dispatch/cost/cache counters. Embedded
/// in [`DiskDrive`](crate::DiskDrive); the derived `Clone` yields
/// fresh zero-pending batchers so cloned drives never double-flush.
#[derive(Debug, Clone)]
pub struct DriveProfCounts {
    /// One per dispatch scan.
    pub scans: DropCounter,
    /// One per candidate whose cost the scan evaluated.
    pub candidates: DropCounter,
    /// One per eligible arm a scan visited, pruned or not.
    pub arm_visits: DropCounter,
    /// One per SPTF best-so-far comparison made.
    pub sptf_compares: DropCounter,
    /// One per seek+rotation estimate the SPTF scan computed.
    pub positioning_evals: DropCounter,
    /// One per full arm-loop plan (no scan priced the start).
    pub plan_evals: DropCounter,
    /// One per read probe served from cache.
    pub cache_hits: DropCounter,
    /// One per read probe that went to media.
    pub cache_misses: DropCounter,
}

impl DriveProfCounts {
    /// Batchers targeting this crate's global registry.
    pub fn new() -> Self {
        DriveProfCounts {
            scans: DropCounter::new(&SCANS),
            candidates: DropCounter::new(&CANDIDATES),
            arm_visits: DropCounter::new(&ARM_VISITS),
            sptf_compares: DropCounter::new(&SPTF_COMPARES),
            positioning_evals: DropCounter::new(&POSITIONING_EVALS),
            plan_evals: DropCounter::new(&PLAN_EVALS),
            cache_hits: DropCounter::new(&CACHE_HITS),
            cache_misses: DropCounter::new(&CACHE_MISSES),
        }
    }
}

/// The pending counts of a [`DriveProfCounts`] at one instant, in field
/// order: a mark to [`rebase`](DriveProfCounts::rebase) at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfMark([u64; 8]);

impl DriveProfCounts {
    /// Every batcher, in field order.
    fn all(&self) -> [&DropCounter; 8] {
        [
            &self.scans,
            &self.candidates,
            &self.arm_visits,
            &self.sptf_compares,
            &self.positioning_evals,
            &self.plan_evals,
            &self.cache_hits,
            &self.cache_misses,
        ]
    }

    /// What every batcher has counted so far.
    pub fn mark(&self) -> ProfMark {
        ProfMark(self.all().map(DropCounter::pending))
    }

    /// Forgets what was counted up to `mark`, read from these batchers
    /// earlier: only what they counted after it will flush.
    pub fn rebase(&self, mark: &ProfMark) {
        for (c, &m) in self.all().into_iter().zip(&mark.0) {
            c.rebase(m);
        }
    }

    /// Moves everything `other` has counted into these batchers.
    pub fn absorb(&self, other: &DriveProfCounts) {
        for (c, o) in self.all().into_iter().zip(other.all()) {
            c.add(o.take());
        }
    }

    /// Forgets everything counted so far: none of it will flush.
    pub fn discard(&self) {
        for c in self.all() {
            c.take();
        }
    }
}

impl Default for DriveProfCounts {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_sorted_and_unique() {
        let names: Vec<&str> = all().iter().map(|c| c.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }
}
