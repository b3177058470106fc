//! Deterministic kernel counters — plane 1 of the self-observability
//! layer.
//!
//! A [`Counter`] is a named, process-global monotonic cell. Counters
//! count *simulated work* (wheel pushes, slab inserts, histogram
//! records …), never host time, so their totals are a pure function of
//! the workload and configuration: byte-identical across runs, hosts,
//! and `--jobs` values. Host-dependent attribution (which worker ran
//! which point, steal counts) lives in a separate, explicitly
//! non-deterministic section of the export — see
//! `experiments::profile`.
//!
//! Hot paths never touch the shared atomics directly. A
//! [`DropCounter`] batches increments in a thread-local-free
//! `Cell<u64>` owned by the instrumented object and flushes once, on
//! drop, to its `&'static Counter` target. This keeps the per-event
//! cost to a `Cell` add (no shared-cache-line traffic under parallel
//! study workers) and preserves `#[derive(Clone, PartialEq)]` on the
//! host structs: a cloned `DropCounter` starts at zero pending (each
//! instance flushes only what it saw), and equality always holds (the
//! counter is observability, not state).
//!
//! The `"deterministic"` section of the export describes the *logical*
//! run at every `--jobs` value. A split replay (see
//! `experiments::runner`) simulates some requests twice, once on a
//! speculative drive whose work is thrown away: such a drive
//! [`rebase`](DropCounter::rebase)s or [`take`](DropCounter::take)s
//! its batchers so that only the work of the logical run ever flushes.
//! This is a stopgap until run-scoped counters (ROADMAP item 1) make
//! it a plain subtraction.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a counter combines flushed contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Contributions add up (event counts).
    Sum,
    /// Contributions take the maximum (high-water marks).
    Max,
}

/// A named process-global monotonic counter.
///
/// `const`-constructible so crates can declare `static` registries.
/// All operations use relaxed ordering: counters are statistics, not
/// synchronization.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    kind: Kind,
    value: AtomicU64,
}

impl Counter {
    /// A summing counter (event count).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            kind: Kind::Sum,
            value: AtomicU64::new(0),
        }
    }

    /// A maximum-tracking counter (high-water mark).
    pub const fn new_max(name: &'static str) -> Self {
        Self {
            name,
            kind: Kind::Max,
            value: AtomicU64::new(0),
        }
    }

    /// Stable export name, e.g. `"simkit.wheel.pushes"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Aggregation kind.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Add `n` (summing use).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise to `n` if larger (high-water use).
    #[inline]
    pub fn record_max(&self, n: u64) {
        self.value.fetch_max(n, Ordering::Relaxed);
    }

    /// Combine `n` into the counter according to its [`Kind`].
    #[inline]
    pub fn flush(&self, n: u64) {
        match self.kind {
            Kind::Sum => self.add(n),
            Kind::Max => self.record_max(n),
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (test isolation / fresh export windows).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A per-instance batcher that flushes to a [`Counter`] on drop.
///
/// Designed to be embedded in structs that `#[derive(Clone,
/// PartialEq)]`:
///
/// - `Clone` yields a fresh batcher with zero pending for the same
///   target, so clones never double-flush work the original counted;
/// - `PartialEq` is always `true` — instrumentation is invisible to
///   semantic equality;
/// - `Drop` flushes the pending total with one atomic operation.
/// - `Debug` shows only instance-local state (pending count, target
///   name) — never the target's live global value, which would make
///   two otherwise-identical host structs render differently.
pub struct DropCounter {
    pending: Cell<u64>,
    target: &'static Counter,
}

impl fmt::Debug for DropCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DropCounter")
            .field("pending", &self.pending.get())
            .field("target", &self.target.name())
            .finish()
    }
}

impl DropCounter {
    /// A batcher for `target` with nothing pending.
    pub fn new(target: &'static Counter) -> Self {
        Self {
            pending: Cell::new(0),
            target,
        }
    }

    /// Count one event.
    #[inline]
    pub fn bump(&self) {
        self.pending.set(self.pending.get().wrapping_add(1));
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.pending.set(self.pending.get().wrapping_add(n));
    }

    /// Raise the pending high-water mark to `n` (for `Kind::Max`
    /// targets).
    #[inline]
    pub fn raise(&self, n: u64) {
        if n > self.pending.get() {
            self.pending.set(n);
        }
    }

    /// Events counted since construction (or last clone): a mark a
    /// later [`rebase`](Self::rebase) can cut at.
    pub fn pending(&self) -> u64 {
        self.pending.get()
    }

    /// Forgets the first `mark` events counted, where `mark` is a
    /// [`pending`](Self::pending) value read earlier: the batcher then
    /// flushes only what it counted after the mark. For summing
    /// targets.
    #[inline]
    pub fn rebase(&self, mark: u64) {
        self.pending.set(self.pending.get().wrapping_sub(mark));
    }

    /// Takes every pending event out of the batcher, which then
    /// flushes nothing of them: the caller adds them to another batcher
    /// or drops them.
    #[inline]
    pub fn take(&self) -> u64 {
        self.pending.replace(0)
    }
}

impl Clone for DropCounter {
    fn clone(&self) -> Self {
        Self::new(self.target)
    }
}

impl PartialEq for DropCounter {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.target.flush(self.pending.get());
    }
}

// ---------------------------------------------------------------------
// simkit's own counter registry.

/// Timing-wheel events pushed.
pub static WHEEL_PUSHES: Counter = Counter::new("simkit.wheel.pushes");
/// Timing-wheel events popped.
pub static WHEEL_POPS: Counter = Counter::new("simkit.wheel.pops");
/// Peak events pending in any one wheel.
pub static WHEEL_PEAK_PENDING: Counter = Counter::new_max("simkit.wheel.peak_pending");
/// Pushes that landed in the overflow calendar (beyond wheel horizon).
pub static WHEEL_OVERFLOW_HITS: Counter = Counter::new("simkit.wheel.overflow_hits");
/// Occupancy-bitmap words examined while scanning for the next slot.
pub static WHEEL_SLOT_SCAN_WORDS: Counter = Counter::new("simkit.wheel.slot_scan_words");
/// Slab pool insertions.
pub static SLAB_INSERTS: Counter = Counter::new("simkit.slab.inserts");
/// Slab pool removals.
pub static SLAB_REMOVES: Counter = Counter::new("simkit.slab.removes");
/// Peak free-list depth of any one slab.
pub static SLAB_FREE_PEAK: Counter = Counter::new_max("simkit.slab.free_peak");
/// Samples recorded into fixed-edge histograms.
pub static HIST_RECORDS: Counter = Counter::new("simkit.hist.records");
/// Samples recorded into streaming (log-bucket) histograms.
pub static STREAMHIST_RECORDS: Counter = Counter::new("simkit.hist.stream_records");

/// Every counter this crate owns, in export (name) order.
pub fn all() -> [&'static Counter; 10] {
    [
        &HIST_RECORDS,
        &STREAMHIST_RECORDS,
        &SLAB_FREE_PEAK,
        &SLAB_INSERTS,
        &SLAB_REMOVES,
        &WHEEL_OVERFLOW_HITS,
        &WHEEL_PEAK_PENDING,
        &WHEEL_POPS,
        &WHEEL_PUSHES,
        &WHEEL_SLOT_SCAN_WORDS,
    ]
}

/// Reset every counter this crate owns.
pub fn reset_all() {
    for c in all() {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static T_SUM: Counter = Counter::new("test.sum");
    static T_MAX: Counter = Counter::new_max("test.max");

    #[test]
    fn sum_counter_accumulates() {
        T_SUM.reset();
        T_SUM.add(3);
        T_SUM.add(0);
        T_SUM.add(4);
        assert_eq!(T_SUM.get(), 7);
    }

    #[test]
    fn max_counter_keeps_high_water() {
        T_MAX.reset();
        T_MAX.flush(5);
        T_MAX.flush(2);
        T_MAX.flush(9);
        assert_eq!(T_MAX.get(), 9);
    }

    #[test]
    fn drop_counter_flushes_once_on_drop() {
        static T: Counter = Counter::new("test.drop");
        T.reset();
        {
            let d = DropCounter::new(&T);
            d.bump();
            d.add(2);
            assert_eq!(T.get(), 0, "nothing flushed before drop");
            assert_eq!(d.pending(), 3);
        }
        assert_eq!(T.get(), 3);
    }

    #[test]
    fn drop_counter_clone_starts_empty_and_compares_equal() {
        static T: Counter = Counter::new("test.clone");
        T.reset();
        {
            let d = DropCounter::new(&T);
            d.add(10);
            let c = d.clone();
            assert_eq!(c.pending(), 0);
            assert!(c == d);
        }
        assert_eq!(T.get(), 10, "clone contributed nothing");
    }

    #[test]
    fn rebased_drop_counter_flushes_only_what_follows_the_mark() {
        static T: Counter = Counter::new("test.rebase");
        T.reset();
        {
            let d = DropCounter::new(&T);
            d.add(5);
            let mark = d.pending();
            d.add(3);
            d.rebase(mark);
            assert_eq!(d.pending(), 3);
        }
        assert_eq!(T.get(), 3, "the 5 counted before the mark never flush");
        {
            let d = DropCounter::new(&T);
            d.add(4);
            assert_eq!(d.take(), 4);
        }
        assert_eq!(T.get(), 3, "taken counts never flush");
    }

    #[test]
    fn registry_names_are_sorted_and_unique() {
        let names: Vec<&str> = all().iter().map(|c| c.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }
}
