//! Recorders: where instrumented components send their events.
//!
//! The [`Recorder`] trait is designed for *static* dispatch: every
//! instrumented method is generic over `R: Recorder`, and hot paths
//! gate event construction on the associated constant [`Recorder::ENABLED`].
//! With [`NullRecorder`] that constant is `false`, the branch folds
//! away, and the uninstrumented build is exactly the pre-telemetry
//! code — tracing is near-zero-cost when off.
//!
//! [`RingRecorder`] is the bounded in-memory recorder used by
//! `repro --trace` and the tests: it keeps the most recent `capacity`
//! samples (dropping the oldest first and counting the drops), so even
//! a pathological run cannot exhaust memory.

use std::collections::VecDeque;
use std::fmt;

use simkit::SimTime;

use crate::event::{sort_samples, Sample, TraceEvent};

/// A sink for trace events.
pub trait Recorder {
    /// `false` only for the no-op recorder. Instrumentation sites wrap
    /// event construction in `if R::ENABLED { ... }`, so the disabled
    /// path compiles away entirely.
    const ENABLED: bool;

    /// Records `event` at virtual instant `time` in scope 0 (the
    /// top-level drive). Single-drive code paths call this.
    fn record(&mut self, time: SimTime, event: TraceEvent) {
        self.record_scoped(0, time, event);
    }

    /// Records `event` in an explicit scope (array controllers wrap
    /// member-disk recorders with [`ScopedRecorder`] so each member's
    /// events land in its own scope).
    fn record_scoped(&mut self, scope: u32, time: SimTime, event: TraceEvent);
}

/// The no-op recorder: recording compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    fn record_scoped(&mut self, _scope: u32, _time: SimTime, _event: TraceEvent) {}
}

impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    fn record(&mut self, time: SimTime, event: TraceEvent) {
        (**self).record(time, event);
    }

    fn record_scoped(&mut self, scope: u32, time: SimTime, event: TraceEvent) {
        (**self).record_scoped(scope, time, event);
    }
}

/// Default [`RingRecorder`] capacity (samples).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A bounded in-memory recorder.
///
/// Samples are kept in emission order; [`RingRecorder::sorted_samples`]
/// returns them in the canonical `(time, seq)` export order. When the
/// buffer is full the *oldest* sample is dropped (the tail of a run is
/// usually what a debugging session needs) and the drop is counted.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: VecDeque<Sample>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a recorder holding up to [`DEFAULT_CAPACITY`] samples.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a recorder holding up to `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "ring recorder needs room for at least one sample"
        );
        RingRecorder {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained samples in emission order.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.buf.iter()
    }

    /// Retained samples in the canonical `(time, seq)` order used by
    /// the exporters and the analyzer.
    pub fn sorted_samples(&self) -> Vec<Sample> {
        let mut v: Vec<Sample> = self.buf.iter().copied().collect();
        sort_samples(&mut v);
        v
    }
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for RingRecorder {
    const ENABLED: bool = true;

    fn record_scoped(&mut self, scope: u32, time: SimTime, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(Sample {
            time,
            scope,
            seq,
            event,
        });
    }
}

/// Redirects every event into a fixed scope — how an array controller
/// gives each member disk its own track without the disk knowing its
/// index.
pub struct ScopedRecorder<'a, R: Recorder> {
    inner: &'a mut R,
    scope: u32,
}

impl<'a, R: Recorder> ScopedRecorder<'a, R> {
    /// Wraps `inner` so all events land in `scope`.
    pub fn new(inner: &'a mut R, scope: u32) -> Self {
        ScopedRecorder { inner, scope }
    }
}

impl<R: Recorder> fmt::Debug for ScopedRecorder<'_, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScopedRecorder")
            .field("scope", &self.scope)
            .finish()
    }
}

impl<R: Recorder> Recorder for ScopedRecorder<'_, R> {
    const ENABLED: bool = R::ENABLED;

    fn record(&mut self, time: SimTime, event: TraceEvent) {
        self.inner.record_scoped(self.scope, time, event);
    }

    fn record_scoped(&mut self, _scope: u32, time: SimTime, event: TraceEvent) {
        // A scoped recorder owns the scope decision: nested scopes
        // collapse onto the outermost wrapper, which is what an array
        // of (single-scope) drives needs.
        self.inner.record_scoped(self.scope, time, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(req: u64) -> TraceEvent {
        TraceEvent::Complete { req }
    }

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        const { assert!(!NullRecorder::ENABLED) };
        let mut r = NullRecorder;
        r.record(SimTime::ZERO, ev(0));
        r.record_scoped(3, SimTime::ZERO, ev(1));
        // Nothing observable; the call exists so instrumented code can
        // stay recorder-generic.
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = RingRecorder::with_capacity(3);
        for i in 0..5u64 {
            r.record(SimTime::from_millis(i as f64), ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let reqs: Vec<u64> = r.samples().filter_map(|s| s.event.req()).collect();
        assert_eq!(reqs, vec![2, 3, 4]);
    }

    #[test]
    fn sorted_samples_reorder_future_stamped_events() {
        let mut r = RingRecorder::new();
        // Emission order: a dispatch at 1 ms plans events out to 9 ms,
        // then a submission arrives at 2 ms.
        r.record(SimTime::from_millis(1.0), ev(0));
        r.record(SimTime::from_millis(9.0), ev(1));
        r.record(SimTime::from_millis(2.0), ev(2));
        let sorted = r.sorted_samples();
        let reqs: Vec<u64> = sorted.iter().filter_map(|s| s.event.req()).collect();
        assert_eq!(reqs, vec![0, 2, 1]);
        // Ties break on emission order.
        r.record(SimTime::from_millis(9.0), ev(3));
        let sorted = r.sorted_samples();
        assert_eq!(sorted.last().and_then(|s| s.event.req()), Some(3));
    }

    #[test]
    fn scoped_recorder_stamps_scope() {
        let mut r = RingRecorder::new();
        {
            let mut s = ScopedRecorder::new(&mut r, 4);
            s.record(SimTime::ZERO, ev(0));
            s.record_scoped(9, SimTime::ZERO, ev(1));
        }
        let scopes: Vec<u32> = r.samples().map(|s| s.scope).collect();
        assert_eq!(
            scopes,
            vec![4, 4],
            "nested scopes collapse to the wrapper's"
        );
    }

    #[test]
    fn mut_ref_forwards() {
        let mut r = RingRecorder::new();
        let mut rr = &mut r;
        rr.record(SimTime::ZERO, ev(0));
        Recorder::record_scoped(&mut rr, 2, SimTime::ZERO, ev(1));
        assert_eq!(r.len(), 2);
    }
}
