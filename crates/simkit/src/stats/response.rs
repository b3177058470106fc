//! [`ResponseStats`]: the response-time accumulator of the data plane.
//!
//! Every simulator component that records response times holds a
//! `ResponseStats`, which runs in one of two modes:
//!
//! * [`StatsMode::Exact`] — the sample store: a [`Summary`] that keeps
//!   every sample (exact percentiles), plus views derived from it. This
//!   is the oracle mode and the default: every report the `repro`
//!   binary prints keeps its byte-identical output because percentile
//!   and mean reads delegate straight to the wrapped `Summary`. A
//!   record only stores the sample; [`finalize`](ResponseStats::finalize)
//!   sorts the store once and fills the streaming histogram from it in
//!   one merge pass, and [`record_binned`](ResponseStats::record_binned)
//!   defers a fixed-edge [`Histogram`]'s bucketing to the same sorted
//!   store. The derived views are bit-identical to recording each
//!   sample into them, and every read taken before `finalize` derives
//!   them on the spot, so no reader can tell.
//! * [`StatsMode::Streaming`] — keeps only the bounded-memory
//!   [`StreamingHistogram`](super::StreamingHistogram), which tracks
//!   count, sum, min and max exactly. Memory is O(buckets) regardless
//!   of run length, which is what lets a 10⁸-request replay finish in
//!   a fixed RSS budget. Percentiles
//!   carry the histogram's documented relative-error bound (1% by
//!   default).
//!
//! The two modes agree exactly on `count`, `mean`, `min`, `max`, and
//! `sum`, and on the streaming view itself; percentiles agree within
//! [`relative_error`](ResponseStats::relative_error). The policy
//! (DESIGN.md, "Streaming data plane") is: exact mode for runs small
//! enough to hold every sample (the default `repro` report scale), and
//! streaming for scale runs, calibrated against an exact-mode run at a
//! smaller request count.

use std::borrow::Cow;

use super::histogram::Histogram;
use super::streamhist::StreamingHistogram;
use super::summary::Summary;

/// How a [`ResponseStats`] stores its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StatsMode {
    /// Keep every sample: exact percentiles, O(samples) memory.
    #[default]
    Exact,
    /// Bounded memory: streaming histogram with exact count, sum and
    /// extremes.
    Streaming,
}

/// Response-time statistics with a selectable exact/streaming backend.
///
/// The accessor surface mirrors [`Summary`]'s (`record`, `count`,
/// `mean`, `min`, `max`, `percentile`, `finalize`); the streaming view
/// is always available through [`percentile_stream`] and [`stream`].
///
/// [`percentile_stream`]: ResponseStats::percentile_stream
/// [`stream`]: ResponseStats::stream
#[derive(Debug, Clone)]
pub struct ResponseStats {
    /// Present only in exact mode.
    exact: Option<Summary>,
    /// The bounded-memory view (also the exact count/sum/min/max
    /// carrier in streaming mode). Streaming mode records into it;
    /// exact mode derives it from the samples, and it is up to date
    /// exactly when its count equals theirs (see [`Self::synced`]).
    stream: StreamingHistogram,
}

impl ResponseStats {
    /// Creates an exact-mode accumulator (the oracle; default).
    pub fn exact() -> Self {
        Self::with_mode(StatsMode::Exact)
    }

    /// Creates a bounded-memory streaming accumulator.
    pub fn streaming() -> Self {
        Self::with_mode(StatsMode::Streaming)
    }

    /// Creates an accumulator in the given mode.
    pub fn with_mode(mode: StatsMode) -> Self {
        ResponseStats {
            exact: match mode {
                StatsMode::Exact => Some(Summary::new()),
                StatsMode::Streaming => None,
            },
            stream: StreamingHistogram::new(),
        }
    }

    /// The active mode.
    pub fn mode(&self) -> StatsMode {
        if self.exact.is_some() {
            StatsMode::Exact
        } else {
            StatsMode::Streaming
        }
    }

    /// True if the exact sample store is present.
    pub fn is_exact(&self) -> bool {
        self.exact.is_some()
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics, in either mode, if `value` is NaN, negative or infinite:
    /// response times are finite and non-negative, and anything else is
    /// an upstream unit bug.
    // Hot path: per-completion stats path.
    #[inline]
    pub fn record(&mut self, value: f64) {
        assert!(
            (0.0..f64::INFINITY).contains(&value),
            "negative, infinite or NaN sample: {value}"
        );
        match self.exact.as_mut() {
            Some(s) => {
                s.record(value);
                self.stream.defer_record();
            }
            None => self.stream.record(value),
        }
    }

    /// Records one sample here and counts it in `hist`, a fixed-edge
    /// view of the same samples. Streaming mode buckets it at once;
    /// exact mode leaves the bucketing to [`sync_hist`](Self::sync_hist),
    /// which fills `hist` from the sorted samples at the end of a run.
    // Hot path: per-completion stats path.
    #[inline]
    pub fn record_binned(&mut self, value: f64, hist: &mut Histogram) {
        self.record(value);
        if self.exact.is_some() {
            hist.defer_record();
        } else {
            hist.record(value);
        }
    }

    /// Brings `hist`, which [`record_binned`](Self::record_binned) fed
    /// every sample of this accumulator, up to date: in exact mode,
    /// refills it from the samples if it lags them. Call it after
    /// [`finalize`](Self::finalize) for the one-pass fill.
    pub fn sync_hist(&self, hist: &mut Histogram) {
        if let Some(s) = &self.exact {
            if hist.total() != s.count() as u64 {
                hist.fill(s.samples(), s.is_sorted());
            }
        }
    }

    /// Forgets the records counted toward the deterministic counters so
    /// far: none of them will flush.
    pub fn forget_records(&self) {
        self.stream.forget_records();
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        match &self.exact {
            Some(s) => s.count(),
            None => self.stream.count() as usize,
        }
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean, or 0 if empty (exact in both modes).
    pub fn mean(&self) -> f64 {
        match &self.exact {
            Some(s) => s.mean(),
            None => self.stream.mean(),
        }
    }

    /// Smallest sample, or 0 if empty (exact in both modes).
    pub fn min(&self) -> f64 {
        match &self.exact {
            Some(s) => s.min(),
            None => self.stream.min(),
        }
    }

    /// Largest sample, or 0 if empty (exact in both modes).
    pub fn max(&self) -> f64 {
        match &self.exact {
            Some(s) => s.max(),
            None => self.stream.max(),
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100, nearest rank), or 0 if
    /// empty. Exact in exact mode; within
    /// [`relative_error`](ResponseStats::relative_error) in streaming
    /// mode.
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        match &self.exact {
            Some(s) => s.percentile(p),
            None => self.stream.percentile(p),
        }
    }

    /// The `p`-th percentile from the bounded-memory histogram,
    /// regardless of mode — agrees with
    /// [`percentile`](ResponseStats::percentile) within
    /// [`relative_error`](ResponseStats::relative_error). In exact mode
    /// this is the view the scale-calibration oracle checks against.
    pub fn percentile_stream(&self, p: f64) -> f64 {
        self.stream().percentile(p)
    }

    /// The relative-error bound of streaming-percentile reads.
    pub fn relative_error(&self) -> f64 {
        self.stream.relative_error()
    }

    /// Sorts the exact sample store (if present) so percentile queries
    /// are indexed reads, and fills the streaming view from it in one
    /// pass; a no-op in streaming mode. Run loops call this once when a
    /// replay ends.
    pub fn finalize(&mut self) {
        if let Some(s) = self.exact.as_mut() {
            s.finalize();
        }
        self.sync();
    }

    /// True if the streaming view is up to date: always in streaming
    /// mode, and in exact mode when it counts every sample. The view
    /// is only ever derived from all the samples, so a full count means
    /// a full view.
    fn synced(&self) -> bool {
        self.exact
            .as_ref()
            .is_none_or(|s| self.stream.count() == s.count() as u64)
    }

    /// Derives the streaming view from the samples if it lags them.
    fn sync(&mut self) {
        if !self.synced() {
            if let Some(s) = &self.exact {
                Self::derive(&mut self.stream, s);
            }
        }
    }

    /// Fills `view` from the sample store: the buckets, count, sum and
    /// extremes of recording every sample into it.
    fn derive(view: &mut StreamingHistogram, s: &Summary) {
        let (min, max) = s.extremes();
        view.fill(s.samples(), s.is_sorted(), s.sum(), min, max);
    }

    /// The bounded-memory histogram view (bucket export, error bound):
    /// borrowed when up to date, derived from the samples otherwise
    /// (exact mode before [`finalize`](Self::finalize)).
    pub fn stream(&self) -> Cow<'_, StreamingHistogram> {
        match &self.exact {
            Some(s) if !self.synced() => {
                let mut view = self.stream.clone();
                Self::derive(&mut view, s);
                Cow::Owned(view)
            }
            _ => Cow::Borrowed(&self.stream),
        }
    }
}

/// Equal samples (and, in exact mode, sample order) give equal stats,
/// whether or not either side's streaming view has been derived yet.
impl PartialEq for ResponseStats {
    fn eq(&self, other: &Self) -> bool {
        self.exact == other.exact && self.stream() == other.stream()
    }
}

impl Default for ResponseStats {
    fn default() -> Self {
        Self::exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency_mix(n: u64) -> impl Iterator<Item = f64> {
        // Four decades, latency-shaped.
        (1..=n).map(|i| 0.05 * (i as f64).powf(1.3))
    }

    #[test]
    #[should_panic(expected = "infinite")]
    fn exact_mode_rejects_an_infinite_sample() {
        ResponseStats::exact().record(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "infinite")]
    fn streaming_mode_rejects_an_infinite_sample() {
        ResponseStats::streaming().record(f64::INFINITY);
    }

    #[test]
    fn exact_mode_matches_raw_summary() {
        let mut r = ResponseStats::exact();
        let mut s = Summary::new();
        for v in latency_mix(5_000) {
            r.record(v);
            s.record(v);
        }
        r.finalize();
        s.finalize();
        assert_eq!(r.count(), s.count());
        assert_eq!(r.mean(), s.mean());
        assert_eq!(r.min(), s.min());
        assert_eq!(r.max(), s.max());
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(r.percentile(p), s.percentile(p), "p{p}");
        }
    }

    #[test]
    fn streaming_mode_within_documented_bound() {
        let mut stream = ResponseStats::streaming();
        let mut exact = ResponseStats::exact();
        for v in latency_mix(10_000) {
            stream.record(v);
            exact.record(v);
        }
        exact.finalize();
        assert_eq!(stream.count(), exact.count());
        assert_eq!(stream.min(), exact.min());
        assert_eq!(stream.max(), exact.max());
        assert!((stream.mean() - exact.mean()).abs() < 1e-9);
        for p in [10.0, 50.0, 90.0, 99.0] {
            let e = exact.percentile(p);
            let s = stream.percentile(p);
            assert!(
                (s - e).abs() / e <= stream.relative_error() + 1e-12,
                "p{p}: stream {s} vs exact {e}"
            );
        }
    }

    #[test]
    fn streaming_uses_bounded_memory_backend() {
        let r = ResponseStats::streaming();
        assert_eq!(r.mode(), StatsMode::Streaming);
        assert!(!r.is_exact());
        assert!(r.stream().buckets() < 1_200);
    }

    #[test]
    fn empty_is_zeroes_in_both_modes() {
        for mode in [StatsMode::Exact, StatsMode::Streaming] {
            let r = ResponseStats::with_mode(mode);
            assert!(r.is_empty());
            assert_eq!(r.count(), 0);
            assert_eq!(r.mean(), 0.0);
            assert_eq!(r.min(), 0.0);
            assert_eq!(r.max(), 0.0);
            assert_eq!(r.percentile(90.0), 0.0);
        }
    }

    #[test]
    fn percentile_stream_available_in_exact_mode() {
        let mut r = ResponseStats::exact();
        for v in latency_mix(1_000) {
            r.record(v);
        }
        r.finalize();
        let e = r.percentile(90.0);
        let s = r.percentile_stream(90.0);
        assert!((s - e).abs() / e <= r.relative_error() + 1e-12);
    }
}
