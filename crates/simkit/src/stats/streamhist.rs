//! Streaming log-bucketed histogram: bounded-memory percentiles.
//!
//! [`Summary`](super::Summary) keeps every sample, which is exact but
//! cannot scale to the ROADMAP's "millions of users" north star — a
//! billion-request run would hold a billion `f64`s. [`StreamingHistogram`]
//! is the bounded-memory replacement: samples land in geometrically
//! spaced buckets, so memory is O(buckets) regardless of sample count
//! and every percentile query carries a *documented relative-error
//! bound*.
//!
//! # Error bound
//!
//! Every histogram has the same layout: relative error `r = 1%`, bucket
//! edges growing by `(1 + r)^2` per bucket from `floor = 1 µs` until
//! they reach `cap = 1000 s` (in milliseconds), ~1 040 buckets
//! (≈ 8 KiB). A percentile estimate is the geometric mean of its
//! bucket's bounds, so for any true value `v` inside the resolvable
//! range `[floor, cap]`:
//!
//! ```text
//! |estimate − v| / v ≤ r
//! ```
//!
//! Values at or below `floor` report the exact tracked minimum
//! (absolute error ≤ `floor`); values above `cap` report the exact
//! tracked maximum. That covers every latency this simulator can
//! produce.
//!
//! # Determinism
//!
//! The bucket edges are computed once per process by repeated
//! multiplication — the same float operations in the same order on
//! every run — and shared by every histogram. A lookup reads one cell
//! of a table that splits each octave of the resolvable range into 64
//! equal cells and stores the first edge at or above each cell's start;
//! a cell is narrower than a bucket, so one comparison against that
//! edge finishes the lookup, with exactly the result of a binary search
//! over the edges. The histogram is therefore a pure function of its
//! sample multiset. Counts (and therefore percentiles, min, max, total) are
//! order-independent; only `sum` (and thus `mean`) depends on the
//! insertion order of float additions, which a run's record order
//! fixes.

use std::sync::{Arc, OnceLock};

/// Relative-error bound for percentile estimates (1%).
const RELATIVE_ERROR: f64 = 0.01;
/// Smallest resolvable value (1 µs, in ms).
const FLOOR: f64 = 1e-3;
/// Largest resolvable value (1000 s, in ms).
const CAP: f64 = 1e6;

/// log2 of the lookup cells per octave: 64 cells, each at most
/// `1/64` of its octave wide (a ratio of ≤ 1.0157 between its ends),
/// narrower than one bucket (`(1 + RELATIVE_ERROR)^2 = 1.0201`), so at
/// most one edge lies inside any cell.
const CELL_BITS: u32 = 6;
/// Right shift from an `f64`'s bits (sign cleared) to its cell key:
/// the biased exponent followed by the top [`CELL_BITS`] mantissa bits.
const CELL_SHIFT: u32 = 52 - CELL_BITS;
/// Cell key of the first cell, the start of `FLOOR`'s octave: every
/// value below it is below the first edge.
const FIRST_KEY: u64 = (FLOOR.to_bits() >> 52) << CELL_BITS;

/// A bounded-memory histogram over geometrically spaced buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    /// Upper bucket edges of the one [`Layout`] every histogram shares.
    edges: Arc<[f64]>,
    /// `edges.len() + 1` buckets: bucket `0` holds values `≤ floor`,
    /// bucket `i` holds `(edges[i-1], edges[i]]`, and the final bucket
    /// holds values above the last edge.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// The shared layout's lookup cells (see [`Layout::cells`]).
    cells: Arc<[u16]>,
    /// Deterministic record counter, flushed to
    /// [`crate::counters::STREAMHIST_RECORDS`] on drop. Clones to zero
    /// and always compares equal, so the derived `Clone` / `PartialEq`
    /// semantics are those of the histogram state alone.
    records: crate::counters::DropCounter,
}

impl StreamingHistogram {
    /// Creates an empty histogram: 1% error bound over
    /// `[1 µs, 1000 s]` (in milliseconds).
    pub fn new() -> Self {
        let layout = Layout::get();
        StreamingHistogram {
            edges: Arc::clone(&layout.edges),
            counts: vec![0; layout.edges.len() + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            cells: Arc::clone(&layout.cells),
            records: crate::counters::DropCounter::new(&crate::counters::STREAMHIST_RECORDS),
        }
    }

    /// Forgets the records counted toward `simkit.hist.stream_records`
    /// so far: none of them will flush.
    pub fn forget_records(&self) {
        self.records.take();
    }

    /// The documented relative-error bound for percentile estimates of
    /// values inside the resolvable range.
    pub fn relative_error(&self) -> f64 {
        RELATIVE_ERROR
    }

    /// Smallest resolvable value; everything at or below it shares
    /// bucket 0.
    pub fn floor(&self) -> f64 {
        self.edges[0]
    }

    /// Largest resolvable value; everything above the last edge shares
    /// the overflow bucket.
    pub fn cap(&self) -> f64 {
        self.edges[self.edges.len() - 1]
    }

    /// Number of buckets (memory is O(this), independent of samples).
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics if `value` is NaN or negative (latencies are
    /// non-negative; a negative sample is an upstream unit bug).
    // Hot path: per-sample stats path; called for every completed
    // request.
    pub fn record(&mut self, value: f64) {
        assert!(value >= 0.0, "negative or NaN sample: {value}");
        let idx = self.bucket(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.records.bump();
    }

    /// The bucket of a non-negative `value`: the number of edges below
    /// it.
    #[inline]
    fn bucket(&self, value: f64) -> usize {
        // Exact `partition_point` semantics from one table read: every
        // edge below the cell's start is below `value`, and at most one
        // edge, `edges[lo]`, lies inside the cell. Keys below the table
        // are below the first edge; keys above it are above the last.
        // The mask drops the sign bit, so `-0.0` looks up like `0.0`.
        let key = (value.to_bits() & !(1 << 63)) >> CELL_SHIFT;
        match self.cells.get(key.wrapping_sub(FIRST_KEY) as usize) {
            Some(&lo) => {
                let lo = usize::from(lo);
                lo + usize::from(self.edges[lo] < value)
            }
            None if key < FIRST_KEY => 0,
            None => self.edges.len(),
        }
    }

    /// Counts one record toward `simkit.hist.stream_records` whose
    /// sample a later [`fill`](Self::fill) buckets: exact-mode
    /// `ResponseStats` keeps the samples and derives this view from
    /// them.
    #[inline]
    pub(crate) fn defer_record(&self) {
        self.records.bump();
    }

    /// Replaces the counts and moments with those of recording
    /// `samples` one by one, without counting records. `sum`, `min` and
    /// `max` are the recorder's running values over the same record
    /// sequence, which [`record`](Self::record) would have accumulated
    /// with the same operations, so they carry the same bits. Ascending
    /// samples take one merge pass over the edges; others a lookup
    /// each. Every sample must be non-negative (or `-0.0`).
    pub(crate) fn fill(&mut self, samples: &[f64], sorted: bool, sum: f64, min: f64, max: f64) {
        self.counts.fill(0);
        if sorted {
            let mut idx = 0;
            for &v in samples {
                while idx < self.edges.len() && self.edges[idx] < v {
                    idx += 1;
                }
                self.counts[idx] += 1;
            }
        } else {
            for &v in samples {
                let idx = self.bucket(v);
                self.counts[idx] += 1;
            }
        }
        self.total = samples.len() as u64;
        self.sum = sum;
        self.min = min;
        self.max = max;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Exact smallest sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100) by the nearest-rank method
    /// (the same rank rule as [`Summary`](super::Summary)), or 0 if
    /// empty. The estimate obeys the error bound documented at the
    /// module level and is always clamped into `[min, max]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut cum = 0u64;
        let mut idx = self.counts.len() - 1;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                idx = i;
                break;
            }
        }
        let est = if idx == 0 {
            // Sub-floor bucket: the tracked minimum is in it whenever
            // it is non-empty, and |min − v| ≤ floor for every v here.
            self.min
        } else if idx == self.counts.len() - 1 {
            // Overflow bucket: the tracked maximum is in it.
            self.max
        } else {
            // Geometric mean of the bucket bounds: off by at most a
            // factor of sqrt(growth) = 1 + RELATIVE_ERROR either way.
            (self.edges[idx - 1] * self.edges[idx]).sqrt()
        };
        est.clamp(self.min, self.max)
    }

    /// Per-bucket counts over the resolvable range, as
    /// `(lower, upper, count)` triples for the non-empty buckets —
    /// what an exporter needs to rebuild the distribution.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        let mut out = Vec::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = if i == 0 {
                (0.0, self.edges[0])
            } else if i == self.counts.len() - 1 {
                (self.edges[i - 1], f64::INFINITY)
            } else {
                (self.edges[i - 1], self.edges[i])
            };
            out.push((lo, hi, c));
        }
        out
    }
}

/// The bucket layout every histogram shares: the edge table and its
/// lookup cells, built once per process.
#[derive(Debug)]
struct Layout {
    /// Upper bucket edges: `edges[0] = FLOOR`, `edges[i] = FLOOR·g^i`
    /// with `g = (1 + RELATIVE_ERROR)^2`, strictly increasing, last
    /// edge ≥ `CAP`.
    edges: Arc<[f64]>,
    /// First-edge index per lookup cell. The cells split every octave
    /// from `FLOOR`'s to the last edge's into `2^CELL_BITS` equal
    /// parts; `cells[k]` is the number of edges below the start of the
    /// cell whose key is `FIRST_KEY + k`, capped at the last edge's
    /// index (a cell above every edge still compares against one). 30
    /// octaves of 64 cells: 1 920 `u16`s (≈ 4 KiB).
    cells: Arc<[u16]>,
}

impl Layout {
    /// The shared layout, built on first use.
    fn get() -> &'static Layout {
        static LAYOUT: OnceLock<Layout> = OnceLock::new();
        LAYOUT.get_or_init(Layout::build)
    }

    fn build() -> Layout {
        let growth = (1.0 + RELATIVE_ERROR) * (1.0 + RELATIVE_ERROR);
        let mut edges = vec![FLOOR];
        let mut edge = FLOOR;
        while edge < CAP {
            edge *= growth;
            edges.push(edge);
        }
        // A cell's start is its key shifted back into place: exponent
        // and top mantissa bits, the low mantissa bits zero.
        let last = edges[edges.len() - 1];
        let end_key = ((last.to_bits() >> 52) + 1) << CELL_BITS;
        assert!(
            edges.len() <= usize::from(u16::MAX),
            "edge index overflows a cell"
        );
        let cells = (FIRST_KEY..end_key)
            .map(|key| {
                let start = f64::from_bits(key << CELL_SHIFT);
                let end = f64::from_bits((key + 1) << CELL_SHIFT);
                let lo = edges.partition_point(|&x| x < start).min(edges.len() - 1);
                assert!(
                    edges.get(lo + 1).is_none_or(|&x| x >= end),
                    "two edges in the cell starting at {start}"
                );
                lo as u16
            })
            .collect();
        Layout {
            edges: edges.into(),
            cells,
        }
    }
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn exponent_index_matches_full_partition_point() {
        // The cell-table lookup must agree with a binary search over the
        // whole edge array for every value, including bucket-edge hits,
        // zero, sub-floor, and above-cap samples.
        let mut h = StreamingHistogram::new();
        let mut rng = crate::Rng64::new(7);
        let mut probes = vec![0.0, 1e-9, FLOOR, CAP, 2.0 * CAP];
        probes.extend(h.edges.iter().step_by(97).copied());
        for _ in 0..2_000 {
            let mag = rng.f64() * 24.0 - 12.0;
            probes.push(10f64.powf(mag));
        }
        for &v in &probes {
            let expect = h.edges.partition_point(|&e| e < v);
            let before: u64 = h.counts[expect];
            h.record(v);
            assert_eq!(h.counts[expect], before + 1, "wrong bucket for {v}");
        }
    }

    #[test]
    fn cell_lookup_matches_partition_point_at_every_boundary() {
        // The one-comparison lookup against a binary search over the
        // whole edge array, at every value where either could change its
        // answer: each cell's start and the float just below it (one
        // cell past each end of the table too), each edge and its two
        // float neighbours, and the extremes of the f64 line.
        let h = StreamingHistogram::new();
        let end_key = FIRST_KEY + h.cells.len() as u64;
        let mut probes = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            FLOOR,
            CAP,
            2.0 * CAP,
            f64::INFINITY,
        ];
        for key in FIRST_KEY - 1..=end_key {
            let start = f64::from_bits(key << CELL_SHIFT);
            probes.extend([start, start.next_down()]);
        }
        for &e in h.edges.iter() {
            probes.extend([e.next_down(), e, e.next_up()]);
        }
        for &v in &probes {
            let want = h.edges.partition_point(|&e| e < v);
            assert_eq!(h.bucket(v), want, "bucket of {v:e} ({:#x})", v.to_bits());
        }
        // Thirty octaves (2^-10 ms up to the last edge's 2^19) of 64
        // cells: a 3 840-byte table.
        assert_eq!(h.cells.len(), 30 << CELL_BITS);
    }

    #[test]
    fn empty_is_zeroes() {
        let h = StreamingHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(90.0), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn default_range_and_size() {
        let h = StreamingHistogram::new();
        assert!(h.floor() <= FLOOR);
        assert!(h.cap() >= CAP);
        // ln(1e9) / ln(1.01^2) ≈ 1 042 buckets — bounded memory.
        assert!(h.buckets() < 1_200, "{} buckets", h.buckets());
    }

    #[test]
    fn percentiles_within_bound_vs_exact() {
        let mut stream = StreamingHistogram::new();
        let mut exact = Summary::new();
        // A latency-shaped spread over four decades.
        for i in 1..=10_000u64 {
            let v = 0.05 * (i as f64).powf(1.3);
            stream.record(v);
            exact.record(v);
        }
        exact.finalize();
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let e = exact.percentile(p);
            let s = stream.percentile(p);
            assert!(
                (s - e).abs() / e <= stream.relative_error() + 1e-12,
                "p{p}: stream {s} vs exact {e}"
            );
        }
    }

    #[test]
    fn min_max_mean_exact() {
        let mut h = StreamingHistogram::new();
        for v in [4.0, 1.0, 7.0] {
            h.record(v);
        }
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 7.0);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn sub_floor_and_overflow_report_tracked_extremes() {
        let mut h = StreamingHistogram::new();
        h.record(0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        h.record(5e7); // far above cap
        assert_eq!(h.percentile(100.0), 5e7);
    }

    #[test]
    fn counts_are_order_independent() {
        let vals: Vec<f64> = (1..500u64).map(|i| (i as f64) * 0.11).collect();
        let mut fwd = StreamingHistogram::new();
        let mut rev = StreamingHistogram::new();
        for &v in &vals {
            fwd.record(v);
        }
        for &v in vals.iter().rev() {
            rev.record(v);
        }
        for p in [1.0, 50.0, 90.0, 100.0] {
            assert_eq!(fwd.percentile(p), rev.percentile(p));
        }
        assert_eq!(fwd.nonzero_buckets(), rev.nonzero_buckets());
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn nan_rejected() {
        StreamingHistogram::new().record(f64::NAN);
    }

    #[test]
    fn every_histogram_shares_one_layout() {
        let a = StreamingHistogram::new();
        let mut recorded = StreamingHistogram::new();
        recorded.record(2.5);
        let cloned = recorded.clone();
        for h in [&recorded, &cloned] {
            assert!(Arc::ptr_eq(&a.edges, &h.edges));
            assert!(Arc::ptr_eq(&a.cells, &h.cells));
        }
        assert_eq!(cloned, recorded);
        // The shared table is exactly what the multiplication chain
        // builds.
        let built = Layout::build();
        assert_eq!(built.edges, a.edges);
        assert_eq!(built.cells, a.cells);
        assert_eq!(a.relative_error(), RELATIVE_ERROR);
    }
}
