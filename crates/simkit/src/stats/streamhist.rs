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
//! With relative error `r`, bucket edges grow by `(1 + r)^2` per
//! bucket and a percentile estimate is the geometric mean of its
//! bucket's bounds, so for any true value `v` inside the resolvable
//! range `[floor, cap]`:
//!
//! ```text
//! |estimate − v| / v ≤ r
//! ```
//!
//! Values at or below `floor` report the exact tracked minimum
//! (absolute error ≤ `floor`); values above `cap` report the exact
//! tracked maximum. The defaults (`r = 1%`, `floor = 1 µs`,
//! `cap = 1000 s`, expressed in milliseconds) cover every latency this
//! simulator can produce with ~1 040 buckets (≈ 8 KiB).
//!
//! # Determinism
//!
//! Bucket edges are precomputed by repeated multiplication — the same
//! float operations in the same order on every run — and lookups are a
//! binary search, so the histogram is a pure function of its sample
//! multiset. Counts (and therefore percentiles, min, max, total) are
//! order-independent; only `sum` (and thus `mean`) depends on the
//! insertion order of float additions, which the deterministic
//! plan-order reduction of parallel sweeps fixes.

use std::sync::{Arc, OnceLock};

use super::codec::{self, DecodeError, Reader};

/// Default relative-error bound for percentile estimates (1%).
pub const DEFAULT_RELATIVE_ERROR: f64 = 0.01;

/// Format tag for serialized histograms (see [`StreamingHistogram::to_bytes`]).
const MAGIC: &[u8; 4] = b"SHG1";
/// Default smallest resolvable value (1 µs, in ms).
pub const DEFAULT_FLOOR: f64 = 1e-3;
/// Default largest resolvable value (1000 s, in ms).
pub const DEFAULT_CAP: f64 = 1e6;

/// A bounded-memory histogram over geometrically spaced buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    /// Upper bucket edges: `edges[0] = floor`, `edges[i] = floor·g^i`,
    /// strictly increasing, last edge ≥ `cap`. Shared, like
    /// `exp_index`: every default-configured histogram points at the
    /// one table [`default_layout`] builds.
    edges: Arc<[f64]>,
    /// `edges.len() + 1` buckets: bucket `0` holds values `≤ floor`,
    /// bucket `i` holds `(edges[i-1], edges[i]]`, and the final bucket
    /// holds values above the last edge.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
    rel_err: f64,
    growth: f64,
    /// First-edge index per f64 binary exponent: `exp_index[e]` is the
    /// number of edges below the smallest value whose biased exponent
    /// is `e` (entry 2048 = `edges.len()`, the bound for infinities).
    /// Narrows [`record`](Self::record)'s search to one octave —
    /// ~`ln 2 / ln(growth)` edges — instead of the whole edge array.
    /// Derived from `edges`, so equal configurations compare equal.
    exp_index: Arc<[u32]>,
    /// Deterministic record counter, flushed to
    /// [`crate::counters::STREAMHIST_RECORDS`] on drop. Clones to zero
    /// and always compares equal, so the derived `Clone` / `PartialEq`
    /// semantics (and the `to_bytes` round trip) are unchanged.
    records: crate::counters::DropCounter,
}

impl StreamingHistogram {
    /// Creates a histogram with the default 1% error bound over the
    /// default `[1 µs, 1000 s]` range (in milliseconds).
    pub fn new() -> Self {
        Self::with_relative_error(DEFAULT_RELATIVE_ERROR)
    }

    /// Creates a histogram with the given relative-error bound over
    /// the default range.
    ///
    /// # Panics
    /// Panics if `rel_err` is outside `(0, 0.5]`.
    pub fn with_relative_error(rel_err: f64) -> Self {
        Self::with_config(rel_err, DEFAULT_FLOOR, DEFAULT_CAP)
    }

    /// Creates a histogram resolving `[floor, cap]` with relative
    /// error `rel_err`.
    ///
    /// # Panics
    /// Panics if `rel_err` is outside `(0, 0.5]` or `0 < floor < cap`
    /// does not hold.
    pub fn with_config(rel_err: f64, floor: f64, cap: f64) -> Self {
        assert!(
            rel_err > 0.0 && rel_err <= 0.5,
            "relative error must be in (0, 0.5]: {rel_err}"
        );
        assert!(
            floor > 0.0 && floor < cap && cap.is_finite(),
            "need 0 < floor < cap: [{floor}, {cap}]"
        );
        let growth = (1.0 + rel_err) * (1.0 + rel_err);
        let (edges, exp_index) = shared_layout(rel_err, floor, cap)
            .unwrap_or_else(|| build_layout(growth, floor, cap));
        let counts = vec![0; edges.len() + 1];
        StreamingHistogram {
            edges,
            counts,
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rel_err,
            growth,
            exp_index,
            records: crate::counters::DropCounter::new(&crate::counters::STREAMHIST_RECORDS),
        }
    }

    /// The documented relative-error bound for percentile estimates of
    /// values inside the resolvable range.
    pub fn relative_error(&self) -> f64 {
        self.rel_err
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
    // simlint: hot — per-sample stats path; called for every completed
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
        // Two-level lookup with exact `partition_point` semantics: the
        // exponent table brackets the answer inside one octave (for
        // `value` in `[2^k, 2^(k+1))` every edge below `2^k` is below
        // `value`, and none at or above `2^(k+1)` is), then a binary
        // search over those few edges finishes the job. The mask drops
        // the sign bit, so `-0.0` looks up like `0.0`.
        let e = ((value.to_bits() >> 52) & 0x7ff) as usize;
        let lo = self.exp_index[e] as usize;
        let hi = self.exp_index[e + 1] as usize;
        lo + self.edges[lo..hi].partition_point(|&x| x < value)
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
            // factor of sqrt(growth) = 1 + rel_err either way.
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

    /// Merges another histogram with the same configuration into this
    /// one. Counts, totals, min/max merge exactly; `sum` (and so
    /// `mean`) is subject to float-addition ordering, which plan-order
    /// sweep reduction makes deterministic.
    ///
    /// # Panics
    /// Panics if the configurations differ.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        assert!(
            self.edges.len() == other.edges.len()
                && (self.growth - other.growth).abs() < 1e-12
                && (self.edges[0] - other.edges[0]).abs() < 1e-12,
            "incompatible streaming-histogram configurations"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serializes the full histogram state to a canonical byte string.
    ///
    /// The encoding stores the configuration (`rel_err`, floor, last
    /// edge) plus the moments and a sparse `(bucket, count)` list, all
    /// little-endian, so the blob is a pure function of the histogram
    /// state — equal histograms encode to equal bytes on every host.
    /// [`from_bytes`](Self::from_bytes) rebuilds the edge table by
    /// re-running the constructor's multiplication chain (or, for the
    /// default configuration, reuses the shared table that chain
    /// produced), which reproduces the exact same floats; the round
    /// trip is the identity under `==`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nonzero = self.counts.iter().filter(|&&c| c != 0).count();
        let mut out = Vec::with_capacity(4 + 8 * 7 + nonzero * 12);
        out.extend_from_slice(MAGIC);
        codec::put_f64(&mut out, self.rel_err);
        codec::put_f64(&mut out, self.edges[0]);
        codec::put_f64(&mut out, self.edges[self.edges.len() - 1]);
        codec::put_u64(&mut out, self.total);
        codec::put_f64(&mut out, self.sum);
        codec::put_f64(&mut out, self.min);
        codec::put_f64(&mut out, self.max);
        codec::put_u64(&mut out, nonzero as u64);
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                codec::put_u32(&mut out, i as u32);
                codec::put_u64(&mut out, c);
            }
        }
        out
    }

    /// Reconstructs a histogram from [`to_bytes`](Self::to_bytes)
    /// output. The result compares equal to the encoded histogram.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let h = Self::read_from(&mut r)?;
        if !r.is_done() {
            return Err(DecodeError::Corrupt("trailing bytes"));
        }
        Ok(h)
    }

    /// Decodes one histogram at the reader's cursor (embedded form,
    /// used by `ResponseStats` snapshots).
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.expect_magic(MAGIC)?;
        let rel_err = r.f64()?;
        let floor = r.f64()?;
        let last_edge = r.f64()?;
        if !(rel_err > 0.0 && rel_err <= 0.5) {
            return Err(DecodeError::Corrupt("relative error out of range"));
        }
        if !(floor > 0.0 && floor < last_edge && last_edge.is_finite()) {
            return Err(DecodeError::Corrupt("edge range invalid"));
        }
        // `with_config` stops as soon as an edge reaches the cap, so
        // passing the original last edge back in regenerates exactly
        // the original edge table (same multiplications, same floats);
        // for a default histogram it is the shared default table, whose
        // last edge the check below then compares against.
        let mut h = Self::with_config(rel_err, floor, last_edge);
        if h.edges[h.edges.len() - 1] != last_edge {
            return Err(DecodeError::Corrupt("edge table does not regenerate"));
        }
        h.total = r.u64()?;
        h.sum = r.f64()?;
        h.min = r.f64()?;
        h.max = r.f64()?;
        let nonzero = r.u64()?;
        let mut seen = 0u64;
        for _ in 0..nonzero {
            let idx = r.u32()? as usize;
            let count = r.u64()?;
            if idx >= h.counts.len() {
                return Err(DecodeError::Corrupt("bucket index out of range"));
            }
            if count == 0 {
                return Err(DecodeError::Corrupt("zero count in sparse list"));
            }
            h.counts[idx] = count;
            seen = seen
                .checked_add(count)
                .ok_or(DecodeError::Corrupt("count overflow"))?;
        }
        if seen != h.total {
            return Err(DecodeError::Corrupt("bucket counts disagree with total"));
        }
        if h.sum.is_nan() || h.min.is_nan() || h.max.is_nan() {
            return Err(DecodeError::Corrupt("NaN moment"));
        }
        Ok(h)
    }

    /// Serializes into an existing buffer (embedded form, used by
    /// `ResponseStats` snapshots).
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
}

/// A bucket layout: the edge table and its exponent index.
type Layout = (Arc<[f64]>, Arc<[u32]>);

/// Builds the bucket layout for `[floor, cap]` at growth `growth`.
fn build_layout(growth: f64, floor: f64, cap: f64) -> Layout {
    let mut edges = vec![floor];
    let mut edge = floor;
    while edge < cap {
        edge *= growth;
        edges.push(edge);
    }
    // exp_index[e] = edges.partition_point(< 2^(e-1023)); the bit
    // pattern `e << 52` IS that power of two (0.0 for e = 0, +inf
    // for e = 2047), so one table covers subnormals through inf.
    let exp_index = (0..=2048u64)
        .map(|e| {
            let boundary = f64::from_bits(e.min(2047) << 52);
            let idx = if e == 2048 {
                edges.len()
            } else {
                edges.partition_point(|&x| x < boundary)
            };
            idx as u32
        })
        .collect();
    (edges.into(), exp_index)
}

/// The default configuration's layout, built once per process. It is
/// an immutable function of the default constants, so sharing it
/// changes no histogram's behavior — only the ~1 040-edge rebuild and
/// its 16 KiB per histogram go away.
fn default_layout() -> &'static Layout {
    static DEFAULT: OnceLock<Layout> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        let growth = (1.0 + DEFAULT_RELATIVE_ERROR) * (1.0 + DEFAULT_RELATIVE_ERROR);
        build_layout(growth, DEFAULT_FLOOR, DEFAULT_CAP)
    })
}

/// The shared default layout, if `(rel_err, floor, cap)` regenerates
/// it: same error bound and floor, and a cap that stops the edge
/// chain on the default table's last edge — above the second-to-last
/// edge and at most the last. That holds for `DEFAULT_CAP` and for
/// the decoded last edge of a default histogram alike.
fn shared_layout(rel_err: f64, floor: f64, cap: f64) -> Option<Layout> {
    let (edges, exp_index) = default_layout();
    let n = edges.len();
    let regenerates = rel_err.to_bits() == DEFAULT_RELATIVE_ERROR.to_bits()
        && floor.to_bits() == DEFAULT_FLOOR.to_bits()
        && edges[n - 2] < cap
        && cap <= edges[n - 1];
    regenerates.then(|| (Arc::clone(edges), Arc::clone(exp_index)))
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
        // The two-level lookup must agree with a binary search over the
        // whole edge array for every value, including bucket-edge hits,
        // zero, sub-floor, and above-cap samples.
        let mut h = StreamingHistogram::new();
        let mut rng = crate::Rng64::new(7);
        let mut probes = vec![0.0, 1e-9, DEFAULT_FLOOR, DEFAULT_CAP, 2.0 * DEFAULT_CAP];
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
        assert!(h.floor() <= DEFAULT_FLOOR);
        assert!(h.cap() >= DEFAULT_CAP);
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
    fn merge_matches_single_stream() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        let mut whole = StreamingHistogram::new();
        for i in 0..1000u64 {
            let v = 0.5 + (i as f64) * 0.37;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p{p}");
        }
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
    fn bytes_round_trip_is_identity() {
        let mut h = StreamingHistogram::new();
        for i in 0..5_000u64 {
            h.record(0.01 * (i as f64).powf(1.4));
        }
        h.record(0.0); // sub-floor bucket
        h.record(5e7); // overflow bucket
        let back = StreamingHistogram::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(back, h);
        // And the re-encoding is byte-identical (canonical form).
        assert_eq!(back.to_bytes(), h.to_bytes());
    }

    #[test]
    fn bytes_round_trip_empty_and_custom_config() {
        for h in [
            StreamingHistogram::new(),
            StreamingHistogram::with_config(0.05, 0.5, 300.0),
        ] {
            let back = StreamingHistogram::from_bytes(&h.to_bytes()).unwrap();
            assert_eq!(back, h);
        }
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let mut h = StreamingHistogram::new();
        h.record(1.0);
        let good = h.to_bytes();
        assert!(StreamingHistogram::from_bytes(&good[..good.len() - 1]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(StreamingHistogram::from_bytes(&bad_magic).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(StreamingHistogram::from_bytes(&trailing).is_err());
    }

    #[test]
    fn default_layout_is_shared_and_custom_is_not() {
        let a = StreamingHistogram::new();
        let b = StreamingHistogram::with_config(DEFAULT_RELATIVE_ERROR, DEFAULT_FLOOR, DEFAULT_CAP);
        let mut recorded = StreamingHistogram::new();
        recorded.record(2.5);
        let decoded = StreamingHistogram::from_bytes(&recorded.to_bytes()).unwrap();
        for h in [&b, &recorded, &decoded] {
            assert!(Arc::ptr_eq(&a.edges, &h.edges));
            assert!(Arc::ptr_eq(&a.exp_index, &h.exp_index));
        }
        assert_eq!(a, b);
        assert_eq!(decoded, recorded);
        // The shared table is exactly what the multiplication chain
        // builds for the default configuration.
        let growth = (1.0 + DEFAULT_RELATIVE_ERROR) * (1.0 + DEFAULT_RELATIVE_ERROR);
        let (edges, exp_index) = build_layout(growth, DEFAULT_FLOOR, DEFAULT_CAP);
        assert_eq!(edges, a.edges);
        assert_eq!(exp_index, a.exp_index);

        let custom = StreamingHistogram::with_config(0.05, 0.5, 300.0);
        assert!(!Arc::ptr_eq(&a.edges, &custom.edges));
        let other_err = StreamingHistogram::with_relative_error(0.02);
        assert!(!Arc::ptr_eq(&a.edges, &other_err.edges));
        assert_ne!(a, other_err);
        // A larger cap extends the chain past the default table.
        let wider =
            StreamingHistogram::with_config(DEFAULT_RELATIVE_ERROR, DEFAULT_FLOOR, 2.0 * DEFAULT_CAP);
        assert!(!Arc::ptr_eq(&a.edges, &wider.edges));
        assert!(wider.buckets() > a.buckets());
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_mismatched_config() {
        let mut a = StreamingHistogram::with_relative_error(0.01);
        let b = StreamingHistogram::with_relative_error(0.05);
        a.merge(&b);
    }
}
