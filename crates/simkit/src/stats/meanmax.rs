//! [`MeanMax`]: the mean and maximum of a sample stream, in O(1)
//! memory.
//!
//! Some per-drive quantities are reported only by their mean: the
//! rotational latency in the SA evaluation and the validation checks,
//! the seek time in the validation checks. They need neither a sample
//! store nor a sketch: a sum, a count and a running maximum.

/// The count, sum and maximum of the samples recorded.
///
/// `sum` adds each sample in record order from 0.0, as
/// [`Summary`](super::Summary) and
/// [`StreamingHistogram`](super::StreamingHistogram) do, so
/// [`mean`](Self::mean) carries the same bits as theirs over the same
/// record sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct MeanMax {
    sum: f64,
    count: u64,
    /// `NEG_INFINITY` while empty, so the first sample (`-0.0`
    /// included) sets it.
    max: f64,
}

impl MeanMax {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        MeanMax {
            sum: 0.0,
            count: 0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl Default for MeanMax {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_max_count() {
        let mut m = MeanMax::new();
        for v in [3.0, 1.0, 2.0] {
            m.record(v);
        }
        assert_eq!(m.mean(), 2.0);
        assert_eq!(m.max(), 3.0);
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn empty_is_zeroes() {
        let m = MeanMax::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max(), 0.0);
    }
}
