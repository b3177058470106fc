//! Bucketed histograms with fixed edges, and the CDF/PDF views derived
//! from them.
//!
//! The paper plots response-time CDFs over the bucket edges
//! `5, 10, 20, 40, 60, 90, 120, 150, 200, 200+` ms (Figures 2, 4, 5, 7)
//! and rotational-latency PDFs over `1, 3, 5, 7, 8, 9, 11` ms
//! (Figure 5). [`Histogram`] reproduces that bucketing exactly; the final
//! bucket is an unbounded overflow bucket ("200+").

use std::fmt;

/// A histogram over `edges.len() + 1` buckets: bucket `i` counts samples
/// in `(edges[i-1], edges[i]]` with the first bucket `[0 (or -inf), edges\[0\]]`
/// and the last bucket `(edges[last], +inf)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    /// Deterministic record counter, flushed to
    /// [`crate::counters::HIST_RECORDS`] on drop. `DropCounter` clones
    /// to zero and always compares equal, so the derived `Clone` /
    /// `PartialEq` semantics of the histogram itself are unchanged.
    records: crate::counters::DropCounter,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing edges.
    ///
    /// # Panics
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn new(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "need at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            total: 0,
            records: crate::counters::DropCounter::new(&crate::counters::HIST_RECORDS),
        }
    }

    /// The response-time bucket edges used throughout the paper, in
    /// milliseconds.
    pub fn paper_response_time_edges() -> &'static [f64] {
        &[5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 200.0]
    }

    /// The rotational-latency bucket edges of Figure 5, in milliseconds.
    pub fn paper_rotational_latency_edges() -> &'static [f64] {
        &[1.0, 3.0, 5.0, 7.0, 8.0, 9.0, 11.0]
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let idx = self.edges.partition_point(|&e| e < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.records.bump();
    }

    /// Counts one record toward `simkit.hist.records` whose sample a
    /// later [`fill`](Self::fill) buckets (see
    /// [`ResponseStats::record_binned`](super::ResponseStats::record_binned)).
    #[inline]
    pub(crate) fn defer_record(&self) {
        self.records.bump();
    }

    /// Replaces the counts with those of recording `samples` one by
    /// one, without counting records. Ascending samples take one
    /// binary search per edge; others one per sample.
    pub(crate) fn fill(&mut self, samples: &[f64], sorted: bool) {
        self.counts.fill(0);
        if sorted {
            // Bucket `i` holds the samples in `(edges[i-1], edges[i]]`,
            // so the samples at or below `edges[i]` end bucket `i`.
            let mut below = 0;
            for (count, &edge) in self.counts.iter_mut().zip(&self.edges) {
                let upto = below + samples[below..].partition_point(|&v| v <= edge);
                *count = (upto - below) as u64;
                below = upto;
            }
            self.counts[self.edges.len()] = (samples.len() - below) as u64;
        } else {
            for &v in samples {
                let idx = self.edges.partition_point(|&e| e < v);
                self.counts[idx] += 1;
            }
        }
        self.total = samples.len() as u64;
    }

    /// Bucket edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket raw counts (one more bucket than edges).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cumulative distribution evaluated at each edge: entry `i` is the
    /// fraction of samples `<= edges[i]`.
    pub fn cdf(&self) -> Cdf {
        let mut cum = Vec::with_capacity(self.edges.len());
        let mut running = 0u64;
        for i in 0..self.edges.len() {
            running += self.counts[i];
            cum.push(if self.total == 0 {
                0.0
            } else {
                running as f64 / self.total as f64
            });
        }
        Cdf {
            edges: self.edges.clone(),
            cumulative: cum,
        }
    }

    /// Probability mass per bucket (including the overflow bucket).
    pub fn pdf(&self) -> Pdf {
        let mass = self
            .counts
            .iter()
            .map(|&c| {
                if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                }
            })
            .collect();
        Pdf {
            edges: self.edges.clone(),
            mass,
        }
    }

    /// Merges another histogram with identical edges into this one.
    ///
    /// # Panics
    /// Panics if the edges differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.edges, other.edges, "incompatible histogram edges");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// A cumulative distribution sampled at fixed edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    edges: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Cdf {
    /// The edges the CDF is evaluated at.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// `fraction_at()[i]` is the fraction of samples `<= edges[i]`.
    pub fn fraction_at(&self) -> &[f64] {
        &self.cumulative
    }

    /// Fraction of samples at or below `edge` (must be one of the edges).
    ///
    /// # Panics
    /// Panics if `edge` is not one of the configured edges.
    #[expect(
        clippy::panic,
        reason = "documented panic contract: querying an unconfigured edge is a caller bug, not a recoverable state"
    )]
    pub fn at(&self, edge: f64) -> f64 {
        let i = self
            .edges
            .iter()
            .position(|&e| (e - edge).abs() < 1e-9)
            .unwrap_or_else(|| panic!("{edge} is not a CDF edge"));
        self.cumulative[i]
    }

    /// True if this CDF (weakly) dominates `other` at every edge —
    /// i.e. is everywhere at least as good, within `tol`.
    pub fn dominates(&self, other: &Cdf, tol: f64) -> bool {
        assert_eq!(self.edges, other.edges, "incompatible CDF edges");
        self.cumulative
            .iter()
            .zip(&other.cumulative)
            .all(|(a, b)| a + tol >= *b)
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (e, c) in self.edges.iter().zip(&self.cumulative) {
            writeln!(f, "  <= {e:>6.1} ms : {:>6.2}%", c * 100.0)?;
        }
        Ok(())
    }
}

/// A probability mass function over fixed buckets (last bucket is the
/// overflow bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Pdf {
    edges: Vec<f64>,
    mass: Vec<f64>,
}

impl Pdf {
    /// Bucket edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Probability mass per bucket; `mass().len() == edges().len() + 1`.
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }
}

impl fmt::Display for Pdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut lo = 0.0;
        for (i, e) in self.edges.iter().enumerate() {
            writeln!(
                f,
                "  ({lo:>5.1}, {e:>5.1}] ms : {:>6.2}%",
                self.mass[i] * 100.0
            )?;
            lo = *e;
        }
        writeln!(
            f,
            "  ({lo:>5.1},   inf) ms : {:>6.2}%",
            self.mass[self.edges.len()] * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_inclusive_upper() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.record(1.0); // first bucket (<= 1.0)
        h.record(1.5); // second
        h.record(2.0); // second (inclusive upper)
        h.record(2.5); // overflow
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn cdf_monotone_and_normalized() {
        let mut h = Histogram::new(Histogram::paper_response_time_edges());
        for i in 0..1000 {
            h.record(i as f64 * 0.3);
        }
        let cdf = h.cdf();
        let fr = cdf.fraction_at();
        assert!(fr.windows(2).all(|w| w[0] <= w[1]));
        assert!(fr.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!(cdf.at(200.0) <= 1.0);
    }

    #[test]
    fn pdf_sums_to_one() {
        let mut h = Histogram::new(Histogram::paper_rotational_latency_edges());
        for i in 0..500 {
            h.record(i as f64 * 0.025);
        }
        let pdf = h.pdf();
        let s: f64 = pdf.mass().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dominance() {
        let mut fast = Histogram::new(&[5.0, 10.0]);
        let mut slow = Histogram::new(&[5.0, 10.0]);
        for _ in 0..100 {
            fast.record(1.0);
            slow.record(8.0);
        }
        assert!(fast.cdf().dominates(&slow.cdf(), 0.0));
        assert!(!slow.cdf().dominates(&fast.cdf(), 0.0));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(&[1.0]);
        let mut b = Histogram::new(&[1.0]);
        a.record(0.5);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn empty_cdf_is_zero() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert!(h.cdf().fraction_at().iter().all(|&p| p == 0.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_edges_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }
}
