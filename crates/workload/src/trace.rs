//! In-memory I/O traces and their summary statistics.

use intradisk::IoRequest;
use simkit::SimTime;

/// An ordered I/O trace addressed against a logical volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    requests: Vec<IoRequest>,
    footprint_sectors: u64,
}

impl Trace {
    /// Creates a trace. Requests are sorted by arrival time.
    ///
    /// # Panics
    /// Panics if `footprint_sectors == 0`.
    pub fn new(
        name: impl Into<String>,
        mut requests: Vec<IoRequest>,
        footprint_sectors: u64,
    ) -> Self {
        assert!(footprint_sectors > 0, "empty footprint");
        requests.sort_by_key(|r| (r.arrival, r.id));
        Trace {
            name: name.into(),
            requests,
            footprint_sectors,
        }
    }

    /// Trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[IoRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The logical address space the trace was generated against
    /// (sectors).
    pub fn footprint_sectors(&self) -> u64 {
        self.footprint_sectors
    }

    /// A pull-based cursor over the trace
    /// ([`RequestSource`](crate::RequestSource) backward compat).
    pub fn source(&self) -> crate::source::TraceSource<'_> {
        crate::source::TraceSource::new(self)
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> TraceStats {
        let n = self.requests.len();
        if n == 0 {
            return TraceStats::default();
        }
        let reads = self.requests.iter().filter(|r| r.kind.is_read()).count();
        let total_sectors: u64 = self.requests.iter().map(|r| r.sectors as u64).sum();
        let first = self
            .requests
            .first()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO);
        let last = self
            .requests
            .last()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO);
        let span_ms = (last.saturating_since(first)).as_millis();
        let sequential = self
            .requests
            .windows(2)
            .filter(|w| w[1].lba == w[0].end_lba())
            .count();
        TraceStats {
            requests: n,
            read_fraction: reads as f64 / n as f64,
            mean_sectors: total_sectors as f64 / n as f64,
            mean_interarrival_ms: if n > 1 { span_ms / (n - 1) as f64 } else { 0.0 },
            sequential_fraction: if n > 1 {
                sequential as f64 / (n - 1) as f64
            } else {
                0.0
            },
            duration_ms: span_ms,
        }
    }
}

/// Aggregate characteristics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceStats {
    /// Number of requests.
    pub requests: usize,
    /// Fraction of reads.
    pub read_fraction: f64,
    /// Mean request size in sectors.
    pub mean_sectors: f64,
    /// Mean inter-arrival time in milliseconds.
    pub mean_interarrival_ms: f64,
    /// Fraction of requests exactly continuing the previous one.
    pub sequential_fraction: f64,
    /// Arrival span of the trace in milliseconds.
    pub duration_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use intradisk::IoKind;

    fn req(id: u64, at_ms: f64, lba: u64, sectors: u32, kind: IoKind) -> IoRequest {
        IoRequest::new(id, SimTime::from_millis(at_ms), lba, sectors, kind)
    }

    #[test]
    fn sorts_by_arrival() {
        let t = Trace::new(
            "t",
            vec![
                req(1, 5.0, 0, 8, IoKind::Read),
                req(0, 1.0, 8, 8, IoKind::Write),
            ],
            1000,
        );
        assert_eq!(t.requests()[0].id, 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn stats_mixed() {
        let t = Trace::new(
            "t",
            vec![
                req(0, 0.0, 0, 8, IoKind::Read),
                req(1, 2.0, 8, 8, IoKind::Read), // sequential continuation
                req(2, 4.0, 100, 16, IoKind::Write),
            ],
            1000,
        );
        let s = t.stats();
        assert_eq!(s.requests, 3);
        assert!((s.read_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_sectors - 32.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_interarrival_ms - 2.0).abs() < 1e-12);
        assert!((s.sequential_fraction - 0.5).abs() < 1e-12);
        assert!((s.duration_ms - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::new("e", vec![], 10);
        assert!(t.is_empty());
        assert_eq!(t.stats(), TraceStats::default());
    }

    #[test]
    #[should_panic(expected = "empty footprint")]
    fn zero_footprint_panics() {
        Trace::new("bad", vec![], 0);
    }
}
