//! I/O requests and completion records.

use simkit::{SimDuration, SimTime};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// A read request (may hit the on-board cache).
    Read,
    /// A write request (written through to the media in this model).
    Write,
}

impl IoKind {
    /// True for reads.
    pub fn is_read(self) -> bool {
        matches!(self, IoKind::Read)
    }
}

impl From<IoKind> for telemetry::IoOp {
    fn from(kind: IoKind) -> telemetry::IoOp {
        match kind {
            IoKind::Read => telemetry::IoOp::Read,
            IoKind::Write => telemetry::IoOp::Write,
        }
    }
}

/// One I/O request presented to a drive (or array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Caller-assigned identifier, unique within a run.
    pub id: u64,
    /// Arrival time at the storage system.
    pub arrival: SimTime,
    /// First logical block.
    pub lba: u64,
    /// Length in sectors (must be at least 1).
    pub sectors: u32,
    /// Read or write.
    pub kind: IoKind,
}

impl IoRequest {
    /// Creates a request.
    ///
    /// # Panics
    /// Panics if `sectors == 0`.
    pub fn new(id: u64, arrival: SimTime, lba: u64, sectors: u32, kind: IoKind) -> Self {
        assert!(sectors > 0, "zero-length request");
        IoRequest {
            id,
            arrival,
            lba,
            sectors,
            kind,
        }
    }

    /// The first block after this request.
    pub fn end_lba(&self) -> u64 {
        self.lba + self.sectors as u64
    }

    /// The trace event recording this request's submission.
    pub fn submitted(&self) -> telemetry::TraceEvent {
        telemetry::TraceEvent::RequestSubmitted {
            req: self.id,
            lba: self.lba,
            sectors: self.sectors,
            op: self.kind.into(),
        }
    }
}

/// Where the time of one serviced request went — the per-request
/// decomposition behind the paper's bottleneck analysis (Figure 4) and
/// rotational-latency PDFs (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceBreakdown {
    /// Time spent waiting in the queue before service began.
    pub queue: SimDuration,
    /// Fixed controller overhead.
    pub overhead: SimDuration,
    /// Seek time of the chosen arm assembly.
    pub seek: SimDuration,
    /// Rotational latency after the seek completed.
    pub rotational: SimDuration,
    /// Media transfer time (including head/track switches).
    pub transfer: SimDuration,
}

impl ServiceBreakdown {
    /// Service time excluding queueing.
    pub fn service_time(&self) -> SimDuration {
        self.overhead + self.seek + self.rotational + self.transfer
    }

    /// Total response time (queue + service).
    pub fn response_time(&self) -> SimDuration {
        self.queue + self.service_time()
    }
}

/// A finished request with full accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedIo {
    /// The original request.
    pub request: IoRequest,
    /// When service completed.
    pub completed: SimTime,
    /// Time decomposition.
    pub breakdown: ServiceBreakdown,
    /// Whether the request was served from the on-board cache.
    pub cache_hit: bool,
    /// Index of the arm assembly that serviced it (0 for cache hits).
    pub actuator: u32,
}

impl CompletedIo {
    /// End-to-end response time.
    pub fn response_time(&self) -> SimDuration {
        self.completed - self.request.arrival
    }
}

/// `n` 8-sector reads at uniform random LBAs of the reference drive,
/// with gaps uniform on `[0, 2 × mean_gap_ms)`.
#[cfg(test)]
pub(crate) fn random_reads(n: u64, mean_gap_ms: f64, seed: u64) -> Vec<IoRequest> {
    let params = diskmodel::presets::barracuda_es_750gb();
    let cap = crate::service::Mechanics::new(&params)
        .geometry()
        .total_sectors();
    let mut rng = simkit::Rng64::new(seed);
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|i| {
            t += SimDuration::from_millis(rng.f64() * 2.0 * mean_gap_ms);
            IoRequest::new(i, t, rng.below(cap), 8, IoKind::Read)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums() {
        let b = ServiceBreakdown {
            queue: SimDuration::from_millis(1.0),
            overhead: SimDuration::from_millis(0.1),
            seek: SimDuration::from_millis(4.0),
            rotational: SimDuration::from_millis(3.0),
            transfer: SimDuration::from_millis(0.4),
        };
        assert_eq!(b.service_time(), SimDuration::from_millis(7.5));
        assert_eq!(b.response_time(), SimDuration::from_millis(8.5));
    }

    #[test]
    fn completed_response_time_from_clock() {
        let req = IoRequest::new(1, SimTime::from_millis(10.0), 0, 8, IoKind::Read);
        let done = CompletedIo {
            request: req,
            completed: SimTime::from_millis(22.0),
            breakdown: ServiceBreakdown::default(),
            cache_hit: false,
            actuator: 0,
        };
        assert_eq!(done.response_time(), SimDuration::from_millis(12.0));
    }

    #[test]
    fn end_lba() {
        let req = IoRequest::new(0, SimTime::ZERO, 100, 16, IoKind::Write);
        assert_eq!(req.end_lba(), 116);
        assert!(!req.kind.is_read());
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_sectors_rejected() {
        IoRequest::new(0, SimTime::ZERO, 0, 0, IoKind::Read);
    }
}
