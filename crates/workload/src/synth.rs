//! The §7.3 synthetic workload generator.
//!
//! "We use the synthetic workload generator in Disksim to create
//! workloads that are composed of one million I/O requests. For all the
//! synthetic workloads, 60% of the requests are reads and 20% of all
//! requests are sequential. [...] We vary the inter-arrival time of the
//! I/O requests to the storage system using an exponential
//! distribution [with means] 8 ms, 4 ms, and 1 ms, which represent
//! light, moderate, and heavy I/O loads respectively."

use std::sync::Arc;

use intradisk::{IoKind, IoRequest};
use simkit::{Rng64, SimDuration, SimTime};

use crate::source::RequestSource;
use crate::trace::Trace;

/// Specification of a §7.3 synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Number of requests (the paper uses one million).
    pub requests: usize,
    /// Fraction of reads (paper: 0.6).
    pub read_fraction: f64,
    /// Fraction of requests continuing the previous request
    /// (paper: 0.2).
    pub sequential_fraction: f64,
    /// Mean of the exponential inter-arrival distribution, ms
    /// (paper: 8, 4, or 1).
    pub mean_interarrival_ms: f64,
    /// Request size in sectors (4 KiB default).
    pub sectors: u32,
    /// Logical address space to draw from, in sectors.
    pub footprint_sectors: u64,
}

impl SyntheticSpec {
    /// The paper's configuration at a given inter-arrival mean and
    /// footprint, scaled to `requests` requests.
    ///
    /// # Panics
    /// Panics on non-positive parameters.
    pub fn paper(mean_interarrival_ms: f64, footprint_sectors: u64, requests: usize) -> Self {
        assert!(mean_interarrival_ms > 0.0 && footprint_sectors > 0 && requests > 0);
        SyntheticSpec {
            requests,
            read_fraction: 0.6,
            sequential_fraction: 0.2,
            mean_interarrival_ms,
            sectors: 8,
            footprint_sectors,
        }
    }

    /// A lazy [`RequestSource`] drawing the workload deterministically
    /// from `seed`: requests are produced one at a time from the forked
    /// RNG streams, so a 10⁸-request run never materializes the
    /// workload. Yields exactly the requests
    /// [`generate`](SyntheticSpec::generate) would, in the same order.
    pub fn source(&self, seed: u64) -> SynthSource {
        assert!(
            (0.0..=1.0).contains(&self.read_fraction)
                && (0.0..=1.0).contains(&self.sequential_fraction),
            "fractions out of range"
        );
        let mut rng = Rng64::new(seed);
        let arrival_rng = rng.fork();
        let addr_rng = rng.fork();
        let kind_rng = rng.fork();
        SynthSource {
            spec: *self,
            name: format!("synthetic-{}ms", self.mean_interarrival_ms).into(),
            arrival_rng,
            addr_rng,
            kind_rng,
            t: SimTime::ZERO,
            prev_end: 0,
            next_id: 0,
        }
    }

    /// Materializes the whole workload (thin wrapper over
    /// [`source`](SyntheticSpec::source); small runs and tests).
    pub fn generate(&self, seed: u64) -> Trace {
        crate::source::collect_trace(self.source(seed))
    }
}

/// The lazy generator behind [`SyntheticSpec::source`]: O(1) state —
/// three RNG streams, a clock, and the previous request's end address.
/// A clone allocates nothing (the name is shared), so a split replay
/// can fork the stream at any request.
#[derive(Debug, Clone)]
pub struct SynthSource {
    spec: SyntheticSpec,
    name: Arc<str>,
    arrival_rng: Rng64,
    addr_rng: Rng64,
    kind_rng: Rng64,
    t: SimTime,
    prev_end: u64,
    next_id: u64,
}

impl RequestSource for SynthSource {
    fn next_request(&mut self) -> Option<IoRequest> {
        if self.next_id >= self.spec.requests as u64 {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let spec = &self.spec;
        let gap = -spec.mean_interarrival_ms * self.arrival_rng.f64_open().ln();
        self.t += SimDuration::from_millis(gap);
        let sequential = id > 0 && self.addr_rng.chance(spec.sequential_fraction);
        let lba = if sequential {
            self.prev_end % spec.footprint_sectors
        } else {
            // Align to the request size, as filesystems do.
            let slots = (spec.footprint_sectors / spec.sectors as u64).max(1);
            self.addr_rng.below(slots) * spec.sectors as u64
        };
        let kind = if self.kind_rng.chance(spec.read_fraction) {
            IoKind::Read
        } else {
            IoKind::Write
        };
        self.prev_end = lba + spec.sectors as u64;
        Some(IoRequest::new(id, self.t, lba, spec.sectors, kind))
    }

    fn footprint_sectors(&self) -> u64 {
        self.spec.footprint_sectors
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.spec.requests as u64 - self.next_id)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOOTPRINT: u64 = 100_000_000;

    #[test]
    fn matches_spec_statistics() {
        let spec = SyntheticSpec::paper(4.0, FOOTPRINT, 50_000);
        let trace = spec.generate(1);
        let s = trace.stats();
        assert_eq!(s.requests, 50_000);
        assert!((s.read_fraction - 0.6).abs() < 0.01, "{}", s.read_fraction);
        assert!(
            (s.sequential_fraction - 0.2).abs() < 0.01,
            "{}",
            s.sequential_fraction
        );
        assert!(
            (s.mean_interarrival_ms - 4.0).abs() < 0.1,
            "{}",
            s.mean_interarrival_ms
        );
        assert!((s.mean_sectors - 8.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = SyntheticSpec::paper(8.0, FOOTPRINT, 1_000);
        assert_eq!(spec.generate(9), spec.generate(9));
        assert_ne!(spec.generate(9), spec.generate(10));
    }

    #[test]
    fn addresses_within_footprint() {
        let spec = SyntheticSpec::paper(1.0, FOOTPRINT, 10_000);
        let trace = spec.generate(2);
        assert!(trace.requests().iter().all(|r| r.lba < FOOTPRINT));
    }

    #[test]
    fn heavier_load_means_shorter_gaps() {
        let light = SyntheticSpec::paper(8.0, FOOTPRINT, 5_000).generate(3);
        let heavy = SyntheticSpec::paper(1.0, FOOTPRINT, 5_000).generate(3);
        assert!(heavy.stats().duration_ms < light.stats().duration_ms / 4.0);
    }

    #[test]
    fn arrivals_are_nondecreasing() {
        let trace = SyntheticSpec::paper(4.0, FOOTPRINT, 5_000).generate(4);
        assert!(trace
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn source_yields_exactly_the_generated_trace() {
        let spec = SyntheticSpec::paper(4.0, FOOTPRINT, 2_000);
        let trace = spec.generate(6);
        let mut src = spec.source(6);
        assert_eq!(src.len_hint(), Some(2_000));
        assert_eq!(src.name(), trace.name());
        assert_eq!(src.footprint_sectors(), trace.footprint_sectors());
        for want in trace.requests() {
            assert_eq!(src.next_request().as_ref(), Some(want));
        }
        assert!(src.next_request().is_none());
    }

    #[test]
    fn source_skip_matches_offset_pull() {
        let spec = SyntheticSpec::paper(1.0, FOOTPRINT, 500);
        let mut skipped = spec.source(9);
        assert_eq!(skipped.skip(200), 200);
        let trace = spec.generate(9);
        assert_eq!(
            skipped.next_request().as_ref(),
            Some(&trace.requests()[200])
        );
    }
}
