//! Calibrated stand-ins for the four commercial traces of Table 2.
//!
//! The original traces (UMass *Financial* and *Websearch*; IBM TPC-C and
//! TPC-H captures) are not redistributable, so each workload is modelled
//! by a generator reproducing its published first-order characteristics
//! — request mix, sizes, dataset footprint, arrival intensity and
//! burstiness, spatial locality — which are what the paper's
//! conclusions rest on (see DESIGN.md, "Substitutions"). Table 2 and
//! the prose pin several parameters directly:
//!
//! * dataset footprints: disks × per-disk capacity from Table 2;
//! * TPC-H's mean inter-arrival time of 8.76 ms (§7.1);
//! * request-count scale (4.2–6.2 M requests; runs are scaled down by a
//!   configurable factor);
//! * Financial is a bursty, write-dominated OLTP trace; Websearch is
//!   read-dominated with moderate sizes; TPC-C is small random I/O;
//!   TPC-H is large, substantially sequential reads.
//!
//! Arrival intensities are calibrated so that the limit study's
//! qualitative outcome matches Figure 2: Financial, Websearch, and
//! TPC-C overload a single high-capacity drive (in that order of
//! severity), while TPC-H does not ("the storage system of TPC-H is
//! able to service I/O requests faster than they arrive").

use intradisk::{IoKind, IoRequest};
use simkit::{Rng64, Sample, SimDuration, SimTime, Zipf};

use crate::arrival::{ArrivalProcess, Mmpp};
use crate::source::RequestSource;
use crate::trace::Trace;

/// Sectors per gigabyte (10^9 bytes, 512-byte sectors).
const SECTORS_PER_GB: f64 = 1e9 / 512.0;

/// Golden-ratio multiplier used to scatter hot extents across the
/// address space.
const SCATTER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The four commercial workloads of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// OLTP trace from a large financial institution (UMass).
    Financial,
    /// Popular Internet search engine trace (UMass).
    Websearch,
    /// TPC-C, 20 warehouses, 8 clients, IBM DB2 EEE.
    TpcC,
    /// TPC-H power test, IBM DB2 EE, 8-way SMP.
    TpcH,
}

impl WorkloadKind {
    /// All four workloads, in the paper's presentation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Financial,
        WorkloadKind::Websearch,
        WorkloadKind::TpcC,
        WorkloadKind::TpcH,
    ];

    /// Display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Financial => "Financial",
            WorkloadKind::Websearch => "Websearch",
            WorkloadKind::TpcC => "TPC-C",
            WorkloadKind::TpcH => "TPC-H",
        }
    }

    /// Request count of the original trace (Table 2).
    pub fn paper_request_count(self) -> u64 {
        match self {
            WorkloadKind::Financial => 5_334_945,
            WorkloadKind::Websearch => 4_579_809,
            WorkloadKind::TpcC => 6_155_547,
            WorkloadKind::TpcH => 4_228_725,
        }
    }

    /// Number of disks in the original storage system (Table 2).
    pub fn md_disks(self) -> usize {
        match self {
            WorkloadKind::Financial => 24,
            WorkloadKind::Websearch => 6,
            WorkloadKind::TpcC => 4,
            WorkloadKind::TpcH => 15,
        }
    }

    /// Per-disk capacity of the original storage system, GB (Table 2).
    pub fn md_disk_capacity_gb(self) -> f64 {
        match self {
            WorkloadKind::Financial | WorkloadKind::Websearch => 19.07,
            WorkloadKind::TpcC => 37.17,
            WorkloadKind::TpcH => 35.96,
        }
    }

    /// Dataset footprint in sectors (disks × capacity).
    pub fn footprint_sectors(self) -> u64 {
        (self.md_disks() as f64 * self.md_disk_capacity_gb() * SECTORS_PER_GB) as u64
    }
}

/// A request-size mixture: `(sectors, weight)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeMix {
    choices: Vec<(u32, f64)>,
    total: f64,
}

impl SizeMix {
    /// Creates a mixture.
    ///
    /// # Panics
    /// Panics if empty, or any size is zero, or any weight is
    /// non-positive.
    pub fn new(choices: &[(u32, f64)]) -> Self {
        assert!(!choices.is_empty(), "empty size mix");
        assert!(
            choices.iter().all(|&(s, w)| s > 0 && w > 0.0),
            "bad size mix entry"
        );
        SizeMix {
            choices: choices.to_vec(),
            total: choices.iter().map(|&(_, w)| w).sum(),
        }
    }

    /// A single fixed size.
    pub fn fixed(sectors: u32) -> Self {
        Self::new(&[(sectors, 1.0)])
    }

    /// Draws a size.
    #[expect(clippy::expect_used, reason = "`new` asserts the mix is non-empty")]
    pub fn sample(&self, rng: &mut Rng64) -> u32 {
        let mut x = rng.f64() * self.total;
        for &(s, w) in &self.choices {
            if x < w {
                return s;
            }
            x -= w;
        }
        // Rounding can leave `x` epsilon above the final cumulative
        // weight; fall back to the last choice.
        self.choices.last().expect("non-empty").0
    }

    /// Mean size in sectors.
    pub fn mean(&self) -> f64 {
        self.choices.iter().map(|&(s, w)| s as f64 * w).sum::<f64>() / self.total
    }
}

/// A calibrated trace generator for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Which workload this models.
    pub kind: WorkloadKind,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Fraction of reads.
    pub read_fraction: f64,
    /// Request sizes.
    pub sizes: SizeMix,
    /// Probability a request sequentially continues the previous one.
    pub sequential_fraction: f64,
    /// Extent granularity of the locality model, sectors.
    pub extent_sectors: u64,
    /// Zipf exponent of extent popularity (higher = hotter hot set).
    pub zipf_exponent: f64,
    /// If true, hot extents are scattered pseudo-randomly across the
    /// address space (scan-style workloads); if false they are
    /// clustered at consecutive addresses (OLTP/search hot sets, the
    /// §1 practice of packing hot data densely), which keeps seeks
    /// short on a consolidated drive.
    pub scatter_hot_extents: bool,
}

/// The calibrated profile for a workload.
pub fn profile_for(kind: WorkloadKind) -> TraceProfile {
    // 16 MiB extents.
    let extent = 32_768u64;
    match kind {
        WorkloadKind::Financial => TraceProfile {
            kind,
            // Write-dominated OLTP with pronounced bursts: long quiet
            // stretches punctuated by intense log/checkpoint activity.
            arrival: ArrivalProcess::Mmpp(Mmpp {
                quiet_mean_ms: 8.0,
                burst_mean_ms: 1.2,
                enter_burst: 0.020,
                leave_burst: 0.020,
            }),
            read_fraction: 0.23,
            sizes: SizeMix::new(&[(8, 0.65), (16, 0.25), (48, 0.10)]),
            sequential_fraction: 0.10,
            extent_sectors: extent,
            zipf_exponent: 1.45,
            scatter_hot_extents: false,
        },
        WorkloadKind::Websearch => TraceProfile {
            kind,
            // Nearly pure random reads of moderate size, steady and
            // intense.
            arrival: ArrivalProcess::Exponential { mean_ms: 4.2 },
            read_fraction: 0.99,
            sizes: SizeMix::new(&[(16, 0.30), (32, 0.50), (64, 0.20)]),
            sequential_fraction: 0.05,
            extent_sectors: extent,
            zipf_exponent: 1.35,
            scatter_hot_extents: false,
        },
        WorkloadKind::TpcC => TraceProfile {
            kind,
            // Small random OLTP pages.
            arrival: ArrivalProcess::Exponential { mean_ms: 6.0 },
            read_fraction: 0.65,
            sizes: SizeMix::fixed(8),
            sequential_fraction: 0.02,
            extent_sectors: extent,
            zipf_exponent: 1.25,
            scatter_hot_extents: false,
        },
        WorkloadKind::TpcH => TraceProfile {
            kind,
            // Decision support: large, substantially sequential scans;
            // the paper gives the 8.76 ms mean inter-arrival directly.
            arrival: ArrivalProcess::LogNormal {
                mean_ms: 8.76,
                cv: 1.5,
            },
            read_fraction: 0.95,
            sizes: SizeMix::new(&[(128, 0.25), (256, 0.60), (512, 0.15)]),
            sequential_fraction: 0.60,
            extent_sectors: extent,
            zipf_exponent: 1.0,
            scatter_hot_extents: false,
        },
    }
}

impl TraceProfile {
    /// A lazy [`RequestSource`] producing `count` requests
    /// deterministically from `seed`, one at a time — O(1) state, so
    /// scale runs never materialize the workload. Yields exactly the
    /// requests [`generate`](TraceProfile::generate) would, in order.
    ///
    /// The footprint is the workload's Table 2 dataset size.
    pub fn source(&self, count: usize, seed: u64) -> ProfileSource {
        let footprint = self.kind.footprint_sectors();
        let extents = (footprint / self.extent_sectors).max(1);
        let zipf = Zipf::new(extents, self.zipf_exponent);

        let mut rng = Rng64::new(seed ^ self.kind.paper_request_count());
        let arrival_rng = rng.fork();
        let addr_rng = rng.fork();
        let kind_rng = rng.fork();
        let size_rng = rng.fork();
        let sampler = self.arrival.sampler();

        ProfileSource {
            profile: self.clone(),
            footprint,
            extents,
            zipf,
            arrival_rng,
            addr_rng,
            kind_rng,
            size_rng,
            sampler,
            t: SimTime::ZERO,
            prev_end: 0,
            next_id: 0,
            count: count as u64,
        }
    }

    /// Materializes `count` requests (thin wrapper over
    /// [`source`](TraceProfile::source); small runs and tests).
    pub fn generate(&self, count: usize, seed: u64) -> Trace {
        crate::source::collect_trace(self.source(count, seed))
    }
}

/// The lazy generator behind [`TraceProfile::source`].
#[derive(Debug, Clone)]
pub struct ProfileSource {
    profile: TraceProfile,
    footprint: u64,
    extents: u64,
    zipf: Zipf,
    arrival_rng: Rng64,
    addr_rng: Rng64,
    kind_rng: Rng64,
    size_rng: Rng64,
    sampler: crate::arrival::ArrivalSampler,
    t: SimTime,
    prev_end: u64,
    next_id: u64,
    count: u64,
}

impl RequestSource for ProfileSource {
    fn next_request(&mut self) -> Option<IoRequest> {
        if self.next_id >= self.count {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let p = &self.profile;
        self.t += SimDuration::from_millis(self.sampler.next_gap_ms(&mut self.arrival_rng));
        let sectors = p.sizes.sample(&mut self.size_rng);
        let lba = if id > 0 && self.addr_rng.chance(p.sequential_fraction) {
            self.prev_end % self.footprint
        } else {
            let rank = self.zipf.sample(&mut self.addr_rng);
            let extent = if p.scatter_hot_extents {
                // rank+1 so the hottest extent (rank 0) also lands
                // at a scattered position rather than extent 0.
                ((rank + 1).wrapping_mul(SCATTER)) % self.extents
            } else {
                // Clustered: popularity decreases with address, so
                // the hot set is one compact band — the §1 practice
                // of packing hot data densely (short-stroking). On
                // a striped array the band still spreads evenly
                // over all member disks because the stripe unit is
                // far smaller than an extent.
                rank
            };
            let base = extent * p.extent_sectors;
            let slots = (p.extent_sectors / sectors as u64).max(1);
            base + self.addr_rng.below(slots) * sectors as u64
        };
        let kind = if self.kind_rng.chance(p.read_fraction) {
            IoKind::Read
        } else {
            IoKind::Write
        };
        self.prev_end = lba + sectors as u64;
        Some(IoRequest::new(
            id,
            self.t,
            lba.min(self.footprint - 1),
            sectors,
            kind,
        ))
    }

    fn footprint_sectors(&self) -> u64 {
        self.footprint
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.count - self.next_id)
    }

    fn name(&self) -> &str {
        self.profile.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_match_table2() {
        // Financial: 24 × 19.07 GB ≈ 457.7 GB.
        let f = WorkloadKind::Financial.footprint_sectors();
        assert!((f as f64 / SECTORS_PER_GB - 457.68).abs() < 0.5);
        // TPC-H: 15 × 35.96 ≈ 539.4 GB.
        let h = WorkloadKind::TpcH.footprint_sectors();
        assert!((h as f64 / SECTORS_PER_GB - 539.4).abs() < 0.5);
    }

    #[test]
    fn tpch_interarrival_pinned_to_paper() {
        let p = profile_for(WorkloadKind::TpcH);
        assert_eq!(p.arrival.mean_ms(), 8.76);
        let trace = p.generate(30_000, 1);
        let got = trace.stats().mean_interarrival_ms;
        assert!((got - 8.76).abs() < 0.3, "mean inter-arrival {got}");
    }

    #[test]
    fn read_fractions_by_workload() {
        for kind in WorkloadKind::ALL {
            let p = profile_for(kind);
            let s = p.generate(20_000, 2).stats();
            assert!(
                (s.read_fraction - p.read_fraction).abs() < 0.02,
                "{}: got {}, want {}",
                kind.name(),
                s.read_fraction,
                p.read_fraction
            );
        }
        // Financial is write-dominated; Websearch read-dominated.
        assert!(profile_for(WorkloadKind::Financial).read_fraction < 0.5);
        assert!(profile_for(WorkloadKind::Websearch).read_fraction > 0.9);
    }

    #[test]
    fn tpch_requests_are_large_and_sequential() {
        let p = profile_for(WorkloadKind::TpcH);
        let s = p.generate(20_000, 3).stats();
        assert!(s.mean_sectors > 128.0, "mean sectors {}", s.mean_sectors);
        assert!(s.sequential_fraction > 0.4, "seq {}", s.sequential_fraction);
        let c = profile_for(WorkloadKind::TpcC).generate(20_000, 3).stats();
        assert!(c.mean_sectors < 16.0);
    }

    #[test]
    fn addresses_within_footprint() {
        for kind in WorkloadKind::ALL {
            let p = profile_for(kind);
            let footprint = kind.footprint_sectors();
            let trace = p.generate(5_000, 4);
            assert!(
                trace.requests().iter().all(|r| r.lba < footprint),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = profile_for(WorkloadKind::Websearch);
        assert_eq!(p.generate(1_000, 5), p.generate(1_000, 5));
        assert_ne!(p.generate(1_000, 5), p.generate(1_000, 6));
    }

    #[test]
    fn financial_is_burstiest() {
        // Compare gap cv² across profiles.
        let cv2 = |kind: WorkloadKind| {
            let t = profile_for(kind).generate(30_000, 7);
            let gaps: Vec<f64> = t
                .requests()
                .windows(2)
                .map(|w| (w[1].arrival.saturating_since(w[0].arrival)).as_millis())
                .collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let v = gaps.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / gaps.len() as f64;
            v / (m * m)
        };
        assert!(cv2(WorkloadKind::Financial) > 2.0 * cv2(WorkloadKind::TpcC));
    }

    #[test]
    fn hot_extents_scattered() {
        // With scattering enabled, the most popular extent should not
        // be extent 0 (all shipped profiles are clustered, so flip the
        // flag explicitly).
        let mut p = profile_for(WorkloadKind::TpcC);
        p.scatter_hot_extents = true;
        let trace = p.generate(20_000, 8);
        let extent_of = |lba: u64| lba / p.extent_sectors;
        let mut counts = std::collections::BTreeMap::new();
        for r in trace.requests() {
            *counts.entry(extent_of(r.lba)).or_insert(0usize) += 1;
        }
        let (&hottest, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_ne!(hottest, 0, "hot extent should be scattered away from 0");
    }

    #[test]
    fn size_mix_mean_and_sampling() {
        let mix = SizeMix::new(&[(8, 0.5), (16, 0.5)]);
        assert!((mix.mean() - 12.0).abs() < 1e-12);
        let mut rng = Rng64::new(1);
        let mut saw8 = false;
        let mut saw16 = false;
        for _ in 0..1_000 {
            match mix.sample(&mut rng) {
                8 => saw8 = true,
                16 => saw16 = true,
                other => panic!("unexpected size {other}"),
            }
        }
        assert!(saw8 && saw16);
    }

    #[test]
    #[should_panic(expected = "empty size mix")]
    fn empty_mix_panics() {
        SizeMix::new(&[]);
    }

    #[test]
    fn source_yields_exactly_the_generated_trace() {
        for kind in WorkloadKind::ALL {
            let p = profile_for(kind);
            let trace = p.generate(3_000, 11);
            let mut src = p.source(3_000, 11);
            assert_eq!(src.len_hint(), Some(3_000));
            assert_eq!(src.name(), trace.name());
            assert_eq!(src.footprint_sectors(), trace.footprint_sectors());
            for want in trace.requests() {
                assert_eq!(src.next_request().as_ref(), Some(want), "{}", kind.name());
            }
            assert!(src.next_request().is_none());
        }
    }

    #[test]
    fn source_skip_matches_offset_pull() {
        let p = profile_for(WorkloadKind::Financial);
        let mut skipped = p.source(800, 13);
        assert_eq!(skipped.skip(500), 500);
        let trace = p.generate(800, 13);
        assert_eq!(
            skipped.next_request().as_ref(),
            Some(&trace.requests()[500])
        );
    }
}
