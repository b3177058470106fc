//! Run-scale control and the Table 2 storage configurations.
//!
//! The paper's traces carry 4.2–6.2 million requests; replaying them at
//! full scale for every figure takes a while, so every experiment takes
//! a [`Scale`] selecting the request count (the workload generators are
//! stationary, so a scaled run reproduces the same distributions with
//! wider confidence intervals).

use array::Layout;
use diskmodel::{presets, DiskParams, DriveError};
use intradisk::DriveConfig;
use simkit::StatsMode;
use workload::{profile_for, ProfileSource, Trace, TraceBook, WorkloadKind};

use crate::runner::{run_array, ArrayRunResult};

/// How many requests to replay per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Requests per run.
    pub requests: usize,
    /// Seed for the generators.
    pub seed: u64,
    /// How the studies collect latency statistics: `Exact` retains
    /// every sample (default; byte-stable report output); `Streaming`
    /// bounds memory for runs far beyond report scale.
    pub stats: StatsMode,
}

impl Scale {
    /// Quick scale for unit/integration tests (~seconds).
    pub fn quick() -> Self {
        Scale {
            requests: 15_000,
            seed: 42,
            stats: StatsMode::Exact,
        }
    }

    /// Default reporting scale (the `repro` binary).
    pub fn report() -> Self {
        Scale {
            requests: 200_000,
            seed: 42,
            stats: StatsMode::Exact,
        }
    }

    /// Overrides the request count.
    pub fn with_requests(mut self, requests: usize) -> Self {
        assert!(requests > 0, "need at least one request");
        self.requests = requests;
        self
    }

    /// Overrides the statistics mode.
    pub fn with_stats(mut self, stats: StatsMode) -> Self {
        self.stats = stats;
        self
    }

    /// An empty [`TraceBook`] for this scale's request count and seed:
    /// the workloads one sweep at this scale replays.
    pub fn book(self) -> TraceBook {
        TraceBook::new(self.requests, self.seed)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::report()
    }
}

/// The storage system a workload's trace was collected on (Table 2):
/// drive model, disk count, and layout.
#[derive(Debug, Clone)]
pub struct MdConfig {
    /// Member drive parameters.
    pub drive: DiskParams,
    /// Number of disks.
    pub disks: usize,
    /// Data layout.
    pub layout: Layout,
}

/// Table 2's storage system for a workload.
pub fn md_config(kind: WorkloadKind) -> MdConfig {
    let drive = match kind {
        WorkloadKind::Financial | WorkloadKind::Websearch => presets::array_drive_10k_19gb(),
        WorkloadKind::TpcC => presets::array_drive_10k_37gb(),
        WorkloadKind::TpcH => presets::array_drive_7200_36gb(),
    };
    MdConfig {
        drive,
        disks: kind.md_disks(),
        // The performance-tuned arrays stripe the dataset over the
        // members (§1: "distributing the dataset ... typically using
        // RAID"); the stripe unit is far smaller than a hot extent, so
        // every disk carries its share of the hot set.
        layout: Layout::striped_default(),
    }
}

/// Replays `kind` from `book` against its Table 2 storage system
/// ([`md_config`]), every member a conventional drive.
pub fn run_md(
    kind: WorkloadKind,
    scale: Scale,
    book: &TraceBook,
) -> Result<ArrayRunResult, DriveError> {
    let cfg = md_config(kind);
    run_array(
        &cfg.drive,
        DriveConfig::conventional().with_stats_mode(scale.stats),
        cfg.disks,
        cfg.layout,
        book.source(kind),
    )
}

/// The High-Capacity Single Drive of the limit study (§7.1): the
/// 750 GB Barracuda ES.
pub fn hcsd_params() -> DiskParams {
    presets::barracuda_es_750gb()
}

/// Generates the calibrated trace for a workload at the given scale,
/// materialized in memory. Prefer [`source_for`] for large runs.
pub fn trace_for(kind: WorkloadKind, scale: Scale) -> Trace {
    profile_for(kind).generate(scale.requests, scale.seed)
}

/// The lazy [`workload::RequestSource`] for a workload at the given
/// scale — yields exactly the requests [`trace_for`] materializes, in
/// order, with O(1) memory. Sweeps replay from a [`TraceBook`]
/// ([`Scale::book`]) instead.
pub fn source_for(kind: WorkloadKind, scale: Scale) -> ProfileSource {
    profile_for(kind).source(scale.requests, scale.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_configs_match_table2() {
        let f = md_config(WorkloadKind::Financial);
        assert_eq!(f.disks, 24);
        assert_eq!(f.drive.rpm(), 10_000);
        let h = md_config(WorkloadKind::TpcH);
        assert_eq!(h.disks, 15);
        assert_eq!(h.drive.rpm(), 7_200);
        assert_eq!(h.drive.platters(), 6);
        let c = md_config(WorkloadKind::TpcC);
        assert_eq!(c.disks, 4);
        assert!((c.drive.capacity_gb() - 37.17).abs() < 1e-9);
    }

    #[test]
    fn md_capacity_holds_footprint() {
        for kind in WorkloadKind::ALL {
            let cfg = md_config(kind);
            let logical = cfg
                .layout
                .logical_capacity(cfg.disks, cfg.drive.capacity_sectors());
            assert!(
                logical >= kind.footprint_sectors() * 99 / 100,
                "{}: {} < {}",
                kind.name(),
                logical,
                kind.footprint_sectors()
            );
        }
    }

    #[test]
    fn hcsd_holds_every_footprint() {
        let cap = hcsd_params().capacity_sectors();
        for kind in WorkloadKind::ALL {
            assert!(cap >= kind.footprint_sectors(), "{}", kind.name());
        }
    }

    #[test]
    fn trace_scales() {
        let t = trace_for(WorkloadKind::TpcC, Scale::quick());
        assert_eq!(t.len(), Scale::quick().requests);
    }

    #[test]
    fn source_for_matches_trace_for() {
        use workload::collect_trace;
        let scale = Scale::quick().with_requests(2_000);
        for kind in WorkloadKind::ALL {
            assert_eq!(
                collect_trace(source_for(kind, scale)),
                trace_for(kind, scale),
                "{}",
                kind.name()
            );
        }
    }
}
