//! Canonical point descriptors and their content hashes.
//!
//! A [`PointDescriptor`] pins *everything* that determines one
//! simulation result: the drive model and its swept parameters (RPM,
//! cache size), the DASH design point, the scheduler, the workload
//! profile, the request count, the seed, and the stats mode. Two
//! descriptors with equal canonical forms produce byte-identical
//! simulation output (the simulator is deterministic), so the SHA-256
//! of the canonical form — the **descriptor hash** — is a sound
//! content address for the point cache.
//!
//! The canonical form is a single-line JSON object with keys in fixed
//! (sorted) order and floats absent by construction (all swept fields
//! are integers or enums), so hashing is trivially stable across hosts
//! and rebuilds.

use std::fmt;

use intradisk::{DashConfig, DriveConfig, QueuePolicy};
use simkit::StatsMode;
use workload::WorkloadKind;

use crate::sha256;

/// The base drive model every explorer point derives from (the §7.1
/// High-Capacity Single Drive), before the RPM/cache overrides.
pub const BASE_MODEL: &str = "barracuda-es-750gb";

/// One fully pinned design/workload point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointDescriptor {
    /// DASH taxonomy point (only `D1 An S1 Hm` is realizable by the
    /// drive simulator; [`PointDescriptor::drive_config`] asserts it).
    pub dash: DashConfig,
    /// Queue scheduling policy.
    pub policy: QueuePolicy,
    /// On-drive cache size override (MiB).
    pub cache_mib: u32,
    /// Spindle speed override.
    pub rpm: u32,
    /// Workload profile.
    pub workload: WorkloadKind,
    /// Requests replayed.
    pub requests: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Stats collection mode.
    pub stats: StatsMode,
}

/// Stable lowercase name for a scheduling policy.
pub fn policy_name(p: QueuePolicy) -> &'static str {
    match p {
        QueuePolicy::Fcfs => "fcfs",
        QueuePolicy::Sstf => "sstf",
        QueuePolicy::Sptf => "sptf",
    }
}

/// Stable name for a stats mode.
pub fn stats_name(s: StatsMode) -> &'static str {
    match s {
        StatsMode::Exact => "exact",
        StatsMode::Streaming => "streaming",
    }
}

impl PointDescriptor {
    /// The canonical single-line JSON form the hash is computed over.
    /// Keys are in fixed sorted order; values are integers and enum
    /// names only.
    pub fn canonical(&self) -> String {
        format!(
            "{{\"cache_mib\":{},\"dash\":\"{}\",\"model\":\"{}\",\"policy\":\"{}\",\
             \"requests\":{},\"rpm\":{},\"seed\":{},\"stats\":\"{}\",\"workload\":\"{}\"}}",
            self.cache_mib,
            self.dash,
            BASE_MODEL,
            policy_name(self.policy),
            self.requests,
            self.rpm,
            self.seed,
            stats_name(self.stats),
            self.workload.name(),
        )
    }

    /// SHA-256 of [`canonical`](Self::canonical) — the cache key's
    /// content-address half.
    pub fn hash(&self) -> String {
        sha256::hex(self.canonical().as_bytes())
    }

    /// Short human label for progress lines.
    pub fn label(&self) -> String {
        format!(
            "{} {} {}MiB {}rpm {}",
            self.dash,
            policy_name(self.policy),
            self.cache_mib,
            self.rpm,
            self.workload.name()
        )
    }

    /// The drive parameters this point runs on.
    pub fn disk_params(&self) -> diskmodel::DiskParams {
        diskmodel::presets::barracuda_es_750gb()
            .with_rpm(self.rpm)
            .with_cache_mib(self.cache_mib)
    }

    /// The drive configuration this point runs with.
    ///
    /// # Panics
    /// Panics if the DASH point is outside the simulator's
    /// `D1 An S1 Hm` family (the grid generator only emits realizable
    /// points).
    pub fn drive_config(&self) -> DriveConfig {
        assert!(
            self.dash.disk_stacks() == 1 && self.dash.surfaces() == 1,
            "unrealizable DASH point {}",
            self.dash
        );
        DriveConfig::dash(self.dash.arm_assemblies(), self.dash.heads())
            .with_policy(self.policy)
            .with_stats_mode(self.stats)
    }
}

impl fmt::Display for PointDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointDescriptor {
        PointDescriptor {
            dash: DashConfig::sa(2),
            policy: QueuePolicy::Sptf,
            cache_mib: 8,
            rpm: 7200,
            workload: WorkloadKind::TpcC,
            requests: 2000,
            seed: 42,
            stats: StatsMode::Streaming,
        }
    }

    #[test]
    fn canonical_is_stable_json() {
        let d = sample();
        let c = d.canonical();
        assert!(c.starts_with("{\"cache_mib\":8,"));
        assert!(c.contains("\"dash\":\"D1A2S1H1\""));
        assert!(c.contains("\"workload\":\"TPC-C\""));
        // Canonical form parses as JSON.
        telemetry::metrics::jsonv::parse(&c).expect("canonical form is JSON");
    }

    #[test]
    fn hash_sensitive_to_every_field() {
        let base = sample();
        let h0 = base.hash();
        let variants = [
            PointDescriptor {
                dash: DashConfig::sa(3),
                ..base
            },
            PointDescriptor {
                policy: QueuePolicy::Fcfs,
                ..base
            },
            PointDescriptor {
                cache_mib: 16,
                ..base
            },
            PointDescriptor {
                rpm: 10_000,
                ..base
            },
            PointDescriptor {
                workload: WorkloadKind::TpcH,
                ..base
            },
            PointDescriptor {
                requests: 2001,
                ..base
            },
            PointDescriptor { seed: 43, ..base },
            PointDescriptor {
                stats: StatsMode::Exact,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.hash(), h0, "{}", v.canonical());
        }
        assert_eq!(sample().hash(), h0, "equal descriptors hash equal");
    }

    #[test]
    fn drive_config_realizes_dash_point() {
        let cfg = sample().drive_config();
        assert_eq!(cfg.actuators, 2);
        assert_eq!(cfg.heads_per_arm, 1);
    }
}
