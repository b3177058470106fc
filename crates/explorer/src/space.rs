//! The swept design space: axes, grids, and frontier-neighborhood
//! refinement candidates.
//!
//! The cross-product covers the paper's taxonomy slice the simulator
//! realizes — SA(n) arm-assembly points plus MH (multi-head) variants —
//! times scheduler, on-drive cache size, spindle speed, and workload
//! profile. Numeric axes (cache, RPM) carry a *full* resolution and a
//! *coarse* subsample; adaptive exploration runs the coarse grid first
//! and then refines toward full resolution only around the current
//! Pareto frontier, so CPU time concentrates where the trade-off curve
//! actually bends.
//!
//! Determinism contract: every generator here is a pure function of its
//! inputs and enumerates points in a fixed order (design, policy,
//! cache, rpm, workload — outermost to innermost); refinement
//! candidates are emitted in frontier plan order with axis-index
//! tie-breaks. The explorer's output is therefore byte-identical across
//! `--jobs` values and cache states.

use intradisk::{DashConfig, QueuePolicy};
use simkit::StatsMode;
use workload::WorkloadKind;

use crate::descriptor::PointDescriptor;

/// The DASH design points the grid sweeps: the conventional drive, the
/// paper's SA(2..4) multi-actuator points, and two multi-head (Hm)
/// variants of §4's taxonomy.
pub fn designs() -> [DashConfig; 6] {
    [
        DashConfig::conventional(),
        DashConfig::sa(2),
        DashConfig::sa(3),
        DashConfig::sa(4),
        DashConfig::new(1, 1, 1, 2),
        DashConfig::new(1, 2, 1, 2),
    ]
}

/// Scheduler axis.
pub const POLICIES: [QueuePolicy; 3] = [QueuePolicy::Fcfs, QueuePolicy::Sstf, QueuePolicy::Sptf];

/// Full-resolution cache-size axis (MiB).
pub const CACHE_MIB: [u32; 4] = [4, 8, 16, 32];

/// Full-resolution spindle-speed axis.
pub const RPM: [u32; 4] = [5_400, 7_200, 10_000, 15_000];

/// Indices into [`CACHE_MIB`] swept by the coarse pass (the extremes).
pub const COARSE_CACHE_IDX: [usize; 2] = [0, 3];

/// Indices into [`RPM`] swept by the coarse pass (the extremes).
pub const COARSE_RPM_IDX: [usize; 2] = [0, 3];

/// Which slice of the numeric axes a grid covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridResolution {
    /// Numeric axes at their coarse subsample (the adaptive seed grid).
    Coarse,
    /// Every numeric-axis value (the exhaustive cross-product).
    Full,
}

/// Everything held fixed across a sweep: run length, seed, stats mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepScale {
    /// Requests per point.
    pub requests: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Stats collection mode (streaming by default: the cache payload
    /// serializes the streaming state).
    pub stats: StatsMode,
}

impl Default for SweepScale {
    fn default() -> Self {
        SweepScale {
            requests: 2_000,
            seed: 42,
            stats: StatsMode::Streaming,
        }
    }
}

fn descriptor(
    dash: DashConfig,
    policy: QueuePolicy,
    cache_mib: u32,
    rpm: u32,
    workload: WorkloadKind,
    scale: SweepScale,
) -> PointDescriptor {
    PointDescriptor {
        dash,
        policy,
        cache_mib,
        rpm,
        workload,
        requests: scale.requests,
        seed: scale.seed,
        stats: scale.stats,
    }
}

/// Enumerates a grid in canonical order (design, policy, cache, rpm,
/// workload — outermost to innermost).
pub fn grid(resolution: GridResolution, scale: SweepScale) -> Vec<PointDescriptor> {
    let (cache_idx, rpm_idx): (Vec<usize>, Vec<usize>) = match resolution {
        GridResolution::Coarse => (COARSE_CACHE_IDX.to_vec(), COARSE_RPM_IDX.to_vec()),
        GridResolution::Full => ((0..CACHE_MIB.len()).collect(), (0..RPM.len()).collect()),
    };
    let mut out = Vec::new();
    for &dash in &designs() {
        for &policy in &POLICIES {
            for &ci in &cache_idx {
                for &ri in &rpm_idx {
                    for &workload in &WorkloadKind::ALL {
                        out.push(descriptor(
                            dash,
                            policy,
                            CACHE_MIB[ci],
                            RPM[ri],
                            workload,
                            scale,
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Refinement candidates for one frontier point: its neighbors at ±1
/// step on each *full-resolution* numeric axis (cache size, then RPM),
/// everything else fixed. Emitted in a fixed order: cache-down,
/// cache-up, rpm-down, rpm-up. Values not on the full axes yield no
/// candidates on that axis.
pub fn neighbors(d: &PointDescriptor) -> Vec<PointDescriptor> {
    let mut out = Vec::new();
    if let Some(ci) = CACHE_MIB.iter().position(|&c| c == d.cache_mib) {
        if ci > 0 {
            out.push(PointDescriptor {
                cache_mib: CACHE_MIB[ci - 1],
                ..*d
            });
        }
        if ci + 1 < CACHE_MIB.len() {
            out.push(PointDescriptor {
                cache_mib: CACHE_MIB[ci + 1],
                ..*d
            });
        }
    }
    if let Some(ri) = RPM.iter().position(|&r| r == d.rpm) {
        if ri > 0 {
            out.push(PointDescriptor {
                rpm: RPM[ri - 1],
                ..*d
            });
        }
        if ri + 1 < RPM.len() {
            out.push(PointDescriptor {
                rpm: RPM[ri + 1],
                ..*d
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn coarse_grid_size_and_uniqueness() {
        let g = grid(GridResolution::Coarse, SweepScale::default());
        assert_eq!(g.len(), 6 * 3 * 2 * 2 * 4);
        let hashes: HashSet<String> = g.iter().map(PointDescriptor::hash).collect();
        assert_eq!(hashes.len(), g.len(), "every point hashes uniquely");
    }

    #[test]
    fn full_grid_exceeds_thousand_points() {
        let g = grid(GridResolution::Full, SweepScale::default());
        assert_eq!(g.len(), 6 * 3 * 4 * 4 * 4);
        assert!(g.len() >= 1_000);
    }

    #[test]
    fn coarse_grid_is_subset_of_full() {
        let scale = SweepScale::default();
        let full: HashSet<String> = grid(GridResolution::Full, scale)
            .iter()
            .map(PointDescriptor::hash)
            .collect();
        for p in grid(GridResolution::Coarse, scale) {
            assert!(full.contains(&p.hash()));
        }
    }

    #[test]
    fn neighbors_step_along_full_axes() {
        let scale = SweepScale::default();
        let coarse = grid(GridResolution::Coarse, scale);
        // A coarse corner point (cache 4 MiB, 5400 rpm) has only "up"
        // neighbors.
        let corner = coarse
            .iter()
            .find(|p| p.cache_mib == 4 && p.rpm == 5_400)
            .unwrap();
        let n = neighbors(corner);
        assert_eq!(n.len(), 2);
        assert_eq!(n[0].cache_mib, 8);
        assert_eq!(n[1].rpm, 7_200);
        // An interior full-grid point has all four.
        let interior = PointDescriptor {
            cache_mib: 8,
            rpm: 7_200,
            ..*corner
        };
        assert_eq!(neighbors(&interior).len(), 4);
    }

    #[test]
    fn grids_are_deterministic() {
        let scale = SweepScale::default();
        assert_eq!(
            grid(GridResolution::Full, scale),
            grid(GridResolution::Full, scale)
        );
    }
}
