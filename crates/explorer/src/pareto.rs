//! The 3-axis Pareto frontier over explored points.
//!
//! The paper argues its designs on exactly three axes — response time,
//! power, and cost (§6–§7, Table 9) — so the explorer reduces every
//! evaluated point to one [`Axes`] triple (latency ms, energy J, cost
//! USD; all minimized) and keeps the mutually non-dominated subset.
//!
//! Determinism: the frontier is reduced in plan order with a pure
//! fold — `frontier_indices` is a function of the metric list alone —
//! so its contents (and the order they are reported in) are identical
//! across `--jobs` values and cache states.

/// Which latency statistic feeds the frontier's latency axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyAxis {
    /// Mean response time.
    Mean,
    /// 90th-percentile response time (the default; the paper's
    /// headline statistic).
    #[default]
    P90,
}

impl LatencyAxis {
    /// Stable name for export/CLI round-trips.
    pub fn name(self) -> &'static str {
        match self {
            LatencyAxis::Mean => "mean",
            LatencyAxis::P90 => "p90",
        }
    }
}

/// One point's objective triple. All axes are minimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Axes {
    /// Latency (ms) — mean or p90 per [`LatencyAxis`].
    pub latency_ms: f64,
    /// Energy over the replay (J): average power × run span.
    pub energy_j: f64,
    /// Drive material cost (USD, Table 9a midpoint).
    pub cost_usd: f64,
}

impl Axes {
    /// True if `self` Pareto-dominates `other`: no worse on every axis
    /// and strictly better on at least one.
    pub fn dominates(&self, other: &Axes) -> bool {
        let no_worse = self.latency_ms <= other.latency_ms
            && self.energy_j <= other.energy_j
            && self.cost_usd <= other.cost_usd;
        let better = self.latency_ms < other.latency_ms
            || self.energy_j < other.energy_j
            || self.cost_usd < other.cost_usd;
        no_worse && better
    }
}

/// Indices (into `points`, preserving plan order) of the mutually
/// non-dominated subset. A point dominated by any other never appears;
/// of several points with *identical* axes, the earliest survives (a
/// deterministic tie-break — later duplicates add no information).
///
/// Sorted by (latency, energy, cost, plan index), every point comes
/// after every point that dominates or duplicates it, and if a point is
/// dominated at all, some frontier point dominates it. So each point is
/// tested against the frontier found so far only: O(n log n + n·f) for
/// a frontier of f points, not the O(n²) of testing every pair.
pub fn frontier_indices(points: &[Axes]) -> Vec<usize> {
    // `x + 0.0` turns -0.0 into 0.0, so that the total order agrees
    // with `<=` and `==` on every non-NaN value; a point with a NaN
    // axis neither dominates nor duplicates any other, wherever it
    // sorts.
    let key = |a: &Axes| [a.latency_ms + 0.0, a.energy_j + 0.0, a.cost_usd + 0.0];
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&i, &j| {
        let (a, b) = (key(&points[i]), key(&points[j]));
        a.iter()
            .zip(&b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    let mut out: Vec<usize> = Vec::new();
    for i in order {
        let p = &points[i];
        if !out
            .iter()
            .any(|&j| points[j].dominates(p) || points[j] == *p)
        {
            out.push(i);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ax(l: f64, e: f64, c: f64) -> Axes {
        Axes {
            latency_ms: l,
            energy_j: e,
            cost_usd: c,
        }
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        let a = ax(1.0, 1.0, 1.0);
        assert!(!a.dominates(&a));
        assert!(a.dominates(&ax(2.0, 1.0, 1.0)));
        assert!(a.dominates(&ax(2.0, 2.0, 2.0)));
        assert!(
            !a.dominates(&ax(0.5, 2.0, 2.0)),
            "trade-offs don't dominate"
        );
    }

    #[test]
    fn frontier_drops_dominated_keeps_tradeoffs() {
        let pts = [
            ax(1.0, 3.0, 3.0), // frontier: best latency
            ax(3.0, 1.0, 3.0), // frontier: best energy
            ax(3.0, 3.0, 1.0), // frontier: best cost
            ax(4.0, 4.0, 4.0), // dominated by all three
            ax(1.0, 3.0, 3.0), // duplicate of 0 — dropped by tie-break
        ];
        assert_eq!(frontier_indices(&pts), vec![0, 1, 2]);
    }

    /// The all-pairs frontier `frontier_indices` replaced: the
    /// reference its property test checks it against.
    fn frontier_by_all_pairs(points: &[Axes]) -> Vec<usize> {
        let mut out = Vec::new();
        'candidate: for (i, p) in points.iter().enumerate() {
            for (j, q) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                if q.dominates(p) {
                    continue 'candidate;
                }
                if q == p && j < i {
                    continue 'candidate;
                }
            }
            out.push(i);
        }
        out
    }

    #[test]
    fn frontier_matches_the_all_pairs_reference() {
        // Axes drawn from a few values each, so that exact ties on one
        // axis and whole duplicates are common; -0.0 and 0.0 are both
        // drawn and compare equal; a NaN axis dominates nothing.
        let values = [-0.0, 0.0, 1.0, 2.5, 2.5, 7.0, f64::INFINITY, f64::NAN];
        let mut rng = simkit::Rng64::new(31);
        for case in 0..400 {
            let n = rng.below(40) as usize;
            let mut draw = || values[rng.below(values.len() as u64) as usize];
            let pts: Vec<Axes> = (0..n).map(|_| ax(draw(), draw(), draw())).collect();
            assert_eq!(
                frontier_indices(&pts),
                frontier_by_all_pairs(&pts),
                "case {case}: {pts:?}"
            );
        }
    }

    #[test]
    fn frontier_points_mutually_nondominated() {
        // Property: on a pseudo-random cloud, no frontier member
        // dominates another, and every non-member is dominated by (or
        // duplicates) some member.
        let mut rng = simkit::Rng64::new(9);
        let pts: Vec<Axes> = (0..200)
            .map(|_| ax(rng.f64() * 10.0, rng.f64() * 10.0, rng.f64() * 10.0))
            .collect();
        let front = frontier_indices(&pts);
        assert!(!front.is_empty());
        for &i in &front {
            for &j in &front {
                assert!(i == j || !pts[i].dominates(&pts[j]));
            }
        }
        for (i, p) in pts.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            assert!(
                front
                    .iter()
                    .any(|&j| pts[j].dominates(p) || (pts[j] == *p && j < i)),
                "non-member {i} neither dominated nor a duplicate"
            );
        }
    }
}
