//! Seed-robustness replication.
//!
//! The paper replays each trace once; our stand-in traces are sampled
//! from calibrated generators, so every qualitative conclusion should
//! hold for *any* seed, not just the default. This module reruns an
//! experiment over several seeds and reports mean ± 95% confidence
//! intervals, and [`limit_ratio_robustness`] checks the central Figure 2
//! relationship — the HC-SD/MD mean-response ratio — across seeds.

use diskmodel::DriveError;
use workload::{TraceBook, WorkloadKind};

use crate::configs::Scale;
use crate::exec::Executor;
use crate::limit_study::md_vs_hcsd;
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::sweep::{Load, Outcome, SimPoint};

/// Mean and spread of a replicated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Replicated {
    /// Per-seed observations.
    pub samples: Vec<f64>,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Half-width of the 95% confidence interval (normal
    /// approximation).
    pub half_ci95: f64,
}

impl Replicated {
    /// Summarizes per-seed observations.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "need at least one seed");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() < 2 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        };
        let stddev = var.sqrt();
        Replicated {
            half_ci95: 1.96 * stddev / n.sqrt(),
            samples,
            mean,
            stddev,
        }
    }
}

/// The limit study's MD and HC-SD points for every workload at every
/// seed, as one plan. Points at the sweep's own seed replay its
/// [`TraceBook`]; the others generate their workloads lazily.
pub(crate) struct RobustStudy {
    pub(crate) kinds: Vec<WorkloadKind>,
    pub(crate) seeds: Vec<u64>,
}

impl Study for RobustStudy {
    type Point = SimPoint;
    type Output = Outcome;
    /// The HC-SD/MD mean-response ratio per workload, over the seeds.
    type Report = Vec<Replicated>;

    fn name(&self) -> &'static str {
        "robust"
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<SimPoint> {
        assert!(!self.seeds.is_empty(), "need at least one seed");
        let mut points = Vec::new();
        for &kind in &self.kinds {
            for &seed in &self.seeds {
                let load = Load::Profile(kind, seed);
                points.extend(md_vs_hcsd(&format!("seed {seed}/"), kind, load));
            }
        }
        ExperimentPlan::new(points)
    }

    fn label(&self, point: &SimPoint) -> String {
        point.label.clone()
    }

    fn run_point(
        &self,
        point: &SimPoint,
        scale: Scale,
        book: &TraceBook,
    ) -> Result<Outcome, DriveError> {
        point.run(scale, book)
    }

    fn reduce(&self, outputs: Vec<Outcome>) -> Vec<Replicated> {
        outputs
            .chunks(2 * self.seeds.len())
            .map(|per_kind| {
                let ratios = per_kind.chunks(2).map(|p| p[1].mean_ms / p[0].mean_ms);
                Replicated::from_samples(ratios.collect())
            })
            .collect()
    }
}

/// The HC-SD/MD mean-response ratio for one workload, replicated over
/// seeds. A ratio well above 1 is Figure 2's "severe performance
/// loss"; near 1 is TPC-H's "very little loss".
///
/// # Panics
/// Panics if `seeds` is empty or a replay fails.
pub fn limit_ratio_robustness(
    kind: WorkloadKind,
    scale: Scale,
    seeds: &[u64],
    exec: &Executor,
) -> Replicated {
    let study = RobustStudy {
        kinds: vec![kind],
        seeds: seeds.to_vec(),
    };
    let mut ratios = study.run(scale, exec).expect("limit study replays cleanly");
    ratios.remove(0)
}

/// Renders the robustness table over the default seed set.
///
/// # Panics
/// Panics if `seeds` is empty or a replay fails.
pub fn render(scale: Scale, seeds: &[u64], exec: &Executor) -> String {
    let study = RobustStudy {
        kinds: WorkloadKind::ALL.to_vec(),
        seeds: seeds.to_vec(),
    };
    let ratios = study.run(scale, exec).expect("limit study replays cleanly");
    let headers = ["workload", "HC-SD/MD ratio", "stddev", "95% CI", "seeds"];
    let rows: Vec<Vec<String>> = study
        .kinds
        .iter()
        .zip(&ratios)
        .map(|(kind, r)| {
            vec![
                kind.name().to_string(),
                format!("{:.2}", r.mean),
                format!("{:.2}", r.stddev),
                format!("±{:.2}", r.half_ci95),
                seeds.len().to_string(),
            ]
        })
        .collect();
    format!(
        "Seed robustness of the limit study (Figure 2's central ratio)\n{}",
        report::table(&headers, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_summary_math() {
        let r = Replicated::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.samples, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.mean, 2.5);
        assert!((r.stddev - 1.2909944).abs() < 1e-6);
        assert!(r.half_ci95 > 0.0);
    }

    #[test]
    fn single_seed_has_zero_spread() {
        let r = Replicated::from_samples(vec![42.0]);
        assert_eq!(r.mean, 42.0);
        assert_eq!(r.stddev, 0.0);
        assert_eq!(r.half_ci95, 0.0);
    }

    #[test]
    fn figure2_conclusions_hold_across_seeds() {
        let scale = Scale::quick().with_requests(5_000);
        let seeds = [11, 22, 33];
        let exec = Executor::new(2);
        // TPC-C degrades on every seed...
        let c = limit_ratio_robustness(WorkloadKind::TpcC, scale, &seeds, &exec);
        assert!(
            c.samples.iter().all(|&r| r > 1.5),
            "TPC-C ratios {:?}",
            c.samples
        );
        // ...and TPC-H never degrades much, on every seed.
        let h = limit_ratio_robustness(WorkloadKind::TpcH, scale, &seeds, &exec);
        assert!(
            h.samples.iter().all(|&r| r < 1.6),
            "TPC-H ratios {:?}",
            h.samples
        );
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_panic() {
        Replicated::from_samples(Vec::new());
    }
}
