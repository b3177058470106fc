//! The bottleneck analysis of §7.1 (Figure 4): isolate the contribution
//! of seek time and rotational latency to HC-SD's performance gap by
//! artificially scaling each to ½, ¼, and 0 of its actual value.
//!
//! The paper's conclusion — reproduced by this module and asserted in
//! `tests/shapes.rs` — is that **rotational latency is the primary
//! bottleneck**: scaling rotational latency moves the CDFs far more
//! than scaling seek time, and `(1/4)R` is enough to surpass the MD
//! array for Websearch, TPC-C, and TPC-H.

use diskmodel::DriveError;
use intradisk::{DriveConfig, LatencyScaling};
use simkit::Cdf;
use workload::{TraceBook, WorkloadKind};

use crate::configs::Scale;
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::sweep::{Design, Load, Outcome, SimPoint};

/// The scaling factors evaluated per dimension (1, ½, ¼, 0).
pub const FACTORS: [f64; 4] = [1.0, 0.5, 0.25, 0.0];

/// Figure 4 results for one workload.
#[derive(Debug, Clone)]
pub struct BottleneckResult {
    /// Which workload.
    pub kind: WorkloadKind,
    /// The MD reference CDF.
    pub md: Cdf,
    /// MD mean response time, ms.
    pub md_mean_ms: f64,
    /// HC-SD CDFs with seek scaled by [`FACTORS`] (index-aligned;
    /// index 0 is the unscaled HC-SD baseline).
    pub seek_scaled: Vec<Cdf>,
    /// HC-SD CDFs with rotational latency scaled by [`FACTORS`].
    pub rot_scaled: Vec<Cdf>,
    /// Mean response times for the seek-scaled runs, milliseconds.
    pub seek_means: Vec<f64>,
    /// Mean response times for the rotation-scaled runs, milliseconds.
    pub rot_means: Vec<f64>,
}

/// The reduced Figure 4 study.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    /// One result per workload.
    pub workloads: Vec<BottleneckResult>,
}

/// The bottleneck study driver (Figure 4).
#[derive(Debug, Clone)]
pub struct BottleneckStudy {
    kinds: Vec<WorkloadKind>,
}

impl BottleneckStudy {
    /// All four workloads, in the paper's order.
    pub fn all() -> Self {
        BottleneckStudy {
            kinds: WorkloadKind::ALL.to_vec(),
        }
    }

    /// A single workload (tests and focused runs).
    pub fn only(kind: WorkloadKind) -> Self {
        BottleneckStudy { kinds: vec![kind] }
    }
}

impl Study for BottleneckStudy {
    type Point = SimPoint;
    type Output = Outcome;
    type Report = BottleneckReport;

    fn name(&self) -> &'static str {
        "bottleneck"
    }

    /// Per workload: MD, then HC-SD with seek time scaled by each of
    /// [`FACTORS`], then with rotational latency scaled by each.
    fn plan(&self, scale: Scale) -> ExperimentPlan<SimPoint> {
        let mut points = Vec::new();
        for &kind in &self.kinds {
            let load = Load::Profile(kind, scale.seed);
            let hcsd = |dim: String, scaling| {
                let config = DriveConfig::conventional().with_scaling(scaling);
                SimPoint::new(format!("{}/{dim}", kind.name()), load, Design::hcsd(config))
            };
            let md = SimPoint::new(format!("{}/MD", kind.name()), load, Design::md(kind));
            points.push(md);
            let seek = FACTORS.map(|f| hcsd(format!("seek x{f}"), LatencyScaling::seek_only(f)));
            points.extend(seek);
            let rot =
                FACTORS.map(|f| hcsd(format!("rot x{f}"), LatencyScaling::rotational_only(f)));
            points.extend(rot);
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

    fn reduce(&self, outputs: Vec<Outcome>) -> BottleneckReport {
        let per_kind = outputs.chunks(1 + 2 * FACTORS.len());
        let workloads = self
            .kinds
            .iter()
            .zip(per_kind)
            .map(|(&kind, outs)| {
                let (md, scaled) = outs.split_first().expect("plan leads with MD");
                let (seek, rot) = scaled.split_at(FACTORS.len());
                let cdfs =
                    |outs: &[Outcome]| outs.iter().map(|o| o.response_cdf().clone()).collect();
                let means = |outs: &[Outcome]| outs.iter().map(|o| o.mean_ms).collect();
                BottleneckResult {
                    kind,
                    md: md.response_cdf().clone(),
                    md_mean_ms: md.mean_ms,
                    seek_scaled: cdfs(seek),
                    rot_scaled: cdfs(rot),
                    seek_means: means(seek),
                    rot_means: means(rot),
                }
            })
            .collect();
        BottleneckReport { workloads }
    }
}

impl BottleneckResult {
    /// How much eliminating seeks entirely improves the mean response
    /// time (ratio ≥ 1).
    pub fn seek_elimination_speedup(&self) -> f64 {
        self.seek_means[0] / self.seek_means[3].max(1e-9)
    }

    /// How much eliminating rotational latency entirely improves the
    /// mean response time (ratio ≥ 1).
    pub fn rot_elimination_speedup(&self) -> f64 {
        self.rot_means[0] / self.rot_means[3].max(1e-9)
    }
}

impl BottleneckReport {
    /// Renders Figure 4 (both rows: seek impact, rotational impact).
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 4: Bottleneck analysis of HC-SD performance\n\n");
        for w in &self.workloads {
            let labels = ["HC-SD", "(1/2)S", "(1/4)S", "S=0", "MD"];
            let cdfs: Vec<&Cdf> = w.seek_scaled.iter().chain(std::iter::once(&w.md)).collect();
            out.push_str(&report::cdf_series(
                &format!("{} — impact of seek time", w.kind.name()),
                &labels,
                &cdfs,
            ));
            let labels = ["HC-SD", "(1/2)R", "(1/4)R", "R=0", "MD"];
            let cdfs: Vec<&Cdf> = w.rot_scaled.iter().chain(std::iter::once(&w.md)).collect();
            out.push_str(&report::cdf_series(
                &format!("{} — impact of rotational latency", w.kind.name()),
                &labels,
                &cdfs,
            ));
            out.push_str(&format!(
                "  speedup from eliminating: seeks {:.2}x, rotational latency {:.2}x\n\n",
                w.seek_elimination_speedup(),
                w.rot_elimination_speedup()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    #[test]
    fn scaling_monotone_for_tpcc() {
        let report = BottleneckStudy::only(WorkloadKind::TpcC)
            .run(Scale::quick().with_requests(8_000), &Executor::serial())
            .expect("replay succeeds");
        let r = &report.workloads[0];
        // More aggressive scaling never hurts the mean (small-sample
        // noise tolerance).
        for m in [&r.seek_means, &r.rot_means] {
            for w in m.windows(2) {
                assert!(w[1] <= w[0] * 1.05, "scaling made things worse: {m:?}");
            }
        }
        // Rotational latency is the primary bottleneck (§7.1).
        assert!(r.rot_elimination_speedup() > r.seek_elimination_speedup());
    }

    #[test]
    fn render_contains_all_series() {
        let scale = Scale::quick().with_requests(1_500);
        let study = BottleneckStudy::only(WorkloadKind::TpcH)
            .run(scale, &Executor::new(3))
            .expect("replay succeeds");
        let s = study.render();
        for label in ["(1/2)S", "(1/4)S", "S=0", "(1/2)R", "(1/4)R", "R=0", "MD"] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
