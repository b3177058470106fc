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

use crate::configs::{hcsd_params, run_md, Scale};
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::runner::run_drive;

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

/// One sweep point of the bottleneck isolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BottleneckPoint {
    /// The MD reference array.
    Md(WorkloadKind),
    /// HC-SD with seek time scaled by the factor.
    Seek(WorkloadKind, f64),
    /// HC-SD with rotational latency scaled by the factor.
    Rot(WorkloadKind, f64),
}

/// Output of one [`BottleneckPoint`].
#[derive(Debug, Clone)]
pub enum BottleneckOutput {
    /// MD reference: `(kind, mean ms, CDF)`.
    Md(WorkloadKind, f64, Cdf),
    /// Seek-scaled HC-SD: `(mean ms, CDF)`.
    Seek(f64, Cdf),
    /// Rotation-scaled HC-SD: `(mean ms, CDF)`.
    Rot(f64, Cdf),
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
    type Point = BottleneckPoint;
    type Output = BottleneckOutput;
    type Report = BottleneckReport;

    fn name(&self) -> &'static str {
        "bottleneck"
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<BottleneckPoint> {
        self.kinds
            .iter()
            .flat_map(|&k| {
                std::iter::once(BottleneckPoint::Md(k))
                    .chain(FACTORS.iter().map(move |&f| BottleneckPoint::Seek(k, f)))
                    .chain(FACTORS.iter().map(move |&f| BottleneckPoint::Rot(k, f)))
            })
            .collect()
    }

    fn label(&self, point: &BottleneckPoint) -> String {
        match point {
            BottleneckPoint::Md(k) => format!("{}/MD", k.name()),
            BottleneckPoint::Seek(k, f) => format!("{}/seek x{f}", k.name()),
            BottleneckPoint::Rot(k, f) => format!("{}/rot x{f}", k.name()),
        }
    }

    fn run_point(
        &self,
        point: &BottleneckPoint,
        scale: Scale,
        book: &TraceBook,
    ) -> Result<BottleneckOutput, DriveError> {
        match *point {
            BottleneckPoint::Md(kind) => {
                let md = run_md(kind, scale, book)?;
                Ok(BottleneckOutput::Md(
                    kind,
                    md.response_time_ms.mean(),
                    md.response_hist.cdf(),
                ))
            }
            BottleneckPoint::Seek(kind, f) => {
                let r = run_drive(
                    &hcsd_params(),
                    DriveConfig::conventional()
                        .with_scaling(LatencyScaling::seek_only(f))
                        .with_stats_mode(scale.stats),
                    book.source(kind),
                )?;
                Ok(BottleneckOutput::Seek(
                    r.metrics.response_time_ms.mean(),
                    r.metrics.response_hist.cdf(),
                ))
            }
            BottleneckPoint::Rot(kind, f) => {
                let r = run_drive(
                    &hcsd_params(),
                    DriveConfig::conventional()
                        .with_scaling(LatencyScaling::rotational_only(f))
                        .with_stats_mode(scale.stats),
                    book.source(kind),
                )?;
                Ok(BottleneckOutput::Rot(
                    r.metrics.response_time_ms.mean(),
                    r.metrics.response_hist.cdf(),
                ))
            }
        }
    }

    fn reduce(&self, outputs: Vec<BottleneckOutput>) -> BottleneckReport {
        let mut workloads: Vec<BottleneckResult> = Vec::new();
        for out in outputs {
            match out {
                BottleneckOutput::Md(kind, mean, cdf) => workloads.push(BottleneckResult {
                    kind,
                    md: cdf,
                    md_mean_ms: mean,
                    seek_scaled: Vec::new(),
                    rot_scaled: Vec::new(),
                    seek_means: Vec::new(),
                    rot_means: Vec::new(),
                }),
                BottleneckOutput::Seek(mean, cdf) => {
                    let w = workloads.last_mut().expect("plan leads with MD");
                    w.seek_means.push(mean);
                    w.seek_scaled.push(cdf);
                }
                BottleneckOutput::Rot(mean, cdf) => {
                    let w = workloads.last_mut().expect("plan leads with MD");
                    w.rot_means.push(mean);
                    w.rot_scaled.push(cdf);
                }
            }
        }
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
