//! The limit study of §7.1 (Figures 2 and 3): replace each workload's
//! performance-tuned multi-disk array (MD) with a single high-capacity
//! drive (HC-SD) and measure the performance gap and the power gap.

use diskmodel::DriveError;
use intradisk::DriveConfig;
use simkit::Cdf;
use workload::{TraceBook, WorkloadKind};

use crate::configs::{hcsd_params, run_md, Scale};
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::runner::{run_drive, ArrayRunResult, DriveRunResult};

/// MD vs HC-SD results for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadComparison {
    /// Which workload.
    pub kind: WorkloadKind,
    /// The Table 2 array replay.
    pub md: ArrayRunResult,
    /// The single-drive replay.
    pub hcsd: DriveRunResult,
}

impl WorkloadComparison {
    /// MD's response-time CDF.
    pub fn md_cdf(&self) -> Cdf {
        self.md.response_hist.cdf()
    }

    /// HC-SD's response-time CDF.
    pub fn hcsd_cdf(&self) -> Cdf {
        self.hcsd.metrics.response_hist.cdf()
    }
}

/// The reduced limit study.
#[derive(Debug, Clone)]
pub struct LimitReport {
    /// One comparison per workload, in the paper's order.
    pub workloads: Vec<WorkloadComparison>,
}

/// One sweep point: one workload's MD array or HC-SD replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitPoint {
    /// The Table 2 multi-disk array.
    Md(WorkloadKind),
    /// The high-capacity single drive.
    Hcsd(WorkloadKind),
}

/// Output of one [`LimitPoint`].
#[derive(Debug, Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "one value per sweep point, moved once into reduce; boxing would add an allocation and save nothing"
)]
pub enum LimitOutput {
    /// Array replay result.
    Md(WorkloadKind, ArrayRunResult),
    /// Single-drive replay result.
    Hcsd(DriveRunResult),
}

/// The limit study driver (Figures 2 and 3).
#[derive(Debug, Clone)]
pub struct LimitStudy {
    kinds: Vec<WorkloadKind>,
}

impl LimitStudy {
    /// All four workloads, in the paper's order.
    pub fn all() -> Self {
        LimitStudy {
            kinds: WorkloadKind::ALL.to_vec(),
        }
    }

    /// A single workload (tests and focused runs).
    pub fn only(kind: WorkloadKind) -> Self {
        LimitStudy { kinds: vec![kind] }
    }
}

impl Study for LimitStudy {
    type Point = LimitPoint;
    type Output = LimitOutput;
    type Report = LimitReport;

    fn name(&self) -> &'static str {
        "limit"
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<LimitPoint> {
        self.kinds
            .iter()
            .flat_map(|&k| [LimitPoint::Md(k), LimitPoint::Hcsd(k)])
            .collect()
    }

    fn label(&self, point: &LimitPoint) -> String {
        match point {
            LimitPoint::Md(k) => format!("{}/MD", k.name()),
            LimitPoint::Hcsd(k) => format!("{}/HC-SD", k.name()),
        }
    }

    fn run_point(
        &self,
        point: &LimitPoint,
        scale: Scale,
        book: &TraceBook,
    ) -> Result<LimitOutput, DriveError> {
        match *point {
            LimitPoint::Md(kind) => {
                let md = run_md(kind, scale, book)?;
                Ok(LimitOutput::Md(kind, md))
            }
            LimitPoint::Hcsd(kind) => {
                let hcsd = run_drive(
                    &hcsd_params(),
                    DriveConfig::conventional().with_stats_mode(scale.stats),
                    book.source(kind),
                )?;
                Ok(LimitOutput::Hcsd(hcsd))
            }
        }
    }

    fn reduce(&self, outputs: Vec<LimitOutput>) -> LimitReport {
        let mut pending: Option<(WorkloadKind, ArrayRunResult)> = None;
        let mut workloads = Vec::new();
        for out in outputs {
            match out {
                LimitOutput::Md(kind, md) => pending = Some((kind, md)),
                LimitOutput::Hcsd(hcsd) => {
                    let (kind, md) = pending.take().expect("plan pairs MD before HC-SD");
                    workloads.push(WorkloadComparison { kind, md, hcsd });
                }
            }
        }
        LimitReport { workloads }
    }
}

impl LimitReport {
    /// Renders Figure 2: per-workload response-time CDFs, MD vs HC-SD.
    pub fn render_figure2(&self) -> String {
        let mut out = String::from("Figure 2: The performance gap between MD and HC-SD\n\n");
        for w in &self.workloads {
            let md = w.md_cdf();
            let hcsd = w.hcsd_cdf();
            out.push_str(&report::cdf_series(
                w.kind.name(),
                &["MD", "HC-SD"],
                &[&md, &hcsd],
            ));
            out.push('\n');
        }
        out
    }

    /// Renders Figure 3: per-workload average power, broken into the
    /// four operating modes, MD vs HC-SD.
    pub fn render_figure3(&self) -> String {
        let mut out = String::from("Figure 3: The power gap between MD and HC-SD\n\n");
        for w in &self.workloads {
            out.push_str(&report::power_bars(
                w.kind.name(),
                &["MD", "HC-SD"],
                &[w.md.power, w.hcsd.power],
            ));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    // Full-study shape assertions live in tests/shapes.rs; here we only
    // smoke-test one comparison end to end at tiny scale.
    #[test]
    fn tpch_light_load_keeps_hcsd_close() {
        let scale = Scale::quick().with_requests(6_000);
        let report = LimitStudy::only(WorkloadKind::TpcH)
            .run(scale, &Executor::serial())
            .expect("replay succeeds");
        let w = &report.workloads[0];
        assert_eq!(w.md.completed, 6_000);
        assert_eq!(w.hcsd.metrics.completed, 6_000);
        // §7.1: TPC-H "experiences very little performance loss".
        let md_mean = w.md.response_time_ms.mean();
        let hcsd_mean = w.hcsd.metrics.response_time_ms.mean();
        assert!(
            hcsd_mean < md_mean * 4.0,
            "TPC-H HC-SD mean {hcsd_mean} too far above MD {md_mean}"
        );
        // And an order-of-magnitude power reduction.
        assert!(w.md.power.total_w() > 5.0 * w.hcsd.power.total_w());
    }

    #[test]
    fn renders_mention_all_workloads() {
        let scale = Scale::quick().with_requests(1_500);
        let study = LimitStudy::all()
            .run(scale, &Executor::new(2))
            .expect("replay succeeds");
        let f2 = study.render_figure2();
        let f3 = study.render_figure3();
        for kind in WorkloadKind::ALL {
            assert!(f2.contains(kind.name()), "fig2 missing {}", kind.name());
            assert!(f3.contains(kind.name()), "fig3 missing {}", kind.name());
        }
    }
}
