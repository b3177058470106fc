//! The limit study of §7.1 (Figures 2 and 3): replace each workload's
//! performance-tuned multi-disk array (MD) with a single high-capacity
//! drive (HC-SD) and measure the performance gap and the power gap.

use diskmodel::DriveError;
use intradisk::DriveConfig;
use workload::{TraceBook, WorkloadKind};

use crate::configs::Scale;
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::sweep::{Design, Load, Outcome, SimPoint};

/// MD vs HC-SD results for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadComparison {
    /// Which workload.
    pub kind: WorkloadKind,
    /// The Table 2 array replay.
    pub md: Outcome,
    /// The single-drive replay.
    pub hcsd: Outcome,
}

/// The reduced limit study.
#[derive(Debug, Clone)]
pub struct LimitReport {
    /// One comparison per workload, in the paper's order.
    pub workloads: Vec<WorkloadComparison>,
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

/// One workload's MD and HC-SD points, labelled `<kind>/MD` and
/// `<kind>/HC-SD` after `prefix`.
pub(crate) fn md_vs_hcsd(prefix: &str, kind: WorkloadKind, load: Load) -> [SimPoint; 2] {
    let label = |design: &str| format!("{prefix}{}/{design}", kind.name());
    [
        SimPoint::new(label("MD"), load, Design::md(kind)),
        SimPoint::new(
            label("HC-SD"),
            load,
            Design::hcsd(DriveConfig::conventional()),
        ),
    ]
}

impl Study for LimitStudy {
    type Point = SimPoint;
    type Output = Outcome;
    type Report = LimitReport;

    fn name(&self) -> &'static str {
        "limit"
    }

    fn plan(&self, scale: Scale) -> ExperimentPlan<SimPoint> {
        self.kinds
            .iter()
            .flat_map(|&k| md_vs_hcsd("", k, Load::Profile(k, scale.seed)))
            .collect()
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

    fn reduce(&self, outputs: Vec<Outcome>) -> LimitReport {
        let mut outputs = outputs.into_iter();
        let workloads = self
            .kinds
            .iter()
            .map(|&kind| WorkloadComparison {
                kind,
                md: outputs.next().expect("plan has an MD point per workload"),
                hcsd: outputs
                    .next()
                    .expect("plan has an HC-SD point per workload"),
            })
            .collect();
        LimitReport { workloads }
    }
}

impl LimitReport {
    /// Renders Figure 2: per-workload response-time CDFs, MD vs HC-SD.
    pub fn render_figure2(&self) -> String {
        let mut out = String::from("Figure 2: The performance gap between MD and HC-SD\n\n");
        for w in &self.workloads {
            out.push_str(&report::cdf_series(
                w.kind.name(),
                &["MD", "HC-SD"],
                &[w.md.response_cdf(), w.hcsd.response_cdf()],
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
                &[w.md.modes(), w.hcsd.modes()],
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
        assert_eq!(w.hcsd.completed, 6_000);
        // §7.1: TPC-H "experiences very little performance loss".
        let md_mean = w.md.mean_ms;
        let hcsd_mean = w.hcsd.mean_ms;
        assert!(
            hcsd_mean < md_mean * 4.0,
            "TPC-H HC-SD mean {hcsd_mean} too far above MD {md_mean}"
        );
        // And an order-of-magnitude power reduction.
        assert!(w.md.power_w > 5.0 * w.hcsd.power_w);
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
