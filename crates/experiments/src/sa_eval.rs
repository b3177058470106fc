//! The intra-disk parallelism evaluation of §7.2 (Figure 5): replace
//! HC-SD by HC-SD-SA(n) for n = 1..4 and measure the response-time CDFs
//! (top row) and rotational-latency PDFs (bottom row), plus the §7.2
//! side statistics — the fraction of non-zero seeks (which *rises* with
//! more actuators) and the average power (Figure 6's 7200-RPM bars).

use diskmodel::DriveError;
use intradisk::{DriveConfig, PowerBreakdown};
use simkit::{Cdf, Pdf};
use workload::{TraceBook, WorkloadKind};

use crate::configs::Scale;
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::sweep::{Design, Load, Outcome, SimPoint};

/// The actuator counts evaluated.
pub const ACTUATORS: [u32; 4] = [1, 2, 3, 4];

/// Figure 5 results for one workload.
#[derive(Debug, Clone)]
pub struct SaResult {
    /// Which workload.
    pub kind: WorkloadKind,
    /// MD reference CDF.
    pub md_cdf: Cdf,
    /// MD mean response time, ms.
    pub md_mean_ms: f64,
    /// Response-time CDF per actuator count (index-aligned with
    /// [`ACTUATORS`]; index 0 is HC-SD).
    pub cdfs: Vec<Cdf>,
    /// Rotational-latency PDF per actuator count.
    pub pdfs: Vec<Pdf>,
    /// Mean response time per actuator count, ms.
    pub means_ms: Vec<f64>,
    /// Mean rotational latency per actuator count, ms.
    pub rot_means_ms: Vec<f64>,
    /// Fraction of media accesses with non-zero seek, per actuator
    /// count (§7.2 reports 55% → 83% → 90% for Websearch).
    pub nonzero_seek_fraction: Vec<f64>,
    /// Average power per actuator count (the 7200-RPM bars of
    /// Figure 6).
    pub power: Vec<PowerBreakdown>,
}

/// The reduced Figure 5 study.
#[derive(Debug, Clone)]
pub struct SaReport {
    /// One result per workload.
    pub workloads: Vec<SaResult>,
}

/// The HC-SD-SA(n) study driver (Figure 5 + Figure 6's 7200-RPM bars).
#[derive(Debug, Clone)]
pub struct SaStudy {
    kinds: Vec<WorkloadKind>,
}

impl SaStudy {
    /// All four workloads, in the paper's order.
    pub fn all() -> Self {
        SaStudy {
            kinds: WorkloadKind::ALL.to_vec(),
        }
    }

    /// A single workload (tests and focused runs).
    pub fn only(kind: WorkloadKind) -> Self {
        SaStudy { kinds: vec![kind] }
    }
}

impl Study for SaStudy {
    type Point = SimPoint;
    type Output = Outcome;
    type Report = SaReport;

    fn name(&self) -> &'static str {
        "sa"
    }

    /// Per workload: MD, then HC-SD-SA(n) for each of [`ACTUATORS`].
    fn plan(&self, scale: Scale) -> ExperimentPlan<SimPoint> {
        let mut points = Vec::new();
        for &kind in &self.kinds {
            let load = Load::Profile(kind, scale.seed);
            let md = SimPoint::new(format!("{}/MD", kind.name()), load, Design::md(kind));
            points.push(md);
            for n in ACTUATORS {
                let label = format!("{}/SA({n})", kind.name());
                points.push(SimPoint::new(label, load, Design::hcsd(DriveConfig::sa(n))));
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

    fn reduce(&self, outputs: Vec<Outcome>) -> SaReport {
        let per_kind = outputs.chunks(1 + ACTUATORS.len());
        let workloads = self
            .kinds
            .iter()
            .zip(per_kind)
            .map(|(&kind, outs)| {
                let (md, sa) = outs.split_first().expect("plan leads with MD");
                let drives: Vec<_> = sa
                    .iter()
                    .map(|o| o.drive.as_ref().expect("SA(n) points are single drives"))
                    .collect();
                SaResult {
                    kind,
                    md_cdf: md.response_cdf().clone(),
                    md_mean_ms: md.mean_ms,
                    cdfs: sa.iter().map(|o| o.response_cdf().clone()).collect(),
                    pdfs: drives.iter().map(|d| d.rot_pdf.clone()).collect(),
                    means_ms: sa.iter().map(|o| o.mean_ms).collect(),
                    rot_means_ms: drives.iter().map(|d| d.rot_mean_ms).collect(),
                    nonzero_seek_fraction: drives.iter().map(|d| d.nonzero_seek_fraction).collect(),
                    power: sa.iter().map(Outcome::modes).collect(),
                }
            })
            .collect();
        SaReport { workloads }
    }
}

impl SaResult {
    /// The smallest actuator count whose mean response time breaks even
    /// with MD (within `slack`, e.g. 1.1 = within 10%), if any.
    pub fn break_even_actuators(&self, slack: f64) -> Option<u32> {
        ACTUATORS
            .iter()
            .zip(&self.means_ms)
            .find(|(_, &m)| m <= self.md_mean_ms * slack)
            .map(|(&n, _)| n)
    }
}

impl SaReport {
    /// Renders Figure 5's top row (response-time CDFs).
    pub fn render_cdfs(&self) -> String {
        let mut out =
            String::from("Figure 5 (top): Response-time CDFs of the HC-SD-SA(n) design\n\n");
        for w in &self.workloads {
            let labels = ["HC-SD", "HC-SD-SA(2)", "HC-SD-SA(3)", "HC-SD-SA(4)", "MD"];
            let cdfs: Vec<&Cdf> = w.cdfs.iter().chain(std::iter::once(&w.md_cdf)).collect();
            out.push_str(&report::cdf_series(w.kind.name(), &labels, &cdfs));
            match w.break_even_actuators(1.10) {
                Some(n) => out.push_str(&format!(
                    "  breaks even with MD (±10% mean) at {n} actuator(s)\n\n"
                )),
                None => out.push_str("  does not break even with MD within 4 actuators\n\n"),
            }
        }
        out
    }

    /// Renders Figure 5's bottom row (rotational-latency PDFs).
    pub fn render_pdfs(&self) -> String {
        let mut out = String::from(
            "Figure 5 (bottom): Rotational-latency PDFs of the HC-SD-SA(n) design\n\n",
        );
        for w in &self.workloads {
            let labels = ["HC-SD", "HC-SD-SA(2)", "HC-SD-SA(3)", "HC-SD-SA(4)"];
            let pdfs: Vec<&Pdf> = w.pdfs.iter().collect();
            out.push_str(&report::pdf_series(w.kind.name(), &labels, &pdfs));
            out.push_str(&format!(
                "  non-zero-seek fraction by actuators: {}\n\n",
                w.nonzero_seek_fraction
                    .iter()
                    .map(|f| format!("{:.0}%", f * 100.0))
                    .collect::<Vec<_>>()
                    .join(" / ")
            ));
        }
        out
    }

    /// Renders the 7200-RPM power bars (left part of Figure 6).
    pub fn render_power(&self) -> String {
        let mut out = String::from("Figure 6 (7200 RPM columns): Average power of HC-SD-SA(n)\n\n");
        for w in &self.workloads {
            let labels = ["HC-SD", "SA(2)/7200", "SA(3)/7200", "SA(4)/7200"];
            out.push_str(&report::power_bars(w.kind.name(), &labels, &w.power));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    #[test]
    fn actuators_monotonically_improve_tpcc() {
        let report = SaStudy::only(WorkloadKind::TpcC)
            .run(Scale::quick().with_requests(8_000), &Executor::serial())
            .expect("replay succeeds");
        let r = &report.workloads[0];
        for w in r.means_ms.windows(2) {
            assert!(w[1] <= w[0] * 1.02, "means not improving: {:?}", r.means_ms);
        }
        for w in r.rot_means_ms.windows(2) {
            assert!(
                w[1] <= w[0] * 1.05,
                "rot not improving: {:?}",
                r.rot_means_ms
            );
        }
    }

    #[test]
    fn renders_include_breakeven_note() {
        let study = SaStudy::only(WorkloadKind::TpcH)
            .run(Scale::quick().with_requests(2_000), &Executor::new(2))
            .expect("replay succeeds");
        let s = study.render_cdfs();
        assert!(s.contains("breaks even") || s.contains("does not break even"));
        assert!(study.render_pdfs().contains("non-zero-seek"));
        assert!(study.render_power().contains("SA(4)/7200"));
    }
}
