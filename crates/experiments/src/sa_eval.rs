//! The intra-disk parallelism evaluation of §7.2 (Figure 5): replace
//! HC-SD by HC-SD-SA(n) for n = 1..4 and measure the response-time CDFs
//! (top row) and rotational-latency PDFs (bottom row), plus the §7.2
//! side statistics — the fraction of non-zero seeks (which *rises* with
//! more actuators) and the average power (Figure 6's 7200-RPM bars).

use diskmodel::DriveError;
use intradisk::{DriveConfig, PowerBreakdown};
use simkit::{Cdf, Pdf};
use workload::{TraceBook, WorkloadKind};

use crate::configs::{hcsd_params, run_md, Scale};
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::runner::run_drive;

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

/// One sweep point of the HC-SD-SA(n) evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaPoint {
    /// The MD reference array.
    Md(WorkloadKind),
    /// HC-SD-SA(n) with the given actuator count.
    Sa(WorkloadKind, u32),
}

/// Output of one [`SaPoint`].
#[derive(Debug, Clone)]
pub enum SaOutput {
    /// MD reference results.
    Md {
        /// Which workload.
        kind: WorkloadKind,
        /// MD response-time CDF.
        cdf: Cdf,
        /// MD mean response time, ms.
        mean_ms: f64,
    },
    /// One actuator-count design point.
    Sa {
        /// Response-time CDF.
        cdf: Cdf,
        /// Rotational-latency PDF.
        pdf: Pdf,
        /// Mean response time, ms.
        mean_ms: f64,
        /// Mean rotational latency, ms.
        rot_mean_ms: f64,
        /// Fraction of media accesses with a non-zero seek.
        nonzero_seek: f64,
        /// Average power breakdown.
        power: PowerBreakdown,
    },
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
    type Point = SaPoint;
    type Output = SaOutput;
    type Report = SaReport;

    fn name(&self) -> &'static str {
        "sa"
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<SaPoint> {
        self.kinds
            .iter()
            .flat_map(|&k| {
                std::iter::once(SaPoint::Md(k))
                    .chain(ACTUATORS.iter().map(move |&n| SaPoint::Sa(k, n)))
            })
            .collect()
    }

    fn label(&self, point: &SaPoint) -> String {
        match point {
            SaPoint::Md(k) => format!("{}/MD", k.name()),
            SaPoint::Sa(k, n) => format!("{}/SA({n})", k.name()),
        }
    }

    fn run_point(
        &self,
        point: &SaPoint,
        scale: Scale,
        book: &TraceBook,
    ) -> Result<SaOutput, DriveError> {
        match *point {
            SaPoint::Md(kind) => {
                let md = run_md(kind, scale, book)?;
                Ok(SaOutput::Md {
                    kind,
                    cdf: md.response_hist.cdf(),
                    mean_ms: md.response_time_ms.mean(),
                })
            }
            SaPoint::Sa(kind, n) => {
                let r = run_drive(
                    &hcsd_params(),
                    DriveConfig::sa(n).with_stats_mode(scale.stats),
                    book.source(kind),
                )?;
                Ok(SaOutput::Sa {
                    cdf: r.metrics.response_hist.cdf(),
                    pdf: r.metrics.rotational_hist.pdf(),
                    mean_ms: r.metrics.response_time_ms.mean(),
                    rot_mean_ms: r.metrics.rotational_ms.mean(),
                    nonzero_seek: r.metrics.nonzero_seek_fraction(),
                    power: r.power,
                })
            }
        }
    }

    fn reduce(&self, outputs: Vec<SaOutput>) -> SaReport {
        let mut workloads: Vec<SaResult> = Vec::new();
        for out in outputs {
            match out {
                SaOutput::Md { kind, cdf, mean_ms } => workloads.push(SaResult {
                    kind,
                    md_cdf: cdf,
                    md_mean_ms: mean_ms,
                    cdfs: Vec::new(),
                    pdfs: Vec::new(),
                    means_ms: Vec::new(),
                    rot_means_ms: Vec::new(),
                    nonzero_seek_fraction: Vec::new(),
                    power: Vec::new(),
                }),
                SaOutput::Sa {
                    cdf,
                    pdf,
                    mean_ms,
                    rot_mean_ms,
                    nonzero_seek,
                    power,
                } => {
                    let w = workloads.last_mut().expect("plan leads with MD");
                    w.cdfs.push(cdf);
                    w.pdfs.push(pdf);
                    w.means_ms.push(mean_ms);
                    w.rot_means_ms.push(rot_mean_ms);
                    w.nonzero_seek_fraction.push(nonzero_seek);
                    w.power.push(power);
                }
            }
        }
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
