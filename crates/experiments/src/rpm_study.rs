//! The reduced-RPM study of §7.2 (Figures 6 and 7): since spindle power
//! is nearly cubic in RPM, an intra-disk parallel drive can be designed
//! at a lower RPM — the extra rotational latency being offset by the
//! extra actuators — cutting average power to or below a conventional
//! drive's while still matching the MD array.

use diskmodel::{presets, DriveError};
use intradisk::{DriveConfig, PowerBreakdown};
use simkit::Cdf;
use workload::{TraceBook, WorkloadKind};

use crate::configs::{run_md, Scale};
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::runner::run_drive;

/// The spindle speeds evaluated (7200 is the baseline drive).
pub const RPMS: [u32; 4] = [7200, 6200, 5200, 4200];

/// The actuator counts evaluated at reduced RPM.
pub const ACTUATORS: [u32; 2] = [2, 4];

/// One `(actuators, rpm)` design point.
#[derive(Debug, Clone)]
pub struct RpmPoint {
    /// Number of actuators.
    pub actuators: u32,
    /// Spindle speed.
    pub rpm: u32,
    /// Mean response time, ms.
    pub mean_ms: f64,
    /// 90th-percentile response time, ms.
    pub p90_ms: f64,
    /// Response-time CDF.
    pub cdf: Cdf,
    /// Average power breakdown.
    pub power: PowerBreakdown,
}

impl RpmPoint {
    /// The label used in Figure 6/7, e.g. `SA(4)/4200`.
    pub fn label(&self) -> String {
        format!("SA({})/{}", self.actuators, self.rpm)
    }
}

/// Figure 6/7 results for one workload.
#[derive(Debug, Clone)]
pub struct RpmResult {
    /// Which workload.
    pub kind: WorkloadKind,
    /// MD reference CDF.
    pub md_cdf: Cdf,
    /// MD mean response time, ms.
    pub md_mean_ms: f64,
    /// The HC-SD (1 actuator, 7200 RPM) baseline.
    pub hcsd: RpmPoint,
    /// All `(actuators, rpm)` design points.
    pub points: Vec<RpmPoint>,
}

/// The reduced reduced-RPM study.
#[derive(Debug, Clone)]
pub struct RpmReport {
    /// One result per workload.
    pub workloads: Vec<RpmResult>,
}

/// One sweep point of the reduced-RPM study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpmPointSpec {
    /// The MD reference array.
    Md(WorkloadKind),
    /// One `(actuators, rpm)` drive design; `(1, 7200)` is the HC-SD
    /// baseline.
    Design {
        /// Which workload.
        kind: WorkloadKind,
        /// Number of actuators.
        actuators: u32,
        /// Spindle speed.
        rpm: u32,
    },
}

/// Output of one [`RpmPointSpec`].
#[derive(Debug, Clone)]
pub enum RpmOutput {
    /// MD reference results.
    Md {
        /// Which workload.
        kind: WorkloadKind,
        /// MD response-time CDF.
        cdf: Cdf,
        /// MD mean response time, ms.
        mean_ms: f64,
    },
    /// One drive design point.
    Design(RpmPoint),
}

/// The reduced-RPM study driver (Figures 6 and 7).
#[derive(Debug, Clone)]
pub struct RpmStudy {
    kinds: Vec<WorkloadKind>,
}

impl RpmStudy {
    /// All four workloads, in the paper's order.
    pub fn all() -> Self {
        RpmStudy {
            kinds: WorkloadKind::ALL.to_vec(),
        }
    }

    /// A single workload (tests and focused runs).
    pub fn only(kind: WorkloadKind) -> Self {
        RpmStudy { kinds: vec![kind] }
    }
}

impl Study for RpmStudy {
    type Point = RpmPointSpec;
    type Output = RpmOutput;
    type Report = RpmReport;

    fn name(&self) -> &'static str {
        "rpm"
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<RpmPointSpec> {
        self.kinds
            .iter()
            .flat_map(|&kind| {
                // MD first, then the HC-SD baseline, then the 4×2 grid.
                std::iter::once(RpmPointSpec::Md(kind))
                    .chain(std::iter::once(RpmPointSpec::Design {
                        kind,
                        actuators: 1,
                        rpm: 7200,
                    }))
                    .chain(RPMS.iter().flat_map(move |&rpm| {
                        ACTUATORS
                            .iter()
                            .map(move |&actuators| RpmPointSpec::Design {
                                kind,
                                actuators,
                                rpm,
                            })
                    }))
            })
            .collect()
    }

    fn label(&self, point: &RpmPointSpec) -> String {
        match point {
            RpmPointSpec::Md(k) => format!("{}/MD", k.name()),
            RpmPointSpec::Design {
                kind,
                actuators,
                rpm,
            } => {
                format!("{}/SA({actuators})/{rpm}", kind.name())
            }
        }
    }

    fn run_point(
        &self,
        point: &RpmPointSpec,
        scale: Scale,
        book: &TraceBook,
    ) -> Result<RpmOutput, DriveError> {
        match *point {
            RpmPointSpec::Md(kind) => {
                let md = run_md(kind, scale, book)?;
                Ok(RpmOutput::Md {
                    kind,
                    cdf: md.response_hist.cdf(),
                    mean_ms: md.response_time_ms.mean(),
                })
            }
            RpmPointSpec::Design {
                kind,
                actuators,
                rpm,
            } => {
                let params = presets::barracuda_es_at_rpm(rpm);
                let r = run_drive(
                    &params,
                    DriveConfig::sa(actuators).with_stats_mode(scale.stats),
                    book.source(kind),
                )?;
                Ok(RpmOutput::Design(RpmPoint {
                    actuators,
                    rpm,
                    mean_ms: r.metrics.response_time_ms.mean(),
                    p90_ms: r.p90_ms(),
                    cdf: r.metrics.response_hist.cdf(),
                    power: r.power,
                }))
            }
        }
    }

    fn reduce(&self, outputs: Vec<RpmOutput>) -> RpmReport {
        struct Partial {
            kind: WorkloadKind,
            md_cdf: Cdf,
            md_mean_ms: f64,
            hcsd: Option<RpmPoint>,
            points: Vec<RpmPoint>,
        }
        let mut partials: Vec<Partial> = Vec::new();
        for out in outputs {
            match out {
                RpmOutput::Md { kind, cdf, mean_ms } => partials.push(Partial {
                    kind,
                    md_cdf: cdf,
                    md_mean_ms: mean_ms,
                    hcsd: None,
                    points: Vec::new(),
                }),
                RpmOutput::Design(p) => {
                    let w = partials.last_mut().expect("plan leads with MD");
                    // The plan puts the HC-SD baseline immediately
                    // after MD, then the 4×2 design grid.
                    if w.hcsd.is_none() {
                        w.hcsd = Some(p);
                    } else {
                        w.points.push(p);
                    }
                }
            }
        }
        RpmReport {
            workloads: partials
                .into_iter()
                .map(|p| RpmResult {
                    kind: p.kind,
                    md_cdf: p.md_cdf,
                    md_mean_ms: p.md_mean_ms,
                    hcsd: p.hcsd.expect("plan includes the HC-SD baseline"),
                    points: p.points,
                })
                .collect(),
        }
    }
}

impl RpmResult {
    /// Design points whose mean response time breaks even with MD
    /// within `slack` (Figure 7 plots only these).
    pub fn break_even_points(&self, slack: f64) -> Vec<&RpmPoint> {
        self.points
            .iter()
            .filter(|p| p.mean_ms <= self.md_mean_ms * slack)
            .collect()
    }
}

impl RpmReport {
    /// Renders Figure 6: power bars for every design point, per
    /// workload.
    pub fn render_figure6(&self) -> String {
        let mut out =
            String::from("Figure 6: Average power of reduced-RPM intra-disk parallel designs\n\n");
        for w in &self.workloads {
            let mut labels = vec!["HC-SD".to_string()];
            let mut bars = vec![w.hcsd.power];
            for p in &w.points {
                labels.push(p.label());
                bars.push(p.power);
            }
            let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
            out.push_str(&report::power_bars(w.kind.name(), &label_refs, &bars));
            out.push('\n');
        }
        out
    }

    /// Renders Figure 7: response-time CDFs of the design points that
    /// break even with MD (within 25% mean response time).
    pub fn render_figure7(&self) -> String {
        let mut out = String::from(
            "Figure 7: Reduced-RPM designs whose response times match or exceed MD\n\
             (break-even = mean response time within 25% of MD)\n\n",
        );
        for w in &self.workloads {
            let points = w.break_even_points(1.25);
            if points.is_empty() {
                out.push_str(&format!(
                    "{}: no reduced-RPM design breaks even with MD\n\n",
                    w.kind.name()
                ));
                continue;
            }
            let labels: Vec<String> = points.iter().map(|p| p.label()).collect();
            let mut label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
            label_refs.push("MD");
            let mut cdfs: Vec<&Cdf> = points.iter().map(|p| &p.cdf).collect();
            cdfs.push(&w.md_cdf);
            out.push_str(&report::cdf_series(w.kind.name(), &label_refs, &cdfs));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(kind: WorkloadKind, scale: Scale, actuators: u32, rpm: u32) -> RpmPoint {
        let out = RpmStudy::only(kind)
            .run_point(
                &RpmPointSpec::Design {
                    kind,
                    actuators,
                    rpm,
                },
                scale,
                &scale.book(),
            )
            .expect("replay succeeds");
        match out {
            RpmOutput::Design(p) => p,
            other => panic!("expected a design point, got {other:?}"),
        }
    }

    #[test]
    fn lower_rpm_cuts_power_and_costs_latency() {
        let scale = Scale::quick().with_requests(6_000);
        let hi = design(WorkloadKind::TpcC, scale, 4, 7200);
        let lo = design(WorkloadKind::TpcC, scale, 4, 4200);
        assert!(lo.power.total_w() < hi.power.total_w() * 0.7);
        assert!(lo.mean_ms > hi.mean_ms);
    }

    #[test]
    fn more_actuators_offset_lower_rpm() {
        let scale = Scale::quick().with_requests(6_000);
        let sa2 = design(WorkloadKind::TpcC, scale, 2, 4200);
        let sa4 = design(WorkloadKind::TpcC, scale, 4, 4200);
        assert!(sa4.mean_ms < sa2.mean_ms);
    }

    #[test]
    fn figure7_lists_tpch_break_even() {
        let report = RpmStudy::only(WorkloadKind::TpcH)
            .run(
                Scale::quick().with_requests(6_000),
                &crate::exec::Executor::serial(),
            )
            .expect("replay succeeds");
        let r = &report.workloads[0];
        assert_eq!(r.points.len(), 8, "4 RPMs x 2 actuator counts");
        assert_eq!(r.hcsd.actuators, 1);
        assert_eq!(r.hcsd.rpm, 7200);
        assert!(
            !r.break_even_points(1.25).is_empty(),
            "TPC-H should have reduced-RPM break-even designs (Figure 7)"
        );
    }

    #[test]
    fn labels() {
        let scale = Scale::quick().with_requests(1_000);
        let p = design(WorkloadKind::TpcH, scale, 4, 5200);
        assert_eq!(p.label(), "SA(4)/5200");
    }
}
