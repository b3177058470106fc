//! The reduced-RPM study of §7.2 (Figures 6 and 7): since spindle power
//! is nearly cubic in RPM, an intra-disk parallel drive can be designed
//! at a lower RPM — the extra rotational latency being offset by the
//! extra actuators — cutting average power to or below a conventional
//! drive's while still matching the MD array.

use diskmodel::{presets, DriveError};
use intradisk::{DriveConfig, PowerBreakdown};
use simkit::Cdf;
use workload::{TraceBook, WorkloadKind};

use crate::configs::Scale;
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::sweep::{Design, Load, Outcome, SimPoint};

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

/// The `(actuators, rpm)` drive designs of one workload, in plan
/// order: the HC-SD baseline `(1, 7200)`, then the [`RPMS`] ×
/// [`ACTUATORS`] grid.
fn designs() -> impl Iterator<Item = (u32, u32)> {
    std::iter::once((1, 7200)).chain(
        RPMS.iter()
            .flat_map(|&rpm| ACTUATORS.iter().map(move |&actuators| (actuators, rpm))),
    )
}

/// `kind` replayed against a drive with `actuators` arms at `rpm`.
fn design_point(kind: WorkloadKind, scale: Scale, actuators: u32, rpm: u32) -> SimPoint {
    SimPoint::new(
        format!("{}/SA({actuators})/{rpm}", kind.name()),
        Load::Profile(kind, scale.seed),
        Design::Drive(
            presets::barracuda_es_at_rpm(rpm),
            DriveConfig::sa(actuators),
        ),
    )
}

impl RpmPoint {
    fn new(actuators: u32, rpm: u32, o: &Outcome) -> Self {
        RpmPoint {
            actuators,
            rpm,
            mean_ms: o.mean_ms,
            p90_ms: o.p90_ms,
            cdf: o.response_cdf().clone(),
            power: o.modes(),
        }
    }
}

impl Study for RpmStudy {
    type Point = SimPoint;
    type Output = Outcome;
    type Report = RpmReport;

    fn name(&self) -> &'static str {
        "rpm"
    }

    /// Per workload: MD, then each of `designs()`.
    fn plan(&self, scale: Scale) -> ExperimentPlan<SimPoint> {
        let mut points = Vec::new();
        for &kind in &self.kinds {
            let md = Design::md(kind);
            points.push(SimPoint::new(
                format!("{}/MD", kind.name()),
                Load::Profile(kind, scale.seed),
                md,
            ));
            points.extend(designs().map(|(a, rpm)| design_point(kind, scale, a, rpm)));
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

    fn reduce(&self, outputs: Vec<Outcome>) -> RpmReport {
        let per_kind = outputs.chunks(1 + designs().count());
        let workloads = self
            .kinds
            .iter()
            .zip(per_kind)
            .map(|(&kind, outs)| {
                let (md, drives) = outs.split_first().expect("plan leads with MD");
                let mut points = designs()
                    .zip(drives)
                    .map(|((a, rpm), o)| RpmPoint::new(a, rpm, o));
                RpmResult {
                    kind,
                    md_cdf: md.response_cdf().clone(),
                    md_mean_ms: md.mean_ms,
                    hcsd: points.next().expect("plan includes the HC-SD baseline"),
                    points: points.collect(),
                }
            })
            .collect();
        RpmReport { workloads }
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
        let out = design_point(kind, scale, actuators, rpm)
            .run(scale, &scale.book())
            .expect("replay succeeds");
        RpmPoint::new(actuators, rpm, &out)
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
