//! The RAID study of §7.3 (Figure 8): arrays built from intra-disk
//! parallel drives versus arrays of conventional drives sharing the
//! same recording technology and architecture.
//!
//! The paper sweeps synthetic workloads (1M requests, 60% reads, 20%
//! sequential, exponential inter-arrivals of mean 8/4/1 ms) over disk
//! counts 1–16 for HC-SD, HC-SD-SA(2), and HC-SD-SA(4) members. The
//! parallel-drive arrays reach the conventional array's steady-state
//! performance with a fraction of the disks, cutting power 41%–60%.

use array::Layout;
use diskmodel::DriveError;
use intradisk::{DriveConfig, PowerBreakdown};
use workload::{SyntheticSpec, TraceBook};

use crate::configs::{hcsd_params, Scale};
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::sweep::{Design, Load, Outcome, SimPoint};

/// Disk counts swept (the paper's x-axis).
pub const DISK_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Mean inter-arrival times swept, ms (light / moderate / heavy).
pub const INTER_ARRIVALS_MS: [f64; 3] = [8.0, 4.0, 1.0];

/// Member-drive actuator counts compared.
pub const MEMBER_ACTUATORS: [u32; 3] = [1, 2, 4];

/// One point of Figure 8: an array configuration under one load.
#[derive(Debug, Clone)]
pub struct RaidPoint {
    /// Actuators per member drive (1 = conventional HC-SD).
    pub member_actuators: u32,
    /// Number of member disks.
    pub disks: usize,
    /// 90th-percentile response time, ms (the paper's metric).
    pub p90_ms: f64,
    /// Mean response time, ms.
    pub mean_ms: f64,
    /// Average power breakdown of the whole array.
    pub power: PowerBreakdown,
}

impl RaidPoint {
    /// Figure 8-style label, e.g. `4 disks-SA(2)`.
    pub fn label(&self) -> String {
        if self.member_actuators == 1 {
            format!("{} disks-HC-SD", self.disks)
        } else {
            format!("{} disks-SA({})", self.disks, self.member_actuators)
        }
    }
}

/// Figure 8 results under one inter-arrival time.
#[derive(Debug, Clone)]
pub struct RaidSweep {
    /// Mean inter-arrival time, ms.
    pub inter_arrival_ms: f64,
    /// All `(member type, disk count)` points.
    pub points: Vec<RaidPoint>,
}

/// The reduced Figure 8 study.
#[derive(Debug, Clone)]
pub struct RaidReport {
    /// One sweep per load level.
    pub sweeps: Vec<RaidSweep>,
}

/// The RAID study driver (Figure 8).
#[derive(Debug, Clone)]
pub struct RaidStudy {
    inter_arrivals_ms: Vec<f64>,
}

impl RaidStudy {
    /// All three load levels.
    pub fn all() -> Self {
        RaidStudy {
            inter_arrivals_ms: INTER_ARRIVALS_MS.to_vec(),
        }
    }

    /// A single load level (tests and focused runs).
    pub fn only(inter_arrival_ms: f64) -> Self {
        RaidStudy {
            inter_arrivals_ms: vec![inter_arrival_ms],
        }
    }
}

/// The `(member actuators, disks)` arrays of one load level, in plan
/// order.
fn arrays() -> impl Iterator<Item = (u32, usize)> {
    MEMBER_ACTUATORS
        .iter()
        .flat_map(|&n| DISK_COUNTS.iter().map(move |&d| (n, d)))
}

/// An array of `disks` HC-SD-SA(`actuators`) members under the
/// synthetic load of mean inter-arrival `ia` ms.
fn array_point(ia: f64, actuators: u32, disks: usize, scale: Scale) -> SimPoint {
    let params = hcsd_params();
    // Fixed dataset: one HC-SD's worth of data, as in the limit study.
    let spec = SyntheticSpec::paper(ia, params.capacity_sectors(), scale.requests);
    let member = DriveConfig::sa(actuators);
    SimPoint::new(
        format!("{ia} ms/SA({actuators})/{disks} disks"),
        Load::Synthetic(spec, scale.seed),
        Design::Array(params, member, disks, Layout::striped_default()),
    )
}

impl RaidPoint {
    fn new(member_actuators: u32, disks: usize, o: &Outcome) -> Self {
        RaidPoint {
            member_actuators,
            disks,
            p90_ms: o.p90_ms,
            mean_ms: o.mean_ms,
            power: o.modes(),
        }
    }
}

impl Study for RaidStudy {
    type Point = SimPoint;
    type Output = Outcome;
    type Report = RaidReport;

    fn name(&self) -> &'static str {
        "raid"
    }

    /// Per load level, each of `arrays()`.
    fn plan(&self, scale: Scale) -> ExperimentPlan<SimPoint> {
        self.inter_arrivals_ms
            .iter()
            .flat_map(|&ia| arrays().map(move |(n, d)| array_point(ia, n, d, scale)))
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

    fn reduce(&self, outputs: Vec<Outcome>) -> RaidReport {
        let per_load = outputs.chunks(arrays().count());
        let sweeps = self
            .inter_arrivals_ms
            .iter()
            .zip(per_load)
            .map(|(&inter_arrival_ms, outs)| RaidSweep {
                inter_arrival_ms,
                points: arrays()
                    .zip(outs)
                    .map(|((n, d), o)| RaidPoint::new(n, d, o))
                    .collect(),
            })
            .collect();
        RaidReport { sweeps }
    }
}

impl RaidSweep {
    /// The points for one member type, ordered by disk count.
    pub fn series(&self, member_actuators: u32) -> Vec<&RaidPoint> {
        self.points
            .iter()
            .filter(|p| p.member_actuators == member_actuators)
            .collect()
    }

    /// The steady-state (16-disk conventional array) 90th-percentile
    /// response time — the paper's break-even reference.
    pub fn steady_state_p90(&self) -> f64 {
        self.series(1)
            .last()
            .expect("sweep includes 16-disk conventional array")
            .p90_ms
    }

    /// The smallest configuration of each member type whose p90 is
    /// within `slack` of the conventional array's steady state —
    /// Figure 8's iso-performance configurations.
    pub fn iso_performance(&self, slack: f64) -> Vec<&RaidPoint> {
        let target = self.steady_state_p90() * slack;
        MEMBER_ACTUATORS
            .iter()
            .filter_map(|&n| self.series(n).into_iter().find(|p| p.p90_ms <= target))
            .collect()
    }
}

impl RaidReport {
    /// Renders the three performance panels of Figure 8.
    pub fn render_performance(&self) -> String {
        let mut out = String::from(
            "Figure 8 (left three panels): 90th-percentile response time vs. #disks\n\n",
        );
        for sweep in &self.sweeps {
            let headers = ["disks", "HC-SD", "HC-SD-SA(2)", "HC-SD-SA(4)"];
            let rows: Vec<Vec<String>> = DISK_COUNTS
                .iter()
                .map(|&d| {
                    let mut row = vec![d.to_string()];
                    for &n in &MEMBER_ACTUATORS {
                        let p = sweep
                            .points
                            .iter()
                            .find(|p| p.member_actuators == n && p.disks == d)
                            .expect("full sweep");
                        row.push(format!("{:.1}", p.p90_ms));
                    }
                    row
                })
                .collect();
            out.push_str(&format!(
                "Inter-arrival time {} ms (p90 response, ms)\n{}\n",
                sweep.inter_arrival_ms,
                report::table(&headers, &rows)
            ));
        }
        out
    }

    /// Renders the iso-performance power comparison (Figure 8, right).
    pub fn render_power(&self) -> String {
        let mut out = String::from(
            "Figure 8 (right): Iso-performance power comparison\n\
             (smallest array of each member type matching the conventional\n\
             array's steady-state p90 within 15%)\n\n",
        );
        for sweep in &self.sweeps {
            let iso = sweep.iso_performance(1.15);
            let labels: Vec<String> = iso.iter().map(|p| p.label()).collect();
            let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
            let bars: Vec<PowerBreakdown> = iso.iter().map(|p| p.power).collect();
            out.push_str(&report::power_bars(
                &format!("{} ms inter-arrival", sweep.inter_arrival_ms),
                &label_refs,
                &bars,
            ));
            if let (Some(conv), Some(sa2), Some(sa4)) = (
                iso.iter().find(|p| p.member_actuators == 1),
                iso.iter().find(|p| p.member_actuators == 2),
                iso.iter().find(|p| p.member_actuators == 4),
            ) {
                out.push_str(&format!(
                    "  power savings vs conventional: SA(2) {:.0}%, SA(4) {:.0}%\n",
                    (1.0 - sa2.power.total_w() / conv.power.total_w()) * 100.0,
                    (1.0 - sa4.power.total_w() / conv.power.total_w()) * 100.0,
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(ia: f64, actuators: u32, disks: usize, scale: Scale) -> RaidPoint {
        let out = array_point(ia, actuators, disks, scale)
            .run(scale, &scale.book())
            .expect("replay succeeds");
        RaidPoint::new(actuators, disks, &out)
    }

    #[test]
    fn more_disks_improve_p90_under_heavy_load() {
        let scale = Scale::quick().with_requests(6_000);
        let few = point(1.0, 1, 2, scale);
        let many = point(1.0, 1, 8, scale);
        assert!(many.p90_ms < few.p90_ms);
    }

    #[test]
    fn parallel_members_beat_conventional_at_equal_disks() {
        let scale = Scale::quick().with_requests(6_000);
        let conv = point(4.0, 1, 2, scale);
        let sa4 = point(4.0, 4, 2, scale);
        assert!(sa4.p90_ms < conv.p90_ms);
    }

    #[test]
    fn point_labels() {
        let scale = Scale::quick().with_requests(500);
        assert_eq!(point(8.0, 1, 4, scale).label(), "4 disks-HC-SD");
        assert_eq!(point(8.0, 2, 2, scale).label(), "2 disks-SA(2)");
    }
}
