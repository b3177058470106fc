//! Extension studies beyond the paper's figures, quantifying its
//! supporting arguments:
//!
//! * [`thermal_study`] — §7.1 dismisses raising RPM because of heat:
//!   "increasing the RPM can cause excessive heat dissipation \[12\]".
//!   We compute steady-state enclosure temperatures for RPM-scaled
//!   conventional drives vs. intra-disk parallel designs, showing that
//!   actuator parallelism buys performance *within* the thermal
//!   envelope where RPM scaling cannot.
//! * [`DesignStudy`] — one workload × design sweep comparing response
//!   time and average power. [`DesignStudy::drpm`] is §5's contrast
//!   with DRPM-style power management \[11\]: a conventional
//!   full-speed drive, a DRPM two-speed conventional drive, and a fixed
//!   low-RPM 4-actuator drive. [`DesignStudy::dash`] takes one design
//!   point per DASH dimension (§4, §7.2).

use array::Layout;
use diskmodel::{presets, DiskParams, DriveError, PowerModel, ThermalModel};
use intradisk::drpm::{DrpmConfig, DrpmDrive};
use intradisk::{DriveConfig, NullObserver};
use telemetry::NullRecorder;
use workload::{TraceBook, WorkloadKind};

use crate::configs::{hcsd_params, Scale};
use crate::exec::{Executor, StudyError};
use crate::plan::{ExperimentPlan, Study};
use crate::report;
use crate::runner::{run_array, run_drive, simulate};

/// One row of the thermal table.
#[derive(Debug, Clone)]
pub struct ThermalRow {
    /// Configuration label.
    pub label: String,
    /// Worst-case dissipation with the design's maximum number of
    /// simultaneously moving arms, W.
    pub peak_w: f64,
    /// Steady-state temperature at that dissipation, °C.
    pub steady_c: f64,
    /// Whether the design fits the operating envelope.
    pub within_envelope: bool,
}

/// Computes the thermal feasibility table.
///
/// HC-SD-SA(n) designs move **one arm at a time** (§7.2), so their
/// worst case is `seek_w(1)` — the reason the paper can claim "the peak
/// power consumption of these drives will be comparable to conventional
/// disk drives". The relaxed all-arms-moving variant is included to
/// show what that restriction buys thermally.
pub fn thermal_study() -> Vec<ThermalRow> {
    let thermal = ThermalModel::default();
    let base = presets::barracuda_es_750gb();
    let mut rows = Vec::new();
    let mut push = |label: &str, params: &DiskParams, moving_arms: u32| {
        let peak = PowerModel::new(params).seek_w(moving_arms);
        rows.push(ThermalRow {
            label: label.to_string(),
            peak_w: peak,
            steady_c: thermal.steady_state_c(peak),
            within_envelope: thermal.within_envelope(peak),
        });
    };
    for rpm in [7_200u32, 10_000, 15_000] {
        push(&format!("conventional @{rpm} RPM"), &base.with_rpm(rpm), 1);
    }
    for (n, rpm) in [(2u32, 7_200u32), (4, 7_200), (4, 4_200)] {
        let label = format!("SA({n}) @{rpm} RPM, 1 arm moving");
        push(&label, &base.with_rpm(rpm), 1);
    }
    let relaxed = "SA(4) @7200 RPM, relaxed (4 arms moving)";
    push(relaxed, &base.with_rpm(7_200), 4);
    // Why 10k-RPM products exist anyway: vendors shrank the media —
    // diameter^4.6 beats RPM^2.8 (the Table 2 enterprise drives use
    // ~3.3-inch platters). Same law, opposite lever; but unlike extra
    // actuators, it sacrifices capacity.
    let enterprise = presets::array_drive_10k_19gb();
    push("conventional @10000 RPM, 3.3in platters", &enterprise, 1);
    rows
}

/// Renders the thermal table.
pub fn render_thermal() -> String {
    let thermal = ThermalModel::default();
    let headers = ["configuration", "peak W", "steady C", "fits envelope"];
    let rows: Vec<Vec<String>> = thermal_study()
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.1}", r.peak_w),
                format!("{:.1}", r.steady_c),
                if r.within_envelope { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    format!(
        "Extension: thermal feasibility (envelope {:.0} C at {:.0} C ambient)\n{}",
        thermal.envelope_c(),
        thermal.ambient_c(),
        report::table(&headers, &rows)
    )
}

/// What one design of a comparison replays its workload against.
#[derive(Debug, Clone)]
enum Build {
    /// One drive.
    Drive(DiskParams, DriveConfig),
    /// An array: member model and config, disk count, layout.
    Array(DiskParams, DriveConfig, usize, Layout),
    /// The DRPM two-speed drive.
    Drpm(DiskParams, DrpmConfig),
}

/// A workload × design sweep: each labelled design replays every
/// workload from the sweep's [`TraceBook`], and the report tabulates
/// mean response time and average power per workload. The paper's two
/// comparisons are [`DesignStudy::drpm`] and [`DesignStudy::dash`].
#[derive(Debug, Clone)]
pub struct DesignStudy {
    name: &'static str,
    title: &'static str,
    first_header: &'static str,
    kinds: Vec<WorkloadKind>,
    designs: Vec<(&'static str, Build)>,
}

impl DesignStudy {
    /// §5's DRPM comparison: a conventional full-speed drive, a DRPM
    /// two-speed conventional drive and a fixed low-RPM 4-actuator
    /// drive.
    pub fn drpm() -> Self {
        let drpm = Build::Drpm(hcsd_params(), DrpmConfig::typical());
        let low_rpm_sa4 = Build::Drive(presets::barracuda_es_at_rpm(4_200), DriveConfig::sa(4));
        DesignStudy {
            name: "drpm",
            title: "Extension: intra-disk parallelism vs DRPM power management",
            first_header: "configuration",
            kinds: WorkloadKind::ALL.to_vec(),
            designs: vec![
                ("conventional @7200", hcsd(DriveConfig::conventional())),
                ("DRPM 7200/4200", drpm),
                ("SA(4) @4200 (fixed)", low_rpm_sa4),
            ],
        }
    }

    /// One design point per DASH dimension at equal total capacity:
    /// `D2` (two half-capacity small-platter stacks), `A2` (two arm
    /// assemblies) and `H2` (two heads per arm), against the
    /// conventional `D1A1S1H1` drive.
    pub fn dash() -> Self {
        let conventional = DriveConfig::conventional();
        let striped = Layout::striped_default();
        let d2 = Build::Array(half_stack(), conventional.clone(), 2, striped);
        let h2 = hcsd(DriveConfig::dash(1, 2));
        DesignStudy {
            name: "dash",
            title: "Extension: one design point per DASH dimension (equal capacity)",
            first_header: "design",
            kinds: WorkloadKind::ALL.to_vec(),
            designs: vec![
                ("D1A1S1H1 (conventional)", hcsd(conventional)),
                ("D2A1S1H1 (two small stacks)", d2),
                ("D1A2S1H1 (two assemblies)", hcsd(DriveConfig::sa(2))),
                ("D1A1S1H2 (two heads per arm)", h2),
            ],
        }
    }
}

/// The HC-SD drive under `config`.
fn hcsd(config: DriveConfig) -> Build {
    Build::Drive(hcsd_params(), config)
}

/// A half-capacity small-platter stack for the D-dimension design
/// (§4 Level 1: "incorporating multiple disk stacks within the power
/// envelope of a single disk drive" by shrinking the platters).
fn half_stack() -> DiskParams {
    DiskParams::builder("half-stack 2.6in")
        .capacity_gb(375.0)
        .platters(4)
        .diameter_in(2.6)
        .rpm(7200)
        .cylinders(85_000)
        .zones(24)
        .outer_inner_ratio(1.7)
        .cache_mib(4)
        .seek_profile_ms(0.7, 7.0, 14.0)
        .head_switch_ms(0.8)
        .controller_overhead_ms(0.1)
        // The two stacks share one controller/electronics budget.
        .electronics_w(1.25)
        .build()
        .expect("valid preset")
}

/// One design's result on one workload: the output of one
/// [`DesignStudy`] point.
#[derive(Debug, Clone)]
pub struct DesignRow {
    /// Design label.
    pub label: &'static str,
    /// Mean response time, ms.
    pub mean_ms: f64,
    /// Average power, W.
    pub power_w: f64,
}

/// The reduced [`DesignStudy`]: one table per workload.
#[derive(Debug, Clone)]
pub struct DesignReport {
    title: &'static str,
    first_header: &'static str,
    /// Each workload's rows, in design order.
    pub workloads: Vec<(WorkloadKind, Vec<DesignRow>)>,
}

impl DesignReport {
    /// Renders the title and one table per workload.
    pub fn render(&self) -> String {
        let headers = [self.first_header, "mean ms", "avg W"];
        let mut out = format!("{}\n\n", self.title);
        for (kind, rows) in &self.workloads {
            let cells: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.label.to_string(),
                        format!("{:.2}", r.mean_ms),
                        format!("{:.2}", r.power_w),
                    ]
                })
                .collect();
            let table = report::table(&headers, &cells);
            out.push_str(&format!("{}\n{table}\n", kind.name()));
        }
        out
    }
}

impl Study for DesignStudy {
    /// A workload and an index into the study's designs.
    type Point = (WorkloadKind, usize);
    type Output = DesignRow;
    type Report = DesignReport;

    fn name(&self) -> &'static str {
        self.name
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<(WorkloadKind, usize)> {
        let designs = 0..self.designs.len();
        self.kinds
            .iter()
            .flat_map(|&k| designs.clone().map(move |d| (k, d)))
            .collect()
    }

    fn label(&self, &(kind, d): &(WorkloadKind, usize)) -> String {
        format!("{}/{}", kind.name(), self.designs[d].0)
    }

    fn run_point(
        &self,
        &(kind, d): &(WorkloadKind, usize),
        scale: Scale,
        book: &TraceBook,
    ) -> Result<DesignRow, DriveError> {
        let (label, build) = &self.designs[d];
        let source = book.source(kind);
        let stats = |config: &DriveConfig| config.clone().with_stats_mode(scale.stats);
        let (mean_ms, power_w) = match build {
            Build::Drive(params, config) => {
                let r = run_drive(params, stats(config), source)?;
                (r.metrics.response_time_ms.mean(), r.power.total_w())
            }
            Build::Array(params, member, disks, layout) => {
                let r = run_array(params, stats(member), *disks, *layout, source)?;
                (r.response_time_ms.mean(), r.power.total_w())
            }
            Build::Drpm(params, config) => {
                let drive = DrpmDrive::new(params, *config);
                let r = simulate(source, drive, &mut NullRecorder, &mut NullObserver)?;
                (r.response_time_ms.mean(), r.average_power_w())
            }
        };
        Ok(DesignRow {
            label,
            mean_ms,
            power_w,
        })
    }

    fn reduce(&self, outputs: Vec<DesignRow>) -> DesignReport {
        let per_kind = outputs.chunks(self.designs.len()).map(<[_]>::to_vec);
        DesignReport {
            title: self.title,
            first_header: self.first_header,
            workloads: self.kinds.iter().copied().zip(per_kind).collect(),
        }
    }
}

/// [`DesignStudy::drpm`], run serially and rendered. Exists only for
/// `perfbench/ledger`.
pub fn render_drpm(scale: Scale) -> Result<String, StudyError> {
    let report = DesignStudy::drpm().run(scale, &Executor::serial())?;
    Ok(report.render())
}

/// [`DesignStudy::dash`], run serially and rendered. Exists only for
/// `perfbench/ledger`.
pub fn render_dash(scale: Scale) -> Result<String, StudyError> {
    let report = DesignStudy::dash().run(scale, &Executor::serial())?;
    Ok(report.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One workload's rows of `study` at `requests`, on two workers.
    fn study_rows(study: DesignStudy, kind: WorkloadKind, requests: usize) -> Vec<DesignRow> {
        let scale = Scale::quick().with_requests(requests);
        let study = DesignStudy {
            kinds: vec![kind],
            ..study
        };
        let mut report = study
            .run(scale, &Executor::new(2))
            .expect("replay succeeds");
        report.workloads.remove(0).1
    }

    #[test]
    fn dash_dimensions_all_parallel_designs_beat_conventional() {
        let rows = study_rows(DesignStudy::dash(), WorkloadKind::TpcC, 5_000);
        assert_eq!(rows.len(), 4);
        let conv = rows[0].mean_ms;
        for r in &rows[1..] {
            assert!(
                r.mean_ms < conv,
                "{} ({:.1} ms) should beat conventional ({conv:.1} ms)",
                r.label,
                r.mean_ms
            );
        }
    }

    #[test]
    fn dash_a_dimension_wins_where_seeks_matter() {
        // §7.2 prefers the A dimension for its scheduling flexibility:
        // a second assembly shortens seeks as well as rotation, so on
        // the seek-heavy TPC-H scans it must at least match the
        // rotational-only H design. (Under extreme locality H2 can win
        // — its rotational benefit is unconditional — which is exactly
        // the "fine-grained parallelism depends on data access
        // patterns" trade-off the section discusses.)
        let rows = study_rows(DesignStudy::dash(), WorkloadKind::TpcH, 5_000);
        let a2 = rows
            .iter()
            .find(|r| r.label.starts_with("D1A2"))
            .expect("A2");
        let h2 = rows
            .iter()
            .find(|r| r.label.starts_with("D1A1S1H2"))
            .expect("H2");
        assert!(
            a2.mean_ms <= h2.mean_ms * 1.05,
            "A2 {} vs H2 {}",
            a2.mean_ms,
            h2.mean_ms
        );
    }

    #[test]
    fn thermal_table_shape() {
        let rows = thermal_study();
        assert_eq!(rows.len(), 8);
        // Shrinking platters rescues 10k RPM (the enterprise practice).
        let small10k = rows
            .iter()
            .find(|r| r.label.contains("3.3in"))
            .expect("row");
        assert!(small10k.within_envelope, "{small10k:?}");
        // 15k RPM conventional is infeasible...
        let r15k = rows
            .iter()
            .find(|r| r.label.contains("15000"))
            .expect("row");
        assert!(!r15k.within_envelope, "{:?}", r15k);
        // ...while the HC-SD-SA(4) designs (one arm in motion) fit, and
        // the low-RPM variant runs coolest of all.
        let sa4 = rows
            .iter()
            .find(|r| r.label.starts_with("SA(4) @7200 RPM, 1 arm"))
            .expect("row");
        assert!(sa4.within_envelope, "{sa4:?}");
        let sa4_low = rows
            .iter()
            .find(|r| r.label.starts_with("SA(4) @4200"))
            .expect("row");
        assert!(sa4_low.within_envelope);
        assert!(sa4_low.steady_c < sa4.steady_c);
        // The relaxed all-arms design is what the envelope rejects —
        // quantifying why §7.2 keeps one arm in motion.
        let relaxed = rows
            .iter()
            .find(|r| r.label.contains("relaxed"))
            .expect("row");
        assert!(!relaxed.within_envelope, "{relaxed:?}");
    }

    #[test]
    fn drpm_rows_sensible_for_tpch() {
        let rows = study_rows(DesignStudy::drpm(), WorkloadKind::TpcH, 4_000);
        assert_eq!(rows.len(), 3);
        let conv = &rows[0];
        let drpm = &rows[1];
        let sa4 = &rows[2];
        // DRPM must not use more power than the conventional drive.
        assert!(drpm.power_w <= conv.power_w * 1.05, "{rows:?}");
        // The fixed low-RPM parallel drive cuts power hard...
        assert!(sa4.power_w < conv.power_w * 0.70, "{rows:?}");
        // ...while staying competitive on response time.
        assert!(sa4.mean_ms < drpm.mean_ms * 1.5, "{rows:?}");
    }

    #[test]
    fn renders_nonempty() {
        assert!(render_thermal().contains("envelope"));
        let s = DesignStudy::drpm()
            .run(Scale::quick().with_requests(1_500), &Executor::new(2))
            .expect("replay succeeds")
            .render();
        assert!(s.contains("DRPM"));
        assert!(s.contains("TPC-H"));
    }
}
