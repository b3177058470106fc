//! Model validation against closed-form results.
//!
//! A simulator is only as credible as its agreement with the few cases
//! that can be solved analytically. This module checks four of them and
//! renders a validation report (`repro validate`):
//!
//! 1. **Rotational latency under FCFS random access** — the mean wait
//!    for a uniformly random sector is half a revolution, `T/2`.
//! 2. **Seek time over uniformly random cylinder pairs** — must match
//!    the seek curve's own analytic expectation
//!    ([`SeekProfile::mean_random_seek`]).
//! 3. **Multi-azimuth rotational latency** — with `k` equally spaced
//!    assemblies parked on the target cylinder, the expected wait is
//!    `T/2k`.
//! 4. **M/M/1-style queueing growth** — with Poisson arrivals and
//!    near-constant service time `S`, the mean wait at utilization ρ
//!    follows the Pollaczek–Khinchine form `W = ρS/(2(1−ρ)) · (1+C²)`;
//!    we check the simulator's response-time growth between two
//!    utilizations against the analytic ratio, within tolerance.
//!
//! [`SeekProfile::mean_random_seek`]: diskmodel::SeekProfile::mean_random_seek

use diskmodel::{presets, DriveError, SeekProfile};
use intradisk::{
    DiskDrive, DriveConfig, DriveMetrics, IoKind, IoRequest, NullObserver, QueuePolicy,
};
use simkit::{Rng64, SimDuration, SimTime};
use telemetry::NullRecorder;
use workload::TraceBook;

use crate::configs::Scale;
use crate::plan::{ExperimentPlan, Study};
use crate::report;

/// One validation check.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// What was checked.
    pub check: String,
    /// Closed-form expectation.
    pub analytic: f64,
    /// Simulated value.
    pub simulated: f64,
    /// Acceptable relative error.
    pub tolerance: f64,
}

impl ValidationRow {
    /// Relative error of the simulation against the analytic value.
    pub fn relative_error(&self) -> f64 {
        (self.simulated - self.analytic).abs() / self.analytic.abs().max(1e-12)
    }

    /// True if the check passes.
    pub fn passes(&self) -> bool {
        self.relative_error() <= self.tolerance
    }
}

/// Replays an in-memory request list (not a workload source, so it is
/// not counted as pulled requests) and returns the drive's metrics.
fn replay(drive: DiskDrive, reqs: Vec<IoRequest>) -> Result<DriveMetrics, DriveError> {
    Ok(intradisk::simulate(reqs, drive, &mut NullRecorder, &mut NullObserver)?.metrics)
}

fn random_reads(cap: u64, n: u64, gap_ms: f64, seed: u64) -> Vec<IoRequest> {
    let mut rng = Rng64::new(seed);
    (0..n)
        .map(|i| {
            IoRequest::new(
                i,
                SimTime::from_millis(i as f64 * gap_ms),
                rng.below(cap),
                1,
                IoKind::Read,
            )
        })
        .collect()
}

/// Check 1: FCFS random access sees a mean rotational wait of `T/2`.
pub fn check_rotational_latency() -> Result<ValidationRow, DriveError> {
    let params = presets::barracuda_es_750gb();
    let drive = DiskDrive::new(
        &params,
        DriveConfig::conventional().with_policy(QueuePolicy::Fcfs),
    );
    // Light load so there is no queue for FCFS to reorder anyway.
    let reqs = random_reads(drive.capacity_sectors(), 4_000, 25.0, 11);
    let metrics = replay(drive, reqs)?;
    Ok(ValidationRow {
        check: "mean rotational wait, FCFS random (T/2)".to_string(),
        analytic: params.rotation_period().as_millis() / 2.0,
        simulated: metrics.rotational_ms.mean(),
        tolerance: 0.05,
    })
}

/// Check 2: simulated seeks over random targets match the curve's own
/// expectation over random cylinder pairs.
pub fn check_mean_seek() -> Result<ValidationRow, DriveError> {
    let params = presets::barracuda_es_750gb();
    let profile = SeekProfile::new(&params);
    let drive = DiskDrive::new(
        &params,
        DriveConfig::conventional().with_policy(QueuePolicy::Fcfs),
    );
    let reqs = random_reads(drive.capacity_sectors(), 4_000, 25.0, 12);
    let metrics = replay(drive, reqs)?;
    Ok(ValidationRow {
        check: "mean seek, FCFS random (curve expectation)".to_string(),
        analytic: profile.mean_random_seek().as_millis(),
        simulated: metrics.seek_ms.mean(),
        // LBAs are uniform over *sectors* (outer cylinders hold more),
        // so the simulated distribution is mildly outer-weighted.
        tolerance: 0.10,
    })
}

/// Check 3: `k` equally spaced assemblies parked on the cylinder cut
/// the expected wait to `T/2k`.
pub fn check_multi_azimuth(k: u32) -> Result<ValidationRow, DriveError> {
    use intradisk::service::{ArmSet, LatencyScaling, Mechanics};
    let params = presets::barracuda_es_750gb();
    let mech = Mechanics::new(&params);
    let mut rng = Rng64::new(13);
    let mut total = 0.0;
    let n = 20_000;
    for i in 0..n {
        let lba = rng.below(mech.geometry().total_sectors());
        let cyl = mech.geometry().locate(lba).cylinder;
        let arms: Vec<_> = mech
            .default_arms(k)
            .into_iter()
            .map(|a| intradisk::service::ArmState { cylinder: cyl, ..a })
            .collect();
        let now = SimTime::from_nanos(i as u64 * 1_734_967 + rng.below(1_000_000));
        let arms = ArmSet::from_arms(&arms);
        let plan = mech.plan_set_with_heads(&arms, 1, lba, 1, now, LatencyScaling::none())?;
        total += plan.rotational.as_millis();
    }
    Ok(ValidationRow {
        check: format!("mean rotational wait, {k} parked assemblies (T/2k)"),
        analytic: params.rotation_period().as_millis() / (2.0 * k as f64),
        simulated: total / n as f64,
        tolerance: 0.05,
    })
}

/// Check 4: response-time growth with utilization follows the
/// Pollaczek–Khinchine shape for an M/G/1 queue.
pub fn check_queueing_growth() -> Result<ValidationRow, DriveError> {
    // Use zero-scaled mechanics so service time is the constant
    // controller overhead + transfer: a near-deterministic M/D/1.
    use intradisk::LatencyScaling;
    let params = presets::barracuda_es_750gb();
    let make = || {
        DiskDrive::new(
            &params,
            DriveConfig::conventional()
                .with_policy(QueuePolicy::Fcfs)
                .with_scaling(LatencyScaling {
                    seek: 0.0,
                    rotational: 0.0,
                }),
        )
    };
    // Measure the fixed service time from an isolated request.
    let r0 = IoRequest::new(0, SimTime::ZERO, 0, 1, IoKind::Read);
    let service_ms = replay(make(), vec![r0])?.response_time_ms.max();

    // Run at two utilizations with Poisson arrivals.
    let run = |rho: f64, seed: u64| -> Result<f64, DriveError> {
        let drive = make();
        let mut rng = Rng64::new(seed);
        let mean_gap = service_ms / rho;
        let mut t = SimTime::ZERO;
        let reqs: Vec<IoRequest> = (0..60_000u64)
            .map(|i| {
                t += SimDuration::from_millis(-mean_gap * rng.f64_open().ln());
                // Distinct uncached blocks so every request pays the
                // same media path.
                IoRequest::new(
                    i,
                    t,
                    (i * 1_000_003) % drive.capacity_sectors(),
                    1,
                    IoKind::Write,
                )
            })
            .collect();
        Ok(replay(drive, reqs)?.response_time_ms.mean() - service_ms)
    };
    let w_low = run(0.3, 14)?;
    let w_high = run(0.7, 15)?;
    // M/D/1 waiting time: W = rho * S / (2 (1 - rho)).
    let md1 = |rho: f64| rho * service_ms / (2.0 * (1.0 - rho));
    Ok(ValidationRow {
        check: "M/D/1 wait growth, rho 0.3 -> 0.7 (P-K ratio)".to_string(),
        analytic: md1(0.7) / md1(0.3),
        simulated: w_high / w_low,
        tolerance: 0.15,
    })
}

/// One validation check, as a sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationCheck {
    /// Check 1: `T/2` rotational wait.
    RotationalLatency,
    /// Check 2: mean random seek.
    MeanSeek,
    /// Check 3: `T/2k` with `k` parked assemblies.
    MultiAzimuth(u32),
    /// Check 4: P-K queueing growth.
    QueueingGrowth,
}

/// The reduced validation report.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// One row per check.
    pub rows: Vec<ValidationRow>,
}

impl ValidationReport {
    /// Renders the validation table.
    pub fn render(&self) -> String {
        let headers = ["check", "analytic", "simulated", "rel err", "pass"];
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.check.clone(),
                    format!("{:.4}", r.analytic),
                    format!("{:.4}", r.simulated),
                    format!("{:.2}%", r.relative_error() * 100.0),
                    if r.passes() { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        format!(
            "Model validation against closed-form results\n{}",
            report::table(&headers, &cells)
        )
    }
}

/// The validation study driver.
///
/// The checks pin their own request counts and seeds (they validate
/// against closed-form constants, not the paper's traces), so the
/// [`Scale`] is ignored.
#[derive(Debug, Clone)]
pub struct ValidationStudy;

impl ValidationStudy {
    /// All five checks.
    pub fn all() -> Self {
        ValidationStudy
    }
}

impl Study for ValidationStudy {
    type Point = ValidationCheck;
    type Output = ValidationRow;
    type Report = ValidationReport;

    fn name(&self) -> &'static str {
        "validate"
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<ValidationCheck> {
        ExperimentPlan::new(vec![
            ValidationCheck::RotationalLatency,
            ValidationCheck::MeanSeek,
            ValidationCheck::MultiAzimuth(2),
            ValidationCheck::MultiAzimuth(4),
            ValidationCheck::QueueingGrowth,
        ])
    }

    fn label(&self, point: &ValidationCheck) -> String {
        match point {
            ValidationCheck::RotationalLatency => "rotational T/2".to_string(),
            ValidationCheck::MeanSeek => "mean seek".to_string(),
            ValidationCheck::MultiAzimuth(k) => format!("multi-azimuth T/2k, k={k}"),
            ValidationCheck::QueueingGrowth => "P-K queueing growth".to_string(),
        }
    }

    fn run_point(
        &self,
        point: &ValidationCheck,
        _scale: Scale,
        _book: &TraceBook,
    ) -> Result<ValidationRow, DriveError> {
        match *point {
            ValidationCheck::RotationalLatency => check_rotational_latency(),
            ValidationCheck::MeanSeek => check_mean_seek(),
            ValidationCheck::MultiAzimuth(k) => check_multi_azimuth(k),
            ValidationCheck::QueueingGrowth => check_queueing_growth(),
        }
    }

    fn reduce(&self, outputs: Vec<ValidationRow>) -> ValidationReport {
        ValidationReport { rows: outputs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    #[test]
    fn rotational_latency_is_half_revolution() {
        let r = check_rotational_latency().expect("replay succeeds");
        assert!(r.passes(), "{r:?}");
    }

    #[test]
    fn mean_seek_matches_curve() {
        let r = check_mean_seek().expect("replay succeeds");
        assert!(r.passes(), "{r:?}");
    }

    #[test]
    fn multi_azimuth_scaling() {
        for k in [2, 4] {
            let r = check_multi_azimuth(k).expect("live arms present");
            assert!(r.passes(), "{r:?}");
        }
    }

    #[test]
    fn queueing_growth_follows_pk() {
        let r = check_queueing_growth().expect("replay succeeds");
        assert!(r.passes(), "{r:?}");
    }

    #[test]
    fn render_reports_all_checks() {
        let report = ValidationStudy::all()
            .run(Scale::quick(), &Executor::new(2))
            .expect("checks run");
        assert!(report.rows.iter().all(ValidationRow::passes), "{report:?}");
        let s = report.render();
        assert_eq!(s.matches("yes").count() + s.matches("NO").count(), 5);
    }
}
