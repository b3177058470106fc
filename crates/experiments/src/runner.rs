//! The run-loop entry points of the experiments.
//!
//! [`simulate`] replays any [`IntoRequestSource`] — a materialized
//! [`workload::Trace`] by reference or a lazy source
//! (`SyntheticSpec::source`, `TraceProfile::source`, `SpcSource`) —
//! against any [`Device`]: a single drive, an array, the overlapped
//! drive, or the DRPM baseline. It counts every pulled request
//! (`workload.requests_pulled`) and runs the one arrival-versus-event
//! loop, [`intradisk::simulate`], which holds at most one request of
//! lookahead, so a 10⁸-request run never materializes its workload.
//!
//! [`run_drive`] and [`run_array`] are the two common cases. Both
//! close power accounting at the later of the last arrival and the last
//! completion, so idle tails are charged correctly.
//!
//! The devices surface their typed [`DriveError`]s instead of
//! panicking: a protocol violation aborts the *experiment point*, not
//! the whole sweep, and the executor ([`crate::exec`]) reports which
//! point failed.

use array::{ArrayController, Layout};
use diskmodel::{DiskParams, DriveError};
use intradisk::{DiskDrive, DriveConfig};
use telemetry::{NullRecorder, Recorder};
use workload::{CountingSource, IntoRequestSource, RequestSource};

pub use array::ArrayRunResult;
pub use intradisk::{Device, DriveRunResult, NullObserver, RunObserver};

/// Replays `workload` against `device` and returns the device's report,
/// recording telemetry into `rec` and reporting every completion to
/// `obs`.
///
/// # Errors
/// Propagates the first [`DriveError`] the device reports.
pub fn simulate<D: Device, R: Recorder, O: RunObserver>(
    workload: impl IntoRequestSource,
    device: D,
    rec: &mut R,
    obs: &mut O,
) -> Result<D::Report, DriveError> {
    let mut source = CountingSource::new(workload.into_source());
    intradisk::simulate(
        std::iter::from_fn(|| source.next_request()),
        device,
        rec,
        obs,
    )
}

/// Replays a workload against one drive.
pub fn run_drive(
    params: &DiskParams,
    config: DriveConfig,
    workload: impl IntoRequestSource,
) -> Result<DriveRunResult, DriveError> {
    simulate(
        workload,
        DiskDrive::new(params, config),
        &mut NullRecorder,
        &mut NullObserver,
    )
}

/// Replays a workload against an array of `disks` drives of model
/// `params`, each configured as `member`, laid out per `layout`.
pub fn run_array(
    params: &DiskParams,
    member: DriveConfig,
    disks: usize,
    layout: Layout,
    workload: impl IntoRequestSource,
) -> Result<ArrayRunResult, DriveError> {
    let array = ArrayController::new(params, member, disks, layout);
    simulate(workload, array, &mut NullRecorder, &mut NullObserver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::presets;
    use intradisk::failure::FailureSchedule;
    use simkit::{SimDuration, SimTime};
    use workload::{SyntheticSpec, Trace};

    fn small_trace(mean_ms: f64, n: usize) -> Trace {
        SyntheticSpec::paper(mean_ms, 200_000_000, n).generate(11)
    }

    #[test]
    fn drive_run_completes_everything() {
        let t = small_trace(8.0, 2_000);
        let r = run_drive(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            &t,
        )
        .expect("replay succeeds");
        assert_eq!(r.metrics.completed, 2_000);
        assert!(r.duration > SimDuration::ZERO);
        assert!(r.power.total_w() > 0.0);
    }

    #[test]
    fn array_run_completes_everything() {
        let t = small_trace(4.0, 2_000);
        let r = run_array(
            &presets::array_drive_10k_19gb(),
            DriveConfig::conventional(),
            4,
            Layout::striped_default(),
            &t,
        )
        .expect("replay succeeds");
        assert_eq!(r.completed, 2_000);
        assert!(r.power.total_w() > 0.0);
    }

    #[test]
    fn lazy_source_matches_materialized_trace() {
        // The core API-redesign oracle: streaming ingestion must be
        // observationally identical to the materialized path.
        let spec = SyntheticSpec::paper(6.0, 200_000_000, 3_000);
        let trace = spec.generate(11);
        let params = presets::barracuda_es_750gb();
        let from_trace = run_drive(&params, DriveConfig::sa(2), &trace).expect("replay succeeds");
        let from_source =
            run_drive(&params, DriveConfig::sa(2), spec.source(11)).expect("replay succeeds");
        assert_eq!(from_trace.metrics.completed, from_source.metrics.completed);
        assert_eq!(
            from_trace.metrics.response_time_ms.mean(),
            from_source.metrics.response_time_ms.mean()
        );
        assert_eq!(from_trace.p90_ms(), from_source.p90_ms());
        assert_eq!(from_trace.duration, from_source.duration);
    }

    #[test]
    fn single_disk_array_close_to_bare_drive() {
        // A 1-disk striped array should behave like the bare drive
        // (modulo controller bookkeeping, which costs nothing here).
        let t = small_trace(8.0, 2_000);
        let d = run_drive(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            &t,
        )
        .expect("replay succeeds");
        let a = run_array(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            1,
            Layout::Concatenated,
            &t,
        )
        .expect("replay succeeds");
        let dm = d.metrics.response_time_ms.mean();
        let am = a.response_time_ms.mean();
        assert!((dm - am).abs() / dm < 0.05, "drive {dm} vs array {am}");
    }

    #[test]
    fn failure_mid_run_degrades_but_completes() {
        let t = small_trace(6.0, 2_000);
        let params = presets::barracuda_es_750gb();
        let healthy = run_drive(&params, DriveConfig::sa(2), &t).expect("replay succeeds");
        let mut sched = FailureSchedule::new();
        sched.push(SimTime::ZERO, 1); // lose the second arm immediately
        let drive = DiskDrive::new(&params, DriveConfig::sa(2)).with_failures(sched);
        let degraded =
            simulate(&t, drive, &mut NullRecorder, &mut NullObserver).expect("replay succeeds");
        assert_eq!(degraded.metrics.completed, 2_000);
        assert!(
            degraded.metrics.response_time_ms.mean() >= healthy.metrics.response_time_ms.mean(),
            "degraded should not beat healthy"
        );
    }
}
