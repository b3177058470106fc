//! Graceful degradation (§8): a SMART sensor predicts an actuator
//! failure mid-run; the drive deconfigures the assembly and keeps
//! serving on the remaining arms, degrading performance instead of
//! failing outright.
//!
//! ```text
//! cargo run --release -p experiments --example actuator_failure
//! ```

use diskmodel::presets;
use experiments::{run_drive, simulate};
use intradisk::failure::FailureSchedule;
use intradisk::{DiskDrive, DriveConfig, NullObserver};
use simkit::SimTime;
use telemetry::NullRecorder;
use workload::SyntheticSpec;

fn main() {
    let params = presets::barracuda_es_750gb();
    let spec = SyntheticSpec::paper(5.0, params.capacity_sectors(), 40_000);
    let trace = spec.generate(21);
    let trace_span_ms = trace.stats().duration_ms;

    let healthy = run_drive(&params, DriveConfig::sa(4), &trace).expect("replay succeeds");
    println!(
        "healthy SA(4)          : mean {:6.2} ms, rot-latency {:4.2} ms",
        healthy.metrics.response_time_ms.mean(),
        healthy.metrics.rotational_ms.mean()
    );

    // Lose arms 3 and 2 at one-third and two-thirds of the run.
    let mut sched = FailureSchedule::new();
    sched.push(SimTime::from_millis(trace_span_ms / 3.0), 3);
    sched.push(SimTime::from_millis(trace_span_ms * 2.0 / 3.0), 2);
    let drive = DiskDrive::new(&params, DriveConfig::sa(4)).with_failures(sched);
    let degraded =
        simulate(&trace, drive, &mut NullRecorder, &mut NullObserver).expect("replay succeeds");
    println!(
        "SA(4) with two failures: mean {:6.2} ms, rot-latency {:4.2} ms",
        degraded.metrics.response_time_ms.mean(),
        degraded.metrics.rotational_ms.mean()
    );

    let floor = run_drive(&params, DriveConfig::sa(2), &trace).expect("replay succeeds");
    println!(
        "healthy SA(2) (floor)  : mean {:6.2} ms, rot-latency {:4.2} ms",
        floor.metrics.response_time_ms.mean(),
        floor.metrics.rotational_ms.mean()
    );

    assert_eq!(degraded.metrics.completed, trace.len() as u64);
    println!(
        "\nAll {} requests completed despite losing half the assemblies — \
         the drive degrades toward SA(2) behaviour rather than failing (§8).",
        trace.len()
    );
}
