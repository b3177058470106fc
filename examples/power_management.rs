//! Two ways to cut storage power, head to head (§5's related work
//! versus the paper's proposal):
//!
//! * **DRPM** — one conventional drive that modulates its spindle speed
//!   with load;
//! * **intra-disk parallelism** — one fixed low-RPM drive with four arm
//!   assemblies.
//!
//! ```text
//! cargo run --release -p experiments --example power_management
//! ```

use diskmodel::presets;
use experiments::{run_drive, simulate};
use intradisk::drpm::{DrpmConfig, DrpmDrive};
use intradisk::{DriveConfig, IoKind, IoRequest, NullObserver};
use simkit::{Rng64, SimDuration, SimTime};
use telemetry::NullRecorder;

/// A bursty access pattern: request clusters separated by long lulls —
/// the regime where power management has something to save.
fn bursty_trace(n: u64, footprint: u64, seed: u64) -> Vec<IoRequest> {
    let mut rng = Rng64::new(seed);
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|i| {
            if i % 25 == 0 {
                t += SimDuration::from_secs(20.0 + rng.f64() * 40.0);
            } else {
                t += SimDuration::from_millis(rng.f64() * 12.0);
            }
            IoRequest::new(i, t, rng.below(footprint), 8, IoKind::Read)
        })
        .collect()
}

fn main() {
    let params = presets::barracuda_es_750gb();
    let reqs = bursty_trace(2_000, params.capacity_sectors(), 17);
    let trace = workload::Trace::new("bursty", reqs, params.capacity_sectors());

    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "design", "mean ms", "p99 ms", "avg W"
    );

    let conv = run_drive(&params, DriveConfig::conventional(), &trace).expect("replay succeeds");
    let conv_rt = &conv.metrics.response_time_ms;
    println!(
        "{:<28} {:>10.1} {:>10.1} {:>10.2}",
        "conventional @7200",
        conv_rt.mean(),
        conv_rt.percentile(99.0),
        conv.power.total_w()
    );

    let drpm = DrpmDrive::new(&params, DrpmConfig::typical());
    let d = simulate(&trace, drpm, &mut NullRecorder, &mut NullObserver).expect("replay succeeds");
    let d_rt = &d.response_time_ms;
    println!(
        "{:<28} {:>10.1} {:>10.1} {:>10.2}",
        "DRPM 7200/4200",
        d_rt.mean(),
        d_rt.percentile(99.0),
        d.average_power_w()
    );

    let sa = run_drive(
        &presets::barracuda_es_at_rpm(4_200),
        DriveConfig::sa(4),
        &trace,
    )
    .expect("replay succeeds");
    let sa_rt = &sa.metrics.response_time_ms;
    println!(
        "{:<28} {:>10.1} {:>10.1} {:>10.2}",
        "SA(4) @4200 (this paper)",
        sa_rt.mean(),
        sa_rt.percentile(99.0),
        sa.power.total_w()
    );

    println!(
        "\nDRPM saves power by going slow and pays for it in the tail \
         (speed-transition latencies); the intra-disk parallel \
         drive holds a flat low power with no latency cliffs."
    );
}
