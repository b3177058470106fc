//! Quickstart: simulate a conventional drive and a 4-actuator
//! intra-disk parallel drive on the same random workload and compare
//! response time and power.
//!
//! ```text
//! cargo run --release -p experiments --example quickstart
//! ```

use diskmodel::presets;
use experiments::run_drive;
use intradisk::DriveConfig;
use workload::SyntheticSpec;

fn main() {
    // A moderate random workload: 50k requests, 60% reads, 20%
    // sequential, 10 ms mean inter-arrival (the paper's §7.3 recipe at
    // a load one conventional drive can sustain).
    let params = presets::barracuda_es_750gb();
    let spec = SyntheticSpec::paper(10.0, params.capacity_sectors(), 50_000);
    let trace = spec.generate(7);

    println!(
        "workload: {} requests, stats {:?}\n",
        trace.len(),
        trace.stats()
    );

    for actuators in [1u32, 2, 4] {
        let result =
            run_drive(&params, DriveConfig::sa(actuators), &trace).expect("replay succeeds");
        let p90 = result.p90_ms();
        let m = result.power;
        println!(
            "HC-SD-SA({actuators}): mean {:6.2} ms | p90 {:6.2} ms | rot-latency {:4.2} ms | power {:5.2} W (idle {:.2} + seek {:.2} + rot {:.2} + xfer {:.2})",
            result.metrics.response_time_ms.mean(),
            p90,
            result.metrics.rotational_ms.mean(),
            m.total_w(),
            m.idle_w,
            m.seek_w,
            m.rotational_w,
            m.transfer_w,
        );
    }

    println!(
        "\nExtra arm assemblies cut rotational latency (each arm sits at a \
         different azimuth), at a peak-power cost of one extra VCM per arm."
    );
}
