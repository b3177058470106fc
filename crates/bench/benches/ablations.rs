//! Ablation studies over the design choices DESIGN.md calls out.
//!
//! Each benchmark compares a knob's settings on the same deterministic
//! workload and prints the resulting mean response times, so
//! `cargo bench --bench ablations` doubles as a sensitivity report:
//!
//! * queue policy (FCFS / SSTF / SPTF \[42\]),
//! * SPTF scheduling-window depth,
//! * arm-assembly azimuth placement (equally spaced vs. co-located —
//!   isolating the rotational-latency mechanism),
//! * on-board cache size (the §7.1 8 MB vs 64 MB check),
//! * RAID-0 stripe-unit size,
//! * the technical report's overlap relaxations.

use bench::bench;
use std::hint::black_box;

use array::Layout;
use diskmodel::{presets, DiskParams};
use experiments::{ArrayRunResult, DriveRunResult};
use intradisk::{
    ArmPlacement, DriveConfig, NullObserver, OverlapConfig, OverlapMode, OverlappedDrive,
    QueuePolicy,
};
use workload::{SyntheticSpec, Trace};

const WARMUP: usize = 1;
const SAMPLES: usize = 5;

fn trace(mean_ms: f64, n: usize) -> Trace {
    SyntheticSpec::paper(mean_ms, presets::barracuda_es_750gb().capacity_sectors(), n).generate(42)
}

// Ablation traces replay cleanly by construction; unwrap the runner's
// `Result` once here.
fn run_drive(params: &DiskParams, config: DriveConfig, trace: &Trace) -> DriveRunResult {
    experiments::run_drive(params, config, trace).expect("replay succeeds")
}

fn run_array(
    params: &DiskParams,
    member: DriveConfig,
    disks: usize,
    layout: Layout,
    trace: &Trace,
) -> ArrayRunResult {
    experiments::run_array(params, member, disks, layout, trace).expect("replay succeeds")
}

fn ablate_policy() {
    let t = trace(5.0, 4_000);
    let params = presets::barracuda_es_750gb();
    for (name, policy) in [
        ("policy_fcfs", QueuePolicy::Fcfs),
        ("policy_sstf", QueuePolicy::Sstf),
        ("policy_sptf", QueuePolicy::Sptf),
    ] {
        bench(name, WARMUP, SAMPLES, || {
            black_box(run_drive(
                &params,
                DriveConfig::sa(1).with_policy(policy),
                &t,
            ))
        });
        let r = run_drive(&params, DriveConfig::sa(1).with_policy(policy), &t);
        println!("{name}: mean {:.2} ms", r.metrics.response_time_ms.mean());
    }
}

fn ablate_window() {
    let t = trace(4.0, 4_000);
    let params = presets::barracuda_es_750gb();
    for window in [4usize, 16, 64, 256] {
        let name = format!("sptf_window_{window}");
        bench(&name, WARMUP, SAMPLES, || {
            black_box(run_drive(
                &params,
                DriveConfig::sa(2).with_window(window),
                &t,
            ))
        });
        let r = run_drive(&params, DriveConfig::sa(2).with_window(window), &t);
        println!("{name}: mean {:.2} ms", r.metrics.response_time_ms.mean());
    }
}

fn ablate_placement() {
    let t = trace(6.0, 4_000);
    let params = presets::barracuda_es_750gb();
    for (name, placement) in [
        ("placement_equally_spaced", ArmPlacement::EquallySpaced),
        ("placement_colocated", ArmPlacement::Colocated),
    ] {
        let cfg = DriveConfig::sa(4).with_placement(placement.clone());
        bench(name, WARMUP, SAMPLES, || {
            black_box(run_drive(&params, cfg.clone(), &t))
        });
        let r = run_drive(&params, cfg, &t);
        println!(
            "{name}: mean {:.2} ms, rotational {:.2} ms",
            r.metrics.response_time_ms.mean(),
            r.metrics.rotational_ms.mean()
        );
    }
}

fn ablate_cache() {
    let t = trace(6.0, 4_000);
    for mib in [0u32, 8, 64] {
        let params = presets::barracuda_es_750gb().with_cache_mib(mib);
        let name = format!("cache_{mib}mib");
        bench(&name, WARMUP, SAMPLES, || {
            black_box(run_drive(&params, DriveConfig::sa(1), &t))
        });
        let r = run_drive(&params, DriveConfig::sa(1), &t);
        println!(
            "{name}: mean {:.2} ms, hit-ratio {:.3}",
            r.metrics.response_time_ms.mean(),
            r.metrics.cache_hits as f64 / r.metrics.completed.max(1) as f64
        );
    }
}

fn ablate_stripe() {
    let t = trace(2.0, 4_000);
    let params = presets::barracuda_es_750gb();
    for stripe in [16u64, 128, 1024] {
        let layout = Layout::Striped {
            stripe_sectors: stripe,
        };
        let name = format!("stripe_{stripe}_sectors");
        bench(&name, WARMUP, SAMPLES, || {
            black_box(run_array(
                &params,
                DriveConfig::conventional(),
                4,
                layout,
                &t,
            ))
        });
        let r = run_array(&params, DriveConfig::conventional(), 4, layout, &t);
        println!("{name}: mean {:.2} ms", r.response_time_ms.mean());
    }
}

fn ablate_overlap() {
    let params = presets::barracuda_es_750gb();
    let t = trace(6.0, 4_000);
    let replay = |mode| {
        let drive = OverlappedDrive::new(&params, OverlapConfig::new(4, mode));
        experiments::simulate(&t, drive, &mut telemetry::NullRecorder, &mut NullObserver)
            .expect("replay succeeds")
    };
    for (name, mode) in [
        ("overlap_baseline", OverlapMode::SingleArmMotion),
        ("overlap_multi_motion", OverlapMode::MultiMotion),
        ("overlap_multi_channel", OverlapMode::MultiChannel),
    ] {
        bench(name, WARMUP, SAMPLES, || black_box(replay(mode)));
        let m = replay(mode).metrics;
        println!("{name}: mean {:.2} ms", m.response_time_ms.mean());
    }
}

fn main() {
    ablate_policy();
    ablate_window();
    ablate_placement();
    ablate_cache();
    ablate_stripe();
    ablate_overlap();
}
