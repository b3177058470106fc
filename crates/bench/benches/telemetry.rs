//! Recorder overhead on the traced drive replay.
//!
//! Three variants of the same SA(4) replay: the `run_drive` entry point,
//! `simulate` with the [`NullRecorder`] (the "tracing
//! compiled away" configuration every experiment runs in), and the
//! traced entry point with a [`RingRecorder`] actually buffering
//! events. The NullRecorder run must stay within noise of the untraced
//! baseline — the recorder is a `const ENABLED: bool` static-dispatch
//! parameter, so the disabled path should monomorphize to the same
//! machine code.
//!
//! ```text
//! cargo bench -p bench --bench telemetry
//! ```
//!
//! Results are recorded in `BENCH_telemetry.json`.

use bench::bench;
use diskmodel::presets;
use intradisk::{DiskDrive, DriveConfig, NullObserver};
use telemetry::{NullRecorder, RingRecorder};
use workload::{SyntheticSpec, Trace};

const WARMUP: usize = 3;
const SAMPLES: usize = 15;

fn replay_trace() -> Trace {
    let cap = presets::barracuda_es_750gb().capacity_sectors();
    SyntheticSpec::paper(6.0, cap, 6_000).generate(42)
}

fn main() {
    let params = presets::barracuda_es_750gb();
    let config = DriveConfig::sa(4);
    let trace = replay_trace();

    let untraced = bench("replay_untraced", WARMUP, SAMPLES, || {
        experiments::run_drive(&params, config.clone(), &trace)
            .expect("replays cleanly")
            .metrics
            .completed
    });
    let null = bench("replay_null_recorder", WARMUP, SAMPLES, || {
        let drive = DiskDrive::new(&params, config.clone());
        experiments::simulate(&trace, drive, &mut NullRecorder, &mut NullObserver)
            .expect("replays cleanly")
            .metrics
            .completed
    });
    let ring = bench("replay_ring_recorder", WARMUP, SAMPLES, || {
        let mut rec = RingRecorder::new();
        let drive = DiskDrive::new(&params, config.clone());
        let r = experiments::simulate(&trace, drive, &mut rec, &mut NullObserver)
            .expect("replays cleanly");
        r.metrics.completed + rec.len() as u64
    });

    // Overhead is computed on the per-variant *minimum*: scheduling
    // noise on a shared host only ever adds time, so the minimum is the
    // noise-robust estimate of the true cost of each variant.
    println!(
        "{{\"null_recorder_overhead\":{:.4}}}",
        null.min_ns / untraced.min_ns.max(1.0) - 1.0
    );
    println!(
        "{{\"ring_recorder_overhead\":{:.4}}}",
        ring.min_ns / untraced.min_ns.max(1.0) - 1.0
    );
}
