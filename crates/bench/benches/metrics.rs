//! Metrics-registry overhead on the traced drive replay.
//!
//! Three variants of the same SA(4) replay: the `run_drive` entry point,
//! `simulate` with [`NullRecorder`] (no registry attached
//! — the configuration every experiment runs in, which must stay
//! within the ≤2% NullRecorder gate now that the metrics layer exists
//! in-tree), and `simulate` with a [`MetricsRecorder`]
//! folding every event into the registry online.
//!
//! A fourth microbenchmark times raw [`StreamingHistogram::record`]
//! throughput, the hot operation of the bounded-memory percentile
//! path.
//!
//! ```text
//! cargo bench -p bench --bench metrics
//! ```
//!
//! Results are recorded in `BENCH_metrics.json`.

use bench::bench;
use diskmodel::presets;
use intradisk::{DiskDrive, DriveConfig, NullObserver};
use simkit::StreamingHistogram;
use telemetry::{MetricsRecorder, NullRecorder};
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
    let null = bench("replay_no_registry", WARMUP, SAMPLES, || {
        let drive = DiskDrive::new(&params, config.clone());
        experiments::simulate(&trace, drive, &mut NullRecorder, &mut NullObserver)
            .expect("replays cleanly")
            .metrics
            .completed
    });
    let metrics = bench("replay_metrics_recorder", WARMUP, SAMPLES, || {
        let mut rec = MetricsRecorder::new();
        let drive = DiskDrive::new(&params, config.clone());
        let r = experiments::simulate(&trace, drive, &mut rec, &mut NullObserver)
            .expect("replays cleanly");
        r.metrics.completed + rec.finish().counters.len() as u64
    });
    let _ = bench("streamhist_record", WARMUP, SAMPLES, || {
        let mut h = StreamingHistogram::new();
        for i in 0..100_000u64 {
            h.record(0.01 + (i % 997) as f64 * 0.37);
        }
        h.count()
    });

    // Overhead on per-variant *minima*: scheduling noise on a shared
    // host only ever adds time, so the minimum is the noise-robust
    // estimate (same method as the telemetry bench).
    println!(
        "{{\"no_registry_overhead\":{:.4}}}",
        null.min_ns / untraced.min_ns.max(1.0) - 1.0
    );
    println!(
        "{{\"metrics_recorder_overhead\":{:.4}}}",
        metrics.min_ns / untraced.min_ns.max(1.0) - 1.0
    );
}
