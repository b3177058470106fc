//! Telemetry integration tests: exporter goldens, schema validity,
//! byte-for-byte determinism, and the no-observer-effect contract.
//!
//! The golden below pins the Chrome trace JSON of a tiny fixed
//! scenario. If an intentional schema change breaks it, regenerate
//! with:
//!
//! ```text
//! cargo test -p experiments --test telemetry golden
//! ```
//!
//! (the failing assertion prints the actual output).

use diskmodel::presets;
use intradisk::{
    DiskDrive, DriveConfig, DriveRunResult, IoKind, IoRequest, NullObserver, OverlapConfig,
    OverlapMode, OverlappedDrive,
};
use simkit::SimTime;
use telemetry::{chrome_trace_json, schema, timeline_csv, RingRecorder, TraceAnalysis};
use workload::{SyntheticSpec, Trace};

/// Replays `t` on an SA(`actuators`) drive, recording into `rec`.
fn run_traced(t: &Trace, actuators: u32, rec: &mut RingRecorder) -> DriveRunResult {
    let drive = DiskDrive::new(&presets::barracuda_es_750gb(), DriveConfig::sa(actuators));
    experiments::simulate(t, drive, rec, &mut NullObserver).expect("replay succeeds")
}

/// Two reads on an SA(2) drive: request 0 served immediately, request 1
/// arrives while 0 is in service and queues. Small enough to pin, rich
/// enough to exercise queueing, seek spans, and both actuators.
fn tiny_scenario() -> RingRecorder {
    let params = presets::barracuda_es_750gb();
    let mut drive = DiskDrive::new(&params, DriveConfig::sa(2));
    let mut rec = RingRecorder::new();
    let r0 = IoRequest::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
    let t1 = SimTime::ZERO + simkit::SimDuration::from_millis(1.0);
    let r1 = IoRequest::new(1, t1, 900_000_000, 16, IoKind::Read);
    let mut completion = drive
        .submit_traced(r0, r0.arrival, &mut rec)
        .expect("submit r0");
    assert!(drive
        .submit_traced(r1, r1.arrival, &mut rec)
        .expect("submit r1")
        .is_none());
    let mut end = SimTime::ZERO;
    while let Some(c) = completion {
        let (done, next) = drive.complete_traced(c, &mut rec).expect("complete");
        end = end.max(done.completed);
        completion = next;
    }
    drive.finalize(end);
    rec
}

fn bench_trace(n: usize, seed: u64) -> Trace {
    let cap = presets::barracuda_es_750gb().capacity_sectors();
    SyntheticSpec::paper(6.0, cap, n).generate(seed)
}

const TINY_GOLDEN: &str = r#"{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"drive"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"actuator0"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"actuator1"}},
{"ph":"M","pid":0,"tid":900,"name":"thread_name","args":{"name":"requests"}},
{"ph":"M","pid":0,"tid":901,"name":"thread_name","args":{"name":"power-mode"}},
{"ph":"i","s":"t","name":"submit","cat":"request","ts":0.000,"pid":0,"tid":900,"args":{"req":0,"lba":1000000,"sectors":8,"op":"R"}},
{"ph":"i","s":"t","name":"dispatch","cat":"sched","ts":0.000,"pid":0,"tid":0,"args":{"req":0,"depth":0}},
{"ph":"i","s":"t","name":"cache_miss","cat":"cache","ts":0.000,"pid":0,"tid":900,"args":{"req":0}},
{"ph":"i","s":"t","name":"mode:seek","cat":"power","ts":100.000,"pid":0,"tid":901,"args":{}},
{"ph":"i","s":"t","name":"submit","cat":"request","ts":1000.000,"pid":0,"tid":900,"args":{"req":1,"lba":900000000,"sectors":16,"op":"R"}},
{"ph":"i","s":"t","name":"queued","cat":"request","ts":1000.000,"pid":0,"tid":900,"args":{"req":1,"depth":1}},
{"ph":"X","name":"seek","cat":"mech","ts":100.000,"dur":1073.267,"pid":0,"tid":0,"args":{"req":0,"from":0,"to":65}},
{"ph":"i","s":"t","name":"mode:rot_wait","cat":"power","ts":1173.267,"pid":0,"tid":901,"args":{}},
{"ph":"X","name":"rot_wait","cat":"mech","ts":1173.267,"dur":3141.656,"pid":0,"tid":0,"args":{"req":0}},
{"ph":"i","s":"t","name":"mode:transfer","cat":"power","ts":4314.923,"pid":0,"tid":901,"args":{}},
{"ph":"X","name":"transfer","cat":"mech","ts":4314.923,"dur":34.704,"pid":0,"tid":0,"args":{"req":0}},
{"ph":"i","s":"t","name":"complete","cat":"request","ts":4349.627,"pid":0,"tid":900,"args":{"req":0}},
{"ph":"i","s":"t","name":"dispatch","cat":"sched","ts":4349.627,"pid":0,"tid":1,"args":{"req":1,"depth":0}},
{"ph":"i","s":"t","name":"cache_miss","cat":"cache","ts":4349.627,"pid":0,"tid":900,"args":{"req":1}},
{"ph":"i","s":"t","name":"mode:seek","cat":"power","ts":4449.627,"pid":0,"tid":901,"args":{}},
{"ph":"X","name":"seek","cat":"mech","ts":4449.627,"dur":11230.200,"pid":0,"tid":1,"args":{"req":1,"from":0,"to":65695}},
{"ph":"i","s":"t","name":"mode:rot_wait","cat":"power","ts":15679.827,"pid":0,"tid":901,"args":{}},
{"ph":"X","name":"rot_wait","cat":"mech","ts":15679.827,"dur":3956.498,"pid":0,"tid":1,"args":{"req":1}},
{"ph":"i","s":"t","name":"mode:transfer","cat":"power","ts":19636.325,"pid":0,"tid":901,"args":{}},
{"ph":"X","name":"transfer","cat":"mech","ts":19636.325,"dur":90.457,"pid":0,"tid":1,"args":{"req":1}},
{"ph":"i","s":"t","name":"complete","cat":"request","ts":19726.782,"pid":0,"tid":900,"args":{"req":1}},
{"ph":"i","s":"t","name":"mode:idle","cat":"power","ts":19726.782,"pid":0,"tid":901,"args":{}},
{"ph":"i","s":"t","name":"actuator_idle","cat":"sched","ts":19726.782,"pid":0,"tid":0,"args":{}},
{"ph":"i","s":"t","name":"actuator_idle","cat":"sched","ts":19726.782,"pid":0,"tid":1,"args":{}}
],"displayTimeUnit":"ms"}
"#;

#[test]
fn golden_chrome_trace_of_tiny_scenario() {
    let rec = tiny_scenario();
    let json = chrome_trace_json(&rec.sorted_samples());
    assert_eq!(
        json, TINY_GOLDEN,
        "Chrome trace JSON changed; actual output:\n{json}"
    );
}

#[test]
fn schema_valid_on_parallel_drive_run() {
    let t = bench_trace(2_000, 17);
    let mut rec = RingRecorder::new();
    run_traced(&t, 4, &mut rec);
    let samples = rec.sorted_samples();
    assert_eq!(rec.dropped(), 0, "ring overflowed; grow the capacity");
    schema::validate(&samples, 4).expect("well-formed event stream");
}

#[test]
fn schema_valid_on_overlapped_and_array_runs() {
    let t = bench_trace(1_500, 23);
    let params = presets::barracuda_es_750gb();

    let mut rec = RingRecorder::new();
    let drive = OverlappedDrive::new(&params, OverlapConfig::new(4, OverlapMode::MultiChannel));
    experiments::simulate(&t, drive, &mut rec, &mut NullObserver).expect("overlap replay succeeds");
    schema::validate(&rec.sorted_samples(), 4).expect("overlap stream well-formed");

    let mut rec = RingRecorder::new();
    let array = array::ArrayController::new(
        &params,
        DriveConfig::sa(2),
        4,
        array::Layout::raid5_default(),
    );
    experiments::simulate(&t, array, &mut rec, &mut NullObserver).expect("array replay succeeds");
    let samples = rec.sorted_samples();
    schema::validate(&samples, 2).expect("array stream well-formed");
    // Member events land in scopes 1..=4, logical events in scope 0.
    let scopes: std::collections::BTreeSet<u32> = samples.iter().map(|s| s.scope).collect();
    assert!(scopes.contains(&0), "logical scope missing");
    assert!(
        scopes.iter().any(|&s| s >= 1),
        "no member-disk events recorded"
    );
    assert!(scopes.iter().all(|&s| s <= 4), "scope out of range");
}

#[test]
fn exports_are_byte_identical_across_runs() {
    let run = || {
        let t = bench_trace(1_000, 29);
        let mut rec = RingRecorder::new();
        run_traced(&t, 2, &mut rec);
        let samples = rec.sorted_samples();
        (chrome_trace_json(&samples), timeline_csv(&samples))
    };
    let (json1, csv1) = run();
    let (json2, csv2) = run();
    assert_eq!(json1.as_bytes(), json2.as_bytes(), "trace JSON diverged");
    assert_eq!(csv1.as_bytes(), csv2.as_bytes(), "timeline CSV diverged");
}

#[test]
fn recording_does_not_perturb_the_simulation() {
    // The observer effect would invalidate every traced experiment:
    // metrics with a RingRecorder attached must be bit-identical to the
    // untraced run.
    let t = bench_trace(2_000, 31);
    let params = presets::barracuda_es_750gb();
    let plain = experiments::run_drive(&params, DriveConfig::sa(4), &t).expect("plain replay");
    let mut rec = RingRecorder::new();
    let traced = run_traced(&t, 4, &mut rec);
    assert_eq!(
        format!("{:?}", plain.metrics),
        format!("{:?}", traced.metrics),
        "recording changed the drive metrics"
    );
    assert_eq!(plain.duration, traced.duration);
    assert!(!rec.is_empty(), "traced run recorded nothing");
}

#[test]
fn analysis_reconstructs_request_accounting() {
    let t = bench_trace(2_000, 37);
    let mut rec = RingRecorder::new();
    let r = run_traced(&t, 4, &mut rec);
    let analysis = TraceAnalysis::from_samples(&rec.sorted_samples());
    let scope = analysis.scope(0).expect("scope 0 present");
    assert_eq!(scope.submitted, 2_000);
    assert_eq!(scope.completed, r.metrics.completed);
    assert_eq!(scope.actuators.len(), 4, "one timeline per actuator");
    let span_secs = scope.span.as_secs();
    for (a, tl) in &scope.actuators {
        let u = tl.utilization(scope.span);
        assert!(
            u > 0.0 && u < 1.0,
            "actuator {a} utilization {u} out of range"
        );
        assert!(tl.busy().as_secs() <= span_secs, "actuator {a} busy > span");
    }
    let q = &scope.queue_depth;
    assert!(q.p50 <= q.p90 && q.p90 <= q.p99 && q.p99 <= q.max);
}

/// Replays `t` on a device `make` builds, once with each recorder: the
/// online fold sees events in emission order, the post-hoc one sorted.
fn online_and_post_hoc<D: intradisk::Device>(
    t: &Trace,
    make: impl Fn() -> D,
) -> (telemetry::MetricsSnapshot, TraceAnalysis) {
    let mut metrics = telemetry::MetricsRecorder::new();
    experiments::simulate(t, make(), &mut metrics, &mut NullObserver)
        .expect("metrics replay succeeds");
    let mut rec = RingRecorder::new();
    experiments::simulate(t, make(), &mut rec, &mut NullObserver).expect("traced replay succeeds");
    assert_eq!(rec.dropped(), 0, "ring overflowed; grow the capacity");
    (
        metrics.finish(),
        TraceAnalysis::from_samples(&rec.sorted_samples()),
    )
}

#[test]
fn online_metrics_agree_with_post_hoc_analysis() {
    let t = bench_trace(1_000, 41);
    let params = presets::barracuda_es_750gb();
    let runs = [
        (
            "sa1",
            online_and_post_hoc(&t, || DiskDrive::new(&params, DriveConfig::sa(1))),
        ),
        (
            "sa4",
            online_and_post_hoc(&t, || DiskDrive::new(&params, DriveConfig::sa(4))),
        ),
        (
            "overlap-multichannel",
            online_and_post_hoc(&t, || {
                OverlappedDrive::new(&params, OverlapConfig::new(4, OverlapMode::MultiChannel))
            }),
        ),
        (
            "array-raid5",
            online_and_post_hoc(&t, || {
                let layout = array::Layout::raid5_default();
                array::ArrayController::new(&params, DriveConfig::sa(2), 4, layout)
            }),
        ),
    ];
    for (design, (snap, analysis)) in &runs {
        let label = |k: &telemetry::metrics::MetricKey, name: &str| -> Option<u32> {
            k.labels
                .iter()
                .find(|(l, _)| l == name)
                .and_then(|(_, v)| v.parse().ok())
        };
        let counter = |name: &str, scope: u32| -> Option<u64> {
            snap.counters
                .iter()
                .find(|c| c.key.name == name && label(&c.key, "scope") == Some(scope))
                .map(|c| c.value)
        };
        assert!(!analysis.scopes.is_empty(), "{design}: nothing traced");
        for (&scope, sc) in &analysis.scopes {
            for (name, post_hoc) in [
                ("requests_submitted_total", sc.submitted),
                ("requests_completed_total", sc.completed),
                ("cache_hits_total", sc.cache_hits),
                ("cache_misses_total", sc.cache_misses),
            ] {
                assert_eq!(
                    counter(name, scope),
                    Some(post_hoc),
                    "{design} scope {scope}: {name}"
                );
            }
        }
        let busy: Vec<_> = snap
            .gauges
            .iter()
            .filter(|g| g.key.name == "actuator_busy_ms")
            .collect();
        for g in &busy {
            let (scope, actuator) = (label(&g.key, "scope"), label(&g.key, "actuator"));
            let tl = scope
                .and_then(|s| analysis.scope(s))
                .and_then(|sc| actuator.and_then(|a| sc.actuators.get(&a)))
                .unwrap_or_else(|| panic!("{design}: no timeline for {:?}", g.key));
            let post_hoc = tl.busy().as_millis();
            assert!(
                (g.last - post_hoc).abs() <= 1e-6,
                "{design} {:?}: online {} ms vs post-hoc {post_hoc} ms",
                g.key,
                g.last
            );
        }
        let busy_timelines = analysis
            .scopes
            .values()
            .flat_map(|sc| sc.actuators.values())
            .filter(|tl| !tl.busy().is_zero())
            .count();
        assert_eq!(busy.len(), busy_timelines, "{design}: busy actuator sets");
    }
}
