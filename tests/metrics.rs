//! Metrics-layer integration tests: pinned exporter goldens, report
//! dashboard structure and determinism, the Figure-5 bucket audit, and
//! the streaming-vs-exact percentile agreement oracle.
//!
//! The goldens pin the Prometheus and JSON exports of the same tiny
//! fixed scenario that `tests/telemetry.rs` pins the Chrome trace of.
//! If an intentional format change breaks one, regenerate with:
//!
//! ```text
//! cargo test -p experiments --test metrics golden
//! ```
//!
//! (the failing assertion prints the actual output).

use diskmodel::presets;
use intradisk::{DiskDrive, DriveConfig, IoKind, IoRequest, NullObserver};
use simkit::SimTime;
use telemetry::metrics::{export, jsonv, report, MetricsRecorder};
use workload::{SyntheticSpec, Trace};

/// Two reads on an SA(2) drive — the exact scenario pinned by
/// `tests/telemetry.rs`, here reduced to metrics instead of events.
fn tiny_scenario() -> MetricsRecorder {
    let drive = DiskDrive::new(&presets::barracuda_es_750gb(), DriveConfig::sa(2));
    let mut rec = MetricsRecorder::new();
    let r0 = IoRequest::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
    let t1 = SimTime::ZERO + simkit::SimDuration::from_millis(1.0);
    let r1 = IoRequest::new(1, t1, 900_000_000, 16, IoKind::Read);
    let trace = Trace::new("tiny", vec![r0, r1], drive.capacity_sectors());
    let run =
        experiments::simulate(&trace, drive, &mut rec, &mut NullObserver).expect("replay succeeds");
    assert_eq!(run.queue_peak, 1, "r1 queues behind r0");
    rec
}

fn bench_trace(n: usize, seed: u64) -> Trace {
    let cap = presets::barracuda_es_750gb().capacity_sectors();
    SyntheticSpec::paper(6.0, cap, n).generate(seed)
}

const PROM_GOLDEN: &str = r#"# HELP cache_hits_total Reads served from the on-board cache
# TYPE cache_hits_total counter
cache_hits_total{scope="0"} 0
# HELP cache_misses_total Reads that went to the media
# TYPE cache_misses_total counter
cache_misses_total{scope="0"} 2
# HELP requests_completed_total Requests completed
# TYPE requests_completed_total counter
requests_completed_total{scope="0"} 2
# HELP requests_submitted_total Requests entering the storage system
# TYPE requests_submitted_total counter
requests_submitted_total{scope="0"} 2
# HELP seeks_total Arm assembly movements
# TYPE seeks_total counter
seeks_total{scope="0"} 2
# HELP actuator_busy_ms Cumulative busy time per arm assembly (ms)
# TYPE actuator_busy_ms gauge
actuator_busy_ms{actuator="0",scope="0"} 4.249626999999999
actuator_busy_ms{actuator="1",scope="0"} 15.277155
# HELP power_mode Operating mode index (0 idle, 1 seek, 2 rot_wait, 3 transfer)
# TYPE power_mode gauge
power_mode{scope="0"} 0
# HELP queue_depth Pending requests (time-weighted)
# TYPE queue_depth gauge
queue_depth{scope="0"} 0
# HELP actuator_busy_ms_mean Cumulative busy time per arm assembly (ms) (time-weighted mean)
# TYPE actuator_busy_ms_mean gauge
actuator_busy_ms_mean{actuator="0",scope="0"} 3.490953743450351
actuator_busy_ms_mean{actuator="1",scope="0"} 2.3220212491112844
# HELP power_mode_mean Operating mode index (0 idle, 1 seek, 2 rot_wait, 3 transfer) (time-weighted mean)
# TYPE power_mode_mean gauge
power_mode_mean{scope="0"} 1.377581908696512
# HELP queue_depth_mean Pending requests (time-weighted) (time-weighted mean)
# TYPE queue_depth_mean gauge
queue_depth_mean{scope="0"} 0.16980098426595883
# HELP actuator_busy_ms_max Cumulative busy time per arm assembly (ms) (maximum)
# TYPE actuator_busy_ms_max gauge
actuator_busy_ms_max{actuator="0",scope="0"} 4.249626999999999
actuator_busy_ms_max{actuator="1",scope="0"} 15.277155
# HELP power_mode_max Operating mode index (0 idle, 1 seek, 2 rot_wait, 3 transfer) (maximum)
# TYPE power_mode_max gauge
power_mode_max{scope="0"} 3
# HELP queue_depth_max Pending requests (time-weighted) (maximum)
# TYPE queue_depth_max gauge
queue_depth_max{scope="0"} 1
# HELP response_time_ms Submit-to-complete latency (ms)
# TYPE response_time_ms histogram
response_time_ms_bucket{scope="0",le="5"} 1
response_time_ms_bucket{scope="0",le="10"} 1
response_time_ms_bucket{scope="0",le="20"} 2
response_time_ms_bucket{scope="0",le="40"} 2
response_time_ms_bucket{scope="0",le="60"} 2
response_time_ms_bucket{scope="0",le="90"} 2
response_time_ms_bucket{scope="0",le="120"} 2
response_time_ms_bucket{scope="0",le="150"} 2
response_time_ms_bucket{scope="0",le="200"} 2
response_time_ms_bucket{scope="0",le="+Inf"} 2
response_time_ms_sum{scope="0"} 23.076408999999998
response_time_ms_count{scope="0"} 2
# HELP rot_wait_ms Rotational (and shared-channel) wait (ms)
# TYPE rot_wait_ms summary
rot_wait_ms{scope="0",quantile="0.5"} 3.141656
rot_wait_ms{scope="0",quantile="0.9"} 3.956498
rot_wait_ms{scope="0",quantile="0.99"} 3.956498
rot_wait_ms_sum{scope="0"} 7.098153999999999
rot_wait_ms_count{scope="0"} 2
# HELP seek_time_ms Seek duration (ms)
# TYPE seek_time_ms summary
seek_time_ms{scope="0",quantile="0.5"} 1.073267
seek_time_ms{scope="0",quantile="0.9"} 11.197658908624085
seek_time_ms{scope="0",quantile="0.99"} 11.197658908624085
seek_time_ms_sum{scope="0"} 12.303467
seek_time_ms_count{scope="0"} 2
# HELP transfer_ms Media/cache-bus transfer time (ms)
# TYPE transfer_ms summary
transfer_ms{scope="0",quantile="0.5"} 0.03489236769418352
transfer_ms{scope="0",quantile="0.9"} 0.090457
transfer_ms{scope="0",quantile="0.99"} 0.090457
transfer_ms_sum{scope="0"} 0.125161
transfer_ms_count{scope="0"} 2
"#;

const JSON_GOLDEN: &str = r#"{
  "schema": "intradisk-metrics-v1",
  "end_ns": 19726782,
  "counters": [
    {"name":"cache_hits_total","labels":{"scope":"0"},"value":0},
    {"name":"cache_misses_total","labels":{"scope":"0"},"value":2},
    {"name":"requests_completed_total","labels":{"scope":"0"},"value":2},
    {"name":"requests_submitted_total","labels":{"scope":"0"},"value":2},
    {"name":"seeks_total","labels":{"scope":"0"},"value":2}
  ],
  "gauges": [
    {"name":"actuator_busy_ms","labels":{"actuator":"0","scope":"0"},"last":4.249626999999999,"max":4.249626999999999,"time_weighted_mean":3.490953743450351,"series":[[0,0]]},
    {"name":"actuator_busy_ms","labels":{"actuator":"1","scope":"0"},"last":15.277155,"max":15.277155,"time_weighted_mean":2.3220212491112844,"series":[[0,0]]},
    {"name":"power_mode","labels":{"scope":"0"},"last":0,"max":3,"time_weighted_mean":1.377581908696512,"series":[[0,0]]},
    {"name":"queue_depth","labels":{"scope":"0"},"last":0,"max":1,"time_weighted_mean":0.16980098426595883,"series":[[0,0]]}
  ],
  "histograms": [
    {"name":"response_time_ms","labels":{"scope":"0"},"count":2,"sum":23.076408999999998,"min":4.349627,"max":18.726782,"relative_error":0.01,"p50":4.349627,"p90":18.726782,"p99":18.726782,"buckets":[[4.265343161781191,4.351076559332992,1],[18.600186432989574,18.974050180292664,1]],"fixed":{"edges":[5,10,20,40,60,90,120,150,200],"counts":[1,0,1,0,0,0,0,0,0,0]}},
    {"name":"rot_wait_ms","labels":{"scope":"0"},"count":2,"sum":7.098153999999999,"min":3.141656,"max":3.956498,"relative_error":0.01,"p50":3.141656,"p90":3.956498,"p99":3.956498,"buckets":[[3.1022015919537873,3.1645558439520585,1],[3.9389728480345876,4.018146202280083,1]],"fixed":null},
    {"name":"seek_time_ms","labels":{"scope":"0"},"count":2,"sum":12.303467,"min":1.073267,"max":11.2302,"relative_error":0.01,"p50":1.073267,"p90":11.197658908624085,"p99":11.197658908624085,"buckets":[[1.0591601875756227,1.0804493073458927,1],[11.086790998637708,11.309635497710326,1]],"fixed":null},
    {"name":"transfer_ms","labels":{"scope":"0"},"count":2,"sum":0.125161,"min":0.034704,"max":0.090457,"relative_error":0.01,"p50":0.03489236769418352,"p90":0.090457,"p99":0.090457,"buckets":[[0.03454689870711239,0.03524129137112535,1],[0.08979681847143973,0.09160173452271568,1]],"fixed":null}
  ]
}
"#;

#[test]
fn golden_prometheus_of_tiny_scenario() {
    let mut rec = tiny_scenario();
    let text = export::prometheus_text(&rec.finish());
    assert_eq!(
        text, PROM_GOLDEN,
        "Prometheus export changed; actual output:\n{text}"
    );
}

#[test]
fn golden_json_of_tiny_scenario() {
    let mut rec = tiny_scenario();
    let text = export::json_text(&rec.finish());
    assert_eq!(
        text, JSON_GOLDEN,
        "JSON export changed; actual output:\n{text}"
    );
}

#[test]
fn json_export_roundtrips_through_jsonv() {
    let mut rec = tiny_scenario();
    let text = export::json_text(&rec.finish());
    let doc = jsonv::parse(&text).expect("export parses");
    assert_eq!(
        doc.get("schema").and_then(jsonv::Value::as_str),
        Some(export::JSON_SCHEMA)
    );
    let counters = doc
        .get("counters")
        .and_then(jsonv::Value::as_array)
        .expect("counters array");
    assert!(!counters.is_empty());
    let completed = counters
        .iter()
        .find(|c| c.get("name").and_then(jsonv::Value::as_str) == Some("requests_completed_total"))
        .expect("completed counter present");
    assert_eq!(
        completed.get("value").and_then(jsonv::Value::as_u64),
        Some(2)
    );
}

#[test]
fn report_figure5_buckets_match_fixed_histogram_exactly() {
    let params = presets::barracuda_es_750gb();
    let trace = bench_trace(2_000, 41);
    let mut rec = MetricsRecorder::new();
    let drive = DiskDrive::new(&params, DriveConfig::sa(4));
    experiments::simulate(&trace, drive, &mut rec, &mut NullObserver).expect("replay succeeds");
    let snap = rec.finish();

    // The ground truth: the fixed paper-edge histogram in the snapshot.
    let rt = snap
        .histograms
        .iter()
        .find(|h| h.key.name == "response_time_ms")
        .expect("response histogram present");
    let fixed = rt.fixed.as_ref().expect("paper edges attached");
    assert_eq!(fixed.total(), 2_000, "every response observed");

    // The claim: the report's Figure-5 table shows those counts, every
    // bucket, in order, exactly.
    let json = jsonv::parse(&export::json_text(&snap)).expect("export parses");
    let html = report::render_html(&[report::ReportInput {
        name: "hcsd-sa4".to_string(),
        json,
    }]);
    let row: String = fixed
        .counts()
        .iter()
        .map(|c| format!("<td>{c}</td>"))
        .collect();
    assert!(
        html.contains(&format!("<tr><th>count</th>{row}</tr>")),
        "Figure-5 table does not reproduce the histogram counts: want row {row}"
    );
}

#[test]
fn report_is_selfcontained_and_deterministic() {
    let render = || {
        let mut rec = tiny_scenario();
        let json = jsonv::parse(&export::json_text(&rec.finish())).expect("export parses");
        report::render_html(&[report::ReportInput {
            name: "tiny".to_string(),
            json,
        }])
    };
    let a = render();
    let b = render();
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "report HTML diverged across runs"
    );
    assert!(a.starts_with("<!DOCTYPE html>"));
    for banned in ["<script", "http://", "https://", "src=", "@import"] {
        assert!(
            !a.contains(banned),
            "report must be self-contained: found {banned}"
        );
    }
}

#[test]
fn exports_are_byte_identical_across_runs() {
    let run = |seed: u64| {
        let trace = bench_trace(1_000, seed);
        let params = presets::barracuda_es_750gb();
        let mut rec = MetricsRecorder::new();
        let drive = DiskDrive::new(&params, DriveConfig::sa(2));
        experiments::simulate(&trace, drive, &mut rec, &mut NullObserver).expect("replay succeeds");
        let snap = rec.finish();
        (export::prometheus_text(&snap), export::json_text(&snap))
    };
    let (prom1, json1) = run(29);
    let (prom2, json2) = run(29);
    assert_eq!(
        prom1.as_bytes(),
        prom2.as_bytes(),
        "Prometheus export diverged"
    );
    assert_eq!(json1.as_bytes(), json2.as_bytes(), "JSON export diverged");
}

#[test]
fn stream_p90_agrees_with_exact_summary_p90() {
    let params = presets::barracuda_es_750gb();
    let trace = bench_trace(3_000, 43);
    for actuators in [1u32, 2, 4] {
        let r = experiments::run_drive(&params, DriveConfig::sa(actuators), &trace)
            .expect("replay succeeds");
        let exact = r.p90_ms();
        let stream = r.p90_stream_ms();
        let bound = r.metrics.response_time_ms.relative_error();
        assert!(
            (stream - exact).abs() <= bound * exact + 1e-9,
            "SA({actuators}): streaming p90 {stream} vs exact {exact} exceeds bound {bound}"
        );
    }
}
