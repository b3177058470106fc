//! Cross-crate integration tests: whole simulations driven end-to-end
//! through the public APIs of `workload` → `intradisk`/`array` →
//! `experiments`.

use array::Layout;
use diskmodel::{presets, DiskParams};
use experiments::configs::{hcsd_params, md_config, trace_for, Scale};
use experiments::{ArrayRunResult, DriveRunResult};
use intradisk::failure::FailureSchedule;
use intradisk::{DiskDrive, DriveConfig, IoKind, IoRequest, NullObserver, QueuePolicy};
use simkit::SimTime;
use telemetry::NullRecorder;
use workload::{SyntheticSpec, Trace, WorkloadKind};

fn synthetic(mean_ms: f64, n: usize, seed: u64) -> Trace {
    SyntheticSpec::paper(mean_ms, hcsd_params().capacity_sectors(), n).generate(seed)
}

// Every trace here replays cleanly by construction, so the tests keep
// the infallible shape and unwrap the runner's `Result` in one place.
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

#[test]
fn every_request_completes_exactly_once_on_drive() {
    let trace = synthetic(3.0, 5_000, 1);
    let r = run_drive(&hcsd_params(), DriveConfig::sa(2), &trace);
    assert_eq!(r.metrics.completed, 5_000);
    assert_eq!(
        r.metrics.cache_hits + r.metrics.media_accesses,
        r.metrics.completed
    );
}

#[test]
fn every_request_completes_exactly_once_on_array() {
    let trace = synthetic(2.0, 5_000, 2);
    for layout in [
        Layout::striped_default(),
        Layout::Concatenated,
        Layout::raid5_default(),
    ] {
        let r = run_array(
            &hcsd_params(),
            DriveConfig::conventional(),
            4,
            layout,
            &trace,
        );
        assert_eq!(r.completed, 5_000, "{layout:?}");
    }
}

#[test]
fn runs_are_deterministic() {
    let trace = synthetic(4.0, 3_000, 3);
    let a = run_drive(&hcsd_params(), DriveConfig::sa(3), &trace);
    let b = run_drive(&hcsd_params(), DriveConfig::sa(3), &trace);
    assert_eq!(
        a.metrics.response_time_ms.mean(),
        b.metrics.response_time_ms.mean()
    );
    assert_eq!(a.power.total_w(), b.power.total_w());
    assert_eq!(a.duration, b.duration);
}

#[test]
fn mode_time_equals_wall_clock_on_drive() {
    let trace = synthetic(5.0, 2_000, 4);
    let r = run_drive(&hcsd_params(), DriveConfig::sa(2), &trace);
    let accounted = r.metrics.modes.total_time();
    assert_eq!(
        accounted, r.duration,
        "every nanosecond must be attributed to a mode"
    );
}

#[test]
fn power_between_idle_floor_and_seek_ceiling() {
    let trace = synthetic(2.0, 3_000, 5);
    let params = hcsd_params();
    let r = run_drive(&params, DriveConfig::sa(4), &trace);
    let pm = diskmodel::PowerModel::new(&params);
    assert!(r.power.total_w() >= pm.idle_w() - 1e-9);
    assert!(r.power.total_w() <= pm.seek_w(1) + 1e-9);
}

#[test]
fn response_times_never_below_service_floor() {
    // No completed request can beat the controller overhead.
    let trace = synthetic(6.0, 2_000, 6);
    let r = run_drive(&hcsd_params(), DriveConfig::sa(1), &trace);
    assert!(r.metrics.response_time_ms.min() >= 0.1);
}

#[test]
fn policies_all_drain_the_same_requests() {
    let trace = synthetic(3.0, 2_000, 7);
    for policy in [QueuePolicy::Fcfs, QueuePolicy::Sstf, QueuePolicy::Sptf] {
        let r = run_drive(
            &hcsd_params(),
            DriveConfig::sa(2).with_policy(policy),
            &trace,
        );
        assert_eq!(r.metrics.completed, 2_000, "{policy:?}");
    }
}

#[test]
fn sptf_no_worse_than_fcfs_under_load() {
    let trace = synthetic(2.0, 4_000, 8);
    let fcfs = run_drive(
        &hcsd_params(),
        DriveConfig::sa(1).with_policy(QueuePolicy::Fcfs),
        &trace,
    );
    let sptf = run_drive(&hcsd_params(), DriveConfig::sa(1), &trace);
    assert!(sptf.metrics.response_time_ms.mean() <= fcfs.metrics.response_time_ms.mean());
}

#[test]
fn failure_mid_run_lands_between_healthy_configs() {
    let trace = synthetic(4.0, 4_000, 9);
    let params = hcsd_params();
    let sa4 = run_drive(&params, DriveConfig::sa(4), &trace);
    let sa1 = run_drive(&params, DriveConfig::sa(1), &trace);
    let mut sched = FailureSchedule::new();
    // Lose three arms halfway through.
    let half = SimTime::from_millis(trace.stats().duration_ms / 2.0);
    sched.push(half, 1);
    sched.push(half, 2);
    sched.push(half, 3);
    let drive = DiskDrive::new(&params, DriveConfig::sa(4)).with_failures(sched);
    let degraded = experiments::simulate(&trace, drive, &mut NullRecorder, &mut NullObserver)
        .expect("replay succeeds");
    assert_eq!(degraded.metrics.completed, 4_000);
    let m = degraded.metrics.response_time_ms.mean();
    assert!(
        m >= sa4.metrics.response_time_ms.mean() * 0.99,
        "degraded {m} better than healthy SA(4)?"
    );
    assert!(
        m <= sa1.metrics.response_time_ms.mean() * 1.01,
        "degraded {m} worse than never having the arms at all?"
    );
}

#[test]
fn bigger_cache_negligible_for_random_server_load() {
    // §7.1: "using the larger disk cache has negligible impact".
    let trace = trace_for(WorkloadKind::TpcC, Scale::quick().with_requests(6_000));
    let base = run_drive(&hcsd_params(), DriveConfig::sa(1), &trace);
    let big = run_drive(
        &hcsd_params().with_cache_mib(64),
        DriveConfig::sa(1),
        &trace,
    );
    let a = base.metrics.response_time_ms.mean();
    let b = big.metrics.response_time_ms.mean();
    assert!(
        (a - b).abs() / a < 0.25,
        "64 MB cache changed TPC-C response {a} -> {b}"
    );
}

#[test]
fn md_configuration_reproduces_table2_shape() {
    for kind in WorkloadKind::ALL {
        let cfg = md_config(kind);
        assert_eq!(cfg.disks, kind.md_disks());
        let trace = trace_for(kind, Scale::quick().with_requests(2_000));
        let r = run_array(
            &cfg.drive,
            DriveConfig::conventional(),
            cfg.disks,
            cfg.layout,
            &trace,
        );
        assert_eq!(r.completed, 2_000, "{}", kind.name());
    }
}

#[test]
fn raid5_parallel_members_work_together() {
    // RAID-5 of intra-disk parallel drives: both substrates compose.
    let trace = synthetic(4.0, 3_000, 10);
    let r5_conv = run_array(
        &hcsd_params(),
        DriveConfig::conventional(),
        4,
        Layout::raid5_default(),
        &trace,
    );
    let r5_sa = run_array(
        &hcsd_params(),
        DriveConfig::sa(4),
        4,
        Layout::raid5_default(),
        &trace,
    );
    assert_eq!(r5_conv.completed, 3_000);
    assert_eq!(r5_sa.completed, 3_000);
    assert!(
        r5_sa.response_time_ms.mean() < r5_conv.response_time_ms.mean(),
        "parallel members should speed up RAID-5 too"
    );
}

#[test]
fn trace_replay_is_independent_of_request_order_metadata() {
    // Submitting the same requests with shuffled ids gives identical
    // aggregate service (ids are labels, not semantics).
    let params = presets::barracuda_es_750gb();
    let reqs: Vec<IoRequest> = (0..500u64)
        .map(|i| {
            IoRequest::new(
                i,
                SimTime::from_millis(i as f64 * 5.0),
                (i * 104_729) % params.capacity_sectors(),
                8,
                if i % 3 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
            )
        })
        .collect();
    let relabeled: Vec<IoRequest> = reqs
        .iter()
        .map(|r| IoRequest::new(r.id + 1_000_000, r.arrival, r.lba, r.sectors, r.kind))
        .collect();
    let t1 = Trace::new("a", reqs, params.capacity_sectors());
    let t2 = Trace::new("b", relabeled, params.capacity_sectors());
    let a = run_drive(&params, DriveConfig::sa(2), &t1);
    let b = run_drive(&params, DriveConfig::sa(2), &t2);
    assert_eq!(
        a.metrics.response_time_ms.mean(),
        b.metrics.response_time_ms.mean()
    );
}
