//! Differential and metamorphic oracles.
//!
//! Rather than asserting absolute numbers, each test here pits two
//! configurations of the simulator against each other where the model
//! *guarantees* a relationship:
//!
//! * FCFS / SSTF / SPTF reorder service but must agree on the
//!   completion **set** and conserve every request (no drops, no
//!   duplicates, no time travel),
//! * `DriveConfig::sa(1)` must reduce exactly to the conventional
//!   single-actuator drive,
//! * arm-assembly placement is irrelevant when there is only one arm,
//! * scaling RPM moves latency (and spindle power) monotonically.

use diskmodel::{presets, DiskParams, PowerModel, RotationModel};
use experiments::{ArrayRunResult, DriveRunResult};
use intradisk::{ArmPlacement, DiskDrive, DriveConfig, NullObserver, PowerBreakdown, QueuePolicy};
use telemetry::NullRecorder;
use workload::{SyntheticSpec, Trace};

fn trace(mean_ms: f64, n: usize, seed: u64) -> Trace {
    let cap = presets::barracuda_es_750gb().capacity_sectors();
    SyntheticSpec::paper(mean_ms, cap, n).generate(seed)
}

// Oracle traces replay cleanly by construction; unwrap the runner's
// `Result` in one place so the assertions below stay focused.
fn run_drive(params: &DiskParams, config: DriveConfig, trace: &Trace) -> DriveRunResult {
    experiments::run_drive(params, config, trace).expect("replay succeeds")
}

fn run_array(
    params: &DiskParams,
    member: DriveConfig,
    disks: usize,
    layout: array::Layout,
    trace: &Trace,
) -> ArrayRunResult {
    experiments::run_array(params, member, disks, layout, trace).expect("replay succeeds")
}

/// Replays `trace` and returns the sorted completed-request ids,
/// asserting causality (no completion before its arrival).
fn completion_ids(config: DriveConfig, trace: &Trace) -> Vec<u64> {
    let params = presets::barracuda_es_750gb();
    let mut rec = telemetry::RingRecorder::new();
    let drive = DiskDrive::new(&params, config);
    let r =
        experiments::simulate(trace, drive, &mut rec, &mut NullObserver).expect("replay succeeds");
    assert!(
        r.metrics.response_time_ms.min() >= 0.0,
        "a request completed before its arrival"
    );
    assert_eq!(rec.dropped(), 0, "ring overflowed");
    let mut ids: Vec<u64> = rec
        .samples()
        .filter_map(|s| match s.event {
            telemetry::TraceEvent::Complete { req } => Some(req),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn oracle_policies_agree_on_completion_set_and_conserve_requests() {
    // The queue policy reorders service but must neither drop nor
    // duplicate: all three policies complete exactly the submitted set.
    let t = trace(5.0, 3_000, 7);
    let expect: Vec<u64> = t.requests().iter().map(|r| r.id).collect();
    for actuators in [1u32, 4] {
        for policy in [QueuePolicy::Fcfs, QueuePolicy::Sstf, QueuePolicy::Sptf] {
            let ids = completion_ids(DriveConfig::sa(actuators).with_policy(policy), &t);
            assert_eq!(
                ids, expect,
                "{policy:?} on SA({actuators}) lost or duplicated requests"
            );
        }
    }
}

#[test]
fn oracle_position_aware_policies_do_not_lose_to_fcfs_under_load() {
    // Metamorphic: at queue-building load, shortest-positioning-time
    // scheduling exists to beat blind FCFS — it must at least not lose.
    let t = trace(3.0, 4_000, 11);
    let params = presets::barracuda_es_750gb();
    let mean = |policy| {
        run_drive(&params, DriveConfig::sa(1).with_policy(policy), &t)
            .metrics
            .response_time_ms
            .mean()
    };
    let fcfs = mean(QueuePolicy::Fcfs);
    let sptf = mean(QueuePolicy::Sptf);
    assert!(
        sptf <= fcfs * 1.02,
        "SPTF mean {sptf:.2} ms worse than FCFS {fcfs:.2} ms"
    );
}

// ---------------------------------------------------- reduction to baseline

#[test]
fn oracle_sa1_reduces_exactly_to_conventional_drive() {
    // `conventional()` and `sa(1)` must be the *same* machine: identical
    // completion counts, response-time statistics, and power draw.
    let t = trace(6.0, 3_000, 3);
    let params = presets::barracuda_es_750gb();
    let conv = run_drive(&params, DriveConfig::conventional(), &t);
    let sa1 = run_drive(&params, DriveConfig::sa(1), &t);
    assert_eq!(conv.metrics.completed, sa1.metrics.completed);
    assert_eq!(
        conv.metrics.response_time_ms.mean(),
        sa1.metrics.response_time_ms.mean(),
        "SA(1) mean response diverges from conventional"
    );
    assert_eq!(
        conv.metrics.response_time_ms.max(),
        sa1.metrics.response_time_ms.max()
    );
    assert_eq!(conv.power.total_w(), sa1.power.total_w());
    assert_eq!(conv.duration, sa1.duration);
}

#[test]
fn oracle_single_arm_placement_is_irrelevant() {
    // Azimuth placement only matters with multiple assemblies; with one
    // arm both strategies put it in the same place.
    let t = trace(6.0, 3_000, 5);
    let params = presets::barracuda_es_750gb();
    let spaced = run_drive(
        &params,
        DriveConfig::sa(1).with_placement(ArmPlacement::EquallySpaced),
        &t,
    );
    let colocated = run_drive(
        &params,
        DriveConfig::sa(1).with_placement(ArmPlacement::Colocated),
        &t,
    );
    assert_eq!(
        spaced.metrics.response_time_ms.mean(),
        colocated.metrics.response_time_ms.mean(),
        "single-arm placement changed the simulation"
    );
    assert_eq!(spaced.metrics.completed, colocated.metrics.completed);
}

// ------------------------------------------------------------ RPM scaling

#[test]
fn oracle_rpm_scaling_moves_latency_and_power_monotonically() {
    // Figures 6/7 ride on this: spinning faster can only shorten
    // rotational waits and transfers (lower response time) while
    // drawing more spindle power.
    let t = trace(20.0, 2_000, 9);
    let rpms = [4_200u32, 5_200, 6_200, 7_200];
    let mut means = Vec::new();
    let mut spindle = Vec::new();
    for rpm in rpms {
        let params = presets::barracuda_es_at_rpm(rpm);
        let r = run_drive(&params, DriveConfig::conventional(), &t);
        assert_eq!(r.metrics.completed, 2_000);
        means.push(r.metrics.response_time_ms.mean());
        spindle.push(PowerModel::new(&params).spindle_w());
    }
    testkit::golden::assert_strictly_increasing("spindle power vs RPM", &spindle);
    for (pair, rpm) in means.windows(2).zip(rpms.windows(2)) {
        assert!(
            pair[1] <= pair[0],
            "raising RPM {} -> {} raised mean response {:.3} -> {:.3}",
            rpm[0],
            rpm[1],
            pair[0],
            pair[1]
        );
    }
}

// --------------------------------------------------- determinism oracle

/// Runs one full experiment (a drive replay and a 4-disk array replay
/// of the same seeded trace) and renders every metric to text. `Debug`
/// on `f64` prints the shortest round-trip representation, so two
/// byte-identical renderings imply bit-identical results.
fn full_experiment_fingerprint(seed: u64) -> String {
    use std::fmt::Write;
    let params = presets::barracuda_es_750gb();
    let t = trace(5.0, 2_000, seed);
    let d = run_drive(&params, DriveConfig::sa(2), &t);
    let a = run_array(
        &params,
        DriveConfig::conventional(),
        4,
        array::Layout::striped_default(),
        &t,
    );
    let mut out = String::new();
    writeln!(out, "drive metrics {:?}", d.metrics).expect("write to string");
    writeln!(out, "drive power {:?}", d.power).expect("write to string");
    writeln!(out, "drive duration {:?}", d.duration).expect("write to string");
    writeln!(out, "array response {:?}", a.response_time_ms).expect("write to string");
    writeln!(out, "array hist {:?}", a.response_hist).expect("write to string");
    writeln!(out, "array power {:?}", a.power).expect("write to string");
    writeln!(
        out,
        "array duration {:?} completed {}",
        a.duration, a.completed
    )
    .expect("write to string");
    out
}

#[test]
fn oracle_identical_seeds_produce_byte_identical_metrics() {
    // The determinism contract (DESIGN.md): re-running the same seeded
    // experiment in the same binary must reproduce every metric
    // bit-for-bit — no HashMap iteration order, wall-clock reads, or
    // ambient RNG anywhere in the pipeline.
    let first = full_experiment_fingerprint(21);
    let second = full_experiment_fingerprint(21);
    assert_eq!(
        first.as_bytes(),
        second.as_bytes(),
        "identically-seeded runs diverged:\n--- first ---\n{first}\n--- second ---\n{second}"
    );
    // Sanity: the fingerprint actually depends on the seed.
    let other = full_experiment_fingerprint(22);
    assert_ne!(first, other, "fingerprint is insensitive to the seed");
}

// --------------------------------------------- telemetry cross-check

#[test]
fn oracle_telemetry_agrees_with_power_accounting() {
    // Satellite oracle: the event stream is a *second* record of the
    // same run. Time-in-mode reconstructed from telemetry must match
    // the drive's own mode accumulator mode-for-mode, and the energy
    // implied by (time-in-mode x mode power) must match the power
    // model's (average power x span).
    use intradisk::DriveMode;
    use telemetry::{PowerMode, RingRecorder, TraceAnalysis};

    let params = presets::barracuda_es_750gb();
    let t = trace(6.0, 2_000, 13);
    let powers = experiments::tracing::mode_powers(&params);
    for actuators in [1u32, 4] {
        let mut rec = RingRecorder::new();
        let drive = DiskDrive::new(&params, DriveConfig::sa(actuators));
        let r =
            experiments::simulate(&t, drive, &mut rec, &mut NullObserver).expect("replay succeeds");
        assert_eq!(rec.dropped(), 0, "ring overflowed");
        let analysis = TraceAnalysis::from_samples(&rec.sorted_samples());
        let scope = analysis.scope(0).expect("scope 0 present");
        for (mode, drive_mode) in [
            (PowerMode::Idle, DriveMode::Idle),
            (PowerMode::Seek, DriveMode::Seek),
            (PowerMode::RotationalWait, DriveMode::RotationalWait),
            (PowerMode::Transfer, DriveMode::Transfer),
        ] {
            testkit::golden::assert_abs(
                &format!("SA({actuators}) time in {}", mode.name()),
                scope.time_in(mode).as_millis(),
                r.metrics.modes.time_in(drive_mode.key()).as_millis(),
                1e-6,
            );
        }
        let telemetry_energy = scope.energy_joules(&powers);
        let model_energy = r.power.total_w() * r.duration.as_secs();
        testkit::golden::assert_rel(
            &format!("SA({actuators}) energy"),
            telemetry_energy,
            model_energy,
            1e-9,
        );
        testkit::golden::assert_rel(
            &format!("SA({actuators}) average power"),
            scope.average_power_w(&powers),
            r.power.total_w(),
            1e-9,
        );
    }
}

// ------------------------------- parallel-execution determinism oracle

/// Renders every study's full report at a reduced scale on `exec`.
/// The rendered text is the experiment's observable output, so two
/// byte-identical renderings mean the executor's worker count is
/// invisible to the science.
fn full_sweep_rendering(exec: &experiments::Executor) -> String {
    use experiments::{
        BottleneckStudy, DesignStudy, LimitStudy, RaidStudy, RpmStudy, SaStudy, Scale, Study,
        ValidationStudy,
    };
    let scale = Scale::quick().with_requests(2_000);
    let mut out = String::new();
    let limit = LimitStudy::all()
        .run(scale, exec)
        .expect("limit study replays");
    out.push_str(&limit.render_figure2());
    out.push_str(&limit.render_figure3());
    let bott = BottleneckStudy::all()
        .run(scale, exec)
        .expect("bottleneck study replays");
    out.push_str(&bott.render());
    let sa = SaStudy::all().run(scale, exec).expect("SA study replays");
    out.push_str(&sa.render_cdfs());
    out.push_str(&sa.render_pdfs());
    out.push_str(&sa.render_power());
    let rpm = RpmStudy::all().run(scale, exec).expect("RPM study replays");
    out.push_str(&rpm.render_figure6());
    out.push_str(&rpm.render_figure7());
    let raid = RaidStudy::all()
        .run(scale, exec)
        .expect("RAID study replays");
    out.push_str(&raid.render_performance());
    out.push_str(&raid.render_power());
    let validation = ValidationStudy::all()
        .run(scale, exec)
        .expect("validation replays");
    out.push_str(&validation.render());
    for study in [DesignStudy::drpm(), DesignStudy::dash()] {
        let report = study.run(scale, exec).expect("design comparison replays");
        out.push_str(&report.render());
    }
    out
}

#[test]
fn oracle_parallel_sweep_is_byte_identical_to_serial() {
    // The Study/Executor contract: points are pure functions of
    // (point, scale), outputs are reduced in plan order, so a 4-worker
    // sweep must render the exact bytes a serial sweep renders.
    let serial = full_sweep_rendering(&experiments::Executor::serial());
    let parallel = full_sweep_rendering(&experiments::Executor::new(4));
    assert_eq!(
        serial.as_bytes(),
        parallel.as_bytes(),
        "jobs=4 diverged from jobs=1"
    );
}

#[test]
fn oracle_rotation_model_scales_with_rpm_and_track_density() {
    // Model-level metamorphic checks: the revolution period shrinks
    // inversely with RPM, and transferring a fixed number of sectors
    // gets faster as tracks hold more of them (zone scaling).
    let mut periods = Vec::new();
    for rpm in [7_200u32, 6_200, 5_200, 4_200] {
        periods.push(
            RotationModel::new(&presets::barracuda_es_at_rpm(rpm))
                .period()
                .as_millis(),
        );
    }
    testkit::golden::assert_strictly_increasing("rotation period vs falling RPM", &periods);
    let rot = RotationModel::new(&presets::barracuda_es_750gb());
    let mut transfer = Vec::new();
    for sectors_per_track in [500u32, 1_000, 2_000] {
        transfer.push(rot.transfer_time(64, sectors_per_track).as_millis());
    }
    testkit::golden::assert_monotone_nonincreasing(
        "transfer time vs track density",
        &transfer,
        0.0,
    );
    assert!(
        transfer[2] < transfer[0],
        "denser tracks must transfer faster"
    );
}

// ------------------------------------------- event-kernel equivalence

/// Replays `trace` against a 4-disk RAID-5 array whose controller
/// keeps its events in calendar `events`, and returns the complete pop
/// sequence plus the rendered metrics.
///
/// Every calendar pop completes one member disk's sub-request, which
/// the member traces as a `Complete` event in scope `1 + disk` at the
/// pop's time — so the member completions, in emission order, are the
/// pop sequence. The calendar is generic so the timing wheel and the
/// retired binary heap can replay the *same* science workload and be
/// compared pop-for-pop — the library-level face of the kernel-swap
/// contract (the CLI-level face is the `golden_kernel_swap_*` tests
/// below).
fn array_replay_pops<Q: simkit::Calendar<usize>>(events: Q, trace: &Trace) -> String {
    use std::fmt::Write;
    let params = presets::barracuda_es_750gb();
    let controller = array::ArrayController::with_calendar(
        &params,
        DriveConfig::sa(2),
        4,
        array::Layout::raid5_default(),
        events,
    );
    let mut rec = telemetry::RingRecorder::new();
    let r = experiments::simulate(trace, controller, &mut rec, &mut NullObserver)
        .expect("replay succeeds");
    assert_eq!(rec.dropped(), 0, "ring overflowed");
    let mut out = String::new();
    for s in rec.samples() {
        if let (1.., telemetry::TraceEvent::Complete { .. }) = (s.scope, s.event) {
            writeln!(out, "pop {:?} disk {}", s.time, s.scope - 1).expect("write to string");
        }
    }
    writeln!(
        out,
        "metrics {:?} completed {} stats {:?}",
        r.response_time_ms, r.completed, r.kernel
    )
    .expect("write to string");
    out
}

#[test]
fn oracle_wheel_replays_array_pop_for_pop_identically_to_heap() {
    // The kernel-swap contract: swapping the calendar implementation is
    // invisible to the science. Every pop (time *and* payload, i.e. the
    // FIFO tie-break among same-time disk completions) and every final
    // metric must match the retired heap exactly on a real RAID-5
    // replay that exercises same-tick bursts (parity updates complete
    // together) and long idle gaps.
    let t = trace(4.0, 3_000, 17);
    let heap = array_replay_pops(simkit::HeapEventQueue::new(), &t);
    let wheel = array_replay_pops(simkit::WheelEventQueue::new(), &t);
    assert_eq!(
        heap.as_bytes(),
        wheel.as_bytes(),
        "wheel replay diverged from heap replay"
    );
    assert!(
        heap.lines().count() > 3_000,
        "replay actually popped events"
    );
}

// ------------------------------------------ streaming-ingestion oracles

/// Debug-renders one drive replay and one RAID-5 array replay —
/// shortest-round-trip `f64` formatting, so byte-equal renderings mean
/// bit-identical results.
fn ingestion_fingerprint(d: DriveRunResult, a: ArrayRunResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "drive {:?} {:?} {:?}", d.metrics, d.power, d.duration).expect("write to string");
    writeln!(
        out,
        "array {:?} {:?} {:?} {:?} {}",
        a.response_time_ms, a.response_hist, a.power, a.duration, a.completed
    )
    .expect("write to string");
    out
}

#[test]
fn oracle_lazy_source_replays_byte_identical_to_materialized_trace() {
    // The ingestion contract: `run_drive`/`run_array` accept any
    // `IntoRequestSource`, and a lazy generator-backed source must be
    // observationally indistinguishable from the materialized `Trace`
    // it would collect into — every metric bit-for-bit.
    let params = presets::barracuda_es_750gb();
    let spec = SyntheticSpec::paper(5.0, params.capacity_sectors(), 3_000);
    let t = spec.generate(23);
    let layout = array::Layout::raid5_default;
    let from_trace = ingestion_fingerprint(
        run_drive(&params, DriveConfig::sa(4), &t),
        run_array(&params, DriveConfig::sa(2), 4, layout(), &t),
    );
    let from_source = ingestion_fingerprint(
        experiments::run_drive(&params, DriveConfig::sa(4), spec.source(23))
            .expect("replay succeeds"),
        experiments::run_array(&params, DriveConfig::sa(2), 4, layout(), spec.source(23))
            .expect("replay succeeds"),
    );
    assert_eq!(
        from_trace.as_bytes(),
        from_source.as_bytes(),
        "lazy source diverged from materialized trace:\n--- trace ---\n{from_trace}\n--- source ---\n{from_source}"
    );
}

#[test]
fn oracle_spc_streaming_replay_matches_materialized_replay() {
    // The SPC reader's two ingestion paths — `read_trace` (materialize,
    // then replay) and `SpcSource::from_path` (stream line-by-line) —
    // must drive the simulator to bit-identical metrics on a
    // time-ordered trace with comments, blank lines, and multiple ASUs.
    use std::fmt::Write as _;
    use std::io::Write as _;
    use workload::RequestSource as _;

    let mut spc = String::from("# synthetic SPC fixture\n\n");
    for i in 0..600u64 {
        writeln!(
            spc,
            "{},{},{},{},{:.4}",
            i % 3,
            (i * 37) % 5_000,
            512 * (1 + i % 8),
            if i % 5 == 0 { "w" } else { "r" },
            i as f64 * 0.002
        )
        .expect("write to string");
    }
    let path = std::env::temp_dir().join(format!("spc-oracle-{}.trace", std::process::id()));
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(spc.as_bytes()))
        .expect("write fixture");

    let params = presets::barracuda_es_750gb();
    let file = std::fs::File::open(&path).expect("open fixture");
    let trace = workload::spc::read_trace(std::io::BufReader::new(file), "spc", 1, None)
        .expect("fixture parses");
    let materialized = run_drive(&params, DriveConfig::sa(2), &trace);

    let source = workload::SpcSource::from_path(&path, "spc", 1, None).expect("fixture parses");
    assert_eq!(source.len_hint(), None, "SPC streams without a length hint");
    let streamed =
        experiments::run_drive(&params, DriveConfig::sa(2), source).expect("replay succeeds");
    std::fs::remove_file(&path).expect("fixture cleanup");

    assert_eq!(streamed.metrics.completed, 600);
    let a = format!(
        "{:?} {:?} {:?}",
        materialized.metrics, materialized.power, materialized.duration
    );
    let b = format!(
        "{:?} {:?} {:?}",
        streamed.metrics, streamed.power, streamed.duration
    );
    assert_eq!(
        a, b,
        "streamed SPC replay diverged from materialized replay"
    );
}

#[test]
fn oracle_streaming_stats_mode_preserves_the_simulation() {
    // `StatsMode` only changes how latencies are *recorded*: the
    // simulation itself — completion count, duration, power, histograms
    // and streamed percentiles — must be identical, and the streamed
    // p90 must sit within the histogram's guaranteed relative error of
    // the exact p90.
    let params = presets::barracuda_es_750gb();
    let t = trace(5.0, 4_000, 29);
    let exact = run_drive(&params, DriveConfig::sa(2), &t);
    let stream = run_drive(
        &params,
        DriveConfig::sa(2).with_stats_mode(simkit::StatsMode::Streaming),
        &t,
    );
    assert!(exact.metrics.response_time_ms.is_exact());
    assert!(!stream.metrics.response_time_ms.is_exact());
    assert_eq!(exact.metrics.completed, stream.metrics.completed);
    assert_eq!(exact.duration, stream.duration);
    assert_eq!(exact.power.total_w(), stream.power.total_w());
    assert_eq!(
        format!("{:?}", exact.metrics.response_hist),
        format!("{:?}", stream.metrics.response_hist)
    );
    assert_eq!(exact.p90_stream_ms(), stream.p90_stream_ms());
    let p90_exact = exact.metrics.response_time_ms.percentile(90.0);
    let p90_stream = stream.metrics.response_time_ms.percentile_stream(90.0);
    let tol = stream.metrics.response_time_ms.relative_error();
    assert!(
        (p90_stream - p90_exact).abs() <= p90_exact * tol,
        "streamed p90 {p90_stream:.4} vs exact {p90_exact:.4} exceeds bound {tol}"
    );
}

/// Minimal SHA-256 (FIPS 180-4), here so the export-hash golden needs
/// no dependency and no external `sha256sum` binary.
mod sha256 {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    pub fn hex(data: &[u8]) -> String {
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
                *slot = slot.wrapping_add(v);
            }
        }
        h.iter().map(|v| format!("{v:08x}")).collect()
    }

    #[test]
    fn matches_known_vectors() {
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}

fn goldens_dir() -> std::path::PathBuf {
    // Root tests are owned by the experiments crate, so the manifest
    // dir is crates/experiments; the pinned goldens live at the root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn repro(args: &[&str]) -> std::process::Output {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
#[ignore = "runs the full repro CLI; exercised by scripts/verify.sh"]
fn golden_kernel_swap_report_is_byte_identical() {
    // `tests/goldens/repro_all_r2000.txt` was pinned on the retired
    // binary-heap kernel; the timing-wheel kernel must reproduce the
    // whole report byte-for-byte.
    let golden = std::fs::read(goldens_dir().join("repro_all_r2000.txt")).expect("golden pinned");
    let out = repro(&["all", "--requests", "2000", "--jobs", "1"]);
    assert!(
        out.stdout == golden,
        "repro all diverged from the pre-kernel-swap golden report \
         (tests/goldens/repro_all_r2000.txt); the event kernel changed \
         observable science"
    );
}

#[test]
#[ignore = "runs the full repro CLI; exercised by scripts/verify.sh"]
fn golden_kernel_swap_exports_are_byte_identical() {
    // The 22 trace/metrics export files pinned (as SHA-256) on the old
    // kernel must hash identically when regenerated on the new one.
    let manifest = std::fs::read_to_string(goldens_dir().join("kernel_swap_exports.sha256"))
        .expect("golden pinned");
    let dir = std::env::temp_dir().join(format!("kernel-swap-exports-{}", std::process::id()));
    let trace_dir = dir.join("trace");
    let metrics_dir = dir.join("metrics");
    std::fs::create_dir_all(&trace_dir).expect("temp trace dir");
    std::fs::create_dir_all(&metrics_dir).expect("temp metrics dir");
    repro(&[
        "validate",
        "--requests",
        "2000",
        "--jobs",
        "1",
        "--trace",
        trace_dir.to_str().expect("utf-8 path"),
    ]);
    repro(&[
        "sa_eval",
        "--requests",
        "2000",
        "--jobs",
        "1",
        "--metrics",
        metrics_dir.to_str().expect("utf-8 path"),
    ]);
    let mut checked = 0;
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let (want, path) = line.split_once("  ").expect("sha256sum manifest line");
        let bytes = std::fs::read(dir.join(path)).expect("export regenerated");
        let got = sha256::hex(&bytes);
        assert_eq!(
            got, want,
            "export {path} diverged from the pre-kernel-swap hash"
        );
        checked += 1;
    }
    assert_eq!(checked, 22, "manifest covers all pinned exports");
    std::fs::remove_dir_all(&dir).expect("temp dir cleanup");
}

// ------------------------------------------------ engine fingerprints

/// Hex bits of an `f64`: equal strings mean bit-identical values.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Replays an in-memory request list through the shared run loop.
fn replay<D: intradisk::Device>(reqs: &[intradisk::IoRequest], device: D) -> D::Report {
    intradisk::simulate(
        reqs.iter().copied(),
        device,
        &mut NullRecorder,
        &mut NullObserver,
    )
    .expect("replay succeeds")
}

/// The bits of a run's mean and p90 response time, and of its energy
/// (when it integrates energy) and average power.
fn stat_bits(rt: &simkit::ResponseStats, energy_j: Option<f64>, power_w: f64) -> String {
    let energy = energy_j.map_or(String::new(), |e| format!(" energy={}", bits(e)));
    let (mean, p90) = (bits(rt.mean()), bits(rt.percentile(90.0)));
    format!("mean={mean} p90={p90}{energy} power={}", bits(power_w))
}

/// One line per engine run: the bits of every reported number.
fn engine_fingerprints() -> String {
    use intradisk::drpm::{DrpmConfig, DrpmDrive};
    use intradisk::{DriveMode, IoKind, IoRequest, OverlapMode};
    let mut out = String::new();
    let params = presets::barracuda_es_750gb();
    let scale = experiments::Scale::quick().with_requests(2_000);
    let mut drpm_runs: Vec<(&str, Vec<IoRequest>)> = workload::WorkloadKind::ALL
        .iter()
        .map(|&k| {
            (
                k.name(),
                experiments::configs::trace_for(k, scale)
                    .requests()
                    .to_vec(),
            )
        })
        .collect();
    // The burst from the DRPM upshift test: a long idle, then 50 reads.
    let burst = (0..50u64).map(|i| {
        let at = simkit::SimTime::from_millis(10_000.0 + i as f64);
        IoRequest::new(i, at, i * 1_000_000, 8, IoKind::Read)
    });
    drpm_runs.push(("upshift-burst", burst.collect()));
    // Requests arriving at the same instant after a long idle: the
    // drive must choose by SPTF among all of them (three stay below the
    // upshift depth; fifty force an upshift first).
    let same_instant: Vec<IoRequest> = (0..50u64)
        .map(|i| {
            let lba = (i * 29_999_999) % 1_400_000_000;
            IoRequest::new(
                i,
                simkit::SimTime::from_millis(10_000.0),
                lba,
                8,
                IoKind::Read,
            )
        })
        .collect();
    drpm_runs.push(("same-instant-trio", same_instant[..3].to_vec()));
    drpm_runs.push(("same-instant-burst", same_instant));
    for (name, reqs) in &drpm_runs {
        let r = replay(reqs, DrpmDrive::new(&params, DrpmConfig::typical()));
        let stats = stat_bits(&r.response_time_ms, Some(r.energy_j), r.average_power_w());
        out += &format!(
            "drpm {name} n={} {stats} dur={:?} low={} upshifts={}\n",
            r.completed,
            r.duration,
            bits(r.low_speed_fraction),
            r.upshifts
        );
    }
    let t = trace(3.0, 2_000, 23);
    for mode in [
        OverlapMode::SingleArmMotion,
        OverlapMode::MultiMotion,
        OverlapMode::MultiChannel,
    ] {
        let m = replay(
            t.requests(),
            DiskDrive::new(&params, DriveConfig::sa(4).with_overlap(mode)),
        )
        .metrics;
        let power = PowerBreakdown::from_modes(&m.modes, &PowerModel::new(&params)).total_w();
        let modes = [
            DriveMode::Idle,
            DriveMode::Seek,
            DriveMode::RotationalWait,
            DriveMode::Transfer,
        ]
        .map(|d| bits(m.modes.fraction_in(d.key())));
        out += &format!(
            "overlap {mode:?} n={} {} dur={:?} modes={}\n",
            m.completed,
            stat_bits(&m.response_time_ms, None, power),
            m.modes.total_time(),
            modes.join(",")
        );
    }
    out
}

/// The engine fingerprints pinned on the hand-rolled replay loops the
/// DRPM and overlap engines had before they were ported onto the
/// shared run loop. Any drift in the low bits of a mean,
/// percentile, energy or mode fraction fails here.
const ENGINE_FINGERPRINTS: &str = "\
drpm Financial n=2000 mean=40343e13e861a023 p90=404686f9f44d4456 energy=405864643183b6dc power=4025752a9c4a6fb8 dur=SimDuration(9094050130) low=0000000000000000 upshifts=0
drpm Websearch n=2000 mean=402c00171d7107b5 p90=403c0cf227d028a2 energy=4057997c36508eae power=402664fd54e9f070 dur=SimDuration(8430484825) low=0000000000000000 upshifts=0
drpm TPC-C n=2000 mean=4026aad02933e709 p90=40345e3fbbd7b203 energy=40602156d9424909 power=4025be7914113b07 dur=SimDuration(11869172542) low=0000000000000000 upshifts=0
drpm TPC-H n=2000 mean=40314698ca1dbd4c p90=4040a5a871a3b14b energy=4068015b063f35fa power=40253b61c1118ff0 dur=SimDuration(18089932170) low=0000000000000000 upshifts=0
drpm upshift-burst n=50 mean=4097a26105bedbc9 p90=4098f975d3996fa8 energy=40508f1eefab1c68 power=4016c6748655368f dur=SimDuration(11633042615) low=3fe60bb5a86c7630 upshifts=1
drpm same-instant-trio n=3 mean=40326f50f9a60217 p90=403fc823a6ce3583 energy=4049670d301842f7 power=401441f594e2c895 dur=SimDuration(10031781794) low=3fe99eca66e20420 upshifts=0
drpm same-instant-burst n=50 mean=4099644e08769c14 p90=409b1967c5ac471b energy=40512796fac3980d power=401748b96baf2e48 dur=SimDuration(11788070156) low=3fe5b784dd271cd2 upshifts=1
overlap SingleArmMotion n=2000 mean=406b8394446921be p90=407fb3340a2877ee power=402b56a597aa5594 dur=SimDuration(6686613443) modes=3f9ece28a3724ce9,3fe6730910604e65,3fd0563449f293b4,3f8adae162b55647
overlap MultiMotion n=2000 mean=4043287306f897a9 p90=4054e6bc382a12f9 power=402a30ea87ce9259 dur=SimDuration(12452006051) modes=3f908acb9034e596,3fe3890aba7e24ba,3fd771c6ecdc54b1,3f7cddb94904e003
overlap MultiChannel n=2000 mean=402c37a719fde092 p90=403660e6d15ad107 power=402a98fb307f2670 dur=SimDuration(20869470226) modes=3f8ad5c3a0a14751,3fe49b14a17c9e40,3fd5ad06992b191b,3f718881b5a80a4d
";

#[test]
fn oracle_engines_replay_bit_identically_to_their_pinned_fingerprints() {
    let got = engine_fingerprints();
    for (want, got) in ENGINE_FINGERPRINTS.lines().zip(got.lines()) {
        assert_eq!(got, want, "engine output drifted");
    }
    assert_eq!(got, ENGINE_FINGERPRINTS, "engine fingerprint set changed");
}
