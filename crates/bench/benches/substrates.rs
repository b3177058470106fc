//! Microbenchmarks of the simulator's building blocks.

use bench::{bench, bench_micro};
use diskmodel::{presets, Geometry, RotationModel, SeekProfile};
use intradisk::sched::{PendingQueue, ScanCost, DEFAULT_WINDOW};
use intradisk::service::{ArmSet, Mechanics};
use intradisk::{
    simulate, DiskDrive, DriveConfig, IoKind, IoRequest, LatencyScaling, NullObserver, QueuePolicy,
    SegmentedCache,
};
use simkit::{Rng64, Sample, SimDuration, SimTime, Zipf};
use std::hint::black_box;
use telemetry::NullRecorder;

const WARMUP: usize = 2;
const SAMPLES: usize = 15;
const MICRO_ITERS: usize = 10_000;

fn bench_seek_curve() {
    let params = presets::barracuda_es_750gb();
    let profile = SeekProfile::new(&params);
    let mut d = 1u32;
    bench_micro("seek_time_eval", WARMUP, SAMPLES, MICRO_ITERS, || {
        d = (d * 7 + 13) % 119_999;
        black_box(profile.seek_time(d))
    });
}

fn bench_geometry() {
    let params = presets::barracuda_es_750gb();
    let geom = Geometry::new(&params);
    let total = geom.total_sectors();
    let mut lba = 0u64;
    bench_micro("geometry_locate", WARMUP, SAMPLES, MICRO_ITERS, || {
        lba = (lba.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % total;
        black_box(geom.locate(lba))
    });
    let mut lba = 0u64;
    bench_micro(
        "geometry_segments_64k",
        WARMUP,
        SAMPLES,
        MICRO_ITERS,
        || {
            lba = (lba + 999_983) % (total - 128);
            black_box(geom.segments(lba, 128))
        },
    );
}

fn bench_rotation() {
    let params = presets::barracuda_es_750gb();
    let rot = RotationModel::new(&params);
    let mut i = 0u64;
    bench_micro("rotation_wait", WARMUP, SAMPLES, MICRO_ITERS, || {
        i += 1;
        let t = SimTime::from_nanos(i * 1_234_567);
        black_box(rot.wait_until_under(0.37, 0.91, t))
    });
}

fn bench_rotation_phase() {
    // The dispatch scan's form of the wait: a phase reduced once, then
    // advanced by each arm's seek (no division per call).
    let params = presets::barracuda_es_750gb();
    let rot = RotationModel::new(&params);
    let phase = rot.phase(SimTime::from_nanos(987_654_321));
    let mut seek = 0u64;
    bench_micro("rotation_wait_phase", WARMUP, SAMPLES, MICRO_ITERS, || {
        seek = (seek + 1_234_567) % 20_000_000;
        let at = rot.advance(phase, SimDuration::from_nanos(seek));
        black_box(rot.wait_at_phase(0.37, 0.91, at))
    });
}

/// One SPTF dispatch decision per iteration over a `depth`-deep queue
/// on a drive of model `params` with `arms` assemblies: the dispatched
/// arm moves to its target and a fresh request refills the queue, so
/// each scan reprices the moved arm's seeks over the window.
fn sptf_scan(name: &str, params: &diskmodel::DiskParams, arms: u32, depth: usize) {
    let mech = Mechanics::new(params);
    let mut arms = ArmSet::from_arms(&mech.default_arms(arms));
    let mut queue = PendingQueue::new(DEFAULT_WINDOW, arms.len());
    let cap = mech.geometry().total_sectors();
    let mut rng = Rng64::new(3);
    let mut id = 0u64;
    let mut fresh = |rng: &mut Rng64| {
        id += 1;
        IoRequest::new(id, SimTime::ZERO, rng.below(cap), 8, IoKind::Read)
    };
    for _ in 0..depth {
        queue.push(fresh(&mut rng));
    }
    let mut start = SimTime::ZERO;
    bench_micro(name, WARMUP, SAMPLES, MICRO_ITERS, || {
        start += SimDuration::from_nanos(6_000_000);
        let cost = ScanCost {
            mech: &mech,
            arms: &arms,
            heads: 1,
            start,
            scaling: LatencyScaling::none(),
        };
        let (req, choice) = queue
            .pop_next(QueuePolicy::Sptf, &cost, |_| true, None)
            .expect("the queue stays full");
        if let Some(c) = choice {
            arms.set_cylinder(c.arm, mech.target(req.lba).loc.cylinder);
        }
        queue.push(fresh(&mut rng));
        black_box(req.id)
    });
}

fn bench_sptf_scan() {
    // SA(4) over a shallow queue, as `repro scale` dispatches.
    sptf_scan("sptf_scan_sa4", &presets::barracuda_es_750gb(), 4, 5);
    // One arm over a full window, as an overloaded array member (the
    // fig8 point of `repro all`) dispatches: every seek of the moved
    // arm is repriced on every scan.
    sptf_scan(
        "sptf_scan_window64_sa1",
        &presets::array_drive_10k_19gb(),
        1,
        DEFAULT_WINDOW,
    );
}

fn bench_cache() {
    let mut cache = SegmentedCache::new(8);
    let mut rng = Rng64::new(1);
    for _ in 0..16 {
        cache.install(rng.below(1_000_000), 8);
    }
    bench_micro("cache_lookup", WARMUP, SAMPLES, MICRO_ITERS, || {
        black_box(cache.lookup(rng.below(1_000_000), 8))
    });
}

fn bench_zipf() {
    let zipf = Zipf::new(1_000_000, 1.1);
    let mut rng = Rng64::new(2);
    bench_micro("zipf_sample_1m_items", WARMUP, SAMPLES, MICRO_ITERS, || {
        black_box(zipf.sample(&mut rng))
    });
}

fn bench_drive_throughput() {
    // End-to-end simulator throughput: requests serviced per wall-clock
    // second on a saturated 4-actuator drive.
    let params = presets::barracuda_es_750gb();
    bench("drive_sim_1000_requests", WARMUP, SAMPLES, || {
        let drive = DiskDrive::new(&params, DriveConfig::sa(4));
        let cap = drive.capacity_sectors();
        let reqs = (0..1000u64).map(|i| {
            let at = SimTime::from_millis(i as f64 * 0.5);
            IoRequest::new(i, at, (i * 48_271 * 65_537) % cap, 8, IoKind::Read)
        });
        let r = simulate(reqs, drive, &mut NullRecorder, &mut NullObserver).expect("valid replay");
        black_box(r.metrics.completed)
    });
}

fn main() {
    bench_seek_curve();
    bench_geometry();
    bench_rotation();
    bench_rotation_phase();
    bench_sptf_scan();
    bench_cache();
    bench_zipf();
    bench_drive_throughput();
}
