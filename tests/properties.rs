//! Property-based tests (testkit) on the core invariants of every
//! substrate: geometry bijectivity, seek-curve shape, rotation bounds,
//! cache soundness, layout conservation, scheduler completeness, and
//! end-to-end conservation on randomized mini-traces.
//!
//! Each property runs 64 deterministic cases by default (32 for the
//! heavier end-to-end replays, matching the seed suite); failures
//! shrink and print a `TESTKIT_SEED=…` replay line.

use array::{Layout, MappedRequest};
use diskmodel::{presets, DiskParams, Geometry, RotationModel, SeekProfile};
use intradisk::{Device, DiskDrive, DriveConfig, IoKind, IoRequest, NullObserver, RunObserver};
use simkit::{Histogram, Rng64, SimTime};
use telemetry::{NullRecorder, Recorder, RingRecorder};
use testkit::{check, check_with, gen, Config, Gen};

fn arb_params() -> Gen<DiskParams> {
    Gen::new(|src| {
        let platters = gen::u32_in(1..=6).generate(src);
        let cylinders = gen::u32_in(2_000..=40_000).generate(src);
        let zones = gen::u32_in(1..=24).generate(src);
        let rpm = gen::u32_in(3_000..=15_000).generate(src);
        let gb_scale = gen::f64_in(0.5, 4.0).generate(src);
        let ratio = gen::f64_in(1.0, 2.2).generate(src);
        DiskParams::builder("prop")
            .platters(platters)
            .cylinders(cylinders)
            .zones(zones)
            .rpm(rpm)
            .capacity_gb(gb_scale * platters as f64 * 10.0)
            .outer_inner_ratio(ratio)
            .build()
            .expect("generated parameters are valid")
    })
}

fn heavy() -> Config {
    Config {
        cases: 32,
        ..Config::default()
    }
}

#[test]
fn geometry_locate_lba_roundtrip() {
    check("geometry_locate_lba_roundtrip", |t| {
        let params = t.draw(&arb_params());
        let salt = t.draw(&gen::u64_any());
        let g = Geometry::new(&params);
        let total = g.total_sectors();
        assert!(total > 0);
        // Probe 32 pseudo-random LBAs.
        let mut rng = Rng64::new(salt);
        for _ in 0..32 {
            let lba = rng.below(total);
            let loc = g.locate(lba);
            assert_eq!(g.lba_of(loc), lba);
            let angle = g.sector_angle(loc);
            assert!((0.0..1.0).contains(&angle));
        }
    });
}

#[test]
fn geometry_capacity_close_to_formatted() {
    check("geometry_capacity_close_to_formatted", |t| {
        let params = t.draw(&arb_params());
        let g = Geometry::new(&params);
        let want = params.capacity_sectors() as f64;
        let got = g.total_sectors() as f64;
        assert!((got - want).abs() / want < 0.02, "{got} vs {want}");
    });
}

#[test]
fn geometry_segments_conserve_sectors() {
    check("geometry_segments_conserve_sectors", |t| {
        let params = t.draw(&arb_params());
        let salt = t.draw(&gen::u64_any());
        let g = Geometry::new(&params);
        let mut rng = Rng64::new(salt);
        for _ in 0..16 {
            let lba = rng.below(g.total_sectors());
            let count = 1 + rng.below(2048) as u32;
            let clamped = count.min((g.total_sectors() - lba) as u32);
            let segs = g.segments(lba, count);
            let total: u64 = segs.iter().map(|s| s.sectors as u64).sum();
            assert_eq!(total, clamped as u64);
            // Segments are contiguous in LBA space.
            let mut cur = lba;
            for s in &segs {
                assert_eq!(s.first_lba, cur);
                cur += s.sectors as u64;
            }
        }
    });
}

#[test]
fn seek_curve_monotone_and_hits_endpoints() {
    check("seek_curve_monotone_and_hits_endpoints", |t| {
        let cylinders = t.draw(&gen::u32_in(100..=200_000));
        let single_ms = t.draw(&gen::f64_in(0.1, 2.0));
        let avg_extra = t.draw(&gen::f64_in(0.1, 10.0));
        let full_extra = t.draw(&gen::f64_in(0.1, 10.0));
        let avg_ms = single_ms + avg_extra;
        let full_ms = avg_ms + full_extra;
        let s = SeekProfile::from_points(cylinders - 1, single_ms, avg_ms, full_ms);
        assert!(s.seek_time(0).is_zero());
        let t1 = s.seek_time(1).as_millis();
        assert!((t1 - single_ms).abs() < 1e-6);
        let tf = s.seek_time(cylinders - 1).as_millis();
        assert!((tf - full_ms).abs() < 1e-6);
        let mut prev = s.seek_time(0);
        let step = (cylinders / 50).max(1);
        let mut d = 0;
        while d < cylinders - 1 {
            d = (d + step).min(cylinders - 1);
            let time = s.seek_time(d);
            assert!(time >= prev);
            prev = time;
        }
    });
}

#[test]
fn rotation_wait_always_below_period() {
    check("rotation_wait_always_below_period", |t| {
        let rpm = t.draw(&gen::u32_in(3_000..=20_000));
        let sector = t.draw(&gen::f64_in(0.0, 1.0));
        let head = t.draw(&gen::f64_in(0.0, 1.0));
        let at_ms = t.draw(&gen::f64_in(0.0, 10_000.0));
        let m = RotationModel::from_period(simkit::SimDuration::from_millis(60_000.0 / rpm as f64));
        let w = m.wait_until_under(sector, head, SimTime::from_millis(at_ms));
        assert!(w < m.period());
    });
}

#[test]
fn histogram_cdf_monotone_and_bounded() {
    check("histogram_cdf_monotone_and_bounded", |t| {
        let values = t.draw(&gen::vec_of(gen::f64_in(0.0, 500.0), 1..=200));
        let mut h = Histogram::new(Histogram::paper_response_time_edges());
        for v in &values {
            h.record(*v);
        }
        let cdf = h.cdf();
        let fr = cdf.fraction_at();
        assert!(fr.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!(fr.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let pdf = h.pdf();
        let mass: f64 = pdf.mass().iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
    });
}

#[test]
fn layouts_conserve_sectors() {
    check("layouts_conserve_sectors", |t| {
        let disks = t.draw(&gen::usize_in(1..=12));
        let lba = t.draw(&gen::u64_in(0..=9_999_999));
        let sectors = t.draw(&gen::u32_in(1..=2_048));
        const PER_DISK: u64 = 1_000_000;
        // One buffer for both layouts, as the controller reuses its own.
        let mut m = MappedRequest::default();
        for layout in [Layout::Concatenated, Layout::striped_default()] {
            let req = IoRequest::new(0, SimTime::ZERO, lba, sectors, IoKind::Read);
            layout.map_into(disks, PER_DISK, &req, &mut m);
            let total: u64 = m.phase_one.iter().map(|s| s.sectors as u64).sum();
            // Wrapped requests may clamp at the very end of the volume
            // (concatenation only splits, never duplicates).
            assert!(total <= sectors as u64);
            assert!(total > 0);
            for s in &m.phase_one {
                assert!(s.disk < disks);
                assert!(s.lba < PER_DISK);
            }
        }
    });
}

#[test]
fn raid5_writes_touch_data_and_parity() {
    check("raid5_writes_touch_data_and_parity", |t| {
        let disks = t.draw(&gen::usize_in(3..=10));
        let unit = t.draw(&gen::u64_in(0..=499));
        const PER_DISK: u64 = 1_000_000;
        let layout = Layout::raid5_default();
        let req = IoRequest::new(0, SimTime::ZERO, unit * 128, 8, IoKind::Write);
        let mut m = MappedRequest::default();
        layout.map_into(disks, PER_DISK, &req, &mut m);
        assert_eq!(m.phase_one.len(), 2);
        assert_eq!(m.phase_two.len(), 2);
        // Same pair of disks in both phases, data != parity.
        let p1: std::collections::BTreeSet<usize> = m.phase_one.iter().map(|s| s.disk).collect();
        let p2: std::collections::BTreeSet<usize> = m.phase_two.iter().map(|s| s.disk).collect();
        assert_eq!(&p1, &p2);
        assert_eq!(p1.len(), 2);
    });
}

#[test]
fn drive_conserves_requests_on_random_minitraces() {
    check("drive_conserves_requests_on_random_minitraces", |t| {
        let seed = t.draw(&gen::u64_any());
        let n = t.draw(&gen::usize_in(1..=119));
        let actuators = t.draw(&gen::u32_in(1..=4));
        let params = DiskParams::builder("mini")
            .capacity_gb(10.0)
            .cylinders(5_000)
            .build()
            .expect("valid");
        let mut rng = Rng64::new(seed);
        let cap = DiskDrive::new(&params, DriveConfig::sa(actuators)).capacity_sectors();
        let mut at = SimTime::ZERO;
        let mut reqs = Vec::new();
        for i in 0..n as u64 {
            at += simkit::SimDuration::from_millis(rng.f64() * 6.0);
            let kind = if rng.chance(0.5) {
                IoKind::Read
            } else {
                IoKind::Write
            };
            reqs.push(IoRequest::new(
                i,
                at,
                rng.below(cap),
                1 + rng.below(64) as u32,
                kind,
            ));
        }
        assert_conforms(&reqs, || {
            DiskDrive::new(&params, DriveConfig::sa(actuators))
        });
    });
}

#[test]
fn more_actuators_never_hurt_mean_response() {
    check("more_actuators_never_hurt_mean_response", |t| {
        let seed = t.draw(&gen::u64_in(0..=999));
        let params = DiskParams::builder("mini")
            .capacity_gb(10.0)
            .cylinders(5_000)
            .build()
            .expect("valid");
        let mut means = Vec::new();
        for n in [1u32, 4] {
            let drive = DiskDrive::new(&params, DriveConfig::sa(n));
            let cap = drive.capacity_sectors();
            let mut rng = Rng64::new(seed);
            let reqs: Vec<IoRequest> = (0..60u64)
                .map(|i| {
                    IoRequest::new(
                        i,
                        SimTime::from_millis(i as f64 * 2.0),
                        rng.below(cap),
                        8,
                        IoKind::Read,
                    )
                })
                .collect();
            let r = intradisk::simulate(reqs, drive, &mut NullRecorder, &mut NullObserver)
                .expect("valid replay");
            means.push(r.metrics.response_time_ms.mean());
        }
        // Allow a whisker of slack: SPTF tie-breaking can differ.
        assert!(
            means[1] <= means[0] * 1.10,
            "SA4 {} vs SA1 {}",
            means[1],
            means[0]
        );
    });
}

#[test]
fn spc_lines_roundtrip() {
    check_with(heavy(), "spc_lines_roundtrip", |t| {
        let asu = t.draw(&gen::u32_in(0..=15));
        let lba = t.draw(&gen::u64_in(0..=999_999_999));
        let kbytes = t.draw(&gen::u64_in(1..=511));
        let write = t.draw(&gen::bool_any());
        let secs = t.draw(&gen::f64_in(0.0, 100_000.0));
        let bytes = kbytes * 1024;
        let op = if write { "w" } else { "R" };
        let line = format!("{asu},{lba},{bytes},{op},{secs:.6}");
        let rec = workload::spc::parse_line(&line, 1).expect("well-formed line");
        assert_eq!(rec.asu, asu);
        assert_eq!(rec.lba, lba);
        assert_eq!(rec.bytes, bytes);
        assert_eq!(rec.kind == IoKind::Write, write);
        let got_s = rec.arrival.as_millis() / 1_000.0;
        assert!((got_s - secs).abs() < 1e-5, "{got_s} vs {secs}");
    });
}

#[test]
fn spc_out_of_range_lines_are_rejected_at_their_line() {
    check("spc_out_of_range_lines_are_rejected_at_their_line", |t| {
        use workload::spc::{parse_line, read_trace, AsuLayout, SpcErrorKind};
        let lineno = t.draw(&gen::usize_in(2..=40));
        let fault = t.draw(&gen::usize_in(0..=6));
        let small_lba = t.draw(&gen::u64_in(0..=1_000_000));
        let (bad, kind) = match fault {
            0 => {
                // The last sector wraps past u64::MAX.
                let sectors = t.draw(&gen::u64_in(1..=4_096));
                let lba = u64::MAX - t.draw(&gen::u64_in(0..=4_095)) % sectors;
                let bytes = sectors * 512 - t.draw(&gen::u64_in(0..=511));
                (format!("0,{lba},{bytes},r,0.0"), SpcErrorKind::LbaOverflow)
            }
            1 => {
                let bytes = t.draw(&gen::u64_in(u64::from(u32::MAX) * 512 + 1..=u64::MAX));
                (
                    format!("0,{small_lba},{bytes},w,0.0"),
                    SpcErrorKind::SizeOverflow,
                )
            }
            2 => {
                let secs = 10f64.powf(t.draw(&gen::f64_in(9.97, 300.0)));
                (
                    format!("0,{small_lba},512,r,{secs:e}"),
                    SpcErrorKind::TimestampOverflow,
                )
            }
            3 => {
                let secs = t.draw(&gen::one_of(vec!["inf", "-inf", "+inf", "NaN", "infinity"]));
                (
                    format!("0,{small_lba},512,r,{secs}"),
                    SpcErrorKind::NonFiniteTimestamp,
                )
            }
            4 => {
                let secs = t.draw(&gen::f64_in(1e-6, 1e6));
                (
                    format!("0,{small_lba},512,r,-{secs}"),
                    SpcErrorKind::NegativeTimestamp,
                )
            }
            5 => {
                let line = t.draw(&gen::one_of(vec![
                    "0,5,1024,R",
                    "x,5,1024,R,0.1",
                    "4294967296,5,1024,R,0.1",
                    "0,-5,1024,R,0.1",
                    "0,18446744073709551616,512,r,0.0",
                    "0,5,0,R,0.1",
                    "0,5,1024,q,0.1",
                    "0,5,1024,R,soon",
                ]));
                (line.to_string(), SpcErrorKind::Malformed)
            }
            _ => {
                // Fits on its own, but not after ASU 0 (line 1) nor
                // once rounded up to a 4 KiB-sector alignment.
                let lba = u64::MAX - 1 - t.draw(&gen::u64_in(0..=1_000));
                (
                    format!("1,{lba},512,r,0.0"),
                    SpcErrorKind::AddressSpaceOverflow,
                )
            }
        };
        let align = t.draw(&gen::one_of(vec![1u64, 4_096]));
        let mut text = format!("0,{},4096,r,0.0\n", 2_000 + small_lba);
        for _ in 2..lineno {
            text += t.draw(&gen::one_of(vec!["# comment\n", "\n", "0,8,512,w,0.5\n"]));
        }
        text += &bad;
        text += "\n0,0,512,r,1.0\n";
        if kind == SpcErrorKind::AddressSpaceOverflow {
            assert!(parse_line(&bad, lineno).is_ok(), "{bad}");
        } else {
            let err = parse_line(&bad, lineno).expect_err(&bad);
            assert_eq!((err.line(), err.kind()), (lineno, kind), "{bad}: {err}");
        }
        let scanned = AsuLayout::scan(std::io::Cursor::new(&text), align, None).expect_err(&bad);
        let read = read_trace(std::io::Cursor::new(&text), "t", align, None).expect_err(&bad);
        for err in [scanned, read] {
            assert_eq!((err.line(), err.kind()), (lineno, kind), "{bad}: {err}");
            assert!(
                err.to_string().contains(&format!("line {lineno}:")),
                "{err}"
            );
        }
    });
}

/// Counts the completions the run loop reports, checking causality:
/// no request completes before it arrives.
#[derive(Debug, Default)]
struct Completions(u64);

impl RunObserver for Completions {
    fn on_complete(&mut self, stats: &simkit::ResponseStats) {
        assert!(stats.min() >= 0.0, "a request completed before it arrived");
        self.0 += 1;
    }
}

/// Replays `reqs` on `device`, checks that every pulled request
/// completes, and returns the report's rendering (shortest round-trip
/// floats, so equal renderings mean bit-identical results). The run
/// loop itself asserts, in debug builds, that time never runs
/// backwards.
fn checked_run<D: Device, R: Recorder>(reqs: &[IoRequest], device: D, rec: &mut R) -> String
where
    D::Report: std::fmt::Debug,
{
    let (mut done, mut pulled) = (Completions::default(), 0u64);
    let source = reqs.iter().copied().inspect(|_| pulled += 1);
    let report = intradisk::simulate(source, device, rec, &mut done).expect("valid replay");
    assert_eq!(pulled, reqs.len() as u64, "the loop left requests unpulled");
    assert_eq!(done.0, pulled, "completed != requests pulled");
    format!("{report:?}")
}

/// The run-loop contract every device shares, checked untraced and
/// traced: recording must not perturb the result by a single bit.
fn assert_conforms<D: Device>(reqs: &[IoRequest], make: impl Fn() -> D)
where
    D::Report: std::fmt::Debug,
{
    let plain = checked_run(reqs, make(), &mut NullRecorder);
    let traced = checked_run(reqs, make(), &mut RingRecorder::new());
    assert_eq!(plain, traced, "recording changed the result");
}

#[test]
fn every_device_conserves_requests_in_time_order_under_any_recorder() {
    check_with(
        heavy(),
        "every_device_conserves_requests_in_time_order_under_any_recorder",
        |t| {
            use array::ArrayController;
            use intradisk::drpm::{DrpmConfig, DrpmDrive};
            use intradisk::OverlapMode;
            let seed = t.draw(&gen::u64_any());
            let n = t.draw(&gen::usize_in(1..=60));
            let device = t.draw(&gen::usize_in(0..=2));
            let arms = t.draw(&gen::u32_in(1..=4));
            let drive = presets::barracuda_es_750gb();
            let member = presets::array_drive_10k_19gb();
            // LBAs within one array member, so every device can address them.
            let cap = member.capacity_sectors();
            let mut rng = Rng64::new(seed);
            let mut at = SimTime::ZERO;
            let reqs: Vec<IoRequest> = (0..n as u64)
                .map(|i| {
                    // Same-instant bursts, back-to-back traffic and
                    // multi-second lulls (DRPM downshift and upshift territory).
                    at += match rng.below(8) {
                        0 => simkit::SimDuration::ZERO,
                        1 => simkit::SimDuration::from_secs(2.0 + rng.f64() * 60.0),
                        _ => simkit::SimDuration::from_millis(rng.f64() * 6.0),
                    };
                    let kind = if rng.chance(0.5) {
                        IoKind::Read
                    } else {
                        IoKind::Write
                    };
                    IoRequest::new(i, at, rng.below(cap), 1 + rng.below(64) as u32, kind)
                })
                .collect();
            match device {
                0 => {
                    let modes = [
                        OverlapMode::SingleArmMotion,
                        OverlapMode::MultiMotion,
                        OverlapMode::MultiChannel,
                    ];
                    let config = DriveConfig::sa(arms).with_overlap(modes[rng.below(3) as usize]);
                    assert_conforms(&reqs, || DiskDrive::new(&drive, config.clone()))
                }
                1 => assert_conforms(&reqs, || {
                    ArrayController::new(&member, DriveConfig::sa(arms), 3, Layout::raid5_default())
                }),
                _ => assert_conforms(&reqs, || DrpmDrive::new(&drive, DrpmConfig::typical())),
            }
        },
    );
}

#[test]
fn streamhist_percentile_within_documented_relative_error() {
    check(
        "streamhist_percentile_within_documented_relative_error",
        |t| {
            use simkit::StreamingHistogram;
            // Values inside [floor, cap], where the bound is guaranteed.
            let values = t.draw(&gen::vec_of(gen::f64_in(0.001, 100_000.0), 1..=300));
            let mut h = StreamingHistogram::new();
            let mut exact = values.clone();
            for v in &values {
                h.record(*v);
            }
            exact.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let bound = h.relative_error();
            for p in [10.0, 50.0, 90.0, 99.0, 100.0] {
                // Nearest-rank, the same convention as stats::Summary.
                let rank = ((p / 100.0 * exact.len() as f64).ceil() as usize).max(1);
                let want = exact[rank - 1];
                let got = h.percentile(p);
                assert!(
                    (got - want).abs() <= bound * want + 1e-12,
                    "p{p}: streaming {got} vs exact {want} exceeds bound {bound}"
                );
            }
        },
    );
}

#[test]
fn response_stats_stream_p90_within_one_percent_of_exact() {
    check(
        "response_stats_stream_p90_within_one_percent_of_exact",
        |t| {
            use simkit::ResponseStats;
            // Adversarial latency mixes: a tight service-time cluster, a
            // heavy queueing tail, a duplicate plateau (ties at one value),
            // and near-floor samples — shuffled into one stream.
            let cluster = t.draw(&gen::vec_of(gen::f64_in(0.5, 5.0), 0..=120));
            let tail = t.draw(&gen::vec_of(gen::f64_in(100.0, 90_000.0), 0..=40));
            let plateau_v = t.draw(&gen::f64_in(0.001, 50.0));
            let plateau_n = t.draw(&gen::usize_in(1..=120));
            let floorish = t.draw(&gen::vec_of(gen::f64_in(0.001, 0.01), 0..=30));
            let salt = t.draw(&gen::u64_any());
            let mut values: Vec<f64> = Vec::new();
            values.extend(&cluster);
            values.extend(&tail);
            values.extend(std::iter::repeat_n(plateau_v, plateau_n));
            values.extend(&floorish);
            let mut rng = Rng64::new(salt);
            for i in (1..values.len()).rev() {
                values.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut exact = ResponseStats::exact();
            let mut stream = ResponseStats::streaming();
            for v in &values {
                exact.record(*v);
                stream.record(*v);
            }
            exact.finalize();
            assert_eq!(exact.count(), stream.count());
            // Min/max and mean are exact in both modes; percentiles carry
            // the streaming histogram's documented bound — 1% at the
            // default configuration (the ISSUE's acceptance bound).
            assert_eq!(exact.min(), stream.min());
            assert_eq!(exact.max(), stream.max());
            let bound = stream.relative_error();
            assert!(bound <= 0.01 + 1e-12, "default bound is 1%: {bound}");
            assert!(
                (stream.mean() - exact.mean()).abs() <= exact.mean().abs() * 1e-9 + 1e-9,
                "streamed mean {} vs exact {}",
                stream.mean(),
                exact.mean()
            );
            for p in [50.0, 90.0, 99.0, 100.0] {
                let want = exact.percentile(p);
                let got = stream.percentile_stream(p);
                assert!(
                    (got - want).abs() <= want * bound + 1e-12,
                    "p{p}: streaming {got} vs exact {want} exceeds {bound}"
                );
                // In exact mode the streamed view rides along for free and
                // must obey the same bound.
                let ride_along = exact.percentile_stream(p);
                assert!(
                    (ride_along - want).abs() <= want * bound + 1e-12,
                    "p{p}: exact-mode stream view {ride_along} vs {want}"
                );
            }
        },
    );
}

/// A sample stream that lands on every boundary the derived views
/// bucket by: zeros of both signs, repeats, the paper's CDF and PDF
/// edges, the streaming sketch's own edges and the values just past
/// them, values above its 10⁶ ms cap, and plain draws in between.
/// Every sample is finite, as `ResponseStats::record` requires: the
/// sketch's edges stop at its last finite one, not the overflow
/// bucket's +inf bound.
fn arb_boundary_samples() -> Gen<Vec<f64>> {
    use simkit::StreamingHistogram;
    // The sketch's edges, read back off a histogram fed a sweep.
    let mut sweep = StreamingHistogram::new();
    for k in -30..=20 {
        sweep.record(2f64.powi(k));
    }
    let sketch_edges: Vec<f64> = sweep
        .nonzero_buckets()
        .iter()
        .map(|b| b.1)
        .filter(|e| e.is_finite())
        .collect();
    let paper: Vec<f64> = Histogram::paper_response_time_edges()
        .iter()
        .chain(Histogram::paper_rotational_latency_edges())
        .copied()
        .collect();
    let sample = Gen::new(move |src| match gen::u32_in(0..=6).generate(src) {
        0 => gen::one_of(vec![0.0, -0.0, 5.0, 200.0, 1.0, 11.0]).generate(src),
        1 => gen::one_of(paper.clone()).generate(src),
        2 => {
            let e = gen::one_of(sketch_edges.clone()).generate(src);
            if gen::bool_any().generate(src) {
                e
            } else {
                e.next_up()
            }
        }
        3 => gen::f64_in(1e6, 1e8).generate(src),
        4 => gen::one_of(vec![0.25, 7.5, 42.0]).generate(src),
        _ => gen::f64_in(0.0, 500.0).generate(src),
    });
    gen::vec_of(sample, 0..=150)
}

/// Exact-mode stats derive their streaming view from the kept samples;
/// a streaming-mode accumulator records into it. Both must read back
/// bit-identically at every stage: before and after finalize, and after
/// a record that follows finalize.
#[test]
fn response_stats_derived_views_equal_recorded_views() {
    check("response_stats_derived_views_equal_recorded_views", |t| {
        use simkit::ResponseStats;
        let xs = t.draw(&arb_boundary_samples());
        let late = t.draw(&gen::f64_in(0.0, 300.0));
        let fill = |mut s: ResponseStats, vals: &[f64]| {
            for &v in vals {
                s.record(v);
            }
            s
        };
        let same = |stage: &str, e: &ResponseStats, s: &ResponseStats| {
            assert_eq!(*e.stream(), *s.stream(), "{stage}: stream()");
            assert_eq!(e.count(), s.count(), "{stage}: count");
            assert_eq!(e.is_empty(), s.is_empty(), "{stage}: is_empty");
            assert_eq!(e.mean().to_bits(), s.mean().to_bits(), "{stage}: mean");
            assert_eq!(e.min().to_bits(), s.min().to_bits(), "{stage}: min");
            assert_eq!(e.max().to_bits(), s.max().to_bits(), "{stage}: max");
            for p in [1.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    e.percentile_stream(p).to_bits(),
                    s.percentile_stream(p).to_bits(),
                    "{stage}: percentile_stream({p})"
                );
            }
        };
        let mut e = fill(ResponseStats::exact(), &xs);
        let mut s = fill(ResponseStats::streaming(), &xs);
        same("before finalize", &e, &s);
        e.finalize();
        s.finalize();
        same("after finalize", &e, &s);
        e.record(late);
        s.record(late);
        same("record after finalize", &e, &s);
    });
}

/// `MeanMax` adds each sample in record order as both `ResponseStats`
/// modes do, so its mean, max and count read back bit-equal to theirs,
/// empty included.
#[test]
fn mean_max_reads_equal_response_stats_reads() {
    check("mean_max_reads_equal_response_stats_reads", |t| {
        use simkit::{MeanMax, ResponseStats};
        let xs = t.draw(&arb_boundary_samples());
        let same = |stage: &str, acc: &MeanMax, e: &ResponseStats, s: &ResponseStats| {
            for (mode, r) in [("exact", e), ("streaming", s)] {
                let at = format!("{stage}, {mode}");
                assert_eq!(acc.mean().to_bits(), r.mean().to_bits(), "{at}: mean");
                assert_eq!(acc.max().to_bits(), r.max().to_bits(), "{at}: max");
                assert_eq!(acc.count(), r.count() as u64, "{at}: count");
            }
        };
        let mut acc = MeanMax::new();
        let (mut e, mut s) = (ResponseStats::exact(), ResponseStats::streaming());
        same("empty", &acc, &e, &s);
        for &v in &xs {
            acc.record(v);
            e.record(v);
            s.record(v);
        }
        same("recorded", &acc, &e, &s);
    });
}

/// Exact-mode `DriveMetrics` fill their response-time histogram from the
/// sorted samples at finalize; streaming mode buckets each completion.
/// Fed the same completions — response and rotational times on the
/// paper's edges included — the histograms are identical after
/// finalize.
#[test]
fn drive_metrics_histograms_equal_across_stats_modes() {
    check("drive_metrics_histograms_equal_across_stats_modes", |t| {
        use intradisk::{CompletedIo, DriveMetrics, ServiceBreakdown};
        use simkit::{SimDuration, StatsMode};
        let ms = || {
            let paper: Vec<f64> = Histogram::paper_response_time_edges()
                .iter()
                .chain(Histogram::paper_rotational_latency_edges())
                .copied()
                .collect();
            Gen::new(move |src| {
                if gen::bool_any().generate(src) {
                    gen::one_of(paper.clone()).generate(src)
                } else {
                    gen::f64_in(0.0, 250.0).generate(src)
                }
            })
        };
        let io = gen::vec_of(
            Gen::new(move |src| {
                (
                    ms().generate(src),
                    ms().generate(src),
                    gen::bool_any().generate(src),
                )
            }),
            0..=120,
        );
        let first = t.draw(&io);
        let done = |&(rt, rot, hit): &(f64, f64, bool)| {
            let arrival = SimTime::from_millis(1.0);
            CompletedIo {
                request: IoRequest::new(0, arrival, 0, 8, IoKind::Read),
                completed: arrival + SimDuration::from_millis(rt),
                breakdown: ServiceBreakdown {
                    queue: SimDuration::ZERO,
                    overhead: SimDuration::ZERO,
                    seek: SimDuration::from_millis(rt * 0.5),
                    rotational: SimDuration::from_millis(rot),
                    transfer: SimDuration::ZERO,
                },
                cache_hit: hit,
                actuator: 0,
            }
        };
        let fill = |mode: StatsMode, ios: &[(f64, f64, bool)]| {
            let mut m = DriveMetrics::with_mode(1, mode);
            for x in ios {
                m.record(&done(x));
            }
            m
        };
        let same = |stage: &str, a: &DriveMetrics, b: &DriveMetrics| {
            assert_eq!(a.response_hist, b.response_hist, "{stage}: response_hist");
            assert_eq!(
                a.rotational_hist, b.rotational_hist,
                "{stage}: rotational_hist"
            );
        };
        let mut exact = fill(StatsMode::Exact, &first);
        let mut stream = fill(StatsMode::Streaming, &first);
        exact.finalize();
        stream.finalize();
        same("after finalize", &exact, &stream);
    });
}

#[test]
fn request_source_skip_matches_pull_and_discard() {
    check("request_source_skip_matches_pull_and_discard", |t| {
        use workload::{RequestSource, SyntheticSpec};
        // The resume seam: `skip(n)` must land every source on exactly
        // the state that pulling `n` requests reaches, for both the
        // O(1) trace cursor and the lazy generator.
        let n = t.draw(&gen::usize_in(1..=200));
        let k = t.draw(&gen::usize_in(0..=220));
        let seed = t.draw(&gen::u64_any());
        let mean = t.draw(&gen::f64_in(0.5, 20.0));
        let spec = SyntheticSpec::paper(mean, 1 << 24, n);
        let trace = spec.generate(seed);

        let mut skipped = spec.source(seed);
        let got_skip = skipped.skip(k as u64);
        let mut pulled = spec.source(seed);
        let mut got_pull = 0u64;
        while got_pull < k as u64 && pulled.next_request().is_some() {
            got_pull += 1;
        }
        assert_eq!(got_skip, got_pull, "skip count diverged");
        let mut cursor = trace.source();
        assert_eq!(
            cursor.skip(k as u64),
            got_pull,
            "trace cursor skip diverged"
        );
        loop {
            let a = skipped.next_request();
            let b = pulled.next_request();
            let c = cursor.next_request();
            assert_eq!(a, b, "generator resume diverged after skip({k})");
            assert_eq!(a, c, "trace cursor diverged after skip({k})");
            if a.is_none() {
                break;
            }
        }
    });
}

#[test]
fn streamhist_deterministic_for_identical_input() {
    check("streamhist_deterministic_for_identical_input", |t| {
        use simkit::StreamingHistogram;
        let values = t.draw(&gen::vec_of(gen::f64_in(0.001, 100_000.0), 0..=200));
        let run = || {
            let mut h = StreamingHistogram::new();
            for v in &values {
                h.record(*v);
            }
            format!("{h:?}")
        };
        assert_eq!(run(), run(), "identical input produced different state");
    });
}

#[test]
fn dash_labels_roundtrip() {
    check_with(heavy(), "dash_labels_roundtrip", |t| {
        use intradisk::DashConfig;
        let d = t.draw(&gen::u32_in(1..=8));
        let a = t.draw(&gen::u32_in(1..=8));
        let s = t.draw(&gen::u32_in(1..=8));
        let h = t.draw(&gen::u32_in(1..=8));
        let cfg = DashConfig::new(d, a, s, h);
        let label = cfg.to_string();
        let parsed: DashConfig = label.parse().expect("own label parses");
        assert_eq!(parsed, cfg);
        assert_eq!(parsed.max_transfer_paths(), d * a * s * h);
    });
}

// ------------------------------------------------------------------
// Event-kernel differential properties: the timing wheel must be
// observationally identical to the heap oracle, and the slab pool must
// never alias recycled slots.
// ------------------------------------------------------------------

/// Drives a [`WheelEventQueue`] and a [`HeapEventQueue`] through one
/// adversarial schedule — same-tick bursts, intra-granule jitter,
/// wheel-block boundary deltas, far-future overflow jumps, interleaved
/// pops — asserting byte-identical observable behavior at every step.
#[test]
fn wheel_pops_byte_identically_to_heap() {
    use simkit::{HeapEventQueue, SimDuration, WheelEventQueue};
    check("wheel_pops_byte_identically_to_heap", |t| {
        let salt = t.draw(&gen::u64_any());
        let steps = t.draw(&gen::usize_in(40..=250));
        let mut rng = Rng64::new(salt);
        let mut wheel: WheelEventQueue<u64> = WheelEventQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut tag = 0u64;
        let push_both = |w: &mut WheelEventQueue<u64>,
                         h: &mut HeapEventQueue<u64>,
                         t: simkit::SimTime,
                         tag: &mut u64| {
            w.push(t, *tag);
            h.push(t, *tag);
            *tag += 1;
        };
        for _ in 0..steps {
            let now = wheel.now();
            assert_eq!(now, heap.now(), "clocks diverged");
            match rng.below(12) {
                // Same-tick burst: FIFO tie-break under pressure.
                0..=2 => {
                    let at = now + SimDuration::from_nanos(rng.below(1 << 22));
                    for _ in 0..=rng.below(5) {
                        push_both(&mut wheel, &mut heap, at, &mut tag);
                    }
                }
                // Intra-granule jitter around the cursor.
                3..=4 => {
                    let at = now + SimDuration::from_nanos(rng.below(1 << 20));
                    push_both(&mut wheel, &mut heap, at, &mut tag);
                }
                // Granule / level-block boundaries (±1 ns around
                // multiples of the granule, the level-0 span, and the
                // level-1 span).
                5..=6 => {
                    let unit = [1u64 << 20, 1 << 29, 1 << 38][rng.below(3) as usize];
                    let mult = 1 + rng.below(3);
                    let base = unit * mult + (1 << 19);
                    let wobble = rng.below(3) as i64 - 1;
                    let at = now + SimDuration::from_nanos(base.saturating_add_signed(wobble));
                    push_both(&mut wheel, &mut heap, at, &mut tag);
                }
                // Far-future events: level 2 and the overflow calendar
                // (the level-2 block spans ~2^47 ns ≈ 39 h).
                7..=8 => {
                    let exp = 40 + rng.below(12) as u32;
                    let at = now
                        + SimDuration::from_nanos(1u64 << exp)
                        + SimDuration::from_nanos(rng.below(1 << 21));
                    push_both(&mut wheel, &mut heap, at, &mut tag);
                }
                // Interleaved pops (plus a peek cross-check).
                _ => {
                    for _ in 0..=rng.below(6) {
                        assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged");
                        let a = wheel.pop();
                        let b = heap.pop();
                        assert_eq!(a, b, "pop diverged after {} pushes", tag);
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len(), "len diverged");
        }
        // Drain to the end: the full tail must agree too.
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time(), "tail peek diverged");
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "tail pop diverged");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.stats(), heap.stats(), "stats diverged");
    });
}

/// Model-based slab check: a `BTreeMap` keyed by the packed id is the
/// reference. No stale id may ever observe a recycled slot's new
/// tenant, live ids survive arbitrary churn around them, and double
/// removes are no-ops.
#[test]
fn slab_never_aliases_recycled_slots() {
    use simkit::{Slab, SlotId};
    use std::collections::BTreeMap;
    check("slab_never_aliases_recycled_slots", |t| {
        let salt = t.draw(&gen::u64_any());
        let ops = t.draw(&gen::usize_in(50..=400));
        let mut rng = Rng64::new(salt);
        let mut slab: Slab<u64> = Slab::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut live: Vec<SlotId> = Vec::new();
        let mut dead: Vec<SlotId> = Vec::new();
        let mut next_value = 0u64;
        for _ in 0..ops {
            match rng.below(10) {
                // Insert.
                0..=4 => {
                    let id = slab.insert(next_value);
                    assert!(
                        model.insert(id.as_u64(), next_value).is_none(),
                        "packed id reissued while its generation was live"
                    );
                    live.push(id);
                    next_value += 1;
                }
                // Remove a live id; it must go stale immediately.
                5..=7 if !live.is_empty() => {
                    let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                    let expect = model.remove(&id.as_u64());
                    assert_eq!(slab.remove(id), expect, "remove disagreed with model");
                    assert_eq!(slab.get(id), None, "removed id still readable");
                    dead.push(id);
                }
                // Stale ids stay dead forever (no reuse-before-free).
                8 if !dead.is_empty() => {
                    let id = dead[rng.below(dead.len() as u64) as usize];
                    assert_eq!(slab.get(id), None, "stale id aliased a recycled slot");
                    assert_eq!(slab.remove(id), None, "stale id removed a new tenant");
                }
                // Every live id reads back its own value (stable IDs).
                _ => {
                    for id in &live {
                        assert_eq!(slab.get(*id), model.get(&id.as_u64()), "live id drifted");
                    }
                }
            }
            assert_eq!(slab.len(), model.len(), "occupancy drifted");
        }
    });
}

/// The branch-and-bound SPTF dispatch scan over its window-ordered cost
/// arrays against the naive reference: a full `plan_set_with_heads` for
/// every windowed candidate and the first `min_by_key` of positioning
/// time. Repeated dispatches move the arms between scans, so seek
/// columns are repriced; zero scalings force ties, a small LBA pool
/// forces duplicates, and arrivals outpace dispatches so the queue
/// outgrows the window. Three drawn twists change what the arrays were
/// priced against: an eligibility mask that changes between scans (the
/// overlap engine passes busy arms as ineligible), arms moved between
/// scans by something other than this queue's dispatch, and a
/// mid-stream `forget_costs` followed by scanning under another RPM's
/// mechanics (DRPM's spindle shift). Each case draws 1–8 arms, so the
/// live-arm list runs past SA(4), and also replays its draws on the
/// DASH(3, 2) shape.
#[test]
fn sptf_scan_matches_naive_plan_reference() {
    use intradisk::sched::{PendingQueue, ScanCost};
    use intradisk::service::{ArmSet, Mechanics};
    use intradisk::{LatencyScaling, QueuePolicy};
    use simkit::SimDuration;
    check_with(heavy(), "sptf_scan_matches_naive_plan_reference", |t| {
        let n_arms = t.draw(&gen::u32_in(1..=8));
        let failed = t.draw(&gen::u32_in(0..=255));
        let heads = t.draw(&gen::u32_in(1..=3));
        let window = t.draw(&gen::usize_in(1..=12));
        let (seek_scale, rot_scale) = t.draw(&gen::one_of(vec![
            (1.0, 1.0),
            (0.0, 1.0),
            (1.0, 0.0),
            (0.0, 0.0),
            (0.5, 0.25),
        ]));
        let mask_churn = t.draw(&gen::bool_any());
        let foreign_moves = t.draw(&gen::bool_any());
        let rpm_shifts = t.draw(&gen::bool_any());
        let salt = t.draw(&gen::u64_any());
        let scaling = LatencyScaling {
            seek: seek_scale,
            rotational: rot_scale,
        };
        let speeds = [
            Mechanics::new(&presets::barracuda_es_750gb()),
            Mechanics::new(&presets::barracuda_es_750gb().with_rpm(4_200)),
        ];
        // Every case runs the drawn shape, then the same draws on the
        // DASH(3, 2) drive's shape, so two heads per arm reach the scan
        // in every case.
        let dash = DriveConfig::dash(3, 2);
        for (n_arms, heads) in [(n_arms, heads), (dash.actuators, dash.heads_per_arm)] {
            let mut speed = 0;
            let mut arms = ArmSet::from_arms(&speeds[0].default_arms(n_arms));
            for a in 0..n_arms as usize {
                if failed & (1 << a) != 0 && arms.live_count() > 1 {
                    arms.set_failed(a);
                }
            }
            let live: Vec<usize> = (0..arms.len()).filter(|&a| !arms.is_failed(a)).collect();
            let total = speeds[0].geometry().total_sectors();
            let cylinders = speeds[0].geometry().cylinders();
            let mut rng = Rng64::new(salt);
            let pool: Vec<u64> = (0..4).map(|_| rng.below(total)).collect();
            let mut queue = PendingQueue::new(window, arms.len());
            let mut naive: Vec<IoRequest> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut next_id = 0;
            for _ in 0..40 {
                for _ in 0..rng.below(4) {
                    let lba = if rng.chance(0.3) {
                        pool[rng.below(pool.len() as u64) as usize]
                    } else {
                        rng.below(total)
                    };
                    let r =
                        IoRequest::new(next_id, now, lba, 1 + rng.below(64) as u32, IoKind::Read);
                    next_id += 1;
                    queue.push(r);
                    naive.push(r);
                }
                if naive.is_empty() {
                    now += SimDuration::from_millis(rng.f64() * 5.0);
                    continue;
                }
                if foreign_moves && rng.chance(0.5) {
                    let a = live[rng.below(live.len() as u64) as usize];
                    arms.set_cylinder(a, rng.below(cylinders as u64) as u32);
                }
                if rpm_shifts && rng.chance(0.2) {
                    queue.forget_costs();
                    speed = 1 - speed;
                }
                let mech = &speeds[speed];
                // The arms this scan may use: every live arm, or a random
                // non-empty subset of them.
                let mut eligible = vec![true; arms.len()];
                if mask_churn {
                    for &a in &live {
                        eligible[a] = rng.chance(0.5);
                    }
                    eligible[live[rng.below(live.len() as u64) as usize]] = true;
                }
                let eligible: Vec<bool> = (0..arms.len())
                    .map(|a| eligible[a] && !arms.is_failed(a))
                    .collect();
                // The naive reference sees ineligible arms as failed.
                let mut visible = arms.clone();
                for a in (0..arms.len()).filter(|&a| !eligible[a]) {
                    visible.set_failed(a);
                }
                let start = now + SimDuration::from_millis(0.3);
                let plans: Vec<_> = naive
                    .iter()
                    .take(window)
                    .map(|r| {
                        mech.plan_set_with_heads(&visible, heads, r.lba, r.sectors, start, scaling)
                            .expect("an eligible arm remains")
                    })
                    .collect();
                let idx = (0..plans.len())
                    .min_by_key(|&i| plans[i].positioning())
                    .expect("non-empty window");
                let (want_req, want) = (naive.remove(idx), plans[idx]);

                let cost = ScanCost {
                    mech,
                    arms: &arms,
                    heads,
                    start,
                    scaling,
                };
                let (got_req, choice) = queue
                    .pop_next(QueuePolicy::Sptf, &cost, |a| eligible[a], None)
                    .expect("non-empty queue");
                let choice = choice.expect("an eligible arm remains");
                let got = mech.plan_for(choice, got_req.sectors);
                assert_eq!(got_req.id, want_req.id, "scan popped another request");
                assert_eq!(got, want, "scan planned request {} differently", got_req.id);
                arms.set_cylinder(got.actuator as usize, got.end_cylinder);
                now = start + got.total();
            }
        }
    });
}

/// `simkit::time::round_ns` is `x.round() as u64` for every `f64`: raw
/// bit patterns (any exponent, either sign, NaN and ±∞), uniform draws
/// around the integers a nanosecond conversion rounds, and the edges of
/// its integer fast path.
#[test]
fn round_ns_matches_f64_round() {
    use simkit::time::round_ns;
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    const EDGES: [f64; 21] = [
        0.0,
        -0.0,
        0.5,
        1.5,
        2.5,
        0.49999999999999994,
        4_503_599_627_370_495.5, // the largest x.5 below 2⁵²
        TWO_52 - 1.0,
        TWO_52,
        TWO_52 + 1.0,
        TWO_52 + 2.0,
        9_007_199_254_740_992.0, // 2⁵³
        1.8446744073709552e19,   // 2⁶⁴: saturates
        1e30,
        -0.7,
        -0.5,
        -1e30,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    check("round_ns_matches_f64_round", |t| {
        let bits = t.draw(&gen::u64_any());
        let near = t.draw(&gen::f64_in(0.0, 1e7));
        let half = t.draw(&gen::u64_in(0..=1 << 53)) as f64 + 0.5;
        for x in EDGES
            .into_iter()
            .chain([f64::from_bits(bits), near, half, -near])
        {
            assert_eq!(round_ns(x), x.round() as u64, "at {x:e}");
        }
    });
}

/// The dispatch scan's phase-domain rotational wait against the
/// time-domain one, bit for bit: a start's phase advanced by a seek
/// (scaled, and up to ten revolutions long) prices every head of a
/// multi-head arm exactly as `rot` at `start + seek` does, at any
/// spindle speed — DRPM's speed shifts included.
#[test]
fn phase_domain_wait_matches_time_domain() {
    use intradisk::service::Mechanics;
    use intradisk::LatencyScaling;
    use simkit::SimDuration;
    check("phase_domain_wait_matches_time_domain", |t| {
        let rpm = t.draw(&gen::u32_in(3_000..=15_000));
        let mech = Mechanics::new(&presets::barracuda_es_750gb().with_rpm(rpm));
        let rot = mech.rotation();
        let start = SimTime::from_nanos(t.draw(&gen::u64_in(0..=1 << 50)));
        let seek_ns = t.draw(&gen::u64_in(0..=10 * rot.period().as_nanos()));
        let scale = t.draw(&gen::one_of(vec![1.0, 0.5, 0.25, 0.0, 1.7]));
        let heads = t.draw(&gen::u32_in(1..=4));
        let lba = t.draw(&gen::u64_in(0..=mech.geometry().total_sectors() - 1));
        let azimuth = t.draw(&gen::f64_in(0.0, 1.0));
        let scaling = LatencyScaling {
            seek: scale,
            rotational: scale,
        };
        let seek = SimDuration::from_nanos(seek_ns).scale(scale);
        let at = rot.advance(rot.phase(start), seek);
        assert_eq!(at, rot.phase(start + seek));
        let target = mech.target(lba);
        assert_eq!(
            mech.rot_at_phase(target, azimuth, heads, at, scaling),
            mech.rot(target, azimuth, heads, start + seek, scaling)
        );
    });
}
