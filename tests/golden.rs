//! Golden-regression suite: pins the paper's *replicated numbers* with
//! explicit tolerances, using `testkit::golden`.
//!
//! Where `tests/shapes.rs` locks in qualitative findings (who wins, by
//! roughly what factor), this suite asserts the calibration targets the
//! reproduction promises in DESIGN.md:
//!
//! * the seek curve passes through the Barracuda ES datasheet points
//!   (0.8 / 8.5 / 17.0 ms) and its random-seek mean lands near the
//!   quoted 8.5 ms average,
//! * rotational latency is bounded by one revolution and averages T/2
//!   for one head — and T/2k for k equally spaced assemblies,
//! * the power model reproduces Table 1's published power column,
//! * the HC-SD-SA(n) service-time curve improves monotonically with n
//!   and brackets the MD reference the way Figure 5 shows.
//!
//! Every tolerance is explicit at the assertion site; a drift outside
//! the band is a calibration regression, not noise.

use diskmodel::{power, presets, PowerModel, RotationModel, SeekProfile};
use experiments::{limit_study, sa_eval, Executor, LimitStudy, SaStudy, Scale, Study};
use simkit::{Rng64, SimTime};
use testkit::golden::{assert_monotone_nonincreasing, assert_rel, assert_strictly_increasing};
use workload::WorkloadKind;

fn scale() -> Scale {
    Scale::quick().with_requests(6_000)
}

fn sa_one(kind: WorkloadKind) -> sa_eval::SaResult {
    let report = SaStudy::only(kind)
        .run(scale(), &Executor::serial())
        .expect("replays cleanly");
    report.workloads.into_iter().next().expect("one workload")
}

fn limit_one(kind: WorkloadKind) -> limit_study::WorkloadComparison {
    let report = LimitStudy::only(kind)
        .run(scale(), &Executor::serial())
        .expect("replays cleanly");
    report.workloads.into_iter().next().expect("one workload")
}

// ------------------------------------------------------------- seek curve

#[test]
fn golden_seek_curve_hits_datasheet_calibration_points() {
    // Barracuda ES: 0.8 ms single-cylinder, 8.5 ms average (one-third
    // stroke), 17.0 ms full stroke over 120 000 cylinders.
    let params = presets::barracuda_es_750gb();
    let profile = SeekProfile::new(&params);
    let max = params.cylinders() - 1;
    let boundary = max / 3;
    assert_rel("seek(1)", profile.seek_time(1).as_millis(), 0.8, 1e-6);
    assert_rel(
        "seek(stroke/3)",
        profile.seek_time(boundary).as_millis(),
        8.5,
        1e-6,
    );
    assert_rel("seek(full)", profile.seek_time(max).as_millis(), 17.0, 1e-6);
}

#[test]
fn golden_seek_curve_random_mean_matches_quoted_average() {
    // The datasheet's "8.5 ms avg" is the one-third-stroke convention;
    // the true uniform-random mean lands within 15% of it.
    let profile = SeekProfile::new(&presets::barracuda_es_750gb());
    assert_rel(
        "mean random seek",
        profile.mean_random_seek().as_millis(),
        8.5,
        0.15,
    );
}

#[test]
fn golden_seek_curve_monotone_and_continuous_at_regime_boundary() {
    let params = presets::barracuda_es_750gb();
    let profile = SeekProfile::new(&params);
    let max = params.cylinders() - 1;
    let mut prev = 0.0;
    for d in (1..=max).step_by(997) {
        let t = profile.seek_time(d).as_millis();
        assert!(t >= prev, "seek curve dips at distance {d}: {t} < {prev}");
        prev = t;
    }
    // The sqrt and affine regimes meet at one-third stroke with no jump.
    let boundary = max / 3;
    let below = profile.seek_time(boundary - 1).as_millis();
    let at = profile.seek_time(boundary).as_millis();
    assert!(
        (at - below).abs() < 0.05,
        "discontinuity at boundary: {below} -> {at}"
    );
}

// --------------------------------------------------------------- rotation

#[test]
fn golden_rotation_period_and_latency_bounds() {
    // 7200 RPM: one revolution every 60 000 / 7200 = 8.333 ms. Any
    // rotational wait is strictly below one period, and the mean wait
    // for a single head over random sector angles is half a period.
    let rot = RotationModel::new(&presets::barracuda_es_750gb());
    assert_rel("rotation period", rot.period().as_millis(), 8.3333, 1e-3);
    let period_ms = rot.period().as_millis();
    let mut rng = Rng64::new(0xD15C);
    let mut acc = 0.0;
    const N: usize = 10_000;
    for _ in 0..N {
        let angle = rng.f64();
        let now = SimTime::from_nanos(rng.below(1_000_000_000));
        let wait = rot.wait_until_under(angle, 0.0, now).as_millis();
        assert!(wait < period_ms, "wait {wait} >= period {period_ms}");
        acc += wait;
    }
    assert_rel(
        "mean rotational latency (1 head)",
        acc / N as f64,
        period_ms / 2.0,
        0.02,
    );
}

#[test]
fn golden_equally_spaced_assemblies_divide_rotational_latency() {
    // With k assemblies at azimuths i/k, the wait to the *nearest*
    // assembly averages T/2k — the paper's core rotational argument.
    let rot = RotationModel::new(&presets::barracuda_es_750gb());
    let period_ms = rot.period().as_millis();
    let mut rng = Rng64::new(0xA2);
    for k in [2u32, 4] {
        let mut acc = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let angle = rng.f64();
            let now = SimTime::from_nanos(rng.below(1_000_000_000));
            let best = (0..k)
                .map(|i| {
                    rot.wait_until_under(angle, RotationModel::assembly_azimuth(i, k), now)
                        .as_millis()
                })
                .fold(f64::INFINITY, f64::min);
            acc += best;
        }
        assert_rel(
            &format!("mean rotational latency ({k} heads)"),
            acc / N as f64,
            period_ms / (2.0 * k as f64),
            0.05,
        );
    }
}

// ------------------------------------------------------------ power model

#[test]
fn golden_power_barracuda_calibration() {
    // Table 1 / §3: idle ≈ 9.3 W, operating ≈ 13 W, and the
    // hypothetical 4-actuator worst case ≈ 34 W.
    let p = PowerModel::new(&presets::barracuda_es_750gb());
    assert_rel("barracuda idle", p.idle_w(), 9.3, 0.05);
    assert_rel("barracuda operating", p.operating_w(), 13.0, 0.08);
    assert_rel("barracuda peak(4)", p.peak_w(4), 34.0, 0.05);
}

#[test]
fn golden_power_table1_historical_drives() {
    // Table 1's published power column: CP3100 ≈ 10 W, M2361A ≈ 640 W,
    // IBM 3380 ≈ 6 600 W per box (4 actuators at datasheet duty).
    assert_rel(
        "CP3100 operating",
        PowerModel::new(&presets::conner_cp3100()).operating_w(),
        10.0,
        0.15,
    );
    assert_rel(
        "M2361A operating",
        PowerModel::new(&presets::fujitsu_m2361a()).operating_w(),
        640.0,
        0.15,
    );
    let p3380 = PowerModel::new(&presets::ibm_3380_ak4());
    let box_w = p3380.idle_w() + 4.0 * p3380.vcm_w() * power::OPERATING_SEEK_DUTY;
    assert_rel("IBM 3380 box", box_w, 6600.0, 0.15);
}

#[test]
fn golden_power_mode_ordering() {
    // idle < transfer < seek(1) < seek(2): each activity adds power.
    let p = PowerModel::new(&presets::barracuda_es_750gb());
    assert_strictly_increasing(
        "power modes",
        &[p.idle_w(), p.transfer_w(), p.seek_w(1), p.seek_w(2)],
    );
    assert_rel(
        "rotational wait draws idle power",
        p.rotational_wait_w(),
        p.idle_w(),
        1e-12,
    );
}

// --------------------------------------------- service-time curve (Fig 5)

#[test]
fn golden_sa_curve_improves_toward_md() {
    // Figure 5: mean service time is non-increasing in the actuator
    // count, and the MD reference outperforms the single-actuator
    // HC-SD baseline it replaces.
    let r = sa_one(WorkloadKind::TpcC);
    assert_monotone_nonincreasing("SA(n) means", &r.means_ms, 0.03);
    assert_monotone_nonincreasing("SA(n) rotational means", &r.rot_means_ms, 0.03);
    assert!(
        r.md_mean_ms < r.means_ms[0],
        "MD mean {:.2} should beat HC-SD {:.2}",
        r.md_mean_ms,
        r.means_ms[0]
    );
}

#[test]
fn golden_limit_study_orderings() {
    // Figure 2/3 headline: HC-SD is slower than MD but an order of
    // magnitude cheaper in power.
    let w = limit_one(WorkloadKind::TpcC);
    let md = w.md.mean_ms;
    let hc = w.hcsd.mean_ms;
    assert!(hc > md, "HC-SD mean {hc:.2} not above MD {md:.2}");
    assert!(
        w.md.power_w > 4.0 * w.hcsd.power_w,
        "MD power {:.1} not well above HC-SD {:.1}",
        w.md.power_w,
        w.hcsd.power_w
    );
}
