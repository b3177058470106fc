//! Shape-assertion suite: locks in the *qualitative findings* of every
//! figure of the paper, per the reproduction contract in DESIGN.md —
//! who wins, by roughly what factor, and where the crossovers fall.
//! Absolute numbers are not asserted (the substrate is a from-scratch
//! simulator, not the authors' DiskSim installation).

use experiments::{
    bottleneck, limit_study, raid_eval, rpm_study, sa_eval, BottleneckStudy, Executor, LimitStudy,
    RaidStudy, RpmStudy, SaStudy, Scale, Study,
};
use workload::WorkloadKind;

fn scale() -> Scale {
    Scale::quick() // 15k requests: enough for stable qualitative shapes
}

// Each helper drives its study through the parallel executor (2 jobs:
// the Study contract makes the result independent of the worker count,
// so these double as coverage of the work-stealing path).
fn exec() -> Executor {
    Executor::new(2)
}

fn limit_one(kind: WorkloadKind) -> limit_study::WorkloadComparison {
    let report = LimitStudy::only(kind)
        .run(scale(), &exec())
        .expect("replays cleanly");
    report.workloads.into_iter().next().expect("one workload")
}

fn bottleneck_one(kind: WorkloadKind) -> bottleneck::BottleneckResult {
    let report = BottleneckStudy::only(kind)
        .run(scale(), &exec())
        .expect("replays cleanly");
    report.workloads.into_iter().next().expect("one workload")
}

fn sa_one(kind: WorkloadKind) -> sa_eval::SaResult {
    let report = SaStudy::only(kind)
        .run(scale(), &exec())
        .expect("replays cleanly");
    report.workloads.into_iter().next().expect("one workload")
}

fn rpm_one(kind: WorkloadKind) -> rpm_study::RpmResult {
    let report = RpmStudy::only(kind)
        .run(scale(), &exec())
        .expect("replays cleanly");
    report.workloads.into_iter().next().expect("one workload")
}

fn raid_sweep(inter_arrival_ms: f64, scale: Scale) -> raid_eval::RaidSweep {
    let report = RaidStudy::only(inter_arrival_ms)
        .run(scale, &exec())
        .expect("replays cleanly");
    report.sweeps.into_iter().next().expect("one sweep")
}

// ---------------------------------------------------------------- Fig 2

#[test]
fn figure2_hcsd_severely_degrades_io_bound_workloads() {
    for kind in [
        WorkloadKind::Financial,
        WorkloadKind::Websearch,
        WorkloadKind::TpcC,
    ] {
        let w = limit_one(kind);
        let md = w.md.mean_ms;
        let hc = w.hcsd.mean_ms;
        assert!(
            hc > 1.8 * md,
            "{}: HC-SD mean {hc:.1} not well above MD {md:.1}",
            kind.name()
        );
    }
}

#[test]
fn figure2_tpch_sees_little_loss() {
    // §7.1: TPC-H's storage "is able to service I/O requests faster
    // than they arrive" — little performance loss on HC-SD.
    let w = limit_one(WorkloadKind::TpcH);
    let md = w.md.mean_ms;
    let hc = w.hcsd.mean_ms;
    assert!(
        hc < 1.6 * md,
        "TPC-H HC-SD mean {hc:.1} too far above MD {md:.1}"
    );
}

// ---------------------------------------------------------------- Fig 3

#[test]
fn figure3_order_of_magnitude_power_reduction() {
    for kind in WorkloadKind::ALL {
        let w = limit_one(kind);
        let ratio = w.md.power_w / w.hcsd.power_w;
        assert!(
            ratio > 4.0,
            "{}: MD/HC-SD power ratio only {ratio:.1}",
            kind.name()
        );
    }
    // The 24-disk Financial array specifically is an order of magnitude.
    let w = limit_one(WorkloadKind::Financial);
    assert!(w.md.power_w / w.hcsd.power_w > 10.0);
}

#[test]
fn figure3_md_power_is_idle_dominated() {
    // "a large fraction of the power in the MD configuration is
    // consumed when the disks are idle".
    for kind in WorkloadKind::ALL {
        let w = limit_one(kind);
        let p = w.md.modes();
        assert!(
            p.idle_w > p.seek_w + p.rotational_w + p.transfer_w,
            "{}: MD idle power {:.1} does not dominate {:?}",
            kind.name(),
            p.idle_w,
            p
        );
    }
}

// ---------------------------------------------------------------- Fig 4

#[test]
fn figure4_rotational_latency_is_primary_bottleneck() {
    for kind in WorkloadKind::ALL {
        let r = bottleneck_one(kind);
        assert!(
            r.rot_elimination_speedup() > r.seek_elimination_speedup(),
            "{}: rot speedup {:.2} vs seek speedup {:.2}",
            kind.name(),
            r.rot_elimination_speedup(),
            r.seek_elimination_speedup()
        );
    }
}

#[test]
fn figure4_quarter_rotational_latency_surpasses_md() {
    // "for Websearch, TPC-C, and TPC-H ... (1/4)R ... would allow us to
    // surpass the performance of even the MD system".
    for kind in [
        WorkloadKind::Websearch,
        WorkloadKind::TpcC,
        WorkloadKind::TpcH,
    ] {
        let r = bottleneck_one(kind);
        let quarter_r = r.rot_means[2];
        assert!(
            quarter_r <= r.md_mean_ms * 1.05,
            "{}: (1/4)R mean {quarter_r:.1} does not surpass MD {:.1}",
            kind.name(),
            r.md_mean_ms
        );
    }
}

#[test]
fn figure4_scaling_curves_are_ordered() {
    // Within each dimension, stronger scaling dominates in the CDF.
    let r = bottleneck_one(WorkloadKind::Websearch);
    for curves in [&r.seek_scaled, &r.rot_scaled] {
        for pair in curves.windows(2) {
            assert!(
                pair[1].dominates(&pair[0], 0.02),
                "stronger scaling should dominate"
            );
        }
    }
}

// ---------------------------------------------------------------- Fig 5

#[test]
fn figure5_actuators_monotonically_improve_every_workload() {
    for kind in WorkloadKind::ALL {
        let r = sa_one(kind);
        for w in r.means_ms.windows(2) {
            assert!(
                w[1] <= w[0] * 1.03,
                "{}: SA means not improving: {:?}",
                kind.name(),
                r.means_ms
            );
        }
    }
}

#[test]
fn figure5_websearch_and_tpcc_break_even_with_few_actuators() {
    for kind in [WorkloadKind::Websearch, WorkloadKind::TpcC] {
        let r = sa_one(kind);
        let n = r.break_even_actuators(1.15);
        assert!(
            matches!(n, Some(2..=4)),
            "{}: break-even at {n:?} actuators (means {:?} vs MD {:.1})",
            kind.name(),
            r.means_ms,
            r.md_mean_ms
        );
    }
}

#[test]
fn figure5_tpch_breaks_even_immediately_financial_never() {
    let h = sa_one(WorkloadKind::TpcH);
    assert!(
        matches!(h.break_even_actuators(1.15), Some(1..=2)),
        "TPC-H should break even by SA(2): {:?} vs {:.1}",
        h.means_ms,
        h.md_mean_ms
    );
    let f = sa_one(WorkloadKind::Financial);
    assert_eq!(
        f.break_even_actuators(1.15),
        None,
        "Financial must not break even within 4 actuators: {:?} vs {:.1}",
        f.means_ms,
        f.md_mean_ms
    );
}

#[test]
fn figure5_rotational_pdf_tail_shrinks_with_actuators() {
    // "increasing the number of arms from one to two substantially
    // shortens the tail of [the rotational-latency] distributions".
    for kind in [WorkloadKind::Websearch, WorkloadKind::TpcC] {
        let r = sa_one(kind);
        assert!(
            r.rot_means_ms[1] < r.rot_means_ms[0],
            "{}: rot mean did not shrink 1->2 arms: {:?}",
            kind.name(),
            r.rot_means_ms
        );
        // Diminishing returns beyond three assemblies.
        let gain_12 = r.rot_means_ms[0] - r.rot_means_ms[1];
        let gain_34 = r.rot_means_ms[2] - r.rot_means_ms[3];
        assert!(
            gain_34 < gain_12,
            "{}: no diminishing returns: {:?}",
            kind.name(),
            r.rot_means_ms
        );
    }
}

#[test]
fn figure6_sa_power_comparable_to_conventional_drive() {
    // "the power consumed by the intra-disk parallel configurations are
    // comparable to HC-SD" (within a few watts at 7200 RPM).
    for kind in WorkloadKind::ALL {
        let r = sa_one(kind);
        let base = r.power[0].total_w();
        for (i, p) in r.power.iter().enumerate() {
            let diff = (p.total_w() - base).abs();
            assert!(
                diff < 6.0,
                "{} SA({}): power {:.1} vs HC-SD {:.1}",
                kind.name(),
                i + 1,
                p.total_w(),
                base
            );
        }
    }
}

// ------------------------------------------------------------ Figs 6/7

#[test]
fn figure6_lower_rpm_cuts_power_below_conventional() {
    let r = rpm_one(WorkloadKind::TpcC);
    let hcsd_w = r.hcsd.power.total_w();
    let sa4_4200 = r
        .points
        .iter()
        .find(|p| p.actuators == 4 && p.rpm == 4200)
        .expect("swept point");
    assert!(
        sa4_4200.power.total_w() < hcsd_w * 0.65,
        "SA(4)/4200 power {:.1} not well below HC-SD {hcsd_w:.1}",
        sa4_4200.power.total_w()
    );
}

#[test]
fn figure7_tpch_has_reduced_rpm_break_even_designs() {
    let r = rpm_one(WorkloadKind::TpcH);
    let be = r.break_even_points(1.25);
    assert!(
        !be.is_empty(),
        "TPC-H must have reduced-RPM designs matching MD"
    );
    // And at least one of them is a sub-7200-RPM design.
    assert!(be.iter().any(|p| p.rpm < 7200), "no low-RPM break-even");
}

#[test]
fn figure7_more_actuators_offset_lower_rpm() {
    let r = rpm_one(WorkloadKind::Websearch);
    for rpm in rpm_study::RPMS {
        let sa2 = r.points.iter().find(|p| p.actuators == 2 && p.rpm == rpm);
        let sa4 = r.points.iter().find(|p| p.actuators == 4 && p.rpm == rpm);
        let (sa2, sa4) = (sa2.expect("point"), sa4.expect("point"));
        assert!(
            sa4.mean_ms <= sa2.mean_ms,
            "SA(4)/{rpm} {:.1} worse than SA(2)/{rpm} {:.1}",
            sa4.mean_ms,
            sa2.mean_ms
        );
    }
}

// ---------------------------------------------------------------- Fig 8

#[test]
fn figure8_parallel_arrays_need_fewer_disks() {
    let sweep = raid_sweep(4.0, Scale::quick().with_requests(8_000));
    // At every disk count, parallel members perform at least as well.
    for &d in &raid_eval::DISK_COUNTS {
        let p = |n: u32| {
            sweep
                .points
                .iter()
                .find(|p| p.member_actuators == n && p.disks == d)
                .expect("swept")
                .p90_ms
        };
        assert!(
            p(4) <= p(1) * 1.05,
            "{d} disks: SA(4) {} vs HC-SD {}",
            p(4),
            p(1)
        );
    }
    // And the iso-performance sets get smaller with more actuators.
    let iso = sweep.iso_performance(1.15);
    let disks_of = |n: u32| {
        iso.iter()
            .find(|p| p.member_actuators == n)
            .map(|p| p.disks)
    };
    if let (Some(c), Some(s4)) = (disks_of(1), disks_of(4)) {
        assert!(s4 <= c, "SA(4) iso config {s4} disks vs conventional {c}");
    }
}

#[test]
fn figure8_iso_performance_power_savings_in_paper_band() {
    // "the HC-SD-SA(2) and HC-SD-SA(4) arrays consume 41% and 60% less
    // power" under heavy load. Assert savings in a generous band.
    let sweep = raid_sweep(1.0, Scale::quick().with_requests(8_000));
    let iso = sweep.iso_performance(1.15);
    let total = |n: u32| {
        iso.iter()
            .find(|p| p.member_actuators == n)
            .map(|p| p.power.total_w())
    };
    if let (Some(conv), Some(sa2), Some(sa4)) = (total(1), total(2), total(4)) {
        let save2 = 1.0 - sa2 / conv;
        let save4 = 1.0 - sa4 / conv;
        assert!(
            (0.20..=0.75).contains(&save2),
            "SA(2) saving {save2:.2} out of band"
        );
        assert!(
            (0.35..=0.80).contains(&save4),
            "SA(4) saving {save4:.2} out of band"
        );
        assert!(save4 > save2, "SA(4) should save more than SA(2)");
    } else {
        panic!("iso-performance configurations missing: {iso:?}");
    }
}

#[test]
fn figure8_heavier_load_needs_more_disks() {
    let light = raid_sweep(8.0, Scale::quick().with_requests(6_000));
    let heavy = raid_sweep(1.0, Scale::quick().with_requests(6_000));
    // At 2 disks with conventional members, the heavy load must hurt.
    let p90 = |s: &raid_eval::RaidSweep| {
        s.points
            .iter()
            .find(|p| p.member_actuators == 1 && p.disks == 2)
            .expect("swept")
            .p90_ms
    };
    assert!(p90(&heavy) > 2.0 * p90(&light));
}
