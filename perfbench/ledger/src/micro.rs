//! Per-call host cost of the cost model, the geometry and the stats
//! recorders, measured on a workload's own requests and completions.
//!
//! Each call costs well under a microsecond, so every measurement times
//! a whole batch (one pass over the requests) and divides.

use std::hint::black_box;
use std::time::Instant;

use diskmodel::DiskParams;
use intradisk::service::{ArmSet, Mechanics};
use intradisk::{ArmPlacement, CompletedIo, DriveMetrics, IoRequest, LatencyScaling};
use simkit::{SimTime, StatsMode};

use crate::timing::{median_over_rounds, ratio};

/// Arm assemblies of the arm set the cost model is evaluated against.
const ARMS: u32 = 4;

/// Per-call host cost of each measured function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Micro {
    /// `Geometry::locate`, ns.
    pub locate_ns: f64,
    /// `Geometry::segments`, ns.
    pub segments_ns: f64,
    /// `Mechanics::positioning_at`, ns.
    pub positioning_ns: f64,
    /// `Mechanics::plan_set_with_heads`, ns.
    pub plan_ns: f64,
    /// `Mechanics::transfer_time`, ns.
    pub transfer_ns: f64,
    /// `DriveMetrics::record` in exact mode, ns.
    pub record_exact_ns: f64,
    /// `DriveMetrics::record` in streaming mode, ns.
    pub record_stream_ns: f64,
    /// `DriveMetrics::finalize` after the exact replay, ms.
    pub finalize_ms: f64,
}

/// One request as the drive sees it: address wrapped to the capacity.
#[derive(Debug, Clone, Copy)]
struct Access {
    lba: u64,
    sectors: u32,
    start: SimTime,
}

/// Times every function on `requests` (the cost model, against an SA(4)
/// arm set that moves as the plans dictate) and on `completions` (the
/// stats recorders), spending about `budget_s` seconds per function.
pub fn measure(
    params: &DiskParams,
    requests: &[IoRequest],
    completions: &[CompletedIo],
    budget_s: f64,
) -> Micro {
    let mech = Mechanics::new(params);
    let geo = mech.geometry();
    let capacity = geo.total_sectors();
    let accesses: Vec<Access> = requests
        .iter()
        .map(|r| Access {
            lba: r.lba % capacity,
            sectors: r.sectors,
            start: r.arrival,
        })
        .collect();
    let n = accesses.len() as f64;
    let none = LatencyScaling::none();
    let initial = ArmSet::from_arms(&mech.arms_with_placement(ARMS, &ArmPlacement::EquallySpaced));

    // The arm cylinders before each access, as a plan-driven dispatch
    // would leave them.
    let mut arms = initial.clone();
    let mut before: Vec<[u32; ARMS as usize]> = Vec::with_capacity(accesses.len());
    for a in &accesses {
        before.push(std::array::from_fn(|i| arms.cylinder(i)));
        let plan = mech
            .plan_set_with_heads(&arms, 1, a.lba, a.sectors, a.start, none)
            .expect("the arm set has live arms");
        arms.set_cylinder(plan.actuator as usize, plan.end_cylinder);
    }

    let per_call = |calls: f64, f: &mut dyn FnMut()| {
        median_over_rounds(3, budget_s, || {
            let t = Instant::now();
            f();
            ratio(t.elapsed().as_nanos() as f64, calls)
        })
    };

    let locate_ns = per_call(n, &mut || {
        for a in &accesses {
            black_box(geo.locate(black_box(a.lba)));
        }
    });
    let segments_ns = per_call(n, &mut || {
        for a in &accesses {
            black_box(geo.segments(black_box(a.lba), a.sectors));
        }
    });
    let transfer_ns = per_call(n, &mut || {
        for a in &accesses {
            black_box(mech.transfer_time(black_box(a.lba), a.sectors));
        }
    });
    let positioning_ns = per_call(n * f64::from(ARMS), &mut || {
        for (a, cyl) in accesses.iter().zip(&before) {
            for (i, &c) in cyl.iter().enumerate() {
                black_box(mech.positioning_at(
                    c,
                    initial.azimuth(i),
                    1,
                    black_box(a.lba),
                    a.start,
                    none,
                ));
            }
        }
    });
    let plan_ns = per_call(n, &mut || {
        let mut arms = initial.clone();
        for a in &accesses {
            if let Ok(plan) =
                mech.plan_set_with_heads(&arms, 1, black_box(a.lba), a.sectors, a.start, none)
            {
                arms.set_cylinder(plan.actuator as usize, plan.end_cylinder);
            }
        }
        black_box(arms);
    });

    let m = completions.len() as f64;
    let replay = |mode: StatsMode| {
        let mut metrics = DriveMetrics::with_mode(ARMS, mode);
        for c in completions {
            metrics.record(black_box(c));
        }
        metrics
    };
    let record_exact_ns = per_call(m, &mut || {
        black_box(replay(StatsMode::Exact));
    });
    let record_stream_ns = per_call(m, &mut || {
        black_box(replay(StatsMode::Streaming));
    });
    let finalize_ms = median_over_rounds(3, budget_s, || {
        let mut metrics = replay(StatsMode::Exact);
        let t = Instant::now();
        metrics.finalize();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        black_box(metrics);
        ms
    });

    Micro {
        locate_ns,
        segments_ns,
        positioning_ns,
        plan_ns,
        transfer_ns,
        record_exact_ns,
        record_stream_ns,
        finalize_ms,
    }
}
