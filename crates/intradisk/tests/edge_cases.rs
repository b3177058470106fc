//! Edge-case property tests for the cache and scheduler, driven by
//! `testkit` generators: empty queues, single-sector I/O, LBA ranges
//! that brush or cross the end of the disk, LRU residency bounds, and
//! write-invalidation coherence.

use diskmodel::presets;
use intradisk::cache::DEFAULT_SEGMENTS;
use intradisk::sched::{PendingQueue, ScanCost};
use intradisk::service::{ArmSet, Mechanics};
use intradisk::{
    simulate, DiskDrive, DriveConfig, IoKind, IoRequest, LatencyScaling, NullObserver, QueuePolicy,
    SegmentedCache,
};
use simkit::{SimDuration, SimTime};
use telemetry::NullRecorder;
use testkit::{check, gen, Gen};

fn arb_policy() -> Gen<QueuePolicy> {
    gen::one_of(vec![
        QueuePolicy::Fcfs,
        QueuePolicy::Sstf,
        QueuePolicy::Sptf,
    ])
}

fn arb_requests(max_len: usize) -> Gen<Vec<IoRequest>> {
    let req = Gen::new(|src| {
        let lba = gen::u64_in(0..=1_000_000).generate(src);
        let sectors = gen::u32_in(1..=256).generate(src);
        (lba, sectors)
    });
    gen::vec_of(req, 0..=max_len).map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lba, sectors))| {
                IoRequest::new(i as u64, SimTime::ZERO, lba, sectors, IoKind::Read)
            })
            .collect()
    })
}

// ------------------------------------------------------------------ cache

#[test]
fn cache_install_then_lookup_always_hits() {
    check("cache_install_then_lookup_always_hits", |t| {
        let mib = t.draw(&gen::u32_in(1..=64));
        let lba = t.draw(&gen::u64_in(0..=1_000_000_000));
        let sectors = t.draw(&gen::u32_in(1..=128));
        let mut c = SegmentedCache::new(mib);
        c.install(lba, sectors);
        assert!(
            c.lookup(lba, sectors),
            "freshly installed range must be resident"
        );
        // Single-sector probes inside the range hit too.
        assert!(c.lookup(lba, 1));
        assert!(c.lookup(lba + sectors as u64 - 1, 1));
    });
}

#[test]
fn cache_residency_never_exceeds_segment_count() {
    check("cache_residency_never_exceeds_segment_count", |t| {
        let ops = t.draw_silent(&gen::vec_of(
            Gen::new(|src| {
                let op = gen::u32_in(0..=2).generate(src);
                let lba = gen::u64_in(0..=100_000_000).generate(src);
                let sectors = gen::u32_in(1..=512).generate(src);
                (op, lba, sectors)
            }),
            0..=64,
        ));
        let mut c = SegmentedCache::new(8);
        let mut lookups = 0u64;
        for (op, lba, sectors) in ops {
            match op {
                0 => c.install(lba, sectors),
                1 => {
                    c.lookup(lba, sectors);
                    lookups += 1;
                }
                _ => c.invalidate(lba, sectors),
            }
            assert!(
                c.resident_segments() <= DEFAULT_SEGMENTS,
                "residency {} exceeds capacity",
                c.resident_segments()
            );
        }
        let (hits, misses) = c.stats();
        assert_eq!(hits + misses, lookups, "every lookup is a hit or a miss");
    });
}

#[test]
fn cache_zero_size_never_hits_and_holds_nothing() {
    check("cache_zero_size_never_hits_and_holds_nothing", |t| {
        let lba = t.draw(&gen::u64_in(0..=1_000_000));
        let sectors = t.draw(&gen::u32_in(1..=128));
        let mut c = SegmentedCache::new(0);
        c.install(lba, sectors);
        assert!(!c.lookup(lba, sectors));
        assert_eq!(c.resident_segments(), 0);
    });
}

#[test]
fn cache_write_invalidation_is_coherent() {
    check("cache_write_invalidation_is_coherent", |t| {
        let lba = t.draw(&gen::u64_in(0..=1_000_000_000));
        let sectors = t.draw(&gen::u32_in(1..=128));
        let mut c = SegmentedCache::new(8);
        c.install(lba, sectors);
        c.invalidate(lba, sectors);
        assert!(
            !c.lookup(lba, sectors),
            "a written-over range must not serve stale hits"
        );
    });
}

// -------------------------------------------------------------- scheduler

/// A Barracuda ES with `n` equally spaced arms parked over cylinder 0.
fn mechanics(n: u32) -> (Mechanics, ArmSet) {
    let mech = Mechanics::new(&presets::barracuda_es_750gb());
    let arms = ArmSet::from_arms(&mech.default_arms(n));
    (mech, arms)
}

/// Pops under `policy` with every arm eligible, positioning from t = 0.
fn pop(
    q: &mut PendingQueue,
    mech: &Mechanics,
    arms: &ArmSet,
    policy: QueuePolicy,
) -> Option<IoRequest> {
    let cost = ScanCost {
        mech,
        arms,
        heads: 1,
        start: SimTime::ZERO,
        scaling: LatencyScaling::none(),
    };
    q.pop_next(policy, &cost, |_| true, None).map(|(r, _)| r)
}

#[test]
fn queue_conserves_requests_under_every_policy() {
    check("queue_conserves_requests_under_every_policy", |t| {
        let reqs = t.draw_silent(&arb_requests(48));
        let policy = t.draw(&arb_policy());
        let window = t.draw(&gen::usize_in(1..=80));
        let (mech, arms) = mechanics(2);
        let mut q = PendingQueue::new(window, arms.len());
        for r in &reqs {
            q.push(*r);
        }
        assert_eq!(q.len(), reqs.len());
        let mut seen = std::collections::BTreeSet::new();
        while let Some(r) = pop(&mut q, &mech, &arms, policy) {
            assert!(seen.insert(r.id), "request {} popped twice", r.id);
        }
        assert_eq!(seen.len(), reqs.len(), "requests lost in the queue");
        // Empty-queue pops stay None and the queue stays consistent.
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(pop(&mut q, &mech, &arms, policy).is_none());
    });
}

#[test]
fn queue_fcfs_preserves_arrival_order() {
    check("queue_fcfs_preserves_arrival_order", |t| {
        let reqs = t.draw_silent(&arb_requests(32));
        let (mech, arms) = mechanics(1);
        let mut q = PendingQueue::new(64, arms.len());
        for r in &reqs {
            q.push(*r);
        }
        let mut popped = Vec::new();
        while let Some(r) = pop(&mut q, &mech, &arms, QueuePolicy::Fcfs) {
            popped.push(r.id);
        }
        let expect: Vec<u64> = (0..reqs.len() as u64).collect();
        assert_eq!(popped, expect, "FCFS must be arrival order");
    });
}

#[test]
fn queue_sptf_pops_cheapest_inside_window() {
    check("queue_sptf_pops_cheapest_inside_window", |t| {
        let reqs = t.draw_silent(&arb_requests(32));
        if reqs.is_empty() {
            return;
        }
        let (mech, arms) = mechanics(2);
        let mut q = PendingQueue::new(reqs.len(), arms.len());
        for r in &reqs {
            q.push(*r);
        }
        let cost = |r: &IoRequest| -> SimDuration {
            (0..arms.len())
                .map(|a| {
                    let (s, rot) = mech.positioning_at(
                        arms.cylinder(a),
                        arms.azimuth(a),
                        1,
                        r.lba,
                        SimTime::ZERO,
                        LatencyScaling::none(),
                    );
                    s + rot
                })
                .min()
                .expect("two arms")
        };
        let cheapest = reqs.iter().map(cost).min().expect("non-empty");
        let first = pop(&mut q, &mech, &arms, QueuePolicy::Sptf).expect("non-empty queue");
        assert_eq!(
            cost(&first),
            cheapest,
            "SPTF with a full window must pick the global minimum"
        );
    });
}

// --------------------------------------------- drive-level LBA edge cases

#[test]
fn drive_services_single_sector_and_end_of_disk_requests() {
    check(
        "drive_services_single_sector_and_end_of_disk_requests",
        |t| {
            let params = presets::barracuda_es_750gb();
            let cap = params.capacity_sectors();
            let actuators = t.draw(&gen::u32_in(1..=4));
            // A mix of single-sector I/Os and ranges that start so close to
            // the end of the disk that they wrap past the last LBA.
            let n = t.draw(&gen::usize_in(1..=12));
            let mut reqs = Vec::new();
            for id in 0..n as u64 {
                let near_end = t.draw_silent(&gen::bool_any());
                let lba = if near_end {
                    cap - 1 - t.draw_silent(&gen::u64_in(0..=255))
                } else {
                    t.draw_silent(&gen::u64_in(0..=cap - 1))
                };
                let sectors = if near_end {
                    // Deliberately allowed to run past the end of the disk.
                    t.draw_silent(&gen::u32_in(1..=512))
                } else {
                    1
                };
                let kind = if t.draw_silent(&gen::bool_any()) {
                    IoKind::Read
                } else {
                    IoKind::Write
                };
                reqs.push(IoRequest::new(
                    id,
                    SimTime::from_millis(id as f64),
                    lba,
                    sectors,
                    kind,
                ));
            }
            let drive = DiskDrive::new(&params, DriveConfig::sa(actuators));
            let r =
                simulate(reqs, drive, &mut NullRecorder, &mut NullObserver).expect("valid replay");
            assert_eq!(r.metrics.completed, n as u64, "every request must complete");
            // Causality: no request completes before it arrives.
            assert!(
                r.metrics.response_time_ms.min() >= 0.0,
                "completed before arrival"
            );
        },
    );
}
