//! The per-request loop does not allocate.
//!
//! A counting `#[global_allocator]` tallies the allocations (and
//! reallocations) made on the test's own thread while
//! `experiments::run_drive` or `experiments::run_array` replays a
//! synthetic workload with streaming stats. Set-up — the drives, their
//! queues, the controller's buffers, the stats sketches, the source —
//! allocates a fixed amount; if any per-request step (source pull,
//! request mapping, sub-request issue, dispatch scan, cost model,
//! calendar push/pop, stats record) allocated, or any simulator state
//! grew with run length, a run of 4N requests would allocate more than
//! a run of N. The single-drive case also runs SA(4) in
//! `OverlapMode::MultiChannel`, which keeps several requests in service
//! at once. The array cases replay a read/write mix, so RAID-5's
//! two-phase writes are on the measured path.
//!
//! A split replay (`experiments::SplitReplay`) works on two threads, so
//! its case counts every thread's allocations. It does that in a
//! process of its own, re-running this test binary with only that case,
//! where no other test allocates meanwhile.

// A global allocator has to implement the unsafe `GlobalAlloc` trait;
// the workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use array::Layout as Volume;
use diskmodel::presets;
use experiments::configs::hcsd_params;
use experiments::{NullObserver, SplitReplay};
use intradisk::{DriveConfig, OverlapMode};
use simkit::stats::StatsMode;
use workload::SyntheticSpec;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Set while every thread's allocations count, into `EVERY_COUNT`.
static EVERY_THREAD: AtomicBool = AtomicBool::new(false);
static EVERY_COUNT: AtomicU64 = AtomicU64::new(0);

fn note_allocation() {
    if EVERY_THREAD.load(Ordering::Relaxed) {
        EVERY_COUNT.fetch_add(1, Ordering::Relaxed);
    }
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when they can no longer be read.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's; the counting touches
// only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made on this thread while `replay` runs; `replay`
/// returns how many requests it completed, which must be `requests`.
fn allocations(requests: usize, replay: impl FnOnce() -> usize) -> u64 {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let completed = replay();
    COUNTING.with(|on| on.set(false));
    assert_eq!(completed, requests);
    COUNT.with(Cell::get)
}

/// Allocations `run_drive` makes replaying `requests` requests on
/// SA(`actuators`) in `overlap` mode with streaming stats.
fn drive_allocations(actuators: u32, overlap: OverlapMode, requests: usize) -> u64 {
    let params = hcsd_params();
    let spec = SyntheticSpec::paper(6.0, params.capacity_sectors(), requests);
    let config = DriveConfig::sa(actuators)
        .with_overlap(overlap)
        .with_stats_mode(StatsMode::Streaming);
    allocations(requests, || {
        let run = experiments::run_drive(&params, config, spec.source(42));
        run.expect("synthetic replay")
            .metrics
            .response_time_ms
            .count()
    })
}

/// Allocations `run_array` makes replaying `requests` requests (60%
/// reads) on a 4-disk array of conventional drives laid out per
/// `layout`, with streaming stats.
fn array_allocations(layout: Volume, requests: usize) -> u64 {
    let params = presets::array_drive_10k_19gb();
    let footprint = layout.logical_capacity(4, params.capacity_sectors());
    let spec = SyntheticSpec::paper(6.0, footprint, requests);
    let member = DriveConfig::conventional().with_stats_mode(StatsMode::Streaming);
    allocations(requests, || {
        let run = experiments::run_array(&params, member, 4, layout, spec.source(42));
        run.expect("synthetic replay").completed as usize
    })
}

#[test]
fn run_drive_allocations_do_not_grow_with_request_count() {
    const N: usize = 20_000;
    // The first run in a process also builds one-time tables.
    drive_allocations(4, OverlapMode::SingleArmMotion, N);
    for (actuators, overlap) in [
        (1, OverlapMode::SingleArmMotion),
        (4, OverlapMode::SingleArmMotion),
        (4, OverlapMode::MultiChannel),
    ] {
        let short = drive_allocations(actuators, overlap, N);
        let long = drive_allocations(actuators, overlap, 4 * N);
        assert_eq!(
            short,
            long,
            "SA({actuators}) {overlap:?}: {short} allocations at {N} requests, {long} at {}",
            4 * N
        );
    }
}

/// Asserts that a `layout` array allocates as often at N requests as
/// at 4N. N is large enough that both runs outlast the calendar's first
/// level-1 block (about 4.6 minutes of simulated time), where the wheel
/// first holds two coarse slots at once. Member queues, the in-flight
/// slab and the sub-request window grow in capacity steps up to each
/// run's peak; at this load both runs peak inside the same steps.
fn assert_array_allocations_flat(layout: Volume) {
    const N: usize = 50_000;
    // The first run in a process also builds one-time tables.
    array_allocations(layout, 1_000);
    let short = array_allocations(layout, N);
    let long = array_allocations(layout, 4 * N);
    assert_eq!(
        short,
        long,
        "{layout:?}: {short} allocations at {N} requests, {long} at {}",
        4 * N
    );
}

#[test]
fn striped_array_allocations_do_not_grow_with_request_count() {
    assert_array_allocations_flat(Volume::striped_default());
}

#[test]
fn raid5_array_allocations_do_not_grow_with_request_count() {
    assert_array_allocations_flat(Volume::raid5_default());
}

/// Allocations, on every thread, of a two-worker split replay of
/// `requests` requests on SA(4) with streaming stats.
fn split_allocations(requests: usize) -> u64 {
    let params = hcsd_params();
    let spec = SyntheticSpec::paper(6.0, params.capacity_sectors(), requests);
    let config = DriveConfig::sa(4).with_stats_mode(StatsMode::Streaming);
    EVERY_COUNT.store(0, Ordering::Relaxed);
    EVERY_THREAD.store(true, Ordering::Relaxed);
    let run = SplitReplay::new(2).run(&params, config, spec.source(42), &mut NullObserver);
    EVERY_THREAD.store(false, Ordering::Relaxed);
    let completed = run
        .expect("synthetic replay")
        .metrics
        .response_time_ms
        .count();
    assert_eq!(completed, requests);
    EVERY_COUNT.load(Ordering::Relaxed)
}

/// The split replay's case, run alone in a child process by
/// `split_replay_allocations_do_not_grow_with_request_count`: prints
/// its counts at N and 4N requests. Run with other tests, its counts
/// include theirs, so it asserts nothing itself.
#[test]
#[ignore = "run in a process of its own by split_replay_allocations_do_not_grow_with_request_count"]
fn split_replay_allocation_counts() {
    // Many segments at both counts: a scout segment every 21,504
    // requests. The first split run also builds one-time tables.
    const N: usize = 60_000;
    split_allocations(N);
    let short = split_allocations(N);
    let long = split_allocations(4 * N);
    println!("split-allocations {N} {short} {long}");
}

#[test]
fn split_replay_allocations_do_not_grow_with_request_count() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "split_replay_allocation_counts",
            "--exact",
            "--ignored",
            "--test-threads",
            "1",
            "--nocapture",
        ])
        .output()
        .expect("child test process runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child test failed:\n{stdout}");
    let counts: Vec<u64> = stdout
        .lines()
        .find_map(|l| l.split_once("split-allocations ").map(|(_, counts)| counts))
        .expect("child printed its counts")
        .split(' ')
        .map(|n| n.parse().expect("a count"))
        .collect();
    let (n, short, long) = (counts[0], counts[1], counts[2]);
    assert_eq!(
        short,
        long,
        "split SA(4): {short} allocations at {n} requests, {long} at {}",
        4 * n
    );
}
