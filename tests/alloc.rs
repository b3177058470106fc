//! The per-request loop does not allocate.
//!
//! A counting `#[global_allocator]` tallies the allocations (and
//! reallocations) made on the test's own thread while
//! `experiments::run_drive` replays a synthetic workload with streaming
//! stats. Set-up — the drive, its queues, the stats sketch, the source —
//! allocates a fixed amount; if any per-request step (dispatch scan,
//! cost model, calendar push/pop, stats record, source pull) allocated,
//! or any simulator state grew with run length, a run of 4N requests
//! would allocate more than a run of N. This pins the drive path only:
//! the array controller's `MappedRequest` allocates per request by
//! design.

// A global allocator has to implement the unsafe `GlobalAlloc` trait;
// the workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use experiments::configs::hcsd_params;
use intradisk::DriveConfig;
use simkit::stats::StatsMode;
use workload::SyntheticSpec;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
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

/// Allocations `run_drive` makes on this thread replaying `requests`
/// requests on SA(`actuators`) with streaming stats.
fn allocations(actuators: u32, requests: usize) -> u64 {
    let params = hcsd_params();
    let spec = SyntheticSpec::paper(6.0, params.capacity_sectors(), requests);
    let config = DriveConfig::sa(actuators).with_stats_mode(StatsMode::Streaming);
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let run = experiments::run_drive(&params, config, spec.source(42));
    COUNTING.with(|on| on.set(false));
    let run = run.expect("synthetic replay");
    assert_eq!(run.metrics.response_time_ms.count(), requests);
    COUNT.with(Cell::get)
}

#[test]
fn run_drive_allocations_do_not_grow_with_request_count() {
    const N: usize = 20_000;
    // The first run in a process also builds one-time tables.
    allocations(4, N);
    for actuators in [1, 4] {
        let short = allocations(actuators, N);
        let long = allocations(actuators, 4 * N);
        assert_eq!(
            short,
            long,
            "SA({actuators}): {short} allocations at {N} requests, {long} at {}",
            4 * N
        );
    }
}
