//! Event-kernel throughput: steady-state requests/sec through the
//! calendar + slab pool, heap baseline vs timing wheel.
//!
//! The scenario is open-loop on purpose: all arrivals are prescheduled
//! into the calendar up front, so the queue holds a large pending
//! population (6k or 100k events) for the whole run — the regime
//! ROADMAP item 1 cares about (10⁸-request studies keep that many
//! events in flight across a sweep). A binary heap pays O(log n) with a
//! cache miss per level there; the wheel pays O(1). Closed-loop runs
//! with a handful of pending events sit at parity.
//!
//! Each popped arrival checks request state out of a [`Slab`], draws an
//! exponential service time on one of `servers` SA-style servers, and
//! schedules the completion; each popped completion recycles the slot
//! and records the response time in a [`StreamingHistogram`] (O(1) per
//! sample — a sorting [`Summary`] would bill O(n log n) of stats work
//! to the kernel). The 6k runs also feed an exact [`Summary`] and
//! cross-check the streaming moments against it, so the fast path is
//! oracled by the exact one.
//!
//! Run with `--quick` (via `cargo bench -p bench --bench kernel --
//! --quick`) to get only the SA(4)/100k pair at reduced sample count —
//! the floor gate `scripts/verify.sh` uses.

use bench::bench;
use simkit::stats::Summary;
use simkit::{
    Calendar, Exponential, HeapEventQueue, Rng64, Sample, SimDuration, SimTime, Slab,
    StreamingHistogram, WheelEventQueue,
};
use std::hint::black_box;

/// One calendar payload: a request arriving or a service completing.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival { id: u64 },
    Done { slot: simkit::SlotId },
}

/// Per-request state parked in the slab while the request is in service.
#[derive(Debug, Clone, Copy)]
struct InService {
    arrival: SimTime,
}

/// The open-loop workload: arrival instants and per-request service
/// durations, drawn once per scenario *outside* the timed region so the
/// bench bills calendar/pool/stats work, not `ln()` calls.
struct Workload {
    arrivals: Vec<SimTime>,
    service: Vec<SimDuration>,
}

impl Workload {
    fn generate(n: u64, servers: usize) -> Workload {
        let mut rng = Rng64::new(42);
        let gaps = Exponential::with_mean(4.0 / servers as f64 * 1.1);
        let service = Exponential::with_mean(4.0);
        let mut t = SimTime::ZERO;
        let arrivals = (0..n)
            .map(|_| {
                t += SimDuration::from_millis(gaps.sample(&mut rng));
                t
            })
            .collect();
        let service = (0..n)
            .map(|_| SimDuration::from_millis(service.sample(&mut rng)))
            .collect();
        Workload { arrivals, service }
    }
}

struct KernelRun {
    completed: u64,
    response_ms: StreamingHistogram,
    /// Exact-mode oracle, only populated when `exact` is requested.
    exact_ms: Option<Summary>,
}

/// Replays the open-loop workload over `servers` SA-style servers
/// through `queue`, returning the completion count and response stats.
fn run_kernel<Q: Calendar<Ev>>(
    mut queue: Q,
    w: &Workload,
    servers: usize,
    exact: bool,
) -> KernelRun {
    // Preschedule every arrival: the pending population stays ~n while
    // the run drains, which is the regime under test.
    for (id, &t) in w.arrivals.iter().enumerate() {
        queue.push(t, Ev::Arrival { id: id as u64 });
    }

    let mut pool: Slab<InService> = Slab::with_capacity(64);
    let mut free_at = vec![SimTime::ZERO; servers];
    let mut response_ms = StreamingHistogram::new();
    let mut exact_ms = exact.then(Summary::new);
    let mut completed = 0u64;
    while let Some(ev) = queue.pop() {
        match ev.payload {
            Ev::Arrival { id } => {
                let server = (id as usize) % servers;
                let slot = pool.insert(InService { arrival: ev.time });
                let start = ev.time.max(free_at[server]);
                let finish = start + w.service[id as usize];
                free_at[server] = finish;
                queue.push(finish, Ev::Done { slot });
            }
            Ev::Done { slot } => {
                let req = pool.remove(slot).expect("completion for a live request");
                let resp = ev.time.saturating_since(req.arrival).as_millis();
                response_ms.record(resp);
                if let Some(s) = exact_ms.as_mut() {
                    s.record(resp);
                }
                completed += 1;
            }
        }
    }
    assert!(pool.is_empty(), "every checkout recycled");
    KernelRun {
        completed,
        response_ms,
        exact_ms,
    }
}

/// Asserts the streaming histogram agrees with the exact summary on the
/// small run — the bounded-relative-error contract, checked in-loop so
/// the bench can't silently measure a broken stats path.
fn check_exact_oracle(run: &KernelRun) {
    let exact = run.exact_ms.as_ref().expect("exact mode requested");
    assert_eq!(exact.count() as u64, run.response_ms.count());
    let exact_mean = exact.mean();
    let stream_mean = run.response_ms.mean();
    let rel = (stream_mean - exact_mean).abs() / exact_mean.max(1e-12);
    assert!(
        rel <= 0.02,
        "streaming mean {stream_mean} vs exact {exact_mean} (rel err {rel})"
    );
}

fn scenario(name: &str, n: u64, servers: usize, warmup: usize, samples: usize) {
    let w = Workload::generate(n, servers);
    // Exact-mode oracle once per scenario at the small scale (and only
    // outside the timed region — the point is to bench the kernel).
    if n <= 6_000 {
        check_exact_oracle(&run_kernel(WheelEventQueue::new(), &w, servers, true));
        check_exact_oracle(&run_kernel(HeapEventQueue::new(), &w, servers, true));
    }
    let heap = bench(&format!("{name}_heap"), warmup, samples, || {
        black_box(
            run_kernel(
                HeapEventQueue::with_capacity(n as usize),
                &w,
                servers,
                false,
            )
            .completed,
        )
    });
    let wheel = bench(&format!("{name}_wheel"), warmup, samples, || {
        black_box(run_kernel(WheelEventQueue::with_capacity(64), &w, servers, false).completed)
    });
    let rps = |median_ns: f64| n as f64 / (median_ns * 1e-9);
    eprintln!(
        "# {name}: heap {:.0} req/s, wheel {:.0} req/s, speedup {:.2}x",
        rps(heap.median_ns),
        rps(wheel.median_ns),
        heap.median_ns / wheel.median_ns
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        scenario("kernel_sa4_100k", 100_000, 4, 1, 5);
        return;
    }
    scenario("kernel_sa1_6k", 6_000, 1, 2, 9);
    scenario("kernel_sa4_6k", 6_000, 4, 2, 9);
    scenario("kernel_sa1_100k", 100_000, 1, 2, 9);
    scenario("kernel_sa4_100k", 100_000, 4, 2, 9);
    // Scaling row: the heap's O(log n) keeps decaying with pending
    // population while the wheel stays flat — this is the regime the
    // ROADMAP's 10⁸-request studies live in.
    scenario("kernel_sa4_1m", 1_000_000, 4, 1, 7);
}
