//! Copies of `experiments::run_drive` and `experiments::run_array`
//! with host-time spans around each call into a layer.
//!
//! In the drive loop `TRACE = false` compiles the spans away, which
//! gives the untraced wall time the observer effect is measured against.
//! Both loops pull requests in batches (one span per batch, since a single pull
//! costs less than reading the clock); the requests and their order are
//! the same as the one-at-a-time pull in the originals, so the replicas
//! must reproduce the originals' results bit for bit, which
//! [`RunFingerprint`] checks.

use std::time::Instant;

use array::{ArrayController, Layout};
use diskmodel::{DiskParams, DriveError};
use experiments::{ArrayRunResult, DriveRunResult};
use intradisk::failure::FailureSchedule;
use intradisk::{CompletedIo, DiskDrive, DriveConfig, IoRequest};
use simkit::{EventQueue, SimTime};
use workload::RequestSource;

use crate::timing::Acc;

/// Requests pulled per timed batch.
const PULL_BATCH: usize = 1024;

/// Host time per layer call in one replica run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    /// `RequestSource::next_request`, per request.
    pub pull: Acc,
    /// `DiskDrive::submit` or `ArrayController::submit`.
    pub submit: Acc,
    /// `DiskDrive::complete` or `ArrayController::on_disk_complete`.
    pub complete: Acc,
    /// `EventQueue::push` (array loop only).
    pub push: Acc,
    /// `EventQueue::pop` (array loop only).
    pub pop: Acc,
}

/// The bits a replica must share with the original run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFingerprint {
    completed: u64,
    mean_bits: u64,
    p90_bits: u64,
    duration_ns: u64,
    power_bits: u64,
}

impl RunFingerprint {
    /// Fingerprint of a single-drive run.
    pub fn of_drive(r: &DriveRunResult) -> Self {
        RunFingerprint {
            completed: r.metrics.completed,
            mean_bits: r.metrics.response_time_ms.mean().to_bits(),
            p90_bits: r.p90_ms().to_bits(),
            duration_ns: r.duration.as_nanos(),
            power_bits: r.power.total_w().to_bits(),
        }
    }

    /// Fingerprint of an array run.
    pub fn of_array(r: &ArrayRunResult) -> Self {
        RunFingerprint {
            completed: r.completed,
            mean_bits: r.response_time_ms.mean().to_bits(),
            p90_bits: r.p90_ms().to_bits(),
            duration_ns: r.duration.as_nanos(),
            power_bits: r.power.total_w().to_bits(),
        }
    }
}

/// A source drained in batches.
struct Batched<S> {
    source: S,
    buf: Vec<IoRequest>,
    pos: usize,
    exhausted: bool,
    pulled: u64,
}

impl<S: RequestSource> Batched<S> {
    fn new(source: S) -> Self {
        Batched {
            source,
            buf: Vec::with_capacity(PULL_BATCH),
            pos: 0,
            exhausted: false,
            pulled: 0,
        }
    }

    #[inline]
    fn next<const TRACE: bool>(&mut self, acc: &mut Acc) -> Option<IoRequest> {
        if self.pos == self.buf.len() {
            if self.exhausted {
                return None;
            }
            self.buf.clear();
            self.pos = 0;
            let t = TRACE.then(Instant::now);
            while self.buf.len() < PULL_BATCH {
                match self.source.next_request() {
                    Some(r) => self.buf.push(r),
                    None => {
                        self.exhausted = true;
                        break;
                    }
                }
            }
            if let Some(t) = t {
                acc.add(t, self.buf.len() as u64);
            }
            self.pulled += self.buf.len() as u64;
        }
        let r = self.buf.get(self.pos).copied();
        self.pos += 1;
        r
    }
}

/// One replica run of the single-drive loop.
#[derive(Debug)]
pub struct DriveReplica {
    /// What `experiments::run_drive` returns.
    pub result: DriveRunResult,
    /// Host time per layer call (zero when untraced).
    pub spans: Spans,
    /// Requests pulled from the source.
    pub pulled: u64,
    /// The first completions, in completion order.
    pub captured: Vec<CompletedIo>,
    /// Host seconds for the whole loop.
    pub wall_s: f64,
}

/// The loop of `experiments::run_drive_observed` with no recorder, no
/// observer and an empty failure schedule, keeping the first `capture`
/// completions.
pub fn run_drive<const TRACE: bool>(
    params: &DiskParams,
    config: DriveConfig,
    source: impl RequestSource,
    capture: usize,
) -> Result<DriveReplica, DriveError> {
    let start = Instant::now();
    let mut spans = Spans::default();
    let mut captured = Vec::with_capacity(capture);
    let mut source = Batched::new(source);
    let mut failures = FailureSchedule::new();
    let mut drive = DiskDrive::new(params, config);
    let mut completion: Option<SimTime> = None;
    let mut end = SimTime::ZERO;
    let mut pending = source.next::<TRACE>(&mut spans.pull);
    loop {
        let take_arrival = match (pending.map(|r| r.arrival), completion) {
            (None, None) => break,
            (Some(a), Some(c)) => a <= c,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if take_arrival {
            let r = pending.take().expect("arrival pending");
            pending = source.next::<TRACE>(&mut spans.pull);
            failures.apply_due(&mut drive, r.arrival);
            end = end.max(r.arrival);
            let t = TRACE.then(Instant::now);
            let started = drive.submit(r, r.arrival)?;
            if let Some(t) = t {
                spans.submit.add(t, 1);
            }
            if let Some(f) = started {
                completion = Some(f);
            }
        } else {
            let c = completion.expect("completion pending");
            failures.apply_due(&mut drive, c);
            let t = TRACE.then(Instant::now);
            let (done, next) = drive.complete(c)?;
            if let Some(t) = t {
                spans.complete.add(t, 1);
            }
            end = end.max(done.completed);
            completion = next;
            if captured.len() < capture {
                captured.push(done);
            }
        }
    }
    drive.finalize(end);
    let result = DriveRunResult {
        power: drive.power_breakdown(),
        metrics: drive.metrics().clone(),
        duration: end.saturating_since(SimTime::ZERO),
        queue_peak: drive.queue_peak(),
    };
    drop(drive);
    Ok(DriveReplica {
        result,
        spans,
        pulled: source.pulled,
        captured,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// One traced replica run of the array loop.
#[derive(Debug)]
pub struct ArrayReplica {
    /// What `experiments::run_array` returns.
    pub result: ArrayRunResult,
    /// Host time per layer call.
    pub spans: Spans,
    /// Host seconds for the whole loop.
    pub wall_s: f64,
}

/// The loop of `experiments::run_array_traced` with no recorder, with
/// spans around every call into the array and the event queue.
pub fn run_array(
    params: &DiskParams,
    member: DriveConfig,
    disks: usize,
    layout: Layout,
    source: impl RequestSource,
) -> Result<ArrayReplica, DriveError> {
    let start = Instant::now();
    let mut spans = Spans::default();
    let mut source = Batched::new(source);
    let mut array = ArrayController::new(params, member, disks, layout);
    let mut events: EventQueue<usize> = EventQueue::with_capacity(64);
    let mut end = SimTime::ZERO;
    let mut push = |events: &mut EventQueue<usize>, at: SimTime, disk: usize| {
        let t = Instant::now();
        events.push(at, disk);
        spans.push.add(t, 1);
    };
    let mut pending = source.next::<true>(&mut spans.pull);
    loop {
        let take_arrival = match (pending.map(|r| r.arrival), events.peek_time()) {
            (None, None) => break,
            (Some(a), Some(e)) => a <= e,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if take_arrival {
            let r = pending.take().expect("arrival pending");
            pending = source.next::<true>(&mut spans.pull);
            end = end.max(r.arrival);
            let t = Instant::now();
            let started = array.submit(r, r.arrival)?;
            spans.submit.add(t, 1);
            for (disk, at) in started {
                push(&mut events, at, disk);
            }
        } else {
            let t = Instant::now();
            let ev = events.pop().expect("event pending");
            spans.pop.add(t, 1);
            end = end.max(ev.time);
            let t = Instant::now();
            let out = array.on_disk_complete(ev.payload, ev.time)?;
            spans.complete.add(t, 1);
            if let Some(at) = out.next_on_disk {
                push(&mut events, at, ev.payload);
            }
            for (disk, at) in out.started {
                push(&mut events, at, disk);
            }
        }
    }
    array.finalize(end);
    let m = array.metrics();
    let result = ArrayRunResult {
        response_time_ms: m.response_time_ms.clone(),
        response_hist: m.response_hist.clone(),
        power: array.power_breakdown(),
        duration: end.saturating_since(SimTime::ZERO),
        completed: m.completed,
        kernel: events.stats(),
        member_queue_peak: (0..array.disk_count())
            .map(|i| array.disk(i).queue_peak())
            .max()
            .unwrap_or(0),
    };
    drop(array);
    Ok(ArrayReplica {
        result,
        spans,
        wall_s: start.elapsed().as_secs_f64(),
    })
}
