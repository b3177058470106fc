//! One run loop for every simulated device.
//!
//! [`simulate`] is the only arrival-versus-event merge in the
//! workspace: the drive (in any overlap mode), the array controller and
//! the DRPM baseline all run through it as [`Device`]s, so request
//! accounting and observer hooks cannot drift apart between engines.
//! The loop opens no host-time profiler scope: per-request costs are
//! timed by perfbench's batch micro-timings, and `--profile` stays on
//! the coarse phases so it costs nothing per request.
//!
//! Time never runs backwards (checked in debug builds). Ties go to
//! arrivals: an arrival at the instant of a device event is submitted
//! first. A device that must decide over everything that has
//! arrived by an instant (DRPM's SPTF pick after an idle period)
//! schedules a zero-delay event there and decides when it fires.

use diskmodel::DriveError;
use simkit::{ResponseStats, SimTime};
use telemetry::Recorder;

use crate::request::IoRequest;

/// A passive discrete-event device that owns its future events.
pub trait Device {
    /// What a finished run returns.
    type Report;

    /// Accepts `req` at its arrival instant.
    ///
    /// # Errors
    /// The device's typed [`DriveError`] if it rejects the request.
    fn submit<R: Recorder>(&mut self, req: IoRequest, rec: &mut R) -> Result<(), DriveError>;

    /// The instant of the device's next event, if any.
    fn next_event_time(&self) -> Option<SimTime>;

    /// Fires the event due at `now` (the current `next_event_time`) and
    /// hands the id of each request that completed at it to
    /// `completed`, in completion order.
    ///
    /// # Errors
    /// A [`DriveError`] if the device detects a protocol violation.
    fn on_event<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
        completed: impl FnMut(u64),
    ) -> Result<(), DriveError>;

    /// The response times recorded so far (what observers see).
    fn stats(&self) -> &ResponseStats;

    /// Closes the run at `end` (the later of the last arrival and the
    /// last event) and builds the report.
    fn finalize(&mut self, end: SimTime) -> Self::Report;
}

/// Observer hooked into the run loop, called after every completed
/// request. Heartbeats use it to watch a run without the sim core
/// touching threads or host time.
pub trait RunObserver {
    /// Called once per completed request.
    fn on_complete(&mut self, stats: &ResponseStats);
}

/// The no-op observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn on_complete(&mut self, _stats: &ResponseStats) {}
}

/// Replays `requests` (in arrival order) against `device` and returns
/// its report. One request of lookahead: a lazy source streams.
///
/// # Errors
/// The first [`DriveError`] the device reports.
pub fn simulate<D: Device, R: Recorder, O: RunObserver>(
    requests: impl IntoIterator<Item = IoRequest>,
    mut device: D,
    rec: &mut R,
    obs: &mut O,
) -> Result<D::Report, DriveError> {
    let mut replay = Replay::new(requests.into_iter());
    replay.run_until(&mut device, u64::MAX, rec, obs)?;
    Ok(device.finalize(replay.end()))
}

/// The arrival side of a replay in progress: the request stream with
/// one request of lookahead, and the latest instant acted on.
/// [`simulate`] runs one to its end; a split replay
/// (`experiments::runner`) stops one at chosen requests to look at its
/// device, and hands devices from one replay to another.
#[derive(Debug, Clone)]
pub struct Replay<I> {
    requests: I,
    /// The next request to submit, already pulled.
    pending: Option<IoRequest>,
    /// Requests submitted so far: `pending` is request number
    /// `submitted` of the stream (counting from 0).
    submitted: u64,
    /// The later of the last arrival and the last event so far.
    end: SimTime,
}

impl<I: Iterator<Item = IoRequest>> Replay<I> {
    /// A replay at the first request of `requests`.
    pub fn new(mut requests: I) -> Self {
        Replay {
            pending: requests.next(),
            requests,
            submitted: 0,
            end: SimTime::ZERO,
        }
    }

    /// Requests submitted so far: the next to submit is request number
    /// `submitted()` of the stream.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// The later of the last arrival and the last event so far: the
    /// instant [`Device::finalize`] closes the run at once the replay
    /// has drained.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Moves the lookahead forward to request `index` of the stream,
    /// passing over the requests before it without submitting them
    /// (`Iterator::nth`, which a source can implement as a fast skip).
    /// A no-op if `index` is not past the next request to submit.
    pub fn skip_to(&mut self, index: u64) {
        if let Some(gap) = index.checked_sub(self.submitted + 1) {
            self.pending = usize::try_from(gap)
                .ok()
                .and_then(|gap| self.requests.nth(gap));
            self.submitted = index;
        }
    }

    /// Steps `device` in time order — arrivals submitted, events fired,
    /// ties to arrivals — until its next step would submit request
    /// number `until` of the stream, or until both the stream and the
    /// device have run dry.
    ///
    /// # Errors
    /// The first [`DriveError`] the device reports.
    pub fn run_until<D: Device, R: Recorder, O: RunObserver>(
        &mut self,
        device: &mut D,
        until: u64,
        rec: &mut R,
        obs: &mut O,
    ) -> Result<(), DriveError> {
        loop {
            let event = device.next_event_time();
            match self.pending {
                Some(r) if event.is_none_or(|e| r.arrival <= e) => {
                    if self.submitted == until {
                        return Ok(());
                    }
                    debug_assert!(
                        r.arrival >= self.end,
                        "arrival at {} before {}",
                        r.arrival,
                        self.end
                    );
                    self.pending = self.requests.next();
                    self.submitted += 1;
                    self.end = self.end.max(r.arrival);
                    device.submit(r, rec)?;
                }
                _ => {
                    let Some(e) = event else {
                        return Ok(());
                    };
                    debug_assert!(
                        e >= self.end,
                        "event at {e} before {}: time ran backwards",
                        self.end
                    );
                    self.end = self.end.max(e);
                    let mut completions = 0;
                    device.on_event(e, rec, |_| completions += 1)?;
                    for _ in 0..completions {
                        obs.on_complete(device.stats());
                    }
                }
            }
        }
    }
}
