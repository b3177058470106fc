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
    let mut requests = requests.into_iter();
    let mut pending = requests.next();
    let mut end = SimTime::ZERO;
    loop {
        let event = device.next_event_time();
        match pending {
            Some(r) if event.is_none_or(|e| r.arrival <= e) => {
                debug_assert!(r.arrival >= end, "arrival at {} before {end}", r.arrival);
                pending = requests.next();
                end = end.max(r.arrival);
                device.submit(r, rec)?;
            }
            _ => {
                let Some(e) = event else { break };
                debug_assert!(e >= end, "event at {e} before {end}: time ran backwards");
                end = end.max(e);
                let mut completions = 0;
                device.on_event(e, rec, |_| completions += 1)?;
                for _ in 0..completions {
                    obs.on_complete(device.stats());
                }
            }
        }
    }
    Ok(device.finalize(end))
}
