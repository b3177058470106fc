//! The run-loop entry points of the experiments.
//!
//! [`simulate`] replays any [`IntoRequestSource`] — a materialized
//! [`workload::Trace`] by reference or a lazy source
//! (`SyntheticSpec::source`, `TraceProfile::source`, `SpcSource`) —
//! against any [`Device`]: a single drive (in any overlap mode), an
//! array, or the DRPM baseline. It counts every pulled request
//! (`workload.requests_pulled`) and runs the one arrival-versus-event
//! loop, [`intradisk::simulate`], which holds at most one request of
//! lookahead, so a 10⁸-request run never materializes its workload.
//!
//! [`run_drive`] and [`run_array`] are the two common cases. Both
//! close power accounting at the later of the last arrival and the last
//! completion, so idle tails are charged correctly.
//!
//! The devices surface their typed [`DriveError`]s instead of
//! panicking: a protocol violation aborts the *experiment point*, not
//! the whole sweep, and the executor ([`crate::exec`]) reports which
//! point failed.
//!
//! # Split replay
//!
//! [`SplitReplay`] runs one long single-drive replay (`repro scale`) on
//! two workers and returns, bit for bit, what [`run_drive`] returns.
//! The request stream alternates fixed *lead* segments
//! ([`LEAD_REQUESTS`]) and *scout* segments ([`SCOUT_REQUESTS`]). A
//! *leader* replays the true run. While it replays a lead segment, a
//! *scout* fast-forwards its own copy of the source to the next scout
//! segment and replays that on a cold drive. It logs every completion
//! as a 12-byte [`PackedCompletion`], saves its drive's
//! [`IdleSnapshot`] at the first idle instant after every
//! [`SNAPSHOT_EVERY`] requests, and hands the segment back. The leader
//! never waits for it: past the boundary it keeps replaying the true
//! run, looking for the segment between steps of [`SNAPSHOT_EVERY`]
//! requests. An idle drive's future depends only on that state and the
//! arrivals to come, so once the leader's drive is idle in the state the
//! scout saved at the same request, the scout's run from there on *is*
//! the true run, and stays so at every later snapshot. Once the segment
//! is back, the leader runs on to the next snapshot and checks it, and
//! so on until one matches. It then records the scout's completions
//! since that instant into the run's metrics in completion order
//! (floats are summed in the serial order, never reassociated), the
//! scout's drive takes the run over with its integer sums split exactly
//! at that instant ([`DiskDrive::take_over`]), and the two lanes swap.
//! A segment whose snapshots never match, or whose completions do not
//! pack, falls back: the leader replays it itself. So does a segment
//! the leader replays to its end before the scout hands it back, and
//! the next one if the scout still holds its lane then: a scout that a
//! busy host slows down costs the run its help, never a wait.
//!
//! Which segments the leader takes over depends on host timing; what it
//! computes does not. Segment boundaries and snapshot instants depend
//! only on the request count and the simulation, every path returns the
//! serial run's result, and the `"deterministic"` counters describe the
//! logical run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use array::{ArrayController, Layout};
use diskmodel::{DiskParams, DriveError};
use intradisk::{
    CompletedIo, DiskDrive, DriveConfig, IdleSnapshot, IoRequest, PackedCompletion, Replay,
};
use simkit::{ResponseStats, SimTime};
use telemetry::{NullRecorder, Recorder};
use workload::{CountingSource, IntoRequestSource, RequestSource, Requests};

pub use array::ArrayRunResult;
pub use intradisk::{Device, DriveRunResult, NullObserver, RunObserver};

/// Replays `workload` against `device` and returns the device's report,
/// recording telemetry into `rec` and reporting every completion to
/// `obs`.
///
/// # Errors
/// Propagates the first [`DriveError`] the device reports.
pub fn simulate<D: Device, R: Recorder, O: RunObserver>(
    workload: impl IntoRequestSource,
    device: D,
    rec: &mut R,
    obs: &mut O,
) -> Result<D::Report, DriveError> {
    intradisk::simulate(
        Requests(CountingSource::new(workload.into_source())),
        device,
        rec,
        obs,
    )
}

/// Replays a workload against one drive.
pub fn run_drive(
    params: &DiskParams,
    config: DriveConfig,
    workload: impl IntoRequestSource,
) -> Result<DriveRunResult, DriveError> {
    simulate(
        workload,
        DiskDrive::new(params, config),
        &mut NullRecorder,
        &mut NullObserver,
    )
}

/// Replays a workload against an array of `disks` drives of model
/// `params`, each configured as `member`, laid out per `layout`.
pub fn run_array(
    params: &DiskParams,
    member: DriveConfig,
    disks: usize,
    layout: Layout,
    workload: impl IntoRequestSource,
) -> Result<ArrayRunResult, DriveError> {
    let array = ArrayController::new(params, member, disks, layout);
    simulate(workload, array, &mut NullRecorder, &mut NullObserver)
}

/// Requests per scout segment: the scout replays one from a cold drive
/// while the leader replays the lead segment before it. Also the
/// capacity of the scout's completion log (144 KiB).
pub const SCOUT_REQUESTS: u64 = 12_288;

/// Requests per lead segment, which the leader replays alone. The
/// stream alternates lead and scout segments, starting with a lead
/// segment at request 0.
pub const LEAD_REQUESTS: u64 = 9_216;

/// Requests between a split replay's idle snapshots: the scout saves
/// one at the first idle instant at least this many requests after the
/// previous one (or the segment's start). Also how far the leader
/// replays, inside a scout segment, between looks for the scout's
/// hand-back.
pub const SNAPSHOT_EVERY: u64 = 256;

/// A single-drive replay split across up to two workers; see the
/// [module docs](self). It returns what [`run_drive`] returns, every
/// float bit, queue peak and deterministic counter included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitReplay {
    workers: usize,
    lead_len: u64,
    scout_len: u64,
    snapshot_every: u64,
    /// Requests into a scout segment at which the leader stops to wait
    /// for the scout's hand-back; `None` (outside tests): never.
    wait_at: Option<u64>,
}

impl SplitReplay {
    /// A split replay on `min(jobs, 2)` workers. At one worker the
    /// leader replays every segment itself, starting no thread.
    pub fn new(jobs: usize) -> Self {
        SplitReplay {
            workers: jobs.clamp(1, 2),
            lead_len: LEAD_REQUESTS,
            scout_len: SCOUT_REQUESTS,
            snapshot_every: SNAPSHOT_EVERY,
            wait_at: None,
        }
    }

    /// Replaces the segment lengths and the snapshot spacing (each at
    /// least 1), so that a short test run crosses many segments.
    #[cfg(test)]
    fn with_segments(mut self, lead: u64, scout: u64, snapshot_every: u64) -> Self {
        self.lead_len = lead.max(1);
        self.scout_len = scout.max(1);
        self.snapshot_every = snapshot_every.max(1);
        self
    }

    /// Makes the leader wait for each scout segment once it is `into`
    /// requests into it, so that which segments it takes over, and at
    /// which snapshot, no longer depends on host timing.
    #[cfg(test)]
    fn waiting_at(mut self, into: u64) -> Self {
        self.wait_at = Some(into);
        self
    }

    /// Replays `source` against a drive of model `params` configured as
    /// `config`, reporting every completion to `obs` in completion
    /// order. A scout starts only if the source knows its length and it
    /// is longer than the first lead segment.
    ///
    /// # Errors
    /// The first [`DriveError`] the leader's drive reports.
    pub fn run<S, O>(
        &self,
        params: &DiskParams,
        config: DriveConfig,
        source: S,
        obs: &mut O,
    ) -> Result<DriveRunResult, DriveError>
    where
        S: RequestSource + Clone + Send,
        O: RunObserver,
    {
        let requests = source.len_hint().unwrap_or(0);
        let scout = (self.workers > 1 && requests > self.lead_len)
            .then(|| (source.clone(), DiskDrive::new(params, config.clone())));
        let mut lead = Lane {
            replay: Replay::new(Requests(source)),
            drive: DiskDrive::new(params, config),
        };
        match scout {
            None => lead.run_until(u64::MAX, obs)?,
            Some((scout_source, mut drive)) => {
                drive.restart_scout();
                let marks = Marks::new(&drive, self.scout_len, self.snapshot_every);
                let scouting = Scouting {
                    lane: ScoutLane(Lane {
                        replay: Replay::new(Requests(scout_source)),
                        drive,
                    }),
                    log: Vec::with_capacity(self.scout_len as usize),
                    marks,
                };
                self.lead(&mut lead, scouting, requests, obs)?;
            }
        }
        // The logical run's pulls: what the serial run counts.
        workload::counters::REQUESTS_PULLED.add(lead.replay.submitted());
        Ok(Device::finalize(&mut lead.drive, lead.replay.end()))
    }

    /// The leader's side: hands the scout each scout segment in turn
    /// (unless the scout still holds an earlier one), replays the lead
    /// segment before it, and then [`meet`](Self::meet)s the scout in
    /// the segment; then replays to the end.
    fn lead<S, O>(
        &self,
        lead: &mut Lane<S>,
        scouting: Scouting<S>,
        requests: u64,
        obs: &mut O,
    ) -> Result<(), DriveError>
    where
        S: RequestSource + Clone + Send,
        O: RunObserver,
    {
        let post = Post::new();
        let period = self.lead_len + self.scout_len;
        #[expect(
            clippy::disallowed_methods,
            reason = "a split replay's scout is its one extra thread; the leader merges its work in completion order"
        )]
        std::thread::scope(|scope| {
            scope.spawn(|| scout_loop(&post, self.lead_len, self.snapshot_every));
            let _stop = StopOnDrop(&post);
            let mut spare = Some(scouting);
            let mut from = self.lead_len;
            while from < requests {
                let to = (from + self.scout_len).min(requests);
                // A segment the leader outran comes back late: if the
                // scout still holds it, the leader replays the next
                // segment alone too.
                match spare.take().or_else(|| post.try_done().map(|d| d.scouting)) {
                    Some(scouting) => {
                        post.send(Job { scouting, from, to });
                        lead.run_until(from, obs)?;
                        spare = self.meet(lead, &post, from, to, obs)?;
                    }
                    None => {
                        crate::counters::SCALE_FALLBACKS.add(1);
                        lead.run_until(to, obs)?;
                    }
                }
                from += period;
            }
            lead.run_until(u64::MAX, obs)
        })
    }

    /// Replays the leader, at the boundary `from`, into the scout
    /// segment `from..to` until the scout hands the segment back, then
    /// on to the first of its snapshots that the leader's drive matches,
    /// and takes the run over from the scout there. Returns the scout's
    /// lane, log and snapshot slots for the next segment, or `None` if
    /// the leader replayed the whole segment first: the scout then still
    /// holds them.
    fn meet<S, O>(
        &self,
        lead: &mut Lane<S>,
        post: &Post<S>,
        from: u64,
        to: u64,
        obs: &mut O,
    ) -> Result<Option<Scouting<S>>, DriveError>
    where
        S: RequestSource,
        O: RunObserver,
    {
        let done = loop {
            let at = lead.replay.submitted();
            let back = if self.wait_at.is_some_and(|w| at >= from + w) {
                Some(post.collect_done())
            } else {
                post.try_done()
            };
            if let Some(done) = back {
                break done;
            }
            if at >= to {
                crate::counters::SCALE_FALLBACKS.add(1);
                crate::counters::SCALE_RERUN_REQUESTS.add(to - from);
                return Ok(None);
            }
            lead.run_until((at + self.snapshot_every).min(to), obs)?;
        };
        let Done {
            scouting:
                Scouting {
                    mut lane,
                    log,
                    marks,
                },
            fits,
        } = done;
        match coupling(lead, &marks, fits, obs)? {
            Some(at) => {
                let mark = &marks.slots[at];
                for &done in &log[mark.logged..] {
                    lead.drive.fold(done);
                    obs.on_complete(Device::stats(&lead.drive));
                }
                let later_peak = marks.slots[at + 1..marks.taken]
                    .iter()
                    .map(|m| m.snap.queue_peak())
                    .max()
                    .unwrap_or(0);
                lane.0
                    .drive
                    .take_over(&mut lead.drive, &mark.snap, later_peak);
                std::mem::swap(lead, &mut lane.0);
                crate::counters::SCALE_SEGMENTS.add(1);
                crate::counters::SCALE_RERUN_REQUESTS.add(mark.at - from);
            }
            None => {
                crate::counters::SCALE_FALLBACKS.add(1);
                crate::counters::SCALE_RERUN_REQUESTS.add(to - from);
            }
        }
        Ok(Some(Scouting { lane, log, marks }))
    }
}

/// One drive replaying one request stream: a split replay's leader or,
/// wrapped in a [`ScoutLane`], its scout.
#[derive(Debug)]
struct Lane<S> {
    replay: Replay<Requests<S>>,
    drive: DiskDrive,
}

impl<S: RequestSource> Lane<S> {
    /// Replays until the next step would submit request `until`.
    fn run_until<O: RunObserver>(&mut self, until: u64, obs: &mut O) -> Result<(), DriveError> {
        self.replay
            .run_until(&mut self.drive, until, &mut NullRecorder, obs)
    }
}

/// A lane whose drive speculates. Dropped, it flushes none of the counts
/// its drive made; a takeover swaps the run's lane out of it first.
#[derive(Debug)]
struct ScoutLane<S>(Lane<S>);

impl<S> Drop for ScoutLane<S> {
    fn drop(&mut self) {
        self.0.drive.restart_scout();
    }
}

/// One snapshot of a scout's segment.
#[derive(Debug)]
struct Mark {
    /// The request the drive was about to submit.
    at: u64,
    /// Completions logged before it.
    logged: usize,
    snap: IdleSnapshot,
}

/// A scout segment's snapshots, in slots allocated once per run.
#[derive(Debug)]
struct Marks {
    slots: Vec<Mark>,
    /// Slots holding this segment's snapshots.
    taken: usize,
}

impl Marks {
    fn new(drive: &DiskDrive, scout_len: u64, snapshot_every: u64) -> Self {
        Marks {
            slots: (0..scout_len / snapshot_every)
                .map(|_| Mark {
                    at: 0,
                    logged: 0,
                    snap: IdleSnapshot::for_drive(drive),
                })
                .collect(),
            taken: 0,
        }
    }
}

/// What the scout works with: its lane, its completion log (one per
/// completion, in completion order) and its snapshot slots, all
/// allocated once per run and sized from the segment length and the
/// snapshot spacing alone.
#[derive(Debug)]
struct Scouting<S> {
    lane: ScoutLane<S>,
    log: Vec<PackedCompletion>,
    marks: Marks,
}

/// A scout segment for the scout: requests `from..to`.
#[derive(Debug)]
struct Job<S> {
    scouting: Scouting<S>,
    from: u64,
    to: u64,
}

/// A scout segment replayed: the lane where the scout stopped, the
/// completions it logged and the snapshots it saved; `fits` if it
/// replayed the whole segment, saved a snapshot and every completion
/// packed.
#[derive(Debug)]
struct Done<S> {
    scouting: Scouting<S>,
    fits: bool,
}

/// The scout's side: replays each segment it is sent until told to
/// stop. While the leader takes the segment over, it forks its stream
/// and skips the fork past the lead segment that follows, so that the
/// next job starts there if the leader takes this lane over.
fn scout_loop<S: RequestSource + Clone>(post: &Post<S>, lead_len: u64, snapshot_every: u64) {
    let _gone = GoneOnDrop(post);
    let mut ahead: Option<Replay<Requests<S>>> = None;
    while let Some(job) = post.next_job() {
        let Job {
            scouting:
                Scouting {
                    lane: mut scout_lane,
                    mut log,
                    mut marks,
                },
            from,
            to,
        } = job;
        let lane = &mut scout_lane.0;
        if let Some(replay) = ahead.as_mut().filter(|r| r.submitted() == from) {
            std::mem::swap(replay, &mut lane.replay);
        }
        lane.drive.restart_scout();
        lane.replay.skip_to(from);
        log.clear();
        marks.taken = 0;
        let mut fits = true;
        let mut at = from + snapshot_every;
        while at < to && fits && !post.stopped() {
            fits = logged_until(lane, &mut log, at);
            if lane.drive.is_idle() && marks.taken < marks.slots.len() {
                let mark = &mut marks.slots[marks.taken];
                mark.at = at;
                mark.logged = log.len();
                lane.drive.snapshot_idle(&mut mark.snap);
                marks.taken += 1;
                at += snapshot_every;
            } else {
                at += 1;
            }
        }
        // Without a snapshot the segment falls back whatever its tail
        // holds, and a leader that has finished needs none of it: hand
        // it back at once.
        let fits = fits && marks.taken > 0 && !post.stopped() && logged_until(lane, &mut log, to);
        let mut fork = lane.replay.clone();
        post.send_done(Done {
            scouting: Scouting {
                lane: scout_lane,
                log,
                marks,
            },
            fits,
        });
        fork.skip_to(to + lead_len);
        ahead = Some(fork);
    }
}

/// Replays the scout's lane until it would submit request `until`,
/// packing every completion into `log`. False if one did not pack or
/// the drive failed.
fn logged_until<S: RequestSource>(
    lane: &mut Lane<S>,
    log: &mut Vec<PackedCompletion>,
    until: u64,
) -> bool {
    let mut fits = true;
    let mut drive = Logging {
        drive: &mut lane.drive,
        log,
        fits: &mut fits,
    };
    let ran = lane
        .replay
        .run_until(&mut drive, until, &mut NullRecorder, &mut NullObserver);
    ran.is_ok() && fits
}

/// Runs the leader on through the scout's segment, snapshot by
/// snapshot from where it stands, and returns the first snapshot its
/// drive matches, if any; none if the segment does not `fit`.
fn coupling<S: RequestSource, O: RunObserver>(
    lead: &mut Lane<S>,
    marks: &Marks,
    fits: bool,
    obs: &mut O,
) -> Result<Option<usize>, DriveError> {
    if !fits {
        return Ok(None);
    }
    let from = lead.replay.submitted();
    for (i, mark) in marks.slots[..marks.taken].iter().enumerate() {
        if mark.at < from {
            continue;
        }
        lead.run_until(mark.at, obs)?;
        if lead.drive.matches_idle(&mark.snap) {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

/// A scout's drive as its replay steps it: every completion is packed
/// into `log`, and `fits` cleared if one does not pack.
#[derive(Debug)]
struct Logging<'a> {
    drive: &'a mut DiskDrive,
    log: &'a mut Vec<PackedCompletion>,
    fits: &'a mut bool,
}

impl Device for Logging<'_> {
    type Report = DriveRunResult;

    fn submit<R: Recorder>(&mut self, req: IoRequest, rec: &mut R) -> Result<(), DriveError> {
        Device::submit(self.drive, req, rec)
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.drive.next_event_time()
    }

    fn on_event<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
        mut completed: impl FnMut(u64),
    ) -> Result<(), DriveError> {
        let (log, fits) = (&mut *self.log, &mut *self.fits);
        self.drive.on_event_with(now, rec, |io: &CompletedIo| {
            completed(io.request.id);
            match PackedCompletion::pack(io) {
                Some(packed) => log.push(packed),
                None => *fits = false,
            }
        })
    }

    fn stats(&self) -> &ResponseStats {
        Device::stats(self.drive)
    }

    fn finalize(&mut self, end: SimTime) -> DriveRunResult {
        Device::finalize(self.drive, end)
    }
}

/// The leader's and the scout's mailbox: a job out and the segment
/// back. Only the scout ever waits on it, for its next job.
#[derive(Debug)]
struct Post<S> {
    mail: Mutex<Mail<S>>,
    bell: Condvar,
    /// Set once the leader has left, with a `Release` store under the
    /// lock (so that a scout about to wait sees it); the scout reads it
    /// with `Acquire` before every step. It publishes nothing else.
    stop: AtomicBool,
}

#[derive(Debug)]
struct Mail<S> {
    job: Option<Job<S>>,
    done: Option<Done<S>>,
    scout_gone: bool,
}

impl<S> Post<S> {
    fn new() -> Self {
        Post {
            mail: Mutex::new(Mail {
                job: None,
                done: None,
                scout_gone: false,
            }),
            bell: Condvar::new(),
            stop: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Mail<S>> {
        self.mail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Changes the mail and rings the bell.
    fn deliver(&self, change: impl FnOnce(&mut Mail<S>)) {
        change(&mut self.lock());
        self.bell.notify_all();
    }

    /// Waits for `take` to find something in the mail, or `None` once
    /// `over` holds.
    fn wait<T>(
        &self,
        mut take: impl FnMut(&mut Mail<S>) -> Option<T>,
        over: impl Fn(&Mail<S>) -> bool,
    ) -> Option<T> {
        let mut mail = self.lock();
        loop {
            if let Some(got) = take(&mut mail) {
                return Some(got);
            }
            if over(&mail) {
                return None;
            }
            mail = self.bell.wait(mail).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Leader: hands the scout a segment.
    fn send(&self, job: Job<S>) {
        self.deliver(|m| m.job = Some(job));
    }

    /// Leader: the segment the scout handed back, if it has.
    fn try_done(&self) -> Option<Done<S>> {
        self.lock().done.take()
    }

    /// Leader, in tests only (see `SplitReplay::waiting_at`): waits
    /// for the scout to hand its segment back.
    fn collect_done(&self) -> Done<S> {
        self.wait(|m| m.done.take(), |m| m.scout_gone)
            .expect("a split replay's scout panicked")
    }

    /// Scout: waits for a segment, or `None` once told to stop.
    fn next_job(&self) -> Option<Job<S>> {
        self.wait(|m| m.job.take(), |_| self.stopped())
    }

    /// Scout: true once the leader has left.
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Scout: hands the finished segment over.
    fn send_done(&self, done: Done<S>) {
        self.deliver(|m| m.done = Some(done));
    }
}

/// Tells the scout to stop when the leader leaves, however it leaves.
struct StopOnDrop<'a, S>(&'a Post<S>);

impl<S> Drop for StopOnDrop<'_, S> {
    fn drop(&mut self) {
        self.0
            .deliver(|_| self.0.stop.store(true, Ordering::Release));
    }
}

/// Tells the leader the scout is gone when it leaves, however it leaves.
struct GoneOnDrop<'a, S>(&'a Post<S>);

impl<S> Drop for GoneOnDrop<'_, S> {
    fn drop(&mut self) {
        self.0.deliver(|m| m.scout_gone = true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::hcsd_params;
    use diskmodel::presets;
    use intradisk::failure::FailureSchedule;
    use intradisk::SegmentedCache;
    use simkit::{SimDuration, SimTime, StatsMode};
    use testkit::{check_with, gen, Config};
    use workload::{SyntheticSpec, Trace};

    fn small_trace(mean_ms: f64, n: usize) -> Trace {
        SyntheticSpec::paper(mean_ms, 200_000_000, n).generate(11)
    }

    #[test]
    fn drive_run_completes_everything() {
        let t = small_trace(8.0, 2_000);
        let r = run_drive(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            &t,
        )
        .expect("replay succeeds");
        assert_eq!(r.metrics.completed, 2_000);
        assert!(r.duration > SimDuration::ZERO);
        assert!(r.power.total_w() > 0.0);
    }

    #[test]
    fn array_run_completes_everything() {
        let t = small_trace(4.0, 2_000);
        let r = run_array(
            &presets::array_drive_10k_19gb(),
            DriveConfig::conventional(),
            4,
            Layout::striped_default(),
            &t,
        )
        .expect("replay succeeds");
        assert_eq!(r.completed, 2_000);
        assert!(r.power.total_w() > 0.0);
    }

    #[test]
    fn lazy_source_matches_materialized_trace() {
        // The core API-redesign oracle: streaming ingestion must be
        // observationally identical to the materialized path.
        let spec = SyntheticSpec::paper(6.0, 200_000_000, 3_000);
        let trace = spec.generate(11);
        let params = presets::barracuda_es_750gb();
        let from_trace = run_drive(&params, DriveConfig::sa(2), &trace).expect("replay succeeds");
        let from_source =
            run_drive(&params, DriveConfig::sa(2), spec.source(11)).expect("replay succeeds");
        assert_eq!(from_trace.metrics.completed, from_source.metrics.completed);
        assert_eq!(
            from_trace.metrics.response_time_ms.mean(),
            from_source.metrics.response_time_ms.mean()
        );
        assert_eq!(from_trace.p90_ms(), from_source.p90_ms());
        assert_eq!(from_trace.duration, from_source.duration);
    }

    #[test]
    fn single_disk_array_close_to_bare_drive() {
        // A 1-disk striped array should behave like the bare drive
        // (modulo controller bookkeeping, which costs nothing here).
        let t = small_trace(8.0, 2_000);
        let d = run_drive(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            &t,
        )
        .expect("replay succeeds");
        let a = run_array(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            1,
            Layout::Concatenated,
            &t,
        )
        .expect("replay succeeds");
        let dm = d.metrics.response_time_ms.mean();
        let am = a.response_time_ms.mean();
        assert!((dm - am).abs() / dm < 0.05, "drive {dm} vs array {am}");
    }

    #[test]
    fn failure_mid_run_degrades_but_completes() {
        let t = small_trace(6.0, 2_000);
        let params = presets::barracuda_es_750gb();
        let healthy = run_drive(&params, DriveConfig::sa(2), &t).expect("replay succeeds");
        let mut sched = FailureSchedule::new();
        sched.push(SimTime::ZERO, 1); // lose the second arm immediately
        let drive = DiskDrive::new(&params, DriveConfig::sa(2)).with_failures(sched);
        let degraded =
            simulate(&t, drive, &mut NullRecorder, &mut NullObserver).expect("replay succeeds");
        assert_eq!(degraded.metrics.completed, 2_000);
        assert!(
            degraded.metrics.response_time_ms.mean() >= healthy.metrics.response_time_ms.mean(),
            "degraded should not beat healthy"
        );
    }

    /// Counts completions, checking that each reaches it once and in
    /// order: the stats it is shown hold one more response each time.
    #[derive(Debug, Default)]
    struct Counting(usize);

    impl RunObserver for Counting {
        fn on_complete(&mut self, stats: &ResponseStats) {
            self.0 += 1;
            assert_eq!(
                stats.count(),
                self.0,
                "completion {} seen out of turn",
                self.0
            );
        }
    }

    #[test]
    fn split_replay_equals_serial_replay() {
        let cases = Config {
            cases: 32,
            ..Config::default()
        };
        check_with(cases, "split_replay_equals_serial_replay", |t| {
            // Short segments, so that a short run crosses several
            // boundaries, yet long enough for most to couple.
            let lead = t.draw(&gen::u64_in(256..=2_048));
            let scout = t.draw(&gen::u64_in(2_048..=6_144));
            let every = t.draw(&gen::u64_in(16..=128));
            let actuators = t.draw(&gen::u32_in(1..=4));
            let stats = if t.draw(&gen::bool_any()) {
                StatsMode::Exact
            } else {
                StatsMode::Streaming
            };
            // One case in six is overloaded: its queue never drains, so
            // no segment couples, and its responses soon outgrow the
            // packed records.
            let mean = if t.draw(&gen::usize_in(0..=5)) == 0 {
                2.0
            } else {
                t.draw(&gen::f64_in(3.0, 12.0))
            };
            // A request count within three of a segment boundary (a lead
            // segment's end or a scout segment's end).
            let period = lead + scout;
            let boundary = t.draw(&gen::u64_in(0..=3)) * period
                + if t.draw(&gen::bool_any()) {
                    lead
                } else {
                    period
                };
            let requests = (boundary + t.draw(&gen::u64_in(0..=6)))
                .saturating_sub(3)
                .max(1) as usize;
            let seed = t.draw(&gen::u64_any());
            let params = hcsd_params();
            let mut spec = SyntheticSpec::paper(mean, params.capacity_sectors(), requests);
            // Every other case reads 100 sectors at a time from a span
            // sixteen times the cache: reads often hit, and some span two
            // cache segments and stamp both with one tick, so that where
            // a segment sits in the cache's list decides which of the two
            // is evicted first.
            if t.draw(&gen::bool_any()) {
                let cache = SegmentedCache::new(params.cache_mib());
                spec.sectors = 100;
                spec.footprint_sectors =
                    16 * cache.segment_sectors() * intradisk::cache::DEFAULT_SEGMENTS as u64;
            }
            // The leader also waits for each segment at a drawn depth
            // into it, so that it takes segments over at later snapshots
            // whatever the host's timing.
            let wait = t.draw(&gen::u64_in(0..=scout));
            let config = DriveConfig::sa(actuators).with_stats_mode(stats);
            let serial =
                run_drive(&params, config.clone(), spec.source(seed)).expect("serial replay");
            let split = SplitReplay::new(2).with_segments(lead, scout, every);
            for (jobs, waits, split) in [
                (1, None, SplitReplay::new(1)),
                (2, None, split),
                (2, Some(wait), split.waiting_at(wait)),
            ] {
                let mut seen = Counting::default();
                let split = split
                    .run(&params, config.clone(), spec.source(seed), &mut seen)
                    .expect("split replay");
                let context = format!(
                    "--jobs {jobs}, waiting at {waits:?}: {requests} requests of {} sectors, \
                     SA({actuators}), {mean} ms, {stats:?}, segments {lead}+{scout}, \
                     snapshots every {every}",
                    spec.sectors
                );
                assert_eq!(seen.0, requests, "{context}");
                // Debug prints every float with the digits that round-trip
                // it, so equal text is equal bits.
                assert_eq!(format!("{split:?}"), format!("{serial:?}"), "{context}");
            }
        });
    }

    /// The `"deterministic"` counters of one SA(4) replay of 15,000
    /// requests at `mean` ms (a serial one when `split` is `None`), and
    /// how many segments coupled.
    fn scale_counters(mean: f64, stats: StatsMode, split: Option<SplitReplay>) -> (String, u64) {
        crate::profile::reset_counters();
        let params = hcsd_params();
        let spec = SyntheticSpec::paper(mean, params.capacity_sectors(), 15_000);
        let config = DriveConfig::sa(4).with_stats_mode(stats);
        let run = match split {
            None => run_drive(&params, config, spec.source(42)),
            Some(split) => split.run(&params, config, spec.source(42), &mut NullObserver),
        };
        run.expect("synthetic replay");
        let json = crate::profile::counters_json(2);
        let deterministic = json
            .split("\"host\"")
            .next()
            .expect("export always has a host section");
        (
            deterministic.to_string(),
            crate::counters::SCALE_SEGMENTS.get(),
        )
    }

    /// `split_replay_counts_the_logical_run`'s cases, run alone in a
    /// child process: prints, per case, whether the split replay's
    /// counters are the serial replay's, and how many segments coupled.
    /// The counters are process-wide, so run with other tests its counts
    /// include theirs, and it asserts nothing itself.
    #[test]
    #[ignore = "run in a process of its own by split_replay_counts_the_logical_run"]
    fn split_replay_counts_alone() {
        // Short segments: couplings at 6 and 8 ms, and at 2 ms none.
        // The leader waits for each segment at its boundary, so that
        // the couplings do not depend on host timing.
        let split = SplitReplay::new(2)
            .with_segments(1_000, 6_000, 32)
            .waiting_at(0);
        for (mean, stats) in [
            (6.0, StatsMode::Streaming),
            (8.0, StatsMode::Exact),
            (2.0, StatsMode::Streaming),
        ] {
            let (serial, _) = scale_counters(mean, stats, None);
            for (jobs, split) in [(1, SplitReplay::new(1)), (2, split)] {
                let (counted, coupled) = scale_counters(mean, stats, Some(split));
                let same = counted == serial;
                println!(
                    "split-counters {mean} ms, {stats:?}, --jobs {jobs}: coupled {coupled}, same {same}"
                );
            }
        }
    }

    #[test]
    fn split_replay_counts_the_logical_run() {
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args([
                "runner::tests::split_replay_counts_alone",
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
        let cases: Vec<&str> = stdout
            .lines()
            .filter_map(|l| l.split_once("split-counters ").map(|(_, case)| case))
            .collect();
        // Six cases; the two-worker runs at 6 and 8 ms take a scout's
        // segments over, and every other run couples none.
        let coupling = [false, true, false, true, false, false];
        assert_eq!(
            cases.len(),
            coupling.len(),
            "child printed every case:\n{stdout}"
        );
        for (case, couples) in cases.into_iter().zip(coupling) {
            assert!(
                case.ends_with("same true"),
                "{case}: the split run must count the serial run's work"
            );
            assert_eq!(
                !case.contains("coupled 0,"),
                couples,
                "{case}: the case no longer tests what it should"
            );
        }
    }
}
