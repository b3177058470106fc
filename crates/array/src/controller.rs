//! The array controller: decomposes logical requests over member disks,
//! tracks sub-request completion (including two-phase RAID-5 writes),
//! and aggregates response-time and power statistics.
//!
//! Like [`intradisk::DiskDrive`], the controller is a passive
//! discrete-event component. [`ArrayController::submit`] returns the
//! per-disk completions newly scheduled by an arrival;
//! [`ArrayController::on_disk_complete`] consumes one completion event
//! and returns any follow-on events plus the logical request that
//! finished, if any. As a [`Device`] the controller keeps those
//! completions in its own event calendar and runs under the shared run
//! loop ([`intradisk::simulate`]).

// In-flight bookkeeping lives in a generation-tagged slab plus a
// sequential ring window, not maps: slot assignment depends only on
// the submit/complete sequence (the simulator's determinism contract,
// DESIGN.md), and the steady-state dispatch path performs no
// allocation once the structures reach their high-water marks.
use std::collections::VecDeque;

use diskmodel::{DiskParams, DriveError};
use intradisk::{Device, DiskDrive, DriveConfig, IoRequest, PowerBreakdown};
use simkit::{
    Calendar, EventQueue, Histogram, QueueStats, ResponseStats, SimDuration, SimTime, Slab, SlotId,
    StatsMode,
};
use telemetry::{NullRecorder, Recorder, ScopedRecorder, TraceEvent};

use crate::layout::{Layout, SubRequest};

/// A finished logical request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalCompletion {
    /// The caller's request id.
    pub id: u64,
    /// When the logical request arrived.
    pub arrival: SimTime,
    /// When its last sub-request completed.
    pub completed: SimTime,
}

impl LogicalCompletion {
    /// End-to-end response time.
    pub fn response_time(&self) -> simkit::SimDuration {
        self.completed - self.arrival
    }
}

/// The outcome of consuming one per-disk completion event.
#[derive(Debug, Clone, Default)]
pub struct DiskCompletion {
    /// Next completion time on the same disk, if it started more work
    /// from its own queue.
    pub next_on_disk: Option<SimTime>,
    /// Completions newly scheduled on (possibly other) disks by
    /// phase-two issues — `(disk index, completion time)`.
    pub started: Vec<(usize, SimTime)>,
    /// The logical request that finished at this event, if any (one
    /// sub-request completes per event, so at most one).
    pub finished: Option<LogicalCompletion>,
}

/// Array-level statistics.
#[derive(Debug, Clone)]
pub struct ArrayMetrics {
    /// Logical response times, milliseconds. Collected in the member
    /// disks' [`StatsMode`]: exact (every sample, the oracle) or
    /// streaming (bounded memory); `percentile_stream` is always
    /// available.
    pub response_time_ms: ResponseStats,
    /// Logical response-time histogram over the paper's CDF edges. In
    /// exact mode it is filled from `response_time_ms`'s samples when
    /// the controller is finalized, not per record.
    pub response_hist: Histogram,
    /// Completed logical requests.
    pub completed: u64,
}

impl ArrayMetrics {
    fn with_mode(mode: StatsMode) -> Self {
        ArrayMetrics {
            response_time_ms: ResponseStats::with_mode(mode),
            response_hist: Histogram::new(Histogram::paper_response_time_edges()),
            completed: 0,
        }
    }

    fn record(&mut self, c: &LogicalCompletion) {
        let rt = c.response_time().as_millis();
        self.response_time_ms
            .record_binned(rt, &mut self.response_hist);
        self.completed += 1;
    }

    fn finalize(&mut self) {
        self.response_time_ms.finalize();
        self.response_time_ms.sync_hist(&mut self.response_hist);
    }
}

#[derive(Debug)]
struct Outstanding {
    id: u64,
    arrival: SimTime,
    remaining: usize,
    phase_two: Vec<SubRequest>,
}

/// Maps sub-request ids back to the owning logical request's slab slot.
///
/// Sub ids are issued sequentially and retire within the lifetime of
/// their logical request, so the live ids always fall inside a small
/// sliding window: a ring buffer indexed by `sub_id - base` replaces a
/// `BTreeMap`, making the lookup O(1) and, at steady state,
/// allocation-free (the deque's capacity plateaus at the concurrency
/// high-water mark).
#[derive(Debug, Default)]
struct SubOwnerWindow {
    /// Sub id of `ring[0]`.
    base: u64,
    ring: VecDeque<Option<SlotId>>,
}

impl SubOwnerWindow {
    fn insert(&mut self, sub_id: u64, owner: SlotId) {
        if self.ring.is_empty() {
            self.base = sub_id;
        }
        debug_assert_eq!(
            sub_id,
            self.base + self.ring.len() as u64,
            "sub ids must be issued sequentially"
        );
        self.ring.push_back(Some(owner));
    }

    fn take(&mut self, sub_id: u64) -> Option<SlotId> {
        let off = sub_id.checked_sub(self.base)?;
        let owner = self.ring.get_mut(off as usize)?.take();
        // Shrink the window from the front so `base` tracks the oldest
        // live sub id and the ring stays as small as the in-flight set.
        while matches!(self.ring.front(), Some(None)) {
            self.ring.pop_front();
            self.base += 1;
        }
        owner
    }
}

/// Result of replaying a workload on an array.
#[derive(Debug, Clone)]
pub struct ArrayRunResult {
    /// Logical response times (ms), in the member drives' stats mode.
    pub response_time_ms: ResponseStats,
    /// Logical response-time histogram over the paper's edges.
    pub response_hist: simkit::Histogram,
    /// Sum of the member drives' power breakdowns.
    pub power: PowerBreakdown,
    /// Wall-clock span of the run.
    pub duration: SimDuration,
    /// Completed logical requests.
    pub completed: u64,
    /// Event-kernel traffic of the run's calendar (pushes, pops, peak
    /// pending).
    pub kernel: QueueStats,
    /// Deepest any member disk's pending queue got during the run.
    pub member_queue_peak: usize,
}

impl ArrayRunResult {
    /// The 90th-percentile response time in milliseconds (exact when
    /// the members ran in `StatsMode::Exact`).
    ///
    /// The run loop finalizes the stats when the replay ends, so this
    /// is an indexed read on a shared reference.
    pub fn p90_ms(&self) -> f64 {
        self.response_time_ms.percentile(90.0)
    }
}

/// A storage array of identical member disks behind one controller.
///
/// `Q` is the calendar of per-disk completion events the controller
/// keeps when it runs as a [`Device`]; the default is the timing wheel.
#[derive(Debug)]
pub struct ArrayController<Q = EventQueue<usize>> {
    disks: Vec<DiskDrive>,
    layout: Layout,
    per_disk: u64,
    sub_owner: SubOwnerWindow,
    outstanding: Slab<Outstanding>,
    next_sub_id: u64,
    metrics: ArrayMetrics,
    /// Pending per-disk completion events, payload = disk index.
    events: Q,
    /// Deterministic fan-out counters, flushed to the global registry
    /// when the controller drops.
    prof: crate::counters::ArrayProfCounts,
}

impl ArrayController {
    /// Builds an array of `disks` drives of model `params`, each with
    /// the drive configuration `member` (conventional or intra-disk
    /// parallel), laid out per `layout`.
    ///
    /// # Panics
    /// Panics if `disks == 0` (or `< 2` for RAID-5).
    pub fn new(params: &DiskParams, member: DriveConfig, disks: usize, layout: Layout) -> Self {
        Self::with_calendar(params, member, disks, layout, EventQueue::with_capacity(64))
    }
}

impl<Q> ArrayController<Q> {
    /// [`ArrayController::new`] with an explicit event calendar (the
    /// kernel-swap oracles replay the same array on two calendars).
    ///
    /// # Panics
    /// Panics if `disks == 0` (or `< 2` for RAID-5).
    pub fn with_calendar(
        params: &DiskParams,
        member: DriveConfig,
        disks: usize,
        layout: Layout,
        events: Q,
    ) -> Self {
        assert!(disks > 0, "array needs at least one disk");
        let stats_mode = member.stats;
        let members: Vec<DiskDrive> = (0..disks)
            .map(|_| DiskDrive::new(params, member.clone()))
            .collect();
        let per_disk = members[0].capacity_sectors();
        // Validate layout constraints early.
        let _ = layout.logical_capacity(disks, per_disk);
        ArrayController {
            disks: members,
            layout,
            per_disk,
            sub_owner: SubOwnerWindow::default(),
            outstanding: Slab::new(),
            next_sub_id: 0,
            metrics: ArrayMetrics::with_mode(stats_mode),
            events,
            prof: crate::counters::ArrayProfCounts::new(),
        }
    }

    /// Number of member disks.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Logical volume capacity in sectors.
    pub fn logical_capacity(&self) -> u64 {
        self.layout
            .logical_capacity(self.disks.len(), self.per_disk)
    }

    /// Array-level statistics.
    pub fn metrics(&self) -> &ArrayMetrics {
        &self.metrics
    }

    /// Access to a member disk's statistics.
    pub fn disk(&self, index: usize) -> &DiskDrive {
        &self.disks[index]
    }

    /// Submits a logical request at `now`; returns `(disk, completion)`
    /// pairs for every member disk that started new work.
    ///
    /// # Errors
    /// Propagates [`DriveError`] from a member disk that rejects a
    /// sub-request (e.g. every assembly failed).
    pub fn submit(
        &mut self,
        req: IoRequest,
        now: SimTime,
    ) -> Result<Vec<(usize, SimTime)>, DriveError> {
        self.submit_traced(req, now, &mut NullRecorder)
    }

    /// [`ArrayController::submit`] with event tracing: the logical
    /// request's lifecycle is emitted in scope 0; each member disk's
    /// events land in scope `1 + disk` (its own process/track group in
    /// the Perfetto export).
    pub fn submit_traced<R: Recorder>(
        &mut self,
        req: IoRequest,
        now: SimTime,
        rec: &mut R,
    ) -> Result<Vec<(usize, SimTime)>, DriveError> {
        let mapped = self
            .layout
            .map_request(self.disks.len(), self.per_disk, &req);
        assert!(!mapped.is_empty(), "mapping produced no sub-requests");
        if R::ENABLED {
            rec.record_scoped(0, now, req.submitted());
        }
        let key = self.outstanding.insert(Outstanding {
            id: req.id,
            arrival: req.arrival,
            remaining: mapped.phase_one.len(),
            phase_two: mapped.phase_two,
        });
        self.prof.logical_submits.bump();
        self.prof.inflight_peak.raise(self.outstanding.len() as u64);
        self.issue(key, &mapped.phase_one, now, rec)
    }

    fn issue<R: Recorder>(
        &mut self,
        key: SlotId,
        subs: &[SubRequest],
        now: SimTime,
        rec: &mut R,
    ) -> Result<Vec<(usize, SimTime)>, DriveError> {
        let mut started = Vec::new();
        for sub in subs {
            self.prof.sub_issues.bump();
            let sub_id = self.next_sub_id;
            self.next_sub_id += 1;
            self.sub_owner.insert(sub_id, key);
            let sreq = IoRequest::new(sub_id, now, sub.lba, sub.sectors, sub.kind);
            let mut scoped = ScopedRecorder::new(rec, 1 + sub.disk as u32);
            if let Some(t) = self.disks[sub.disk].submit_traced(sreq, now, &mut scoped)? {
                started.push((sub.disk, t));
            }
        }
        Ok(started)
    }

    /// Consumes the completion event of member `disk` at time `now`.
    ///
    /// # Errors
    /// Propagates [`DriveError`] if the disk has no request in service
    /// at `now` (event mismatch); returns
    /// [`DriveError::UnknownSubRequest`] or
    /// [`DriveError::RetiredRequest`] if the completed sub-request does
    /// not map to an open logical request.
    pub fn on_disk_complete(
        &mut self,
        disk: usize,
        now: SimTime,
    ) -> Result<DiskCompletion, DriveError> {
        self.on_disk_complete_traced(disk, now, &mut NullRecorder)
    }

    /// [`ArrayController::on_disk_complete`] with event tracing (see
    /// [`ArrayController::submit_traced`]).
    ///
    /// # Errors
    /// Same contract as [`ArrayController::on_disk_complete`].
    pub fn on_disk_complete_traced<R: Recorder>(
        &mut self,
        disk: usize,
        now: SimTime,
        rec: &mut R,
    ) -> Result<DiskCompletion, DriveError> {
        let (done, next_on_disk) = {
            let mut scoped = ScopedRecorder::new(&mut *rec, 1 + disk as u32);
            self.disks[disk].complete_traced(now, &mut scoped)?
        };
        let key = self
            .sub_owner
            .take(done.request.id)
            .ok_or(DriveError::UnknownSubRequest {
                sub_id: done.request.id,
            })?;
        let mut out = DiskCompletion {
            next_on_disk,
            ..DiskCompletion::default()
        };
        let finished_logical = {
            let o = self
                .outstanding
                .get_mut(key)
                .ok_or(DriveError::RetiredRequest { key: key.as_u64() })?;
            o.remaining -= 1;
            if o.remaining > 0 {
                None
            } else if o.phase_two.is_empty() {
                Some(key)
            } else {
                // Launch phase two; the logical request stays open.
                let subs = std::mem::take(&mut o.phase_two);
                o.remaining = subs.len();
                out.started = self.issue(key, &subs, now, rec)?;
                None
            }
        };
        if let Some(key) = finished_logical {
            if let Some(o) = self.outstanding.remove(key) {
                let c = LogicalCompletion {
                    id: o.id,
                    arrival: o.arrival,
                    completed: now,
                };
                self.metrics.record(&c);
                if R::ENABLED {
                    rec.record_scoped(0, now, TraceEvent::Complete { req: c.id });
                }
                out.finished = Some(c);
            }
        }
        Ok(out)
    }

    /// Closes idle-time accounting on every member disk at `end`, sorts
    /// the logical response summary for indexed percentiles and fills
    /// the logical histogram from it.
    pub fn finalize(&mut self, end: SimTime) {
        for d in &mut self.disks {
            d.finalize(end);
        }
        self.metrics.finalize();
    }

    /// Sum of the member disks' average-power breakdowns (the height of
    /// one MD bar in Figure 3).
    pub fn power_breakdown(&self) -> PowerBreakdown {
        self.disks
            .iter()
            .map(|d| d.power_breakdown())
            .fold(PowerBreakdown::default(), |acc, b| acc.add(&b))
    }
}

impl<Q: Calendar<usize>> Device for ArrayController<Q> {
    type Report = ArrayRunResult;

    /// Member-drive events land in scope `1 + disk`; the controller's
    /// logical submit/complete events land in scope 0.
    fn submit<R: Recorder>(&mut self, req: IoRequest, rec: &mut R) -> Result<(), DriveError> {
        for (disk, t) in self.submit_traced(req, req.arrival, rec)? {
            self.events.push(t, disk);
        }
        Ok(())
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Consumes the earliest per-disk completion (due at `now`).
    fn on_event<R: Recorder>(&mut self, now: SimTime, rec: &mut R) -> Result<usize, DriveError> {
        let ev = self.events.pop().ok_or(DriveError::NotInService)?;
        debug_assert_eq!(ev.time, now, "the run loop fires the earliest event");
        let out = self.on_disk_complete_traced(ev.payload, ev.time, rec)?;
        if let Some(t) = out.next_on_disk {
            self.events.push(t, ev.payload);
        }
        for (disk, t) in out.started {
            self.events.push(t, disk);
        }
        Ok(usize::from(out.finished.is_some()))
    }

    fn stats(&self) -> &ResponseStats {
        &self.metrics.response_time_ms
    }

    fn finalize(&mut self, end: SimTime) -> ArrayRunResult {
        ArrayController::finalize(self, end);
        ArrayRunResult {
            response_time_ms: self.metrics.response_time_ms.clone(),
            response_hist: self.metrics.response_hist.clone(),
            power: self.power_breakdown(),
            duration: end.saturating_since(SimTime::ZERO),
            completed: self.metrics.completed,
            kernel: self.events.stats(),
            member_queue_peak: self
                .disks
                .iter()
                .map(DiskDrive::queue_peak)
                .max()
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::presets;
    use intradisk::IoKind;

    fn controller(disks: usize, layout: Layout) -> ArrayController {
        ArrayController::new(
            &presets::array_drive_10k_19gb(),
            DriveConfig::conventional(),
            disks,
            layout,
        )
    }

    /// Replays `reqs` (in arrival order) through the shared run loop.
    fn run(array: ArrayController, reqs: Vec<IoRequest>) -> ArrayRunResult {
        intradisk::simulate(reqs, array, &mut NullRecorder, &mut intradisk::NullObserver)
            .expect("valid replay")
    }

    fn reads(n: u64, cap: u64, spacing_ms: f64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                IoRequest::new(
                    i,
                    SimTime::from_millis(i as f64 * spacing_ms),
                    (i * 2_654_435_761) % cap,
                    8,
                    IoKind::Read,
                )
            })
            .collect()
    }

    #[test]
    fn all_logical_requests_complete() {
        let a = controller(4, Layout::striped_default());
        let cap = a.logical_capacity();
        let mut rec = telemetry::RingRecorder::new();
        let r = intradisk::simulate(
            reads(200, cap, 1.0),
            a,
            &mut rec,
            &mut intradisk::NullObserver,
        )
        .expect("valid replay");
        assert_eq!(r.completed, 200);
        let mut ids: Vec<u64> = rec
            .samples()
            .filter_map(|s| match (s.scope, s.event) {
                (0, TraceEvent::Complete { req }) => Some(req),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn more_disks_cut_response_time_under_load() {
        let mut means = Vec::new();
        for n in [1usize, 4] {
            let a = controller(n, Layout::striped_default());
            let cap = a.logical_capacity();
            means.push(run(a, reads(400, cap, 1.0)).response_time_ms.mean());
        }
        assert!(
            means[1] < means[0],
            "4 disks {} !< 1 disk {}",
            means[1],
            means[0]
        );
    }

    #[test]
    fn concatenated_keeps_unsplit_requests_whole() {
        let a = controller(4, Layout::Concatenated);
        let cap = a.logical_capacity();
        assert_eq!(run(a, reads(50, cap, 5.0)).completed, 50);
    }

    #[test]
    fn raid5_write_takes_two_phases() {
        let w = IoRequest::new(0, SimTime::ZERO, 0, 8, IoKind::Write);
        let rmw = run(controller(4, Layout::raid5_default()), vec![w]);
        assert_eq!(rmw.completed, 1);
        // The RMW write must take at least two sequential media
        // accesses' worth of time — far more than a bare write.
        let bare = run(controller(4, Layout::striped_default()), vec![w]);
        assert!(
            rmw.response_time_ms.mean() > bare.response_time_ms.mean(),
            "RAID-5 RMW {} !> RAID-0 write {}",
            rmw.response_time_ms.mean(),
            bare.response_time_ms.mean()
        );
    }

    #[test]
    fn raid5_reads_cost_like_raid0_reads() {
        let a = controller(4, Layout::raid5_default());
        let b = controller(4, Layout::striped_default());
        let cap = a.logical_capacity();
        let ma = run(a, reads(100, cap, 5.0)).response_time_ms.mean();
        let mb = run(b, reads(100, cap, 5.0)).response_time_ms.mean();
        assert!((ma - mb).abs() / mb < 0.35, "raid5 {ma} vs raid0 {mb}");
    }

    #[test]
    fn raid5_writes_slower_than_reads() {
        let a = controller(4, Layout::raid5_default());
        let cap = a.logical_capacity();
        let writes: Vec<IoRequest> = (0..100)
            .map(|i| {
                IoRequest::new(
                    i,
                    SimTime::from_millis(i as f64 * 20.0),
                    (i * 2_654_435_761) % cap,
                    8,
                    IoKind::Write,
                )
            })
            .collect();
        let mw = run(a, writes).response_time_ms.mean();
        let b = controller(4, Layout::raid5_default());
        let mr = run(b, reads(100, cap, 20.0)).response_time_ms.mean();
        assert!(mw > 1.5 * mr, "RMW write {mw} not well above read {mr}");
    }

    #[test]
    fn power_breakdown_scales_with_disks() {
        let a1 = controller(1, Layout::striped_default());
        let a4 = controller(4, Layout::striped_default());
        let cap1 = a1.logical_capacity();
        let cap4 = a4.logical_capacity();
        let p1 = run(a1, reads(100, cap1, 2.0)).power.total_w();
        let p4 = run(a4, reads(100, cap4, 2.0)).power.total_w();
        assert!(p4 > 3.0 * p1, "4-disk power {p4} vs 1-disk {p1}");
    }

    #[test]
    fn lightly_loaded_array_is_mostly_idle_power() {
        // The Figure 3 observation: even I/O-intensive workloads leave
        // MD arrays idle most of the time.
        let a = controller(8, Layout::striped_default());
        let cap = a.logical_capacity();
        let br = run(a, reads(200, cap, 4.0)).power;
        assert!(
            br.idle_w > br.seek_w + br.rotational_w + br.transfer_w,
            "idle {} should dominate {:?}",
            br.idle_w,
            br
        );
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_panics() {
        controller(0, Layout::striped_default());
    }

    #[test]
    fn spurious_completion_is_typed_error() {
        use diskmodel::DriveError;
        let mut a = controller(2, Layout::striped_default());
        // No request was ever submitted, so disk 0 has nothing in
        // service: the event mismatch surfaces as a typed error.
        let err = a.on_disk_complete(0, SimTime::ZERO).unwrap_err();
        assert_eq!(err, DriveError::NotInService);
    }
}
