//! The disk-drive state machine.
//!
//! [`DiskDrive`] is a passive discrete-event component. An array
//! controller calls [`DiskDrive::submit`] when a request arrives and
//! [`DiskDrive::complete`] when a previously returned completion time is
//! reached; as a [`Device`] the drive runs under the shared run loop
//! ([`crate::device::simulate`]), its next event being the in-service
//! request's finish time. The drive services one media request at a time — the
//! HC-SD-SA(n) design's twin restrictions (one arm in motion, one head
//! transferring) make sequential service exact, with the parallelism
//! benefit coming entirely from *which* arm is dispatched and how little
//! it has to move and wait.

use diskmodel::{DiskParams, DriveError, PowerModel};
use simkit::{ResponseStats, SimDuration, SimTime, StatsMode};
use telemetry::{NullRecorder, PowerMode, Recorder, TraceEvent};

use crate::cache::SegmentedCache;
use crate::device::Device;
use crate::failure::FailureSchedule;
use crate::metrics::{close_idle_span, DriveMetrics, DriveMode, PowerBreakdown};
use crate::request::{CompletedIo, IoKind, IoRequest, ServiceBreakdown};
use crate::sched::{PendingQueue, QueuePolicy, ScanCost, DEFAULT_WINDOW};
use crate::service::{ArmChoice, ArmSet, Mechanics};

pub use crate::service::{ArmPlacement, LatencyScaling};

/// Bus rate used for cache-hit transfers, bytes per millisecond
/// (150 MB/s SATA-era sustained).
const CACHE_HIT_BUS_BYTES_PER_MS: f64 = 150_000.0 * 1000.0 / 1000.0;

/// Configuration of one drive instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveConfig {
    /// Number of independent arm assemblies (`n` of HC-SD-SA(n)).
    pub actuators: u32,
    /// Queue scheduling policy.
    pub policy: QueuePolicy,
    /// Limit-study latency scaling (Figure 4); identity for real runs.
    pub scaling: LatencyScaling,
    /// Scheduling window for positioning-aware policies.
    pub window: usize,
    /// Mounting azimuths of the arm assemblies.
    pub placement: ArmPlacement,
    /// Heads per arm per surface (the taxonomy's H dimension; 1 for
    /// conventional drives and the paper's HC-SD-SA(n) designs).
    pub heads_per_arm: u32,
    /// How latency statistics are collected: `Exact` keeps every sample
    /// (the oracle, default); `Streaming` keeps bounded-memory sketches
    /// so 10⁸-request runs don't grow with run length.
    pub stats: StatsMode,
}

impl DriveConfig {
    /// A conventional drive: one actuator, SPTF scheduling.
    pub fn conventional() -> Self {
        Self::sa(1)
    }

    /// The paper's HC-SD-SA(n) configuration.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn sa(n: u32) -> Self {
        assert!(n > 0, "need at least one actuator");
        DriveConfig {
            actuators: n,
            policy: QueuePolicy::Sptf,
            scaling: LatencyScaling::none(),
            window: DEFAULT_WINDOW,
            placement: ArmPlacement::EquallySpaced,
            heads_per_arm: 1,
            stats: StatsMode::Exact,
        }
    }

    /// The `D1 A(l) S1 H(m)` taxonomy point: `l` assemblies with `m`
    /// heads per arm per surface (§4, Figure 1(b)).
    ///
    /// # Panics
    /// Panics if either degree is zero.
    pub fn dash(assemblies: u32, heads_per_arm: u32) -> Self {
        assert!(heads_per_arm > 0, "need at least one head per arm");
        let mut cfg = Self::sa(assemblies);
        cfg.heads_per_arm = heads_per_arm;
        cfg
    }

    /// Replaces the scheduling policy.
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the latency scaling (limit-study knobs).
    pub fn with_scaling(mut self, scaling: LatencyScaling) -> Self {
        self.scaling = scaling;
        self
    }

    /// Replaces the scheduling window.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.window = window;
        self
    }

    /// Replaces the arm-assembly placement (ablation knob).
    pub fn with_placement(mut self, placement: ArmPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Replaces the statistics collection mode (use
    /// [`StatsMode::Streaming`] for runs too large to keep every
    /// sample).
    pub fn with_stats_mode(mut self, stats: StatsMode) -> Self {
        self.stats = stats;
        self
    }
}

impl Default for DriveConfig {
    fn default() -> Self {
        Self::conventional()
    }
}

/// Serves `req` from the on-board cache at `now`: controller overhead,
/// then a bus transfer; no mechanics. Charges the modes to `metrics`.
pub(crate) fn cache_hit(
    req: IoRequest,
    now: SimTime,
    overhead: SimDuration,
    metrics: &mut DriveMetrics,
) -> CompletedIo {
    let bus = SimDuration::from_millis(
        req.sectors as f64 * diskmodel::params::SECTOR_BYTES as f64 / CACHE_HIT_BUS_BYTES_PER_MS,
    );
    metrics.modes.add(DriveMode::Idle.key(), overhead);
    metrics.modes.add(DriveMode::Transfer.key(), bus);
    CompletedIo {
        request: req,
        completed: now + overhead + bus,
        breakdown: ServiceBreakdown {
            queue: now.saturating_since(req.arrival),
            overhead,
            seek: SimDuration::ZERO,
            rotational: SimDuration::ZERO,
            transfer: bus,
        },
        cache_hit: true,
        actuator: 0,
    }
}

#[derive(Debug, Clone)]
struct InService {
    /// The record to publish; `done.completed` is the promised finish.
    done: CompletedIo,
    /// Read-miss extents get installed in the cache at completion.
    install: Option<(u64, u32)>,
}

/// One simulated disk drive (conventional or intra-disk parallel).
#[derive(Debug, Clone)]
pub struct DiskDrive {
    name: String,
    mech: Mechanics,
    power: PowerModel,
    cache: SegmentedCache,
    arms: ArmSet,
    queue: PendingQueue,
    config: DriveConfig,
    in_service: Option<InService>,
    idle_since: SimTime,
    metrics: DriveMetrics,
    capacity: u64,
    overhead: SimDuration,
    /// SMART deconfigurations the run loop applies as time passes.
    failures: FailureSchedule,
    /// Deterministic dispatch/cost/cache counters, flushed to the
    /// global registry when the drive drops (clones start at zero).
    prof: crate::counters::DriveProfCounts,
}

impl DiskDrive {
    /// Creates a drive from a parameter set and configuration.
    pub fn new(params: &DiskParams, config: DriveConfig) -> Self {
        let mech = Mechanics::new(params);
        let arms =
            ArmSet::from_arms(&mech.arms_with_placement(config.actuators, &config.placement));
        let capacity = mech.geometry().total_sectors();
        DiskDrive {
            name: params.name().to_string(),
            power: PowerModel::new(params),
            cache: SegmentedCache::new(params.cache_mib()),
            queue: PendingQueue::new(config.window, arms.len()),
            arms,
            metrics: DriveMetrics::with_mode(config.actuators, config.stats),
            config,
            in_service: None,
            idle_since: SimTime::ZERO,
            mech,
            capacity,
            overhead: params.controller_overhead(),
            failures: FailureSchedule::new(),
            prof: crate::counters::DriveProfCounts::new(),
        }
    }

    /// Attaches a SMART failure schedule (§8's graceful-degradation
    /// study). Under the run loop, every failure due by an arrival or
    /// completion instant is applied before the drive acts on it.
    pub fn with_failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }

    /// Applies the attached failures due at or before `now`.
    #[inline]
    fn apply_due_failures(&mut self, now: SimTime) {
        if self.failures.next_at().is_some_and(|at| at <= now) {
            let mut failures = std::mem::take(&mut self.failures);
            failures.apply_due(self, now);
            self.failures = failures;
        }
    }

    /// Model name of the underlying drive.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Addressable capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity
    }

    /// Statistics collected so far.
    pub fn metrics(&self) -> &DriveMetrics {
        &self.metrics
    }

    /// Deepest the pending queue has been over the drive's lifetime.
    pub fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    /// True if no request is in service or queued.
    pub fn is_idle(&self) -> bool {
        self.in_service.is_none() && self.queue.is_empty()
    }

    /// Marks actuator `index` as failed (SMART-predicted failure, §8).
    /// The drive keeps operating on the remaining assemblies.
    ///
    /// Returns `false` (and changes nothing) if the index is invalid or
    /// this is the last live assembly.
    pub fn deconfigure_actuator(&mut self, index: u32) -> bool {
        let idx = index as usize;
        if idx < self.arms.len() && !self.arms.is_failed(idx) && self.arms.live_count() > 1 {
            self.arms.set_failed(idx);
            true
        } else {
            false
        }
    }

    /// Number of live (not deconfigured) assemblies.
    pub fn live_actuators(&self) -> u32 {
        self.arms.live_count() as u32
    }

    /// Submits a request at time `now` (which must not precede the
    /// request's arrival time). Returns the completion time if the
    /// drive was idle and service started immediately.
    ///
    /// Requests addressing beyond the device are wrapped modulo the
    /// capacity, as trace-replay tools conventionally do.
    ///
    /// # Errors
    /// Returns [`DriveError::SubmitBeforeArrival`] if `now <
    /// req.arrival`, or [`DriveError::NoLiveArm`] if every assembly has
    /// failed.
    pub fn submit(&mut self, req: IoRequest, now: SimTime) -> Result<Option<SimTime>, DriveError> {
        self.submit_traced(req, now, &mut NullRecorder)
    }

    /// [`DiskDrive::submit`] with event tracing: every lifecycle step
    /// (submission, queueing, dispatch, seek/rotation/transfer phases,
    /// cache interaction) is emitted to `rec`. With
    /// [`telemetry::NullRecorder`] this is exactly `submit`.
    pub fn submit_traced<R: Recorder>(
        &mut self,
        mut req: IoRequest,
        now: SimTime,
        rec: &mut R,
    ) -> Result<Option<SimTime>, DriveError> {
        if now < req.arrival {
            return Err(DriveError::SubmitBeforeArrival {
                arrival: req.arrival,
                now,
            });
        }
        if req.lba >= self.capacity {
            req.lba %= self.capacity;
        }
        if R::ENABLED {
            rec.record(now, req.submitted());
        }
        if self.in_service.is_some() {
            self.queue.push(req);
            if R::ENABLED {
                rec.record(
                    now,
                    TraceEvent::RequestQueued {
                        req: req.id,
                        depth: self.queue.len() as u32,
                    },
                );
            }
            return Ok(None);
        }
        // Close the idle span that ends now.
        close_idle_span(&mut self.metrics.modes, self.idle_since, now);
        Ok(Some(self.start_service(req, now, 0, None, rec)?))
    }

    /// Completes the in-service request (must be called exactly at the
    /// completion time previously returned). Returns the completion
    /// record and, if another request was started, its completion time.
    ///
    /// # Errors
    /// Returns [`DriveError::NotInService`] if no request is in
    /// service, or [`DriveError::WrongCompletionTime`] if `now` is not
    /// the promised completion time (the in-service request is left
    /// untouched in that case).
    pub fn complete(&mut self, now: SimTime) -> Result<(CompletedIo, Option<SimTime>), DriveError> {
        self.complete_traced(now, &mut NullRecorder)
    }

    /// [`DiskDrive::complete`] with event tracing (see
    /// [`DiskDrive::submit_traced`]).
    pub fn complete_traced<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
    ) -> Result<(CompletedIo, Option<SimTime>), DriveError> {
        let srv = match self.in_service.take() {
            Some(srv) => srv,
            None => return Err(DriveError::NotInService),
        };
        if srv.done.completed != now {
            let promised = srv.done.completed;
            self.in_service = Some(srv);
            return Err(DriveError::WrongCompletionTime { promised, at: now });
        }
        if let Some((lba, sectors)) = srv.install {
            self.cache.install(lba, sectors);
        }
        self.metrics.record(&srv.done);
        if R::ENABLED {
            rec.record(
                now,
                TraceEvent::Complete {
                    req: srv.done.request.id,
                },
            );
        }

        let next = self.dispatch_next(now, rec)?;
        if next.is_none() {
            self.idle_since = now;
            if R::ENABLED {
                rec.record(
                    now,
                    TraceEvent::PowerModeChange {
                        mode: PowerMode::Idle,
                    },
                );
                for i in 0..self.arms.len() {
                    if !self.arms.is_failed(i) {
                        rec.record(now, TraceEvent::ActuatorIdle { actuator: i as u32 });
                    }
                }
            }
        }
        Ok((srv.done, next))
    }

    /// Chooses and starts the next queued request, if any.
    // simlint: hot — the per-event SPTF dispatch loop; runs once per
    // completion for the whole simulated run.
    fn dispatch_next<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
    ) -> Result<Option<SimTime>, DriveError> {
        self.prof.scans.bump();
        // Positioning starts after the controller overhead; estimating
        // from `now` would systematically pick sectors that have just
        // passed the head by the time the seek is issued.
        let cost = ScanCost {
            mech: &self.mech,
            arms: &self.arms,
            heads: self.config.heads_per_arm,
            start: now + self.overhead,
            scaling: self.config.scaling,
        };
        let live = |a: usize| !self.arms.is_failed(a);
        let policy = self.config.policy;
        let Some((next, choice)) = self.queue.pop_next(policy, &cost, live, Some(&self.prof))
        else {
            return Ok(None);
        };
        let depth = self.queue.len() as u32;
        Ok(Some(self.start_service(next, now, depth, choice, rec)?))
    }

    /// Starts servicing `req` at `now`; returns the completion time.
    ///
    /// `depth` is the queue depth left behind by this dispatch (0 when
    /// service starts straight from `submit`); `choice` is the arm the
    /// dispatch scan already priced for `req`, if it did. The whole
    /// access is planned here, so the traced phase boundaries (seek,
    /// rotational wait, transfer) are emitted now with their future
    /// timestamps; the `(time, seq)` sample order restores the timeline.
    fn start_service<R: Recorder>(
        &mut self,
        req: IoRequest,
        now: SimTime,
        depth: u32,
        choice: Option<ArmChoice>,
        rec: &mut R,
    ) -> Result<SimTime, DriveError> {
        let queue_wait = now.saturating_since(req.arrival);
        let overhead = self.overhead;

        // Cache check (reads only; writes are written through).
        if req.kind.is_read() && self.cache.lookup(req.lba, req.sectors) {
            self.prof.cache_hits.bump();
            let done = cache_hit(req, now, overhead, &mut self.metrics);
            if R::ENABLED {
                rec.record(now, TraceEvent::CacheHit { req: req.id });
                rec.record(
                    now + overhead,
                    TraceEvent::PowerModeChange {
                        mode: PowerMode::Transfer,
                    },
                );
                rec.record(
                    now + overhead,
                    TraceEvent::Transfer {
                        req: req.id,
                        actuator: 0,
                        dur: done.breakdown.transfer,
                    },
                );
            }
            let finish = done.completed;
            self.in_service = Some(InService {
                done,
                install: None,
            });
            return Ok(finish);
        }

        if req.kind == IoKind::Write {
            self.cache.invalidate(req.lba, req.sectors);
        } else {
            self.prof.cache_misses.bump();
        }

        let plan = match choice {
            Some(choice) => self.mech.plan_for(choice, req.sectors),
            None => {
                self.prof.plan_evals.bump();
                self.mech.plan_set_with_heads(
                    &self.arms,
                    self.config.heads_per_arm,
                    req.lba,
                    req.sectors,
                    now + overhead,
                    self.config.scaling,
                )?
            }
        };
        let finish = now + overhead + plan.total();

        if R::ENABLED {
            // Capture the departure cylinder before the arm state is
            // advanced to the access's end cylinder below.
            let from_cylinder = self.arms.cylinder(plan.actuator as usize);
            let seek_start = now + overhead;
            let seek_end = seek_start + plan.seek;
            let xfer_start = seek_end + plan.rotational;
            rec.record(
                now,
                TraceEvent::Dispatched {
                    req: req.id,
                    actuator: plan.actuator,
                    depth,
                },
            );
            if req.kind.is_read() {
                rec.record(now, TraceEvent::CacheMiss { req: req.id });
            }
            rec.record(
                seek_start,
                TraceEvent::PowerModeChange {
                    mode: PowerMode::Seek,
                },
            );
            rec.record(
                seek_start,
                TraceEvent::SeekStart {
                    req: req.id,
                    actuator: plan.actuator,
                    from_cylinder,
                    to_cylinder: plan.end_cylinder,
                },
            );
            rec.record(
                seek_end,
                TraceEvent::SeekEnd {
                    req: req.id,
                    actuator: plan.actuator,
                },
            );
            rec.record(
                seek_end,
                TraceEvent::PowerModeChange {
                    mode: PowerMode::RotationalWait,
                },
            );
            rec.record(
                seek_end,
                TraceEvent::RotWait {
                    req: req.id,
                    actuator: plan.actuator,
                    dur: plan.rotational,
                },
            );
            rec.record(
                xfer_start,
                TraceEvent::PowerModeChange {
                    mode: PowerMode::Transfer,
                },
            );
            rec.record(
                xfer_start,
                TraceEvent::Transfer {
                    req: req.id,
                    actuator: plan.actuator,
                    dur: plan.transfer,
                },
            );
        }

        self.arms
            .set_cylinder(plan.actuator as usize, plan.end_cylinder);

        self.metrics.modes.add(DriveMode::Idle.key(), overhead);
        self.metrics.modes.add(DriveMode::Seek.key(), plan.seek);
        self.metrics
            .modes
            .add(DriveMode::RotationalWait.key(), plan.rotational);
        self.metrics
            .modes
            .add(DriveMode::Transfer.key(), plan.transfer);

        let done = CompletedIo {
            request: req,
            completed: finish,
            breakdown: ServiceBreakdown {
                queue: queue_wait,
                overhead,
                seek: plan.seek,
                rotational: plan.rotational,
                transfer: plan.transfer,
            },
            cache_hit: false,
            actuator: plan.actuator,
        };
        self.in_service = Some(InService {
            done,
            install: req.kind.is_read().then_some((req.lba, req.sectors)),
        });
        Ok(finish)
    }

    /// Closes accounting at the end of a run: the span from the last
    /// completion to `end` is idle time (the drive still burns spindle
    /// power). Call once, after the event loop drains.
    ///
    /// # Panics
    /// Panics if a request is still in service.
    pub fn finalize(&mut self, end: SimTime) {
        assert!(
            self.in_service.is_none(),
            "finalize with a request in service"
        );
        close_idle_span(&mut self.metrics.modes, self.idle_since, end);
        self.idle_since = end;
        self.metrics.finalize();
    }

    /// Average-power breakdown over the accounted time.
    pub fn power_breakdown(&self) -> PowerBreakdown {
        PowerBreakdown::from_modes(&self.metrics.modes, &self.power)
    }
}

/// Result of replaying a workload on a single drive.
#[derive(Debug, Clone)]
pub struct DriveRunResult {
    /// Everything the drive recorded.
    pub metrics: DriveMetrics,
    /// Average-power breakdown over the run.
    pub power: PowerBreakdown,
    /// Wall-clock span of the run.
    pub duration: SimDuration,
    /// Deepest the drive's pending queue got during the run.
    pub queue_peak: usize,
}

impl DriveRunResult {
    /// The 90th-percentile response time in milliseconds (exact when
    /// the drive ran in `StatsMode::Exact`; bounded-error streaming
    /// read otherwise).
    ///
    /// The run loop finalizes the stats when the replay ends, so this
    /// is an indexed read on a shared reference.
    pub fn p90_ms(&self) -> f64 {
        self.metrics.response_time_ms.percentile(90.0)
    }

    /// The 90th percentile from the bounded-memory streaming view —
    /// available in either mode, and agrees with
    /// [`DriveRunResult::p90_ms`] within the streaming histogram's
    /// documented relative-error bound.
    pub fn p90_stream_ms(&self) -> f64 {
        self.metrics.response_time_ms.percentile_stream(90.0)
    }
}

impl Device for DiskDrive {
    type Report = DriveRunResult;

    fn submit<R: Recorder>(&mut self, req: IoRequest, rec: &mut R) -> Result<(), DriveError> {
        self.apply_due_failures(req.arrival);
        self.submit_traced(req, req.arrival, rec).map(drop)
    }

    #[inline]
    fn next_event_time(&self) -> Option<SimTime> {
        self.in_service.as_ref().map(|s| s.done.completed)
    }

    fn on_event<R: Recorder>(&mut self, now: SimTime, rec: &mut R) -> Result<usize, DriveError> {
        self.apply_due_failures(now);
        self.complete_traced(now, rec).map(|_| 1)
    }

    #[inline]
    fn stats(&self) -> &ResponseStats {
        &self.metrics.response_time_ms
    }

    fn finalize(&mut self, end: SimTime) -> DriveRunResult {
        DiskDrive::finalize(self, end);
        DriveRunResult {
            power: self.power_breakdown(),
            metrics: self.metrics.clone(),
            duration: end.saturating_since(SimTime::ZERO),
            queue_peak: self.queue_peak(),
        }
    }
}

/// On drop, the drive publishes its queue high-water mark to the
/// deterministic counter registry (a max, so clones re-flushing is
/// idempotent); its `DriveProfCounts` batchers flush themselves.
impl Drop for DiskDrive {
    fn drop(&mut self) {
        crate::counters::QUEUE_PEAK_DEPTH.record_max(self.queue.peak_len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{simulate, NullObserver};
    use diskmodel::presets;

    fn drive(n: u32) -> DiskDrive {
        DiskDrive::new(&presets::barracuda_es_750gb(), DriveConfig::sa(n))
    }

    /// Replays `reqs` through the shared run loop.
    fn run(drive: DiskDrive, reqs: Vec<IoRequest>) -> DriveRunResult {
        simulate(reqs, drive, &mut NullRecorder, &mut NullObserver).expect("valid replay")
    }

    /// Replays `reqs` and returns the request ids in completion order.
    fn completion_order(drive: DiskDrive, reqs: Vec<IoRequest>) -> Vec<u64> {
        let mut rec = telemetry::RingRecorder::new();
        simulate(reqs, drive, &mut rec, &mut NullObserver).expect("valid replay");
        rec.samples()
            .filter_map(|s| match s.event {
                TraceEvent::Complete { req } => Some(req),
                _ => None,
            })
            .collect()
    }

    fn scattered(n: u64, cap: u64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                IoRequest::new(
                    i,
                    SimTime::from_millis(i as f64 * 0.5),
                    (i * 48_271_usize as u64 * 65_537) % cap,
                    8,
                    IoKind::Read,
                )
            })
            .collect()
    }

    #[test]
    fn single_request_lifecycle() {
        let mut d = drive(1);
        let req = IoRequest::new(0, SimTime::ZERO, 123_456, 8, IoKind::Read);
        let finish = d
            .submit(req, SimTime::ZERO)
            .expect("valid submit")
            .expect("idle drive starts");
        assert!(finish > SimTime::ZERO);
        let (done, next) = d.complete(finish).expect("valid complete");
        assert!(next.is_none());
        assert_eq!(done.request.id, 0);
        assert!(!done.cache_hit);
        assert!(done.breakdown.rotational < SimDuration::from_millis(8.4));
        assert!(d.is_idle());
        assert_eq!(d.metrics().completed, 1);
    }

    #[test]
    fn second_read_same_block_hits_cache() {
        let mut d = drive(1);
        let r0 = IoRequest::new(0, SimTime::ZERO, 1000, 8, IoKind::Read);
        let f0 = d.submit(r0, SimTime::ZERO).unwrap().unwrap();
        let _ = d.complete(f0).unwrap();
        let r1 = IoRequest::new(1, f0, 1000, 8, IoKind::Read);
        let f1 = d.submit(r1, f0).unwrap().unwrap();
        let (done, _) = d.complete(f1).unwrap();
        assert!(done.cache_hit);
        assert!(done.breakdown.service_time() < SimDuration::from_millis(1.0));
    }

    #[test]
    fn write_then_read_misses_after_invalidate() {
        let mut d = drive(1);
        let r0 = IoRequest::new(0, SimTime::ZERO, 1000, 8, IoKind::Read);
        let f0 = d.submit(r0, SimTime::ZERO).unwrap().unwrap();
        let _ = d.complete(f0).unwrap();
        let w = IoRequest::new(1, f0, 1000, 8, IoKind::Write);
        let f1 = d.submit(w, f0).unwrap().unwrap();
        let (wd, _) = d.complete(f1).unwrap();
        assert!(!wd.cache_hit, "writes always reach media");
        let r2 = IoRequest::new(2, f1, 1000, 8, IoKind::Read);
        let f2 = d.submit(r2, f1).unwrap().unwrap();
        let (rd, _) = d.complete(f2).unwrap();
        assert!(!rd.cache_hit, "write invalidated the segment");
    }

    #[test]
    fn queued_requests_all_complete() {
        let d = drive(1);
        let reqs = scattered(100, d.capacity_sectors());
        let mut ids = completion_order(d.clone(), reqs.clone());
        assert_eq!(run(d, reqs).metrics.completed, 100);
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn more_actuators_cut_mean_response_time() {
        let mut means = Vec::new();
        for n in [1u32, 2, 4] {
            let d = drive(n);
            let reqs = scattered(400, d.capacity_sectors());
            means.push(run(d, reqs).metrics.response_time_ms.mean());
        }
        assert!(
            means[1] < means[0],
            "SA(2) {} !< SA(1) {}",
            means[1],
            means[0]
        );
        assert!(
            means[2] < means[1],
            "SA(4) {} !< SA(2) {}",
            means[2],
            means[1]
        );
    }

    #[test]
    fn rotational_latency_shrinks_with_actuators() {
        // Light load (no queueing) isolates the pure multi-azimuth
        // effect: with k equally spaced assemblies and free choice the
        // expected rotational wait drops toward T/2k.
        let mut rot = Vec::new();
        for n in [1u32, 4] {
            let d = drive(n);
            let reqs: Vec<IoRequest> = (0..400u64)
                .map(|i| {
                    IoRequest::new(
                        i,
                        SimTime::from_millis(i as f64 * 40.0),
                        (i * 48_271 * 65_537) % d.capacity_sectors(),
                        8,
                        IoKind::Read,
                    )
                })
                .collect();
            rot.push(run(d, reqs).metrics.rotational_ms.mean());
        }
        // SA(1) sees ~T/2 ≈ 4.2 ms on average. The dispatcher minimizes
        // seek + rotation jointly, so the chosen arm's rotational wait
        // shrinks by less than the ideal 4× (the §7.2 observation that
        // SA(2) diverges from the pure (1/2)R scaling) — but it must
        // still shrink substantially.
        assert!(
            rot[0] > 3.0,
            "SA(1) rotational {} unexpectedly small",
            rot[0]
        );
        assert!(
            rot[1] < rot[0] * 0.75,
            "SA(4) rotational {} not well below SA(1) {}",
            rot[1],
            rot[0]
        );
    }

    #[test]
    fn zero_rotational_scaling_eliminates_rotational_latency() {
        let params = presets::barracuda_es_750gb();
        let cfg = DriveConfig::sa(1).with_scaling(LatencyScaling::rotational_only(0.0));
        let d = DiskDrive::new(&params, cfg);
        let reqs = scattered(50, d.capacity_sectors());
        assert_eq!(run(d, reqs).metrics.rotational_ms.max(), 0.0);
    }

    #[test]
    fn mode_times_cover_entire_run() {
        let d = drive(2);
        let reqs = scattered(50, d.capacity_sectors());
        let r = run(d, reqs);
        // All wall-clock time from 0 to the last completion is
        // attributed to some mode.
        assert_eq!(r.metrics.modes.total_time(), r.duration);
    }

    #[test]
    fn power_breakdown_within_physical_bounds() {
        let d = drive(2);
        let pm = PowerModel::new(&presets::barracuda_es_750gb());
        let reqs = scattered(200, d.capacity_sectors());
        let br = run(d, reqs).power;
        assert!(br.total_w() >= pm.idle_w() - 1e-9, "below idle floor");
        assert!(br.total_w() <= pm.seek_w(1) + 1e-9, "above 1-arm ceiling");
    }

    #[test]
    fn deconfigured_actuator_not_dispatched() {
        let mut d = drive(2);
        assert!(d.deconfigure_actuator(1));
        assert_eq!(d.live_actuators(), 1);
        let reqs = scattered(100, d.capacity_sectors());
        let r = run(d, reqs);
        assert_eq!(r.metrics.per_actuator[0], 100);
        assert_eq!(r.metrics.per_actuator[1], 0);
    }

    #[test]
    fn last_actuator_cannot_be_deconfigured() {
        let mut d = drive(1);
        assert!(!d.deconfigure_actuator(0));
        assert_eq!(d.live_actuators(), 1);
        let mut d2 = drive(2);
        assert!(d2.deconfigure_actuator(0));
        assert!(!d2.deconfigure_actuator(1), "last live arm must remain");
    }

    #[test]
    fn second_head_helps_less_than_second_assembly() {
        // D1A1S1H2 cuts only a slice of the rotational latency (heads
        // on one arm sit ~45 degrees apart); D1A2S1H1 shortens seeks
        // and rotation. Expected ordering at light load:
        //   conventional >= H2 >= A2.
        let params = presets::barracuda_es_750gb();
        let reqs: Vec<IoRequest> = (0..300u64)
            .map(|i| {
                IoRequest::new(
                    i,
                    SimTime::from_millis(i as f64 * 40.0),
                    (i * 48_271 * 65_537) % 1_400_000_000,
                    8,
                    IoKind::Read,
                )
            })
            .collect();
        let mean = |cfg: DriveConfig| {
            run(DiskDrive::new(&params, cfg), reqs.clone())
                .metrics
                .response_time_ms
                .mean()
        };
        let conventional = mean(DriveConfig::conventional());
        let h2 = mean(DriveConfig::dash(1, 2));
        let a2 = mean(DriveConfig::sa(2));
        assert!(h2 < conventional, "H2 {h2} vs conventional {conventional}");
        assert!(a2 <= h2 * 1.02, "A2 {a2} vs H2 {h2}");
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let params = presets::barracuda_es_750gb();
        let d = DiskDrive::new(&params, DriveConfig::sa(1).with_policy(QueuePolicy::Fcfs));
        let reqs = scattered(20, d.capacity_sectors());
        assert_eq!(completion_order(d, reqs), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn sptf_beats_fcfs_under_load() {
        let params = presets::barracuda_es_750gb();
        let mut means = Vec::new();
        for policy in [QueuePolicy::Fcfs, QueuePolicy::Sptf] {
            let d = DiskDrive::new(&params, DriveConfig::sa(1).with_policy(policy));
            // Heavy burst: all arrive at time zero.
            let reqs: Vec<IoRequest> = (0..300)
                .map(|i| {
                    IoRequest::new(
                        i,
                        SimTime::ZERO,
                        (i * 321_456_789) % d.capacity_sectors(),
                        8,
                        IoKind::Read,
                    )
                })
                .collect();
            means.push(run(d, reqs).metrics.response_time_ms.mean());
        }
        assert!(
            means[1] < means[0],
            "SPTF {} !< FCFS {}",
            means[1],
            means[0]
        );
    }

    #[test]
    fn out_of_range_lba_wraps() {
        let mut d = drive(1);
        let cap = d.capacity_sectors();
        let req = IoRequest::new(0, SimTime::ZERO, cap + 5, 8, IoKind::Read);
        let f = d.submit(req, SimTime::ZERO).unwrap().unwrap();
        let (done, _) = d.complete(f).unwrap();
        assert_eq!(done.request.lba, 5);
    }

    #[test]
    fn complete_when_idle_is_typed_error() {
        let err = drive(1).complete(SimTime::ZERO).unwrap_err();
        assert_eq!(err, DriveError::NotInService);
    }

    #[test]
    fn complete_at_wrong_time_is_typed_error_and_recoverable() {
        let mut d = drive(1);
        let req = IoRequest::new(0, SimTime::ZERO, 123_456, 8, IoKind::Read);
        let finish = d.submit(req, SimTime::ZERO).unwrap().unwrap();
        let early = SimTime::from_millis(finish.as_millis() / 2.0);
        let err = d.complete(early).unwrap_err();
        assert_eq!(
            err,
            DriveError::WrongCompletionTime {
                promised: finish,
                at: early
            }
        );
        // The request stays in service; completing at the right time works.
        let (done, _) = d.complete(finish).unwrap();
        assert_eq!(done.request.id, 0);
    }

    #[test]
    fn submit_before_arrival_is_typed_error() {
        let mut d = drive(1);
        let req = IoRequest::new(0, SimTime::from_millis(5.0), 64, 8, IoKind::Read);
        let err = d.submit(req, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, DriveError::SubmitBeforeArrival { .. }));
        assert!(d.is_idle(), "rejected request must not enter the queue");
    }
}
