//! The disk-drive state machine.
//!
//! [`DiskDrive`] is a passive discrete-event component stepped as a
//! [`Device`]: the shared run loop ([`crate::device::simulate`]) and
//! the array controller submit requests to it and fire its next event,
//! the earliest finish among its requests in service. By default the
//! drive services one media request at a time — the HC-SD-SA(n)
//! design's twin restrictions (one arm in motion, one head
//! transferring) make sequential service exact, with the parallelism
//! benefit coming entirely from *which* arm is dispatched and how
//! little it has to move and wait. [`OverlapMode`] lifts those
//! restrictions for §7.2's relaxations, one request per arm assembly.

use diskmodel::{DiskParams, DriveError, PowerModel};
use simkit::{ResponseStats, SimDuration, SimTime, StatsMode};
use telemetry::{NullRecorder, PowerMode, Recorder, TraceEvent};

use crate::cache::SegmentedCache;
use crate::device::Device;
use crate::failure::FailureSchedule;
use crate::metrics::{close_idle_span, DriveMetrics, DriveMode, PowerBreakdown};
use crate::request::{CompletedIo, IoKind, IoRequest, ServiceBreakdown};
use crate::sched::{PendingQueue, QueuePolicy, ScanCost, DEFAULT_WINDOW};
use crate::service::{ArmChoice, ArmSet, Mechanics, ServicePlan};

pub use crate::service::{ArmPlacement, LatencyScaling};

/// Bus rate used for cache-hit transfers, bytes per millisecond
/// (150 MB/s SATA-era sustained).
const CACHE_HIT_BUS_BYTES_PER_MS: f64 = 150_000.0 * 1000.0 / 1000.0;

/// Which of a multi-actuator drive's resources requests may share in
/// time. The default is the paper's HC-SD-SA(n); the other two are the
/// relaxations of the technical report's §7.2 ("Our first extension
/// allowed multiple arms to be in motion simultaneously and the second
/// extension allowed multiple channels to transfer data
/// simultaneously. We found that these two extensions provide little
/// benefit over the HC-SD-SA(n) design").
///
/// Under either relaxation the drive services up to one request per
/// free arm assembly at once and records no `PowerModeChange` events:
/// with several arms busy it has no single mode, while its per-phase
/// spans (seek, rotational wait, transfer) may overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverlapMode {
    /// One arm in motion and one transfer at a time: a request is
    /// serviced end to end before the next is dispatched.
    #[default]
    SingleArmMotion,
    /// Arms seek concurrently; the single data channel still
    /// serializes transfers, and a transfer that finds it busy waits
    /// for it and then re-aligns with its sector. One request is
    /// positioned ahead while another transfers: binding more would
    /// serialize through the channel with a rotational re-alignment
    /// each, while freezing scheduling choices made too early.
    MultiMotion,
    /// Every assembly positions and transfers independently (an upper
    /// bound requiring per-arm read/write channels).
    MultiChannel,
}

/// Configuration of one drive instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveConfig {
    /// Number of independent arm assemblies (`n` of HC-SD-SA(n)).
    pub actuators: u32,
    /// Queue scheduling policy.
    pub policy: QueuePolicy,
    /// Limit-study latency scaling (Figure 4); identity for real runs.
    pub scaling: LatencyScaling,
    /// Mounting azimuths of the arm assemblies.
    pub placement: ArmPlacement,
    /// Heads per arm per surface (the taxonomy's H dimension; 1 for
    /// conventional drives and the paper's HC-SD-SA(n) designs).
    pub heads_per_arm: u32,
    /// How latency statistics are collected: `Exact` keeps every sample
    /// (the oracle, default); `Streaming` keeps bounded-memory sketches
    /// so 10⁸-request runs don't grow with run length.
    pub stats: StatsMode,
    /// Which resources concurrent requests may share.
    pub overlap: OverlapMode,
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
            placement: ArmPlacement::EquallySpaced,
            heads_per_arm: 1,
            stats: StatsMode::Exact,
            overlap: OverlapMode::SingleArmMotion,
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

    /// Replaces the overlap mode (§7.2's relaxations).
    pub fn with_overlap(mut self, overlap: OverlapMode) -> Self {
        self.overlap = overlap;
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

/// True if assembly `arm` is live and no media access in service holds
/// it past `now`. An access that finishes at `now` frees its arm even
/// while it waits to be retired behind an arrival at `now`.
fn arm_free(arms: &ArmSet, in_service: &[InService], arm: usize, now: SimTime) -> bool {
    !arms.is_failed(arm)
        && in_service
            .iter()
            .all(|s| s.done.cache_hit || s.done.actuator as usize != arm || s.done.completed <= now)
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
    /// The requests in service, at most one per live assembly; the
    /// next event is the earliest finish among them.
    in_service: Vec<InService>,
    /// When the shared data channel is next free (`MultiMotion` only;
    /// zero otherwise).
    channel_free_at: SimTime,
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
            queue: PendingQueue::new(DEFAULT_WINDOW, arms.len()),
            in_service: Vec::with_capacity(arms.len()),
            arms,
            metrics: DriveMetrics::with_mode(config.actuators, config.stats),
            config,
            channel_free_at: SimTime::ZERO,
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
        self.in_service.is_empty() && self.queue.is_empty()
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

    /// Most requests the overlap mode lets be in service at once.
    #[inline]
    fn max_in_service(&self) -> usize {
        match self.config.overlap {
            OverlapMode::SingleArmMotion => 1,
            OverlapMode::MultiMotion => self.arms.live_count().min(2),
            OverlapMode::MultiChannel => self.arms.live_count(),
        }
    }

    /// Records a drive-wide power-mode change. The relaxed overlap
    /// modes record none: with several arms busy the drive has no
    /// single mode.
    #[inline]
    fn mode_change<R: Recorder>(&self, rec: &mut R, at: SimTime, mode: PowerMode) {
        if self.config.overlap == OverlapMode::SingleArmMotion {
            rec.record(at, TraceEvent::PowerModeChange { mode });
        }
    }

    /// Queues `req` at `now`, or starts serving it on an idle drive.
    /// Requests addressing beyond the device are wrapped modulo the
    /// capacity, as trace-replay tools conventionally do.
    fn accept<R: Recorder>(
        &mut self,
        mut req: IoRequest,
        now: SimTime,
        rec: &mut R,
    ) -> Result<(), DriveError> {
        if req.lba >= self.capacity {
            req.lba %= self.capacity;
        }
        if R::ENABLED {
            rec.record(now, req.submitted());
        }
        if self.in_service.is_empty() {
            // Close the idle span that ends now.
            close_idle_span(&mut self.metrics.modes, self.idle_since, now);
            if self.config.overlap == OverlapMode::SingleArmMotion {
                return self.start_service(req, now, 0, None, rec);
            }
        }
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
        self.dispatch(now, rec)
    }

    /// Retires every request in service whose promised finish is `now`,
    /// handing each record to `done` in the order of a `swap_remove`
    /// scan, then dispatches onto the arms that freed up. Fails with
    /// [`DriveError::NotInService`] or, changing nothing,
    /// [`DriveError::WrongCompletionTime`] when nothing finishes at
    /// `now`.
    fn retire<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
        mut done: impl FnMut(&CompletedIo),
    ) -> Result<(), DriveError> {
        let before = self.in_service.len();
        let mut i = 0;
        while i < self.in_service.len() {
            if self.in_service[i].done.completed != now {
                i += 1;
                continue;
            }
            let srv = self.in_service.swap_remove(i);
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
            done(&srv.done);
        }
        if self.in_service.len() == before {
            return Err(match self.next_event_time() {
                None => DriveError::NotInService,
                Some(promised) => DriveError::WrongCompletionTime { promised, at: now },
            });
        }

        self.dispatch(now, rec)?;
        if self.in_service.is_empty() {
            self.idle_since = now;
            if R::ENABLED {
                self.mode_change(rec, now, PowerMode::Idle);
                for i in 0..self.arms.len() {
                    if !self.arms.is_failed(i) {
                        rec.record(now, TraceEvent::ActuatorIdle { actuator: i as u32 });
                    }
                }
            }
        }
        Ok(())
    }

    /// Submits a request at `now` (not before its arrival); returns its
    /// completion time if the drive was idle and started it. Kept only
    /// for perfbench's ledger until ROADMAP item 1 removes it; everything
    /// else steps the drive as a [`Device`].
    ///
    /// # Errors
    /// Returns [`DriveError::SubmitBeforeArrival`] if `now <
    /// req.arrival`, or [`DriveError::NoLiveArm`] if every assembly has
    /// failed.
    pub fn submit(&mut self, req: IoRequest, now: SimTime) -> Result<Option<SimTime>, DriveError> {
        if now < req.arrival {
            return Err(DriveError::SubmitBeforeArrival {
                arrival: req.arrival,
                now,
            });
        }
        let was_idle = self.in_service.is_empty();
        self.accept(req, now, &mut NullRecorder)?;
        Ok(self.next_event_time().filter(|_| was_idle))
    }

    /// Completes the in-service request at its completion time; returns
    /// its record (the last retired, if several finish at `now`) and
    /// the next completion time, if any. Kept only for perfbench's
    /// ledger until ROADMAP item 1 removes it.
    ///
    /// # Errors
    /// [`DriveError::NotInService`] or
    /// [`DriveError::WrongCompletionTime`].
    pub fn complete(&mut self, now: SimTime) -> Result<(CompletedIo, Option<SimTime>), DriveError> {
        let mut last = None;
        self.retire(now, &mut NullRecorder, |done| last = Some(*done))?;
        let done = last.ok_or(DriveError::NotInService)?;
        Ok((done, self.next_event_time()))
    }

    /// Dispatches queued requests onto free arms while the overlap mode
    /// allows another request in service.
    // Hot path: the per-event SPTF dispatch loop; runs once per
    // completion for the whole simulated run.
    fn dispatch<R: Recorder>(&mut self, now: SimTime, rec: &mut R) -> Result<(), DriveError> {
        while self.in_service.len() < self.max_in_service() {
            // Fewer requests in service than the mode allows leaves a
            // live arm with none, so the scan has an arm to price.
            let (arms, in_service) = (&self.arms, &self.in_service);
            let free = |a: usize| arm_free(arms, in_service, a, now);
            self.prof.scans.bump();
            // Positioning starts after the controller overhead; estimating
            // from `now` would systematically pick sectors that have just
            // passed the head by the time the seek is issued.
            let cost = ScanCost {
                mech: &self.mech,
                arms,
                heads: self.config.heads_per_arm,
                start: now + self.overhead,
                scaling: self.config.scaling,
            };
            let policy = self.config.policy;
            let Some((next, choice)) = self.queue.pop_next(policy, &cost, free, Some(&self.prof))
            else {
                break;
            };
            let depth = self.queue.len() as u32;
            self.start_service(next, now, depth, choice, rec)?;
        }
        Ok(())
    }

    /// Plans the access to `lba` under a relaxed overlap mode: each free
    /// arm's rotational wait runs from the later of its seek's end and
    /// the shared channel's release, and the arm whose transfer starts
    /// first wins (a strict `<` keeps the first). The plan's rotational
    /// wait includes any wait for the channel: the head is over the
    /// track, not transferring.
    fn plan_overlapped(
        &self,
        lba: u64,
        sectors: u32,
        now: SimTime,
    ) -> Result<ServicePlan, DriveError> {
        let start = now + self.overhead;
        let (heads, scaling) = (self.config.heads_per_arm, self.config.scaling);
        let target = self.mech.target(lba);
        let mut best: Option<(ArmChoice, SimTime)> = None;
        for arm in 0..self.arms.len() {
            if !arm_free(&self.arms, &self.in_service, arm, now) {
                continue;
            }
            let seek = self
                .mech
                .seek(self.arms.cylinder(arm), target.loc.cylinder, scaling);
            let gate = (start + seek).max(self.channel_free_at);
            let rot = self
                .mech
                .rot(target, self.arms.azimuth(arm), heads, gate, scaling);
            let xfer_start = gate + rot;
            if best.is_none_or(|(_, b)| xfer_start < b) {
                let rot = xfer_start - (start + seek);
                let loc = target.loc;
                best = Some((
                    ArmChoice {
                        arm,
                        seek,
                        rot,
                        lba,
                        loc,
                    },
                    xfer_start,
                ));
            }
        }
        let (choice, _) = best.ok_or(DriveError::NoLiveArm)?;
        Ok(self.mech.plan_for(choice, sectors))
    }

    /// Starts servicing `req` at `now`.
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
    ) -> Result<(), DriveError> {
        let queue_wait = now.saturating_since(req.arrival);
        let overhead = self.overhead;

        // Cache check (reads only; writes are written through).
        if req.kind.is_read() && self.cache.lookup(req.lba, req.sectors) {
            self.prof.cache_hits.bump();
            let done = cache_hit(req, now, overhead, &mut self.metrics);
            if R::ENABLED {
                rec.record(now, TraceEvent::CacheHit { req: req.id });
                self.mode_change(rec, now + overhead, PowerMode::Transfer);
                rec.record(
                    now + overhead,
                    TraceEvent::Transfer {
                        req: req.id,
                        actuator: 0,
                        dur: done.breakdown.transfer,
                    },
                );
            }
            self.in_service.push(InService {
                done,
                install: None,
            });
            return Ok(());
        }

        if req.kind == IoKind::Write {
            self.cache.invalidate(req.lba, req.sectors);
        } else {
            self.prof.cache_misses.bump();
        }

        let plan = match (self.config.overlap, choice) {
            (OverlapMode::SingleArmMotion, Some(choice)) => self.mech.plan_for(choice, req.sectors),
            (OverlapMode::SingleArmMotion, None) => {
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
            // The scan priced the arms as if every transfer could start
            // right after its rotational wait; price them again against
            // the shared channel.
            (OverlapMode::MultiMotion | OverlapMode::MultiChannel, _) => {
                self.prof.plan_evals.bump();
                self.plan_overlapped(req.lba, req.sectors, now)?
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
            self.mode_change(rec, seek_start, PowerMode::Seek);
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
            self.mode_change(rec, seek_end, PowerMode::RotationalWait);
            rec.record(
                seek_end,
                TraceEvent::RotWait {
                    req: req.id,
                    actuator: plan.actuator,
                    dur: plan.rotational,
                },
            );
            self.mode_change(rec, xfer_start, PowerMode::Transfer);
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
        if self.config.overlap == OverlapMode::MultiMotion {
            self.channel_free_at = finish;
        }

        // Concurrent spans of the relaxed modes may overlap: the seek
        // span adds one VCM's power per moving arm, which is what the
        // accumulator's per-mode times represent.
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
        self.in_service.push(InService {
            done,
            install: req.kind.is_read().then_some((req.lba, req.sectors)),
        });
        Ok(())
    }

    /// Closes accounting at the end of a run: the span from the last
    /// completion to `end` is idle time (the drive still burns spindle
    /// power). Call once, after the event loop drains.
    ///
    /// # Panics
    /// Panics if a request is still in service.
    pub fn finalize(&mut self, end: SimTime) {
        assert!(
            self.in_service.is_empty(),
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
        self.accept(req, req.arrival, rec)
    }

    #[inline]
    fn next_event_time(&self) -> Option<SimTime> {
        self.in_service.iter().map(|s| s.done.completed).min()
    }

    fn on_event<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
        mut completed: impl FnMut(u64),
    ) -> Result<(), DriveError> {
        self.apply_due_failures(now);
        self.retire(now, rec, |done| completed(done.request.id))
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
#[expect(
    clippy::disallowed_methods,
    reason = "these tests pin the ledger-only `submit`/`complete` adapters as well as the drive"
)]
mod tests {
    use super::*;
    use crate::device::{simulate, NullObserver};
    use crate::request::random_reads;
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
            .filter_map(|s| {
                if let TraceEvent::Complete { req } = s.event {
                    Some(req)
                } else {
                    None
                }
            })
            .collect()
    }

    const OVERLAP_MODES: [OverlapMode; 3] = [
        OverlapMode::SingleArmMotion,
        OverlapMode::MultiMotion,
        OverlapMode::MultiChannel,
    ];

    /// Mean response time of SA(`n`) in `mode` over `reqs`, checking
    /// that every request completes.
    fn mean_of(mode: OverlapMode, n: u32, reqs: &[IoRequest]) -> f64 {
        let params = presets::barracuda_es_750gb();
        let drive = DiskDrive::new(&params, DriveConfig::sa(n).with_overlap(mode));
        let r = run(drive, reqs.to_vec());
        assert_eq!(r.metrics.completed, reqs.len() as u64);
        r.metrics.response_time_ms.mean()
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
        for mode in OVERLAP_MODES {
            let config = DriveConfig::sa(2).with_overlap(mode);
            let mut d = DiskDrive::new(&presets::barracuda_es_750gb(), config);
            assert!(d.deconfigure_actuator(1));
            assert_eq!(d.live_actuators(), 1);
            let reqs = scattered(100, d.capacity_sectors());
            let r = run(d, reqs);
            assert_eq!(r.metrics.per_actuator[0], 100, "{mode:?}");
            assert_eq!(r.metrics.per_actuator[1], 0, "{mode:?}");
        }
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

    #[test]
    fn relaxations_ordering_under_load() {
        let reqs = random_reads(800, 2.0, 2);
        let base = mean_of(OverlapMode::SingleArmMotion, 4, &reqs);
        let motion = mean_of(OverlapMode::MultiMotion, 4, &reqs);
        let channel = mean_of(OverlapMode::MultiChannel, 4, &reqs);
        // Per-arm channels are a strict superset of capability.
        assert!(
            channel <= motion,
            "multi-channel {channel} vs multi-motion {motion}"
        );
        assert!(channel <= base, "multi-channel {channel} vs base {base}");
        // Position-ahead pipelining must stay within a whisker of the
        // baseline even when the shared channel limits it.
        assert!(
            motion <= base * 1.15,
            "multi-motion {motion} vs base {base}"
        );
    }

    #[test]
    fn relaxations_provide_little_benefit_when_sa_meets_demand() {
        // The TR's finding: at intensities HC-SD-SA(n) can already
        // sustain, the extensions buy little (response is dominated by
        // one request's own positioning either way). Under saturation
        // the extra concurrency does help — which is why the assertion
        // is made at a sustainable load.
        let reqs = random_reads(1_500, 12.0, 3);
        let base = mean_of(OverlapMode::SingleArmMotion, 4, &reqs);
        let channel = mean_of(OverlapMode::MultiChannel, 4, &reqs);
        assert!(
            channel > base * 0.6,
            "extensions should buy little at sustainable load: {channel} vs {base}"
        );
        assert!(channel <= base * 1.02, "but they must not hurt");
    }

    #[test]
    fn single_actuator_modes_equivalent() {
        // With one arm there is nothing to overlap; all modes coincide.
        let reqs = random_reads(400, 4.0, 4);
        let a = mean_of(OverlapMode::SingleArmMotion, 1, &reqs);
        let b = mean_of(OverlapMode::MultiChannel, 1, &reqs);
        assert!((a - b).abs() / a < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn is_idle_reflects_state() {
        let params = presets::barracuda_es_750gb();
        let config = DriveConfig::sa(2).with_overlap(OverlapMode::MultiMotion);
        let mut d = DiskDrive::new(&params, config);
        assert!(d.is_idle());
        let req = IoRequest::new(0, SimTime::ZERO, 1000, 8, IoKind::Read);
        Device::submit(&mut d, req, &mut NullRecorder).expect("valid submit");
        let finish = d.next_event_time().expect("service started");
        assert!(!d.is_idle());
        let mut done = Vec::new();
        assert_eq!(
            d.on_event(finish, &mut NullRecorder, |id| done.push(id)),
            Ok(())
        );
        assert_eq!(done, [0]);
        assert_eq!(d.next_event_time(), None);
        assert!(d.is_idle());
    }
}
