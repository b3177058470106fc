//! The two HC-SD-SA(n) relaxations of the technical-report version of
//! the paper (§7.2: "Our first extension allowed multiple arms to be in
//! motion simultaneously and the second extension allowed multiple
//! channels to transfer data simultaneously. We found that these two
//! extensions provide little benefit over the HC-SD-SA(n) design").
//!
//! [`OverlappedDrive`] services up to one request *per arm assembly*
//! concurrently, subject to the selected [`OverlapMode`]'s resource
//! constraints:
//!
//! * [`OverlapMode::SingleArmMotion`] — seeks serialize through one
//!   "arm motion" resource and transfers through one channel: the
//!   baseline HC-SD-SA(n) semantics expressed in the overlapped engine.
//! * [`OverlapMode::MultiMotion`] — arms may seek concurrently; the
//!   single data channel still serializes transfers (a transfer that
//!   finds the channel busy must wait for it and then re-align with the
//!   sector, possibly losing a revolution).
//! * [`OverlapMode::MultiChannel`] — fully concurrent: every assembly
//!   positions and transfers independently (an upper bound requiring
//!   per-arm read/write channels).

use diskmodel::{DiskParams, DriveError, PowerModel};
use simkit::{EventQueue, ResponseStats, SimDuration, SimTime};
use telemetry::{Recorder, TraceEvent};

use crate::cache::SegmentedCache;
use crate::device::Device;
use crate::drive::{cache_hit, DriveRunResult};
use crate::metrics::{close_idle_span, DriveMetrics, DriveMode, PowerBreakdown};
use crate::request::{CompletedIo, IoKind, IoRequest, ServiceBreakdown};
use crate::sched::{PendingQueue, QueuePolicy, ScanCost, DEFAULT_WINDOW};
use crate::service::{ArmPlacement, ArmSet, LatencyScaling, Mechanics};

/// Resource constraints of an overlapped multi-actuator drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverlapMode {
    /// One arm in motion at a time, one transfer at a time (the
    /// HC-SD-SA(n) baseline).
    #[default]
    SingleArmMotion,
    /// Concurrent seeks, single shared data channel.
    MultiMotion,
    /// Concurrent seeks and per-arm channels.
    MultiChannel,
}

/// Configuration of an [`OverlappedDrive`].
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapConfig {
    /// Number of arm assemblies.
    pub actuators: u32,
    /// Resource constraints.
    pub mode: OverlapMode,
    /// Scheduling window.
    pub window: usize,
    /// Arm mounting azimuths.
    pub placement: ArmPlacement,
}

impl OverlapConfig {
    /// An `n`-actuator drive in the given mode.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: u32, mode: OverlapMode) -> Self {
        assert!(n > 0, "need at least one actuator");
        OverlapConfig {
            actuators: n,
            mode,
            window: DEFAULT_WINDOW,
            placement: ArmPlacement::EquallySpaced,
        }
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    /// The record to publish; `done.completed` is the finish time.
    done: CompletedIo,
    install: Option<(u64, u32)>,
}

/// A multi-actuator drive that can overlap the service of multiple
/// requests across its assemblies.
///
/// Unlike [`crate::DiskDrive`], several completions can be outstanding
/// at once, so the drive keeps its own calendar of completion instants
/// and, as a [`Device`], completes everything due at an instant in one
/// event.
#[derive(Debug)]
pub struct OverlappedDrive {
    mech: Mechanics,
    power: PowerModel,
    cache: SegmentedCache,
    arms: ArmSet,
    arm_busy_until: Vec<SimTime>,
    /// Next instant the (single) arm-motion resource is free.
    motion_free_at: SimTime,
    /// Next instant the (single) data channel is free.
    channel_free_at: SimTime,
    queue: PendingQueue,
    in_flight: Vec<InFlight>,
    /// Completion instants of the requests in flight.
    events: EventQueue<()>,
    config: OverlapConfig,
    idle_since: SimTime,
    metrics: DriveMetrics,
    capacity: u64,
    overhead: SimDuration,
}

impl OverlappedDrive {
    /// Creates an overlapped drive.
    pub fn new(params: &DiskParams, config: OverlapConfig) -> Self {
        let mech = Mechanics::new(params);
        let arms =
            ArmSet::from_arms(&mech.arms_with_placement(config.actuators, &config.placement));
        let capacity = mech.geometry().total_sectors();
        OverlappedDrive {
            power: PowerModel::new(params),
            cache: SegmentedCache::new(params.cache_mib()),
            arm_busy_until: vec![SimTime::ZERO; arms.len()],
            queue: PendingQueue::new(config.window, arms.len()),
            arms,
            motion_free_at: SimTime::ZERO,
            channel_free_at: SimTime::ZERO,
            in_flight: Vec::new(),
            events: EventQueue::new(),
            metrics: DriveMetrics::new(config.actuators),
            config,
            idle_since: SimTime::ZERO,
            mech,
            capacity,
            overhead: params.controller_overhead(),
        }
    }

    /// True if nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.queue.is_empty()
    }

    /// Maximum requests in flight at once: the baseline mode services
    /// one request end-to-end (dispatching a second request whose
    /// transfer must queue behind the shared channel and then re-align
    /// rotationally is a net loss, so firmware would not do it); the
    /// relaxed modes use every arm.
    fn max_in_flight(&self) -> usize {
        let live = self.arms.live_count();
        match self.config.mode {
            OverlapMode::SingleArmMotion => 1,
            // One shared channel: position one request ahead while the
            // current one transfers. Binding more would serialize
            // through the channel with a rotational re-alignment per
            // request while freezing scheduling choices made too early.
            OverlapMode::MultiMotion => live.min(2),
            OverlapMode::MultiChannel => live,
        }
    }

    /// Dispatches queued requests onto idle arms, scheduling their
    /// completions.
    fn dispatch<R: Recorder>(&mut self, now: SimTime, rec: &mut R) {
        loop {
            if self.in_flight.len() >= self.max_in_flight() {
                break;
            }
            // Find an idle, live arm.
            let idle_arm = (0..self.arms.len())
                .find(|&a| !self.arms.is_failed(a) && self.arm_busy_until[a] <= now);
            let Some(_) = idle_arm else { break };
            if self.queue.is_empty() {
                break;
            }
            // SPTF over the window, best over idle arms.
            let cost = ScanCost {
                mech: &self.mech,
                arms: &self.arms,
                heads: 1,
                start: now + self.overhead,
                scaling: LatencyScaling::none(),
            };
            let idle = |a: usize| !self.arms.is_failed(a) && self.arm_busy_until[a] <= now;
            let Some((req, _)) = self.queue.pop_next(QueuePolicy::Sptf, &cost, idle, None) else {
                break;
            };
            let depth = self.queue.len() as u32;
            let finish = self.start_service(req, now, depth, rec);
            self.events.push(finish, ());
        }
    }

    /// Plans and starts `req` on the best idle arm at `now`.
    fn start_service<R: Recorder>(
        &mut self,
        req: IoRequest,
        now: SimTime,
        depth: u32,
        rec: &mut R,
    ) -> SimTime {
        let queue_wait = now.saturating_since(req.arrival);
        let overhead = self.overhead;

        // Cache hits bypass the mechanics entirely.
        if req.kind.is_read() && self.cache.lookup(req.lba, req.sectors) {
            let done = cache_hit(req, now, overhead, &mut self.metrics);
            let finish = done.completed;
            if R::ENABLED {
                rec.record(now, TraceEvent::CacheHit { req: req.id });
                rec.record(
                    now + overhead,
                    TraceEvent::Transfer {
                        req: req.id,
                        actuator: 0,
                        dur: done.breakdown.transfer,
                    },
                );
            }
            self.in_flight.push(InFlight {
                done,
                install: None,
            });
            return finish;
        }
        if req.kind == IoKind::Write {
            self.cache.invalidate(req.lba, req.sectors);
        }

        // Choose the best idle arm, honoring the mode's resources.
        let lba = req.lba % self.capacity;
        let target = self.mech.target(lba);
        let mut best: Option<(usize, SimTime, SimDuration, SimDuration, SimTime)> = None;
        for a in 0..self.arms.len() {
            if self.arms.is_failed(a) || self.arm_busy_until[a] > now {
                continue;
            }
            // Seek start waits for the motion resource in baseline mode.
            let seek_start = match self.config.mode {
                OverlapMode::SingleArmMotion => (now + overhead).max(self.motion_free_at),
                _ => now + overhead,
            };
            let dist = self.arms.cylinder(a).abs_diff(target.loc.cylinder);
            let seek = self.mech.seek_profile().seek_time(dist);
            let pos_done = seek_start + seek;
            // Transfer may additionally wait for the channel, then must
            // re-align rotationally.
            let channel_gate = match self.config.mode {
                OverlapMode::MultiChannel => pos_done,
                _ => pos_done.max(self.channel_free_at),
            };
            let rot = self.mech.rotation().wait_until_under(
                target.angle,
                self.arms.azimuth(a),
                channel_gate,
            );
            let transfer_start = channel_gate + rot;
            if best.map_or(true, |b| transfer_start < b.4) {
                best = Some((a, seek_start, seek, rot, transfer_start));
            }
        }
        // Invariant: dispatch() verified an idle live arm exists before
        // popping the queue, so the loop found a candidate.
        let (arm, seek_start, seek, _rot, transfer_start) =
            best.expect("dispatch only runs with an idle live arm"); // simlint: allow(no-panic-in-lib)

        let (transfer, end_cylinder) = self.mech.transfer_at(target.loc, lba, req.sectors);
        let finish = transfer_start + transfer;

        if R::ENABLED {
            let from_cylinder = self.arms.cylinder(arm);
            rec.record(
                now,
                TraceEvent::Dispatched {
                    req: req.id,
                    actuator: arm as u32,
                    depth,
                },
            );
            if req.kind.is_read() {
                rec.record(now, TraceEvent::CacheMiss { req: req.id });
            }
            rec.record(
                seek_start,
                TraceEvent::SeekStart {
                    req: req.id,
                    actuator: arm as u32,
                    from_cylinder,
                    to_cylinder: target.loc.cylinder,
                },
            );
            rec.record(
                seek_start + seek,
                TraceEvent::SeekEnd {
                    req: req.id,
                    actuator: arm as u32,
                },
            );
            // The rotational interval includes any shared-channel wait
            // (the head is over the track, not transferring).
            rec.record(
                seek_start + seek,
                TraceEvent::RotWait {
                    req: req.id,
                    actuator: arm as u32,
                    dur: transfer_start - (seek_start + seek),
                },
            );
            rec.record(
                transfer_start,
                TraceEvent::Transfer {
                    req: req.id,
                    actuator: arm as u32,
                    dur: transfer,
                },
            );
        }

        // Commit resources.
        self.arms.set_cylinder(arm, end_cylinder);
        self.arm_busy_until[arm] = finish;
        if self.config.mode == OverlapMode::SingleArmMotion {
            self.motion_free_at = seek_start + seek;
        }
        if self.config.mode != OverlapMode::MultiChannel {
            self.channel_free_at = finish;
        }

        // Mode accounting (concurrent spans may overlap; the seek span
        // adds one VCM's power per moving arm, which is what the
        // accumulator's per-mode times represent).
        self.metrics.modes.add(DriveMode::Idle.key(), overhead);
        self.metrics.modes.add(DriveMode::Seek.key(), seek);
        // Rotational-wait accounting includes any channel wait (the
        // head is over the track, not transferring).
        self.metrics.modes.add(
            DriveMode::RotationalWait.key(),
            transfer_start - (seek_start + seek),
        );
        self.metrics.modes.add(DriveMode::Transfer.key(), transfer);

        self.in_flight.push(InFlight {
            done: CompletedIo {
                request: req,
                completed: finish,
                breakdown: ServiceBreakdown {
                    queue: queue_wait,
                    overhead,
                    seek,
                    rotational: transfer_start - (seek_start + seek),
                    transfer,
                },
                cache_hit: false,
                actuator: arm as u32,
            },
            install: req
                .kind
                .is_read()
                .then_some((req.lba % self.capacity, req.sectors)),
        });
        finish
    }
}

impl Device for OverlappedDrive {
    type Report = DriveRunResult;

    /// Queues the request and dispatches onto any idle arm. The
    /// overlapped engine emits no `PowerModeChange` events — with
    /// several arms concurrently busy the drive has no single
    /// well-defined mode; per-phase intervals (seek / rotational wait /
    /// transfer) are still emitted per actuator.
    fn submit<R: Recorder>(&mut self, mut req: IoRequest, rec: &mut R) -> Result<(), DriveError> {
        let now = req.arrival;
        if req.lba >= self.capacity {
            req.lba %= self.capacity;
        }
        if R::ENABLED {
            rec.record(now, req.submitted());
        }
        if self.in_flight.is_empty() {
            close_idle_span(&mut self.metrics.modes, self.idle_since, now);
            self.idle_since = now;
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
        self.dispatch(now, rec);
        Ok(())
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Completes every in-flight request due exactly at `now`, then
    /// dispatches onto the arms that freed up.
    fn on_event<R: Recorder>(&mut self, now: SimTime, rec: &mut R) -> Result<usize, DriveError> {
        while self.events.peek_time() == Some(now) {
            self.events.pop();
        }
        let mut finished = 0;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].done.completed == now {
                let f = self.in_flight.swap_remove(i);
                if let Some((lba, sectors)) = f.install {
                    self.cache.install(lba, sectors);
                }
                self.metrics.record(&f.done);
                if R::ENABLED {
                    rec.record(
                        now,
                        TraceEvent::Complete {
                            req: f.done.request.id,
                        },
                    );
                }
                finished += 1;
            } else {
                i += 1;
            }
        }
        self.dispatch(now, rec);
        if self.in_flight.is_empty() {
            self.idle_since = now;
            if R::ENABLED {
                for a in 0..self.arms.len() {
                    if !self.arms.is_failed(a) {
                        rec.record(now, TraceEvent::ActuatorIdle { actuator: a as u32 });
                    }
                }
            }
        }
        Ok(finished)
    }

    fn stats(&self) -> &ResponseStats {
        &self.metrics.response_time_ms
    }

    /// Closes idle accounting at `end`.
    fn finalize(&mut self, end: SimTime) -> DriveRunResult {
        close_idle_span(&mut self.metrics.modes, self.idle_since, end);
        self.idle_since = end;
        self.metrics.finalize();
        DriveRunResult {
            power: PowerBreakdown::from_modes(&self.metrics.modes, &self.power),
            metrics: self.metrics.clone(),
            duration: end.saturating_since(SimTime::ZERO),
            queue_peak: self.queue.peak_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{simulate, NullObserver};
    use crate::request::random_reads;
    use diskmodel::presets;
    use telemetry::NullRecorder;

    fn mean_of(mode: OverlapMode, n: u32, reqs: &[IoRequest]) -> f64 {
        let params = presets::barracuda_es_750gb();
        let drive = OverlappedDrive::new(&params, OverlapConfig::new(n, mode));
        let r = simulate(
            reqs.iter().copied(),
            drive,
            &mut NullRecorder,
            &mut NullObserver,
        )
        .expect("valid replay");
        assert_eq!(r.metrics.completed, reqs.len() as u64);
        r.metrics.response_time_ms.mean()
    }

    #[test]
    fn all_modes_complete_everything() {
        let reqs = random_reads(500, 3.0, 1);
        for mode in [
            OverlapMode::SingleArmMotion,
            OverlapMode::MultiMotion,
            OverlapMode::MultiChannel,
        ] {
            let _ = mean_of(mode, 4, &reqs);
        }
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
    fn overlapped_baseline_close_to_sequential_drive() {
        // The overlapped engine in SingleArmMotion mode is a superset
        // of DiskDrive (it can still overlap positioning with another
        // arm's transfer), so it may only be equal or better.
        let reqs = random_reads(800, 3.0, 5);
        let params = presets::barracuda_es_750gb();
        let om = mean_of(OverlapMode::SingleArmMotion, 2, &reqs);
        let seq = crate::DiskDrive::new(&params, crate::DriveConfig::sa(2));
        let sm = simulate(reqs, seq, &mut NullRecorder, &mut NullObserver)
            .expect("valid replay")
            .metrics
            .response_time_ms
            .mean();
        assert!(
            om <= sm * 1.15,
            "overlapped baseline {om} vs sequential {sm}"
        );
    }

    #[test]
    fn is_idle_reflects_state() {
        let params = presets::barracuda_es_750gb();
        let mut d = OverlappedDrive::new(&params, OverlapConfig::new(2, OverlapMode::MultiMotion));
        assert!(d.is_idle());
        let req = IoRequest::new(0, SimTime::ZERO, 1000, 8, IoKind::Read);
        d.submit(req, &mut NullRecorder).expect("valid submit");
        let finish = d.next_event_time().expect("service started");
        assert!(!d.is_idle());
        assert_eq!(d.on_event(finish, &mut NullRecorder), Ok(1));
        assert_eq!(d.next_event_time(), None);
        assert!(d.is_idle());
    }
}
