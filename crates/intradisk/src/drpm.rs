//! A DRPM baseline: dynamic-RPM power management on a conventional
//! drive (Gurumurthi et al. \[11\], the related work of §5).
//!
//! DRPM attacks the same problem as intra-disk parallelism — server
//! storage power — from the opposite side: instead of adding mechanical
//! parallelism so fewer/slower drives meet the performance goal, it
//! *modulates* a conventional drive's spindle speed with load, saving
//! spindle power (∝ RPM^2.8) during lulls at the cost of slower service
//! and speed-transition delays.
//!
//! [`DrpmDrive`] models a two-speed drive: it services requests at full
//! or low RPM, lazily downshifting after a configurable idle period and
//! upshifting (paying a transition delay) when the queue depth crosses
//! a threshold. Energy is integrated directly (speed-dependent idle
//! power levels don't fit the four-mode breakdown of the stacked bars).
//! It runs under the shared run loop ([`crate::device::simulate`]) and
//! emits no trace events.
//!
//! The `experiments::extensions` module compares this baseline against
//! a fixed low-RPM intra-disk parallel drive on the paper's workloads.

use diskmodel::{DiskParams, DriveError, PowerModel};
use simkit::{ResponseStats, SimDuration, SimTime, StatsMode};
use telemetry::Recorder;

use crate::device::Device;
use crate::request::IoRequest;
use crate::sched::{PendingQueue, QueuePolicy, ScanCost, DEFAULT_WINDOW};
use crate::service::{ArmSet, LatencyScaling, Mechanics};

/// Configuration of the DRPM policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrpmConfig {
    /// Reduced spindle speed.
    pub low_rpm: u32,
    /// Idle time after which the spindle downshifts.
    pub spin_down_after: SimDuration,
    /// Queue depth that triggers an upshift back to full speed.
    pub upshift_queue: usize,
    /// Time to move between the two speeds.
    pub transition: SimDuration,
    /// How response times are collected, as in
    /// [`DriveConfig::stats`](crate::DriveConfig::stats).
    pub stats: StatsMode,
}

impl DrpmConfig {
    /// The configuration used by the extension study: 7200 → 4200 RPM,
    /// 2 s spin-down, upshift at queue depth 4, 1.5 s transitions,
    /// exact stats.
    pub fn typical() -> Self {
        DrpmConfig {
            low_rpm: 4_200,
            spin_down_after: SimDuration::from_secs(2.0),
            upshift_queue: 4,
            transition: SimDuration::from_secs(1.5),
            stats: StatsMode::Exact,
        }
    }

    /// Replaces the statistics collection mode.
    pub fn with_stats_mode(mut self, stats: StatsMode) -> Self {
        self.stats = stats;
        self
    }
}

/// Results of a DRPM replay.
#[derive(Debug, Clone)]
pub struct DrpmResult {
    /// Response times, ms.
    pub response_time_ms: ResponseStats,
    /// Completed requests.
    pub completed: u64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Run duration.
    pub duration: SimDuration,
    /// Fraction of wall-clock time spent at the low speed.
    pub low_speed_fraction: f64,
    /// Number of upshift transitions paid.
    pub upshifts: u64,
}

impl DrpmResult {
    /// Average power over the run, W.
    pub fn average_power_w(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.energy_j / self.duration.as_secs()
        }
    }
}

#[derive(Debug)]
struct Speed {
    mech: Mechanics,
    power: PowerModel,
}

impl Speed {
    fn new(params: &DiskParams) -> Self {
        Speed {
            mech: Mechanics::new(params),
            power: PowerModel::new(params),
        }
    }
}

/// What the drive is doing between events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Nothing queued since `since`.
    Idle { since: SimTime },
    /// A service decision is due (after an idle period or an upshift).
    Deciding { at: SimTime },
    /// Servicing `req` until `finish`.
    Serving { req: IoRequest, finish: SimTime },
}

/// A two-speed DRPM drive.
///
/// The drive services one request at a time with SPTF over a bounded
/// window (like [`crate::DiskDrive`]) but may be in the low-speed state
/// when a request arrives; it upshifts — paying the transition — only
/// when the queue reaches the configured depth. Every service decision
/// is an event, so the run loop's arrivals-first tie-break queues every
/// request that has arrived by the decision instant before SPTF picks.
#[derive(Debug)]
pub struct DrpmDrive {
    config: DrpmConfig,
    full: Speed,
    low: Speed,
    arms: ArmSet,
    queue: PendingQueue,
    overhead: SimDuration,
    state: State,
    at_low: bool,
    response: ResponseStats,
    energy_j: f64,
    low_time: SimDuration,
    upshifts: u64,
}

impl DrpmDrive {
    /// A DRPM drive of model `params` under policy `config`.
    ///
    /// # Panics
    /// Panics unless `0 < config.low_rpm < params.rpm()`.
    pub fn new(params: &DiskParams, config: DrpmConfig) -> Self {
        assert!(config.low_rpm > 0 && config.low_rpm < params.rpm());
        let full = Speed::new(params);
        let low = Speed::new(&params.with_rpm(config.low_rpm));
        DrpmDrive {
            arms: ArmSet::from_arms(&full.mech.default_arms(1)),
            queue: PendingQueue::new(DEFAULT_WINDOW, 1),
            overhead: params.controller_overhead(),
            config,
            full,
            low,
            state: State::Idle {
                since: SimTime::ZERO,
            },
            at_low: false,
            response: ResponseStats::with_mode(config.stats),
            energy_j: 0.0,
            low_time: SimDuration::ZERO,
            upshifts: 0,
        }
    }

    fn charge(&mut self, power_w: f64, dt: SimDuration) {
        self.energy_j += power_w * dt.as_secs();
    }

    /// Charges the idle gap ending at `now`, downshifting lazily.
    fn end_idle(&mut self, since: SimTime, now: SimTime) {
        let gap = now - since;
        if gap.is_zero() {
            return;
        }
        if !self.at_low && gap >= self.config.spin_down_after {
            self.charge(self.full.power.idle_w(), self.config.spin_down_after);
            let remaining = gap - self.config.spin_down_after;
            self.charge(self.low.power.idle_w(), remaining);
            self.low_time += remaining;
            self.at_low = true;
            self.queue.forget_costs(); // costs were priced at full speed
        } else if self.at_low {
            self.charge(self.low.power.idle_w(), gap);
            self.low_time += gap;
        } else {
            self.charge(self.full.power.idle_w(), gap);
        }
    }

    /// The service decision at `now`: go idle, upshift, or start the
    /// SPTF pick.
    fn decide(&mut self, now: SimTime) {
        if self.queue.is_empty() {
            self.state = State::Idle { since: now };
            return;
        }
        if self.at_low && self.queue.len() >= self.config.upshift_queue {
            self.charge(self.full.power.seek_w(0), self.config.transition);
            self.at_low = false;
            self.queue.forget_costs(); // costs were priced at low speed
            self.upshifts += 1;
            self.state = State::Deciding {
                at: now + self.config.transition,
            };
            return;
        }
        let speed = if self.at_low { &self.low } else { &self.full };
        let start = now + self.overhead;
        let cost = ScanCost {
            mech: &speed.mech,
            arms: &self.arms,
            heads: 1,
            start,
            scaling: LatencyScaling::none(),
        };
        // The queue is non-empty and the single arm is never
        // deconfigured, so the scan always pops a priced request.
        let Some((req, Some(choice))) =
            self.queue
                .pop_next(QueuePolicy::Sptf, &cost, |_| true, None)
        else {
            self.state = State::Idle { since: now };
            return;
        };
        let plan = speed.mech.plan_for(choice, req.sectors);
        let finish = start + plan.total();
        // Energy: overhead+rotation at idle level, seek with VCM,
        // transfer with channel. Writes and reads cost alike here.
        let (idle_w, seek_w, transfer_w) = (
            speed.power.idle_w(),
            speed.power.seek_w(1),
            speed.power.transfer_w(),
        );
        self.charge(idle_w, self.overhead + plan.rotational);
        self.charge(seek_w, plan.seek);
        self.charge(transfer_w, plan.transfer);
        if self.at_low {
            self.low_time += finish - now;
        }
        self.arms.set_cylinder(0, plan.end_cylinder);
        self.state = State::Serving { req, finish };
    }
}

impl Device for DrpmDrive {
    type Report = DrpmResult;

    fn submit<R: Recorder>(&mut self, req: IoRequest, _rec: &mut R) -> Result<(), DriveError> {
        if let State::Idle { since } = self.state {
            self.end_idle(since, req.arrival);
            self.state = State::Deciding { at: req.arrival };
        }
        self.queue.push(req);
        Ok(())
    }

    fn next_event_time(&self) -> Option<SimTime> {
        match self.state {
            State::Idle { .. } => None,
            State::Deciding { at } => Some(at),
            State::Serving { finish, .. } => Some(finish),
        }
    }

    fn on_event<R: Recorder>(
        &mut self,
        now: SimTime,
        _rec: &mut R,
        mut completed: impl FnMut(u64),
    ) -> Result<(), DriveError> {
        if let State::Serving { req, .. } = self.state {
            self.response.record((now - req.arrival).as_millis());
            completed(req.id);
        }
        self.decide(now);
        Ok(())
    }

    fn stats(&self) -> &ResponseStats {
        &self.response
    }

    fn finalize(&mut self, end: SimTime) -> DrpmResult {
        self.response.finalize();
        let duration = end - SimTime::ZERO;
        DrpmResult {
            completed: self.response.count() as u64,
            response_time_ms: self.response.clone(),
            energy_j: self.energy_j,
            duration,
            low_speed_fraction: if duration.is_zero() {
                0.0
            } else {
                self.low_time.as_millis() / duration.as_millis()
            },
            upshifts: self.upshifts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{simulate, NullObserver};
    use crate::request::random_reads;
    use crate::request::IoKind;
    use diskmodel::presets;
    use telemetry::NullRecorder;

    fn replay(params: &DiskParams, config: DrpmConfig, reqs: &[IoRequest]) -> DrpmResult {
        let drive = DrpmDrive::new(params, config);
        simulate(
            reqs.iter().copied(),
            drive,
            &mut NullRecorder,
            &mut NullObserver,
        )
        .expect("valid replay")
    }

    #[test]
    fn completes_everything() {
        let params = presets::barracuda_es_750gb();
        let reqs = random_reads(500, 10.0, 1);
        let r = replay(&params, DrpmConfig::typical(), &reqs);
        assert_eq!(r.completed, 500);
        assert!(r.average_power_w() > 0.0);
    }

    /// A streaming config streams, and its mean is the exact run's bit
    /// for bit: both are `sum / n`, summed in completion order.
    #[test]
    fn streaming_stats_keep_the_exact_mean() {
        let params = presets::barracuda_es_750gb();
        let reqs = random_reads(500, 10.0, 5);
        let exact = replay(&params, DrpmConfig::typical(), &reqs);
        let streaming = DrpmConfig::typical().with_stats_mode(StatsMode::Streaming);
        let r = replay(&params, streaming, &reqs);
        assert_eq!(exact.response_time_ms.mode(), StatsMode::Exact);
        assert_eq!(r.response_time_ms.mode(), StatsMode::Streaming);
        assert_eq!(r.completed, exact.completed);
        assert_eq!(
            r.response_time_ms.mean().to_bits(),
            exact.response_time_ms.mean().to_bits()
        );
        assert_eq!(r.energy_j.to_bits(), exact.energy_j.to_bits());
    }

    #[test]
    fn bursty_idle_load_spends_time_at_low_speed() {
        let params = presets::barracuda_es_750gb();
        // Widely spaced requests: mostly idle, big spin-down opportunity.
        let reqs = random_reads(100, 3_000.0, 2);
        let r = replay(&params, DrpmConfig::typical(), &reqs);
        assert!(
            r.low_speed_fraction > 0.5,
            "low-speed fraction {}",
            r.low_speed_fraction
        );
        // And saves real power vs. a full-speed drive idling.
        let full_idle = PowerModel::new(&params).idle_w();
        assert!(
            r.average_power_w() < full_idle * 0.85,
            "{}",
            r.average_power_w()
        );
    }

    #[test]
    fn sustained_load_stays_at_full_speed() {
        let params = presets::barracuda_es_750gb();
        let reqs = random_reads(1_000, 6.0, 3);
        let r = replay(&params, DrpmConfig::typical(), &reqs);
        assert!(
            r.low_speed_fraction < 0.05,
            "low fraction {}",
            r.low_speed_fraction
        );
    }

    #[test]
    fn upshift_pays_latency() {
        let params = presets::barracuda_es_750gb();
        // Long idle (downshift), then a burst (upshift + transition).
        let mut reqs = Vec::new();
        for i in 0..50u64 {
            reqs.push(IoRequest::new(
                i,
                SimTime::from_millis(10_000.0 + i as f64),
                i * 1_000_000,
                8,
                IoKind::Read,
            ));
        }
        let r = replay(&params, DrpmConfig::typical(), &reqs);
        assert!(r.upshifts >= 1);
        // The burst behind the transition sees >1.5 s responses.
        assert!(
            r.response_time_ms.max() > 1_000.0,
            "max {}",
            r.response_time_ms.max()
        );
    }

    #[test]
    fn low_speed_service_is_slower_but_works() {
        let params = presets::barracuda_es_750gb();
        // Sparse singles: each serviced at low speed without upshift.
        let reqs = random_reads(50, 5_000.0, 4);
        let r = replay(&params, DrpmConfig::typical(), &reqs);
        assert_eq!(r.upshifts, 0);
        assert_eq!(r.completed, 50);
        // Mean service reflects the 4200-RPM rotation (~7.1 ms half-rev).
        assert!(r.response_time_ms.mean() > 5.0);
    }
}
