//! A MAID baseline: Massive Array of Idle Disks (Colarelli & Grunwald
//! \[6\], the related work of §5).
//!
//! MAID saves array power by spinning member disks all the way down
//! after an idle timeout; a request to a sleeping disk pays a multi-
//! second spin-up. It shines for archival access patterns (most disks
//! cold most of the time) and hurts latency-sensitive ones — the
//! opposite trade to intra-disk parallelism, which keeps one spindle
//! hot and removes drives instead.
//!
//! [`MaidArray`] simulates a concatenated array (MAID systems do not
//! stripe — striping would wake every disk) with a per-disk spin state
//! machine and explicit energy integration. It runs under the shared
//! run loop ([`intradisk::simulate`]) and emits no trace events.

use diskmodel::{DiskParams, DriveError, PowerModel};
use intradisk::service::{ArmSet, LatencyScaling, Mechanics};
use intradisk::{Device, IoRequest};
use simkit::{EventQueue, ResponseStats, SimDuration, SimTime};
use telemetry::Recorder;

/// MAID spin-down policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaidConfig {
    /// Idle time after which a member spins down.
    pub spin_down_after: SimDuration,
    /// Time to spin a member back up.
    pub spin_up: SimDuration,
    /// Power drawn by a sleeping member (electronics only), W.
    pub standby_w: f64,
    /// Multiplier on idle power while spinning up (the motor works
    /// hardest then).
    pub spin_up_power_factor: f64,
}

impl MaidConfig {
    /// Typical archival-store settings: 30 s timeout, 6 s spin-up,
    /// 1 W standby, 2× idle power during spin-up.
    pub fn typical() -> Self {
        MaidConfig {
            spin_down_after: SimDuration::from_secs(30.0),
            spin_up: SimDuration::from_secs(6.0),
            standby_w: 1.0,
            spin_up_power_factor: 2.0,
        }
    }
}

/// Results of a MAID replay.
#[derive(Debug, Clone)]
pub struct MaidResult {
    /// Logical response times, ms.
    pub response_time_ms: ResponseStats,
    /// Completed requests.
    pub completed: u64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Run duration.
    pub duration: SimDuration,
    /// Fraction of aggregate disk-time spent spun down.
    pub standby_fraction: f64,
    /// Spin-up events paid.
    pub spin_ups: u64,
}

impl MaidResult {
    /// Average array power over the run, W.
    pub fn average_power_w(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.energy_j / self.duration.as_secs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Spin {
    /// Spinning, idle or serving; field is when it last went idle.
    Active { idle_since: SimTime },
    /// Spun down at the given time.
    Standby { since: SimTime },
}

#[derive(Debug)]
struct Member {
    mech: Mechanics,
    arm: ArmSet,
    spin: Spin,
    /// Drive is busy (serving or spinning up) until this instant.
    busy_until: SimTime,
    energy_j: f64,
    standby_time: SimDuration,
}

/// A MAID array of concatenated members.
///
/// The logical space is the concatenation of the members; each request
/// touches exactly one member (requests are clamped to one disk: MAID
/// stores whole objects per disk). Members are independent under
/// concatenation, so each request is resolved — spin state, service
/// and energy — when it arrives, and its response time is recorded in
/// arrival order; the completion it schedules only tells the run loop
/// (and its observer) when the request finished.
#[derive(Debug)]
pub struct MaidArray {
    config: MaidConfig,
    power: PowerModel,
    overhead: SimDuration,
    members: Vec<Member>,
    per_disk: u64,
    response: ResponseStats,
    spin_ups: u64,
    /// Completion instants of the resolved requests.
    completions: EventQueue<()>,
}

impl MaidArray {
    /// A MAID array of `disks` members of model `params`.
    ///
    /// # Panics
    /// Panics if `disks == 0`.
    pub fn new(params: &DiskParams, config: MaidConfig, disks: usize) -> Self {
        assert!(disks > 0, "need at least one disk");
        let members: Vec<Member> = (0..disks)
            .map(|_| {
                let mech = Mechanics::new(params);
                let arm = ArmSet::from_arms(&mech.default_arms(1));
                Member {
                    mech,
                    arm,
                    spin: Spin::Active {
                        idle_since: SimTime::ZERO,
                    },
                    busy_until: SimTime::ZERO,
                    energy_j: 0.0,
                    standby_time: SimDuration::ZERO,
                }
            })
            .collect();
        MaidArray {
            config,
            power: PowerModel::new(params),
            overhead: params.controller_overhead(),
            per_disk: members[0].mech.geometry().total_sectors(),
            members,
            response: ResponseStats::exact(),
            spin_ups: 0,
            completions: EventQueue::new(),
        }
    }
}

impl Device for MaidArray {
    type Report = MaidResult;

    fn submit<R: Recorder>(&mut self, req: IoRequest, _rec: &mut R) -> Result<(), DriveError> {
        let (config, power, overhead) = (self.config, &self.power, self.overhead);
        let lba = req.lba % (self.per_disk * self.members.len() as u64);
        let m = &mut self.members[(lba / self.per_disk) as usize];
        let local_lba = lba % self.per_disk;
        let now = req.arrival;

        // Lazily account the member's state up to `now`.
        let free_at = m.busy_until.max(now);
        if let Spin::Active { idle_since } = m.spin {
            // Did it spin down while idle before this arrival?
            if m.busy_until <= now {
                let idle_from = idle_since.max(m.busy_until);
                if now.saturating_since(idle_from) >= config.spin_down_after {
                    let down_at = idle_from + config.spin_down_after;
                    m.energy_j += power.idle_w()
                        * (down_at.saturating_since(idle_from)).as_secs();
                    m.spin = Spin::Standby { since: down_at };
                }
            }
        }

        let start = match m.spin {
            Spin::Standby { since } => {
                // Pay standby until now, then spin up.
                m.energy_j += config.standby_w * now.saturating_since(since).as_secs();
                m.standby_time += now.saturating_since(since);
                m.energy_j +=
                    power.idle_w() * config.spin_up_power_factor * config.spin_up.as_secs();
                self.spin_ups += 1;
                m.spin = Spin::Active {
                    idle_since: now + config.spin_up,
                };
                now + config.spin_up
            }
            Spin::Active { idle_since } => {
                // Idle energy from last activity to service start.
                let idle_from = idle_since.max(m.busy_until.min(now));
                let s = free_at;
                m.energy_j += power.idle_w() * s.saturating_since(idle_from).as_secs();
                s
            }
        };

        // Serve (single request at a time per member; arrivals are in
        // order so the queue is only needed for back-to-back requests,
        // which `busy_until` already serializes).
        let plan = m.mech.plan_set_with_heads(
            &m.arm,
            1,
            local_lba,
            req.sectors,
            start + overhead,
            LatencyScaling::none(),
        )?;
        let finish = start + overhead + plan.total();
        m.energy_j += power.idle_w() * (overhead + plan.rotational).as_secs();
        m.energy_j += power.seek_w(1) * plan.seek.as_secs();
        m.energy_j += power.transfer_w() * plan.transfer.as_secs();
        m.arm.set_cylinder(0, plan.end_cylinder);
        m.busy_until = finish;
        m.spin = Spin::Active { idle_since: finish };
        self.response.record(finish.saturating_since(req.arrival).as_millis());
        self.completions.push(finish, ());
        Ok(())
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.completions.peek_time()
    }

    fn on_event<R: Recorder>(&mut self, _now: SimTime, _rec: &mut R) -> Result<usize, DriveError> {
        Ok(self.completions.pop().map_or(0, |_| 1))
    }

    fn stats(&self) -> &ResponseStats {
        &self.response
    }

    /// Closes every member out to `end` (the last completion).
    fn finalize(&mut self, end: SimTime) -> MaidResult {
        let (config, power) = (self.config, &self.power);
        let mut energy = 0.0;
        let mut standby = SimDuration::ZERO;
        for m in &mut self.members {
            match m.spin {
                Spin::Standby { since } => {
                    m.energy_j += config.standby_w * end.saturating_since(since).as_secs();
                    m.standby_time += end.saturating_since(since);
                }
                Spin::Active { idle_since } => {
                    let idle_from = idle_since.min(end);
                    let gap = end.saturating_since(idle_from);
                    if gap >= config.spin_down_after {
                        let down_at = idle_from + config.spin_down_after;
                        m.energy_j += power.idle_w() * config.spin_down_after.as_secs();
                        m.energy_j += config.standby_w * end.saturating_since(down_at).as_secs();
                        m.standby_time += end.saturating_since(down_at);
                    } else {
                        m.energy_j += power.idle_w() * gap.as_secs();
                    }
                }
            }
            energy += m.energy_j;
            standby += m.standby_time;
        }
        self.response.finalize();
        let duration = end.saturating_since(SimTime::ZERO);
        let aggregate = duration.as_millis() * self.members.len() as f64;
        MaidResult {
            completed: self.response.count() as u64,
            response_time_ms: self.response.clone(),
            energy_j: energy,
            duration,
            standby_fraction: if aggregate <= 0.0 {
                0.0
            } else {
                standby.as_millis() / aggregate
            },
            spin_ups: self.spin_ups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::presets;
    use intradisk::{simulate, IoKind, NullObserver};
    use simkit::Rng64;
    use telemetry::NullRecorder;

    fn params() -> DiskParams {
        presets::array_drive_10k_19gb()
    }

    fn replay(params: &DiskParams, config: MaidConfig, disks: usize, reqs: &[IoRequest]) -> MaidResult {
        let maid = MaidArray::new(params, config, disks);
        simulate(reqs.iter().copied(), maid, &mut NullRecorder, &mut NullObserver)
            .expect("valid replay")
    }

    /// Archival pattern: bursts to one disk, long silences.
    fn archival(disks: u64, n: u64, seed: u64) -> Vec<IoRequest> {
        let per_disk = Mechanics::new(&params()).geometry().total_sectors();
        let mut rng = Rng64::new(seed);
        let mut t = SimTime::ZERO;
        let mut reqs = Vec::new();
        for i in 0..n {
            if i % 20 == 0 {
                t += SimDuration::from_secs(60.0 + rng.f64() * 60.0);
            } else {
                t += SimDuration::from_millis(rng.f64() * 20.0);
            }
            let disk = rng.below(disks);
            reqs.push(IoRequest::new(
                i,
                t,
                disk * per_disk + rng.below(per_disk),
                8,
                IoKind::Read,
            ));
        }
        reqs
    }

    #[test]
    fn completes_everything() {
        let reqs = archival(4, 400, 1);
        let r = replay(&params(), MaidConfig::typical(), 4, &reqs);
        assert_eq!(r.completed, 400);
        assert!(r.average_power_w() > 0.0);
    }

    #[test]
    fn archival_load_sleeps_most_of_the_time() {
        let reqs = archival(8, 300, 2);
        let r = replay(&params(), MaidConfig::typical(), 8, &reqs);
        assert!(
            r.standby_fraction > 0.5,
            "standby fraction {}",
            r.standby_fraction
        );
        assert!(r.spin_ups > 0);
        // Far below the always-on array's idle floor.
        let always_on = PowerModel::new(&params()).idle_w() * 8.0;
        assert!(
            r.average_power_w() < always_on * 0.5,
            "{} vs {}",
            r.average_power_w(),
            always_on
        );
    }

    #[test]
    fn cold_hits_pay_the_spin_up() {
        let reqs = archival(4, 200, 3);
        let r = replay(&params(), MaidConfig::typical(), 4, &reqs);
        // The response-time tail carries whole spin-ups (6 s).
        assert!(
            r.response_time_ms.percentile(99.0) > 5_000.0,
            "p99 {}",
            r.response_time_ms.percentile(99.0)
        );
    }

    #[test]
    fn hot_load_never_spins_down() {
        let per_disk = Mechanics::new(&params()).geometry().total_sectors();
        let mut rng = Rng64::new(4);
        let reqs: Vec<IoRequest> = (0..500u64)
            .map(|i| {
                IoRequest::new(
                    i,
                    SimTime::from_millis(i as f64 * 10.0),
                    (i % 4) * per_disk + rng.below(per_disk),
                    8,
                    IoKind::Read,
                )
            })
            .collect();
        let r = replay(&params(), MaidConfig::typical(), 4, &reqs);
        assert_eq!(r.spin_ups, 0);
        assert!(r.standby_fraction < 1e-9);
        // Mean stays in disk-latency territory.
        assert!(r.response_time_ms.mean() < 50.0, "{}", r.response_time_ms.mean());
    }

    #[test]
    fn deterministic() {
        let reqs = archival(4, 200, 5);
        let a = replay(&params(), MaidConfig::typical(), 4, &reqs);
        let b = replay(&params(), MaidConfig::typical(), 4, &reqs);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.response_time_ms.mean(), b.response_time_ms.mean());
    }
}
