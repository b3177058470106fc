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
//! [`replay`] models a two-speed drive: it services requests at full
//! or low RPM, lazily downshifting after a configurable idle period and
//! upshifting (paying a transition delay) when the queue depth crosses
//! a threshold. Energy is integrated directly (speed-dependent idle
//! power levels don't fit the four-mode breakdown of the stacked bars).
//!
//! The `experiments::extensions` module compares this baseline against
//! a fixed low-RPM intra-disk parallel drive on the paper's workloads.

use diskmodel::{DiskParams, PowerModel};
use simkit::{ResponseStats, SimDuration, SimTime};

use crate::request::{IoKind, IoRequest};
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
}

impl DrpmConfig {
    /// The configuration used by the extension study: 7200 → 4200 RPM,
    /// 2 s spin-down, upshift at queue depth 4, 1.5 s transitions.
    pub fn typical() -> Self {
        DrpmConfig {
            low_rpm: 4_200,
            spin_down_after: SimDuration::from_secs(2.0),
            upshift_queue: 4,
            transition: SimDuration::from_secs(1.5),
        }
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

struct Speed {
    mech: Mechanics,
    power: PowerModel,
}

/// Replays a trace against a two-speed DRPM drive and reports response
/// time and energy.
///
/// The drive services one request at a time with SPTF over a bounded
/// window (like [`crate::DiskDrive`]) but may be in the low-speed state
/// when a request arrives; it upshifts — paying the transition — only
/// when the queue reaches the configured depth.
pub fn replay(params: &DiskParams, config: DrpmConfig, requests: &[IoRequest]) -> DrpmResult {
    assert!(config.low_rpm > 0 && config.low_rpm < params.rpm());
    let full = Speed {
        mech: Mechanics::new(params),
        power: PowerModel::new(params),
    };
    let low_params = params.with_rpm(config.low_rpm);
    let low = Speed {
        mech: Mechanics::new(&low_params),
        power: PowerModel::new(&low_params),
    };

    let mut arms = ArmSet::from_arms(&full.mech.default_arms(1));
    let mut queue = PendingQueue::new(DEFAULT_WINDOW, 1);
    let mut response = ResponseStats::exact();
    let mut energy_j = 0.0;
    let mut low_time = SimDuration::ZERO;
    let mut upshifts = 0u64;

    let capacity = full.mech.geometry().total_sectors();
    let overhead = params.controller_overhead();

    // Simulation state: the drive alternates between servicing the
    // queue head-of-line (chosen by SPTF) and sitting idle until the
    // next arrival. Speed changes are decided at those boundaries.
    let mut now = SimTime::ZERO;
    let mut at_low = false;
    let mut i = 0usize;
    let charge = |e: &mut f64, power_w: f64, dt: SimDuration| {
        *e += power_w * dt.as_secs();
    };

    loop {
        // Refill the queue with everything that has arrived by `now`.
        while i < requests.len() && requests[i].arrival <= now {
            queue.push(requests[i]);
            i += 1;
        }
        if queue.is_empty() {
            match requests.get(i) {
                None => break,
                Some(next) => {
                    // Idle until the next arrival; downshift lazily.
                    let gap = next.arrival - now;
                    if !at_low && gap >= config.spin_down_after {
                        charge(&mut energy_j, full.power.idle_w(), config.spin_down_after);
                        let remaining = gap - config.spin_down_after;
                        charge(&mut energy_j, low.power.idle_w(), remaining);
                        low_time += remaining;
                        at_low = true;
                        queue.forget_costs(); // costs were priced at full speed
                    } else {
                        let idle_power = if at_low {
                            low.power.idle_w()
                        } else {
                            full.power.idle_w()
                        };
                        charge(&mut energy_j, idle_power, gap);
                        if at_low {
                            low_time += gap;
                        }
                    }
                    now = next.arrival;
                    continue;
                }
            }
        }

        // Upshift decision at a service boundary.
        if at_low && queue.len() >= config.upshift_queue {
            charge(&mut energy_j, full.power.seek_w(0), config.transition);
            now += config.transition;
            at_low = false;
            queue.forget_costs(); // costs were priced at low speed
            upshifts += 1;
            continue; // re-collect arrivals during the transition
        }

        let speed = if at_low { &low } else { &full };
        let start = now + overhead;
        let cost = ScanCost {
            mech: &speed.mech,
            arms: &arms,
            heads: 1,
            start,
            scaling: LatencyScaling::none(),
        };
        // The queue was checked non-empty above and the single arm is
        // never deconfigured, so the scan always pops a priced request;
        // bail out of the replay rather than panic if that ever breaks.
        let Some((req, Some(choice))) = queue.pop_next(QueuePolicy::Sptf, &cost, |_| true, None)
        else {
            break;
        };
        let plan = speed.mech.plan_for(choice, req.lba % capacity, req.sectors);
        let finish = start + plan.total();
        // Energy: overhead+rotation at idle level, seek with VCM,
        // transfer with channel.
        charge(&mut energy_j, speed.power.idle_w(), overhead + plan.rotational);
        charge(&mut energy_j, speed.power.seek_w(1), plan.seek);
        charge(&mut energy_j, speed.power.transfer_w(), plan.transfer);
        if at_low {
            low_time += finish - now;
        }
        arms.set_cylinder(0, plan.end_cylinder);
        let _ = req.kind == IoKind::Write; // writes and reads cost alike here
        response.record((finish - req.arrival).as_millis());
        now = finish;
    }

    let duration = now - SimTime::ZERO;
    DrpmResult {
        completed: response.count() as u64,
        response_time_ms: response,
        energy_j,
        duration,
        low_speed_fraction: if duration.is_zero() {
            0.0
        } else {
            low_time.as_millis() / duration.as_millis()
        },
        upshifts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::presets;
    use simkit::Rng64;

    fn requests(n: u64, gap_ms: f64, seed: u64) -> Vec<IoRequest> {
        let params = presets::barracuda_es_750gb();
        let cap = Mechanics::new(&params).geometry().total_sectors();
        let mut rng = Rng64::new(seed);
        let mut t = SimTime::ZERO;
        (0..n)
            .map(|i| {
                t += SimDuration::from_millis(rng.f64() * 2.0 * gap_ms);
                IoRequest::new(i, t, rng.below(cap), 8, IoKind::Read)
            })
            .collect()
    }

    #[test]
    fn completes_everything() {
        let params = presets::barracuda_es_750gb();
        let reqs = requests(500, 10.0, 1);
        let r = replay(&params, DrpmConfig::typical(), &reqs);
        assert_eq!(r.completed, 500);
        assert!(r.average_power_w() > 0.0);
    }

    #[test]
    fn bursty_idle_load_spends_time_at_low_speed() {
        let params = presets::barracuda_es_750gb();
        // Widely spaced requests: mostly idle, big spin-down opportunity.
        let reqs = requests(100, 3_000.0, 2);
        let r = replay(&params, DrpmConfig::typical(), &reqs);
        assert!(
            r.low_speed_fraction > 0.5,
            "low-speed fraction {}",
            r.low_speed_fraction
        );
        // And saves real power vs. a full-speed drive idling.
        let full_idle = PowerModel::new(&params).idle_w();
        assert!(r.average_power_w() < full_idle * 0.85, "{}", r.average_power_w());
    }

    #[test]
    fn sustained_load_stays_at_full_speed() {
        let params = presets::barracuda_es_750gb();
        let reqs = requests(1_000, 6.0, 3);
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
        let reqs = requests(50, 5_000.0, 4);
        let r = replay(&params, DrpmConfig::typical(), &reqs);
        assert_eq!(r.upshifts, 0);
        assert_eq!(r.completed, 50);
        // Mean service reflects the 4200-RPM rotation (~7.1 ms half-rev).
        assert!(r.response_time_ms.mean() > 5.0);
    }
}
