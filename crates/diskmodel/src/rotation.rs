//! Rotational position as a pure function of time.
//!
//! The platter stack spins continuously at a fixed RPM, so the angle of
//! any sector at any instant is fully determined — the simulator never
//! "tracks" rotation, it just evaluates it. Multi-actuator drives place
//! their arm assemblies at different fixed azimuths around the spindle
//! (the paper's Figure 1 shows them diagonally opposed); a sector
//! therefore passes under assembly *i* of *k* at times offset by `i·T/k`,
//! which is precisely why extra assemblies cut rotational latency.
//!
//! Angles are dimensionless fractions of a revolution in `[0, 1)`.

use crate::params::DiskParams;
use simkit::{SimDuration, SimTime};

/// Rotational kinematics of one spindle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationModel {
    period_ns: u64,
}

impl RotationModel {
    /// Creates a rotation model from a drive's parameters.
    pub fn new(params: &DiskParams) -> Self {
        Self::from_period(params.rotation_period())
    }

    /// Creates a rotation model from an explicit revolution period.
    ///
    /// # Panics
    /// Panics if the period is zero.
    pub fn from_period(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "rotation period must be positive");
        RotationModel {
            period_ns: period.as_nanos(),
        }
    }

    /// One full revolution.
    pub fn period(&self) -> SimDuration {
        SimDuration::from_nanos(self.period_ns)
    }

    /// The rotational offset of the platter at time `t`: how far (in
    /// fractions of a revolution) the platter has turned from its
    /// position at time zero.
    pub fn platter_offset(&self, t: SimTime) -> f64 {
        (t.as_nanos() % self.period_ns) as f64 / self.period_ns as f64
    }

    /// Time until the sector whose *rest angle* (angle at time zero) is
    /// `sector_angle` next passes under a head mounted at azimuth
    /// `head_azimuth`, starting from time `now`.
    ///
    /// Both angles are fractions of a revolution in `[0, 1)`; values
    /// outside are wrapped.
    // simlint: hot — cost-model primitive; once per priced arm.
    pub fn wait_until_under(&self, sector_angle: f64, head_azimuth: f64, now: SimTime) -> SimDuration {
        let sector_now = wrap_unit(sector_angle + self.platter_offset(now));
        let gap = wrap_unit(head_azimuth - sector_now);
        let period = self.period_ns.max(1);
        let wait = (gap * self.period_ns as f64).round() as u64;
        SimDuration::from_nanos(if wait < period { wait } else { wait % period })
    }

    /// Time to transfer `sectors` contiguous sectors from a track with
    /// `sectors_per_track` sectors (pure rotation time under the head).
    ///
    /// # Panics
    /// Panics if `sectors_per_track` is zero.
    pub fn transfer_time(&self, sectors: u32, sectors_per_track: u32) -> SimDuration {
        assert!(sectors_per_track > 0, "empty track");
        let frac = sectors as f64 / sectors_per_track as f64;
        SimDuration::from_nanos((frac * self.period_ns as f64).round() as u64)
    }

    /// The azimuth of arm assembly `index` out of `count` equally
    /// spaced assemblies.
    ///
    /// # Panics
    /// Panics if `count == 0` or `index >= count`.
    pub fn assembly_azimuth(index: u32, count: u32) -> f64 {
        assert!(count > 0 && index < count, "bad assembly index {index}/{count}");
        index as f64 / count as f64
    }
}

/// `x.rem_euclid(1.0)`, bit for bit, without a `fmod` call on the
/// angles and angle differences positioning produces (all in (-1, 2)).
pub fn wrap_unit(x: f64) -> f64 {
    if (0.0..1.0).contains(&x) {
        x
    } else if x > -1.0 && x < 0.0 {
        x + 1.0 // (not -1.0 itself: `rem_euclid` maps that to -0.0)
    } else if (1.0..2.0).contains(&x) {
        x - 1.0 // exact (Sterbenz), as `fmod` is
    } else {
        x.rem_euclid(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_7200() -> RotationModel {
        RotationModel::from_period(SimDuration::from_millis(60_000.0 / 7200.0))
    }

    #[test]
    fn period_roundtrip() {
        let m = model_7200();
        assert!((m.period().as_millis() - 8.3333).abs() < 1e-3);
    }

    #[test]
    fn platter_offset_wraps() {
        let m = model_7200();
        assert_eq!(m.platter_offset(SimTime::ZERO), 0.0);
        let half = SimTime::from_millis(60_000.0 / 7200.0 / 2.0);
        assert!((m.platter_offset(half) - 0.5).abs() < 1e-6);
        let full = SimTime::from_nanos(m.period().as_nanos());
        assert!(m.platter_offset(full) < 1e-9);
    }

    #[test]
    fn wait_is_zero_when_aligned() {
        let m = model_7200();
        // At t=0, sector at angle 0.25 sits at azimuth 0.25.
        let w = m.wait_until_under(0.25, 0.25, SimTime::ZERO);
        assert!(w.as_millis() < 1e-6, "wait {w}");
    }

    #[test]
    fn wait_bounded_by_period() {
        let m = model_7200();
        let mut t = SimTime::ZERO;
        for i in 0..500 {
            let sector = (i as f64 * 0.137).rem_euclid(1.0);
            let head = (i as f64 * 0.311).rem_euclid(1.0);
            let w = m.wait_until_under(sector, head, t);
            assert!(w < m.period(), "wait {w} >= period");
            t += SimDuration::from_millis(1.7);
        }
    }

    #[test]
    fn second_assembly_halves_worst_case_wait() {
        let m = model_7200();
        let now = SimTime::from_millis(1.234);
        for i in 0..100 {
            let sector = (i as f64 * 0.0763).rem_euclid(1.0);
            let w0 = m.wait_until_under(sector, RotationModel::assembly_azimuth(0, 2), now);
            let w1 = m.wait_until_under(sector, RotationModel::assembly_azimuth(1, 2), now);
            let best = w0.min(w1);
            assert!(
                best.as_millis() <= m.period().as_millis() / 2.0 + 1e-3,
                "best wait {best} exceeds half period"
            );
        }
    }

    #[test]
    fn four_assemblies_quarter_wait() {
        let m = model_7200();
        let now = SimTime::from_millis(77.7);
        for i in 0..100 {
            let sector = (i as f64 * 0.0921).rem_euclid(1.0);
            let best = (0..4)
                .map(|k| m.wait_until_under(sector, RotationModel::assembly_azimuth(k, 4), now))
                .min()
                .unwrap();
            assert!(best.as_millis() <= m.period().as_millis() / 4.0 + 1e-3);
        }
    }

    #[test]
    fn transfer_time_scales_with_sectors() {
        let m = model_7200();
        let one = m.transfer_time(1, 1000);
        let ten = m.transfer_time(10, 1000);
        // Each conversion rounds to whole nanoseconds, so allow 10 ns.
        assert!((ten.as_millis() - 10.0 * one.as_millis()).abs() < 1e-5);
        let full = m.transfer_time(1000, 1000);
        assert!((full.as_millis() - m.period().as_millis()).abs() < 1e-6);
    }

    #[test]
    fn wait_after_elapsed_time_consistent() {
        let m = model_7200();
        // If we wait w at time t, the sector should be under the head at t+w,
        // i.e. waiting again at t+w gives ~0 (or ~period).
        let t = SimTime::from_millis(3.21);
        let w = m.wait_until_under(0.6, 0.1, t);
        let w2 = m.wait_until_under(0.6, 0.1, t + w);
        let ms = w2.as_millis();
        assert!(ms < 1e-3 || (m.period().as_millis() - ms) < 1e-3, "w2 {w2}");
    }

    #[test]
    fn wrap_unit_is_rem_euclid() {
        let edges = [
            -1.5, -1.0, -0.75, -1e-300, -0.0, 0.0, 0.3, 0.999_999, 1.0, 1.7, 2.0, 5.25,
        ];
        let sweep = (0..1000).map(|i| i as f64 * 0.00731 - 1.2);
        for x in edges.into_iter().chain(sweep) {
            let (got, want) = (wrap_unit(x).to_bits(), x.rem_euclid(1.0).to_bits());
            assert_eq!(got, want, "at {x}");
        }
    }

    #[test]
    #[should_panic(expected = "bad assembly index")]
    fn bad_azimuth_index_panics() {
        RotationModel::assembly_azimuth(2, 2);
    }
}
