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
use simkit::time::round_ns;
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
    /// Panics if the period is zero or not below 2⁶³ ns (some 292
    /// years), the range whose phases convert to `f64` through `i64`.
    pub fn from_period(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "rotation period must be positive");
        assert!(
            period.as_nanos() <= i64::MAX as u64,
            "rotation period out of range"
        );
        RotationModel {
            period_ns: period.as_nanos(),
        }
    }

    /// One full revolution.
    #[inline]
    pub fn period(&self) -> SimDuration {
        SimDuration::from_nanos(self.period_ns)
    }

    /// The rotational offset of the platter at time `t`: how far (in
    /// fractions of a revolution) the platter has turned from its
    /// position at time zero.
    pub fn platter_offset(&self, t: SimTime) -> f64 {
        self.offset_at_phase(self.phase(t))
    }

    /// Where in its revolution the platter is at time `t`: `t mod
    /// period`, in nanoseconds.
    // Hot path: once per dispatch scan.
    #[inline]
    pub fn phase(&self, t: SimTime) -> u64 {
        t.as_nanos() % self.period_ns
    }

    /// The phase `by` after phase `phase`: `phase(t + by)` given
    /// `phase(t)`, by subtracting whole revolutions rather than dividing.
    /// It divides only when `by` spans two revolutions or more, which
    /// few seeks do; the two subtractions compile to selects, so the
    /// per-arm loop takes no branch on where the seek ends.
    // Hot path: once per priced arm.
    #[inline]
    pub fn advance(&self, phase: u64, by: SimDuration) -> u64 {
        debug_assert!(phase < self.period_ns, "phase {phase} not reduced");
        let period = self.period_ns;
        let mut by = by.as_nanos();
        // `period < 2⁶³`, so twice it cannot wrap.
        if by >= 2 * period {
            by %= period;
        }
        by -= if by >= period { period } else { 0 };
        // Both terms are below `period` < 2⁶³, so the sum cannot wrap.
        let t = phase + by;
        t - if t >= period { period } else { 0 }
    }

    /// [`platter_offset`](Self::platter_offset) at a phase. The casts go
    /// through `i64` (one instruction each); both values are below 2⁶³,
    /// where that is exactly the `u64` conversion.
    #[inline]
    fn offset_at_phase(&self, phase: u64) -> f64 {
        phase as i64 as f64 / self.period_ns as i64 as f64
    }

    /// Time until the sector whose *rest angle* (angle at time zero) is
    /// `sector_angle` next passes under a head mounted at azimuth
    /// `head_azimuth`, starting from time `now`.
    ///
    /// Both angles are fractions of a revolution in `[0, 1)`; values
    /// outside are wrapped.
    #[inline]
    pub fn wait_until_under(
        &self,
        sector_angle: f64,
        head_azimuth: f64,
        now: SimTime,
    ) -> SimDuration {
        self.wait_at_phase(sector_angle, head_azimuth, self.phase(now))
    }

    /// [`wait_until_under`](Self::wait_until_under) from the instant
    /// whose [`phase`](Self::phase) is `phase`, bit for bit.
    // Hot path: cost-model primitive; once per priced head.
    #[inline]
    pub fn wait_at_phase(&self, sector_angle: f64, head_azimuth: f64, phase: u64) -> SimDuration {
        let sector_now = wrap_unit(sector_angle + self.offset_at_phase(phase));
        let gap = wrap_unit(head_azimuth - sector_now);
        let period = self.period_ns;
        // `gap < 1`, so the wait is at most one period; a full period
        // is no wait at all.
        let wait = round_ns(gap * period as i64 as f64);
        SimDuration::from_nanos(if wait < period { wait } else { wait % period })
    }

    /// Time to transfer `sectors` contiguous sectors from a track with
    /// `sectors_per_track` sectors (pure rotation time under the head).
    ///
    /// # Panics
    /// Panics if `sectors_per_track` is zero.
    #[inline]
    pub fn transfer_time(&self, sectors: u32, sectors_per_track: u32) -> SimDuration {
        assert!(sectors_per_track > 0, "empty track");
        let frac = sectors as f64 / sectors_per_track as f64;
        SimDuration::from_nanos(round_ns(frac * self.period_ns as i64 as f64))
    }

    /// The azimuth of arm assembly `index` out of `count` equally
    /// spaced assemblies.
    ///
    /// # Panics
    /// Panics if `count == 0` or `index >= count`.
    pub fn assembly_azimuth(index: u32, count: u32) -> f64 {
        assert!(
            count > 0 && index < count,
            "bad assembly index {index}/{count}"
        );
        index as f64 / count as f64
    }
}

/// `x.rem_euclid(1.0)`, bit for bit, without a `fmod` call on the
/// angles and angle differences positioning produces (all in (-1, 2)).
///
/// On that range it subtracts −1, 0 or 1, chosen by a select rather than
/// by branches (the range's halves are equally likely, so branches would
/// mispredict). Each case is exactly what `rem_euclid` computes: `x - 0.0`
/// is `x` (−0.0 included), `x - -1.0` is `x + 1.0`, and `x - 1.0` on
/// `[1, 2)` is exact (Sterbenz), as `fmod` is. −1.0 itself is left to
/// `rem_euclid`, which maps it to −0.0.
#[inline]
pub fn wrap_unit(x: f64) -> f64 {
    if x > -1.0 && x < 2.0 {
        let shift = if x < 0.0 {
            -1.0
        } else if x >= 1.0 {
            1.0
        } else {
            0.0
        };
        x - shift
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

    /// Seeks from nothing to several revolutions (past the point where
    /// [`RotationModel::advance`] stops subtracting and divides).
    fn seeks(m: &RotationModel) -> impl Iterator<Item = SimDuration> {
        let p = m.period().as_nanos();
        let around = move |x: u64| x.saturating_sub(1)..=x + 1;
        let revolutions = (0..=6).map(move |k| k * p).flat_map(around);
        let sweep = (0..400u64).map(move |i| i * 7 * p / 100 + i % 13);
        revolutions.chain(sweep).map(SimDuration::from_nanos)
    }

    /// `wait_at_phase` at `advance(phase(start), seek)` against
    /// `wait_until_under` at `start + seek`, bit for bit.
    fn assert_phase_form_exact(m: &RotationModel) {
        let starts = [
            0,
            1,
            987_654_321,
            m.period().as_nanos() - 1,
            3_600_000_000_123,
        ];
        for start in starts.map(SimTime::from_nanos) {
            let phase = m.phase(start);
            for (i, seek) in seeks(m).enumerate() {
                let sector = (i as f64 * 0.137).rem_euclid(1.0);
                let head = (i as f64 * 0.311).rem_euclid(1.0);
                let at = m.advance(phase, seek);
                assert_eq!(at, m.phase(start + seek), "phase at {start} + {seek}");
                assert_eq!(
                    m.wait_at_phase(sector, head, at),
                    m.wait_until_under(sector, head, start + seek),
                    "wait at {start} + {seek}"
                );
            }
        }
    }

    #[test]
    fn phase_form_is_wait_until_under_at_any_period() {
        // Full speed, DRPM's low speed, and the degenerate 1 ns period.
        assert_phase_form_exact(&model_7200());
        assert_phase_form_exact(&RotationModel::from_period(SimDuration::from_millis(
            60_000.0 / 4_200.0,
        )));
        assert_phase_form_exact(&RotationModel::from_period(SimDuration::from_nanos(1)));
    }

    #[test]
    fn wait_at_phase_pins_the_float_expression() {
        // The pre-phase formula, verbatim, at instants of every phase.
        let m = model_7200();
        let p = m.period().as_nanos();
        let reference = |sector: f64, head: f64, now: u64| {
            let offset = (now % p) as f64 / p as f64;
            let gap = (head - (sector + offset).rem_euclid(1.0)).rem_euclid(1.0);
            let wait = (gap * p as f64).round() as u64;
            SimDuration::from_nanos(wait % p)
        };
        for i in 0..5_000u64 {
            let now = i * 1_234_567 + i % 7;
            let (sector, head) = ((i as f64 * 0.0763).fract(), (i as f64 * 0.29).fract());
            let got = m.wait_at_phase(sector, head, m.phase(SimTime::from_nanos(now)));
            assert_eq!(got, reference(sector, head, now), "at {now}");
        }
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
