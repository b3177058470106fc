//! Simulated time.
//!
//! All simulation clocks in this workspace are integer nanoseconds. An
//! integer representation keeps the event calendar totally ordered and
//! reproducible across platforms (no floating-point tie ambiguity), while
//! one nanosecond of resolution is ~5 orders of magnitude finer than any
//! latency the disk model produces.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds per millisecond.
const NS_PER_MS: f64 = 1_000_000.0;

/// 2⁵²: from here up every `f64` is an integer, so there is nothing to
/// round.
const F64_INTEGRAL_FROM: f64 = 4_503_599_627_370_496.0;

/// 2⁵³: every integer up to here converts to `f64` exactly.
const F64_EXACT_INT_MAX: u64 = 1 << 53;

/// The bits of a scale factor of exactly 1.0.
const UNIT_FACTOR_BITS: u64 = 1.0f64.to_bits();

/// `x.round() as u64`, bit for bit, for every `x` (NaN, negatives and
/// ±∞ included), without the out-of-line `round` routine baseline
/// x86-64 lowers `f64::round` to.
///
/// For `0 ≤ x < 2⁵²` the fractional part `x - trunc(x)` is exactly
/// representable (it is `x` with its integer bits cleared), so comparing
/// it with 0.5 rounds half away from zero exactly as `f64::round` does —
/// unlike `(x + 0.5) as u64`, which rounds 0.49999999999999994 up.
/// Everything else takes `f64::round`.
///
/// ```
/// use simkit::time::round_ns;
/// assert_eq!(round_ns(2.5), 3);
/// assert_eq!(round_ns(0.49999999999999994), 0);
/// assert_eq!(round_ns(-0.7), 0);
/// ```
// simlint: hot — every millisecond-to-nanosecond conversion.
#[inline]
pub fn round_ns(x: f64) -> u64 {
    if x >= 0.0 && x < F64_INTEGRAL_FROM {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
///
/// ```
/// use simkit::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(4.2);
/// assert!((t.as_millis() - 4.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// `SimDuration` is closed under addition and saturating subtraction and
/// can be scaled by a dimensionless `f64` (used by the limit study's
/// seek/rotational-latency scaling knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "idle forever" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs an instant from (possibly fractional) milliseconds.
    ///
    /// # Panics
    /// Panics if `ms` is negative or not finite.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "invalid time: {ms} ms");
        SimTime(round_ns(ms * NS_PER_MS))
    }

    /// Raw nanoseconds since the origin.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / NS_PER_MS
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Saturates to zero if `earlier` is in the future — convenient when
    /// computing "remaining wait" quantities.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Elementwise maximum of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Elementwise minimum of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs a duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a duration from (possibly fractional) milliseconds.
    ///
    /// # Panics
    /// Panics if `ms` is negative or not finite.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "invalid duration: {ms} ms");
        SimDuration(round_ns(ms * NS_PER_MS))
    }

    /// Constructs a duration from (possibly fractional) microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_millis(us / 1_000.0)
    }

    /// Constructs a duration from seconds.
    pub fn from_secs(s: f64) -> Self {
        Self::from_millis(s * 1_000.0)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / NS_PER_MS
    }

    /// This duration expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.as_millis() / 1_000.0
    }

    /// Scales the duration by a non-negative dimensionless factor,
    /// rounding to the nearest nanosecond.
    ///
    /// A factor of exactly 1.0 returns `self` untouched up to 2⁵³ ns,
    /// where the float path is exact too; above that the conversion to
    /// `f64` rounds, and the float path is kept for its bits.
    ///
    /// # Panics
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn scale(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        if factor.to_bits() == UNIT_FACTOR_BITS && self.0 <= F64_EXACT_INT_MAX {
            return self;
        }
        SimDuration(round_ns(self.0 as f64 * factor))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Elementwise minimum.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        // Operator impls cannot return Result; clock overflow after
        // ~584 years of simulated nanoseconds is a harness bug.
        SimTime(
            self.0
                .checked_add(rhs.0)
                // simlint: allow(no-panic-in-lib)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    /// Panics if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative duration: rhs later than self"), // simlint: allow(no-panic-in-lib)
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow")) // simlint: allow(no-panic-in-lib)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics if `rhs > self`.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration")) // simlint: allow(no-panic-in-lib)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow")) // simlint: allow(no-panic-in-lib)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_roundtrip() {
        let d = SimDuration::from_millis(8.333);
        assert!((d.as_millis() - 8.333).abs() < 1e-6);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_millis(1.0);
        let t1 = t0 + SimDuration::from_millis(2.5);
        assert_eq!(t1 - t0, SimDuration::from_millis(2.5));
        assert_eq!(t1.saturating_since(t0), SimDuration::from_millis(2.5));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10.0);
        assert_eq!(d.scale(0.5), SimDuration::from_millis(5.0));
        assert_eq!(d.scale(0.0), SimDuration::ZERO);
        assert_eq!(d.scale(1.0), d);
    }

    #[test]
    fn unit_scale_is_the_float_path() {
        let float_path = |d: SimDuration| SimDuration((d.0 as f64 * 1.0).round() as u64);
        let around = |x: u64| x.saturating_sub(3)..=x.saturating_add(3);
        let values = [
            0,
            1,
            8_333_333,
            1 << 52,
            F64_EXACT_INT_MAX,
            u64::MAX / 2,
            u64::MAX,
        ]
        .into_iter()
        .flat_map(around);
        for ns in values {
            let d = SimDuration::from_nanos(ns);
            assert_eq!(d.scale(1.0), float_path(d), "at {ns} ns");
        }
    }

    #[test]
    fn duration_ordering_and_minmax() {
        let a = SimDuration::from_millis(1.0);
        let b = SimDuration::from_millis(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimTime::from_millis(3.0).max(SimTime::ZERO),
            SimTime::from_millis(3.0)
        );
    }

    #[test]
    fn duration_sum_and_div() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_millis(i as f64)).sum();
        assert_eq!(total, SimDuration::from_millis(10.0));
        assert_eq!(total / 2, SimDuration::from_millis(5.0));
        assert_eq!(
            SimDuration::from_millis(2.0) * 3,
            SimDuration::from_millis(6.0)
        );
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = SimTime::ZERO - SimTime::from_millis(1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(1.5)), "1.500ms");
        assert_eq!(format!("{}", SimTime::from_millis(0.25)), "0.250ms");
    }
}
