//! Time-weighted accounting of operating modes.
//!
//! The paper attributes a drive's energy to the four operating modes —
//! idle, seeking, rotational-latency wait, and data transfer — by the
//! time spent in each (Figures 3 and 6). [`ModeAccumulator`] accumulates
//! per-mode durations and converts them into average power given a
//! per-mode power level.

use crate::time::{SimDuration, SimTime};

/// Mode keys run from 0 to `MODE_KEYS - 1`: the four drive power modes
/// of `intradisk::DriveMode`.
const MODE_KEYS: usize = 4;

/// Accumulates time spent in each of a set of modes identified by a
/// small integer key (0 to 3), and turns (mode time × mode
/// power) into energy and average power.
///
/// Modes are caller-defined; the disk model uses
/// `intradisk::power::DriveMode`. Only modes with non-zero time count
/// as recorded: [`iter`](Self::iter), [`energy_joules`](Self::energy_joules),
/// [`merge`](Self::merge) and equality see those alone, in ascending key
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModeAccumulator {
    time_in_mode: [SimDuration; MODE_KEYS],
    total: SimDuration,
}

impl ModeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `duration` to mode `mode`.
    ///
    /// # Panics
    /// Panics if `mode` is above 3 and `duration` is non-zero.
    #[inline]
    pub fn add(&mut self, mode: u8, duration: SimDuration) {
        if duration.is_zero() {
            return;
        }
        self.time_in_mode[mode as usize] += duration;
        self.total += duration;
    }

    /// Adds the span `[from, to)` to mode `mode`.
    ///
    /// # Panics
    /// Panics if `to < from`.
    pub fn add_span(&mut self, mode: u8, from: SimTime, to: SimTime) {
        self.add(mode, to - from);
    }

    /// Total time recorded across all modes.
    pub fn total_time(&self) -> SimDuration {
        self.total
    }

    /// Time recorded for `mode`.
    pub fn time_in(&self, mode: u8) -> SimDuration {
        self.time_in_mode
            .get(mode as usize)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Fraction of total time spent in `mode` (0 if nothing recorded).
    pub fn fraction_in(&self, mode: u8) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.time_in(mode).as_millis() / self.total.as_millis()
        }
    }

    /// Energy in joules, given a power level in watts per mode.
    ///
    /// Modes missing from `power_w` contribute nothing.
    pub fn energy_joules(&self, power_w: impl Fn(u8) -> f64) -> f64 {
        self.iter().map(|(m, d)| power_w(m) * d.as_secs()).sum()
    }

    /// Average power in watts over the recorded interval, given a
    /// per-mode power level; 0 if nothing recorded.
    pub fn average_power_w(&self, power_w: impl Fn(u8) -> f64) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.energy_joules(&power_w) / self.total.as_secs()
        }
    }

    /// Average power contributed by a single mode (mode energy divided
    /// by *total* time) — this is the height of one segment of the
    /// paper's stacked power bars.
    pub fn mode_average_power_w(&self, mode: u8, power: f64) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            power * self.time_in(mode).as_secs() / self.total.as_secs()
        }
    }

    /// The time recorded since `earlier`, a copy of this accumulator
    /// taken before: exact, since durations are integer nanoseconds.
    ///
    /// # Panics
    /// Panics if `earlier` recorded more time in some mode than this
    /// accumulator.
    pub fn since(&self, earlier: &ModeAccumulator) -> ModeAccumulator {
        let mut out = ModeAccumulator::new();
        for (d, (now, then)) in out
            .time_in_mode
            .iter_mut()
            .zip(self.time_in_mode.iter().zip(&earlier.time_in_mode))
        {
            *d = *now - *then;
        }
        out.total = self.total - earlier.total;
        out
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ModeAccumulator) {
        for (m, d) in other.iter() {
            self.add(m, d);
        }
    }

    /// Iterates over the `(mode, duration)` pairs of the modes with
    /// recorded time, in mode order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, SimDuration)> + '_ {
        (0..MODE_KEYS as u8)
            .zip(self.time_in_mode)
            .filter(|(_, d)| !d.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDLE: u8 = 0;
    const SEEK: u8 = 1;

    #[test]
    fn since_an_earlier_copy_merges_back_to_the_whole() {
        let mut acc = ModeAccumulator::new();
        acc.add(IDLE, SimDuration::from_nanos(7));
        let mark = acc.clone();
        acc.add(SEEK, SimDuration::from_nanos(5));
        acc.add(IDLE, SimDuration::from_nanos(2));
        let delta = acc.since(&mark);
        assert_eq!(delta.time_in(IDLE), SimDuration::from_nanos(2));
        assert_eq!(delta.total_time(), SimDuration::from_nanos(7));
        let mut rebuilt = mark;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, acc);
    }

    #[test]
    fn accumulates_per_mode() {
        let mut acc = ModeAccumulator::new();
        acc.add(IDLE, SimDuration::from_millis(30.0));
        acc.add(SEEK, SimDuration::from_millis(10.0));
        acc.add(IDLE, SimDuration::from_millis(10.0));
        assert_eq!(acc.time_in(IDLE), SimDuration::from_millis(40.0));
        assert_eq!(acc.time_in(SEEK), SimDuration::from_millis(10.0));
        assert_eq!(acc.total_time(), SimDuration::from_millis(50.0));
        assert!((acc.fraction_in(IDLE) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn add_span() {
        let mut acc = ModeAccumulator::new();
        acc.add_span(SEEK, SimTime::from_millis(2.0), SimTime::from_millis(5.0));
        assert_eq!(acc.time_in(SEEK), SimDuration::from_millis(3.0));
    }

    #[test]
    fn energy_and_average_power() {
        let mut acc = ModeAccumulator::new();
        acc.add(IDLE, SimDuration::from_secs(9.0)); // 9 s at 10 W = 90 J
        acc.add(SEEK, SimDuration::from_secs(1.0)); // 1 s at 20 W = 20 J
        let p = |m: u8| if m == IDLE { 10.0 } else { 20.0 };
        assert!((acc.energy_joules(p) - 110.0).abs() < 1e-9);
        assert!((acc.average_power_w(p) - 11.0).abs() < 1e-9);
        // Stacked-bar segment heights sum to the average power.
        let seg_sum = acc.mode_average_power_w(IDLE, 10.0) + acc.mode_average_power_w(SEEK, 20.0);
        assert!((seg_sum - 11.0).abs() < 1e-9);
    }

    #[test]
    fn empty_accumulator() {
        let acc = ModeAccumulator::new();
        assert_eq!(acc.total_time(), SimDuration::ZERO);
        assert_eq!(acc.average_power_w(|_| 10.0), 0.0);
        assert_eq!(acc.fraction_in(IDLE), 0.0);
    }

    #[test]
    fn merge() {
        let mut a = ModeAccumulator::new();
        let mut b = ModeAccumulator::new();
        a.add(IDLE, SimDuration::from_millis(5.0));
        b.add(IDLE, SimDuration::from_millis(7.0));
        b.add(SEEK, SimDuration::from_millis(1.0));
        a.merge(&b);
        assert_eq!(a.time_in(IDLE), SimDuration::from_millis(12.0));
        assert_eq!(a.total_time(), SimDuration::from_millis(13.0));
    }

    #[test]
    fn matches_an_ordered_map_reference() {
        // The map the array replaced: an entry per mode with time, in
        // key order. Iteration, energy and merge must agree bit for bit.
        use std::collections::BTreeMap;
        let mut acc = ModeAccumulator::new();
        let mut other = ModeAccumulator::new();
        let mut reference: BTreeMap<u8, SimDuration> = BTreeMap::new();
        let mut rng = crate::Rng64::new(7);
        for i in 0..2_000u64 {
            let mode = rng.below(MODE_KEYS as u64) as u8;
            let d = SimDuration::from_nanos(if i % 5 == 0 { 0 } else { rng.below(10_000_000) });
            let into = if i % 3 == 0 { &mut other } else { &mut acc };
            into.add(mode, d);
            if !d.is_zero() {
                *reference.entry(mode).or_insert(SimDuration::ZERO) += d;
            }
        }
        acc.merge(&other);
        let want: Vec<(u8, SimDuration)> = reference.iter().map(|(&m, &d)| (m, d)).collect();
        assert_eq!(acc.iter().collect::<Vec<_>>(), want);
        let power = |m: u8| 1.5 + m as f64 * 0.37;
        let want_j: f64 = reference
            .iter()
            .map(|(&m, &d)| power(m) * d.as_secs())
            .sum();
        assert_eq!(acc.energy_joules(power).to_bits(), want_j.to_bits());
        let total: SimDuration = reference.values().copied().sum();
        assert_eq!(acc.total_time(), total);
    }

    #[test]
    fn equality_sees_only_recorded_time() {
        let mut a = ModeAccumulator::new();
        let mut b = ModeAccumulator::new();
        a.add(SEEK, SimDuration::from_millis(1.0));
        b.add(IDLE, SimDuration::ZERO);
        b.add(SEEK, SimDuration::from_millis(1.0));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn mode_key_out_of_range_panics() {
        ModeAccumulator::new().add(MODE_KEYS as u8, SimDuration::from_millis(1.0));
    }

    #[test]
    fn zero_duration_ignored() {
        let mut acc = ModeAccumulator::new();
        acc.add(IDLE, SimDuration::ZERO);
        assert_eq!(acc.iter().count(), 0);
    }
}
