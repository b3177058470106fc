//! The seek-time curve.
//!
//! Seek time is modelled with the classic two-regime curve (Ruemmler &
//! Wilkes): an acceleration-limited square-root regime for short seeks
//! and a coast-limited affine regime for long seeks,
//!
//! ```text
//!   t(d) = a + b·sqrt(d)   for 1 <= d < boundary
//!   t(d) = c + e·d         for d >= boundary
//! ```
//!
//! calibrated through three datasheet points: the single-cylinder seek,
//! the average seek (interpreted, as manufacturers do, as the seek over
//! one third of the full stroke), and the full-stroke seek. The curve is
//! continuous at the boundary by construction.

use crate::params::DiskParams;
use simkit::SimDuration;

/// A calibrated seek-time curve for one drive.
#[derive(Debug, Clone, PartialEq)]
pub struct SeekProfile {
    max_distance: u32,
    boundary: u32,
    a: f64,
    b: f64,
    c: f64,
    e: f64,
}

impl SeekProfile {
    /// Calibrates the curve from a drive's parameters.
    pub fn new(params: &DiskParams) -> Self {
        let max_distance = params.cylinders() - 1;
        let t1 = params.single_cylinder_seek().as_millis();
        let tavg = params.average_seek().as_millis();
        let tfull = params.full_stroke_seek().as_millis();
        Self::from_points(max_distance, t1, tavg, tfull)
    }

    /// Calibrates from raw points: seek times (ms) at distance 1, at
    /// one-third stroke, and at full stroke.
    ///
    /// # Panics
    /// Panics unless `0 < t1 <= tavg <= tfull` and `max_distance >= 1`.
    pub fn from_points(max_distance: u32, t1: f64, tavg: f64, tfull: f64) -> Self {
        assert!(max_distance >= 1, "need at least two cylinders");
        assert!(
            t1 > 0.0 && t1 <= tavg && tavg <= tfull,
            "seek points out of order: {t1} {tavg} {tfull}"
        );
        // The square-root regime passes through (1, t1) and
        // (boundary, t(boundary)); the affine regime through
        // (boundary, t(boundary)) and (max, tfull). We place the
        // boundary at one third of the stroke — the average-seek
        // calibration point — so t(boundary) = tavg.
        let boundary = (max_distance / 3).max(1);
        let (a, b) = if boundary == 1 {
            (t1, 0.0)
        } else {
            let b = (tavg - t1) / ((boundary as f64).sqrt() - 1.0);
            (t1 - b, b)
        };
        let (c, e) = if max_distance == boundary {
            (tavg, 0.0)
        } else {
            let e = (tfull - tavg) / (max_distance - boundary) as f64;
            (tavg - e * boundary as f64, e)
        };
        SeekProfile {
            max_distance,
            boundary,
            a,
            b,
            c,
            e,
        }
    }

    /// Seek time for a cylinder distance (0 yields zero time).
    ///
    /// # Panics
    /// Panics if `distance` exceeds the drive's maximum stroke.
    // Hot path: cost-model primitive; once per seek the dispatch
    // scan prices.
    #[inline]
    pub fn seek_time(&self, distance: u32) -> SimDuration {
        assert!(
            distance <= self.max_distance,
            "seek distance {distance} exceeds stroke {}",
            self.max_distance
        );
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let d = distance as f64;
        let ms = if distance < self.boundary {
            self.a + self.b * d.sqrt()
        } else {
            self.c + self.e * d
        };
        SimDuration::from_millis(ms.max(0.0))
    }

    /// The maximum seek distance (cylinders − 1).
    #[inline]
    pub fn max_distance(&self) -> u32 {
        self.max_distance
    }

    /// Mean seek time over uniformly random start/end cylinders —
    /// useful for validating a calibration against the datasheet
    /// average.
    pub fn mean_random_seek(&self) -> SimDuration {
        // The distance between two uniform cylinders has pdf
        // 2(n-d)/n^2; integrate the curve numerically over it.
        let n = self.max_distance as f64 + 1.0;
        let mut acc = 0.0;
        for d in 1..=self.max_distance {
            let p = 2.0 * (n - d as f64) / (n * n);
            acc += p * self.seek_time(d).as_millis();
        }
        SimDuration::from_millis(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DiskParams;

    fn profile() -> SeekProfile {
        let p = DiskParams::builder("s")
            .cylinders(30_000)
            .seek_profile_ms(0.8, 8.5, 17.0)
            .build()
            .unwrap();
        SeekProfile::new(&p)
    }

    #[test]
    fn zero_distance_is_free() {
        assert_eq!(profile().seek_time(0), SimDuration::ZERO);
    }

    #[test]
    fn hits_calibration_points() {
        let s = profile();
        assert!((s.seek_time(1).as_millis() - 0.8).abs() < 1e-6);
        assert!((s.seek_time(29_999 / 3).as_millis() - 8.5).abs() < 0.01);
        assert!((s.seek_time(29_999).as_millis() - 17.0).abs() < 1e-6);
    }

    #[test]
    fn monotone_nondecreasing() {
        let s = profile();
        let mut prev = SimDuration::ZERO;
        for d in (0..=29_999).step_by(37) {
            let t = s.seek_time(d);
            assert!(t >= prev, "decreased at {d}");
            prev = t;
        }
    }

    #[test]
    fn continuous_at_boundary() {
        let s = profile();
        let b = 29_999 / 3;
        let below = s.seek_time(b - 1).as_millis();
        let at = s.seek_time(b).as_millis();
        assert!(
            (at - below).abs() < 0.1,
            "jump at boundary: {below} -> {at}"
        );
    }

    #[test]
    fn mean_random_seek_near_datasheet_average() {
        let s = profile();
        let m = s.mean_random_seek().as_millis();
        // The "average = one-third-stroke" convention puts the true
        // random mean within ~15% of the datasheet number.
        assert!((m - 8.5).abs() / 8.5 < 0.15, "mean {m}");
    }

    #[test]
    fn tiny_disk_degenerate_profile() {
        let s = SeekProfile::from_points(1, 0.5, 0.5, 0.5);
        assert_eq!(s.seek_time(1), SimDuration::from_millis(0.5));
        assert_eq!(s.max_distance(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds stroke")]
    fn beyond_stroke_panics() {
        profile().seek_time(30_000);
    }

    #[test]
    fn faster_drive_has_faster_seeks() {
        let slow = profile();
        let p = DiskParams::builder("fast")
            .cylinders(30_000)
            .seek_profile_ms(0.6, 5.0, 10.5)
            .build()
            .unwrap();
        let fast = SeekProfile::new(&p);
        for d in [1u32, 100, 5_000, 20_000, 29_999] {
            assert!(fast.seek_time(d) < slow.seek_time(d), "at {d}");
        }
    }
}
