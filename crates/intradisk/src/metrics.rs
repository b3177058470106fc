//! Per-drive statistics and power attribution.
//!
//! Everything the paper's figures read off a run is collected here:
//! response-time histograms over the paper's bucket edges (Figures 2,
//! 4, 5, 7), rotational-latency PDFs (Figure 5), seek statistics (the
//! §7.2 observation that multi-actuator drives seek *more often*), and
//! the four-mode time accounting that the power bars of Figures 3 and 6
//! are built from.

use simkit::{Histogram, ModeAccumulator, ResponseStats, SimTime, StatsMode};

use crate::request::CompletedIo;

/// The four operating modes of a drive (§7.1's power breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DriveMode {
    /// No mechanical activity; spindle spinning, arms parked.
    Idle = 0,
    /// An arm assembly in motion.
    Seek = 1,
    /// Waiting for the target sector to rotate under the head.
    RotationalWait = 2,
    /// Data moving between the platters and the electronics.
    Transfer = 3,
}

impl DriveMode {
    /// All modes in display order.
    pub const ALL: [DriveMode; 4] = [
        DriveMode::Idle,
        DriveMode::Seek,
        DriveMode::RotationalWait,
        DriveMode::Transfer,
    ];

    /// Stable integer key for [`ModeAccumulator`].
    pub fn key(self) -> u8 {
        self as u8
    }
}

/// Statistics collected by one drive over one run.
#[derive(Debug, Clone)]
pub struct DriveMetrics {
    /// Response times in milliseconds (queue + service). In
    /// [`StatsMode::Exact`] every sample is retained (the oracle);
    /// [`StatsMode::Streaming`] keeps a bounded-memory view with a
    /// documented percentile error bound — the mode 10⁸-request runs
    /// use. Either way `percentile_stream` is always available.
    pub response_time_ms: ResponseStats,
    /// Response-time histogram over the paper's CDF edges. In exact
    /// mode it is filled from `response_time_ms`'s samples when the
    /// metrics are finalized or merged, not per record.
    pub response_hist: Histogram,
    /// Rotational latencies of media accesses, milliseconds.
    pub rotational_ms: ResponseStats,
    /// Rotational-latency histogram over the paper's PDF edges, filled
    /// like `response_hist` (from `rotational_ms`).
    pub rotational_hist: Histogram,
    /// Seek times of media accesses, milliseconds.
    pub seek_ms: ResponseStats,
    /// Media accesses whose seek was non-zero (§7.2 reports 55% → 90%
    /// as actuators are added).
    pub nonzero_seeks: u64,
    /// Requests that reached the media.
    pub media_accesses: u64,
    /// Requests served from the on-board cache.
    pub cache_hits: u64,
    /// Total completed requests.
    pub completed: u64,
    /// Time spent per operating mode.
    pub modes: ModeAccumulator,
    /// Requests dispatched per actuator.
    // Fixed length (one counter per actuator assembly), sized once in
    // `new`.
    pub per_actuator: Vec<u64>,
}

impl DriveMetrics {
    /// Creates empty metrics in [`StatsMode::Exact`] for a drive with
    /// `actuators` assemblies.
    pub fn new(actuators: u32) -> Self {
        Self::with_mode(actuators, StatsMode::Exact)
    }

    /// Creates empty metrics collecting response/latency statistics in
    /// the given [`StatsMode`].
    pub fn with_mode(actuators: u32, mode: StatsMode) -> Self {
        DriveMetrics {
            response_time_ms: ResponseStats::with_mode(mode),
            response_hist: Histogram::new(Histogram::paper_response_time_edges()),
            rotational_ms: ResponseStats::with_mode(mode),
            rotational_hist: Histogram::new(Histogram::paper_rotational_latency_edges()),
            seek_ms: ResponseStats::with_mode(mode),
            nonzero_seeks: 0,
            media_accesses: 0,
            cache_hits: 0,
            completed: 0,
            modes: ModeAccumulator::new(),
            per_actuator: vec![0; actuators as usize],
        }
    }

    /// Records a finished request.
    pub fn record(&mut self, done: &CompletedIo) {
        let rt = done.response_time().as_millis();
        self.response_time_ms
            .record_binned(rt, &mut self.response_hist);
        self.completed += 1;
        if done.cache_hit {
            self.cache_hits += 1;
        } else {
            self.media_accesses += 1;
            let rot = done.breakdown.rotational.as_millis();
            self.rotational_ms
                .record_binned(rot, &mut self.rotational_hist);
            let seek = done.breakdown.seek.as_millis();
            self.seek_ms.record(seek);
            if seek > 0.0 {
                self.nonzero_seeks += 1;
            }
            if let Some(slot) = self.per_actuator.get_mut(done.actuator as usize) {
                *slot += 1;
            }
        }
    }

    /// Sorts the sample summaries so percentile queries are indexed
    /// reads, and fills the histograms from them in exact mode; called
    /// once when a run ends (`DiskDrive::finalize`).
    pub fn finalize(&mut self) {
        self.response_time_ms.finalize();
        self.rotational_ms.finalize();
        self.seek_ms.finalize();
        self.response_time_ms.sync_hist(&mut self.response_hist);
        self.rotational_ms.sync_hist(&mut self.rotational_hist);
    }

    /// Fraction of media accesses with a non-zero seek.
    pub fn nonzero_seek_fraction(&self) -> f64 {
        if self.media_accesses == 0 {
            0.0
        } else {
            self.nonzero_seeks as f64 / self.media_accesses as f64
        }
    }

    /// Merges metrics from another drive (used when summing over an
    /// array). Exact-mode stats merge exactly; if either side is
    /// streaming, the merged stats are streaming.
    pub fn merge(&mut self, other: &DriveMetrics) {
        // Both sides' histograms are brought up to date first: a merge
        // with a streaming side drops the samples they are filled from.
        self.response_time_ms.sync_hist(&mut self.response_hist);
        self.rotational_ms.sync_hist(&mut self.rotational_hist);
        self.response_hist
            .merge(&other.response_time_ms.synced_hist(&other.response_hist));
        self.rotational_hist
            .merge(&other.rotational_ms.synced_hist(&other.rotational_hist));
        self.response_time_ms.merge(&other.response_time_ms);
        self.rotational_ms.merge(&other.rotational_ms);
        self.seek_ms.merge(&other.seek_ms);
        self.nonzero_seeks += other.nonzero_seeks;
        self.media_accesses += other.media_accesses;
        self.cache_hits += other.cache_hits;
        self.completed += other.completed;
        self.modes.merge(&other.modes);
        if self.per_actuator.len() < other.per_actuator.len() {
            self.per_actuator.resize(other.per_actuator.len(), 0);
        }
        for (a, b) in self.per_actuator.iter_mut().zip(&other.per_actuator) {
            *a += b;
        }
    }
}

/// The height of each segment of one stacked power bar (Figures 3
/// and 6), in watts: per-mode energy divided by total wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Idle-mode contribution.
    pub idle_w: f64,
    /// Seek-mode contribution.
    pub seek_w: f64,
    /// Rotational-wait contribution.
    pub rotational_w: f64,
    /// Transfer contribution.
    pub transfer_w: f64,
}

impl PowerBreakdown {
    /// Computes the breakdown from accumulated mode times and a power
    /// model, with one VCM active during seeks (the HC-SD-SA(n)
    /// single-arm-in-motion restriction).
    pub fn from_modes(modes: &ModeAccumulator, power: &diskmodel::PowerModel) -> Self {
        PowerBreakdown {
            idle_w: modes.mode_average_power_w(DriveMode::Idle.key(), power.idle_w()),
            seek_w: modes.mode_average_power_w(DriveMode::Seek.key(), power.seek_w(1)),
            rotational_w: modes
                .mode_average_power_w(DriveMode::RotationalWait.key(), power.rotational_wait_w()),
            transfer_w: modes.mode_average_power_w(DriveMode::Transfer.key(), power.transfer_w()),
        }
    }

    /// Average total power (sum of all segments).
    pub fn total_w(&self) -> f64 {
        self.idle_w + self.seek_w + self.rotational_w + self.transfer_w
    }

    /// Adds another breakdown (summing over the drives of an array).
    pub fn add(&self, other: &PowerBreakdown) -> PowerBreakdown {
        PowerBreakdown {
            idle_w: self.idle_w + other.idle_w,
            seek_w: self.seek_w + other.seek_w,
            rotational_w: self.rotational_w + other.rotational_w,
            transfer_w: self.transfer_w + other.transfer_w,
        }
    }
}

/// Convenience: closes the trailing idle span of a run (a drive that
/// goes quiet at the end still burns idle power until the run's end).
pub fn close_idle_span(modes: &mut ModeAccumulator, idle_since: SimTime, end: SimTime) {
    if end > idle_since {
        modes.add_span(DriveMode::Idle.key(), idle_since, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{IoKind, IoRequest, ServiceBreakdown};
    use simkit::SimDuration;

    fn done(rt_ms: f64, rot_ms: f64, seek_ms: f64, hit: bool) -> CompletedIo {
        let arrival = SimTime::from_millis(0.0);
        CompletedIo {
            request: IoRequest::new(0, arrival, 0, 8, IoKind::Read),
            completed: arrival + SimDuration::from_millis(rt_ms),
            breakdown: ServiceBreakdown {
                queue: SimDuration::ZERO,
                overhead: SimDuration::ZERO,
                seek: SimDuration::from_millis(seek_ms),
                rotational: SimDuration::from_millis(rot_ms),
                transfer: SimDuration::ZERO,
            },
            cache_hit: hit,
            actuator: 0,
        }
    }

    #[test]
    fn records_media_access() {
        let mut m = DriveMetrics::new(2);
        m.record(&done(12.0, 4.0, 6.0, false));
        assert_eq!(m.completed, 1);
        assert_eq!(m.media_accesses, 1);
        assert_eq!(m.nonzero_seeks, 1);
        assert_eq!(m.per_actuator, vec![1, 0]);
        assert_eq!(m.rotational_ms.count(), 1);
    }

    #[test]
    fn cache_hit_skips_mechanical_stats() {
        let mut m = DriveMetrics::new(1);
        m.record(&done(0.2, 0.0, 0.0, true));
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.media_accesses, 0);
        assert_eq!(m.rotational_ms.count(), 0);
        assert_eq!(m.response_time_ms.count(), 1);
    }

    #[test]
    fn nonzero_seek_fraction() {
        let mut m = DriveMetrics::new(1);
        m.record(&done(5.0, 1.0, 0.0, false));
        m.record(&done(5.0, 1.0, 2.0, false));
        assert!((m.nonzero_seek_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn power_breakdown_total_matches_weighted_sum() {
        let mut modes = ModeAccumulator::new();
        modes.add(DriveMode::Idle.key(), SimDuration::from_secs(6.0));
        modes.add(DriveMode::Seek.key(), SimDuration::from_secs(2.0));
        modes.add(DriveMode::RotationalWait.key(), SimDuration::from_secs(1.0));
        modes.add(DriveMode::Transfer.key(), SimDuration::from_secs(1.0));
        let pm = diskmodel::PowerModel::new(&diskmodel::presets::barracuda_es_750gb());
        let br = PowerBreakdown::from_modes(&modes, &pm);
        let manual = (pm.idle_w() * 6.0
            + pm.seek_w(1) * 2.0
            + pm.rotational_wait_w() * 1.0
            + pm.transfer_w() * 1.0)
            / 10.0;
        assert!((br.total_w() - manual).abs() < 1e-9);
        assert!(br.seek_w > 0.0 && br.idle_w > br.transfer_w);
    }

    #[test]
    fn close_idle_span_counts_tail() {
        let mut modes = ModeAccumulator::new();
        close_idle_span(
            &mut modes,
            SimTime::from_millis(5.0),
            SimTime::from_millis(9.0),
        );
        assert_eq!(
            modes.time_in(DriveMode::Idle.key()),
            SimDuration::from_millis(4.0)
        );
        // No-op when already past the end.
        close_idle_span(
            &mut modes,
            SimTime::from_millis(9.0),
            SimTime::from_millis(9.0),
        );
        assert_eq!(
            modes.time_in(DriveMode::Idle.key()),
            SimDuration::from_millis(4.0)
        );
    }

    #[test]
    fn streaming_view_tracks_summary_p90() {
        let mut m = DriveMetrics::new(1);
        for i in 0..500u64 {
            m.record(&done(1.0 + (i % 37) as f64 * 0.9, 1.0, 1.0, false));
        }
        m.finalize();
        let exact = m.response_time_ms.percentile(90.0);
        let stream = m.response_time_ms.percentile_stream(90.0);
        assert!(
            (stream - exact).abs() / exact <= m.response_time_ms.relative_error() + 1e-12,
            "stream {stream} vs exact {exact}"
        );
        assert_eq!(
            m.response_time_ms.stream().count(),
            m.response_time_ms.count() as u64
        );
    }

    #[test]
    fn streaming_mode_drops_samples_but_keeps_percentiles() {
        let mut m = DriveMetrics::with_mode(1, StatsMode::Streaming);
        for i in 0..200u64 {
            m.record(&done(1.0 + i as f64 * 0.1, 1.0, 1.0, false));
        }
        assert!(!m.response_time_ms.is_exact());
        assert_eq!(m.response_time_ms.count(), 200);
        let p90 = m.response_time_ms.percentile(90.0);
        assert!(p90 > 0.0 && p90 <= m.response_time_ms.max());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DriveMetrics::new(1);
        let mut b = DriveMetrics::new(1);
        a.record(&done(5.0, 1.0, 1.0, false));
        b.record(&done(7.0, 2.0, 0.0, false));
        a.merge(&b);
        assert_eq!(a.completed, 2);
        assert_eq!(a.media_accesses, 2);
        assert_eq!(a.response_hist.total(), 2);
        assert_eq!(a.response_time_ms.count(), 2);
        assert!(a.response_time_ms.is_exact());
        assert_eq!(a.response_time_ms.max(), 7.0);
    }
}
