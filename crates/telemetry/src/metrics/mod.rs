//! `telemetry::metrics` — the deterministic, bounded-memory metrics
//! layer.
//!
//! Tracing ([`crate::recorder`]) answers "what happened, when" but
//! retains every event; this module answers "how is the run going" in
//! O(metrics) memory, with or without full tracing:
//!
//! * [`MetricsRecorder`] implements [`crate::Recorder`]: it runs the
//!   [`crate::EventFold`] online and reduces what each event closes into
//!   a fixed per-scope metric set — counters read from the fold,
//!   *time-weighted* gauges (queue depth, power mode, per-actuator busy
//!   time) sampled on a deterministic sim-time cadence into bounded
//!   series, and streaming histograms ([`simkit::StreamingHistogram`],
//!   with a fixed-edge [`simkit::Histogram`] beside the response-time
//!   one so the paper's exact Figure-5 bucket counts survive). The
//!   instrumentation that feeds Perfetto traces feeds the metrics, so
//!   attaching them costs nothing when off (the `NullRecorder` path is
//!   untouched).
//! * [`export`] renders a [`MetricsSnapshot`] as Prometheus text
//!   exposition or stable JSON — both built by deterministic string
//!   assembly, byte-identical across runs, hosts, and `--jobs` values.
//! * [`report`] renders snapshots as a single self-contained HTML
//!   dashboard (inline SVG, no external assets, no JavaScript).
//! * [`jsonv`] is the minimal JSON reader `repro report` uses to load
//!   exported snapshots back.
//!
//! Everything is keyed and iterated in sorted order (`BTreeMap`), and
//! every timestamp is virtual — the layer inherits the simulator's
//! determinism contract wholesale.

pub mod export;
pub mod jsonv;
pub mod recorder;
pub mod report;

pub use recorder::MetricsRecorder;

use simkit::{Histogram, SimDuration, SimTime, StreamingHistogram};

/// Gauge sampling cadence (virtual time between snapshots) until a
/// series first fills up.
pub const CADENCE: SimDuration = SimDuration::from_nanos(100_000_000); // 100 ms

/// Cap on retained samples per gauge series. When a series fills up it
/// is decimated (every second sample dropped) and the effective
/// cadence doubles — deterministic, and memory stays bounded no matter
/// how long the run is.
pub const MAX_SERIES_SAMPLES: usize = 2_048;

/// Metric identity: name plus sorted `(key, value)` labels; snapshots
/// are ordered by it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric family name (Prometheus-style snake case).
    pub name: String,
    /// Sorted label pairs (e.g. `scope="0"`, `actuator="2"`).
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels so identity is canonical.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A time-weighted gauge: starts at 0 at `SimTime::ZERO`, integrates
/// its value over virtual time, and samples itself every [`CADENCE`]
/// into a bounded series.
#[derive(Debug, Clone)]
struct Gauge {
    current: f64,
    last_change: SimTime,
    /// ∫ value dt in value·milliseconds, for the time-weighted mean.
    integral_vms: f64,
    max: f64,
    series: Vec<(SimTime, f64)>,
    next_sample: SimTime,
    cadence: SimDuration,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            current: 0.0,
            last_change: SimTime::ZERO,
            integral_vms: 0.0,
            max: 0.0,
            series: Vec::new(),
            next_sample: SimTime::ZERO,
            cadence: CADENCE,
        }
    }

    /// Emits cadence samples of the *current* value for every boundary
    /// at or before `t` (left-continuous sampling), decimating when
    /// the series hits its cap.
    fn sample_up_to(&mut self, t: SimTime) {
        while self.next_sample <= t {
            if self.series.len() >= MAX_SERIES_SAMPLES {
                let mut keep = 0usize;
                self.series.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                self.cadence = self.cadence + self.cadence;
                // Re-align the next boundary to the coarser cadence.
                let ns = self.next_sample.as_nanos();
                let step = self.cadence.as_nanos().max(1);
                let aligned = ns.div_ceil(step) * step;
                self.next_sample = SimTime::from_nanos(aligned);
                continue;
            }
            self.series.push((self.next_sample, self.current));
            self.next_sample += self.cadence;
        }
    }

    /// Sets the gauge at virtual instant `t`, accumulating the
    /// time-weighted integral of the previous value and emitting any
    /// cadence samples due.
    fn set(&mut self, t: SimTime, value: f64) {
        // Clamp non-monotone stamps: events arrive in emission order,
        // which the drive's plan-ahead dispatch makes non-monotone, and
        // the integral must stay well-defined regardless.
        let t = t.max(self.last_change);
        self.sample_up_to(t);
        self.integral_vms += self.current * t.saturating_since(self.last_change).as_millis();
        self.current = value;
        self.last_change = t;
        if value > self.max {
            self.max = value;
        }
    }

    /// Extends the integral and the series to `end`. Idempotent for a
    /// fixed `end`.
    fn finalize(&mut self, end: SimTime) {
        let end = end.max(self.last_change);
        self.sample_up_to(end);
        self.integral_vms += self.current * end.saturating_since(self.last_change).as_millis();
        self.last_change = end;
    }

    /// The frozen state, with the mean taken over `[0, end]`.
    fn snapshot(&self, key: MetricKey, help: &'static str, end: SimTime) -> GaugeSnapshot {
        let span_ms = end.saturating_since(SimTime::ZERO).as_millis();
        GaugeSnapshot {
            key,
            help,
            last: self.current,
            max: self.max,
            time_weighted_mean: if span_ms > 0.0 {
                self.integral_vms / span_ms
            } else {
                0.0
            },
            series: self.series.clone(),
        }
    }
}

/// A streaming histogram, optionally paired with an exact fixed-edge
/// view (e.g. the paper's response-time CDF buckets).
#[derive(Debug, Clone)]
struct Hist {
    stream: StreamingHistogram,
    fixed: Option<Histogram>,
}

impl Hist {
    fn new(fixed_edges: Option<&[f64]>) -> Self {
        Hist {
            stream: StreamingHistogram::new(),
            fixed: fixed_edges.map(Histogram::new),
        }
    }

    fn observe(&mut self, value: f64) {
        self.stream.record(value);
        if let Some(fixed) = &mut self.fixed {
            fixed.record(value);
        }
    }

    fn snapshot(&self, key: MetricKey, help: &'static str) -> HistogramSnapshot {
        HistogramSnapshot {
            key,
            help,
            stream: self.stream.clone(),
            fixed: self.fixed.clone(),
        }
    }
}

/// A counter's frozen state.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Identity.
    pub key: MetricKey,
    /// One-line help text.
    pub help: &'static str,
    /// Final count.
    pub value: u64,
}

/// A gauge's frozen state: final value, extremes, time-weighted mean,
/// and the sampled time series.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Identity.
    pub key: MetricKey,
    /// One-line help text.
    pub help: &'static str,
    /// Value at the end of the run.
    pub last: f64,
    /// Largest value ever set.
    pub max: f64,
    /// ∫ value dt / run span.
    pub time_weighted_mean: f64,
    /// Cadence samples `(instant, value)` (left-continuous).
    pub series: Vec<(SimTime, f64)>,
}

/// A histogram's frozen state: the streaming view plus the optional
/// exact fixed-edge view.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Identity.
    pub key: MetricKey,
    /// One-line help text.
    pub help: &'static str,
    /// Bounded-memory log-bucketed histogram.
    pub stream: StreamingHistogram,
    /// Exact fixed-edge histogram, when the metric keeps one.
    pub fixed: Option<Histogram>,
}

/// Every metric at snapshot time, in sorted order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// End of the observed run.
    pub end: SimTime,
    /// Counters sorted by key.
    // One-shot snapshot output, sized by the fixed per-scope metric
    // set.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges sorted by key.
    // One-shot snapshot output.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms sorted by key.
    pub histograms: Vec<HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str) -> MetricKey {
        MetricKey::new(name, &[("scope", "0")])
    }

    #[test]
    fn gauge_time_weighted_mean_and_series() {
        let mut g = Gauge::new();
        // 0 until 100 ms, 4 until 300 ms, 1 until 400 ms.
        g.set(SimTime::from_millis(100.0), 4.0);
        g.set(SimTime::from_millis(300.0), 1.0);
        let end = SimTime::from_millis(400.0);
        g.finalize(end);
        let gs = g.snapshot(key("depth"), "queue depth", end);
        // (0·100 + 4·200 + 1·100) / 400 = 2.25
        assert!((gs.time_weighted_mean - 2.25).abs() < 1e-12);
        assert_eq!(gs.max, 4.0);
        assert_eq!(gs.last, 1.0);
        // Left-continuous samples at 0,100,200,300,400 ms, one per
        // CADENCE.
        let vals: Vec<f64> = gs.series.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0.0, 0.0, 4.0, 4.0, 1.0]);
    }

    #[test]
    fn gauge_series_is_bounded_by_decimation() {
        let mut g = Gauge::new();
        // One change per cadence step, for four series' worth of steps:
        // the series must decimate, doubling the cadence, at least twice.
        let step = CADENCE.as_millis();
        for i in 0..(MAX_SERIES_SAMPLES as u64 * 4) {
            g.set(SimTime::from_millis(i as f64 * step), (i % 7) as f64);
        }
        let gs = g.snapshot(key("depth"), "queue depth", SimTime::ZERO);
        assert!(gs.series.len() <= MAX_SERIES_SAMPLES + 1);
        // Samples stay strictly increasing in time after decimation.
        let ser = &gs.series;
        assert!(ser.windows(2).all(|w| w[0].0 < w[1].0));
        let last_step = ser[ser.len() - 1].0.saturating_since(ser[ser.len() - 2].0);
        assert!(
            last_step.as_nanos() >= 4 * CADENCE.as_nanos(),
            "{last_step:?}"
        );
    }

    #[test]
    fn gauge_clamps_backwards_time() {
        let mut g = Gauge::new();
        g.set(SimTime::from_millis(5.0), 2.0);
        g.set(SimTime::from_millis(3.0), 7.0); // clamped to 5 ms
        let end = SimTime::from_millis(10.0);
        g.finalize(end);
        let gs = g.snapshot(key("depth"), "queue depth", end);
        // 0 for 5 ms, then 7 for 5 ms (the 2.0 held for zero time).
        assert!((gs.time_weighted_mean - 3.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_observes_into_both_views() {
        let mut h = Hist::new(Some(&[5.0, 10.0]));
        for v in [1.0, 7.0, 40.0] {
            h.observe(v);
        }
        let hs = h.snapshot(key("rt_ms"), "response");
        assert_eq!(hs.stream.count(), 3);
        assert_eq!(
            hs.fixed.as_ref().map(|f| f.counts().to_vec()),
            Some(vec![1, 1, 1])
        );
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        use crate::event::TraceEvent;
        use crate::recorder::Recorder;

        let mut r = MetricsRecorder::new();
        // Scope ids whose string order differs from numeric order.
        for scope in [10u32, 2, 0, 1] {
            let actuator = scope % 3;
            r.record_scoped(
                scope,
                SimTime::from_millis(1.0),
                TraceEvent::Transfer {
                    req: 0,
                    actuator,
                    dur: SimDuration::from_millis(1.0),
                },
            );
        }
        let s = r.finish();
        let ids = |keys: Vec<&MetricKey>| -> Vec<String> {
            keys.iter()
                .map(|k| format!("{}{:?}", k.name, k.labels))
                .collect()
        };
        for names in [
            ids(s.counters.iter().map(|c| &c.key).collect()),
            ids(s.gauges.iter().map(|g| &g.key).collect()),
            ids(s.histograms.iter().map(|h| &h.key).collect()),
        ] {
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(names, sorted);
        }
        assert_eq!(s.counters.len(), 4 * 5);
        assert_eq!(r.finish(), s);
    }
}
