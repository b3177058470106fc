//! `telemetry::metrics` — the deterministic, bounded-memory metrics
//! layer.
//!
//! Tracing ([`crate::recorder`]) answers "what happened, when" but
//! retains every event; this module answers "how is the run going" in
//! O(metrics) memory, with or without full tracing:
//!
//! * [`MetricsRegistry`] holds typed metrics — [`CounterId`] counters,
//!   [`GaugeId`] *time-weighted* gauges (queue depth, power mode,
//!   per-actuator busy), and [`HistogramId`] streaming histograms
//!   ([`simkit::StreamingHistogram`], optionally paired with a
//!   fixed-edge [`simkit::Histogram`] so the paper's exact Figure-5
//!   bucket counts survive) — and samples every gauge on a
//!   deterministic sim-time cadence into bounded time series.
//! * [`MetricsRecorder`] implements [`crate::Recorder`], deriving the
//!   standard drive/array metric set from the event stream the
//!   simulators already emit — the same instrumentation that feeds
//!   Perfetto traces feeds the registry, so attaching metrics costs
//!   nothing when off (the `NullRecorder` path is untouched).
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

use std::collections::BTreeMap;

use simkit::{Histogram, SimDuration, SimTime, StreamingHistogram};

/// Gauge sampling cadence (virtual time between snapshots) until a
/// series first fills up.
pub const CADENCE: SimDuration = SimDuration::from_nanos(100_000_000); // 100 ms

/// Cap on retained samples per gauge series. When a series fills up it
/// is decimated (every second sample dropped) and the effective
/// cadence doubles — deterministic, and memory stays bounded no matter
/// how long the run is.
pub const MAX_SERIES_SAMPLES: usize = 2_048;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered time-weighted gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered streaming histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Metric identity: name plus sorted `(key, value)` labels. Two
/// registrations with the same key return the same id.
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

#[derive(Debug, Clone)]
struct Counter {
    key: MetricKey,
    help: &'static str,
    value: u64,
}

#[derive(Debug, Clone)]
struct Gauge {
    key: MetricKey,
    help: &'static str,
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

    fn set(&mut self, t: SimTime, value: f64) {
        // Clamp non-monotone stamps (a component replaying planned
        // future events never goes backwards in practice; this keeps
        // the integral well-defined if one ever does).
        let t = t.max(self.last_change);
        self.sample_up_to(t);
        self.integral_vms += self.current * t.saturating_since(self.last_change).as_millis();
        self.current = value;
        self.last_change = t;
        if value > self.max {
            self.max = value;
        }
    }

    fn finalize(&mut self, end: SimTime) {
        let end = end.max(self.last_change);
        self.sample_up_to(end);
        self.integral_vms += self.current * end.saturating_since(self.last_change).as_millis();
        self.last_change = end;
    }
}

#[derive(Debug, Clone)]
struct HistogramMetric {
    key: MetricKey,
    help: &'static str,
    stream: StreamingHistogram,
    /// Optional exact fixed-edge view (the paper's CDF buckets).
    fixed: Option<Histogram>,
}

/// A deterministic registry of counters, time-weighted gauges, and
/// streaming histograms, sampled on a virtual-time cadence.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    // Grows only at metric registration (a fixed, setup-time vocabulary
    // of keys); recording into an existing metric never allocates. Same
    // for the five parallel tables below.
    counters: Vec<Counter>,
    // Registration-time only.
    gauges: Vec<Gauge>,
    // Registration-time only.
    hists: Vec<HistogramMetric>,
    // Registration-time only.
    counter_ids: BTreeMap<MetricKey, usize>,
    // Registration-time only.
    gauge_ids: BTreeMap<MetricKey, usize>,
    // Registration-time only.
    hist_ids: BTreeMap<MetricKey, usize>,
    end: SimTime,
}

impl MetricsRegistry {
    /// Creates an empty registry sampling gauges every [`CADENCE`] of
    /// virtual time.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            counter_ids: BTreeMap::new(),
            gauge_ids: BTreeMap::new(),
            hist_ids: BTreeMap::new(),
            end: SimTime::ZERO,
        }
    }

    /// Registers (or looks up) a counter.
    pub fn counter(&mut self, key: MetricKey, help: &'static str) -> CounterId {
        if let Some(&i) = self.counter_ids.get(&key) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counter_ids.insert(key.clone(), i);
        self.counters.push(Counter {
            key,
            help,
            value: 0,
        });
        CounterId(i)
    }

    /// Registers (or looks up) a time-weighted gauge. Gauges start at
    /// value 0 at `SimTime::ZERO`.
    pub fn gauge(&mut self, key: MetricKey, help: &'static str) -> GaugeId {
        if let Some(&i) = self.gauge_ids.get(&key) {
            return GaugeId(i);
        }
        let i = self.gauges.len();
        self.gauge_ids.insert(key.clone(), i);
        self.gauges.push(Gauge {
            key,
            help,
            current: 0.0,
            last_change: SimTime::ZERO,
            integral_vms: 0.0,
            max: 0.0,
            series: Vec::new(),
            next_sample: SimTime::ZERO,
            cadence: CADENCE,
        });
        GaugeId(i)
    }

    /// Registers (or looks up) a streaming histogram;
    /// `fixed_edges` additionally keeps an exact fixed-edge
    /// [`Histogram`] (e.g. the paper's response-time CDF buckets).
    pub fn histogram(
        &mut self,
        key: MetricKey,
        help: &'static str,
        fixed_edges: Option<&[f64]>,
    ) -> HistogramId {
        if let Some(&i) = self.hist_ids.get(&key) {
            return HistogramId(i);
        }
        let i = self.hists.len();
        self.hist_ids.insert(key.clone(), i);
        self.hists.push(HistogramMetric {
            key,
            help,
            stream: StreamingHistogram::new(),
            fixed: fixed_edges.map(Histogram::new),
        });
        HistogramId(i)
    }

    /// Increments a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].value += by;
    }

    /// Sets a gauge at virtual instant `t`, accumulating the
    /// time-weighted integral of the previous value and emitting any
    /// cadence samples due.
    pub fn set_gauge(&mut self, id: GaugeId, t: SimTime, value: f64) {
        self.gauges[id.0].set(t, value);
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        let h = &mut self.hists[id.0];
        h.stream.record(value);
        if let Some(fixed) = &mut h.fixed {
            fixed.record(value);
        }
    }

    /// Closes the run at `end`: extends every gauge integral and
    /// series to the end of the run. Idempotent for a fixed `end`.
    pub fn finalize(&mut self, end: SimTime) {
        self.end = self.end.max(end);
        for g in &mut self.gauges {
            g.finalize(end);
        }
    }

    /// Takes a deterministic snapshot: every metric, sorted by
    /// `(name, labels)`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .iter()
            .map(|c| CounterSnapshot {
                key: c.key.clone(),
                help: c.help,
                value: c.value,
            })
            .collect();
        counters.sort_by(|a, b| a.key.cmp(&b.key));

        let span_ms = self.end.saturating_since(SimTime::ZERO).as_millis();
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .iter()
            .map(|g| GaugeSnapshot {
                key: g.key.clone(),
                help: g.help,
                last: g.current,
                max: g.max,
                time_weighted_mean: if span_ms > 0.0 {
                    g.integral_vms / span_ms
                } else {
                    0.0
                },
                series: g.series.clone(),
            })
            .collect();
        gauges.sort_by(|a, b| a.key.cmp(&b.key));

        let mut histograms: Vec<HistogramSnapshot> = self
            .hists
            .iter()
            .map(|h| HistogramSnapshot {
                key: h.key.clone(),
                help: h.help,
                stream: h.stream.clone(),
                fixed: h.fixed.clone(),
            })
            .collect();
        histograms.sort_by(|a, b| a.key.cmp(&b.key));

        MetricsSnapshot {
            end: self.end,
            counters,
            gauges,
            histograms,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
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
    /// Exact fixed-edge histogram, when registered with edges.
    pub fixed: Option<Histogram>,
}

/// Everything a registry knew at snapshot time, in sorted order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// End of the observed run.
    pub end: SimTime,
    /// Counters sorted by key.
    // One-shot snapshot output, sized by the registered metric
    // vocabulary.
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
    fn counter_roundtrip_and_dedup() {
        let mut r = MetricsRegistry::new();
        let a = r.counter(key("requests"), "help");
        let b = r.counter(key("requests"), "help");
        assert_eq!(a, b);
        r.inc(a, 2);
        r.inc(b, 3);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.counters[0].value, 5);
    }

    #[test]
    fn gauge_time_weighted_mean_and_series() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge(key("depth"), "queue depth");
        // 0 until 100 ms, 4 until 300 ms, 1 until 400 ms.
        r.set_gauge(g, SimTime::from_millis(100.0), 4.0);
        r.set_gauge(g, SimTime::from_millis(300.0), 1.0);
        r.finalize(SimTime::from_millis(400.0));
        let s = r.snapshot();
        let gs = &s.gauges[0];
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
        let mut r = MetricsRegistry::new();
        let g = r.gauge(key("depth"), "queue depth");
        // One change per cadence step, for four series' worth of steps:
        // the series must decimate, doubling the cadence, at least twice.
        let step = CADENCE.as_millis();
        for i in 0..(MAX_SERIES_SAMPLES as u64 * 4) {
            r.set_gauge(g, SimTime::from_millis(i as f64 * step), (i % 7) as f64);
        }
        let s = r.snapshot();
        assert!(s.gauges[0].series.len() <= MAX_SERIES_SAMPLES + 1);
        // Samples stay strictly increasing in time after decimation.
        let ser = &s.gauges[0].series;
        assert!(ser.windows(2).all(|w| w[0].0 < w[1].0));
        let last_step = ser[ser.len() - 1].0.saturating_since(ser[ser.len() - 2].0);
        assert!(
            last_step.as_nanos() >= 4 * CADENCE.as_nanos(),
            "{last_step:?}"
        );
    }

    #[test]
    fn gauge_clamps_backwards_time() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge(key("depth"), "queue depth");
        r.set_gauge(g, SimTime::from_millis(5.0), 2.0);
        r.set_gauge(g, SimTime::from_millis(3.0), 7.0); // clamped to 5 ms
        r.finalize(SimTime::from_millis(10.0));
        let s = r.snapshot();
        // 0 for 5 ms, then 7 for 5 ms (the 2.0 held for zero time).
        assert!((s.gauges[0].time_weighted_mean - 3.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_observes_into_both_views() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram(key("rt_ms"), "response", Some(&[5.0, 10.0]));
        for v in [1.0, 7.0, 40.0] {
            r.observe(h, v);
        }
        let s = r.snapshot();
        let hs = &s.histograms[0];
        assert_eq!(hs.stream.count(), 3);
        assert_eq!(
            hs.fixed.as_ref().map(|f| f.counts().to_vec()),
            Some(vec![1, 1, 1])
        );
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let mut r = MetricsRegistry::new();
        r.counter(MetricKey::new("zeta", &[]), "z");
        r.counter(MetricKey::new("alpha", &[("scope", "1")]), "a");
        r.counter(MetricKey::new("alpha", &[("scope", "0")]), "a");
        let s = r.snapshot();
        let names: Vec<String> = s
            .counters
            .iter()
            .map(|c| format!("{}{:?}", c.key.name, c.key.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(r.snapshot(), s);
    }
}
