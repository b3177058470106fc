//! [`MetricsRecorder`] — a [`Recorder`] that runs the [`EventFold`]
//! online and reduces each event into metrics, in O(metrics) memory.
//!
//! The simulators are already instrumented for tracing; this recorder
//! reuses that instrumentation verbatim. Where a [`RingRecorder`]
//! retains events, `MetricsRecorder` folds each one immediately and
//! forgets it. Each scope has a fixed metric set; the fold's counts
//! become its counters at [`MetricsRecorder::finish`], and what each
//! event closes feeds its gauges and histograms:
//!
//! | the fold reports (event)                     | effect                               |
//! |----------------------------------------------|--------------------------------------|
//! | a queue depth (`RequestQueued`/`Dispatched`) | `queue_depth` gauge                  |
//! | a seek (`SeekEnd`)                           | `seek_time_ms` hist, busy time       |
//! | a rotational wait (`RotWait`)                | `rot_wait_ms` hist, busy time        |
//! | a transfer (`Transfer`)                      | `transfer_ms` hist, busy time        |
//! | a response time (`Complete`)                 | `response_time_ms` hist              |
//! | a mode change (`PowerModeChange`)            | `power_mode` gauge (mode index)      |
//!
//! The `*_total` counters are the fold's per-scope counts. Busy time
//! is `actuator_busy_ms`, one gauge per actuator holding a running sum
//! of per-phase milliseconds, set at each phase's end. Transient state
//! is the fold's: requests in flight and one open seek per actuator.
//! Events arrive in *emission* order, which the drive's plan-ahead
//! dispatch makes non-monotone in timestamps; gauges clamp backwards
//! stamps so the time-weighted integrals stay well-defined regardless.
//!
//! [`RingRecorder`]: crate::RingRecorder

use std::collections::BTreeMap;

use simkit::{Histogram, SimTime};

use crate::event::{PowerMode, TraceEvent};
use crate::fold::{Closed, EventFold};
use crate::recorder::Recorder;

use super::{CounterSnapshot, Gauge, Hist, MetricKey, MetricsSnapshot};

/// `(name, help)` of each scope's counters: submitted, completed, cache
/// hits, cache misses, seeks.
const COUNTERS: [(&str, &str); 5] = [
    (
        "requests_submitted_total",
        "Requests entering the storage system",
    ),
    ("requests_completed_total", "Requests completed"),
    ("cache_hits_total", "Reads served from the on-board cache"),
    ("cache_misses_total", "Reads that went to the media"),
    ("seeks_total", "Arm assembly movements"),
];
/// Each scope's gauges: queue depth, power mode.
const GAUGES: [(&str, &str); 2] = [
    ("queue_depth", "Pending requests (time-weighted)"),
    (
        "power_mode",
        "Operating mode index (0 idle, 1 seek, 2 rot_wait, 3 transfer)",
    ),
];
/// The per-actuator busy-time gauge.
const BUSY: (&str, &str) = (
    "actuator_busy_ms",
    "Cumulative busy time per arm assembly (ms)",
);
/// Each scope's histograms: response, seek, rotational wait, transfer.
const HISTOGRAMS: [(&str, &str); 4] = [
    ("response_time_ms", "Submit-to-complete latency (ms)"),
    ("seek_time_ms", "Seek duration (ms)"),
    ("rot_wait_ms", "Rotational (and shared-channel) wait (ms)"),
    ("transfer_ms", "Media/cache-bus transfer time (ms)"),
];

/// One scope's gauges and histograms, created on the first event the
/// scope emits. Its counters live in the fold.
#[derive(Debug, Clone)]
struct ScopeMetrics {
    queue_depth: Gauge,
    power_mode: Gauge,
    // Keyed by actuator id (fixed hardware topology); each gauge's value
    // is the actuator's running busy milliseconds.
    busy: BTreeMap<u32, Gauge>,
    response: Hist,
    seek_ms: Hist,
    rot_wait_ms: Hist,
    transfer_ms: Hist,
}

impl ScopeMetrics {
    fn new() -> Self {
        ScopeMetrics {
            queue_depth: Gauge::new(),
            power_mode: Gauge::new(),
            busy: BTreeMap::new(),
            response: Hist::new(Some(Histogram::paper_response_time_edges())),
            seek_ms: Hist::new(None),
            rot_wait_ms: Hist::new(None),
            transfer_ms: Hist::new(None),
        }
    }
}

/// A recorder that folds trace events into metrics online.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    fold: EventFold,
    // Same keys as the fold's scopes: both gain a scope on its first
    // event.
    scopes: BTreeMap<u32, ScopeMetrics>,
    /// Latest timestamp seen anywhere (phase ends included): the
    /// natural end-of-run instant for [`MetricsRecorder::finish`].
    end: SimTime,
}

impl MetricsRecorder {
    /// Creates a recorder that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests submitted but not yet completed (should be 0 after a
    /// drained run).
    pub fn in_flight(&self) -> usize {
        self.fold.in_flight()
    }

    /// Finalizes gauge integrals at the latest observed instant and
    /// snapshots every metric, sorted by `(name, labels)`.
    pub fn finish(&mut self) -> MetricsSnapshot {
        let end = self.end;
        let mut snap = MetricsSnapshot {
            end,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        for ((&scope, f), m) in self.fold.scopes().iter().zip(self.scopes.values_mut()) {
            let s = scope.to_string();
            let key = |name: &str| MetricKey::new(name, &[("scope", s.as_str())]);
            let counts = [
                f.submitted,
                f.completed,
                f.cache_hits,
                f.cache_misses,
                f.seeks,
            ];
            for ((name, help), value) in COUNTERS.into_iter().zip(counts) {
                let key = key(name);
                snap.counters.push(CounterSnapshot { key, help, value });
            }
            for ((name, help), g) in GAUGES
                .into_iter()
                .zip([&mut m.queue_depth, &mut m.power_mode])
            {
                g.finalize(end);
                snap.gauges.push(g.snapshot(key(name), help, end));
            }
            for (a, g) in &mut m.busy {
                g.finalize(end);
                let a = a.to_string();
                let key =
                    MetricKey::new(BUSY.0, &[("scope", s.as_str()), ("actuator", a.as_str())]);
                snap.gauges.push(g.snapshot(key, BUSY.1, end));
            }
            let hists = [&m.response, &m.seek_ms, &m.rot_wait_ms, &m.transfer_ms];
            for ((name, help), h) in HISTOGRAMS.into_iter().zip(hists) {
                snap.histograms.push(h.snapshot(key(name), help));
            }
        }
        snap.counters.sort_by(|a, b| a.key.cmp(&b.key));
        snap.gauges.sort_by(|a, b| a.key.cmp(&b.key));
        snap.histograms.sort_by(|a, b| a.key.cmp(&b.key));
        snap
    }
}

impl Recorder for MetricsRecorder {
    const ENABLED: bool = true;

    fn record_scoped(&mut self, scope: u32, time: SimTime, event: TraceEvent) {
        self.end = self.end.max(time);
        let m = self.scopes.entry(scope).or_insert_with(ScopeMetrics::new);
        match self.fold.apply(scope, time, &event) {
            Closed::Depth(depth) => m.queue_depth.set(time, f64::from(depth)),
            Closed::Mode(mode) => m.power_mode.set(time, mode.index() as f64),
            Closed::Busy {
                mode,
                actuator,
                dur,
                end,
                ..
            } => {
                let ms = dur.as_millis();
                let hist = match mode {
                    PowerMode::Seek => &mut m.seek_ms,
                    PowerMode::RotationalWait => &mut m.rot_wait_ms,
                    // The fold reports no idle phase.
                    PowerMode::Transfer | PowerMode::Idle => &mut m.transfer_ms,
                };
                hist.observe(ms);
                self.end = self.end.max(end);
                let g = m.busy.entry(actuator).or_insert_with(Gauge::new);
                g.set(end, g.current + ms);
            }
            Closed::Response(rt) => m.response.observe(rt.as_millis()),
            Closed::Nothing | Closed::Unpaired => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IoOp, PowerMode};
    use simkit::SimDuration;

    fn t(ms: f64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn run_tiny(rec: &mut MetricsRecorder) {
        rec.record(
            t(0.0),
            TraceEvent::RequestSubmitted {
                req: 0,
                lba: 100,
                sectors: 8,
                op: IoOp::Read,
            },
        );
        rec.record(t(0.0), TraceEvent::CacheMiss { req: 0 });
        rec.record(
            t(0.0),
            TraceEvent::Dispatched {
                req: 0,
                actuator: 1,
                depth: 0,
            },
        );
        rec.record(
            t(0.0),
            TraceEvent::PowerModeChange {
                mode: PowerMode::Seek,
            },
        );
        rec.record(
            t(0.0),
            TraceEvent::SeekStart {
                req: 0,
                actuator: 1,
                from_cylinder: 0,
                to_cylinder: 5,
            },
        );
        rec.record(
            t(2.0),
            TraceEvent::SeekEnd {
                req: 0,
                actuator: 1,
            },
        );
        rec.record(
            t(2.0),
            TraceEvent::RotWait {
                req: 0,
                actuator: 1,
                dur: SimDuration::from_millis(3.0),
            },
        );
        rec.record(
            t(5.0),
            TraceEvent::Transfer {
                req: 0,
                actuator: 1,
                dur: SimDuration::from_millis(1.0),
            },
        );
        rec.record(t(6.0), TraceEvent::Complete { req: 0 });
        rec.record(
            t(6.0),
            TraceEvent::PowerModeChange {
                mode: PowerMode::Idle,
            },
        );
    }

    #[test]
    fn derives_standard_metric_set() {
        let mut rec = MetricsRecorder::new();
        run_tiny(&mut rec);
        assert_eq!(rec.in_flight(), 0);
        let snap = rec.finish();

        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.key.name == name)
                .map(|c| c.value)
        };
        assert_eq!(counter("requests_submitted_total"), Some(1));
        assert_eq!(counter("requests_completed_total"), Some(1));
        assert_eq!(counter("cache_misses_total"), Some(1));
        assert_eq!(counter("seeks_total"), Some(1));

        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.key.name == name)
                .map(|h| &h.stream)
        };
        let rt = hist("response_time_ms").unwrap();
        assert_eq!(rt.count(), 1);
        assert!((rt.max() - 6.0).abs() < 0.1);
        assert_eq!(hist("seek_time_ms").unwrap().count(), 1);
        assert_eq!(hist("rot_wait_ms").unwrap().count(), 1);
        assert_eq!(hist("transfer_ms").unwrap().count(), 1);

        let busy = snap
            .gauges
            .iter()
            .find(|g| g.key.name == "actuator_busy_ms")
            .unwrap();
        assert_eq!(
            busy.key.labels,
            vec![
                ("actuator".to_string(), "1".to_string()),
                ("scope".to_string(), "0".to_string())
            ]
        );
        // 2 ms seek + 3 ms rotation + 1 ms transfer.
        assert!((busy.last - 6.0).abs() < 1e-9);
    }

    #[test]
    fn response_hist_carries_paper_edges() {
        let mut rec = MetricsRecorder::new();
        run_tiny(&mut rec);
        let snap = rec.finish();
        let rt = snap
            .histograms
            .iter()
            .find(|h| h.key.name == "response_time_ms")
            .unwrap();
        let fixed = rt.fixed.as_ref().unwrap();
        assert_eq!(fixed.edges(), Histogram::paper_response_time_edges());
        // The 6 ms response lands in the (5, 10] bucket.
        assert_eq!(fixed.counts()[1], 1);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let mut a = MetricsRecorder::new();
        let mut b = MetricsRecorder::new();
        run_tiny(&mut a);
        run_tiny(&mut b);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn scopes_get_independent_metrics() {
        let mut rec = MetricsRecorder::new();
        for scope in [0u32, 1, 2] {
            rec.record_scoped(
                scope,
                t(0.0),
                TraceEvent::RequestSubmitted {
                    req: 0,
                    lba: 0,
                    sectors: 1,
                    op: IoOp::Write,
                },
            );
        }
        let snap = rec.finish();
        let submitted: Vec<_> = snap
            .counters
            .iter()
            .filter(|c| c.key.name == "requests_submitted_total")
            .collect();
        assert_eq!(submitted.len(), 3);
        assert!(submitted.iter().all(|c| c.value == 1));
    }
}
