//! [`MetricsRecorder`] — a [`Recorder`] that folds the event stream
//! into a [`MetricsRegistry`] online, in O(metrics) memory.
//!
//! The simulators are already instrumented for tracing; this recorder
//! reuses that instrumentation verbatim. Where a [`RingRecorder`]
//! retains events, `MetricsRecorder` reduces each one into the
//! standard drive/array metric set immediately and forgets it:
//!
//! | event                    | effect                                         |
//! |--------------------------|------------------------------------------------|
//! | `RequestSubmitted`       | `requests_submitted_total`; request in flight  |
//! | `RequestQueued`/`Dispatched` | `queue_depth` gauge                        |
//! | `SeekStart`/`SeekEnd`    | `seeks_total`, `seek_time_ms` hist, busy time  |
//! | `RotWait`                | `rot_wait_ms` hist, busy time                  |
//! | `Transfer`               | `transfer_ms` hist, busy time                  |
//! | `CacheHit`/`CacheMiss`   | `cache_hits_total` / `cache_misses_total`      |
//! | `Complete`               | `requests_completed_total`, `response_time_ms` |
//! | `PowerModeChange`        | `power_mode` gauge (mode index)                |
//!
//! Transient state is bounded by the simulator itself: the in-flight
//! map never exceeds the queue depth plus outstanding services, and
//! the per-actuator seek map never exceeds the actuator count.
//!
//! Events arrive in *emission* order, which the drive's plan-ahead
//! dispatch makes non-monotone in timestamps; gauges clamp backwards
//! stamps (see [`MetricsRegistry::set_gauge`]) so the time-weighted
//! integrals stay well-defined regardless.
//!
//! [`RingRecorder`]: crate::RingRecorder

use std::collections::BTreeMap;

use simkit::{Histogram, SimTime};

use crate::event::TraceEvent;
use crate::recorder::Recorder;

use super::{CounterId, GaugeId, HistogramId, MetricKey, MetricsRegistry, MetricsSnapshot};

/// Per-scope metric handles, registered lazily on the first event a
/// scope emits.
#[derive(Debug, Clone, Copy)]
struct ScopeIds {
    submitted: CounterId,
    completed: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    seeks: CounterId,
    queue_depth: GaugeId,
    power_mode: GaugeId,
    response: HistogramId,
    seek_ms: HistogramId,
    rot_wait_ms: HistogramId,
    transfer_ms: HistogramId,
}

/// A recorder that folds trace events into metrics online.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    registry: MetricsRegistry,
    scopes: BTreeMap<u32, ScopeIds>,
    /// `(scope, req)` → submission instant, for response times.
    inflight: BTreeMap<(u32, u64), SimTime>,
    /// `(scope, actuator)` → seek start instant, for seek durations.
    seeking: BTreeMap<(u32, u32), SimTime>,
    /// `(scope, actuator)` → (cumulative busy ms, gauge id).
    // Keyed by hardware topology (scope × actuator), a fixed set for
    // any configured rig.
    busy: BTreeMap<(u32, u32), (f64, GaugeId)>,
    /// Latest timestamp seen anywhere (future-stamped events included):
    /// the natural end-of-run instant for [`MetricsRecorder::finish`].
    end: SimTime,
}

impl MetricsRecorder {
    /// Creates a recorder around an empty registry.
    pub fn new() -> Self {
        MetricsRecorder {
            registry: MetricsRegistry::new(),
            scopes: BTreeMap::new(),
            inflight: BTreeMap::new(),
            seeking: BTreeMap::new(),
            busy: BTreeMap::new(),
            end: SimTime::ZERO,
        }
    }

    /// Latest virtual instant observed on any event.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Requests submitted but not yet completed (should be 0 after a
    /// drained run).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Finalizes gauge integrals at the latest observed instant and
    /// snapshots every metric.
    pub fn finish(&mut self) -> MetricsSnapshot {
        let end = self.end;
        self.registry.finalize(end);
        self.registry.snapshot()
    }

    fn scope_ids(&mut self, scope: u32) -> ScopeIds {
        if let Some(&ids) = self.scopes.get(&scope) {
            return ids;
        }
        let s = scope.to_string();
        let labels = [("scope", s.as_str())];
        let r = &mut self.registry;
        let ids = ScopeIds {
            submitted: r.counter(
                MetricKey::new("requests_submitted_total", &labels),
                "Requests entering the storage system",
            ),
            completed: r.counter(
                MetricKey::new("requests_completed_total", &labels),
                "Requests completed",
            ),
            cache_hits: r.counter(
                MetricKey::new("cache_hits_total", &labels),
                "Reads served from the on-board cache",
            ),
            cache_misses: r.counter(
                MetricKey::new("cache_misses_total", &labels),
                "Reads that went to the media",
            ),
            seeks: r.counter(
                MetricKey::new("seeks_total", &labels),
                "Arm assembly movements",
            ),
            queue_depth: r.gauge(
                MetricKey::new("queue_depth", &labels),
                "Pending requests (time-weighted)",
            ),
            power_mode: r.gauge(
                MetricKey::new("power_mode", &labels),
                "Operating mode index (0 idle, 1 seek, 2 rot_wait, 3 transfer)",
            ),
            response: r.histogram(
                MetricKey::new("response_time_ms", &labels),
                "Submit-to-complete latency (ms)",
                Some(Histogram::paper_response_time_edges()),
            ),
            seek_ms: r.histogram(
                MetricKey::new("seek_time_ms", &labels),
                "Seek duration (ms)",
                None,
            ),
            rot_wait_ms: r.histogram(
                MetricKey::new("rot_wait_ms", &labels),
                "Rotational (and shared-channel) wait (ms)",
                None,
            ),
            transfer_ms: r.histogram(
                MetricKey::new("transfer_ms", &labels),
                "Media/cache-bus transfer time (ms)",
                None,
            ),
        };
        self.scopes.insert(scope, ids);
        ids
    }

    fn add_busy(&mut self, scope: u32, actuator: u32, at: SimTime, dur_ms: f64) {
        let gauge = match self.busy.get(&(scope, actuator)) {
            Some(&(_, g)) => g,
            None => {
                let s = scope.to_string();
                let a = actuator.to_string();
                self.registry.gauge(
                    MetricKey::new(
                        "actuator_busy_ms",
                        &[("scope", s.as_str()), ("actuator", a.as_str())],
                    ),
                    "Cumulative busy time per arm assembly (ms)",
                )
            }
        };
        let entry = self.busy.entry((scope, actuator)).or_insert((0.0, gauge));
        entry.0 += dur_ms;
        let total_ms = entry.0;
        self.registry.set_gauge(gauge, at, total_ms);
    }
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for MetricsRecorder {
    const ENABLED: bool = true;

    fn record_scoped(&mut self, scope: u32, time: SimTime, event: TraceEvent) {
        self.end = self.end.max(time);
        let ids = self.scope_ids(scope);
        match event {
            TraceEvent::RequestSubmitted { req, .. } => {
                self.registry.inc(ids.submitted, 1);
                self.inflight.insert((scope, req), time);
            }
            TraceEvent::RequestQueued { depth, .. } => {
                self.registry
                    .set_gauge(ids.queue_depth, time, f64::from(depth));
            }
            TraceEvent::Dispatched { depth, .. } => {
                self.registry
                    .set_gauge(ids.queue_depth, time, f64::from(depth));
            }
            TraceEvent::SeekStart { actuator, .. } => {
                self.registry.inc(ids.seeks, 1);
                self.seeking.insert((scope, actuator), time);
            }
            TraceEvent::SeekEnd { actuator, .. } => {
                if let Some(start) = self.seeking.remove(&(scope, actuator)) {
                    let dur_ms = time.saturating_since(start).as_millis();
                    self.registry.observe(ids.seek_ms, dur_ms);
                    self.add_busy(scope, actuator, time, dur_ms);
                }
            }
            TraceEvent::RotWait { actuator, dur, .. } => {
                let dur_ms = dur.as_millis();
                self.registry.observe(ids.rot_wait_ms, dur_ms);
                self.end = self.end.max(time + dur);
                self.add_busy(scope, actuator, time + dur, dur_ms);
            }
            TraceEvent::Transfer { actuator, dur, .. } => {
                let dur_ms = dur.as_millis();
                self.registry.observe(ids.transfer_ms, dur_ms);
                self.end = self.end.max(time + dur);
                self.add_busy(scope, actuator, time + dur, dur_ms);
            }
            TraceEvent::CacheHit { .. } => {
                self.registry.inc(ids.cache_hits, 1);
            }
            TraceEvent::CacheMiss { .. } => {
                self.registry.inc(ids.cache_misses, 1);
            }
            TraceEvent::Complete { req } => {
                self.registry.inc(ids.completed, 1);
                if let Some(submitted) = self.inflight.remove(&(scope, req)) {
                    let rt_ms = time.saturating_since(submitted).as_millis();
                    self.registry.observe(ids.response, rt_ms);
                }
            }
            TraceEvent::PowerModeChange { mode } => {
                let idx = mode.index();
                self.registry.set_gauge(ids.power_mode, time, idx as f64);
            }
            TraceEvent::ActuatorIdle { .. } => {}
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
