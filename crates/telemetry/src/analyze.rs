//! Post-hoc trace analysis.
//!
//! Reconstructs, purely from the event stream, the quantities the
//! paper's figures are built from: per-actuator utilization, queue-depth
//! percentiles, and power-mode time-in-mode (and thus energy). It is
//! the [`EventFold`] run over a `(time, seq)`-sorted trace, plus the
//! queue-depth timeline the fold's `Depth` reports trace out. The
//! point of recomputing them here is cross-checking — `tests/oracles.rs`
//! asserts the telemetry view agrees with the independently accumulated
//! `DriveMetrics`/power-model aggregates, so the trace cannot silently
//! drift from the numbers the figures report.

use std::collections::BTreeMap;

use simkit::{SimDuration, SimTime};

use crate::event::{in_canonical_order, PowerMode, Sample};
use crate::fold::{ActuatorTimeline, Closed, EventFold};
use crate::recorder::RingRecorder;

/// Per-mode power levels in watts, decoupled from the disk model so the
/// analyzer stays dependency-free (callers derive one from
/// `diskmodel::PowerModel`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModePowers {
    /// Power while idle (spindle only).
    pub idle_w: f64,
    /// Power while seeking (one VCM active).
    pub seek_w: f64,
    /// Power during rotational wait.
    pub rotational_w: f64,
    /// Power during data transfer.
    pub transfer_w: f64,
}

impl ModePowers {
    /// Power level for `mode`.
    pub fn power(&self, mode: PowerMode) -> f64 {
        match mode {
            PowerMode::Idle => self.idle_w,
            PowerMode::Seek => self.seek_w,
            PowerMode::RotationalWait => self.rotational_w,
            PowerMode::Transfer => self.transfer_w,
        }
    }
}

/// Time-weighted queue-depth statistics over one scope's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueDepthStats {
    /// Largest depth observed.
    pub max: u32,
    /// Time-weighted 50th percentile.
    pub p50: u32,
    /// Time-weighted 90th percentile.
    pub p90: u32,
    /// Time-weighted 99th percentile.
    pub p99: u32,
    /// Total time the depth timeline covers.
    pub observed: SimDuration,
}

/// Everything reconstructed for one scope (one drive, or one member
/// disk of an array).
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeAnalysis {
    /// The scope id (0 = top level, `1 + i` = member disk `i`).
    pub scope: u32,
    /// Requests submitted in this scope.
    pub submitted: u64,
    /// Requests completed in this scope.
    pub completed: u64,
    /// Reads served from cache.
    pub cache_hits: u64,
    /// Reads that went to the media.
    pub cache_misses: u64,
    /// Run span (origin to the latest event anywhere in the trace).
    pub span: SimDuration,
    /// Per-actuator activity, keyed by actuator id.
    pub actuators: BTreeMap<u32, ActuatorTimeline>,
    /// Queue-depth statistics.
    pub queue_depth: QueueDepthStats,
    /// Time in each [`PowerMode`], indexed by [`PowerMode::index`].
    /// Idle is derived (`span − seek − rot − transfer`, saturating), so
    /// for overlapped engines — where actuators are concurrently busy —
    /// it can reach zero while the busy modes sum past the span.
    pub time_in_mode: [SimDuration; 4],
}

impl ScopeAnalysis {
    /// Time spent in `mode`.
    pub fn time_in(&self, mode: PowerMode) -> SimDuration {
        self.time_in_mode[mode.index()]
    }

    /// Energy over the run, as time-in-mode weighted by `powers`.
    pub fn energy_joules(&self, powers: &ModePowers) -> f64 {
        PowerMode::ALL
            .iter()
            .map(|&m| powers.power(m) * self.time_in(m).as_secs())
            .sum()
    }

    /// Average power over the run (0 for an empty span).
    pub fn average_power_w(&self, powers: &ModePowers) -> f64 {
        if self.span.is_zero() {
            0.0
        } else {
            self.energy_joules(powers) / self.span.as_secs()
        }
    }
}

/// The full reconstruction: one [`ScopeAnalysis`] per scope seen in the
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Per-scope analyses, keyed by scope id.
    pub scopes: BTreeMap<u32, ScopeAnalysis>,
    /// Number of samples analyzed.
    pub samples: usize,
    /// Events evicted by the bounded recorder before analysis
    /// ([`RingRecorder::dropped`]). When nonzero the stream is
    /// truncated: counts are lower bounds and utilization/energy can
    /// be silently low, and [`TraceAnalysis::render_text`] prints a
    /// warning.
    pub dropped: u64,
}

impl TraceAnalysis {
    /// Analyzes a sample set: the [`EventFold`] over it in canonical
    /// `(time, seq)` order, plus each scope's queue-depth timeline.
    /// Emission order does not matter; input already in canonical order
    /// (as [`RingRecorder::sorted_samples`] returns it) is not copied.
    pub fn from_samples(samples: &[Sample]) -> TraceAnalysis {
        let samples = &*in_canonical_order(samples);
        let span_end = samples.last().map_or(SimTime::ZERO, |s| s.time);
        let span = span_end.saturating_since(SimTime::ZERO);

        let mut fold = EventFold::new();
        // Per scope, `(time, depth-after-change)` in time order. Offline
        // scratch over an already-bounded recorded trace.
        let mut depths: BTreeMap<u32, Vec<(SimTime, u32)>> = BTreeMap::new();
        for s in samples {
            if let Closed::Depth(depth) = fold.apply(s.scope, s.time, &s.event) {
                depths.entry(s.scope).or_default().push((s.time, depth));
            }
        }

        let scopes = fold
            .into_scopes()
            .into_iter()
            .map(|(scope, f)| {
                let mut seek = SimDuration::ZERO;
                let mut rot = SimDuration::ZERO;
                let mut xfer = SimDuration::ZERO;
                for t in f.actuators.values() {
                    seek += t.seek;
                    rot += t.rotational;
                    xfer += t.transfer;
                }
                let idle = span
                    .saturating_sub(seek)
                    .saturating_sub(rot)
                    .saturating_sub(xfer);
                let changes = depths.get(&scope).map_or(&[][..], Vec::as_slice);
                (
                    scope,
                    ScopeAnalysis {
                        scope,
                        submitted: f.submitted,
                        completed: f.completed,
                        cache_hits: f.cache_hits,
                        cache_misses: f.cache_misses,
                        span,
                        actuators: f.actuators,
                        queue_depth: depth_stats(changes, span_end),
                        time_in_mode: [idle, seek, rot, xfer],
                    },
                )
            })
            .collect();

        TraceAnalysis {
            scopes,
            samples: samples.len(),
            dropped: 0,
        }
    }

    /// Analyzes everything a bounded recorder retained, carrying its
    /// drop count so truncation cannot pass unnoticed.
    pub fn from_recorder(rec: &RingRecorder) -> TraceAnalysis {
        let mut analysis = Self::from_samples(&rec.sorted_samples());
        analysis.dropped = rec.dropped();
        analysis
    }

    /// The analysis for `scope`, if that scope emitted anything.
    pub fn scope(&self, scope: u32) -> Option<&ScopeAnalysis> {
        self.scopes.get(&scope)
    }

    /// Renders a deterministic plain-text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace analysis: {} samples, {} scope(s)\n",
            self.samples,
            self.scopes.len()
        ));
        if self.dropped > 0 {
            out.push_str(&format!(
                "WARNING: {} event(s) dropped by the bounded recorder; \
counts are lower bounds and utilization/energy may be underestimated\n",
                self.dropped
            ));
        }
        for sc in self.scopes.values() {
            let label = if sc.scope == 0 {
                "drive".to_string()
            } else {
                format!("disk{}", sc.scope - 1)
            };
            out.push_str(&format!(
                "scope {} ({label}): submitted={} completed={} cache_hits={} cache_misses={} span={:.3}ms\n",
                sc.scope,
                sc.submitted,
                sc.completed,
                sc.cache_hits,
                sc.cache_misses,
                sc.span.as_millis()
            ));
            out.push_str(&format!(
                "  time-in-mode: idle={:.3}ms seek={:.3}ms rot_wait={:.3}ms transfer={:.3}ms\n",
                sc.time_in(PowerMode::Idle).as_millis(),
                sc.time_in(PowerMode::Seek).as_millis(),
                sc.time_in(PowerMode::RotationalWait).as_millis(),
                sc.time_in(PowerMode::Transfer).as_millis()
            ));
            let q = sc.queue_depth;
            out.push_str(&format!(
                "  queue depth: max={} p50={} p90={} p99={}\n",
                q.max, q.p50, q.p90, q.p99
            ));
            for (id, t) in &sc.actuators {
                out.push_str(&format!(
                    "  actuator {id}: dispatches={} seek={:.3}ms rot_wait={:.3}ms transfer={:.3}ms utilization={:.4}\n",
                    t.dispatches,
                    t.seek.as_millis(),
                    t.rotational.as_millis(),
                    t.transfer.as_millis(),
                    t.utilization(sc.span)
                ));
            }
        }
        out
    }
}

/// Time-weighted depth percentiles from a piecewise-constant depth
/// timeline. `changes` holds `(time, depth-after-change)` in time
/// order; depth is 0 before the first change, and the final value
/// extends to `end`.
fn depth_stats(changes: &[(SimTime, u32)], end: SimTime) -> QueueDepthStats {
    if changes.is_empty() {
        return QueueDepthStats::default();
    }
    // Weight each depth value by how long it held.
    let mut weighted: BTreeMap<u32, u128> = BTreeMap::new();
    let mut max = 0u32;
    let first_t = changes[0].0;
    if first_t > SimTime::ZERO {
        *weighted.entry(0).or_insert(0) +=
            u128::from(first_t.saturating_since(SimTime::ZERO).as_nanos());
    }
    for (i, &(t, depth)) in changes.iter().enumerate() {
        max = max.max(depth);
        let until = changes.get(i + 1).map(|&(nt, _)| nt).unwrap_or(end);
        let w = u128::from(until.saturating_since(t).as_nanos());
        *weighted.entry(depth).or_insert(0) += w;
    }
    let total: u128 = weighted.values().sum();
    let observed = SimDuration::from_nanos(u64::try_from(total).unwrap_or(u64::MAX));
    if total == 0 {
        return QueueDepthStats {
            max,
            p50: max,
            p90: max,
            p99: max,
            observed,
        };
    }
    let pct = |p: u128| -> u32 {
        // Smallest depth whose cumulative weight reaches p% of total.
        let threshold = (total * p).div_ceil(100);
        let mut cum = 0u128;
        for (&d, &w) in &weighted {
            cum += w;
            if cum >= threshold {
                return d;
            }
        }
        max
    };
    QueueDepthStats {
        max,
        p50: pct(50),
        p90: pct(90),
        p99: pct(99),
        observed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IoOp, TraceEvent};
    use crate::recorder::{Recorder, RingRecorder};

    #[test]
    fn reconstructs_modes_and_utilization() {
        let mut r = RingRecorder::new();
        let t0 = SimTime::from_millis(0.0);
        r.record(
            t0,
            TraceEvent::RequestSubmitted {
                req: 0,
                lba: 0,
                sectors: 8,
                op: IoOp::Read,
            },
        );
        r.record(
            t0,
            TraceEvent::Dispatched {
                req: 0,
                actuator: 0,
                depth: 0,
            },
        );
        r.record(
            t0,
            TraceEvent::SeekStart {
                req: 0,
                actuator: 0,
                from_cylinder: 0,
                to_cylinder: 9,
            },
        );
        let t_seek_end = SimTime::from_millis(2.0);
        r.record(
            t_seek_end,
            TraceEvent::SeekEnd {
                req: 0,
                actuator: 0,
            },
        );
        r.record(
            t_seek_end,
            TraceEvent::RotWait {
                req: 0,
                actuator: 0,
                dur: SimDuration::from_millis(3.0),
            },
        );
        r.record(
            SimTime::from_millis(5.0),
            TraceEvent::Transfer {
                req: 0,
                actuator: 0,
                dur: SimDuration::from_millis(1.0),
            },
        );
        r.record(SimTime::from_millis(6.0), TraceEvent::Complete { req: 0 });
        // Trace ends at 10 ms with an idle marker.
        r.record(
            SimTime::from_millis(10.0),
            TraceEvent::ActuatorIdle { actuator: 0 },
        );

        let a = TraceAnalysis::from_samples(&r.sorted_samples());
        let sc = a.scope(0).unwrap();
        assert_eq!(sc.span, SimDuration::from_millis(10.0));
        assert_eq!(sc.time_in(PowerMode::Seek), SimDuration::from_millis(2.0));
        assert_eq!(
            sc.time_in(PowerMode::RotationalWait),
            SimDuration::from_millis(3.0)
        );
        assert_eq!(
            sc.time_in(PowerMode::Transfer),
            SimDuration::from_millis(1.0)
        );
        assert_eq!(sc.time_in(PowerMode::Idle), SimDuration::from_millis(4.0));
        let act = sc.actuators.get(&0).unwrap();
        assert_eq!(act.dispatches, 1);
        assert!((act.utilization(sc.span) - 0.6).abs() < 1e-12);

        let powers = ModePowers {
            idle_w: 10.0,
            seek_w: 20.0,
            rotational_w: 10.0,
            transfer_w: 12.0,
        };
        // 4ms*10 + 2ms*20 + 3ms*10 + 1ms*12 = 0.04+0.04+0.03+0.012 J
        assert!((sc.energy_joules(&powers) - 0.122).abs() < 1e-9);
    }

    #[test]
    fn queue_depth_percentiles_time_weighted() {
        // Depth 2 for 1 ms, depth 1 for 1 ms, depth 0 for 8 ms.
        let changes = vec![
            (SimTime::from_millis(0.0), 2),
            (SimTime::from_millis(1.0), 1),
            (SimTime::from_millis(2.0), 0),
        ];
        let q = depth_stats(&changes, SimTime::from_millis(10.0));
        assert_eq!(q.max, 2);
        assert_eq!(q.p50, 0);
        assert_eq!(q.p90, 1);
        assert_eq!(q.p99, 2);
        assert_eq!(q.observed, SimDuration::from_millis(10.0));
    }

    #[test]
    fn from_recorder_surfaces_drop_count() {
        let mut r = RingRecorder::with_capacity(2);
        for i in 0..6u64 {
            r.record(
                SimTime::from_millis(i as f64),
                TraceEvent::Complete { req: i },
            );
        }
        let a = TraceAnalysis::from_recorder(&r);
        assert_eq!(a.dropped, 4);
        let text = a.render_text();
        assert!(text.contains("WARNING: 4 event(s) dropped"));
        // An intact recorder analyzes clean.
        let mut intact = RingRecorder::new();
        intact.record(SimTime::ZERO, TraceEvent::Complete { req: 0 });
        let a = TraceAnalysis::from_recorder(&intact);
        assert_eq!(a.dropped, 0);
        assert!(!a.render_text().contains("WARNING"));
    }

    #[test]
    fn empty_trace_is_empty_analysis() {
        let a = TraceAnalysis::from_samples(&[]);
        assert!(a.scopes.is_empty());
        assert_eq!(a.samples, 0);
    }

    #[test]
    fn render_text_is_deterministic() {
        let mut r = RingRecorder::new();
        r.record(
            SimTime::from_millis(1.0),
            TraceEvent::RequestSubmitted {
                req: 0,
                lba: 0,
                sectors: 8,
                op: IoOp::Write,
            },
        );
        r.record(SimTime::from_millis(2.0), TraceEvent::Complete { req: 0 });
        let a = TraceAnalysis::from_samples(&r.sorted_samples());
        let t1 = a.render_text();
        let t2 = TraceAnalysis::from_samples(&r.sorted_samples()).render_text();
        assert_eq!(t1, t2);
        assert!(t1.contains("scope 0 (drive): submitted=1 completed=1"));
    }
}
