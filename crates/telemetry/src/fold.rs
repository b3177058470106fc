//! [`EventFold`] — the one state machine the telemetry views reduce.
//!
//! Post-hoc analysis ([`crate::TraceAnalysis`]), online metrics
//! ([`crate::MetricsRecorder`]) and structural validation
//! ([`crate::schema::validate`]) all pair `SeekStart`/`SeekEnd` per
//! actuator, match completions to submissions, and count requests. They
//! do it here, once: each feeds events to [`EventFold::apply`] and
//! reduces what it reports closed. The state is bounded by the requests
//! in flight and the actuators, so the fold runs online (emission
//! order) as well as over a recorded trace (`(time, seq)` order).

use std::collections::BTreeMap;

use simkit::{SimDuration, SimTime};

use crate::event::{PowerMode, TraceEvent};

/// What one arm assembly did over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActuatorTimeline {
    /// Requests dispatched to this assembly.
    pub dispatches: u64,
    /// Total time spent seeking.
    pub seek: SimDuration,
    /// Total rotational (and shared-channel) wait.
    pub rotational: SimDuration,
    /// Total transfer time.
    pub transfer: SimDuration,
}

impl ActuatorTimeline {
    /// Total mechanically busy time.
    pub fn busy(&self) -> SimDuration {
        self.seek + self.rotational + self.transfer
    }

    /// Busy time as a fraction of `span` (0 when the span is empty).
    pub fn utilization(&self, span: SimDuration) -> f64 {
        if span.is_zero() {
            0.0
        } else {
            self.busy().as_millis() / span.as_millis()
        }
    }
}

/// The fold's state for one scope (one drive, or one member disk of an
/// array): event counts, actuator timelines, open seeks, and the submit
/// instant of each request in flight.
#[derive(Debug, Clone, Default)]
pub struct ScopeFold {
    /// `RequestSubmitted` events.
    pub submitted: u64,
    /// `Complete` events, paired or not.
    pub completed: u64,
    /// `CacheHit` events.
    pub cache_hits: u64,
    /// `CacheMiss` events.
    pub cache_misses: u64,
    /// `SeekStart` events.
    pub seeks: u64,
    /// Per-actuator activity, keyed by actuator id (fixed hardware
    /// topology, not run length).
    pub actuators: BTreeMap<u32, ActuatorTimeline>,
    // Actuator → start of its open seek.
    open_seeks: BTreeMap<u32, SimTime>,
    // Request → submit instant.
    inflight: BTreeMap<u64, SimTime>,
}

impl ScopeFold {
    /// Seeks started but not yet ended, as `(actuator, start)`.
    pub fn open_seeks(&self) -> impl Iterator<Item = (u32, SimTime)> + '_ {
        self.open_seeks.iter().map(|(&a, &t)| (a, t))
    }
}

/// What [`EventFold::apply`] reports one event closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Closed {
    /// Nothing: the event opened something, or only counted.
    Nothing,
    /// `actuator` spent `dur` in `mode` (seek, rotational wait or
    /// transfer), ending at `end`: a seek ends at its `SeekEnd`, a
    /// planned phase `dur` after its event.
    Busy {
        /// The busy mode.
        mode: PowerMode,
        /// The busy assembly.
        actuator: u32,
        /// How long it was busy.
        dur: SimDuration,
        /// When the phase ends.
        end: SimTime,
    },
    /// A request completed, this long after its submission.
    Response(SimDuration),
    /// The pending queue now holds this many requests.
    Depth(u32),
    /// The drive entered this mode.
    Mode(PowerMode),
    /// An edge without its partner: a `SeekStart` while the actuator's
    /// seek is open (the new start replaces the old), a `SeekEnd` with
    /// no open seek, or a `Complete` with no request in flight.
    Unpaired,
}

/// The per-scope state, updated one event at a time.
#[derive(Debug, Clone, Default)]
pub struct EventFold {
    scopes: BTreeMap<u32, ScopeFold>,
}

impl EventFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `event`, emitted in `scope` at `time`, and reports what it
    /// closed.
    pub fn apply(&mut self, scope: u32, time: SimTime, event: &TraceEvent) -> Closed {
        let s = self.scopes.entry(scope).or_default();
        // Every arm but the three busy phases returns early.
        let (mode, actuator, dur, end) = match *event {
            TraceEvent::RequestSubmitted { req, .. } => {
                s.submitted += 1;
                s.inflight.insert(req, time);
                return Closed::Nothing;
            }
            TraceEvent::RequestQueued { depth, .. } => return Closed::Depth(depth),
            TraceEvent::Dispatched {
                actuator, depth, ..
            } => {
                s.actuators.entry(actuator).or_default().dispatches += 1;
                return Closed::Depth(depth);
            }
            TraceEvent::SeekStart { actuator, .. } => {
                s.seeks += 1;
                return match s.open_seeks.insert(actuator, time) {
                    Some(_) => Closed::Unpaired,
                    None => Closed::Nothing,
                };
            }
            TraceEvent::SeekEnd { actuator, .. } => {
                let Some(start) = s.open_seeks.remove(&actuator) else {
                    return Closed::Unpaired;
                };
                let dur = time.saturating_since(start);
                s.actuators.entry(actuator).or_default().seek += dur;
                (PowerMode::Seek, actuator, dur, time)
            }
            TraceEvent::RotWait { actuator, dur, .. } => {
                s.actuators.entry(actuator).or_default().rotational += dur;
                (PowerMode::RotationalWait, actuator, dur, time + dur)
            }
            TraceEvent::Transfer { actuator, dur, .. } => {
                s.actuators.entry(actuator).or_default().transfer += dur;
                (PowerMode::Transfer, actuator, dur, time + dur)
            }
            TraceEvent::CacheHit { .. } => {
                s.cache_hits += 1;
                return Closed::Nothing;
            }
            TraceEvent::CacheMiss { .. } => {
                s.cache_misses += 1;
                return Closed::Nothing;
            }
            TraceEvent::Complete { req } => {
                s.completed += 1;
                return match s.inflight.remove(&req) {
                    Some(submitted) => Closed::Response(time.saturating_since(submitted)),
                    None => Closed::Unpaired,
                };
            }
            TraceEvent::PowerModeChange { mode } => return Closed::Mode(mode),
            TraceEvent::ActuatorIdle { .. } => return Closed::Nothing,
        };
        Closed::Busy {
            mode,
            actuator,
            dur,
            end,
        }
    }

    /// Every scope that emitted an event, keyed by scope id.
    pub fn scopes(&self) -> &BTreeMap<u32, ScopeFold> {
        &self.scopes
    }

    /// Consumes the fold, yielding its per-scope state.
    pub fn into_scopes(self) -> BTreeMap<u32, ScopeFold> {
        self.scopes
    }

    /// Requests submitted but not yet completed, over all scopes.
    pub fn in_flight(&self) -> usize {
        self.scopes.values().map(|s| s.inflight.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoOp;

    fn ms(v: f64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn pairs_seeks_and_requests_per_scope() {
        let mut f = EventFold::new();
        let submit = TraceEvent::RequestSubmitted {
            req: 3,
            lba: 0,
            sectors: 8,
            op: IoOp::Read,
        };
        let start = TraceEvent::SeekStart {
            req: 3,
            actuator: 1,
            from_cylinder: 0,
            to_cylinder: 9,
        };
        let end = TraceEvent::SeekEnd {
            req: 3,
            actuator: 1,
        };
        assert_eq!(f.apply(0, ms(1.0), &submit), Closed::Nothing);
        assert_eq!(f.apply(0, ms(1.0), &start), Closed::Nothing);
        // Scope 1 has no open seek on actuator 1.
        assert_eq!(f.apply(1, ms(2.0), &end), Closed::Unpaired);
        assert_eq!(
            f.apply(0, ms(3.0), &end),
            Closed::Busy {
                mode: PowerMode::Seek,
                actuator: 1,
                dur: SimDuration::from_millis(2.0),
                end: ms(3.0)
            }
        );
        assert_eq!(f.in_flight(), 1);
        assert_eq!(
            f.apply(0, ms(7.0), &TraceEvent::Complete { req: 3 }),
            Closed::Response(SimDuration::from_millis(6.0))
        );
        assert_eq!(
            f.apply(0, ms(8.0), &TraceEvent::Complete { req: 3 }),
            Closed::Unpaired
        );
        assert_eq!(f.in_flight(), 0);
        let s = &f.scopes()[&0];
        assert_eq!((s.submitted, s.completed, s.seeks), (1, 2, 1));
        assert_eq!(s.actuators[&1].seek, SimDuration::from_millis(2.0));
        assert_eq!(f.scopes()[&1].actuators.len(), 0);
    }

    #[test]
    fn nested_seek_start_replaces_the_open_one() {
        let mut f = EventFold::new();
        let start = TraceEvent::SeekStart {
            req: 0,
            actuator: 0,
            from_cylinder: 0,
            to_cylinder: 1,
        };
        assert_eq!(f.apply(0, ms(1.0), &start), Closed::Nothing);
        assert_eq!(f.apply(0, ms(4.0), &start), Closed::Unpaired);
        let open: Vec<_> = f.scopes()[&0].open_seeks().collect();
        assert_eq!(open, vec![(0, ms(4.0))]);
    }

    #[test]
    fn phases_report_their_end() {
        let mut f = EventFold::new();
        let dur = SimDuration::from_millis(3.0);
        let closed = f.apply(
            2,
            ms(5.0),
            &TraceEvent::Transfer {
                req: 0,
                actuator: 0,
                dur,
            },
        );
        assert_eq!(
            closed,
            Closed::Busy {
                mode: PowerMode::Transfer,
                actuator: 0,
                dur,
                end: ms(8.0)
            }
        );
        assert_eq!(f.scopes()[&2].actuators[&0].busy(), dur);
    }
}
