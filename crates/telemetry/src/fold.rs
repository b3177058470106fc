//! [`EventFold`] — the one state machine the telemetry views reduce.
//!
//! Post-hoc analysis ([`crate::TraceAnalysis`]), online metrics
//! ([`crate::MetricsRecorder`]), structural validation
//! ([`crate::schema::validate`]) and the Perfetto export
//! ([`crate::chrome_trace_json`]) all pair `SeekStart`/`SeekEnd` per
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

/// A seek the fold saw start: its `SeekStart` edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSeek {
    /// When the seek started.
    pub start: SimTime,
    /// The request it serves.
    pub req: u64,
    /// Cylinder the arm left.
    pub from_cylinder: u32,
    /// Cylinder the arm is bound for.
    pub to_cylinder: u32,
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
    // Actuator → its open seek.
    open_seeks: BTreeMap<u32, OpenSeek>,
    // Request → submit instant.
    inflight: BTreeMap<u64, SimTime>,
}

impl ScopeFold {
    /// Seeks started but not yet ended, by actuator.
    pub fn open_seeks(&self) -> impl Iterator<Item = (u32, OpenSeek)> + '_ {
        self.open_seeks.iter().map(|(&a, &seek)| (a, seek))
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
        /// A seek's start edge; `None` for the planned phases.
        seek: Option<OpenSeek>,
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
        let (mode, actuator, dur, end, seek) = match *event {
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
            TraceEvent::SeekStart {
                req,
                actuator,
                from_cylinder,
                to_cylinder,
            } => {
                s.seeks += 1;
                let seek = OpenSeek {
                    start: time,
                    req,
                    from_cylinder,
                    to_cylinder,
                };
                return match s.open_seeks.insert(actuator, seek) {
                    Some(_) => Closed::Unpaired,
                    None => Closed::Nothing,
                };
            }
            TraceEvent::SeekEnd { actuator, .. } => {
                let Some(seek) = s.open_seeks.remove(&actuator) else {
                    return Closed::Unpaired;
                };
                let dur = time.saturating_since(seek.start);
                s.actuators.entry(actuator).or_default().seek += dur;
                (PowerMode::Seek, actuator, dur, time, Some(seek))
            }
            TraceEvent::RotWait { actuator, dur, .. } => {
                s.actuators.entry(actuator).or_default().rotational += dur;
                (PowerMode::RotationalWait, actuator, dur, time + dur, None)
            }
            TraceEvent::Transfer { actuator, dur, .. } => {
                s.actuators.entry(actuator).or_default().transfer += dur;
                (PowerMode::Transfer, actuator, dur, time + dur, None)
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
            seek,
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
                end: ms(3.0),
                seek: Some(OpenSeek {
                    start: ms(1.0),
                    req: 3,
                    from_cylinder: 0,
                    to_cylinder: 9
                })
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
        let restart = TraceEvent::SeekStart {
            req: 5,
            actuator: 0,
            from_cylinder: 1,
            to_cylinder: 7,
        };
        assert_eq!(f.apply(0, ms(1.0), &start), Closed::Nothing);
        assert_eq!(f.apply(0, ms(4.0), &restart), Closed::Unpaired);
        let open: Vec<_> = f.scopes()[&0].open_seeks().collect();
        let newer = OpenSeek {
            start: ms(4.0),
            req: 5,
            from_cylinder: 1,
            to_cylinder: 7,
        };
        assert_eq!(open, vec![(0, newer)]);
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
                end: ms(8.0),
                seek: None
            }
        );
        assert_eq!(f.scopes()[&2].actuators[&0].busy(), dur);
    }
}
