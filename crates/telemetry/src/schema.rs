//! Structural validation of a recorded trace.
//!
//! The tests (and any external consumer of an exported trace) use
//! [`validate`] to assert the stream is well-formed: canonically
//! ordered, actuator ids in range, seek `Start`/`End` edges balanced
//! and alternating per `(scope, actuator)`, and no request completing
//! in a scope that never saw it submitted.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::event::{Sample, TraceEvent};
use crate::recorder::RingRecorder;

/// Cap on collected violation messages (a malformed trace with
/// millions of samples should not produce millions of strings).
const MAX_VIOLATIONS: usize = 32;

/// A typed validation issue, so callers can distinguish a *truncated*
/// stream (bounded recorder evicted events — every derived number is
/// a lower bound) from a *malformed* one (a structural rule broke).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Issue {
    /// The recorder dropped events before validation; the retained
    /// stream may legitimately fail structural rules (e.g. a
    /// `SeekEnd` whose `SeekStart` was evicted) and any analysis on
    /// it undercounts.
    DroppedEvents {
        /// How many samples were evicted.
        dropped: u64,
    },
    /// A structural schema rule was violated.
    Structural(String),
}

impl fmt::Display for Issue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Issue::DroppedEvents { dropped } => write!(
                f,
                "{dropped} event(s) dropped by the bounded recorder (stream truncated)"
            ),
            Issue::Structural(msg) => write!(f, "{msg}"),
        }
    }
}

/// Validates everything a bounded recorder retained, reporting drops
/// as a typed [`Issue::DroppedEvents`] ahead of any structural
/// violations. A trace that dropped events never validates clean.
pub fn validate_recorded(rec: &RingRecorder, actuators: u32) -> Result<(), Vec<Issue>> {
    let mut issues: Vec<Issue> = Vec::new();
    if rec.dropped() > 0 {
        issues.push(Issue::DroppedEvents {
            dropped: rec.dropped(),
        });
    }
    if let Err(violations) = validate(&rec.sorted_samples(), actuators) {
        issues.extend(violations.into_iter().map(Issue::Structural));
    }
    if issues.is_empty() {
        Ok(())
    } else {
        Err(issues)
    }
}

/// Validates a sample stream against the schema's structural rules.
///
/// `samples` must already be in canonical `(time, seq)` order (the
/// order [`crate::RingRecorder::sorted_samples`] and both exporters
/// use); out-of-order input is itself reported as a violation.
/// `actuators` is the number of arm assemblies, so valid actuator ids
/// are `0..actuators`.
///
/// Returns `Ok(())` for a well-formed trace, or up to 32 violation
/// descriptions.
pub fn validate(samples: &[Sample], actuators: u32) -> Result<(), Vec<String>> {
    let mut violations: Vec<String> = Vec::new();
    let push = |violations: &mut Vec<String>, msg: String| {
        if violations.len() < MAX_VIOLATIONS {
            violations.push(msg);
        }
    };

    // (scope, actuator) -> seq of the unmatched SeekStart.
    let mut open_seeks: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    // Requests seen submitted / completed per scope.
    let mut submitted: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut completed: BTreeSet<(u32, u64)> = BTreeSet::new();

    let mut prev: Option<&Sample> = None;
    for s in samples {
        if let Some(p) = prev {
            if (s.time, s.seq) < (p.time, p.seq) {
                push(
                    &mut violations,
                    format!(
                        "out of order: seq {} at {} after seq {} at {}",
                        s.seq, s.time, p.seq, p.time
                    ),
                );
            }
        }
        prev = Some(s);

        if let Some(a) = s.event.actuator() {
            if a >= actuators {
                push(
                    &mut violations,
                    format!(
                        "unknown actuator {a} (have {actuators}) in {} at seq {}",
                        s.event.kind(),
                        s.seq
                    ),
                );
            }
        }

        match s.event {
            TraceEvent::RequestSubmitted { req, .. } => {
                if !submitted.insert((s.scope, req)) {
                    push(
                        &mut violations,
                        format!("request {req} submitted twice in scope {}", s.scope),
                    );
                }
            }
            TraceEvent::Complete { req } => {
                if !submitted.contains(&(s.scope, req)) {
                    push(
                        &mut violations,
                        format!(
                            "request {req} completed without submission in scope {}",
                            s.scope
                        ),
                    );
                }
                if !completed.insert((s.scope, req)) {
                    push(
                        &mut violations,
                        format!("request {req} completed twice in scope {}", s.scope),
                    );
                }
            }
            TraceEvent::SeekStart { actuator, .. } => {
                if open_seeks.insert((s.scope, actuator), s.seq).is_some() {
                    push(
                        &mut violations,
                        format!(
                            "nested SeekStart on scope {} actuator {actuator} at seq {}",
                            s.scope, s.seq
                        ),
                    );
                }
            }
            TraceEvent::SeekEnd { actuator, .. } => {
                if open_seeks.remove(&(s.scope, actuator)).is_none() {
                    push(
                        &mut violations,
                        format!(
                            "SeekEnd without SeekStart on scope {} actuator {actuator} at seq {}",
                            s.scope, s.seq
                        ),
                    );
                }
            }
            TraceEvent::RequestQueued { .. }
            | TraceEvent::Dispatched { .. }
            | TraceEvent::RotWait { .. }
            | TraceEvent::Transfer { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::PowerModeChange { .. }
            | TraceEvent::ActuatorIdle { .. } => {}
        }
    }

    for (&(scope, actuator), &seq) in &open_seeks {
        push(
            &mut violations,
            format!("unmatched SeekStart on scope {scope} actuator {actuator} (seq {seq})"),
        );
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoOp;
    use crate::recorder::{Recorder, RingRecorder};
    use simkit::SimTime;

    fn submit(req: u64) -> TraceEvent {
        TraceEvent::RequestSubmitted {
            req,
            lba: 0,
            sectors: 8,
            op: IoOp::Read,
        }
    }

    #[test]
    fn accepts_well_formed_stream() {
        let mut r = RingRecorder::new();
        let t = SimTime::from_millis(1.0);
        r.record(t, submit(0));
        r.record(
            t,
            TraceEvent::SeekStart {
                req: 0,
                actuator: 1,
                from_cylinder: 0,
                to_cylinder: 1,
            },
        );
        r.record(
            SimTime::from_millis(2.0),
            TraceEvent::SeekEnd {
                req: 0,
                actuator: 1,
            },
        );
        r.record(SimTime::from_millis(3.0), TraceEvent::Complete { req: 0 });
        assert!(validate(&r.sorted_samples(), 2).is_ok());
    }

    #[test]
    fn rejects_out_of_range_actuator() {
        let mut r = RingRecorder::new();
        r.record(SimTime::ZERO, TraceEvent::ActuatorIdle { actuator: 4 });
        let err = validate(&r.sorted_samples(), 2).unwrap_err();
        assert!(err[0].contains("unknown actuator 4"));
    }

    #[test]
    fn rejects_unbalanced_seeks() {
        let mut r = RingRecorder::new();
        r.record(
            SimTime::ZERO,
            TraceEvent::SeekStart {
                req: 0,
                actuator: 0,
                from_cylinder: 0,
                to_cylinder: 1,
            },
        );
        let err = validate(&r.sorted_samples(), 1).unwrap_err();
        assert!(err.iter().any(|m| m.contains("unmatched SeekStart")));

        let mut r = RingRecorder::new();
        r.record(
            SimTime::ZERO,
            TraceEvent::SeekEnd {
                req: 0,
                actuator: 0,
            },
        );
        let err = validate(&r.sorted_samples(), 1).unwrap_err();
        assert!(err[0].contains("SeekEnd without SeekStart"));
    }

    #[test]
    fn rejects_completion_without_submission() {
        let mut r = RingRecorder::new();
        r.record(SimTime::ZERO, TraceEvent::Complete { req: 9 });
        let err = validate(&r.sorted_samples(), 1).unwrap_err();
        assert!(err[0].contains("completed without submission"));
    }

    #[test]
    fn rejects_out_of_order_input() {
        let mut r = RingRecorder::new();
        r.record(SimTime::from_millis(5.0), submit(0));
        r.record(SimTime::from_millis(1.0), submit(1));
        // Deliberately NOT sorted.
        let raw: Vec<Sample> = r.samples().copied().collect();
        let err = validate(&raw, 1).unwrap_err();
        assert!(err[0].contains("out of order"));
    }

    #[test]
    fn validate_recorded_flags_drops_first() {
        let mut r = RingRecorder::with_capacity(2);
        for i in 0..5u64 {
            r.record(SimTime::from_millis(i as f64), submit(i));
        }
        let issues = validate_recorded(&r, 1).unwrap_err();
        assert_eq!(issues[0], Issue::DroppedEvents { dropped: 3 });
        assert!(issues[0].to_string().contains("dropped"));
    }

    #[test]
    fn validate_recorded_clean_on_intact_stream() {
        let mut r = RingRecorder::new();
        r.record(SimTime::ZERO, submit(0));
        r.record(SimTime::from_millis(1.0), TraceEvent::Complete { req: 0 });
        assert!(validate_recorded(&r, 1).is_ok());
    }

    #[test]
    fn violation_list_is_bounded() {
        let mut r = RingRecorder::new();
        for i in 0..100 {
            r.record(SimTime::ZERO, TraceEvent::Complete { req: i });
        }
        let err = validate(&r.sorted_samples(), 1).unwrap_err();
        assert_eq!(err.len(), 32);
    }
}
