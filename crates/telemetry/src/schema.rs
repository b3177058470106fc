//! Structural validation of a recorded trace.
//!
//! The tests, `repro --trace` (and any external consumer of an exported
//! trace) use [`validate`] to assert the stream is well-formed:
//! canonically ordered, actuator ids in range, seek `Start`/`End` edges
//! balanced and alternating per `(scope, actuator)`, and no request
//! completing in a scope that never saw it submitted. Seek and
//! completion pairing come from the [`EventFold`]; the order and range
//! checks and the whole-run request history are this module's own.

use std::collections::BTreeSet;

use crate::event::{Sample, TraceEvent};
use crate::fold::{Closed, EventFold};

/// Cap on collected violation messages (a malformed trace with
/// millions of samples should not produce millions of strings).
const MAX_VIOLATIONS: usize = 32;

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
    let mut push = |msg: String| {
        if violations.len() < MAX_VIOLATIONS {
            violations.push(msg);
        }
    };

    let mut fold = EventFold::new();
    // Whole-run request history per scope. The fold forgets a request
    // once it completes, so telling a reused id or a repeated completion
    // from a fresh one needs these.
    let mut submitted: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut completed: BTreeSet<(u32, u64)> = BTreeSet::new();

    let mut prev: Option<&Sample> = None;
    for s in samples {
        if let Some(p) = prev {
            if (s.time, s.seq) < (p.time, p.seq) {
                push(format!(
                    "out of order: seq {} at {} after seq {} at {}",
                    s.seq, s.time, p.seq, p.time
                ));
            }
        }
        prev = Some(s);

        if let Some(a) = s.event.actuator() {
            if a >= actuators {
                push(format!(
                    "unknown actuator {a} (have {actuators}) in {} at seq {}",
                    s.event.kind(),
                    s.seq
                ));
            }
        }

        let unpaired = matches!(fold.apply(s.scope, s.time, &s.event), Closed::Unpaired);
        match s.event {
            TraceEvent::RequestSubmitted { req, .. } => {
                if !submitted.insert((s.scope, req)) {
                    push(format!(
                        "request {req} submitted twice in scope {}",
                        s.scope
                    ));
                }
            }
            TraceEvent::Complete { req } => {
                // A completion the fold paired was submitted; only an
                // unpaired one needs the history.
                if unpaired && !submitted.contains(&(s.scope, req)) {
                    push(format!(
                        "request {req} completed without submission in scope {}",
                        s.scope
                    ));
                }
                if !completed.insert((s.scope, req)) {
                    push(format!(
                        "request {req} completed twice in scope {}",
                        s.scope
                    ));
                }
            }
            TraceEvent::SeekStart { actuator, .. } if unpaired => push(format!(
                "nested SeekStart on scope {} actuator {actuator} at seq {}",
                s.scope, s.seq
            )),
            TraceEvent::SeekEnd { actuator, .. } if unpaired => push(format!(
                "SeekEnd without SeekStart on scope {} actuator {actuator} at seq {}",
                s.scope, s.seq
            )),
            TraceEvent::SeekStart { .. }
            | TraceEvent::SeekEnd { .. }
            | TraceEvent::RequestQueued { .. }
            | TraceEvent::Dispatched { .. }
            | TraceEvent::RotWait { .. }
            | TraceEvent::Transfer { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::PowerModeChange { .. }
            | TraceEvent::ActuatorIdle { .. } => {}
        }
    }

    for (&scope, f) in fold.scopes() {
        for (actuator, seek) in f.open_seeks() {
            push(format!(
                "unmatched SeekStart on scope {scope} actuator {actuator} (started {})",
                seek.start
            ));
        }
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
    fn violation_list_is_bounded() {
        let mut r = RingRecorder::new();
        for i in 0..100 {
            r.record(SimTime::ZERO, TraceEvent::Complete { req: i });
        }
        let err = validate(&r.sorted_samples(), 1).unwrap_err();
        assert_eq!(err.len(), 32);
    }
}
