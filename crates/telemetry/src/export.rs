//! Trace exporters.
//!
//! Two formats, both built by deterministic string assembly (no float
//! formatting on timestamps — virtual nanoseconds are rendered as
//! fixed-point microsecond strings), so the same run always produces
//! byte-identical files:
//!
//! * [`chrome_trace_json`] — the Chrome trace-event JSON format, which
//!   Perfetto (<https://ui.perfetto.dev>) opens directly. Scopes map to
//!   processes, actuators to threads, so a multi-actuator drive renders
//!   as one track per arm assembly; request-lifecycle and power-mode
//!   events get their own tracks.
//! * [`timeline_csv`] — a flat one-row-per-event CSV for ad-hoc
//!   analysis in any spreadsheet or dataframe tool.

use std::collections::BTreeSet;

use simkit::SimTime;

use crate::event::{in_canonical_order, Sample, TraceEvent};
use crate::fold::{Closed, EventFold, OpenSeek};

/// Synthetic Perfetto thread id for the request-lifecycle track
/// (submit/queued/cache/complete events, which have no actuator).
pub const REQUESTS_TID: u32 = 900;
/// Synthetic Perfetto thread id for the power-mode track.
pub const MODE_TID: u32 = 901;

/// Renders virtual nanoseconds as the microsecond fixed-point string
/// Chrome trace `ts`/`dur` fields expect, without going through `f64`.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// A seek's complete (`ph:"X"`) slice, from its start edge to `end`.
fn seek_slice(pid: u32, actuator: u32, seek: &OpenSeek, end: SimTime) -> String {
    let start_ns = seek.start.as_nanos();
    format!(
        "{{\"ph\":\"X\",\"name\":\"seek\",\"cat\":\"mech\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{actuator},\"args\":{{\"req\":{},\"from\":{},\"to\":{}}}}}",
        us(start_ns),
        us(end.as_nanos() - start_ns),
        seek.req,
        seek.from_cylinder,
        seek.to_cylinder,
    )
}

/// The Perfetto thread a sample renders on.
fn tid_for(event: &TraceEvent) -> u32 {
    if let TraceEvent::PowerModeChange { .. } = event {
        return MODE_TID;
    }
    event.actuator().unwrap_or(REQUESTS_TID)
}

/// Exports samples as Chrome trace-event JSON (open in Perfetto).
///
/// Samples are taken in canonical `(time, seq)` order (sorted into a
/// copy only if they are not already), so the output depends only on
/// the recorded set, not emission order.
/// Seek `Start`/`End` pairs, as the [`EventFold`] pairs them, become
/// complete (`ph:"X"`) slices; an unmatched `SeekStart` (trace
/// truncated by the ring) becomes a zero-length slice.
pub fn chrome_trace_json(samples: &[Sample]) -> String {
    let sorted = &*in_canonical_order(samples);

    // Track discovery first so metadata rows lead the file in a stable
    // order regardless of when each track first appears.
    let mut tracks: BTreeSet<(u32, u32)> = BTreeSet::new();
    for s in sorted {
        tracks.insert((s.scope, tid_for(&s.event)));
    }

    let mut out = String::with_capacity(128 + sorted.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push_row = |out: &mut String, row: String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
        out.push_str(&row);
    };

    let scopes: BTreeSet<u32> = tracks.iter().map(|&(s, _)| s).collect();
    for &scope in &scopes {
        let pname = if scope == 0 {
            "drive".to_string()
        } else {
            format!("disk{}", scope - 1)
        };
        push_row(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{scope},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{pname}\"}}}}"
            ),
        );
    }
    for &(scope, tid) in &tracks {
        let tname = match tid {
            REQUESTS_TID => "requests".to_string(),
            MODE_TID => "power-mode".to_string(),
            a => format!("actuator{a}"),
        };
        push_row(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{scope},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{tname}\"}}}}"
            ),
        );
    }

    let mut fold = EventFold::new();
    for s in sorted {
        let closed = fold.apply(s.scope, s.time, &s.event);
        let pid = s.scope;
        let tid = tid_for(&s.event);
        let ts = us(s.time.as_nanos());
        let row = match s.event {
            TraceEvent::RequestSubmitted { req, lba, sectors, op } => Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"submit\",\"cat\":\"request\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"req\":{req},\"lba\":{lba},\"sectors\":{sectors},\"op\":\"{}\"}}}}",
                op.letter()
            )),
            TraceEvent::RequestQueued { req, depth } => Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"queued\",\"cat\":\"request\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"req\":{req},\"depth\":{depth}}}}}"
            )),
            TraceEvent::Dispatched { req, actuator, depth } => Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"dispatch\",\"cat\":\"sched\",\"ts\":{ts},\"pid\":{pid},\"tid\":{actuator},\"args\":{{\"req\":{req},\"depth\":{depth}}}}}"
            )),
            TraceEvent::SeekStart { .. } => None,
            // An End without a Start means the ring dropped the opening
            // edge; render nothing rather than invent a span.
            TraceEvent::SeekEnd { .. } => {
                if let Closed::Busy { actuator, end, seek: Some(seek), .. } = closed {
                    Some(seek_slice(pid, actuator, &seek, end))
                } else {
                    None
                }
            }
            TraceEvent::RotWait { req, actuator, dur } => Some(format!(
                "{{\"ph\":\"X\",\"name\":\"rot_wait\",\"cat\":\"mech\",\"ts\":{ts},\"dur\":{},\"pid\":{pid},\"tid\":{actuator},\"args\":{{\"req\":{req}}}}}",
                us(dur.as_nanos())
            )),
            TraceEvent::Transfer { req, actuator, dur } => Some(format!(
                "{{\"ph\":\"X\",\"name\":\"transfer\",\"cat\":\"mech\",\"ts\":{ts},\"dur\":{},\"pid\":{pid},\"tid\":{actuator},\"args\":{{\"req\":{req}}}}}",
                us(dur.as_nanos())
            )),
            TraceEvent::CacheHit { req } => Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"cache_hit\",\"cat\":\"cache\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"req\":{req}}}}}"
            )),
            TraceEvent::CacheMiss { req } => Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"cache_miss\",\"cat\":\"cache\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"req\":{req}}}}}"
            )),
            TraceEvent::Complete { req } => Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"complete\",\"cat\":\"request\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"req\":{req}}}}}"
            )),
            TraceEvent::PowerModeChange { mode } => Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"mode:{}\",\"cat\":\"power\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{}}}}",
                mode.name()
            )),
            TraceEvent::ActuatorIdle { actuator } => Some(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"actuator_idle\",\"cat\":\"sched\",\"ts\":{ts},\"pid\":{pid},\"tid\":{actuator},\"args\":{{}}}}"
            )),
        };
        if let Some(row) = row {
            push_row(&mut out, row);
        }
    }

    // Seeks still open when the trace ends (ring truncation): render as
    // zero-length slices so the start edge is at least visible.
    for (&pid, scope) in fold.scopes() {
        for (actuator, seek) in scope.open_seeks() {
            push_row(&mut out, seek_slice(pid, actuator, &seek, seek.start));
        }
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Exports samples as a flat CSV, one row per event, in canonical
/// `(time, seq)` order. Numeric fields that do not apply to an event
/// kind are left empty.
pub fn timeline_csv(samples: &[Sample]) -> String {
    let sorted = &*in_canonical_order(samples);

    let mut out = String::with_capacity(64 + sorted.len() * 48);
    out.push_str(
        "time_ns,scope,seq,event,req,actuator,lba,sectors,op,depth,from_cylinder,to_cylinder,dur_ns,mode\n",
    );
    for s in sorted {
        let ns = s.time.as_nanos();
        let kind = s.event.kind();
        let req = s.event.req().map(|r| r.to_string()).unwrap_or_default();
        let act = s
            .event
            .actuator()
            .map(|a| a.to_string())
            .unwrap_or_default();
        let (mut lba, mut sectors, mut op) = (String::new(), String::new(), String::new());
        let (mut depth, mut from, mut to) = (String::new(), String::new(), String::new());
        let (mut dur, mut mode) = (String::new(), String::new());
        match s.event {
            TraceEvent::RequestSubmitted {
                lba: l,
                sectors: n,
                op: o,
                ..
            } => {
                lba = l.to_string();
                sectors = n.to_string();
                op = o.letter().to_string();
            }
            TraceEvent::RequestQueued { depth: d, .. }
            | TraceEvent::Dispatched { depth: d, .. } => depth = d.to_string(),
            TraceEvent::SeekStart {
                from_cylinder,
                to_cylinder,
                ..
            } => {
                from = from_cylinder.to_string();
                to = to_cylinder.to_string();
            }
            TraceEvent::RotWait { dur: d, .. } | TraceEvent::Transfer { dur: d, .. } => {
                dur = d.as_nanos().to_string();
            }
            TraceEvent::PowerModeChange { mode: m } => mode = m.name().to_string(),
            TraceEvent::SeekEnd { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::Complete { .. }
            | TraceEvent::ActuatorIdle { .. } => {}
        }
        out.push_str(&format!(
            "{ns},{},{},{kind},{req},{act},{lba},{sectors},{op},{depth},{from},{to},{dur},{mode}\n",
            s.scope, s.seq
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IoOp, PowerMode};
    use crate::recorder::{Recorder, RingRecorder};
    use simkit::{SimDuration, SimTime};

    fn tiny_trace() -> Vec<Sample> {
        let mut r = RingRecorder::new();
        let t = SimTime::from_millis(1.0);
        r.record(
            t,
            TraceEvent::RequestSubmitted {
                req: 0,
                lba: 100,
                sectors: 8,
                op: IoOp::Read,
            },
        );
        r.record(
            t,
            TraceEvent::Dispatched {
                req: 0,
                actuator: 1,
                depth: 0,
            },
        );
        r.record(
            t,
            TraceEvent::SeekStart {
                req: 0,
                actuator: 1,
                from_cylinder: 0,
                to_cylinder: 5,
            },
        );
        let t2 = t + SimDuration::from_millis(2.0);
        r.record(
            t2,
            TraceEvent::SeekEnd {
                req: 0,
                actuator: 1,
            },
        );
        r.record(
            t2,
            TraceEvent::RotWait {
                req: 0,
                actuator: 1,
                dur: SimDuration::from_millis(3.0),
            },
        );
        r.record(
            t2,
            TraceEvent::PowerModeChange {
                mode: PowerMode::Seek,
            },
        );
        r.record(
            t2 + SimDuration::from_millis(3.0),
            TraceEvent::Complete { req: 0 },
        );
        r.sorted_samples()
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let json = chrome_trace_json(&tiny_trace());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        // The paired seek renders as one complete slice with the right
        // microsecond timestamps.
        assert!(json.contains("\"name\":\"seek\""));
        assert!(json.contains("\"ts\":1000.000,\"dur\":2000.000"));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"actuator1\"}"));
        assert!(json.contains("\"process_name\",\"args\":{\"name\":\"drive\"}"));
        assert!(json.contains("mode:seek"));
    }

    #[test]
    fn chrome_trace_is_emission_order_independent() {
        let sorted = tiny_trace();
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        assert_eq!(chrome_trace_json(&sorted), chrome_trace_json(&shuffled));
    }

    #[test]
    fn csv_has_one_row_per_event() {
        let samples = tiny_trace();
        let csv = timeline_csv(&samples);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), samples.len() + 1);
        assert!(lines[0].starts_with("time_ns,scope,seq,event"));
        assert!(csv.contains("seek_start"));
        assert!(csv.contains(",mode,")); // PowerModeChange row carries its kind tag
        assert!(csv.contains("3000000,")); // rot-wait duration in ns
    }

    #[test]
    fn unmatched_seek_start_becomes_zero_slice() {
        let mut r = RingRecorder::new();
        r.record(
            SimTime::from_millis(1.0),
            TraceEvent::SeekStart {
                req: 3,
                actuator: 0,
                from_cylinder: 1,
                to_cylinder: 2,
            },
        );
        let json = chrome_trace_json(&r.sorted_samples());
        // The start edge's fields, from the fold's open seek.
        assert!(json.contains(
            "\"name\":\"seek\",\"cat\":\"mech\",\"ts\":1000.000,\"dur\":0.000,\"pid\":0,\"tid\":0,\"args\":{\"req\":3,\"from\":1,\"to\":2}"
        ));
    }
}
