//! The typed event schema.
//!
//! Every observable step of a request's life — submission, queueing,
//! dispatch to an arm assembly, seek, rotational wait, transfer, cache
//! interaction, completion — is one [`TraceEvent`], stamped with virtual
//! [`SimTime`] only (never wall-clock time: the trace of a run is part
//! of the simulator's determinism contract and must be byte-identical
//! across hosts, runs, and `--jobs` values).
//!
//! Events are recorded in *emission* order, which for a discrete-event
//! drive that plans a whole media access at dispatch time is not
//! timestamp order (a dispatch at `t` emits the seek/rotation/transfer
//! boundaries up to the planned completion). The envelope type
//! [`Sample`] therefore carries a monotonically increasing sequence
//! number; exporters and analyzers order samples by `(time, seq)`,
//! which is total and deterministic.

use std::borrow::Cow;

use simkit::{SimDuration, SimTime};

/// Read or write, as seen by the telemetry layer.
///
/// A separate type (rather than `intradisk::IoKind`) keeps the
/// dependency arrow pointing from the simulator crates *into*
/// telemetry, so the recorder can be threaded through every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IoOp {
    /// A read request.
    Read,
    /// A write request.
    Write,
}

impl IoOp {
    /// Single-letter tag used by the CSV exporter.
    pub fn letter(self) -> char {
        match self {
            IoOp::Read => 'R',
            IoOp::Write => 'W',
        }
    }
}

/// The four operating modes of a drive (mirrors
/// `intradisk::DriveMode`; redefined here for the same dependency
/// reason as [`IoOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum PowerMode {
    /// No mechanical activity; spindle spinning.
    Idle = 0,
    /// An arm assembly in motion.
    Seek = 1,
    /// Waiting for the target sector to rotate under the head.
    RotationalWait = 2,
    /// Data moving between the platters and the electronics.
    Transfer = 3,
}

impl PowerMode {
    /// All modes in display order.
    pub const ALL: [PowerMode; 4] = [
        PowerMode::Idle,
        PowerMode::Seek,
        PowerMode::RotationalWait,
        PowerMode::Transfer,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            PowerMode::Idle => "idle",
            PowerMode::Seek => "seek",
            PowerMode::RotationalWait => "rot_wait",
            PowerMode::Transfer => "transfer",
        }
    }

    /// Stable index into per-mode arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One traced occurrence inside a drive, overlapped drive, or array
/// controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request entered the storage system (drive or array level).
    RequestSubmitted {
        /// Caller-assigned request id (unique within its scope).
        req: u64,
        /// First logical block (after capacity wrap).
        lba: u64,
        /// Length in sectors.
        sectors: u32,
        /// Read or write.
        op: IoOp,
    },
    /// The request could not start immediately and joined the pending
    /// queue.
    RequestQueued {
        /// Request id.
        req: u64,
        /// Queue depth *after* the enqueue.
        depth: u32,
    },
    /// The scheduler chose this request and bound it to an arm
    /// assembly (or to the cache path, actuator 0).
    Dispatched {
        /// Request id.
        req: u64,
        /// Arm assembly servicing the request.
        actuator: u32,
        /// Queue depth remaining after the dispatch.
        depth: u32,
    },
    /// The dispatched assembly started moving.
    SeekStart {
        /// Request id.
        req: u64,
        /// Moving assembly.
        actuator: u32,
        /// Cylinder the assembly started from.
        from_cylinder: u32,
        /// Cylinder the access ends on.
        to_cylinder: u32,
    },
    /// The seek finished (always paired with a preceding
    /// [`TraceEvent::SeekStart`] on the same scope/actuator).
    SeekEnd {
        /// Request id.
        req: u64,
        /// Assembly that finished moving.
        actuator: u32,
    },
    /// Rotational wait (including any shared-channel wait in the
    /// overlapped engine) starting at this instant.
    RotWait {
        /// Request id.
        req: u64,
        /// Waiting assembly.
        actuator: u32,
        /// Length of the wait.
        dur: SimDuration,
    },
    /// Media (or cache-bus) transfer starting at this instant.
    Transfer {
        /// Request id.
        req: u64,
        /// Transferring assembly (0 for cache hits).
        actuator: u32,
        /// Length of the transfer.
        dur: SimDuration,
    },
    /// A read was served from the on-board cache.
    CacheHit {
        /// Request id.
        req: u64,
    },
    /// A read missed the on-board cache and went to the media.
    CacheMiss {
        /// Request id.
        req: u64,
    },
    /// The request finished.
    Complete {
        /// Request id.
        req: u64,
    },
    /// The drive's operating mode changed (sequential drive only; the
    /// overlapped engine has no single well-defined mode).
    PowerModeChange {
        /// Mode entered at this instant.
        mode: PowerMode,
    },
    /// An assembly went idle with nothing left to dispatch.
    ActuatorIdle {
        /// The now-idle assembly.
        actuator: u32,
    },
}

impl TraceEvent {
    /// Stable kind tag (exporters key on it).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RequestSubmitted { .. } => "submit",
            TraceEvent::RequestQueued { .. } => "queued",
            TraceEvent::Dispatched { .. } => "dispatch",
            TraceEvent::SeekStart { .. } => "seek_start",
            TraceEvent::SeekEnd { .. } => "seek_end",
            TraceEvent::RotWait { .. } => "rot_wait",
            TraceEvent::Transfer { .. } => "transfer",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::Complete { .. } => "complete",
            TraceEvent::PowerModeChange { .. } => "mode",
            TraceEvent::ActuatorIdle { .. } => "actuator_idle",
        }
    }

    /// The actuator this event concerns, if any.
    pub fn actuator(&self) -> Option<u32> {
        match *self {
            TraceEvent::Dispatched { actuator, .. }
            | TraceEvent::SeekStart { actuator, .. }
            | TraceEvent::SeekEnd { actuator, .. }
            | TraceEvent::RotWait { actuator, .. }
            | TraceEvent::Transfer { actuator, .. }
            | TraceEvent::ActuatorIdle { actuator } => Some(actuator),
            TraceEvent::RequestSubmitted { .. }
            | TraceEvent::RequestQueued { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::Complete { .. }
            | TraceEvent::PowerModeChange { .. } => None,
        }
    }

    /// The request this event concerns, if any.
    pub fn req(&self) -> Option<u64> {
        match *self {
            TraceEvent::RequestSubmitted { req, .. }
            | TraceEvent::RequestQueued { req, .. }
            | TraceEvent::Dispatched { req, .. }
            | TraceEvent::SeekStart { req, .. }
            | TraceEvent::SeekEnd { req, .. }
            | TraceEvent::RotWait { req, .. }
            | TraceEvent::Transfer { req, .. }
            | TraceEvent::CacheHit { req }
            | TraceEvent::CacheMiss { req }
            | TraceEvent::Complete { req } => Some(req),
            TraceEvent::PowerModeChange { .. } | TraceEvent::ActuatorIdle { .. } => None,
        }
    }
}

/// A recorded event: when it happened, which component emitted it, and
/// its position in the emission order.
///
/// `scope` identifies the emitting component: `0` is the top-level
/// drive (or the array controller's logical level), `1 + i` is member
/// disk `i` of an array. Exporters map scopes to Perfetto processes
/// and actuators to threads, giving one track per actuator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Virtual instant of the occurrence.
    pub time: SimTime,
    /// Emitting component (0 = top level, `1 + i` = member disk `i`).
    pub scope: u32,
    /// Emission sequence number (total order tie-breaker).
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// Stably orders samples by `(time, seq)` — the canonical export and
/// analysis order.
pub fn sort_samples(samples: &mut [Sample]) {
    samples.sort_by_key(|s| (s.time, s.seq));
}

/// `samples` in canonical order: borrowed if they already are (as
/// [`crate::RingRecorder::sorted_samples`] returns them), else a
/// sorted copy.
pub(crate) fn in_canonical_order(samples: &[Sample]) -> Cow<'_, [Sample]> {
    if samples.is_sorted_by_key(|s| (s.time, s.seq)) {
        return Cow::Borrowed(samples);
    }
    let mut sorted = samples.to_vec();
    sort_samples(&mut sorted);
    Cow::Owned(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_accessors() {
        let e = TraceEvent::SeekStart {
            req: 7,
            actuator: 2,
            from_cylinder: 0,
            to_cylinder: 100,
        };
        assert_eq!(e.kind(), "seek_start");
        assert_eq!(e.actuator(), Some(2));
        assert_eq!(e.req(), Some(7));
        let m = TraceEvent::PowerModeChange {
            mode: PowerMode::Seek,
        };
        assert_eq!(m.actuator(), None);
        assert_eq!(m.req(), None);
    }

    #[test]
    fn sort_orders_by_time_then_seq() {
        let ev = TraceEvent::Complete { req: 0 };
        let mut v = vec![
            Sample {
                time: SimTime::from_millis(2.0),
                scope: 0,
                seq: 0,
                event: ev,
            },
            Sample {
                time: SimTime::from_millis(1.0),
                scope: 0,
                seq: 2,
                event: ev,
            },
            Sample {
                time: SimTime::from_millis(1.0),
                scope: 0,
                seq: 1,
                event: ev,
            },
        ];
        sort_samples(&mut v);
        assert_eq!(v[0].seq, 1);
        assert_eq!(v[1].seq, 2);
        assert_eq!(v[2].seq, 0);
    }

    #[test]
    fn mode_names_stable() {
        let names: Vec<&str> = PowerMode::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["idle", "seek", "rot_wait", "transfer"]);
        assert_eq!(PowerMode::Transfer.index(), 3);
        assert_eq!(IoOp::Read.letter(), 'R');
        assert_eq!(IoOp::Write.letter(), 'W');
    }
}
