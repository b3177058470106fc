//! Error types for drive-parameter validation and runtime operation.

use std::error::Error;
use std::fmt;

use simkit::SimTime;

/// An invalid drive parameter set.
///
/// Returned by [`DiskParamsBuilder::build`](crate::DiskParamsBuilder::build)
/// when a physically meaningless configuration is requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskModelError {
    message: String,
}

impl DiskModelError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        DiskModelError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DiskModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid disk parameters: {}", self.message)
    }
}

impl Error for DiskModelError {}

/// A runtime protocol violation in the drive or array state machines.
///
/// The simulator components are passive: the owner of the event
/// calendar promises to call `complete` exactly at the time a prior
/// `submit`/`complete` returned. These variants are the ways a driver
/// can break that contract (or ask a fully failed drive for service).
/// They indicate a harness bug, not a modeled device fault, so request
/// paths surface them as typed errors instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriveError {
    /// `submit` was called before the request's arrival time.
    SubmitBeforeArrival {
        /// The request's arrival time.
        arrival: SimTime,
        /// The (earlier) submission time.
        now: SimTime,
    },
    /// `complete` was called with no request in service.
    NotInService,
    /// `complete` was called at a time other than the promised one.
    WrongCompletionTime {
        /// The completion time previously returned.
        promised: SimTime,
        /// The time `complete` was actually called at.
        at: SimTime,
    },
    /// Service was requested but every arm assembly has failed.
    NoLiveArm,
    /// A member disk completed a sub-request the array never issued.
    UnknownSubRequest {
        /// The unrecognized sub-request id.
        sub_id: u64,
    },
    /// A sub-request completed for an already retired logical request.
    RetiredRequest {
        /// The internal key of the retired logical request.
        key: u64,
    },
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::SubmitBeforeArrival { arrival, now } => {
                write!(f, "submit at {now} precedes request arrival {arrival}")
            }
            DriveError::NotInService => write!(f, "no request in service"),
            DriveError::WrongCompletionTime { promised, at } => {
                write!(
                    f,
                    "complete() at {at}, but completion was promised at {promised}"
                )
            }
            DriveError::NoLiveArm => write!(f, "no live arm assembly"),
            DriveError::UnknownSubRequest { sub_id } => {
                write!(f, "completion for unknown sub-request {sub_id}")
            }
            DriveError::RetiredRequest { key } => {
                write!(f, "completion for retired logical request {key}")
            }
        }
    }
}

impl Error for DriveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_reason() {
        let e = DiskModelError::new("rpm must be positive");
        assert!(e.to_string().contains("rpm must be positive"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<DiskModelError>();
        assert_err::<DriveError>();
    }

    #[test]
    fn drive_error_display_names_the_contract() {
        let e = DriveError::WrongCompletionTime {
            promised: SimTime::from_millis(2.0),
            at: SimTime::from_millis(1.0),
        };
        assert!(e.to_string().contains("promised"));
        assert!(DriveError::NotInService
            .to_string()
            .contains("no request in service"));
        assert!(DriveError::NoLiveArm.to_string().contains("no live arm"));
    }
}
