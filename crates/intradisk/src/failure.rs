//! SMART-style failure injection (§8, "Disk Drive Reliability").
//!
//! Intra-disk parallel drives carry extra mechanical components; the
//! paper argues their firmware must support *graceful degradation*:
//! when the SMART sensors predict an impending actuator failure, the
//! failing assembly is deconfigured and the drive continues on the
//! rest. [`FailureSchedule`] injects such deconfigurations at chosen
//! times during a run so the degradation can be measured.

use simkit::SimTime;

use crate::drive::DiskDrive;

/// One scheduled actuator deconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActuatorFailure {
    /// When the SMART prediction fires.
    at: SimTime,
    /// Which assembly to deconfigure.
    actuator: u32,
}

/// A time-ordered schedule of actuator failures.
#[derive(Debug, Clone, Default)]
pub struct FailureSchedule {
    // Fixed experiment input, written once at config time; `next`
    // advances instead of popping so the schedule can be replayed.
    events: Vec<ActuatorFailure>,
    next: usize,
}

impl FailureSchedule {
    /// Creates an empty schedule (no failures).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a failure event.
    pub fn push(&mut self, at: SimTime, actuator: u32) {
        self.events.push(ActuatorFailure { at, actuator });
        self.events.sort_by_key(|e| e.at);
    }

    /// The time of the next pending failure.
    pub fn next_at(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// How many failures have been applied or skipped so far.
    pub(crate) fn position(&self) -> usize {
        self.next
    }

    /// Starts the schedule over: a restarted drive replays it from the
    /// first failure.
    pub(crate) fn rewind(&mut self) {
        self.next = 0;
    }

    /// Applies every failure due at or before `now` to `drive`.
    /// Returns the number of assemblies actually deconfigured
    /// (attempts blocked by the last-live-arm rule are skipped and
    /// counted as not applied).
    pub fn apply_due(&mut self, drive: &mut DiskDrive, now: SimTime) -> usize {
        let mut applied = 0;
        while let Some(e) = self.events.get(self.next) {
            if e.at > now {
                break;
            }
            if drive.deconfigure_actuator(e.actuator) {
                applied += 1;
            }
            self.next += 1;
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveConfig;
    use diskmodel::presets;

    fn drive(n: u32) -> DiskDrive {
        DiskDrive::new(&presets::barracuda_es_750gb(), DriveConfig::sa(n))
    }

    #[test]
    fn applies_in_time_order() {
        let mut sched = FailureSchedule::new();
        sched.push(SimTime::from_millis(20.0), 2);
        sched.push(SimTime::from_millis(10.0), 1);
        assert_eq!(sched.next_at(), Some(SimTime::from_millis(10.0)));

        let mut d = drive(4);
        assert_eq!(sched.apply_due(&mut d, SimTime::from_millis(5.0)), 0);
        assert_eq!(d.live_actuators(), 4);
        assert_eq!(sched.apply_due(&mut d, SimTime::from_millis(15.0)), 1);
        assert_eq!(d.live_actuators(), 3);
        assert_eq!(sched.apply_due(&mut d, SimTime::from_millis(25.0)), 1);
        assert_eq!(d.live_actuators(), 2);
        assert_eq!(sched.next_at(), None);
    }

    #[test]
    fn last_arm_protected() {
        let mut sched = FailureSchedule::new();
        sched.push(SimTime::ZERO, 0);
        sched.push(SimTime::ZERO, 1);
        let mut d = drive(2);
        let applied = sched.apply_due(&mut d, SimTime::ZERO);
        assert_eq!(applied, 1, "second deconfiguration must be refused");
        assert_eq!(d.live_actuators(), 1);
    }

    #[test]
    fn duplicate_failure_is_noop() {
        let mut sched = FailureSchedule::new();
        sched.push(SimTime::ZERO, 1);
        sched.push(SimTime::ZERO, 1);
        let mut d = drive(4);
        assert_eq!(sched.apply_due(&mut d, SimTime::ZERO), 1);
        assert_eq!(d.live_actuators(), 3);
    }

    #[test]
    fn empty_schedule() {
        let mut sched = FailureSchedule::new();
        assert_eq!(sched.next_at(), None);
        let mut d = drive(2);
        assert_eq!(sched.apply_due(&mut d, SimTime::MAX), 0);
    }
}
