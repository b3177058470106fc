//! The component cost model of Section 9 (Table 9a) and the
//! iso-performance cost comparison of Figure 9b.
//!
//! The paper obtained per-component volume prices from seven component
//! manufacturers; Table 9a prints them as dollar ranges for a four-platter
//! server drive. The per-drive bill of materials scales with the number
//! of actuators exactly as in the table:
//!
//! * media and spindle motor are shared (independent of actuators);
//! * VCM, pivot bearing, preamplifier, suspensions, and heads replicate
//!   per actuator;
//! * the motor driver has a fixed part plus a per-actuator part;
//! * the disk controller is shared.

use std::fmt;
use std::ops::Add;

/// A low–high dollar range.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostRange {
    /// Low estimate, USD.
    pub low: f64,
    /// High estimate, USD.
    pub high: f64,
}

impl CostRange {
    /// Creates a range.
    ///
    /// # Panics
    /// Panics if `low > high` or either bound is negative.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low >= 0.0 && low <= high, "bad cost range [{low}, {high}]");
        CostRange { low, high }
    }

    /// A point estimate (low == high).
    pub fn point(v: f64) -> Self {
        Self::new(v, v)
    }

    /// Midpoint of the range — the bar heights of Figure 9b.
    pub fn midpoint(&self) -> f64 {
        (self.low + self.high) / 2.0
    }

    /// Scales both bounds by an integer count.
    pub fn times(&self, n: u32) -> CostRange {
        CostRange::new(self.low * n as f64, self.high * n as f64)
    }
}

impl Add for CostRange {
    type Output = CostRange;
    fn add(self, rhs: CostRange) -> CostRange {
        CostRange::new(self.low + rhs.low, self.high + rhs.high)
    }
}

impl fmt::Display for CostRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if (self.high - self.low).abs() < 1e-9 {
            write!(f, "${:.1}", self.low)
        } else {
            write!(f, "${:.1}-{:.1}", self.low, self.high)
        }
    }
}

/// The disk-drive components priced in Table 9a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// Recording media (per platter).
    Media,
    /// Spindle motor (shared).
    SpindleMotor,
    /// Voice-coil motor (per actuator).
    VoiceCoilMotor,
    /// Head suspension (four per actuator on a 4-platter drive).
    HeadSuspension,
    /// Read/write head (eight per actuator on a 4-platter drive).
    Head,
    /// Pivot bearing (one per actuator).
    PivotBearing,
    /// Disk controller ASIC (shared).
    DiskController,
    /// Motor driver chip (fixed part + per-actuator part).
    MotorDriver,
    /// Head preamplifier (one per actuator).
    Preamplifier,
}

impl Component {
    /// All components, in Table 9a's row order.
    pub const ALL: [Component; 9] = [
        Component::Media,
        Component::SpindleMotor,
        Component::VoiceCoilMotor,
        Component::HeadSuspension,
        Component::Head,
        Component::PivotBearing,
        Component::DiskController,
        Component::MotorDriver,
        Component::Preamplifier,
    ];

    /// The per-unit price range quoted by the manufacturers
    /// (Table 9a, "Component Cost" column).
    pub fn unit_cost(self) -> CostRange {
        match self {
            Component::Media => CostRange::new(6.0, 7.0),
            Component::SpindleMotor => CostRange::new(5.0, 10.0),
            Component::VoiceCoilMotor => CostRange::new(1.0, 2.0),
            Component::HeadSuspension => CostRange::new(0.50, 0.90),
            Component::Head => CostRange::point(3.0),
            Component::PivotBearing => CostRange::point(3.0),
            Component::DiskController => CostRange::new(4.0, 5.0),
            // Encoded as fixed + per-actuator below; the "component"
            // price quoted is the single-actuator part.
            Component::MotorDriver => CostRange::new(3.5, 4.0),
            Component::Preamplifier => CostRange::point(1.2),
        }
    }

    /// How many units a drive with `platters` platters and `actuators`
    /// actuators needs (Table 9a's column arithmetic).
    pub fn unit_count(self, platters: u32, actuators: u32) -> u32 {
        match self {
            Component::Media => platters,
            Component::SpindleMotor | Component::DiskController => 1,
            Component::VoiceCoilMotor | Component::PivotBearing | Component::Preamplifier => {
                actuators
            }
            Component::HeadSuspension => platters * actuators,
            Component::Head => 2 * platters * actuators,
            // Handled specially in `component_cost`.
            Component::MotorDriver => actuators,
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Component::Media => "Media",
            Component::SpindleMotor => "Spindle Motor",
            Component::VoiceCoilMotor => "Voice-Coil Motor",
            Component::HeadSuspension => "Head Suspension",
            Component::Head => "Head",
            Component::PivotBearing => "Pivot Bearing",
            Component::DiskController => "Disk Controller",
            Component::MotorDriver => "Motor Driver",
            Component::Preamplifier => "Preamplifier",
        };
        f.write_str(name)
    }
}

/// Cost of one component row for a drive configuration.
///
/// The motor driver follows Table 9a's piecewise pricing: a fixed
/// $2 portion plus $1.5–2.0 per actuator (reproducing the quoted
/// 3.5–4 / 5–6 / 8–10 progression for 1/2/4 actuators).
pub fn component_cost(component: Component, platters: u32, actuators: u32) -> CostRange {
    assert!(
        platters > 0 && actuators > 0,
        "need at least one platter/actuator"
    );
    match component {
        Component::MotorDriver => CostRange::point(2.0) + CostRange::new(1.5, 2.0).times(actuators),
        c => c.unit_cost().times(c.unit_count(platters, actuators)),
    }
}

/// Total material cost of a drive (Table 9a's "Total Estimated Cost").
pub fn drive_cost(platters: u32, actuators: u32) -> CostRange {
    Component::ALL
        .iter()
        .map(|&c| component_cost(c, platters, actuators))
        .fold(CostRange::default(), |acc, c| acc + c)
}

/// One bar of Figure 9b: `count` drives of `actuators` actuators each,
/// delivering equivalent performance.
pub fn configuration_cost(count: u32, platters: u32, actuators: u32) -> CostRange {
    drive_cost(platters, actuators).times(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_9a_conventional_total() {
        let c = drive_cost(4, 1);
        assert!((c.low - 67.7).abs() < 0.05, "low {}", c.low);
        assert!((c.high - 80.8).abs() < 0.05, "high {}", c.high);
    }

    #[test]
    fn table_9a_two_actuator_total() {
        let c = drive_cost(4, 2);
        assert!((c.low - 100.4).abs() < 0.05, "low {}", c.low);
        assert!((c.high - 116.6).abs() < 0.05, "high {}", c.high);
    }

    #[test]
    fn table_9a_four_actuator_total() {
        let c = drive_cost(4, 4);
        assert!((c.low - 165.8).abs() < 0.05, "low {}", c.low);
        assert!((c.high - 188.2).abs() < 0.05, "high {}", c.high);
    }

    #[test]
    fn table_9a_component_rows() {
        // Spot-check each scaling rule against the printed table.
        let rows = [
            (Component::Media, 24.0, 28.0),
            (Component::SpindleMotor, 5.0, 10.0),
            (Component::VoiceCoilMotor, 2.0, 4.0),
            (Component::HeadSuspension, 4.0, 7.2),
            (Component::Head, 48.0, 48.0),
            (Component::PivotBearing, 6.0, 6.0),
            (Component::DiskController, 4.0, 5.0),
            (Component::MotorDriver, 5.0, 6.0),
            (Component::Preamplifier, 2.4, 2.4),
        ];
        for (comp, lo, hi) in rows {
            let c = component_cost(comp, 4, 2);
            assert!((c.low - lo).abs() < 1e-9, "{comp}: low {}", c.low);
            assert!((c.high - hi).abs() < 1e-9, "{comp}: high {}", c.high);
        }
    }

    #[test]
    fn heads_dominate_parallel_drive_cost_increase() {
        let conv = drive_cost(4, 1);
        let quad = drive_cost(4, 4);
        let head_increase = component_cost(Component::Head, 4, 4).midpoint()
            - component_cost(Component::Head, 4, 1).midpoint();
        let total_increase = quad.midpoint() - conv.midpoint();
        assert!(
            head_increase / total_increase > 0.5,
            "heads are {head_increase} of {total_increase}"
        );
    }

    #[test]
    fn figure_9b_orderings() {
        // 4 conventional > 2 two-actuator > 1 four-actuator.
        let four_conv = configuration_cost(4, 4, 1).midpoint();
        let two_dual = configuration_cost(2, 4, 2).midpoint();
        let one_quad = configuration_cost(1, 4, 4).midpoint();
        assert!(four_conv > two_dual && two_dual > one_quad);
        // ~27% and ~40% savings.
        let save2 = 1.0 - two_dual / four_conv;
        let save4 = 1.0 - one_quad / four_conv;
        assert!((save2 - 0.27).abs() < 0.03, "save2 {save2}");
        assert!((save4 - 0.40).abs() < 0.03, "save4 {save4}");
    }

    #[test]
    fn cost_range_arithmetic() {
        let a = CostRange::new(1.0, 2.0);
        let b = a.times(3) + CostRange::point(1.0);
        assert_eq!(b, CostRange::new(4.0, 7.0));
        assert_eq!(b.midpoint(), 5.5);
        assert_eq!(format!("{}", CostRange::point(3.0)), "$3.0");
        assert_eq!(format!("{}", a), "$1.0-2.0");
    }

    #[test]
    #[should_panic(expected = "bad cost range")]
    fn inverted_range_panics() {
        CostRange::new(2.0, 1.0);
    }
}
