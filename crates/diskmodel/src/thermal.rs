//! A first-order thermal model of the drive enclosure.
//!
//! The paper's case *against* simply raising RPM rests on thermal
//! limits: "increasing the RPM can cause excessive heat dissipation
//! within the disk drive \[12\], which can lead to reliability problems
//! \[16\]. Indeed, commercial product roadmaps show that disk drive RPMs
//! are not going to increase" (§7.1). This module makes that argument
//! quantitative with the steady state of the standard lumped RC model,
//!
//! ```text
//! T_steady = T_ambient + R_th · P
//! ```
//!
//! calibrated so a conventional 13 W drive sits near 46 °C in a 25 °C
//! enclosure — typical of vendor specifications — against an operating
//! envelope of 55–60 °C. Because spindle power grows with RPM^2.8, a
//! 15 000-RPM version of the HC-SD blows the envelope, while an
//! intra-disk parallel drive at the same (or lower) RPM stays inside
//! it: parallelism buys performance *within* the thermal budget.

/// Thermal resistance of a 3.5-inch drive enclosure, °C per watt.
pub const DEFAULT_THERMAL_RESISTANCE: f64 = 1.6;

/// Vendor-specified maximum operating temperature, °C.
pub const DEFAULT_ENVELOPE_C: f64 = 60.0;

/// Steady-state thermal model of one drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    ambient_c: f64,
}

impl ThermalModel {
    /// Creates a model with the default calibration at the given
    /// ambient temperature.
    ///
    /// # Panics
    /// Panics if `ambient_c` is not finite.
    pub fn new(ambient_c: f64) -> Self {
        assert!(ambient_c.is_finite(), "bad ambient {ambient_c}");
        ThermalModel { ambient_c }
    }

    /// Ambient temperature, °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// The operating envelope, °C.
    pub fn envelope_c(&self) -> f64 {
        DEFAULT_ENVELOPE_C
    }

    /// Steady-state temperature at a constant dissipation, °C.
    pub fn steady_state_c(&self, power_w: f64) -> f64 {
        assert!(power_w >= 0.0, "negative power");
        self.ambient_c + DEFAULT_THERMAL_RESISTANCE * power_w
    }

    /// True if a constant dissipation keeps the drive inside its
    /// envelope.
    pub fn within_envelope(&self, power_w: f64) -> bool {
        self.steady_state_c(power_w) <= DEFAULT_ENVELOPE_C
    }
}

impl Default for ThermalModel {
    /// A 25 °C enclosure with the default calibration.
    fn default() -> Self {
        Self::new(25.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;
    use crate::presets;

    #[test]
    fn conventional_drive_runs_cool() {
        let t = ThermalModel::default();
        let temp = t.steady_state_c(PowerModel::new(&presets::barracuda_es_750gb()).operating_w());
        assert!((40.0..52.0).contains(&temp), "operating temp {temp}");
        assert!(t.within_envelope(13.0));
    }

    #[test]
    fn rpm_scaling_blows_the_envelope() {
        // The paper's motivation: a 15k-RPM version of the HC-SD would
        // dissipate ~(15000/7200)^2.8 ≈ 7.8x the spindle power.
        let t = ThermalModel::default();
        let hot = presets::barracuda_es_750gb().with_rpm(15_000);
        let p = PowerModel::new(&hot);
        assert!(
            !t.within_envelope(p.operating_w()),
            "15k RPM at {:.1} W should exceed the envelope",
            p.operating_w()
        );
    }

    #[test]
    fn four_actuators_within_envelope_at_7200() {
        // Table 1's point: the 34 W worst case is high but within an
        // 85 °C server envelope, unlike raising RPM.
        let t = ThermalModel::default();
        let p = PowerModel::new(&presets::barracuda_es_750gb());
        assert!(t.steady_state_c(p.peak_w(4)) <= 85.0);
    }

    #[test]
    fn power_budget_roundtrip() {
        // The largest sustained dissipation the envelope allows.
        let t = ThermalModel::default();
        let budget = (t.envelope_c() - t.ambient_c()) / DEFAULT_THERMAL_RESISTANCE;
        assert!(t.within_envelope(budget - 0.01));
        assert!(!t.within_envelope(budget + 0.01));
    }
}
