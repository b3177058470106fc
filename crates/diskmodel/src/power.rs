//! Electro-mechanical power model.
//!
//! The paper's power analysis (§3, Figures 3/6, Table 1) rests on three
//! scaling laws, citing Sato et al. \[18\]:
//!
//! * spindle power grows with the ~4.6th power of platter diameter,
//! * roughly cubically with RPM (we use exponent 2.8, the windage
//!   exponent in \[18\]), and
//! * linearly with the number of platters;
//! * each *moving* voice-coil motor adds its own power, independent of
//!   the spindle.
//!
//! The model's reference constants are calibrated on the Seagate
//! Barracuda ES (idle ≈ 9.3 W, operating ≈ 13 W) such that the
//! hypothetical 4-actuator extension's worst case lands at Table 1's
//! 34 W. Historical drives additionally carry a per-preset
//! *technology-generation factor* (motor/electronics efficiency of their
//! era) so that Table 1's absolute numbers are reproduced; relative
//! behaviour within a generation comes purely from the scaling laws.

use crate::params::DiskParams;

/// Reference spindle power per platter for a 3.7-inch platter at
/// 7200 RPM (watts). Calibrated so the 4-platter Barracuda ES spindle
/// draws ≈ 6.8 W.
pub const SPM_REF_W_PER_PLATTER: f64 = 1.7;

/// Exponent of the platter-diameter dependence of spindle power \[18\].
pub const DIAMETER_EXPONENT: f64 = 4.6;

/// Exponent of the RPM dependence of spindle power (≈ cubic \[18\]).
pub const RPM_EXPONENT: f64 = 2.8;

/// Reference VCM power for a 3.7-inch drive while its arm assembly is in
/// motion (watts). Calibrated so that `9.3 + 4 × 6.2 ≈ 34 W`, Table 1's
/// worst-case power for the hypothetical 4-actuator drive.
pub const VCM_REF_W: f64 = 6.2;

/// Exponent of the platter-diameter dependence of VCM power (arm length
/// and inertia grow with the platter).
pub const VCM_DIAMETER_EXPONENT: f64 = 2.0;

/// Additional power drawn by the read/write channel during a transfer.
pub const CHANNEL_W: f64 = 1.5;

/// Seek duty cycle assumed when quoting a single "operating" power
/// number for a drive, as datasheets do.
pub const OPERATING_SEEK_DUTY: f64 = 0.55;

/// Reference diameter (inches) and RPM at which the constants above are
/// defined.
pub const REF_DIAMETER_IN: f64 = 3.7;
/// See [`REF_DIAMETER_IN`].
pub const REF_RPM: f64 = 7200.0;

/// Per-mode power levels for one drive.
///
/// ```
/// use diskmodel::{presets, PowerModel};
/// let p = PowerModel::new(&presets::barracuda_es_750gb());
/// // Idle ≈ 9.3 W, one-VCM seek adds ≈ 6.2 W.
/// assert!((p.idle_w() - 9.3).abs() < 0.5);
/// assert!(p.seek_w(1) > p.idle_w());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    electronics_w: f64,
    spindle_w: f64,
    vcm_w: f64,
    channel_w: f64,
}

impl PowerModel {
    /// Builds the power model for a parameter set.
    pub fn new(params: &DiskParams) -> Self {
        let tech = params.technology_power_factor();
        let d_ratio = params.diameter_in() / REF_DIAMETER_IN;
        let r_ratio = params.rpm() as f64 / REF_RPM;
        let spindle_w = SPM_REF_W_PER_PLATTER
            * params.platters() as f64
            * d_ratio.powf(DIAMETER_EXPONENT)
            * r_ratio.powf(RPM_EXPONENT)
            * tech;
        let vcm_w = VCM_REF_W * d_ratio.powf(VCM_DIAMETER_EXPONENT) * tech;
        PowerModel {
            electronics_w: params.electronics_w(),
            spindle_w,
            vcm_w,
            channel_w: CHANNEL_W,
        }
    }

    /// Spindle-motor power (always on while the drive spins).
    pub fn spindle_w(&self) -> f64 {
        self.spindle_w
    }

    /// Power of one voice-coil motor while its assembly is moving.
    pub fn vcm_w(&self) -> f64 {
        self.vcm_w
    }

    /// Drive electronics power.
    pub fn electronics_w(&self) -> f64 {
        self.electronics_w
    }

    /// Idle power: electronics + spindle, arms parked.
    pub fn idle_w(&self) -> f64 {
        self.electronics_w + self.spindle_w
    }

    /// Power while `moving_arms` assemblies are seeking simultaneously.
    pub fn seek_w(&self, moving_arms: u32) -> f64 {
        self.idle_w() + self.vcm_w * moving_arms as f64
    }

    /// Power during a rotational-latency wait (arms stationary — the
    /// VCM draws nothing, as the paper notes for TPC-C in §7.2).
    pub fn rotational_wait_w(&self) -> f64 {
        self.idle_w()
    }

    /// Power while the channel is transferring data.
    pub fn transfer_w(&self) -> f64 {
        self.idle_w() + self.channel_w
    }

    /// Worst-case power with `actuators` assemblies all in motion —
    /// the number quoted for the hypothetical drive in Table 1.
    pub fn peak_w(&self, actuators: u32) -> f64 {
        self.seek_w(actuators)
    }

    /// Datasheet-style "operating" power: idle plus one VCM at the
    /// standard seek duty cycle.
    pub fn operating_w(&self) -> f64 {
        self.idle_w() + self.vcm_w * OPERATING_SEEK_DUTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DiskParams;

    fn barracuda_like() -> DiskParams {
        DiskParams::builder("b")
            .capacity_gb(750.0)
            .platters(4)
            .diameter_in(3.7)
            .rpm(7200)
            .cylinders(120_000)
            .build()
            .unwrap()
    }

    #[test]
    fn barracuda_calibration() {
        let p = PowerModel::new(&barracuda_like());
        assert!((p.idle_w() - 9.3).abs() < 0.5, "idle {}", p.idle_w());
        assert!(
            (p.operating_w() - 13.0).abs() < 1.0,
            "op {}",
            p.operating_w()
        );
        assert!((p.peak_w(4) - 34.0).abs() < 1.5, "peak4 {}", p.peak_w(4));
    }

    #[test]
    fn rpm_scaling_is_superlinear() {
        let base = barracuda_like();
        let p72 = PowerModel::new(&base);
        let p42 = PowerModel::new(&base.with_rpm(4200));
        let ratio = p72.spindle_w() / p42.spindle_w();
        let expect = (7200.0f64 / 4200.0).powf(RPM_EXPONENT);
        assert!((ratio - expect).abs() < 1e-9);
        assert!(ratio > 4.0, "lowering RPM should cut spindle power hard");
    }

    #[test]
    fn diameter_scaling_dominates() {
        let small = PowerModel::new(&barracuda_like());
        let big_params = DiskParams::builder("big14")
            .capacity_gb(7.5)
            .platters(4)
            .diameter_in(14.0)
            .rpm(7200)
            .cylinders(885)
            .build()
            .unwrap();
        let big = PowerModel::new(&big_params);
        // (14/3.7)^4.6 ≈ 455 — two-plus orders of magnitude.
        assert!(big.spindle_w() / small.spindle_w() > 300.0);
    }

    #[test]
    fn mode_power_ordering() {
        let p = PowerModel::new(&barracuda_like());
        assert!(p.idle_w() > 0.0);
        assert_eq!(p.rotational_wait_w(), p.idle_w());
        assert!(p.transfer_w() > p.idle_w());
        assert!(p.seek_w(1) > p.transfer_w());
        assert!(p.seek_w(2) > p.seek_w(1));
        assert_eq!(p.seek_w(0), p.idle_w());
    }

    #[test]
    fn technology_factor_multiplies_mechanics_only() {
        let modern = PowerModel::new(&barracuda_like());
        let old_params = DiskParams::builder("old")
            .capacity_gb(750.0)
            .platters(4)
            .diameter_in(3.7)
            .rpm(7200)
            .cylinders(120_000)
            .technology_power_factor(2.0)
            .build()
            .unwrap();
        let old = PowerModel::new(&old_params);
        assert!((old.spindle_w() - 2.0 * modern.spindle_w()).abs() < 1e-9);
        assert!((old.vcm_w() - 2.0 * modern.vcm_w()).abs() < 1e-9);
        assert_eq!(old.electronics_w(), modern.electronics_w());
    }

    #[test]
    fn peak_grows_linearly_with_actuators() {
        let p = PowerModel::new(&barracuda_like());
        let d1 = p.peak_w(2) - p.peak_w(1);
        let d2 = p.peak_w(3) - p.peak_w(2);
        assert!((d1 - d2).abs() < 1e-9);
        assert!((d1 - p.vcm_w()).abs() < 1e-9);
    }
}
