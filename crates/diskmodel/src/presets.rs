//! Calibrated parameter sets for every drive the paper discusses.
//!
//! * [`barracuda_es_750gb`] — the High-Capacity Single Drive (HC-SD) of
//!   the limit study (§7.1): 750 GB, 4 platters, 7200 RPM, 8 MB cache.
//! * [`array_drive_10k_19gb`], [`array_drive_10k_37gb`],
//!   [`array_drive_7200_36gb`] — the Table 2 drives the original traces
//!   were collected on (MD configurations).
//! * [`conner_cp3100`], [`ibm_3380_ak4`], [`fujitsu_m2361a`] — the
//!   historical drives of Table 1.
//!
//! Historical presets carry a technology-generation power factor
//! (see [`crate::power`]) calibrated so the model reproduces Table 1's
//! published power column; modern presets use factor 1.0.

use crate::params::DiskParams;

#[expect(
    clippy::expect_used,
    reason = "presets are hard-coded constants validated once at construction; a failure is a bug in the preset, not a condition a caller could recover from"
)]
fn must(b: &mut crate::params::DiskParamsBuilder) -> DiskParams {
    b.build()
        .expect("preset parameters are valid by construction")
}

/// Seagate Barracuda ES 750 GB (ST3750640NS-class): the paper's HC-SD.
///
/// 4 platters, 3.7-inch media, 7200 RPM, 8 MB cache, ~8.5 ms average
/// seek. Idle power ≈ 9.3 W, operating ≈ 13 W (Table 1).
pub fn barracuda_es_750gb() -> DiskParams {
    must(
        DiskParams::builder("Barracuda ES 750GB")
            .capacity_gb(750.0)
            .platters(4)
            .diameter_in(3.7)
            .rpm(7200)
            .cylinders(120_000)
            .zones(24)
            .outer_inner_ratio(1.7)
            .cache_mib(8)
            .seek_profile_ms(0.8, 8.5, 17.0)
            .head_switch_ms(0.8)
            .controller_overhead_ms(0.1)
            .electronics_w(2.5),
    )
}

/// The 18/19 GB 10 000 RPM enterprise drive of the Financial and
/// Websearch arrays (Table 2: 19.07 GB, 10k RPM, 4 platters) —
/// Cheetah-18LP class.
pub fn array_drive_10k_19gb() -> DiskParams {
    must(
        DiskParams::builder("Enterprise 10k 19GB")
            .capacity_gb(19.07)
            .platters(4)
            .diameter_in(3.3)
            .rpm(10_000)
            .cylinders(10_000)
            .zones(16)
            .outer_inner_ratio(1.6)
            .cache_mib(4)
            .seek_profile_ms(0.6, 5.2, 10.5)
            .head_switch_ms(0.6)
            .controller_overhead_ms(0.1)
            .electronics_w(3.5),
    )
}

/// The 37 GB 10 000 RPM drive of the TPC-C array (Table 2: 37.17 GB,
/// 10k RPM, 4 platters).
pub fn array_drive_10k_37gb() -> DiskParams {
    must(
        DiskParams::builder("Enterprise 10k 37GB")
            .capacity_gb(37.17)
            .platters(4)
            .diameter_in(3.3)
            .rpm(10_000)
            .cylinders(16_000)
            .zones(16)
            .outer_inner_ratio(1.6)
            .cache_mib(4)
            .seek_profile_ms(0.55, 4.9, 10.0)
            .head_switch_ms(0.6)
            .controller_overhead_ms(0.1)
            .electronics_w(3.5),
    )
}

/// The 36 GB 7200 RPM drive of the TPC-H array (Table 2: 35.96 GB,
/// 7200 RPM, 6 platters).
pub fn array_drive_7200_36gb() -> DiskParams {
    must(
        DiskParams::builder("Enterprise 7200 36GB")
            .capacity_gb(35.96)
            .platters(6)
            .diameter_in(3.5)
            .rpm(7200)
            .cylinders(12_000)
            .zones(16)
            .outer_inner_ratio(1.7)
            .cache_mib(4)
            .seek_profile_ms(0.8, 7.5, 15.0)
            .head_switch_ms(0.8)
            .controller_overhead_ms(0.1)
            .electronics_w(3.0),
    )
}

/// Conner CP3100: the 1988 personal-computer drive from the RAID paper
/// (Table 1: 105 MB formatted, 3.5-inch, 3575 RPM, ~10 W).
pub fn conner_cp3100() -> DiskParams {
    must(
        DiskParams::builder("Conner CP3100")
            .capacity_gb(0.105)
            .platters(4)
            .diameter_in(3.5)
            .rpm(3575)
            .cylinders(776)
            .zones(1)
            .outer_inner_ratio(1.0)
            .cache_mib(0)
            .seek_profile_ms(8.0, 25.0, 45.0)
            .head_switch_ms(2.0)
            .controller_overhead_ms(1.0)
            .technology_power_factor(2.1)
            .electronics_w(2.0),
    )
}

/// IBM 3380 AK4: the 1980s mainframe drive (Table 1: 7.5 GB, 14-inch
/// platters, 4 actuators, 6 600 W/box).
pub fn ibm_3380_ak4() -> DiskParams {
    must(
        DiskParams::builder("IBM 3380 AK4")
            .capacity_gb(7.5)
            .platters(8)
            .diameter_in(14.0)
            .rpm(3600)
            .cylinders(2655)
            .zones(1)
            .outer_inner_ratio(1.0)
            .cache_mib(0)
            .seek_profile_ms(3.0, 16.0, 30.0)
            .head_switch_ms(1.0)
            .controller_overhead_ms(1.0)
            .technology_power_factor(6.0)
            .electronics_w(50.0),
    )
}

/// Fujitsu M2361A: the 1980s minicomputer drive (Table 1: 600 MB,
/// 10.5-inch platters, 640 W/box).
pub fn fujitsu_m2361a() -> DiskParams {
    must(
        DiskParams::builder("Fujitsu M2361A")
            .capacity_gb(0.6)
            .platters(6)
            .diameter_in(10.5)
            .rpm(3600)
            .cylinders(842)
            .zones(1)
            .outer_inner_ratio(1.0)
            .cache_mib(0)
            .seek_profile_ms(4.0, 16.0, 33.0)
            .head_switch_ms(1.0)
            .controller_overhead_ms(1.0)
            .technology_power_factor(3.0)
            .electronics_w(20.0),
    )
}

/// The reduced-RPM HC-SD variants evaluated in Figures 6–7
/// (6200 / 5200 / 4200 RPM versions of the Barracuda-class drive).
pub fn barracuda_es_at_rpm(rpm: u32) -> DiskParams {
    barracuda_es_750gb().with_rpm(rpm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;

    #[test]
    fn presets_all_build() {
        for p in [
            barracuda_es_750gb(),
            array_drive_10k_19gb(),
            array_drive_10k_37gb(),
            array_drive_7200_36gb(),
            conner_cp3100(),
            ibm_3380_ak4(),
            fujitsu_m2361a(),
        ] {
            assert!(p.capacity_sectors() > 0, "{}", p.name());
        }
    }

    #[test]
    fn table1_power_column_reproduced() {
        // Paper Table 1: Barracuda 13 W, CP3100 10 W, M2361A 640 W,
        // IBM 3380 6600 W, 4-actuator projection 34 W. Allow 15%.
        let within = |got: f64, want: f64, tol: f64| {
            assert!((got - want).abs() / want < tol, "got {got}, want {want}");
        };
        within(
            PowerModel::new(&barracuda_es_750gb()).operating_w(),
            13.0,
            0.10,
        );
        within(PowerModel::new(&conner_cp3100()).operating_w(), 10.0, 0.15);
        within(
            PowerModel::new(&fujitsu_m2361a()).operating_w(),
            640.0,
            0.15,
        );
        // The 3380 had 4 actuators; its box power is quoted with all
        // actuators at duty.
        let p3380 = PowerModel::new(&ibm_3380_ak4());
        let box_w = p3380.idle_w() + 4.0 * p3380.vcm_w() * crate::power::OPERATING_SEEK_DUTY;
        within(box_w, 6600.0, 0.15);
        within(PowerModel::new(&barracuda_es_750gb()).peak_w(4), 34.0, 0.05);
    }

    #[test]
    fn modern_drive_two_orders_cheaper_power_than_mainframe() {
        let modern = PowerModel::new(&barracuda_es_750gb()).operating_w();
        let mainframe = PowerModel::new(&ibm_3380_ak4()).operating_w();
        assert!(mainframe / modern > 100.0);
    }

    #[test]
    fn md_drives_capacities_match_table2() {
        assert!((array_drive_10k_19gb().capacity_gb() - 19.07).abs() < 1e-9);
        assert!((array_drive_10k_37gb().capacity_gb() - 37.17).abs() < 1e-9);
        assert!((array_drive_7200_36gb().capacity_gb() - 35.96).abs() < 1e-9);
    }

    #[test]
    fn ten_k_rpm_drives_rotate_faster() {
        let p = array_drive_10k_19gb();
        assert!((p.rotation_period().as_millis() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn rpm_variants() {
        for rpm in [6200, 5200, 4200] {
            let p = barracuda_es_at_rpm(rpm);
            assert_eq!(p.rpm(), rpm);
            assert_eq!(
                p.capacity_sectors(),
                barracuda_es_750gb().capacity_sectors()
            );
        }
    }
}
