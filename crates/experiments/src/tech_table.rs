//! Table 1: comparison of disk-drive technologies over time.
//!
//! The published columns mix datasheet facts (areal density, diameter,
//! capacity, price) with modelled quantities (power). Facts are encoded
//! from the paper; power is *computed* from the [`diskmodel::power`]
//! scaling laws, which is the point — the same model that prices the
//! hypothetical 4-actuator drive at 34 W prices the IBM 3380 at
//! 6 600 W, reproducing the trend reversal that motivates the paper.

use diskmodel::{presets, DiskParams, PowerModel};

use crate::report;

/// True if this row is the paper's hypothetical modern multi-actuator
/// projection (a modern-technology drive, power factor 1, quoted with
/// more than one assembly).
fn modern_projection(params: &DiskParams, actuators: u32) -> bool {
    actuators > 1 && (params.technology_power_factor() - 1.0).abs() < 1e-9
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct TechRow {
    /// Drive parameters (power is computed from these).
    pub params: DiskParams,
    /// Areal density, Mb/in² (published).
    pub areal_density_mb_in2: f64,
    /// Number of actuators.
    pub actuators: u32,
    /// Published power per box, W (reference value).
    pub published_power_w: f64,
    /// Published price per MB, dollars (None for the hypothetical
    /// drive, whose cost §9 analyses instead).
    pub price_per_mb: Option<(f64, f64)>,
    /// Modelled power per box, W.
    pub modeled_power_w: f64,
}

/// Builds all five rows of Table 1.
pub fn table1() -> Vec<TechRow> {
    let row = |params: DiskParams,
               areal: f64,
               actuators: u32,
               published: f64,
               price: Option<(f64, f64)>| {
        let pm = PowerModel::new(&params);
        // Products are quoted at operating duty on all their actuators;
        // the hypothetical parallel drive is quoted worst-case (§3).
        let modeled = if modern_projection(&params, actuators) {
            pm.peak_w(actuators)
        } else {
            pm.idle_w() + actuators as f64 * pm.vcm_w() * diskmodel::power::OPERATING_SEEK_DUTY
        };
        TechRow {
            params,
            areal_density_mb_in2: areal,
            actuators,
            published_power_w: published,
            price_per_mb: price,
            modeled_power_w: modeled,
        }
    };
    vec![
        row(
            presets::ibm_3380_ak4(),
            14.0,
            4,
            6_600.0,
            Some((10.0, 18.0)),
        ),
        row(
            presets::fujitsu_m2361a(),
            12.0,
            1,
            640.0,
            Some((17.0, 20.0)),
        ),
        row(presets::conner_cp3100(), 10.5, 1, 10.0, Some((7.0, 10.0))),
        row(
            presets::barracuda_es_750gb(),
            128_000.0,
            1,
            13.0,
            Some((0.00034, 0.00042)),
        ),
        row(presets::barracuda_es_750gb(), 128_000.0, 4, 34.0, None),
    ]
}

/// Renders Table 1.
pub fn render() -> String {
    let headers = [
        "drive",
        "areal Mb/in2",
        "diam in",
        "capacity MB",
        "actuators",
        "power W (model)",
        "power W (paper)",
        "$/MB",
    ];
    let rows: Vec<Vec<String>> = table1()
        .iter()
        .map(|r| {
            vec![
                if modern_projection(&r.params, r.actuators) {
                    format!("{} (4-actuator projection)", r.params.name())
                } else {
                    r.params.name().to_string()
                },
                format!("{}", r.areal_density_mb_in2),
                format!("{:.1}", r.params.diameter_in()),
                format!("{:.0}", r.params.capacity_gb() * 1000.0),
                r.actuators.to_string(),
                format!("{:.0}", r.modeled_power_w),
                format!("{:.0}", r.published_power_w),
                match r.price_per_mb {
                    Some((lo, hi)) => format!("${lo}-{hi}"),
                    None => "see §9".to_string(),
                },
            ]
        })
        .collect();
    format!(
        "Table 1: Comparison of disk drive technologies over time\n{}",
        report::table(&headers, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_power_tracks_published() {
        for r in table1() {
            let err = (r.modeled_power_w - r.published_power_w).abs() / r.published_power_w;
            assert!(
                err < 0.15,
                "{}: modeled {:.1} vs published {:.1}",
                r.params.name(),
                r.modeled_power_w,
                r.published_power_w
            );
        }
    }

    #[test]
    fn trend_reversal_reproduced() {
        let rows = table1();
        let ibm = &rows[0];
        let barracuda = &rows[3];
        let parallel = &rows[4];
        // Old multi-actuator drive: two orders of magnitude above a
        // modern drive. Modern 4-actuator projection: within 3x.
        assert!(ibm.modeled_power_w / barracuda.modeled_power_w > 100.0);
        assert!(parallel.modeled_power_w / barracuda.modeled_power_w < 3.0);
    }

    #[test]
    fn capacity_progression() {
        let rows = table1();
        // Modern drive has ~5 orders of magnitude more capacity than
        // the CP3100.
        let ratio = rows[3].params.capacity_gb() / rows[2].params.capacity_gb();
        assert!(ratio > 5_000.0, "ratio {ratio}");
    }

    #[test]
    fn render_contains_every_drive() {
        let s = render();
        for name in ["IBM 3380", "Fujitsu", "Conner", "Barracuda"] {
            assert!(s.contains(name), "missing {name}");
        }
        assert!(s.contains("4-actuator projection"));
    }
}
