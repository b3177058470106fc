//! Drive parameter sets.
//!
//! [`DiskParams`] is an immutable, validated description of one drive
//! model: platter count and size, rotational speed, seek characteristics,
//! capacity, cache size, and the calibration constants of the power
//! model. Instances are built with [`DiskParamsBuilder`] (or taken from
//! [`presets`](crate::presets)).

use crate::error::DiskModelError;
use simkit::SimDuration;

/// Bytes per sector (fixed at 512, as in the traced systems).
pub const SECTOR_BYTES: u64 = 512;

/// A validated, immutable drive parameter set.
///
/// ```
/// use diskmodel::DiskParams;
///
/// let params = DiskParams::builder("demo")
///     .capacity_gb(18.0)
///     .platters(4)
///     .diameter_in(3.5)
///     .rpm(10_000)
///     .seek_profile_ms(0.6, 5.0, 10.5)
///     .build()?;
/// assert_eq!(params.surfaces(), 8);
/// # Ok::<(), diskmodel::DiskModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    name: String,
    capacity_gb: f64,
    platters: u32,
    diameter_in: f64,
    rpm: u32,
    cylinders: u32,
    zones: u32,
    outer_inner_ratio: f64,
    cache_mib: u32,
    single_cylinder_seek_ms: f64,
    average_seek_ms: f64,
    full_stroke_seek_ms: f64,
    head_switch_ms: f64,
    controller_overhead_ms: f64,
    /// Technology-generation multiplier applied to the whole
    /// electro-mechanical power budget (older drives burn more power for
    /// the same physical configuration; see DESIGN.md).
    technology_power_factor: f64,
    electronics_w: f64,
}

impl DiskParams {
    /// Starts building a parameter set named `name`.
    pub fn builder(name: impl Into<String>) -> DiskParamsBuilder {
        DiskParamsBuilder::new(name)
    }

    /// Human-readable model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Formatted capacity in gigabytes (10^9 bytes).
    pub fn capacity_gb(&self) -> f64 {
        self.capacity_gb
    }

    /// Total addressable sectors.
    pub fn capacity_sectors(&self) -> u64 {
        (self.capacity_gb * 1e9 / SECTOR_BYTES as f64) as u64
    }

    /// Number of platters.
    pub fn platters(&self) -> u32 {
        self.platters
    }

    /// Number of recording surfaces (two per platter).
    pub fn surfaces(&self) -> u32 {
        self.platters * 2
    }

    /// Platter diameter in inches.
    pub fn diameter_in(&self) -> f64 {
        self.diameter_in
    }

    /// Spindle speed in rotations per minute.
    pub fn rpm(&self) -> u32 {
        self.rpm
    }

    /// Time for one full revolution.
    pub fn rotation_period(&self) -> SimDuration {
        SimDuration::from_millis(60_000.0 / self.rpm as f64)
    }

    /// Number of cylinders per surface.
    pub fn cylinders(&self) -> u32 {
        self.cylinders
    }

    /// Number of recording zones (zoned bit recording).
    pub fn zones(&self) -> u32 {
        self.zones
    }

    /// Ratio of sectors-per-track at the outermost zone to the
    /// innermost zone.
    pub fn outer_inner_ratio(&self) -> f64 {
        self.outer_inner_ratio
    }

    /// On-board cache size in MiB.
    pub fn cache_mib(&self) -> u32 {
        self.cache_mib
    }

    /// Single-cylinder seek time.
    pub fn single_cylinder_seek(&self) -> SimDuration {
        SimDuration::from_millis(self.single_cylinder_seek_ms)
    }

    /// Manufacturer-quoted average seek time.
    pub fn average_seek(&self) -> SimDuration {
        SimDuration::from_millis(self.average_seek_ms)
    }

    /// Full-stroke seek time.
    pub fn full_stroke_seek(&self) -> SimDuration {
        SimDuration::from_millis(self.full_stroke_seek_ms)
    }

    /// Head-switch (surface change) time.
    pub fn head_switch(&self) -> SimDuration {
        SimDuration::from_millis(self.head_switch_ms)
    }

    /// Fixed controller/firmware overhead charged per media access.
    pub fn controller_overhead(&self) -> SimDuration {
        SimDuration::from_millis(self.controller_overhead_ms)
    }

    /// Technology-generation power multiplier (1.0 for modern drives).
    pub fn technology_power_factor(&self) -> f64 {
        self.technology_power_factor
    }

    /// Power drawn by the drive electronics (controller, channel,
    /// DRAM), independent of the mechanics.
    pub fn electronics_w(&self) -> f64 {
        self.electronics_w
    }

    /// Returns a copy of these parameters re-rated at a different
    /// spindle speed, with the capacity and mechanics unchanged.
    ///
    /// Used by the reduced-RPM study (Figures 6 and 7): the paper's
    /// lower-RPM intra-disk parallel designs share the recording
    /// technology and differ only in rotational speed.
    pub fn with_rpm(&self, rpm: u32) -> DiskParams {
        let mut p = self.clone();
        assert!(rpm > 0, "rpm must be positive");
        p.rpm = rpm;
        p.name = format!("{}@{}rpm", self.name, rpm);
        p
    }

    /// Returns a copy with a different cache size (the limit study's
    /// 64 MB cache sensitivity check).
    pub fn with_cache_mib(&self, cache_mib: u32) -> DiskParams {
        let mut p = self.clone();
        p.cache_mib = cache_mib;
        p
    }
}

/// Builder for [`DiskParams`]; see the type-level example.
#[derive(Debug, Clone)]
pub struct DiskParamsBuilder {
    name: String,
    capacity_gb: f64,
    platters: u32,
    diameter_in: f64,
    rpm: u32,
    cylinders: u32,
    zones: u32,
    outer_inner_ratio: f64,
    cache_mib: u32,
    single_cylinder_seek_ms: f64,
    average_seek_ms: f64,
    full_stroke_seek_ms: f64,
    head_switch_ms: f64,
    controller_overhead_ms: f64,
    technology_power_factor: f64,
    electronics_w: f64,
}

impl DiskParamsBuilder {
    fn new(name: impl Into<String>) -> Self {
        DiskParamsBuilder {
            name: name.into(),
            capacity_gb: 18.0,
            platters: 4,
            diameter_in: 3.7,
            rpm: 7200,
            cylinders: 30_000,
            zones: 16,
            outer_inner_ratio: 1.7,
            cache_mib: 8,
            single_cylinder_seek_ms: 0.8,
            average_seek_ms: 8.5,
            full_stroke_seek_ms: 17.0,
            head_switch_ms: 0.8,
            controller_overhead_ms: 0.1,
            technology_power_factor: 1.0,
            electronics_w: 2.5,
        }
    }

    /// Formatted capacity in GB.
    pub fn capacity_gb(&mut self, gb: f64) -> &mut Self {
        self.capacity_gb = gb;
        self
    }

    /// Number of platters.
    pub fn platters(&mut self, n: u32) -> &mut Self {
        self.platters = n;
        self
    }

    /// Platter diameter in inches.
    pub fn diameter_in(&mut self, d: f64) -> &mut Self {
        self.diameter_in = d;
        self
    }

    /// Spindle speed in RPM.
    pub fn rpm(&mut self, rpm: u32) -> &mut Self {
        self.rpm = rpm;
        self
    }

    /// Cylinders per surface.
    pub fn cylinders(&mut self, c: u32) -> &mut Self {
        self.cylinders = c;
        self
    }

    /// Number of recording zones.
    pub fn zones(&mut self, z: u32) -> &mut Self {
        self.zones = z;
        self
    }

    /// Outer-to-inner sectors-per-track ratio.
    pub fn outer_inner_ratio(&mut self, r: f64) -> &mut Self {
        self.outer_inner_ratio = r;
        self
    }

    /// On-board cache in MiB.
    pub fn cache_mib(&mut self, mib: u32) -> &mut Self {
        self.cache_mib = mib;
        self
    }

    /// The three calibration points of the seek curve, in milliseconds:
    /// single-cylinder, average, and full-stroke seek time.
    pub fn seek_profile_ms(&mut self, single: f64, average: f64, full: f64) -> &mut Self {
        self.single_cylinder_seek_ms = single;
        self.average_seek_ms = average;
        self.full_stroke_seek_ms = full;
        self
    }

    /// Head-switch time in milliseconds.
    pub fn head_switch_ms(&mut self, ms: f64) -> &mut Self {
        self.head_switch_ms = ms;
        self
    }

    /// Per-access controller overhead in milliseconds.
    pub fn controller_overhead_ms(&mut self, ms: f64) -> &mut Self {
        self.controller_overhead_ms = ms;
        self
    }

    /// Technology-generation power multiplier (see DESIGN.md; 1.0 for
    /// modern drives, larger for the historical drives of Table 1).
    pub fn technology_power_factor(&mut self, f: f64) -> &mut Self {
        self.technology_power_factor = f;
        self
    }

    /// Electronics power in watts.
    pub fn electronics_w(&mut self, w: f64) -> &mut Self {
        self.electronics_w = w;
        self
    }

    /// Validates and produces the parameter set.
    ///
    /// # Errors
    /// Returns [`DiskModelError`] if any parameter is physically
    /// meaningless (zero platters, non-positive capacity, seek times out
    /// of order, ...).
    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "each `!(x > 0.0)` rejects NaN along with non-positive values"
    )]
    pub fn build(&self) -> Result<DiskParams, DiskModelError> {
        if self.name.is_empty() {
            return Err(DiskModelError::new("name must be non-empty"));
        }
        if !(self.capacity_gb > 0.0) {
            return Err(DiskModelError::new("capacity must be positive"));
        }
        if self.platters == 0 {
            return Err(DiskModelError::new("need at least one platter"));
        }
        if !(self.diameter_in > 0.0) {
            return Err(DiskModelError::new("diameter must be positive"));
        }
        if self.rpm == 0 {
            return Err(DiskModelError::new("rpm must be positive"));
        }
        if self.cylinders < 2 {
            return Err(DiskModelError::new("need at least two cylinders"));
        }
        if self.zones == 0 || self.zones > self.cylinders {
            return Err(DiskModelError::new("zones must be in [1, cylinders]"));
        }
        if !(self.outer_inner_ratio >= 1.0) {
            return Err(DiskModelError::new("outer/inner ratio must be >= 1"));
        }
        if !(self.single_cylinder_seek_ms > 0.0)
            || self.single_cylinder_seek_ms > self.average_seek_ms
            || self.average_seek_ms > self.full_stroke_seek_ms
        {
            return Err(DiskModelError::new(
                "seek profile must satisfy 0 < single <= average <= full",
            ));
        }
        if self.head_switch_ms < 0.0 || self.controller_overhead_ms < 0.0 {
            return Err(DiskModelError::new("switch/overhead must be non-negative"));
        }
        if !(self.technology_power_factor > 0.0) {
            return Err(DiskModelError::new("technology factor must be positive"));
        }
        if self.electronics_w < 0.0 {
            return Err(DiskModelError::new(
                "electronics power must be non-negative",
            ));
        }
        // Sanity: the geometry must be able to hold the capacity with a
        // plausible sectors-per-track count.
        let sectors = (self.capacity_gb * 1e9 / SECTOR_BYTES as f64) as u64;
        let tracks = self.cylinders as u64 * (self.platters as u64 * 2);
        let avg_spt = sectors as f64 / tracks as f64;
        if avg_spt < 8.0 {
            return Err(DiskModelError::new(format!(
                "average sectors/track {avg_spt:.1} implausibly small; reduce cylinders"
            )));
        }
        Ok(DiskParams {
            name: self.name.clone(),
            capacity_gb: self.capacity_gb,
            platters: self.platters,
            diameter_in: self.diameter_in,
            rpm: self.rpm,
            cylinders: self.cylinders,
            zones: self.zones,
            outer_inner_ratio: self.outer_inner_ratio,
            cache_mib: self.cache_mib,
            single_cylinder_seek_ms: self.single_cylinder_seek_ms,
            average_seek_ms: self.average_seek_ms,
            full_stroke_seek_ms: self.full_stroke_seek_ms,
            head_switch_ms: self.head_switch_ms,
            controller_overhead_ms: self.controller_overhead_ms,
            technology_power_factor: self.technology_power_factor,
            electronics_w: self.electronics_w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DiskParamsBuilder {
        DiskParams::builder("test-drive")
    }

    #[test]
    fn builds_with_defaults() {
        let p = base().build().unwrap();
        assert_eq!(p.name(), "test-drive");
        assert_eq!(p.surfaces(), 8);
        assert!(p.capacity_sectors() > 0);
    }

    #[test]
    fn rotation_period_from_rpm() {
        let p = base().rpm(10_000).build().unwrap();
        assert!((p.rotation_period().as_millis() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn with_rpm_changes_only_speed() {
        let p = base().build().unwrap();
        let q = p.with_rpm(4200);
        assert_eq!(q.rpm(), 4200);
        assert_eq!(q.capacity_sectors(), p.capacity_sectors());
        assert_eq!(q.cylinders(), p.cylinders());
        assert!(q.name().contains("4200"));
    }

    #[test]
    fn with_cache() {
        let p = base().build().unwrap().with_cache_mib(64);
        assert_eq!(p.cache_mib(), 64);
    }

    #[test]
    fn rejects_zero_platters() {
        assert!(base().platters(0).build().is_err());
    }

    #[test]
    fn rejects_unordered_seek_profile() {
        assert!(base().seek_profile_ms(5.0, 2.0, 10.0).build().is_err());
        assert!(base().seek_profile_ms(0.0, 2.0, 10.0).build().is_err());
        assert!(base().seek_profile_ms(0.5, 12.0, 10.0).build().is_err());
    }

    #[test]
    fn rejects_implausible_geometry() {
        // 1 GB spread over 4M tracks would be < 1 sector/track.
        assert!(base().capacity_gb(1.0).cylinders(500_000).build().is_err());
    }

    #[test]
    fn rejects_bad_zones() {
        assert!(base().zones(0).build().is_err());
    }

    #[test]
    fn capacity_sector_math() {
        let p = base().capacity_gb(0.5).cylinders(1000).build().unwrap();
        assert_eq!(p.capacity_sectors(), (0.5e9 / 512.0) as u64);
    }
}
