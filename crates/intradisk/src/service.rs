//! Mechanical service planning: given a request and the current state of
//! every arm assembly, compute how long the seek, rotational wait, and
//! transfer will take, and which assembly should be dispatched.
//!
//! This module is the heart of the intra-disk parallelism evaluation:
//! with `n` assemblies parked at different cylinders *and* mounted at
//! different azimuths around the spindle, the per-arm positioning time
//! differs both in its seek and its rotational component, and the
//! dispatcher picks the arm minimizing the sum (§7.2).

use diskmodel::rotation::wrap_unit;
use diskmodel::{DriveError, Geometry, PhysLoc, RotationModel, SeekProfile};
use simkit::{SimDuration, SimTime};

/// Scaling knobs of the limit study's bottleneck analysis (Figure 4):
/// multiply every seek and/or every rotational latency by a constant
/// (1, ½, ¼, or 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyScaling {
    /// Multiplier on seek times.
    pub seek: f64,
    /// Multiplier on rotational latencies.
    pub rotational: f64,
}

impl LatencyScaling {
    /// No scaling (the real drive).
    pub fn none() -> Self {
        LatencyScaling {
            seek: 1.0,
            rotational: 1.0,
        }
    }

    /// Scales only seeks (the `(1/2)S`, `(1/4)S`, `S=0` curves).
    pub fn seek_only(factor: f64) -> Self {
        LatencyScaling {
            seek: factor,
            rotational: 1.0,
        }
    }

    /// Scales only rotational latencies (the `(1/2)R`, `(1/4)R`, `R=0`
    /// curves).
    pub fn rotational_only(factor: f64) -> Self {
        LatencyScaling {
            seek: 1.0,
            rotational: factor,
        }
    }
}

impl Default for LatencyScaling {
    fn default() -> Self {
        Self::none()
    }
}

/// Angular separation (fraction of a revolution) between adjacent
/// heads mounted on the same arm, as seen from the spindle. Heads on
/// one arm are physically adjacent, so the separation is small —
/// roughly 45° — unlike independent assemblies, which mount anywhere
/// around the enclosure.
pub const HEAD_ANGULAR_SEPARATION: f64 = 0.125;

/// Where a drive's arm assemblies are mounted around the spindle.
///
/// Placement determines each assembly's fixed azimuth and therefore how
/// much of the rotational latency the extra assemblies can remove — the
/// central mechanism of the paper. `Colocated` is the ablation: all the
/// assemblies at one azimuth retain the seek benefit (closest arm wins)
/// but none of the rotational benefit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArmPlacement {
    /// Assemblies at azimuths `i/n` — Figure 1's diagonal mounting,
    /// maximizing the rotational-latency reduction.
    #[default]
    EquallySpaced,
    /// All assemblies at azimuth 0 (ablation: seek benefit only).
    Colocated,
}

impl ArmPlacement {
    /// The azimuth of assembly `index` out of `count`.
    ///
    /// # Panics
    /// Panics if `index >= count`.
    pub fn azimuth(&self, index: u32, count: u32) -> f64 {
        assert!(index < count, "assembly {index} out of {count}");
        match self {
            ArmPlacement::EquallySpaced => RotationModel::assembly_azimuth(index, count),
            ArmPlacement::Colocated => 0.0,
        }
    }
}

/// The mechanical state of one arm assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmState {
    /// Fixed mounting azimuth around the spindle (fraction of a
    /// revolution).
    pub azimuth: f64,
    /// Cylinder the assembly is currently parked over.
    pub cylinder: u32,
    /// True once the assembly has been deconfigured (§8's graceful
    /// degradation).
    pub failed: bool,
}

/// Struct-of-arrays layout of every assembly's hot mechanical state.
///
/// The dispatch inner loop (SPTF cost scan, service planning) touches
/// each live assembly's cylinder and azimuth once per pending request
/// per decision; splitting the fields into parallel arrays keeps those
/// scans on densely packed cache lines instead of striding over
/// `ArmState` records. The scalar [`ArmState`] remains the exchange
/// type for construction, calibration studies, and single-arm callers.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSet {
    azimuth: Vec<f64>,
    cylinder: Vec<u32>,
    failed: Vec<bool>,
}

impl ArmSet {
    /// Builds the set from per-assembly states.
    pub fn from_arms(arms: &[ArmState]) -> Self {
        ArmSet {
            azimuth: arms.iter().map(|a| a.azimuth).collect(),
            cylinder: arms.iter().map(|a| a.cylinder).collect(),
            failed: arms.iter().map(|a| a.failed).collect(),
        }
    }

    /// Number of assemblies (live or failed).
    pub fn len(&self) -> usize {
        self.cylinder.len()
    }

    /// True if the set has no assemblies.
    pub fn is_empty(&self) -> bool {
        self.cylinder.is_empty()
    }

    /// Number of assemblies still configured.
    pub fn live_count(&self) -> usize {
        self.failed.iter().filter(|&&f| !f).count()
    }

    /// The assembly's fixed mounting azimuth.
    pub fn azimuth(&self, idx: usize) -> f64 {
        self.azimuth[idx]
    }

    /// Cylinder the assembly is parked over.
    pub fn cylinder(&self, idx: usize) -> u32 {
        self.cylinder[idx]
    }

    /// Re-parks the assembly (after a dispatch).
    pub fn set_cylinder(&mut self, idx: usize, cylinder: u32) {
        self.cylinder[idx] = cylinder;
    }

    /// True once the assembly has been deconfigured.
    pub fn is_failed(&self, idx: usize) -> bool {
        self.failed[idx]
    }

    /// Deconfigures the assembly (§8's graceful degradation).
    pub fn set_failed(&mut self, idx: usize) {
        self.failed[idx] = true;
    }
}

/// The bundle of mechanical models for one drive.
#[derive(Debug, Clone)]
pub struct Mechanics {
    geometry: Geometry,
    seek_curve: SeekProfile,
    rotation: RotationModel,
    head_switch: SimDuration,
}

/// A fully planned media access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServicePlan {
    /// Index of the dispatched assembly.
    pub actuator: u32,
    /// Seek time of that assembly (already scaled).
    pub seek: SimDuration,
    /// Rotational wait after the seek (already scaled).
    pub rotational: SimDuration,
    /// Transfer time including head/track switches.
    pub transfer: SimDuration,
    /// Cylinder the assembly ends up parked over.
    pub end_cylinder: u32,
}

impl ServicePlan {
    /// Positioning time (seek + rotational latency).
    pub fn positioning(&self) -> SimDuration {
        self.seek + self.rotational
    }

    /// Total mechanical time.
    pub fn total(&self) -> SimDuration {
        self.seek + self.rotational + self.transfer
    }
}

/// Where a block sits, as positioning sees it: the arm-independent half
/// of every positioning estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// Where the block's first sector sits: its cylinder, surface and
    /// sector.
    pub loc: PhysLoc,
    /// Rest angle of the block's first sector (fraction of a revolution).
    pub angle: f64,
}

/// The assembly chosen to serve a request, with its positioning cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmChoice {
    /// Index of the assembly.
    pub arm: usize,
    /// Its seek time (already scaled).
    pub seek: SimDuration,
    /// Its rotational wait after the seek (already scaled).
    pub rot: SimDuration,
    /// The on-disk block the choice was priced for (the request's LBA
    /// wrapped onto the disk).
    pub(crate) lba: u64,
    /// Where that block's first sector sits, as located for pricing:
    /// planning the access starts its transfer walk here instead of
    /// locating the block again.
    pub(crate) loc: PhysLoc,
}

impl ArmChoice {
    /// Positioning time (seek + rotational wait): the SPTF key.
    #[inline]
    pub fn cost(&self) -> SimDuration {
        self.seek + self.rot
    }
}

impl Mechanics {
    /// Builds the mechanics for a drive parameter set.
    pub fn new(params: &diskmodel::DiskParams) -> Self {
        Mechanics {
            geometry: Geometry::new(params),
            seek_curve: SeekProfile::new(params),
            rotation: RotationModel::new(params),
            head_switch: params.head_switch(),
        }
    }

    /// The drive's layout.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The drive's rotation model.
    pub fn rotation(&self) -> &RotationModel {
        &self.rotation
    }

    /// The drive's seek curve.
    pub fn seek_profile(&self) -> &SeekProfile {
        &self.seek_curve
    }

    /// Where `lba` sits: its cylinder and its sector's rest angle.
    ///
    /// # Panics
    /// Panics if `lba` is beyond the drive's capacity.
    // Hot path: cost-model primitive; the dispatch scan calls it
    // once per queued request.
    #[inline]
    pub fn target(&self, lba: u64) -> Target {
        let loc = self.geometry.locate(lba);
        Target {
            loc,
            angle: self.geometry.sector_angle(loc),
        }
    }

    /// Seek time (already scaled) of an assembly parked over cylinder
    /// `from` to cylinder `to`.
    // Hot path: cost-model primitive.
    #[inline]
    pub fn seek(&self, from: u32, to: u32, scaling: LatencyScaling) -> SimDuration {
        self.seek_curve
            .seek_time(from.abs_diff(to))
            .scale(scaling.seek)
    }

    /// Rotational wait (already scaled) from `at` until `target` passes
    /// under one of the `heads` heads of an arm mounted at `azimuth`.
    ///
    /// An arm's heads share its radial position, so they share its
    /// seek; the wait is the minimum over their azimuths — the
    /// taxonomy's H dimension (§4 Level 4, Figure 1(b): heads
    /// "equidistant from the axis of actuation"). Heads mounted on *one*
    /// arm sit close together: their angular separation as seen from
    /// the spindle is only [`HEAD_ANGULAR_SEPARATION`] of a revolution,
    /// not `1/heads` — the geometric reason the paper calls
    /// H-parallelism fine-grained and prefers the A dimension, whose
    /// assemblies mount anywhere around the enclosure.
    // Hot path: cost-model primitive.
    pub fn rot(
        &self,
        target: Target,
        azimuth: f64,
        heads: u32,
        at: SimTime,
        scaling: LatencyScaling,
    ) -> SimDuration {
        self.rot_at_phase(target, azimuth, heads, self.rotation.phase(at), scaling)
    }

    /// [`Self::rot`] from the instant whose rotational phase
    /// ([`RotationModel::phase`]) is `phase`: the form a dispatch scan
    /// uses, reducing its start's phase once and advancing it by each
    /// arm's seek.
    // Hot path: cost-model primitive; once per priced arm.
    #[inline]
    pub fn rot_at_phase(
        &self,
        target: Target,
        azimuth: f64,
        heads: u32,
        phase: u64,
        scaling: LatencyScaling,
    ) -> SimDuration {
        let wait_under = |h: u32| {
            let head_azimuth = wrap_unit(azimuth + h as f64 * HEAD_ANGULAR_SEPARATION);
            self.rotation
                .wait_at_phase(target.angle, head_azimuth, phase)
        };
        // The first head before the loop: as one iterator chain, the
        // compiler leaves the minimum over the other heads an
        // out-of-line call on every priced arm.
        let mut wait = if heads == 0 {
            SimDuration::ZERO
        } else {
            wait_under(0)
        };
        for h in 1..heads {
            wait = wait.min(wait_under(h));
        }
        wait.scale(scaling.rotational)
    }

    /// Positioning cost `(seek, rotational wait)` of serving the block
    /// at `lba` with an assembly parked over `cylinder` at `azimuth`
    /// carrying `heads` heads, starting at `start`: [`Self::target`],
    /// [`Self::seek`] and [`Self::rot`] composed.
    ///
    /// # Panics
    /// Panics if `heads == 0`.
    pub fn positioning_at(
        &self,
        cylinder: u32,
        azimuth: f64,
        heads: u32,
        lba: u64,
        start: SimTime,
        scaling: LatencyScaling,
    ) -> (SimDuration, SimDuration) {
        assert!(heads > 0, "need at least one head per arm");
        let target = self.target(lba);
        let seek = self.seek(cylinder, target.loc.cylinder, scaling);
        let rot = self.rot(target, azimuth, heads, start + seek, scaling);
        (seek, rot)
    }

    /// Transfer time for `sectors` starting at `lba`: per-track rotation
    /// time, a head switch between tracks on the same cylinder, and a
    /// single-cylinder seek (which subsumes settle) when crossing
    /// cylinders. Track skew is assumed to match the switch times, so no
    /// extra rotational realignment is charged.
    pub fn transfer_time(&self, lba: u64, sectors: u32) -> SimDuration {
        self.transfer(lba, sectors).0
    }

    /// [`transfer_time`](Self::transfer_time) and the cylinder the
    /// access ends on, from one non-allocating walk over its track
    /// segments.
    pub fn transfer(&self, lba: u64, sectors: u32) -> (SimDuration, u32) {
        let last = self.geometry.total_sectors() - 1;
        self.transfer_at(self.geometry.locate(lba.min(last)), lba, sectors)
    }

    /// [`transfer`](Self::transfer) of a block already located: `first`
    /// is `geometry().locate(lba)`, and the walk starts there instead
    /// of locating `lba` again.
    // Hot path: cost-model primitive; once per media access.
    pub(crate) fn transfer_at(&self, first: PhysLoc, lba: u64, sectors: u32) -> (SimDuration, u32) {
        let mut total = SimDuration::ZERO;
        let mut prev_cyl: Option<u32> = None;
        for s in self.geometry.track_segments_at(first, lba, sectors) {
            if let Some(pc) = prev_cyl {
                if s.start.cylinder != pc {
                    total += self.seek_curve.seek_time(
                        s.start
                            .cylinder
                            .abs_diff(pc)
                            .min(self.seek_curve.max_distance()),
                    );
                } else {
                    total += self.head_switch;
                }
            }
            total += self
                .rotation
                .transfer_time(s.sectors, s.start.sectors_per_track);
            prev_cyl = Some(s.start.cylinder);
        }
        (total, prev_cyl.unwrap_or(first.cylinder))
    }

    /// Plans service of `(lba, sectors)` starting at `start`: picks the
    /// live assembly of `arms` with minimum positioning time, for arms
    /// carrying `heads` heads per surface (the `D1 An S1 Hm` family).
    /// The target is located once, then every live assembly is priced
    /// in index order, and a strict `<` keeps the first minimum.
    ///
    /// # Errors
    /// Returns [`DriveError::NoLiveArm`] if every assembly has failed.
    ///
    /// # Panics
    /// Panics if `heads == 0`.
    pub fn plan_set_with_heads(
        &self,
        arms: &ArmSet,
        heads: u32,
        lba: u64,
        sectors: u32,
        start: SimTime,
        scaling: LatencyScaling,
    ) -> Result<ServicePlan, DriveError> {
        assert!(heads > 0, "need at least one head per arm");
        let target = self.target(lba);
        let mut best: Option<ArmChoice> = None;
        for arm in 0..arms.len() {
            if arms.is_failed(arm) {
                continue;
            }
            let seek = self.seek(arms.cylinder(arm), target.loc.cylinder, scaling);
            let rot = self.rot(target, arms.azimuth(arm), heads, start + seek, scaling);
            if best.is_none_or(|b| seek + rot < b.cost()) {
                best = Some(ArmChoice {
                    arm,
                    seek,
                    rot,
                    lba,
                    loc: target.loc,
                });
            }
        }
        let choice = best.ok_or(DriveError::NoLiveArm)?;
        Ok(self.plan_for(choice, sectors))
    }

    /// Completes the plan of a `sectors`-long access to the block an
    /// assembly was chosen for (by a dispatch scan or a plan): adds the
    /// transfer time and the cylinder the access ends on, walking the
    /// transfer from the location the choice was priced at.
    pub fn plan_for(&self, choice: ArmChoice, sectors: u32) -> ServicePlan {
        let (transfer, end_cylinder) = self.transfer_at(choice.loc, choice.lba, sectors);
        ServicePlan {
            actuator: choice.arm as u32,
            seek: choice.seek,
            rotational: choice.rot,
            transfer,
            end_cylinder,
        }
    }

    /// Equally spaced azimuths for `n` assemblies (Figure 1 places two
    /// assemblies diagonally, i.e. half a revolution apart).
    pub fn default_arms(&self, n: u32) -> Vec<ArmState> {
        self.arms_with_placement(n, &ArmPlacement::EquallySpaced)
    }

    /// Arm assemblies mounted per an explicit placement.
    pub fn arms_with_placement(&self, n: u32, placement: &ArmPlacement) -> Vec<ArmState> {
        (0..n)
            .map(|i| ArmState {
                azimuth: placement.azimuth(i, n),
                cylinder: 0,
                failed: false,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::presets;

    fn mech() -> Mechanics {
        Mechanics::new(&presets::barracuda_es_750gb())
    }

    #[test]
    fn zero_distance_seek_is_free() {
        let m = mech();
        let cylinder = m.geometry().locate(0).cylinder;
        let (seek, _rot) =
            m.positioning_at(cylinder, 0.0, 1, 0, SimTime::ZERO, LatencyScaling::none());
        assert_eq!(seek, SimDuration::ZERO);
    }

    #[test]
    fn scaling_knobs_apply() {
        let m = mech();
        let lba = m.geometry().total_sectors() / 2;
        let t = SimTime::from_millis(1.0);
        let at = |scaling| m.positioning_at(0, 0.0, 1, lba, t, scaling);
        let (s1, _) = at(LatencyScaling::none());
        let (s2, _) = at(LatencyScaling::seek_only(0.5));
        assert_eq!(s2, s1.scale(0.5));
        let (_, r0) = at(LatencyScaling::rotational_only(0.0));
        assert_eq!(r0, SimDuration::ZERO);
    }

    #[test]
    fn transfer_walk_matches_segments() {
        let m = mech();
        let g = m.geometry();
        let spt = g.zones()[0].sectors_per_track as u64;
        for (lba, sectors) in [(0, 8), (spt - 4, 8), (0, 4096), (g.total_sectors() - 2, 64)] {
            let (_, end) = m.transfer(lba, sectors);
            let last = g.segments(lba, sectors).last().map(|s| s.start.cylinder);
            assert_eq!(Some(end), last, "lba {lba} x{sectors}");
        }
        let (xfer, end) = m.transfer(g.total_sectors(), 8);
        assert_eq!(xfer, SimDuration::ZERO);
        assert_eq!(end, g.locate(g.total_sectors() - 1).cylinder);
    }

    #[test]
    fn plan_picks_closer_arm() {
        let m = mech();
        let target = m.geometry().total_sectors() - 1;
        let target_cyl = m.geometry().locate(target).cylinder;
        let arms = vec![
            ArmState {
                azimuth: 0.0,
                cylinder: 0,
                failed: false,
            },
            ArmState {
                azimuth: 0.5,
                cylinder: target_cyl,
                failed: false,
            },
        ];
        let plan = m
            .plan_set_with_heads(
                &ArmSet::from_arms(&arms),
                1,
                target,
                8,
                SimTime::ZERO,
                LatencyScaling::none(),
            )
            .unwrap();
        assert_eq!(plan.actuator, 1);
        assert_eq!(plan.seek, SimDuration::ZERO);
    }

    #[test]
    fn plan_skips_failed_arm() {
        let m = mech();
        let target = m.geometry().total_sectors() - 1;
        let target_cyl = m.geometry().locate(target).cylinder;
        let arms = vec![
            ArmState {
                azimuth: 0.0,
                cylinder: 0,
                failed: false,
            },
            ArmState {
                azimuth: 0.5,
                cylinder: target_cyl,
                failed: true,
            },
        ];
        let plan = m
            .plan_set_with_heads(
                &ArmSet::from_arms(&arms),
                1,
                target,
                8,
                SimTime::ZERO,
                LatencyScaling::none(),
            )
            .unwrap();
        assert_eq!(plan.actuator, 0);
        assert!(plan.seek > SimDuration::ZERO);
    }

    #[test]
    fn all_failed_is_typed_error() {
        let m = mech();
        let arms = vec![ArmState {
            azimuth: 0.0,
            cylinder: 0,
            failed: true,
        }];
        let err = m
            .plan_set_with_heads(
                &ArmSet::from_arms(&arms),
                1,
                0,
                8,
                SimTime::ZERO,
                LatencyScaling::none(),
            )
            .unwrap_err();
        assert_eq!(err, DriveError::NoLiveArm);
    }

    #[test]
    fn more_arms_never_worse_positioning() {
        let m = mech();
        for n in 1..=4u32 {
            let arms_n = m.default_arms(n);
            let arms_1 = m.default_arms(1);
            for i in 0..50u64 {
                let lba = (i * 16_777_213) % m.geometry().total_sectors();
                let t = SimTime::from_millis(i as f64 * 0.93);
                let p_n = m
                    .plan_set_with_heads(
                        &ArmSet::from_arms(&arms_n),
                        1,
                        lba,
                        8,
                        t,
                        LatencyScaling::none(),
                    )
                    .unwrap();
                let p_1 = m
                    .plan_set_with_heads(
                        &ArmSet::from_arms(&arms_1),
                        1,
                        lba,
                        8,
                        t,
                        LatencyScaling::none(),
                    )
                    .unwrap();
                assert!(
                    p_n.positioning() <= p_1.positioning(),
                    "n={n} lba={lba}: {} > {}",
                    p_n.positioning(),
                    p_1.positioning()
                );
            }
        }
    }

    #[test]
    fn four_arms_bound_rotational_wait() {
        let m = mech();
        let arms = m.default_arms(4);
        let quarter = m.rotation().period().as_millis() / 4.0;
        for i in 0..200u64 {
            let lba = (i * 7_368_787) % m.geometry().total_sectors();
            // Park all arms on the target cylinder so seek is zero and
            // the rotational bound is exact.
            let cyl = m.geometry().locate(lba).cylinder;
            let parked: Vec<ArmState> = arms
                .iter()
                .map(|a| ArmState {
                    cylinder: cyl,
                    ..*a
                })
                .collect();
            let p = m
                .plan_set_with_heads(
                    &ArmSet::from_arms(&parked),
                    1,
                    lba,
                    1,
                    SimTime::from_millis(i as f64 * 1.31),
                    LatencyScaling::none(),
                )
                .unwrap();
            assert!(
                p.rotational.as_millis() <= quarter + 1e-3,
                "rot {} > quarter {quarter}",
                p.rotational
            );
        }
    }

    #[test]
    fn transfer_time_monotone_in_size() {
        let m = mech();
        let t8 = m.transfer_time(0, 8);
        let t64 = m.transfer_time(0, 64);
        let t4096 = m.transfer_time(0, 4096);
        assert!(t8 < t64 && t64 < t4096);
    }

    #[test]
    fn cross_track_transfer_charges_switch() {
        let m = mech();
        let spt = m.geometry().zones()[0].sectors_per_track;
        let within = m.transfer_time(0, 8);
        let crossing = m.transfer_time(spt as u64 - 4, 8);
        assert!(crossing > within);
    }

    #[test]
    fn placement_azimuths() {
        let eq = ArmPlacement::EquallySpaced;
        assert_eq!(eq.azimuth(0, 4), 0.0);
        assert!((eq.azimuth(1, 4) - 0.25).abs() < 1e-12);
        let co = ArmPlacement::Colocated;
        assert_eq!(co.azimuth(3, 4), 0.0);
    }

    #[test]
    fn colocated_arms_have_no_rotational_advantage() {
        let m = mech();
        let spaced = m.arms_with_placement(4, &ArmPlacement::EquallySpaced);
        let stacked = m.arms_with_placement(4, &ArmPlacement::Colocated);
        // With all arms parked on the target cylinder, the best
        // rotational wait of the spaced set is never worse, and is
        // strictly better on average.
        let mut spaced_total = 0.0;
        let mut stacked_total = 0.0;
        for i in 0..200u64 {
            let lba = (i * 7_368_787) % m.geometry().total_sectors();
            let cyl = m.geometry().locate(lba).cylinder;
            let park = |arms: &[ArmState]| -> Vec<ArmState> {
                arms.iter()
                    .map(|a| ArmState {
                        cylinder: cyl,
                        ..*a
                    })
                    .collect()
            };
            let now = SimTime::from_millis(i as f64 * 1.17);
            let ps = m
                .plan_set_with_heads(
                    &ArmSet::from_arms(&park(&spaced)),
                    1,
                    lba,
                    1,
                    now,
                    LatencyScaling::none(),
                )
                .unwrap();
            let pc = m
                .plan_set_with_heads(
                    &ArmSet::from_arms(&park(&stacked)),
                    1,
                    lba,
                    1,
                    now,
                    LatencyScaling::none(),
                )
                .unwrap();
            assert!(ps.rotational <= pc.rotational, "spaced worse at {i}");
            spaced_total += ps.rotational.as_millis();
            stacked_total += pc.rotational.as_millis();
        }
        assert!(
            spaced_total < stacked_total * 0.5,
            "{spaced_total} vs {stacked_total}"
        );
    }

    #[test]
    fn default_arms_spacing() {
        let m = mech();
        let arms = m.default_arms(4);
        assert_eq!(arms.len(), 4);
        assert_eq!(arms[0].azimuth, 0.0);
        assert!((arms[2].azimuth - 0.5).abs() < 1e-12);
    }
}
