//! Zoned-bit-recording geometry and the logical-to-physical mapping.
//!
//! A drive's surface is divided into concentric *zones*; outer zones pack
//! more sectors per track (the paper's §1 notes that practitioners
//! deliberately place data on outer tracks for their higher data rates).
//! Logical blocks are laid out zone-by-zone, cylinder-major: all
//! surfaces of a cylinder are filled before moving inward.
//!
//! The geometry also assigns every sector a *rotational angle* (fraction
//! of a revolution), including track and cylinder skew, which is what
//! lets the simulator compute rotational latencies exactly — the central
//! quantity of the whole study.

use crate::params::DiskParams;

/// One recording zone: a contiguous run of cylinders sharing a
/// sectors-per-track count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// Index of the first (outermost) cylinder of the zone.
    pub first_cylinder: u32,
    /// Number of cylinders in the zone.
    pub cylinders: u32,
    /// Sectors per track throughout the zone.
    pub sectors_per_track: u32,
    /// First logical block of the zone.
    pub first_lba: u64,
}

impl Zone {
    /// Sectors held by the whole zone.
    pub fn sectors(&self, surfaces: u32) -> u64 {
        self.cylinders as u64 * surfaces as u64 * self.sectors_per_track as u64
    }
}

/// The physical location of a logical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysLoc {
    /// Cylinder index (0 = outermost).
    pub cylinder: u32,
    /// Surface index (0-based).
    pub surface: u32,
    /// Sector index within the track.
    pub sector: u32,
    /// Sectors per track at this location.
    pub sectors_per_track: u32,
    /// Zone index.
    pub zone: u32,
}

/// A contiguous run of sectors on a single track, produced when a
/// multi-sector request is decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackSegment {
    /// First logical block of the segment.
    pub first_lba: u64,
    /// Number of sectors in the segment (fits in one track).
    pub sectors: u32,
    /// Location of the first sector.
    pub start: PhysLoc,
}

/// The complete layout of one drive.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    zones: Vec<Zone>,
    surfaces: u32,
    cylinders: u32,
    total_sectors: u64,
    /// Rotational skew added per track (fraction of a revolution),
    /// hiding the head-switch time during sequential transfers.
    track_skew: f64,
}

impl Geometry {
    /// Builds the layout for a parameter set.
    ///
    /// Zone sectors-per-track counts decrease linearly from
    /// `outer_inner_ratio × base` to `base` across the zones, with
    /// `base` solved so that the total sector count matches the drive's
    /// formatted capacity as closely as integer rounding allows.
    pub fn new(params: &DiskParams) -> Self {
        let cylinders = params.cylinders();
        let surfaces = params.surfaces();
        let nz = params.zones().min(cylinders);
        let ratio = params.outer_inner_ratio();

        // Cylinder count per zone (outer zones get the remainder).
        let base_cyls = cylinders / nz;
        let extra = cylinders % nz;

        // Relative sectors-per-track factor per zone, outermost first.
        let factor = |i: u32| -> f64 {
            if nz == 1 {
                (ratio + 1.0) / 2.0
            } else {
                ratio - (ratio - 1.0) * i as f64 / (nz - 1) as f64
            }
        };

        // Solve the base sectors-per-track so total capacity matches.
        let mut weighted_tracks = 0.0;
        let mut zone_cyls = Vec::with_capacity(nz as usize);
        for i in 0..nz {
            let c = base_cyls + u32::from(i < extra);
            zone_cyls.push(c);
            weighted_tracks += c as f64 * surfaces as f64 * factor(i);
        }
        let want_sectors = params.capacity_sectors() as f64;
        let base_spt = want_sectors / weighted_tracks;

        let mut zones = Vec::with_capacity(nz as usize);
        let mut first_cylinder = 0u32;
        let mut first_lba = 0u64;
        for i in 0..nz {
            let spt = (base_spt * factor(i)).round().max(1.0) as u32;
            let z = Zone {
                first_cylinder,
                cylinders: zone_cyls[i as usize],
                sectors_per_track: spt,
                first_lba,
            };
            first_cylinder += z.cylinders;
            first_lba += z.sectors(surfaces);
            zones.push(z);
        }

        let period_ms = params.rotation_period().as_millis();
        let track_skew = (params.head_switch().as_millis() / period_ms).fract();

        Geometry {
            zones,
            surfaces,
            cylinders,
            total_sectors: first_lba,
            track_skew,
        }
    }

    /// Total addressable sectors (the authoritative capacity for LBA
    /// addressing; within rounding of the formatted capacity).
    #[inline]
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Number of recording surfaces.
    pub fn surfaces(&self) -> u32 {
        self.surfaces
    }

    /// Number of cylinders.
    pub fn cylinders(&self) -> u32 {
        self.cylinders
    }

    /// The recording zones, outermost first.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Maps a logical block to its physical location.
    ///
    /// # Panics
    /// Panics if `lba >= total_sectors()`.
    #[inline]
    pub fn locate(&self, lba: u64) -> PhysLoc {
        let zi = self
            .zones
            .partition_point(|z| z.first_lba <= lba)
            .saturating_sub(1);
        let z = &self.zones[zi];
        assert!(lba < self.total_sectors, "lba {lba} out of range");
        let off = lba - z.first_lba;
        let per_cyl = z.sectors_per_track as u64 * self.surfaces as u64;
        let cyl_in_zone = (off / per_cyl) as u32;
        let rem = off % per_cyl;
        let surface = (rem / z.sectors_per_track as u64) as u32;
        let sector = (rem % z.sectors_per_track as u64) as u32;
        PhysLoc {
            cylinder: z.first_cylinder + cyl_in_zone,
            surface,
            sector,
            sectors_per_track: z.sectors_per_track,
            zone: zi as u32,
        }
    }

    /// Maps a physical location back to its logical block (inverse of
    /// [`locate`](Self::locate)).
    ///
    /// # Panics
    /// Panics if the location is out of range for its zone.
    pub fn lba_of(&self, loc: PhysLoc) -> u64 {
        let z = &self.zones[loc.zone as usize];
        assert!(
            loc.cylinder >= z.first_cylinder && loc.cylinder < z.first_cylinder + z.cylinders,
            "cylinder outside zone"
        );
        assert!(loc.surface < self.surfaces && loc.sector < z.sectors_per_track);
        let per_cyl = z.sectors_per_track as u64 * self.surfaces as u64;
        z.first_lba
            + (loc.cylinder - z.first_cylinder) as u64 * per_cyl
            + loc.surface as u64 * z.sectors_per_track as u64
            + loc.sector as u64
    }

    /// The rotational angle (fraction of a revolution in `[0, 1)`) at
    /// which the given sector begins, including track skew.
    #[inline]
    pub fn sector_angle(&self, loc: PhysLoc) -> f64 {
        let track_index = loc.cylinder as u64 * self.surfaces as u64 + loc.surface as u64;
        let skew = self.track_skew * track_index as f64;
        (loc.sector as f64 / loc.sectors_per_track as f64 + skew).fract()
    }

    /// Decomposes a request of `count` sectors starting at `lba` into
    /// per-track segments.
    ///
    /// The request is clamped at the end of the disk (the tail is
    /// silently dropped), mirroring how trace replay tools handle
    /// requests that run off the end of a smaller replayed device.
    pub fn segments(&self, lba: u64, count: u32) -> Vec<TrackSegment> {
        self.track_segments(lba, count).collect()
    }

    /// [`segments`](Self::segments) as a non-allocating walk: yields the
    /// same per-track segments in the same order.
    pub fn track_segments(&self, lba: u64, count: u32) -> impl Iterator<Item = TrackSegment> + '_ {
        let first = self.locate(lba.min(self.total_sectors - 1));
        self.track_segments_at(first, lba, count)
    }

    /// [`track_segments`](Self::track_segments) of a block already
    /// located: the walk takes `first` as its first segment's start
    /// instead of locating `lba` again.
    ///
    /// `first` must be `locate(lba)`, or the last sector's location if
    /// `lba` is past the end (the walk is then empty); a debug build
    /// asserts it.
    // simlint: hot — walked once per media access (transfer time and
    // end cylinder).
    pub fn track_segments_at(
        &self,
        first: PhysLoc,
        lba: u64,
        count: u32,
    ) -> impl Iterator<Item = TrackSegment> + '_ {
        debug_assert!(
            self.locate(lba.min(self.total_sectors - 1)) == first,
            "{first:?} is not the location of lba {lba}"
        );
        let mut cur = lba.min(self.total_sectors);
        let end = lba.saturating_add(count as u64).min(self.total_sectors);
        let mut loc = first;
        std::iter::from_fn(move || {
            (cur < end).then(|| {
                let left_in_track = (loc.sectors_per_track - loc.sector) as u64;
                let take = left_in_track.min(end - cur) as u32;
                let seg = TrackSegment {
                    first_lba: cur,
                    sectors: take,
                    start: loc,
                };
                cur += take as u64;
                if cur < end {
                    loc = self.locate(cur);
                }
                seg
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DiskParams;

    fn small_geom() -> Geometry {
        let p = DiskParams::builder("g")
            .capacity_gb(0.4)
            .platters(2)
            .cylinders(500)
            .zones(5)
            .outer_inner_ratio(2.0)
            .build()
            .unwrap();
        Geometry::new(&p)
    }

    #[test]
    fn zones_cover_all_cylinders_contiguously() {
        let g = small_geom();
        let mut next = 0;
        for z in g.zones() {
            assert_eq!(z.first_cylinder, next);
            next += z.cylinders;
        }
        assert_eq!(next, g.cylinders());
    }

    #[test]
    fn outer_zones_have_more_sectors() {
        let g = small_geom();
        let spts: Vec<u32> = g.zones().iter().map(|z| z.sectors_per_track).collect();
        assert!(spts.windows(2).all(|w| w[0] >= w[1]), "{spts:?}");
        let ratio = spts[0] as f64 / spts[spts.len() - 1] as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn capacity_close_to_requested() {
        let p = DiskParams::builder("g")
            .capacity_gb(0.4)
            .platters(2)
            .cylinders(500)
            .build()
            .unwrap();
        let g = Geometry::new(&p);
        let err = (g.total_sectors() as f64 - p.capacity_sectors() as f64).abs()
            / p.capacity_sectors() as f64;
        assert!(err < 0.01, "relative error {err}");
    }

    #[test]
    fn locate_lba_roundtrip_exhaustive_boundaries() {
        let g = small_geom();
        // Check the first/last few LBAs of every zone plus a stride walk.
        let mut probes = Vec::new();
        for z in g.zones() {
            probes.extend([z.first_lba, z.first_lba + 1]);
            let zend = z.first_lba + z.sectors(g.surfaces()) - 1;
            probes.extend([zend.saturating_sub(1), zend]);
        }
        probes.extend((0..g.total_sectors()).step_by(7919));
        for lba in probes {
            let loc = g.locate(lba);
            assert_eq!(g.lba_of(loc), lba, "roundtrip failed at {lba}");
        }
    }

    #[test]
    fn consecutive_lbas_are_rotationally_adjacent() {
        let g = small_geom();
        let loc0 = g.locate(10);
        let loc1 = g.locate(11);
        assert_eq!(loc0.cylinder, loc1.cylinder);
        assert_eq!(loc0.surface, loc1.surface);
        assert_eq!(loc1.sector, loc0.sector + 1);
        let gap = (g.sector_angle(loc1) - g.sector_angle(loc0)).rem_euclid(1.0);
        assert!((gap - 1.0 / loc0.sectors_per_track as f64).abs() < 1e-9);
    }

    #[test]
    fn angles_in_unit_interval() {
        let g = small_geom();
        for lba in (0..g.total_sectors()).step_by(997) {
            let a = g.sector_angle(g.locate(lba));
            assert!((0.0..1.0).contains(&a), "angle {a}");
        }
    }

    #[test]
    fn segments_single_track() {
        let g = small_geom();
        let segs = g.segments(0, 4);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].sectors, 4);
        assert_eq!(segs[0].first_lba, 0);
    }

    #[test]
    fn segments_cross_track_boundary() {
        let g = small_geom();
        let spt = g.zones()[0].sectors_per_track;
        let segs = g.segments(spt as u64 - 2, 5);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].sectors, 2);
        assert_eq!(segs[1].sectors, 3);
        assert_eq!(segs[1].start.surface, 1);
        let total: u32 = segs.iter().map(|s| s.sectors).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn segments_clamped_at_disk_end() {
        let g = small_geom();
        let end = g.total_sectors();
        let segs = g.segments(end - 2, 100);
        let total: u32 = segs.iter().map(|s| s.sectors).sum();
        assert_eq!(total, 2);
        assert!(g.segments(end, 8).is_empty());
    }

    #[test]
    fn zone_containing_matches_locate() {
        let g = small_geom();
        for lba in (0..g.total_sectors()).step_by(1231) {
            let z = g.zones().iter().rev().find(|z| z.first_lba <= lba).unwrap();
            let loc = g.locate(lba);
            assert_eq!(z.sectors_per_track, loc.sectors_per_track);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_out_of_range_panics() {
        let g = small_geom();
        g.locate(g.total_sectors());
    }

    #[test]
    fn single_zone_geometry_works() {
        let p = DiskParams::builder("z1")
            .capacity_gb(0.1)
            .platters(1)
            .cylinders(100)
            .zones(1)
            .build()
            .unwrap();
        let g = Geometry::new(&p);
        assert_eq!(g.zones().len(), 1);
        let loc = g.locate(g.total_sectors() - 1);
        assert_eq!(g.lba_of(loc), g.total_sectors() - 1);
    }
}
