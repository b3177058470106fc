//! Block layouts: how a logical volume address maps onto member disks.
//!
//! Three layouts are provided:
//!
//! * **Striped** (RAID-0) — fixed-size stripe units rotate round-robin
//!   across the disks; the performance-tuned MD arrays and the §7.3
//!   synthetic arrays use this.
//! * **Concatenated** — disk 0's blocks, then disk 1's, and so on. This
//!   is exactly the layout the limit study assumes when the MD dataset
//!   is migrated onto HC-SD ("HC-SD is sequentially populated with data
//!   from each of the drives in MD", §7.1).
//! * **Raid5** — left-symmetric rotating parity. Reads map like
//!   striping over the data units; small writes expand into the classic
//!   read-modify-write: phase 1 reads the old data and parity, phase 2
//!   writes both back.

use intradisk::{IoKind, IoRequest};

/// Default stripe unit: 128 sectors = 64 KiB.
pub const DEFAULT_STRIPE_SECTORS: u64 = 128;

/// A pass of a two-phase operation: [`MappedRequest`] keeps each
/// pass's sub-requests in its own list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Immediately issuable work (reads; RAID-5 pre-read of old data
    /// and parity).
    One,
    /// Work that may only start after every phase-1 sub-request of the
    /// same logical request has completed (RAID-5 data+parity writes).
    Two,
}

/// A per-disk piece of a logical request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubRequest {
    /// Member disk index.
    pub disk: usize,
    /// LBA on that disk.
    pub lba: u64,
    /// Length in sectors.
    pub sectors: u32,
    /// Read or write.
    pub kind: IoKind,
}

/// The decomposition of one logical request.
///
/// [`Layout::map_into`] refills it in place, so a buffer reused across
/// requests stops allocating once it has held the widest request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MappedRequest {
    /// Sub-requests issuable immediately.
    pub phase_one: Vec<SubRequest>,
    /// Sub-requests gated on phase one (empty except for RAID-5
    /// writes).
    pub phase_two: Vec<SubRequest>,
}

impl MappedRequest {
    /// True if the mapping produced no work (request fell entirely
    /// beyond the volume).
    pub fn is_empty(&self) -> bool {
        self.phase_one.is_empty() && self.phase_two.is_empty()
    }
}

/// A volume layout over `n` identical member disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// RAID-0 with the given stripe unit (sectors).
    Striped {
        /// Stripe unit in sectors.
        stripe_sectors: u64,
    },
    /// Plain concatenation of the member disks.
    Concatenated,
    /// Left-symmetric RAID-5 with the given stripe unit (sectors).
    Raid5 {
        /// Stripe unit in sectors.
        stripe_sectors: u64,
    },
}

impl Layout {
    /// RAID-0 with the default 64 KiB stripe unit.
    pub fn striped_default() -> Self {
        Layout::Striped {
            stripe_sectors: DEFAULT_STRIPE_SECTORS,
        }
    }

    /// RAID-5 with the default 64 KiB stripe unit.
    pub fn raid5_default() -> Self {
        Layout::Raid5 {
            stripe_sectors: DEFAULT_STRIPE_SECTORS,
        }
    }

    /// Logical capacity (sectors) of a volume over `disks` members of
    /// `per_disk` sectors each.
    pub fn logical_capacity(&self, disks: usize, per_disk: u64) -> u64 {
        let n = disks as u64;
        match self {
            Layout::Striped { .. } | Layout::Concatenated => n * per_disk,
            Layout::Raid5 { .. } => {
                assert!(disks >= 2, "RAID-5 needs at least two disks (got {disks})");
                (n - 1) * per_disk
            }
        }
    }

    /// Decomposes a logical request into per-disk sub-requests,
    /// replacing the contents of `out`. The mapping is a pure function
    /// of its arguments.
    ///
    /// Addresses beyond the logical capacity wrap (consistent with the
    /// drive model's trace-replay convention).
    ///
    /// # Panics
    /// Panics if `disks == 0` (or `< 2` for RAID-5).
    pub fn map_into(&self, disks: usize, per_disk: u64, req: &IoRequest, out: &mut MappedRequest) {
        assert!(disks > 0, "array needs at least one disk");
        out.phase_one.clear();
        out.phase_two.clear();
        let cap = self.logical_capacity(disks, per_disk);
        let lba = req.lba % cap;
        match self {
            Layout::Concatenated => map_concat(disks, per_disk, lba, req, out),
            Layout::Striped { stripe_sectors } => {
                map_striped(disks, *stripe_sectors, lba, req, out)
            }
            Layout::Raid5 { stripe_sectors } => map_raid5(disks, *stripe_sectors, lba, req, out),
        }
    }
}

fn map_concat(disks: usize, per_disk: u64, lba: u64, req: &IoRequest, out: &mut MappedRequest) {
    let mut cur = lba;
    let mut left = req.sectors as u64;
    let cap = disks as u64 * per_disk;
    while left > 0 && cur < cap {
        let disk = (cur / per_disk) as usize;
        let off = cur % per_disk;
        let take = (per_disk - off).min(left);
        out.phase_one.push(SubRequest {
            disk,
            lba: off,
            sectors: take as u32,
            kind: req.kind,
        });
        cur += take;
        left -= take;
    }
}

fn map_striped(disks: usize, stripe: u64, lba: u64, req: &IoRequest, out: &mut MappedRequest) {
    let n = disks as u64;
    let mut cur = lba;
    let mut left = req.sectors as u64;
    while left > 0 {
        let unit = cur / stripe;
        let within = cur % stripe;
        let disk = (unit % n) as usize;
        let row = unit / n;
        let take = (stripe - within).min(left);
        push_coalesced(
            &mut out.phase_one,
            SubRequest {
                disk,
                lba: row * stripe + within,
                sectors: take as u32,
                kind: req.kind,
            },
        );
        cur += take;
        left -= take;
    }
}

/// Left-symmetric RAID-5: in row `r`, the parity unit lives on disk
/// `(n - 1 - (r % n))`; data units fill the remaining disks starting
/// just after the parity disk, wrapping around.
fn raid5_disks(n: u64, row: u64, data_index: u64) -> (usize, usize) {
    let parity = (n - 1 - (row % n)) as usize;
    let data = ((parity as u64 + 1 + data_index) % n) as usize;
    (data, parity)
}

fn map_raid5(disks: usize, stripe: u64, lba: u64, req: &IoRequest, out: &mut MappedRequest) {
    assert!(disks >= 2, "RAID-5 needs at least two disks");
    let n = disks as u64;
    let data_per_row = n - 1;
    // Rows are visited in increasing order, so a row's parity is new
    // exactly when the row differs from the last one that added parity.
    let mut parity_row = None;
    let mut cur = lba;
    let mut left = req.sectors as u64;
    while left > 0 {
        let unit = cur / stripe;
        let within = cur % stripe;
        let row = unit / data_per_row;
        let data_index = unit % data_per_row;
        let (data_disk, parity_disk) = raid5_disks(n, row, data_index);
        let take = (stripe - within).min(left);
        let disk_lba = row * stripe + within;
        let sub = |disk, kind| SubRequest {
            disk,
            lba: disk_lba,
            sectors: take as u32,
            kind,
        };
        push_coalesced(&mut out.phase_one, sub(data_disk, IoKind::Read));
        if req.kind == IoKind::Write {
            // Read-modify-write: pre-read old data & old parity, then
            // write both.
            push_coalesced(&mut out.phase_two, sub(data_disk, IoKind::Write));
            if parity_row != Some(row) {
                parity_row = Some(row);
                out.phase_one.push(sub(parity_disk, IoKind::Read));
                out.phase_two.push(sub(parity_disk, IoKind::Write));
            }
        }
        cur += take;
        left -= take;
    }
}

/// Merges a sub-request into the previous one when physically
/// contiguous on the same disk (adjacent stripe rows line up).
fn push_coalesced(list: &mut Vec<SubRequest>, sub: SubRequest) {
    if let Some(last) = list.last_mut() {
        if last.disk == sub.disk
            && last.kind == sub.kind
            && last.lba + last.sectors as u64 == sub.lba
        {
            last.sectors += sub.sectors;
            return;
        }
    }
    list.push(sub);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    fn read(lba: u64, sectors: u32) -> IoRequest {
        IoRequest::new(0, SimTime::ZERO, lba, sectors, IoKind::Read)
    }

    fn write(lba: u64, sectors: u32) -> IoRequest {
        IoRequest::new(0, SimTime::ZERO, lba, sectors, IoKind::Write)
    }

    const PER_DISK: u64 = 1_000_000;

    /// Maps `req` into a fresh buffer.
    fn map(layout: Layout, disks: usize, req: &IoRequest) -> MappedRequest {
        let mut m = MappedRequest::default();
        layout.map_into(disks, PER_DISK, req, &mut m);
        m
    }

    #[test]
    fn concat_maps_to_single_disk() {
        let m = map(Layout::Concatenated, 4, &read(2_500_000, 8));
        assert_eq!(m.phase_one.len(), 1);
        assert_eq!(m.phase_one[0].disk, 2);
        assert_eq!(m.phase_one[0].lba, 500_000);
        assert!(m.phase_two.is_empty());
    }

    #[test]
    fn concat_split_at_disk_boundary() {
        let m = map(Layout::Concatenated, 4, &read(PER_DISK - 4, 8));
        assert_eq!(m.phase_one.len(), 2);
        assert_eq!(m.phase_one[0].disk, 0);
        assert_eq!(m.phase_one[0].sectors, 4);
        assert_eq!(m.phase_one[1].disk, 1);
        assert_eq!(m.phase_one[1].lba, 0);
        assert_eq!(m.phase_one[1].sectors, 4);
    }

    #[test]
    fn striped_round_robin() {
        let layout = Layout::Striped {
            stripe_sectors: 128,
        };
        for unit in 0..8u64 {
            let m = map(layout, 4, &read(unit * 128, 8));
            assert_eq!(m.phase_one.len(), 1);
            assert_eq!(m.phase_one[0].disk, (unit % 4) as usize);
            assert_eq!(m.phase_one[0].lba, (unit / 4) * 128);
        }
    }

    #[test]
    fn striped_split_across_disks() {
        let layout = Layout::Striped {
            stripe_sectors: 128,
        };
        let m = map(layout, 4, &read(120, 16));
        assert_eq!(m.phase_one.len(), 2);
        assert_eq!(m.phase_one[0].disk, 0);
        assert_eq!(m.phase_one[0].sectors, 8);
        assert_eq!(m.phase_one[1].disk, 1);
        assert_eq!(m.phase_one[1].sectors, 8);
        let total: u32 = m.phase_one.iter().map(|s| s.sectors).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn striped_large_request_touches_all_disks() {
        let layout = Layout::Striped {
            stripe_sectors: 128,
        };
        let m = map(layout, 4, &read(0, 4 * 128));
        let disks: std::collections::BTreeSet<usize> = m.phase_one.iter().map(|s| s.disk).collect();
        assert_eq!(disks.len(), 4);
    }

    #[test]
    fn capacity_by_layout() {
        assert_eq!(Layout::striped_default().logical_capacity(4, 100), 400);
        assert_eq!(Layout::Concatenated.logical_capacity(4, 100), 400);
        assert_eq!(Layout::raid5_default().logical_capacity(4, 100), 300);
    }

    #[test]
    fn raid5_read_is_single_subrequest() {
        let m = map(Layout::raid5_default(), 4, &read(0, 8));
        assert_eq!(m.phase_one.len(), 1);
        assert!(m.phase_two.is_empty());
        assert_eq!(m.phase_one[0].kind, IoKind::Read);
    }

    #[test]
    fn raid5_small_write_is_four_ios() {
        let m = map(Layout::raid5_default(), 4, &write(0, 8));
        // Read old data + read old parity, then write data + parity.
        assert_eq!(m.phase_one.len(), 2);
        assert_eq!(m.phase_two.len(), 2);
        assert!(m.phase_one.iter().all(|s| s.kind == IoKind::Read));
        assert!(m.phase_two.iter().all(|s| s.kind == IoKind::Write));
        // Data and parity land on different disks.
        assert_ne!(m.phase_one[0].disk, m.phase_one[1].disk);
    }

    #[test]
    fn raid5_parity_rotates() {
        let layout = Layout::raid5_default();
        let n = 4u64;
        let mut parity_disks = std::collections::BTreeSet::new();
        for row in 0..n {
            // First data unit of each row.
            let lba = row * (n - 1) * 128;
            let m = map(layout, 4, &write(lba, 8));
            let parity = m.phase_two[1].disk;
            parity_disks.insert(parity);
        }
        assert_eq!(parity_disks.len(), 4, "parity must rotate over all disks");
    }

    #[test]
    fn raid5_data_never_on_parity_disk() {
        let layout = Layout::raid5_default();
        for unit in 0..64u64 {
            let m = map(layout, 5, &write(unit * 128, 8));
            let data = m.phase_two[0].disk;
            let parity = m.phase_two[1].disk;
            assert_ne!(data, parity, "unit {unit}");
        }
    }

    #[test]
    fn raid5_multiunit_write_dedups_parity_per_row() {
        // Two units in the same row share one parity read/write pair.
        let layout = Layout::raid5_default();
        let m = map(layout, 4, &write(0, 256));
        let parity_writes = m
            .phase_two
            .iter()
            .filter(|s| {
                // Parity disk of row 0 with n=4 is disk 3.
                s.disk == 3
            })
            .count();
        assert_eq!(parity_writes, 1);
    }

    #[test]
    fn wrap_beyond_capacity() {
        let layout = Layout::striped_default();
        let cap = layout.logical_capacity(4, PER_DISK);
        let a = map(layout, 4, &read(5, 8));
        let b = map(layout, 4, &read(cap + 5, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn map_into_replaces_what_the_buffer_held() {
        let layout = Layout::raid5_default();
        let mut m = map(layout, 4, &write(0, 256));
        layout.map_into(4, PER_DISK, &read(1234, 8), &mut m);
        assert_eq!(m, map(layout, 4, &read(1234, 8)));
    }

    #[test]
    fn coalescing_merges_contiguous_runs() {
        // A sequential run on one disk (stripe of a 1-disk array) stays
        // one sub-request.
        let layout = Layout::Striped {
            stripe_sectors: 128,
        };
        let m = map(layout, 1, &read(0, 512));
        assert_eq!(m.phase_one.len(), 1);
        assert_eq!(m.phase_one[0].sectors, 512);
    }

    #[test]
    fn sectors_conserved_over_layouts() {
        for layout in [Layout::Concatenated, Layout::striped_default()] {
            for (lba, sectors) in [(0u64, 8u32), (1234, 300), (PER_DISK - 1, 64)] {
                let m = map(layout, 4, &read(lba, sectors));
                let total: u32 = m.phase_one.iter().map(|s| s.sectors).sum();
                assert_eq!(total, sectors, "{layout:?} at {lba}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two disks")]
    fn raid5_single_disk_panics() {
        map(Layout::raid5_default(), 1, &read(0, 8));
    }
}
