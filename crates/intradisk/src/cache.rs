//! The segmented on-board disk cache.
//!
//! Disk buffer caches are organized as a small number of large segments
//! used for read caching and read-ahead. The model here mirrors that:
//! the cache is split into fixed-size, alignment-based segments; a read
//! miss installs the segment(s) covering the accessed range (implicitly
//! modelling read-ahead of the surrounding blocks, which the drive picks
//! up for free while the head is over the track); a write invalidates
//! overlapping segments (the drive model is write-through, as
//! appropriate for the server-class workloads of the study).
//!
//! The limit study found cache size to be a non-factor for these
//! workloads (§7.1: growing the cache from 8 MB to 64 MB "has negligible
//! impact"); the cache model exists so that conclusion can be
//! reproduced rather than assumed.

use diskmodel::params::SECTOR_BYTES;

/// Number of segments a drive cache is divided into.
pub const DEFAULT_SEGMENTS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    /// First sector covered (aligned to the segment size).
    start: u64,
    /// Recency tick of the last touch.
    last_use: u64,
}

/// A segmented LRU read cache addressed in sectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedCache {
    segments: Vec<Segment>,
    max_segments: usize,
    segment_sectors: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SegmentedCache {
    /// Creates a cache of `cache_mib` mebibytes split into
    /// [`DEFAULT_SEGMENTS`] segments. A zero-size cache never hits.
    pub fn new(cache_mib: u32) -> Self {
        Self::with_segments(cache_mib, DEFAULT_SEGMENTS)
    }

    /// Creates a cache with an explicit segment count.
    ///
    /// # Panics
    /// Panics if `segments == 0`.
    pub fn with_segments(cache_mib: u32, segments: usize) -> Self {
        assert!(segments > 0, "need at least one segment");
        let total_sectors = cache_mib as u64 * 1024 * 1024 / SECTOR_BYTES;
        let segment_sectors = (total_sectors / segments as u64).max(1);
        SegmentedCache {
            segments: Vec::with_capacity(segments),
            max_segments: segments,
            segment_sectors: if total_sectors == 0 {
                0
            } else {
                segment_sectors
            },
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Sectors per segment (0 for a disabled cache).
    pub fn segment_sectors(&self) -> u64 {
        self.segment_sectors
    }

    /// Lookup statistics: `(hits, misses)` over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn segment_of(&self, lba: u64) -> u64 {
        lba / self.segment_sectors * self.segment_sectors
    }

    /// Checks whether a read of `sectors` at `lba` hits entirely in the
    /// cache, updating recency and statistics.
    pub fn lookup(&mut self, lba: u64, sectors: u32) -> bool {
        if self.segment_sectors == 0 {
            self.misses += 1;
            return false;
        }
        self.tick += 1;
        let first = self.segment_of(lba);
        let last = self.segment_of(lba + sectors as u64 - 1);
        // Two passes — probe, then (only on a full hit) bump recency —
        // so the steady-state path never allocates a scratch list of
        // touched segments.
        let mut seg = first;
        let hit = loop {
            if !self.segments.iter().any(|s| s.start == seg) {
                break false;
            }
            if seg == last {
                break true;
            }
            seg += self.segment_sectors;
        };
        if hit {
            let mut seg = first;
            loop {
                if let Some(s) = self.segments.iter_mut().find(|s| s.start == seg) {
                    s.last_use = self.tick;
                }
                if seg == last {
                    break;
                }
                seg += self.segment_sectors;
            }
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Installs the segments covering a just-read range (read-ahead of
    /// the surrounding blocks comes along for free).
    pub fn install(&mut self, lba: u64, sectors: u32) {
        if self.segment_sectors == 0 {
            return;
        }
        self.tick += 1;
        let first = self.segment_of(lba);
        let last = self.segment_of(lba + sectors as u64 - 1);
        let mut seg = first;
        loop {
            match self.segments.iter().position(|s| s.start == seg) {
                Some(i) => self.segments[i].last_use = self.tick,
                None => {
                    if self.segments.len() == self.max_segments {
                        // Evict the least recently used segment.
                        if let Some(lru) = self
                            .segments
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| s.last_use)
                            .map(|(i, _)| i)
                        {
                            self.segments.swap_remove(lru);
                        }
                    }
                    self.segments.push(Segment {
                        start: seg,
                        last_use: self.tick,
                    });
                }
            }
            if seg == last {
                break;
            }
            seg += self.segment_sectors;
        }
    }

    /// Invalidates any segment overlapping a written range
    /// (write-through coherence).
    pub fn invalidate(&mut self, lba: u64, sectors: u32) {
        if self.segment_sectors == 0 {
            return;
        }
        let first = self.segment_of(lba);
        let last = self.segment_of(lba + sectors as u64 - 1);
        self.segments.retain(|s| s.start < first || s.start > last);
    }

    /// Number of resident segments.
    pub fn resident_segments(&self) -> usize {
        self.segments.len()
    }

    /// Most segments resident at once.
    pub(crate) fn max_segments(&self) -> usize {
        self.max_segments
    }

    /// Drops every resident segment (a cold cache). The recency clock
    /// keeps counting: only the order of its ticks matters.
    pub(crate) fn restart(&mut self) {
        self.segments.clear();
    }

    /// How many resident segments were touched before `last_use`: a
    /// segment's place in the recency order, ties sharing one.
    fn recency_rank(&self, last_use: u64) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.last_use < last_use)
            .count() as u64
    }

    /// Saves the resident segments into `out` (cleared first): each
    /// start with its recency rank, in list order.
    pub(crate) fn save_segments(&self, out: &mut Vec<(u64, u64)>) {
        out.clear();
        out.extend(
            self.segments
                .iter()
                .map(|s| (s.start, self.recency_rank(s.last_use))),
        );
    }

    /// True if the resident segments are the ones `saved` by
    /// [`save_segments`](Self::save_segments), in the same list order
    /// and the same recency order. Ticks are an internal clock: every
    /// later touch stamps a tick above all of them, so only their order
    /// matters. The list order breaks ties between segments one access
    /// stamped together, so two caches that match here act alike from
    /// now on.
    pub(crate) fn same_segments(&self, saved: &[(u64, u64)]) -> bool {
        self.segments.len() == saved.len()
            && self.segments.iter().zip(saved).all(|(s, &(start, rank))| {
                s.start == start && self.recency_rank(s.last_use) == rank
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cache_misses() {
        let mut c = SegmentedCache::new(8);
        assert!(!c.lookup(100, 8));
        assert_eq!(c.stats(), (0, 1));
    }

    #[test]
    fn install_then_hit() {
        let mut c = SegmentedCache::new(8);
        c.install(100, 8);
        assert!(c.lookup(100, 8));
        // Read-ahead: neighbours in the same segment also hit.
        assert!(c.lookup(104, 4));
        let seg = c.segment_sectors();
        assert!(c.lookup(100 / seg * seg, 1));
    }

    #[test]
    fn zero_cache_never_hits() {
        let mut c = SegmentedCache::new(0);
        c.install(0, 8);
        assert!(!c.lookup(0, 8));
        assert_eq!(c.resident_segments(), 0);
    }

    #[test]
    fn lru_eviction() {
        let mut c = SegmentedCache::with_segments(1, 2); // 2 segments of 1024 sectors
        let seg = c.segment_sectors();
        c.install(0, 1);
        c.install(seg, 1);
        assert_eq!(c.resident_segments(), 2);
        // Touch segment 0 so segment 1 is LRU.
        assert!(c.lookup(0, 1));
        c.install(2 * seg, 1); // evicts segment 1
        assert!(c.lookup(0, 1));
        assert!(!c.lookup(seg, 1));
        assert!(c.lookup(2 * seg, 1));
    }

    #[test]
    fn write_invalidates() {
        let mut c = SegmentedCache::new(8);
        c.install(100, 8);
        assert!(c.lookup(100, 8));
        c.invalidate(100, 8);
        assert!(!c.lookup(100, 8));
    }

    #[test]
    fn invalidate_only_overlapping() {
        let mut c = SegmentedCache::new(8);
        let seg = c.segment_sectors();
        c.install(0, 1);
        c.install(seg, 1);
        c.invalidate(seg, 1);
        assert!(c.lookup(0, 1));
        assert!(!c.lookup(seg, 1));
    }

    #[test]
    fn multi_segment_request() {
        let mut c = SegmentedCache::new(8);
        let seg = c.segment_sectors();
        // Request straddling two segments.
        let lba = seg - 4;
        c.install(lba, 8);
        assert!(c.lookup(lba, 8));
        assert_eq!(c.resident_segments(), 2);
        // Partial residency is a miss.
        c.invalidate(seg, 1);
        assert!(!c.lookup(lba, 8));
    }

    #[test]
    fn saved_segments_match_by_list_and_recency_order_not_by_tick() {
        let mut a = SegmentedCache::with_segments(1, 2);
        let seg = a.segment_sectors();
        a.install(0, 8);
        a.install(seg, 8);
        let mut saved = Vec::new();
        a.save_segments(&mut saved);
        // The same segments, touched in the same order at later ticks.
        let mut b = SegmentedCache::with_segments(1, 2);
        assert!(!b.lookup(5 * seg, 8));
        b.install(0, 8);
        b.install(seg, 8);
        assert!(b.same_segments(&saved));
        // One read stamps both segments with one tick, so the list order
        // alone decides which of them a third segment evicts.
        let mut c = SegmentedCache::with_segments(1, 2);
        c.install(seg - 4, 8);
        let mut d = SegmentedCache::with_segments(1, 2);
        d.install(seg, 8);
        d.install(0, 8);
        assert!(d.lookup(seg - 4, 8));
        c.save_segments(&mut saved);
        assert!(!d.same_segments(&saved));
        c.install(2 * seg, 8);
        d.install(2 * seg, 8);
        assert_ne!(c.lookup(0, 8), d.lookup(0, 8));
    }

    #[test]
    fn hit_ratio() {
        let mut c = SegmentedCache::new(8);
        c.install(0, 8);
        assert!(c.lookup(0, 8));
        assert!(!c.lookup(1_000_000, 8));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn larger_cache_holds_more() {
        let c8 = SegmentedCache::new(8);
        let c64 = SegmentedCache::new(64);
        assert!(c64.segment_sectors() > c8.segment_sectors());
    }
}
