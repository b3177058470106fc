//! A deterministic discrete-event calendar.
//!
//! Two interchangeable future-event lists live here, both keyed on
//! `(time, sequence)` so events at equal times pop in the order they
//! were pushed — the property that makes entire simulations
//! reproducible even when many events coincide (common with integer
//! timestamps):
//!
//! * [`WheelEventQueue`] — a hierarchical timing wheel with an overflow
//!   calendar. Schedule and dispatch are O(1) amortised for the tightly
//!   clustered time distributions disk events produce, independent of
//!   the pending-event population. This is the production kernel;
//!   [`EventQueue`] is an alias for it.
//! * [`HeapEventQueue`] — the original `BinaryHeap` implementation,
//!   retained as the differential-test oracle (`tests/properties.rs`
//!   drives both queues with adversarial schedules and asserts
//!   identical pop sequences).
//!
//! Both queues present the same API and the same observable contract:
//! strict `(time, seq)` pop order, `push` into the past panics, and
//! [`QueueStats`] counts are pure functions of the event sequence.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event taken out of an [`EventQueue`]: the instant it fires and its
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The caller-supplied payload.
    pub payload: E,
}

/// Deterministic dispatch counters of an event queue — how much
/// calendar traffic a run generated and how deep the future-event list
/// got. Pure functions of the simulated event sequence, so they are
/// identical across runs and hosts, and cheap enough to maintain
/// unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Events scheduled over the queue's lifetime.
    pub pushes: u64,
    /// Events dispatched over the queue's lifetime.
    pub pops: u64,
    /// Largest number of simultaneously pending events.
    pub peak_pending: usize,
}

/// The common calendar interface implemented by both
/// [`WheelEventQueue`] and [`HeapEventQueue`].
///
/// Exists so differential harnesses (and the kernel benchmark) can
/// drive either implementation through one generic loop; simulation
/// code uses the concrete [`EventQueue`] alias directly.
pub trait Calendar<E> {
    /// Schedules `payload` to fire at `time`.
    fn push(&mut self, time: SimTime, payload: E);
    /// Removes and returns the earliest event, or `None` if empty.
    fn pop(&mut self) -> Option<ScheduledEvent<E>>;
    /// The firing time of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The time of the most recently popped event.
    fn now(&self) -> SimTime;
    /// Lifetime dispatch counters.
    fn stats(&self) -> QueueStats;
}

// ------------------------------------------------------------------
// Heap oracle
// ------------------------------------------------------------------

#[derive(Debug)]
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Reverse ordering so BinaryHeap (a max-heap) pops the earliest event.
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

/// The original `BinaryHeap`-backed future-event list, kept as the
/// reference implementation: O(log n) per operation, trivially correct.
///
/// Production code uses [`EventQueue`] (= [`WheelEventQueue`]); this
/// type remains in-tree as the oracle the differential property suite
/// compares the wheel against, and as the baseline the kernel
/// benchmark measures speedups over.
///
/// ```
/// use simkit::{HeapEventQueue, SimTime};
///
/// let mut q = HeapEventQueue::new();
/// q.push(SimTime::from_millis(1.0), "first@1ms");
/// q.push(SimTime::from_millis(1.0), "second@1ms");
/// q.push(SimTime::ZERO, "at-zero");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
/// assert_eq!(order, vec!["at-zero", "first@1ms", "second@1ms"]);
/// assert_eq!(q.stats().pushes, 3);
/// assert_eq!(q.stats().pops, 3);
/// assert_eq!(q.stats().peak_pending, 3);
/// ```
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    last_popped: SimTime,
    stats: QueueStats,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Creates an empty calendar with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        HeapEventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event — pushing
    /// into the past would silently corrupt causality.
    pub fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {} < {}",
            time,
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, payload });
        self.stats.pushes += 1;
        self.stats.peak_pending = self.stats.peak_pending.max(self.heap.len());
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| {
            self.last_popped = e.time;
            self.stats.pops += 1;
            ScheduledEvent {
                time: e.time,
                payload: e.payload,
            }
        })
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event (the current
    /// simulation clock as seen by the queue).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Lifetime dispatch counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

impl<E> Calendar<E> for HeapEventQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        HeapEventQueue::push(self, time, payload);
    }
    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        HeapEventQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        HeapEventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        HeapEventQueue::len(self)
    }
    fn now(&self) -> SimTime {
        HeapEventQueue::now(self)
    }
    fn stats(&self) -> QueueStats {
        HeapEventQueue::stats(self)
    }
}

// ------------------------------------------------------------------
// Hierarchical timing wheel
// ------------------------------------------------------------------

/// Wheel time is bucketed into granules of `2^GRANULE_SHIFT` ns
/// (~1.05 ms): disk-latency scale, so a busy drive's events cluster a
/// handful per granule and the dispatch cursor rarely crosses empty
/// granules. Ordering within a granule is exact regardless — entries
/// sort by `(time, seq)` when their granule drains — so the granule
/// size is purely a throughput knob, never a correctness one.
const GRANULE_SHIFT: u32 = 20;
/// Each wheel level has `2^SLOT_BITS` slots.
const SLOT_BITS: u32 = 9;
const SLOTS: usize = 1 << SLOT_BITS;
const WORDS: usize = SLOTS / 64;
/// Level spans, in granules: level 0 covers one `SLOTS`-granule block
/// (~537 ms of sim time), level 1 covers `SLOTS` such blocks (~4.6
/// min), level 2 covers `SLOTS^2` (~39 h). Events beyond the level-2
/// block land in the overflow calendar.
const L0_SPAN: u64 = 1 << SLOT_BITS;
const L1_SPAN: u64 = 1 << (2 * SLOT_BITS);
const L2_SPAN: u64 = 1 << (3 * SLOT_BITS);

#[derive(Debug)]
struct WheelEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> WheelEntry<E> {
    fn granule(&self) -> u64 {
        self.time.as_nanos() >> GRANULE_SHIFT
    }
}

/// One wheel level: an array of slots plus an occupancy bitmap so the
/// next non-empty slot is found by a handful of word scans.
#[derive(Debug)]
struct Level<E> {
    slots: Vec<Vec<WheelEntry<E>>>,
    occupied: [u64; WORDS],
    /// Lowest bitmap word that can hold a set bit: every word below it
    /// is known zero. `set` lowers it, a successful scan raises it —
    /// so the repeated forward scans of a draining block are O(1)
    /// amortised instead of restarting at word 0. `Cell` keeps
    /// [`first_occupied`](Self::first_occupied) callable from the
    /// non-mutating peek path.
    scan_from: Cell<usize>,
    /// Bitmap words examined by [`first_occupied`](Self::first_occupied)
    /// over this level's lifetime; flushed to
    /// [`counters::WHEEL_SLOT_SCAN_WORDS`] when the owning queue drops.
    scan_words: Cell<u64>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            scan_from: Cell::new(0),
            scan_words: Cell::new(0),
        }
    }

    fn set(&mut self, idx: usize) {
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
        if (idx >> 6) < self.scan_from.get() {
            self.scan_from.set(idx >> 6);
        }
    }

    fn clear(&mut self, idx: usize) {
        self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// Slot `idx`, marked occupied. A slot without a buffer first takes
    /// one from `spare`, where drained coarse slots leave theirs.
    fn fill(&mut self, idx: usize, spare: &mut Vec<Vec<WheelEntry<E>>>) -> &mut Vec<WheelEntry<E>> {
        self.set(idx);
        let slot = &mut self.slots[idx];
        if slot.capacity() == 0 {
            if let Some(buf) = spare.pop() {
                *slot = buf;
            }
        }
        slot
    }

    /// Index of the first occupied slot, if any. Blocks are aligned and
    /// drained slots are cleared, so a plain forward scan (no
    /// wrap-around) is sufficient.
    fn first_occupied(&self) -> Option<usize> {
        let start = self.scan_from.get();
        for w in start..WORDS {
            let bits = self.occupied[w];
            if bits != 0 {
                self.scan_from.set(w);
                self.scan_words
                    .set(self.scan_words.get() + (w - start + 1) as u64);
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
        }
        self.scan_from.set(WORDS);
        self.scan_words
            .set(self.scan_words.get() + (WORDS - start) as u64);
        None
    }
}

/// A hierarchical timing-wheel future-event list: O(1) amortised
/// schedule and dispatch regardless of how many events are pending.
///
/// Geometry: sim time is bucketed into 2^20 ns (~1.05 ms) granules.
/// Level 0 holds the next ~537 ms at granule resolution; levels 1 and
/// 2 hold the next ~4.6 min and ~39 h at progressively coarser
/// resolution, and a `BTreeMap` overflow calendar absorbs anything
/// beyond that. As the dispatch cursor crosses a block boundary, the
/// first occupied coarse slot is redistributed one level down — each
/// event is touched at most three times on its way to level 0, so cost
/// stays amortised O(1) per event.
///
/// Ordering contract (identical to [`HeapEventQueue`], enforced by the
/// differential suite): events pop in strict `(time, seq)` order, where
/// `seq` is the push sequence number — simultaneous events pop FIFO.
/// Events sharing a granule are kept unsorted in their slot and sorted
/// by `(time, seq)` once when the granule is drained.
///
/// ```
/// use simkit::{WheelEventQueue, SimTime};
///
/// let mut q = WheelEventQueue::new();
/// q.push(SimTime::from_millis(1.0), "first@1ms");
/// q.push(SimTime::from_millis(1.0), "second@1ms");
/// q.push(SimTime::ZERO, "at-zero");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
/// assert_eq!(order, vec!["at-zero", "first@1ms", "second@1ms"]);
/// assert_eq!(q.stats().pushes, 3);
/// assert_eq!(q.stats().pops, 3);
/// assert_eq!(q.stats().peak_pending, 3);
/// ```
#[derive(Debug)]
pub struct WheelEventQueue<E> {
    /// Entries of the granule currently being drained, sorted by
    /// `(time, seq)` DESCENDING so the next event is an O(1) `Vec::pop`
    /// from the back.
    current: Vec<WheelEntry<E>>,
    /// Granule `current` belongs to. Never decreases.
    cursor: u64,
    /// The three wheel levels, finest first.
    levels: [Level<E>; 3],
    /// Start granule of the aligned block each level currently covers:
    /// level k spans `[base[k], base[k] + SLOTS^(k+1))`.
    base: [u64; 3],
    /// Far-future events (beyond the level-2 block), keyed by granule.
    /// A `BTreeMap` keeps promotion order deterministic.
    overflow: BTreeMap<u64, Vec<WheelEntry<E>>>,
    /// Buffers of drained level-1 and level-2 slots, handed to the next
    /// coarse slot that fills. A run allocates coarse-slot storage only
    /// up to its peak of simultaneously occupied coarse slots, not once
    /// per slot it ever touches.
    spare: Vec<Vec<WheelEntry<E>>>,
    /// Cached earliest pending time; `None` = not computed. Interior
    /// mutability keeps `peek_time(&self)` cheap without changing the
    /// public API.
    peek_cache: Cell<Option<SimTime>>,
    len: usize,
    next_seq: u64,
    last_popped: SimTime,
    stats: QueueStats,
    /// Pushes that landed in the overflow calendar; flushed to
    /// [`counters::WHEEL_OVERFLOW_HITS`] on drop.
    overflow_hits: u64,
}

impl<E> Default for WheelEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelEventQueue<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        WheelEventQueue {
            current: Vec::new(),
            cursor: 0,
            levels: [Level::new(), Level::new(), Level::new()],
            base: [0; 3],
            overflow: BTreeMap::new(),
            spare: Vec::new(),
            peek_cache: Cell::new(None),
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            stats: QueueStats::default(),
            overflow_hits: 0,
        }
    }

    /// Creates an empty calendar with room for `cap` same-granule
    /// events in the drain buffer. (Slot storage grows on demand; the
    /// hint only pre-sizes the hot buffer.)
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.current.reserve(cap);
        q
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event — pushing
    /// into the past would silently corrupt causality.
    // Hot path: kernel enqueue; every scheduled event goes
    // through here on the steady-state path.
    pub fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {} < {}",
            time,
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.pushes += 1;
        self.len += 1;
        self.stats.peak_pending = self.stats.peak_pending.max(self.len);
        if let Some(cached) = self.peek_cache.get() {
            if time < cached {
                self.peek_cache.set(Some(time));
            }
        }
        let entry = WheelEntry { time, seq, payload };
        let g = entry.granule();
        debug_assert!(g >= self.cursor, "push behind the dispatch cursor");
        if g == self.cursor {
            // The granule being drained: sorted insert (descending) so
            // the back of `current` stays the earliest pending event.
            let key = (time, seq);
            let at = self.current.partition_point(|e| (e.time, e.seq) > key);
            self.current.insert(at, entry);
        } else if g < self.base[0] + L0_SPAN {
            let idx = (g - self.base[0]) as usize;
            // Slot Vecs keep their capacity across wheel rotations, so
            // pushes are amortized O(1) with no steady-state
            // allocation.
            self.levels[0].slots[idx].push(entry);
            self.levels[0].set(idx);
        } else if g < self.base[1] + L1_SPAN {
            let idx = ((g - self.base[1]) >> SLOT_BITS) as usize;
            // Amortized, with buffers recycled through `spare`.
            self.levels[1].fill(idx, &mut self.spare).push(entry);
        } else if g < self.base[2] + L2_SPAN {
            let idx = ((g - self.base[2]) >> (2 * SLOT_BITS)) as usize;
            // Amortized, as above.
            self.levels[2].fill(idx, &mut self.spare).push(entry);
        } else {
            self.overflow_hits += 1;
            // Overflow holds events beyond the 2^18-granule horizon;
            // reaching it is rare by construction, not a per-event
            // cost.
            self.overflow.entry(g).or_default().push(entry);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    // Hot path: kernel dequeue; runs once per simulated event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        if self.current.is_empty() {
            self.advance();
        }
        // `advance` always leaves at least one entry in `current`.
        let e = self.current.pop()?;
        self.len -= 1;
        self.last_popped = e.time;
        self.stats.pops += 1;
        self.peek_cache.set(None);
        Some(ScheduledEvent {
            time: e.time,
            payload: e.payload,
        })
    }

    /// The firing time of the earliest pending event.
    ///
    /// Non-mutating: the answer is found by scanning the first occupied
    /// slot (never by redistributing levels) and memoised until the
    /// next pop.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(cached) = self.peek_cache.get() {
            return Some(cached);
        }
        let t = self.scan_earliest();
        self.peek_cache.set(Some(t));
        Some(t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The time of the most recently popped event (the current
    /// simulation clock as seen by the queue).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Lifetime dispatch counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Earliest pending time, by scanning (not draining) the first
    /// non-empty source. The sources cover disjoint, increasing granule
    /// ranges, so the first non-empty one contains the minimum.
    #[expect(
        clippy::expect_used,
        reason = "the caller guarantees a non-empty queue, so some level or the overflow calendar holds an event"
    )]
    fn scan_earliest(&self) -> SimTime {
        debug_assert!(self.len > 0);
        if let Some(e) = self.current.last() {
            return e.time;
        }
        for level in &self.levels {
            if let Some(idx) = level.first_occupied() {
                return slot_min_time(&level.slots[idx]);
            }
        }
        let (_, v) = self
            .overflow
            .first_key_value()
            .expect("non-empty queue with empty levels has overflow entries");
        slot_min_time(v)
    }

    /// Refills `current` with the earliest pending granule and advances
    /// the cursor to it. Caller guarantees `len > 0` and `current` is
    /// empty.
    #[expect(
        clippy::expect_used,
        reason = "the caller guarantees a non-empty queue, so some level or the overflow calendar holds an event"
    )]
    fn advance(&mut self) {
        let idx = match self.levels[0].first_occupied() {
            Some(idx) => idx,
            None => {
                self.refill_level0();
                self.levels[0]
                    .first_occupied()
                    .expect("refill left level 0 empty")
            }
        };
        self.levels[0].clear(idx);
        // Swap rather than take: the drained slot inherits `current`'s
        // old allocation, so buffer capacity circulates instead of
        // being reallocated.
        std::mem::swap(&mut self.current, &mut self.levels[0].slots[idx]);
        self.cursor = self.base[0] + idx as u64;
        // Descending, so Vec::pop yields ascending (time, seq).
        self.current
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
    }

    /// Moves the first occupied level-1 slot down into level 0.
    /// Caller guarantees levels 0 is empty and the queue is non-empty.
    #[expect(
        clippy::expect_used,
        reason = "the caller guarantees a non-empty queue, so some level or the overflow calendar holds an event"
    )]
    fn refill_level0(&mut self) {
        let j = match self.levels[1].first_occupied() {
            Some(j) => j,
            None => {
                self.refill_level1();
                self.levels[1]
                    .first_occupied()
                    .expect("refill left level 1 empty")
            }
        };
        self.levels[1].clear(j);
        self.base[0] = self.base[1] + ((j as u64) << SLOT_BITS);
        let mut batch = std::mem::take(&mut self.levels[1].slots[j]);
        for e in batch.drain(..) {
            let idx = (e.granule() - self.base[0]) as usize;
            // Redistribution into capacity-retaining slot Vecs;
            // amortized O(1).
            self.levels[0].slots[idx].push(e);
            self.levels[0].set(idx);
        }
        self.spare.push(batch);
    }

    /// Moves the first occupied level-2 slot down into level 1.
    /// Caller guarantees levels 0–1 are empty and the queue is
    /// non-empty.
    #[expect(
        clippy::expect_used,
        reason = "the caller guarantees a non-empty queue, so some level or the overflow calendar holds an event"
    )]
    fn refill_level1(&mut self) {
        let k = match self.levels[2].first_occupied() {
            Some(k) => k,
            None => {
                self.refill_level2();
                self.levels[2]
                    .first_occupied()
                    .expect("refill left level 2 empty")
            }
        };
        self.levels[2].clear(k);
        self.base[1] = self.base[2] + ((k as u64) << (2 * SLOT_BITS));
        let mut batch = std::mem::take(&mut self.levels[2].slots[k]);
        for e in batch.drain(..) {
            let idx = ((e.granule() - self.base[1]) >> SLOT_BITS) as usize;
            // Redistribution into recycled slot buffers; amortized O(1).
            self.levels[1].fill(idx, &mut self.spare).push(e);
        }
        self.spare.push(batch);
    }

    /// Re-homes the level-2 block onto the earliest overflow granule
    /// and promotes every overflow entry that now fits. Caller
    /// guarantees levels 0–2 are empty and the queue is non-empty, so
    /// the overflow calendar must hold events.
    #[expect(
        clippy::expect_used,
        reason = "the caller guarantees a non-empty queue, so some level or the overflow calendar holds an event"
    )]
    fn refill_level2(&mut self) {
        let (&g0, _) = self
            .overflow
            .first_key_value()
            .expect("non-empty queue with empty levels has overflow entries");
        let base2 = g0 & !(L2_SPAN - 1);
        self.base[2] = base2;
        let end = base2 + L2_SPAN;
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() >= end {
                break;
            }
            let (g, mut v) = entry.remove_entry();
            let idx = ((g - base2) >> (2 * SLOT_BITS)) as usize;
            self.levels[2].fill(idx, &mut self.spare).append(&mut v);
        }
    }
}

/// Earliest `(time, seq)` entry's time within one unsorted slot.
fn slot_min_time<E>(slot: &[WheelEntry<E>]) -> SimTime {
    debug_assert!(!slot.is_empty());
    let mut best_time = SimTime::MAX;
    let mut best_seq = u64::MAX;
    for e in slot {
        if (e.time, e.seq) < (best_time, best_seq) {
            best_time = e.time;
            best_seq = e.seq;
        }
    }
    best_time
}

/// On drop, the wheel publishes its lifetime traffic to the global
/// deterministic counter registry ([`crate::counters`]). Flushing once
/// per queue lifetime (instead of per event) keeps the hot push/pop
/// paths free of shared-cache-line atomics.
impl<E> Drop for WheelEventQueue<E> {
    fn drop(&mut self) {
        crate::counters::WHEEL_PUSHES.add(self.stats.pushes);
        crate::counters::WHEEL_POPS.add(self.stats.pops);
        crate::counters::WHEEL_PEAK_PENDING.record_max(self.stats.peak_pending as u64);
        crate::counters::WHEEL_OVERFLOW_HITS.add(self.overflow_hits);
        let scans = self.levels.iter().map(|l| l.scan_words.get()).sum();
        crate::counters::WHEEL_SLOT_SCAN_WORDS.add(scans);
    }
}

impl<E> Calendar<E> for WheelEventQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        WheelEventQueue::push(self, time, payload);
    }
    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        WheelEventQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        WheelEventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        WheelEventQueue::len(self)
    }
    fn now(&self) -> SimTime {
        WheelEventQueue::now(self)
    }
    fn stats(&self) -> QueueStats {
        WheelEventQueue::stats(self)
    }
}

/// The production event calendar used throughout the workspace.
///
/// An alias for [`WheelEventQueue`]; the heap-backed original survives
/// as [`HeapEventQueue`], the differential oracle.
pub type EventQueue<E> = WheelEventQueue<E>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3.0), 3);
        q.push(SimTime::from_millis(1.0), 1);
        q.push(SimTime::from_millis(2.0), 2);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_millis(5.0), i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        let want: Vec<i32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1.0), "a");
        let first = q.pop().unwrap();
        assert_eq!(first.payload, "a");
        // Scheduling at exactly `now` is allowed.
        q.push(first.time, "b");
        q.push(first.time + SimDuration::from_millis(1.0), "c");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn push_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(2.0), ());
        q.pop();
        q.push(SimTime::from_millis(1.0), ());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn heap_push_into_past_panics() {
        let mut q = HeapEventQueue::new();
        q.push(SimTime::from_millis(2.0), ());
        q.pop();
        q.push(SimTime::from_millis(1.0), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(7.0), ());
        q.push(SimTime::from_millis(4.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4.0)));
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_millis(9.0), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(9.0));
    }

    #[test]
    fn stats_track_traffic_and_peak() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        q.push(SimTime::from_millis(1.0), ());
        q.push(SimTime::from_millis(2.0), ());
        q.pop();
        q.push(SimTime::from_millis(3.0), ());
        q.pop();
        q.pop();
        let s = q.stats();
        assert_eq!(s.pushes, 3);
        assert_eq!(s.pops, 3);
        assert_eq!(s.peak_pending, 2);
    }

    /// Both queues, driven by one schedule, must pop identically. The
    /// broad adversarial version lives in `tests/properties.rs`; this
    /// is the in-crate smoke check.
    fn differential(schedule: &[(u64, usize)]) {
        let mut wheel = WheelEventQueue::new();
        let mut heap = HeapEventQueue::new();
        for &(ns, tag) in schedule {
            wheel.push(SimTime::from_nanos(ns), tag);
            heap.push(SimTime::from_nanos(ns), tag);
        }
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            let (w, h) = (wheel.pop(), heap.pop());
            match (w, h) {
                (None, None) => break,
                (Some(w), Some(h)) => {
                    assert_eq!(w.time, h.time);
                    assert_eq!(w.payload, h.payload);
                }
                other => panic!("queues disagree on emptiness: {other:?}"),
            }
        }
        assert_eq!(wheel.stats(), heap.stats());
    }

    #[test]
    fn wheel_matches_heap_same_granule_burst() {
        // All events inside one ~65 µs granule, several per tick.
        let ns: Vec<(u64, usize)> = (0..200).map(|i| ((i % 7) * 9, i as usize)).collect();
        differential(&ns);
    }

    #[test]
    fn wheel_matches_heap_across_level_boundaries() {
        // Deltas straddling the level-0 (~33.5 ms), level-1 (~17.2 s)
        // and level-2 (~2.4 h) horizons, plus deep overflow.
        let spans = [
            0u64,
            1,
            (1 << GRANULE_SHIFT) - 1,
            1 << GRANULE_SHIFT,
            L0_SPAN << GRANULE_SHIFT,
            (L0_SPAN << GRANULE_SHIFT) + 13,
            L1_SPAN << GRANULE_SHIFT,
            L2_SPAN << GRANULE_SHIFT,
            (L2_SPAN << GRANULE_SHIFT) * 3 + 17,
        ];
        let mut schedule = Vec::new();
        for (i, &s) in spans.iter().enumerate() {
            for j in 0..3 {
                schedule.push((s + j * 31, i * 10 + j as usize));
            }
        }
        differential(&schedule);
    }

    #[test]
    fn wheel_overflow_promotes_through_all_levels() {
        let mut q = WheelEventQueue::new();
        // One near event and one ~5 h out (beyond the level-2 block).
        let far = SimTime::from_nanos((L2_SPAN << GRANULE_SHIFT) * 2 + 5);
        q.push(far, "far");
        q.push(SimTime::from_nanos(10), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop().unwrap().payload, "near");
        assert_eq!(q.peek_time(), Some(far));
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "far");
        assert_eq!(e.time, far);
        assert!(q.pop().is_none());
        assert_eq!(q.stats().peak_pending, 2);
    }

    #[test]
    fn wheel_push_into_drained_granule_keeps_order() {
        let mut q = WheelEventQueue::new();
        let t = SimTime::from_nanos(100);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().payload, 0);
        // Same granule as the drained cursor, later seq: must pop after
        // the remaining tie, in FIFO order.
        q.push(t, 2);
        q.push(SimTime::from_nanos(101), 3);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn wheel_steady_state_is_allocation_shaped() {
        // Closed-loop SA(1)-style cycle: one event in flight, pushed a
        // few ms ahead each pop. Exercises block crossings repeatedly.
        let mut q = WheelEventQueue::new();
        let mut t = SimTime::ZERO;
        q.push(t, 0u32);
        for i in 0..10_000u32 {
            let e = q.pop().expect("event in flight");
            assert_eq!(e.payload, i);
            t = e.time + SimDuration::from_micros(4_321.0);
            if i < 9_999 {
                q.push(t, i + 1);
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.stats().pops, 10_000);
    }
}
