//! A generation-tagged slab allocator for in-flight request state.
//!
//! The steady-state dispatch loops (drive submit/complete, array
//! sub-request fan-out) previously kept per-request bookkeeping in
//! `BTreeMap`s, paying a node allocation and a pointer chase per
//! request. [`Slab`] replaces that with a flat `Vec` plus an intrusive
//! free list: insert and remove are O(1), and once the slab has grown
//! to the high-water mark of concurrently outstanding requests it never
//! allocates again.
//!
//! Every slot carries a *generation* counter that increments on
//! recycle, and a [`SlotId`] captures the generation it was issued
//! with. A stale id — one held across a `remove` of its slot — can
//! therefore never alias the slot's next tenant: lookups with it return
//! `None`. This turns the classic use-after-free pool bug into an
//! observable, testable condition (see the slab invariants in
//! `tests/properties.rs`).
//!
//! Determinism: slot assignment depends only on the sequence of
//! insert/remove calls (the free list is LIFO), so replays are
//! byte-identical — no addresses, no hashing.

/// Handle to a value stored in a [`Slab`]: slot index plus the
/// generation the slot had when the value was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

impl SlotId {
    /// The slot index (stable for the lifetime of the entry).
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation this id was issued under.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Packs the id into a single u64 (`generation << 32 | index`) —
    /// convenient for error payloads and log lines.
    pub fn as_u64(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }
}

#[derive(Debug)]
enum Slot<T> {
    /// Occupied slot: the value plus the generation it was issued with.
    Full(T),
    /// Vacant slot: link to the next free slot (LIFO free list),
    /// `u32::MAX` = end of list.
    Free(u32),
}

/// A fixed-overhead object pool with O(1) insert/remove and
/// generation-checked handles.
///
/// ```
/// use simkit::Slab;
///
/// let mut slab: Slab<&'static str> = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.get(a), Some(&"alpha"));
/// assert_eq!(slab.remove(a), Some("alpha"));
/// // `a` is dead: its slot may be reused, but the old id can't see it.
/// let c = slab.insert("gamma");
/// assert_eq!(c.index(), a.index());
/// assert_ne!(c, a);
/// assert_eq!(slab.get(a), None);
/// assert_eq!(slab.get(b), Some(&"beta"));
/// assert_eq!(slab.len(), 2);
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    generations: Vec<u32>,
    free_head: u32,
    len: usize,
    /// Lifetime insert/remove traffic and peak free-list depth, flushed
    /// to the [`crate::counters`] registry when the slab drops.
    inserts: u64,
    removes: u64,
    free_peak: u64,
}

const FREE_END: u32 = u32::MAX;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            generations: Vec::new(),
            free_head: FREE_END,
            len: 0,
            inserts: 0,
            removes: 0,
            free_peak: 0,
        }
    }

    /// Creates an empty slab with room for `cap` entries before the
    /// first growth reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            generations: Vec::with_capacity(cap),
            free_head: FREE_END,
            len: 0,
            inserts: 0,
            removes: 0,
            free_peak: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever grown to (occupied + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores `value`, reusing the most recently freed slot if one
    /// exists (LIFO keeps the hot slot cache-resident), growing the
    /// slab otherwise.
    // Hot path: request-lifetime allocation point; one call per
    // submitted request.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        self.inserts += 1;
        if self.free_head != FREE_END {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            match *slot {
                Slot::Free(next) => {
                    self.free_head = next;
                    *slot = Slot::Full(value);
                    SlotId {
                        index,
                        generation: self.generations[index as usize],
                    }
                }
                Slot::Full(_) => unreachable!("free list points at an occupied slot"),
            }
        } else {
            let index = self.slots.len() as u32;
            // Pool growth: runs only while the in-flight population
            // exceeds every prior peak; steady state recycles through
            // the free list above.
            self.slots.push(Slot::Full(value));
            // Grows with slots.
            self.generations.push(0);
            SlotId {
                index,
                generation: 0,
            }
        }
    }

    /// The value behind `id`, or `None` if the id is stale (its slot
    /// was recycled) or was never issued by this slab.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        match self.slots.get(id.index as usize)? {
            Slot::Full(v) if self.generations[id.index as usize] == id.generation => Some(v),
            Slot::Full(_) | Slot::Free(_) => None,
        }
    }

    /// Mutable access to the value behind `id`, with the same staleness
    /// rules as [`get`](Slab::get).
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        match self.slots.get_mut(id.index as usize)? {
            Slot::Full(v) if self.generations[id.index as usize] == id.generation => Some(v),
            Slot::Full(_) | Slot::Free(_) => None,
        }
    }

    /// Removes and returns the value behind `id`, bumping the slot's
    /// generation so `id` (and any copy of it) goes stale. Returns
    /// `None` if the id is already stale.
    // Hot path: request-lifetime release point.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let idx = id.index as usize;
        match self.slots.get(idx) {
            Some(Slot::Full(_)) if self.generations[idx] == id.generation => {}
            _ => return None,
        }
        let value = match std::mem::replace(&mut self.slots[idx], Slot::Free(self.free_head)) {
            Slot::Full(v) => v,
            Slot::Free(_) => unreachable!("checked occupied above"),
        };
        self.free_head = id.index;
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.len -= 1;
        self.removes += 1;
        // Free depth only grows on remove, so this is the one place the
        // high-water mark can move.
        self.free_peak = self.free_peak.max((self.slots.len() - self.len) as u64);
        Some(value)
    }
}

/// On drop, the slab publishes its lifetime churn to the global
/// deterministic counter registry — one flush per slab, keeping
/// insert/remove free of shared atomics.
impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        crate::counters::SLAB_INSERTS.add(self.inserts);
        crate::counters::SLAB_REMOVES.add(self.removes);
        crate::counters::SLAB_FREE_PEAK.record_max(self.free_peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get(b), Some(&20));
        *s.get_mut(a).unwrap() += 1;
        assert_eq!(s.remove(a), Some(11));
        assert_eq!(s.remove(b), Some(20));
        assert!(s.is_empty());
    }

    #[test]
    fn stale_ids_do_not_alias_recycled_slots() {
        let mut s = Slab::new();
        let a = s.insert("old");
        assert_eq!(s.remove(a), Some("old"));
        let b = s.insert("new");
        // LIFO reuse puts the new value in the same physical slot...
        assert_eq!(b.index(), a.index());
        // ...but the stale id sees nothing, and double-remove is a no-op.
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"new"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn capacity_stops_growing_at_high_water_mark() {
        let mut s = Slab::with_capacity(4);
        // Steady state with at most 3 outstanding: capacity stays 3.
        let mut live = Vec::new();
        for round in 0..100 {
            live.push(s.insert(round));
            if live.len() == 3 {
                for id in live.drain(..) {
                    s.remove(id);
                }
            }
        }
        assert!(s.capacity() <= 3, "slab grew past high-water mark");
    }

    #[test]
    fn slot_assignment_is_deterministic() {
        let run = || {
            let mut s = Slab::new();
            let mut ids = Vec::new();
            for i in 0..50 {
                let id = s.insert(i);
                if i % 3 == 0 {
                    s.remove(id);
                } else {
                    ids.push(id);
                }
            }
            ids.iter().map(|id| id.as_u64()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn as_u64_packs_generation_and_index() {
        let mut s = Slab::new();
        let a = s.insert(());
        s.remove(a);
        let b = s.insert(());
        assert_eq!(a.index(), 0);
        assert_eq!(a.generation(), 0);
        assert_eq!(b.generation(), 1);
        assert_eq!(b.as_u64(), 1 << 32);
    }
}
