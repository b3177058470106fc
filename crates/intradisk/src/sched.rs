//! Request queue and scheduling policies.
//!
//! The paper uses Shortest-Positioning-Time-First (SPTF, Worthington et
//! al. \[42\]) because the goal is to minimize rotational latency: with
//! multiple actuators the scheduler gains the extra freedom of choosing
//! *which arm* services a request, and SPTF naturally exploits it. FCFS
//! and SSTF are provided as baselines.
//!
//! SPTF/SSTF examine a bounded window of the queue head, the first
//! [`DEFAULT_WINDOW`] requests in every engine; real controllers bound
//! their scheduling scan the same way, and it keeps the simulator's
//! worst case linear under overload.
//!
//! The SPTF scan repeats no work across dispatch decisions. The queue
//! keeps window-ordered arrays beside its head: the target of each
//! windowed request, and every arm's seek to it (`seeks[i·arms + a]`),
//! with, per arm, the cylinder its seek column was priced from. A
//! request that slides into the window is located once and priced on
//! every arm then; an arm that has moved since its column was priced
//! has the column repriced over the window before the scan reads it.
//! Removing a request shifts the rows behind it, at most a window's
//! worth.
//!
//! Each scan first gathers the arms it may use into a live-arm list
//! the queue owns, with their azimuths, so the per-candidate loop reads
//! that list instead of asking an eligibility predicate per arm. It
//! then keeps one integer bound, the least cost found so far, starting
//! at `u64::MAX`: an arm whose seek alone reaches the bound is not
//! priced further (rotation is never negative), and a priced arm whose
//! cost is strictly below it becomes the winner. The strict `<` keeps
//! the first minimum, so the request and arm chosen are exactly those
//! of pricing every arm of every candidate.

use std::collections::VecDeque;

use diskmodel::PhysLoc;
use simkit::{SimDuration, SimTime};

use crate::counters::DriveProfCounts;
use crate::request::IoRequest;
use crate::service::{ArmChoice, ArmSet, LatencyScaling, Mechanics, Target};

/// Scheduling window for positioning-aware policies.
pub const DEFAULT_WINDOW: usize = 64;

/// Queue scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueuePolicy {
    /// First-come first-served.
    Fcfs,
    /// Shortest seek time first (cylinder distance only).
    Sstf,
    /// Shortest positioning time first (seek + rotational latency),
    /// the policy of the paper's evaluation.
    #[default]
    Sptf,
}

/// What a dispatch scan prices its candidates against.
///
/// The queue keeps costs across scans, so `mech` and `scaling` must
/// be the same on every scan of one queue (see
/// [`PendingQueue::forget_costs`]); the arms may move freely.
#[derive(Debug, Clone, Copy)]
pub struct ScanCost<'a> {
    /// The drive's mechanics.
    pub mech: &'a Mechanics,
    /// Every assembly's current state.
    pub arms: &'a ArmSet,
    /// Heads per arm per surface.
    pub heads: u32,
    /// When positioning would start.
    pub start: SimTime,
    /// Limit-study latency scaling.
    pub scaling: LatencyScaling,
}

/// `PendingQueue::priced_from` of an arm whose column holds no seeks
/// (no arm parks over cylinder `u32::MAX`).
const UNPRICED: u32 = u32::MAX;

/// Fills the window slots no request has been located into.
const UNLOCATED: Target = Target {
    loc: PhysLoc {
        cylinder: 0,
        surface: 0,
        sector: 0,
        sectors_per_track: 0,
        zone: 0,
    },
    angle: 0.0,
};

/// `lba` wrapped onto a disk of `capacity` sectors.
#[inline]
fn on_disk(lba: u64, capacity: u64) -> u64 {
    if lba >= capacity {
        lba % capacity
    } else {
        lba
    }
}

/// The pending-request queue of a drive.
#[derive(Debug, Clone)]
pub struct PendingQueue {
    queue: VecDeque<IoRequest>,
    window: usize,
    peak_len: usize,
    /// One per window slot, in queue order: the targets of the first
    /// `located` queued requests.
    targets: Vec<Target>,
    /// Slots of `targets` that hold a located target.
    located: usize,
    /// Row-major, one row per queued request in queue order:
    /// `seeks[i * arms + a]` is arm `a`'s seek from `priced_from[a]` to
    /// `targets[i]`, for the first `priced` rows.
    seeks: Vec<SimDuration>,
    /// Rows of `seeks` that hold prices (at most `located`).
    priced: usize,
    /// Per arm, the cylinder its column of `seeks` was priced from, or
    /// [`UNPRICED`].
    priced_from: Vec<u32>,
    /// Arms per row.
    arms: usize,
    /// The arms the current scan may use, in index order, with their
    /// azimuths; gathered at the start of each scan. Allocated for
    /// `arms` entries, so no scan allocates.
    live: Vec<(usize, f64)>,
}

impl PendingQueue {
    /// Creates an empty queue with scheduling window `window` for a
    /// drive with `arms` assemblies. The cost arrays are allocated
    /// here, once: `window` targets and `window × arms` seeks, whatever
    /// the queue depth.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize, arms: usize) -> Self {
        assert!(window > 0, "window must be positive");
        PendingQueue {
            queue: VecDeque::new(),
            window,
            peak_len: 0,
            targets: vec![UNLOCATED; window],
            located: 0,
            seeks: vec![SimDuration::ZERO; window * arms],
            priced: 0,
            priced_from: vec![UNPRICED; arms],
            arms,
            live: Vec::with_capacity(arms),
        }
    }

    /// Appends an arriving request.
    pub fn push(&mut self, req: IoRequest) {
        self.queue.push_back(req);
        self.peak_len = self.peak_len.max(self.queue.len());
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Largest depth the queue ever reached (telemetry cross-checks the
    /// queue-depth percentiles it reconstructs from the event stream
    /// against this).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// True if no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drops every kept cost. A caller that changes the mechanics or
    /// the scaling it scans with (DRPM's spindle-speed shifts) calls
    /// this first.
    pub fn forget_costs(&mut self) {
        self.located = 0;
        self.priced = 0;
        self.priced_from.fill(UNPRICED);
    }

    /// Removes and returns the next request to service under `policy`,
    /// or `None` if the queue is empty. Only arms for which `eligible`
    /// holds are considered.
    ///
    /// FCFS takes the head of the line. SSTF and SPTF scan at most the
    /// scheduling window, preserving arrival order beyond it (which also
    /// bounds starvation), and take the first candidate of least cost:
    /// for SSTF the seek of the nearest arm, for SPTF the least seek +
    /// rotational wait over the arms. SPTF also returns the arm that
    /// achieves it (the first such), so the caller can plan the access
    /// without pricing the arms again. `prof`, if given, counts the
    /// scan's work.
    // Hot path: the dispatch scan; runs once per dispatch for the
    // whole simulated run.
    pub fn pop_next(
        &mut self,
        policy: QueuePolicy,
        cost: &ScanCost<'_>,
        eligible: impl Fn(usize) -> bool,
        prof: Option<&DriveProfCounts>,
    ) -> Option<(IoRequest, Option<ArmChoice>)> {
        let n = self.queue.len().min(self.window);
        let (idx, choice) = match policy {
            QueuePolicy::Fcfs => (0, None),
            QueuePolicy::Sstf => {
                self.gather(cost.arms, eligible);
                (self.scan_sstf(n, cost, prof), None)
            }
            QueuePolicy::Sptf => {
                self.gather(cost.arms, eligible);
                self.scan_sptf(n, cost, prof)
            }
        };
        let req = self.queue.remove(idx)?;
        if idx < self.located {
            self.targets.copy_within(idx + 1..self.located, idx);
            self.located -= 1;
        }
        if idx < self.priced {
            let arms = self.arms;
            self.seeks
                .copy_within((idx + 1) * arms..self.priced * arms, idx * arms);
            self.priced -= 1;
        }
        Some((req, choice))
    }

    /// Fills the live-arm list with the arms of `arms` for which
    /// `eligible` holds.
    fn gather(&mut self, arms: &ArmSet, eligible: impl Fn(usize) -> bool) {
        debug_assert!(arms.len() <= self.arms, "more arms than seek columns");
        self.live.clear();
        self.live.extend(
            (0..arms.len())
                .filter(|&a| eligible(a))
                .map(|a| (a, arms.azimuth(a))),
        );
    }

    /// SSTF over the first `n` requests: index of the first one whose
    /// nearest live arm is closest.
    fn scan_sstf(&mut self, n: usize, c: &ScanCost<'_>, prof: Option<&DriveProfCounts>) -> usize {
        self.locate(n, c.mech);
        let mut best: Option<(usize, SimDuration)> = None;
        for (i, target) in self.targets[..n].iter().enumerate() {
            let mut dist: Option<u32> = None;
            for &(arm, _) in &self.live {
                let d = c.arms.cylinder(arm).abs_diff(target.loc.cylinder);
                if dist.is_none_or(|b| d < b) {
                    dist = Some(d);
                }
            }
            let seek = c.mech.seek_profile().seek_time(dist.unwrap_or(0));
            if best.is_none_or(|(_, b)| seek < b) {
                best = Some((i, seek));
            }
        }
        if let Some(p) = prof {
            p.candidates.add(n as u64);
            p.arm_visits.add((n * self.live.len()) as u64);
        }
        best.map_or(0, |(i, _)| i)
    }

    /// SPTF over the first `n` requests: index of the first one with
    /// the least positioning cost, and its first cheapest live arm.
    fn scan_sptf(
        &mut self,
        n: usize,
        c: &ScanCost<'_>,
        prof: Option<&DriveProfCounts>,
    ) -> (usize, Option<ArmChoice>) {
        self.locate(n, c.mech);
        self.price(n, c);
        let rotation = c.mech.rotation();
        // Reduced once per scan; each priced arm advances it by its
        // seek, so the per-arm loop never divides.
        let phase = rotation.phase(c.start);
        let arms = self.arms;
        // The least cost so far, over every candidate and arm priced,
        // and the (candidate, arm, seek, rotation) that first reached it.
        let mut bound = u64::MAX;
        let mut win = (0, 0, SimDuration::ZERO, SimDuration::ZERO);
        let mut evals = 0u64;
        for (i, &target) in self.targets[..n].iter().enumerate() {
            let row = &self.seeks[i * arms..(i + 1) * arms];
            for &(arm, azimuth) in &self.live {
                let seek = row[arm];
                if seek.as_nanos() >= bound {
                    continue;
                }
                evals += 1;
                let at = rotation.advance(phase, seek);
                let rot = c.mech.rot_at_phase(target, azimuth, c.heads, at, c.scaling);
                let cost = (seek + rot).as_nanos();
                if cost < bound {
                    bound = cost;
                    win = (i, arm, seek, rot);
                }
            }
        }
        if let Some(p) = prof {
            p.candidates.add(n as u64);
            p.arm_visits.add((n * self.live.len()) as u64);
            p.positioning_evals.add(evals);
            p.sptf_compares.add(evals);
        }
        if evals == 0 {
            return (0, None);
        }
        let (i, arm, seek, rot) = win;
        let capacity = c.mech.geometry().total_sectors();
        (
            i,
            Some(ArmChoice {
                arm,
                seek,
                rot,
                lba: on_disk(self.queue[i].lba, capacity),
                loc: self.targets[i].loc,
            }),
        )
    }

    /// Locates the targets of the first `n` queued requests (`n` within
    /// the window) that have none yet: each LBA is wrapped onto the disk
    /// and located once, when its request enters the window.
    fn locate(&mut self, n: usize, mech: &Mechanics) {
        let capacity = mech.geometry().total_sectors();
        let fresh = self.queue.range(self.located..n);
        for (slot, req) in self.targets[self.located..n].iter_mut().zip(fresh) {
            *slot = mech.target(on_disk(req.lba, capacity));
        }
        self.located = n;
    }

    /// Brings the seeks of the first `n` located requests up to date:
    /// every live arm that moved since its column was priced is
    /// repriced over the priced rows, then the rows new to the window
    /// are priced on every arm that has a column.
    fn price(&mut self, n: usize, c: &ScanCost<'_>) {
        let arms = self.arms;
        for &(arm, _) in &self.live {
            let from = c.arms.cylinder(arm);
            if self.priced_from[arm] == from {
                continue;
            }
            self.priced_from[arm] = from;
            let column = self.seeks[..self.priced * arms]
                .iter_mut()
                .skip(arm)
                .step_by(arms);
            for (seek, target) in column.zip(&self.targets[..self.priced]) {
                *seek = c.mech.seek(from, target.loc.cylinder, c.scaling);
            }
        }
        for i in self.priced..n {
            let to = self.targets[i].loc.cylinder;
            let row = &mut self.seeks[i * arms..(i + 1) * arms];
            for (seek, &from) in row.iter_mut().zip(&self.priced_from) {
                if from != UNPRICED {
                    *seek = c.mech.seek(from, to, c.scaling);
                }
            }
        }
        self.priced = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;
    use diskmodel::presets;

    fn mech() -> Mechanics {
        Mechanics::new(&presets::barracuda_es_750gb())
    }

    fn req(id: u64, lba: u64) -> IoRequest {
        IoRequest::new(id, SimTime::ZERO, lba, 8, IoKind::Read)
    }

    /// A queue holding reads of `lbas`, with ids in arrival order.
    fn queue(window: usize, lbas: &[u64]) -> PendingQueue {
        let mut q = PendingQueue::new(window, 1);
        for (id, &lba) in lbas.iter().enumerate() {
            q.push(req(id as u64, lba));
        }
        q
    }

    /// Pops with one arm parked over cylinder 0, positioning from t = 0.
    fn pop(q: &mut PendingQueue, mech: &Mechanics, policy: QueuePolicy) -> Option<IoRequest> {
        let arms = ArmSet::from_arms(&mech.default_arms(1));
        let cost = ScanCost {
            mech,
            arms: &arms,
            heads: 1,
            start: SimTime::ZERO,
            scaling: LatencyScaling::none(),
        };
        q.pop_next(policy, &cost, |_| true, None).map(|(r, _)| r)
    }

    /// The last LBA of the disk: a full-stroke seek from cylinder 0,
    /// longer than any rotational wait.
    fn far(m: &Mechanics) -> u64 {
        m.geometry().total_sectors() - 1
    }

    #[test]
    fn fcfs_ignores_cost() {
        let m = mech();
        let mut q = queue(DEFAULT_WINDOW, &[far(&m), 0]);
        assert_eq!(pop(&mut q, &m, QueuePolicy::Fcfs).unwrap().id, 0);
    }

    #[test]
    fn sptf_picks_cheapest() {
        let m = mech();
        let mut q = queue(DEFAULT_WINDOW, &[far(&m), 10, far(&m) - 64]);
        assert_eq!(pop(&mut q, &m, QueuePolicy::Sptf).unwrap().id, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn sptf_tie_breaks_by_arrival_order() {
        let m = mech();
        let mut q = queue(DEFAULT_WINDOW, &[1, 1]);
        assert_eq!(pop(&mut q, &m, QueuePolicy::Sptf).unwrap().id, 0);
    }

    #[test]
    fn window_bounds_scan() {
        let m = mech();
        // Request 2 is the cheapest, but outside the window.
        let mut q = queue(2, &[far(&m), far(&m), 1]);
        assert_eq!(pop(&mut q, &m, QueuePolicy::Sptf).unwrap().id, 0);
        // Now it has slid into the window.
        assert_eq!(pop(&mut q, &m, QueuePolicy::Sptf).unwrap().id, 2);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let m = mech();
        let mut q = queue(DEFAULT_WINDOW, &[1, 2]);
        let _ = pop(&mut q, &m, QueuePolicy::Fcfs);
        let _ = pop(&mut q, &m, QueuePolicy::Fcfs);
        q.push(req(2, 3));
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = queue(DEFAULT_WINDOW, &[]);
        assert!(pop(&mut q, &mech(), QueuePolicy::Sptf).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn forget_costs_reprices_under_new_mechanics() {
        // Priced at full speed, then drained at a lower RPM (whose track
        // skew moves every sector angle): once the costs are forgotten the
        // order matches a queue that never saw the full-speed mechanics.
        let full = mech();
        let slow = Mechanics::new(&presets::barracuda_es_750gb().with_rpm(4_200));
        let lbas: Vec<u64> = (0..24).map(|i| (i * 7_368_787) % far(&full)).collect();
        let mut q = queue(DEFAULT_WINDOW, &lbas);
        let first = pop(&mut q, &full, QueuePolicy::Sptf).unwrap().id as usize;
        let mut fresh = PendingQueue::new(DEFAULT_WINDOW, 1);
        for (id, &lba) in lbas.iter().enumerate().filter(|&(id, _)| id != first) {
            fresh.push(req(id as u64, lba));
        }
        q.forget_costs();
        let drain = |q: &mut PendingQueue| -> Vec<u64> {
            std::iter::from_fn(|| pop(q, &slow, QueuePolicy::Sptf).map(|r| r.id)).collect()
        };
        assert_eq!(drain(&mut q), drain(&mut fresh));
    }

    #[test]
    fn drains_everything_exactly_once() {
        let m = mech();
        let lbas: Vec<u64> = (0..100).map(|i| (i * 7_368_787) % far(&m)).collect();
        let mut q = queue(8, &lbas);
        let mut seen = std::collections::BTreeSet::new();
        while let Some(r) = pop(&mut q, &m, QueuePolicy::Sptf) {
            assert!(seen.insert(r.id), "duplicate {}", r.id);
        }
        assert_eq!(seen.len(), 100);
    }
}
