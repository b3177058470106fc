//! Request queue and scheduling policies.
//!
//! The paper uses Shortest-Positioning-Time-First (SPTF, Worthington et
//! al. \[42\]) because the goal is to minimize rotational latency: with
//! multiple actuators the scheduler gains the extra freedom of choosing
//! *which arm* services a request, and SPTF naturally exploits it. FCFS
//! and SSTF are provided as baselines.
//!
//! SPTF/SSTF examine a bounded window of the queue head (configurable,
//! default [`DEFAULT_WINDOW`]); real controllers bound their scheduling
//! scan the same way, and it keeps the simulator's worst case linear
//! under overload.
//!
//! The SPTF scan repeats no work across dispatch decisions. Each
//! windowed request's [`Target`] is located once, and each of its
//! per-arm seeks is memoized under the cylinders it was computed
//! between, so only the arm that moved since the last scan misses. An
//! arm whose seek alone already reaches the best cost found so far is
//! not priced further: rotation is never negative, and both minima use a
//! strict `<` that keeps the first minimum, so the request and arm
//! chosen are exactly those of pricing every arm of every candidate.

use std::collections::VecDeque;

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
/// The queue memoizes costs across scans, so `mech` and `scaling` must
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

/// A windowed request's memoized target, keyed on its (wrapped) LBA.
#[derive(Debug, Clone, Copy)]
struct TargetMemo {
    lba: u64,
    target: Target,
}

impl TargetMemo {
    /// No real LBA reaches `u64::MAX`, so an empty entry never hits.
    const EMPTY: TargetMemo = TargetMemo {
        lba: u64::MAX,
        target: Target {
            cylinder: 0,
            angle: 0.0,
        },
    };
}

/// A memoized (scaled) seek between two cylinders.
#[derive(Debug, Clone, Copy)]
struct SeekMemo {
    from: u32,
    to: u32,
    seek: SimDuration,
}

impl SeekMemo {
    /// No arm parks over cylinder `u32::MAX`, so an empty entry never hits.
    const EMPTY: SeekMemo = SeekMemo {
        from: u32::MAX,
        to: u32::MAX,
        seek: SimDuration::ZERO,
    };
}

/// The pending-request queue of a drive.
#[derive(Debug, Clone)]
pub struct PendingQueue {
    queue: VecDeque<IoRequest>,
    window: usize,
    peak_len: usize,
    /// A permutation of the memo rows: the row of each windowed
    /// request in queue order, then the free rows. It only steers hits;
    /// every memo entry is keyed on all of its inputs.
    rows: Vec<usize>,
    /// Per memo row: the request's target.
    targets: Vec<TargetMemo>,
    /// Per memo row and arm (row-major): the arm's seek to the target.
    seeks: Vec<SeekMemo>,
    /// Arms per memo row.
    arms: usize,
}

impl PendingQueue {
    /// Creates an empty queue with scheduling window `window` for a
    /// drive with `arms` assemblies. The cost memo is allocated here,
    /// once: `window` targets and `window × arms` seeks, whatever the
    /// queue depth.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize, arms: usize) -> Self {
        assert!(window > 0, "window must be positive");
        PendingQueue {
            queue: VecDeque::new(),
            window,
            peak_len: 0,
            rows: (0..window).collect(),
            targets: vec![TargetMemo::EMPTY; window],
            seeks: vec![SeekMemo::EMPTY; window * arms],
            arms,
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

    /// Drops every memoized cost. A caller that changes the mechanics
    /// or the scaling it scans with (DRPM's spindle-speed shifts) calls
    /// this first.
    pub fn forget_costs(&mut self) {
        self.targets.fill(TargetMemo::EMPTY);
        self.seeks.fill(SeekMemo::EMPTY);
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
    // simlint: hot — the dispatch scan; runs once per dispatch for the
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
            QueuePolicy::Sstf => (self.scan_sstf(n, cost, eligible, prof), None),
            QueuePolicy::Sptf => self.scan_sptf(n, cost, eligible, prof),
        };
        let req = self.queue.remove(idx)?;
        // The removed request's row goes last; when a request slides
        // into the window it lands at position `n - 1` and takes it.
        self.rows[idx..n].rotate_left(1);
        Some((req, choice))
    }

    /// SSTF over the first `n` requests: index of the first one whose
    /// nearest eligible arm is closest.
    fn scan_sstf(
        &mut self,
        n: usize,
        c: &ScanCost<'_>,
        eligible: impl Fn(usize) -> bool,
        prof: Option<&DriveProfCounts>,
    ) -> usize {
        let mut visits = 0u64;
        let mut best: Option<(usize, SimDuration)> = None;
        for i in 0..n {
            let target = self.target(i, c.mech);
            let mut dist: Option<u32> = None;
            for arm in (0..c.arms.len()).filter(|&a| eligible(a)) {
                visits += 1;
                let d = c.arms.cylinder(arm).abs_diff(target.cylinder);
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
            p.arm_visits.add(visits);
        }
        best.map_or(0, |(i, _)| i)
    }

    /// SPTF over the first `n` requests: index of the first one with
    /// the least positioning cost, and its first cheapest arm.
    fn scan_sptf(
        &mut self,
        n: usize,
        c: &ScanCost<'_>,
        eligible: impl Fn(usize) -> bool,
        prof: Option<&DriveProfCounts>,
    ) -> (usize, Option<ArmChoice>) {
        debug_assert!(c.arms.len() <= self.arms, "more arms than memo columns");
        let (mut visits, mut evals) = (0u64, 0u64);
        let rotation = c.mech.rotation();
        // Reduced once per scan; each priced arm advances it by its
        // seek, so the per-arm loop never divides.
        let phase = rotation.phase(c.start);
        let mut best: Option<(usize, ArmChoice)> = None;
        for i in 0..n {
            let target = self.target(i, c.mech);
            let row = self.rows[i] * self.arms;
            // Least cost so far, over this candidate's arms and over
            // the earlier candidates.
            let mut bound = best.map(|(_, b)| b.cost());
            let mut cand: Option<ArmChoice> = None;
            for arm in (0..c.arms.len()).filter(|&a| eligible(a)) {
                visits += 1;
                let from = c.arms.cylinder(arm);
                let memo = &mut self.seeks[row + arm];
                if memo.from != from || memo.to != target.cylinder {
                    *memo = SeekMemo {
                        from,
                        to: target.cylinder,
                        seek: c.mech.seek(from, target.cylinder, c.scaling),
                    };
                }
                let seek = memo.seek;
                if bound.is_some_and(|b| seek >= b) {
                    continue;
                }
                evals += 1;
                let azimuth = c.arms.azimuth(arm);
                let at = rotation.advance(phase, seek);
                let rot = c.mech.rot_at_phase(target, azimuth, c.heads, at, c.scaling);
                let cost = seek + rot;
                if cand.is_none_or(|b| cost < b.cost()) {
                    cand = Some(ArmChoice { arm, seek, rot });
                    bound = Some(bound.map_or(cost, |b| b.min(cost)));
                }
            }
            if let Some(cand) = cand {
                if best.is_none_or(|(_, b)| cand.cost() < b.cost()) {
                    best = Some((i, cand));
                }
            }
        }
        if let Some(p) = prof {
            p.candidates.add(n as u64);
            p.arm_visits.add(visits);
            p.positioning_evals.add(evals);
            p.sptf_compares.add(evals);
        }
        best.map_or((0, None), |(i, choice)| (i, Some(choice)))
    }

    /// The target of the `i`-th queued request (which must be inside
    /// the window), located on first use and memoized in its row.
    fn target(&mut self, i: usize, mech: &Mechanics) -> Target {
        let capacity = mech.geometry().total_sectors();
        let lba = self.queue[i].lba;
        let lba = if lba >= capacity { lba % capacity } else { lba };
        let memo = &mut self.targets[self.rows[i]];
        if memo.lba != lba {
            *memo = TargetMemo {
                lba,
                target: mech.target(lba),
            };
        }
        memo.target
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
        // skew moves every sector angle): once the memo is forgotten the
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
