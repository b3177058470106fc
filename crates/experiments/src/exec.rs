//! Deterministic parallel execution of [`ExperimentPlan`](crate::ExperimentPlan)s.
//!
//! The executor is a hand-rolled work-stealing thread pool: the
//! registry mirror is unreachable, so no rayon — only `std`. Points
//! are dealt round-robin onto per-worker deques; idle workers steal
//! from the back of their peers' queues; every finished point is sent
//! home tagged with its plan index and reassembled into plan order.
//! Because each [`Study::run_point`] is a pure function of
//! `(point, scale, book)`, the reassembled output vector — and therefore the
//! reduced report — is byte-identical no matter how many workers ran
//! or how the steals interleaved.
//!
//! Threads live *here* and nowhere else in the simulation crates: the
//! simulator itself stays single-threaded and deterministic, the pool
//! only fans out independent replays. simlint's `no-thread-in-sim`
//! rule enforces that split; the uses below carry the justification
//! allowances.
//!
//! Failure semantics are deterministic too: if any point panics, the
//! study fails with the *lowest-indexed* panicking point; if any point
//! returns a [`DriveError`], the study fails with the first erring
//! point in plan order.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use diskmodel::DriveError;
use telemetry::prof::{self, Phase};

use crate::configs::Scale;
use crate::plan::Study;

/// A worker panicked while running one plan point.
#[derive(Debug, Clone)]
pub struct PointPanic {
    /// Plan index of the panicking point (lowest, if several panicked).
    pub index: usize,
    /// The panic payload, rendered to text.
    pub message: String,
}

/// Why a study run failed.
#[derive(Debug)]
pub enum StudyError {
    /// A point's simulation panicked; the panic was contained to that
    /// point's worker and the rest of the sweep still drained.
    PointPanicked {
        /// The study that failed.
        study: &'static str,
        /// Label of the offending point.
        label: String,
        /// The panic payload, rendered to text.
        message: String,
    },
    /// A point's replay hit a drive/array protocol violation.
    Drive {
        /// The study that failed.
        study: &'static str,
        /// Label of the offending point.
        label: String,
        /// The underlying typed error.
        source: DriveError,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::PointPanicked {
                study,
                label,
                message,
            } => {
                write!(f, "study {study}: point `{label}` panicked: {message}")
            }
            StudyError::Drive {
                study,
                label,
                source,
            } => {
                write!(f, "study {study}: point `{label}` failed: {source}")
            }
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::PointPanicked { .. } => None,
            StudyError::Drive { source, .. } => Some(source),
        }
    }
}

/// How a sweep runs: how many worker threads, and whether per-point
/// progress lines go to stderr.
///
/// Progress goes to *stderr* so stdout — the rendered report — stays
/// byte-identical between serial and parallel runs.
#[derive(Debug, Clone)]
pub struct Executor {
    jobs: usize,
    progress: bool,
}

impl Executor {
    /// An executor with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Executor {
            jobs: jobs.max(1),
            progress: false,
        }
    }

    /// The single-worker executor: points run inline, in plan order.
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// Enables per-point progress lines on stderr.
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// True if per-point progress lines are enabled.
    pub fn progress(&self) -> bool {
        self.progress
    }

    /// Applies `f` to every point, returning the results in input
    /// order regardless of which worker ran which point.
    ///
    /// `f(i, &points[i])` must be a pure function of its arguments.
    /// Panics inside `f` are contained to the offending point; the
    /// remaining points still run, and the lowest panicking index is
    /// reported.
    pub fn map<P, T, F>(&self, points: &[P], f: F) -> Result<Vec<T>, PointPanic>
    where
        P: Sync,
        T: Send,
        F: Fn(usize, &P) -> T + Sync,
    {
        let workers = self.jobs.min(points.len().max(1));
        if workers <= 1 {
            return map_serial(points, &f);
        }
        map_parallel(points, &f, workers)
    }
}

/// Renders a panic payload (`&str` or `String`, the two shapes `panic!`
/// produces) to text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn map_serial<P, T, F>(points: &[P], f: &F) -> Result<Vec<T>, PointPanic>
where
    F: Fn(usize, &P) -> T,
{
    let mut out = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        // AssertUnwindSafe: a panicking point aborts the whole study,
        // so no partially-updated state is ever observed afterwards.
        match catch_unwind(AssertUnwindSafe(|| f(i, p))) {
            Ok(v) => out.push(v),
            Err(payload) => {
                return Err(PointPanic {
                    index: i,
                    message: panic_message(payload),
                })
            }
        }
    }
    Ok(out)
}

fn map_parallel<P, T, F>(points: &[P], f: &F, workers: usize) -> Result<Vec<T>, PointPanic>
where
    P: Sync,
    T: Send,
    F: Fn(usize, &P) -> T + Sync,
{
    // Deal indices round-robin onto per-worker deques. Workers pop
    // their own queue from the front and steal from peers' backs, so
    // contention only appears once a worker runs dry.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..points.len() {
        queues[i % workers]
            .lock()
            .expect("queue lock poisoned during deal")
            .push_back(i);
    }
    let (tx, rx) = mpsc::channel::<(usize, Result<T, String>)>();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(points.len());
    slots.resize_with(points.len(), || None);
    let mut panics: Vec<PointPanic> = Vec::new();
    crate::counters::WORKERS_SPAWNED.add(workers as u64);
    // simlint: allow(no-thread-in-sim) — the executor is the one sanctioned thread user
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            scope.spawn(move || {
                loop {
                    let idx = next_index(queues, w);
                    let Some(i) = idx else { break };
                    // AssertUnwindSafe: see `map_serial` — a panic
                    // fails the study, results are never consumed.
                    let out =
                        catch_unwind(AssertUnwindSafe(|| f(i, &points[i]))).map_err(panic_message);
                    if tx.send((i, out)).is_err() {
                        break; // collector gone; nothing left to report to
                    }
                }
            });
        }
        drop(tx);
        // The collector thread spends this loop blocked on the channel
        // while workers replay points: executor idle time.
        let _idle = prof::scope(Phase::ExecIdle);
        for (i, out) in rx.iter() {
            match out {
                Ok(v) => slots[i] = Some(v),
                Err(message) => panics.push(PointPanic { index: i, message }),
            }
        }
    });
    if let Some(worst) = panics.into_iter().min_by_key(|p| p.index) {
        return Err(worst);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every index was either collected or panicked"))
        .collect())
}

/// Pops the next index for worker `w`: its own queue first, then a
/// steal from the back of each peer's queue.
fn next_index(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("queue lock poisoned").pop_front() {
        return Some(i);
    }
    for off in 1..queues.len() {
        let victim = (w + off) % queues.len();
        if let Some(i) = queues[victim]
            .lock()
            .expect("queue lock poisoned")
            .pop_back()
        {
            crate::counters::STEALS.add(1);
            return Some(i);
        }
    }
    None
}

/// Plans, executes, and reduces one study on `exec`'s workers.
///
/// This is the engine behind [`Study::run`]; call that instead.
pub fn run_study<S: Study>(
    study: &S,
    scale: Scale,
    exec: &Executor,
) -> Result<S::Report, StudyError> {
    let plan = {
        let _plan = prof::scope(Phase::Plan);
        study.plan(scale)
    };
    let points = plan.points();
    let total = points.len();
    let done = AtomicUsize::new(0);
    let clock = prof::Stopwatch::start();
    // One book per study run: each profile's trace is generated by the
    // first point that needs it and replayed by the rest.
    let book = scale.book();
    let outcome = exec.map(points, |_, p| {
        let out = {
            let _rp = prof::scope(Phase::RunPoint);
            crate::counters::POINTS_RUN.add(1);
            study.run_point(p, scale, &book)
        };
        if exec.progress() {
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            let secs = clock.elapsed_secs().max(1e-9);
            let rate = n as f64 / secs;
            let eta = (total.saturating_sub(n)) as f64 / rate;
            // One write_all of a complete line so progress survives
            // being piped or interleaved across workers intact.
            let line = format!(
                "[{} {n}/{total}] {} ({rate:.1} pts/s, eta {eta:.0}s)\n",
                study.name(),
                study.label(p)
            );
            let _ = std::io::stderr().lock().write_all(line.as_bytes());
        }
        out
    });
    let results = match outcome {
        Ok(results) => results,
        Err(p) => {
            return Err(StudyError::PointPanicked {
                study: study.name(),
                label: study.label(&points[p.index]),
                message: p.message,
            })
        }
    };
    let mut outputs = Vec::with_capacity(results.len());
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(o) => outputs.push(o),
            Err(source) => {
                return Err(StudyError::Drive {
                    study: study.name(),
                    label: study.label(&points[i]),
                    source,
                })
            }
        }
    }
    let _reduce = prof::scope(Phase::Reduce);
    Ok(study.reduce(outputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_plan_order() {
        let points: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 4, 8] {
            let exec = Executor::new(jobs);
            let out = exec
                .map(&points, |i, p| {
                    assert_eq!(i, *p, "index/point pairing broken");
                    // Skew the per-point cost so fast points finish
                    // far out of submission order.
                    let spin = (37 - i) * 2_000;
                    let mut acc = 0u64;
                    for k in 0..spin {
                        acc = acc.wrapping_add(k as u64);
                    }
                    (i, acc.wrapping_mul(0).wrapping_add(i as u64 * 3))
                })
                .expect("no panics");
            let want: Vec<(usize, u64)> = (0..37).map(|i| (i, i as u64 * 3)).collect();
            assert_eq!(out, want, "jobs={jobs} broke plan-order collection");
        }
    }

    #[test]
    fn map_on_empty_plan_is_empty() {
        let exec = Executor::new(4);
        let out: Vec<u32> = exec.map(&[], |_, p: &u32| *p).expect("nothing to panic");
        assert!(out.is_empty());
    }

    #[test]
    fn panic_is_contained_and_lowest_index_reported() {
        let points: Vec<usize> = (0..16).collect();
        for jobs in [1, 4] {
            let exec = Executor::new(jobs);
            let err = exec
                .map(&points, |i, _| {
                    if i == 5 || i == 11 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .expect_err("two points panic");
            assert_eq!(
                err.index, 5,
                "jobs={jobs} must report the lowest panicking index"
            );
            assert_eq!(err.message, "boom at 5");
        }
    }

    #[test]
    fn jobs_are_clamped_to_at_least_one() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert_eq!(Executor::serial().jobs(), 1);
        assert!(!Executor::new(2).progress());
        assert!(Executor::new(2).with_progress().progress());
    }

    struct Doubler;

    impl Study for Doubler {
        type Point = u32;
        type Output = u32;
        type Report = Vec<u32>;

        fn name(&self) -> &'static str {
            "doubler"
        }

        fn plan(&self, scale: Scale) -> crate::plan::ExperimentPlan<u32> {
            crate::plan::ExperimentPlan::new((0..scale.requests.min(8) as u32).collect())
        }

        fn label(&self, point: &u32) -> String {
            format!("x={point}")
        }

        fn run_point(
            &self,
            point: &u32,
            _scale: Scale,
            _book: &workload::TraceBook,
        ) -> Result<u32, DriveError> {
            if *point == 7 {
                return Err(DriveError::NotInService);
            }
            Ok(point * 2)
        }

        fn reduce(&self, outputs: Vec<u32>) -> Vec<u32> {
            outputs
        }
    }

    #[test]
    fn study_run_reduces_in_plan_order() {
        let scale = Scale::quick().with_requests(6);
        let serial = Doubler
            .run(scale, &Executor::serial())
            .expect("no failing point");
        let parallel = Doubler
            .run(scale, &Executor::new(4))
            .expect("no failing point");
        assert_eq!(serial, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn study_drive_error_names_the_point() {
        let scale = Scale::quick().with_requests(8);
        let err = Doubler
            .run(scale, &Executor::new(2))
            .expect_err("point 7 errs");
        let text = err.to_string();
        assert!(text.contains("doubler"), "missing study name: {text}");
        assert!(text.contains("x=7"), "missing point label: {text}");
        assert!(
            text.contains("no request in service"),
            "missing source: {text}"
        );
    }
}
