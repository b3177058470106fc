//! Self-profiler oracles: counter-export determinism, the pinned
//! collapsed-stack format, and one host timing per plan point whatever
//! the request count or worker count.
//!
//! Counters are process-global, so every test that runs a study
//! serializes on one lock and resets the counters it reads.

use std::sync::Mutex;

use experiments::configs::Scale;
use experiments::{BottleneckStudy, Executor, LimitStudy, Study};
use telemetry::prof::{PhaseLine, ProfReport, RunTimes};
use workload::WorkloadKind;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `"deterministic"` section of the counter export, as rendered
/// bytes — exactly what `scripts/verify.sh` gates on.
fn det_section(jobs: usize) -> String {
    let json = experiments::profile::counters_json(jobs);
    json.split("\"host\"")
        .next()
        .expect("export always has a host section")
        .to_string()
}

fn run_limit_study(jobs: usize) -> String {
    experiments::profile::reset_counters();
    let scale = Scale::quick().with_requests(400);
    LimitStudy::all()
        .run(scale, &Executor::new(jobs))
        .expect("limit study runs");
    det_section(jobs)
}

#[test]
fn counter_export_is_identical_across_runs_and_jobs() {
    let _g = lock();
    let first = run_limit_study(1);
    let second = run_limit_study(1);
    assert_eq!(
        first, second,
        "two serial runs must export identical counters"
    );
    let parallel = run_limit_study(2);
    assert_eq!(
        first, parallel,
        "worker count must not leak into the deterministic section"
    );
    assert!(first.contains("\"experiments.points_run\""));
    assert!(first.contains("\"intradisk.dispatch.scans\""));
    assert!(first.contains("\"workload.requests_pulled\""));
}

#[test]
fn folded_stack_format_is_pinned() {
    let line = |path: &[&'static str], self_ns, calls| PhaseLine {
        path: path.to_vec(),
        self_ns,
        calls,
    };
    let report = ProfReport {
        wall_ns: 1_000_000,
        lines: vec![
            line(&["run"], 400_000, 1),
            line(&["run", "reduce"], 1_500, 1),
            line(&["run", "run_point"], 500_000, 1),
            line(&["run", "run_point", "export_metrics"], 90_999, 1),
        ],
        studies: Vec::new(),
        pair_ns: 25.0,
    };
    let folded = report.folded();
    let lines: Vec<&str> = folded.lines().collect();
    // One line per distinct path: `a;b;c <self-µs>`, parents sorted
    // before children, every line matching the flamegraph grammar.
    let paths: Vec<&str> = lines
        .iter()
        .map(|l| l.rsplit_once(' ').expect("space-separated count").0)
        .collect();
    assert_eq!(
        paths,
        [
            "run",
            "run;reduce",
            "run;run_point",
            "run;run_point;export_metrics"
        ],
        "collapsed-stack paths changed: {folded:?}"
    );
    for l in &lines {
        let (path, count) = l.rsplit_once(' ').expect("space-separated count");
        assert!(path
            .chars()
            .all(|c| c.is_ascii_lowercase() || c == '_' || c == ';'));
        count.parse::<u64>().expect("integer microsecond count");
    }
}

/// Profiling costs nothing per request: a study run records exactly one
/// host timing per plan point, whatever its request count or worker
/// count, so `--profile` cannot distort the per-request loop it runs
/// alongside. The executor keeps the study runs in run order.
#[test]
fn profiled_scope_count_is_independent_of_request_count() {
    let _g = lock();
    for requests in [400, 1_600] {
        for jobs in [1, 2] {
            let scale = Scale::quick().with_requests(requests);
            let limit = LimitStudy::all();
            let bottleneck = BottleneckStudy::only(WorkloadKind::TpcH);
            let plans = [limit.plan(scale).len(), bottleneck.plan(scale).len()];
            let exec = Executor::new(jobs);
            limit.run(scale, &exec).expect("limit study runs");
            bottleneck.run(scale, &exec).expect("bottleneck study runs");
            let studies = exec.take_times();
            assert!(exec.take_times().is_empty(), "taking the times drains them");
            // One row per study run, in run order: its name, one timing
            // per plan point, where the points ran, and its slowest ten.
            let rows: Vec<_> = studies
                .iter()
                .map(|s| (s.study, s.point_ns.len(), s.parallel, s.slowest.len()))
                .collect();
            let want = [("limit", plans[0]), ("bottleneck", plans[1])]
                .map(|(name, n)| (name, n, jobs > 1, n.min(10)));
            let at = format!("{requests} requests, --jobs {jobs}");
            assert_eq!(rows, want, "{at}");
            let times = RunTimes {
                studies,
                phases: Vec::new(),
            };
            let point_calls: u64 = ProfReport::new(1, times)
                .lines
                .iter()
                .filter(|l| l.path.last() == Some(&"run_point"))
                .map(|l| l.calls)
                .sum();
            assert_eq!(point_calls, (plans[0] + plans[1]) as u64, "{at}");
        }
    }
}
