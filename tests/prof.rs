//! Self-profiler oracles: counter-export determinism, the pinned
//! collapsed-stack format, scope-balance properties, and a scope count
//! that does not grow with the request count.
//!
//! Counters and the profiler are process-global, so every test here
//! serializes on one lock and resets the global state it touches.

use std::sync::Mutex;

use experiments::configs::Scale;
use experiments::{Executor, LimitStudy, Study};
use simkit::Rng64;
use telemetry::prof::{self, Phase, PHASES};

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
    let _g = lock();
    prof::reset();
    prof::enable();
    {
        let _run = prof::scope(Phase::Run);
        {
            let _point = prof::scope(Phase::RunPoint);
            let _export = prof::scope(Phase::ExportMetrics);
        }
        let _reduce = prof::scope(Phase::Reduce);
    }
    prof::disable();
    let report = prof::ProfReport::take(1_000_000);
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

/// Profiling costs nothing per request: a drive run opens the same
/// number of scopes whatever its request count, so `--profile` cannot
/// distort the per-request loop it runs alongside.
#[test]
fn profiled_scope_count_is_independent_of_request_count() {
    let _g = lock();
    let params = experiments::configs::hcsd_params();
    let scopes_at = |requests: usize| {
        prof::reset();
        prof::enable();
        {
            let _point = prof::scope(Phase::RunPoint);
            let spec = workload::SyntheticSpec::paper(6.0, params.capacity_sectors(), requests);
            let r = experiments::run_drive(&params, intradisk::DriveConfig::sa(4), spec.source(42))
                .expect("drive run");
            assert_eq!(r.metrics.response_time_ms.count(), requests);
        }
        prof::disable();
        prof::ProfReport::take(1).scopes()
    };
    let small = scopes_at(500);
    let large = scopes_at(2_000);
    assert_eq!(small, large, "scope entries grow with the request count");
    assert_eq!(small, 1, "only the enclosing run_point scope is entered");
}

/// Random nesting always balances: every path's enters equal its
/// exits, and attributed self-time never exceeds the elapsed wall.
#[test]
fn random_scope_nesting_balances() {
    let _g = lock();

    fn nest(rng: &mut Rng64, depth: u32) {
        let phase = PHASES[rng.below(PHASES.len() as u64) as usize];
        let _s = prof::scope(phase);
        if depth >= 12 {
            return; // deeper than MAX_DEPTH: must still balance as no-ops
        }
        let children = rng.below(3);
        for _ in 0..children {
            nest(rng, depth + 1);
        }
    }

    for seed in 0..8u64 {
        prof::reset();
        prof::enable();
        let clock = prof::Stopwatch::start();
        let mut rng = Rng64::new(0xC0FFEE ^ seed);
        for _ in 0..50 {
            nest(&mut rng, 0);
        }
        let wall = clock.elapsed_ns();
        prof::disable();
        let report = prof::ProfReport::take(wall.max(1));
        let mut attributed = 0u64;
        for line in &report.lines {
            assert_eq!(
                line.enters, line.exits,
                "unbalanced scope at {:?} (seed {seed})",
                line.path
            );
            attributed += line.self_ns;
        }
        assert_eq!(attributed, report.attributed_ns());
        assert!(
            attributed <= wall.max(1),
            "self-time {attributed} exceeds wall {wall} (seed {seed})"
        );
    }
}
