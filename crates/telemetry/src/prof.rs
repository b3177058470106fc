//! Host-time phase profiling of the coarse run phases.
//!
//! Everything else in this crate (and in every sim crate) runs on
//! *virtual* time; this module is the one sanctioned exception. It
//! attributes real wall-clock execution time to a few coarse named
//! phases ([`Phase`]) via scoped timers ([`scope`]): planning, the
//! per-point simulations, executor idle, reduction, exports and
//! heartbeats. No scope sits on the per-request path, so the profile
//! costs a fixed number of clock reads per run point, not per request.
//! Per-layer questions (source pull, kernel push/pop, dispatch scan,
//! cost model, stats record) are answered by perfbench's batch
//! micro-timings (`python3 perfbench/run.py --trace 1`) and by the
//! deterministic counters, not here.
//!
//! # The wall-clock carve-out
//!
//! simlint's `no-wall-clock` rule bans host-time types in sim crates
//! because host time feeding simulation state destroys reproducibility.
//! This module *reads* the host clock but its measurements flow only
//! outward — to stderr, profile files, and heartbeat snapshots — never
//! into simulated state, event ordering, or results. The carve-out is
//! therefore a single aliased import below, annotated with a scoped
//! `simlint: allow`; the baseline stays empty and every other use site
//! in the crate remains lint-clean.
//!
//! # Design
//!
//! * Disabled (the default), [`scope`] is one relaxed atomic load and a
//!   branch.
//! * Enabled, each scope stamps the monotonic clock on entry and exit
//!   and accrues *self time* to the innermost open phase, so a parent's
//!   self time never double-counts its children.
//! * The open-phase stack is a thread-local `u64` path (8 bits per
//!   level, up to [`MAX_DEPTH`] levels; deeper scopes become no-ops),
//!   and per-thread accumulators flush into a global table whenever the
//!   stack returns to depth zero — worker threads profile without
//!   cross-thread traffic in steady state.
//! * [`ProfReport`] renders the table as a human-readable phase tree
//!   and a collapsed-stack (flamegraph-format) file. The table reports
//!   the profiler's own cost: scope entries times the cost of one empty
//!   enabled scope, measured in-process when the report is built.
//!
//! [`Heartbeat`] reuses the same clock for periodic live-run snapshots
//! (stderr + atomically rewritten Prometheus textfile), and
//! [`Stopwatch`] gives callers a plain monotonic timer for progress
//! lines.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
// The one sanctioned host-clock import in the sim crates: prof
// measurements flow outward (files/stderr), never into sim state.
// simlint: allow(no-wall-clock)
use std::time::Instant as HostInstant;

/// Maximum profiled scope nesting depth; deeper scopes are no-ops.
pub const MAX_DEPTH: usize = 8;

/// A named coarse execution phase. Self-time attribution means phases
/// nest freely without double counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Whole-run root (study dispatch, reduction, rendering).
    Run = 0,
    /// Planning a study's point list.
    Plan,
    /// One plan point's simulation (worker-side root when parallel).
    RunPoint,
    /// Executor main thread waiting on worker results.
    ExecIdle,
    /// Plan-order result reduction.
    Reduce,
    /// Trace export (`--trace`).
    ExportTrace,
    /// Metrics export (`--metrics`).
    ExportMetrics,
    /// Heartbeat snapshot emission.
    Heartbeat,
}

/// Every phase, indexed by its path code (`Phase as u8`).
pub const PHASES: [Phase; 8] = [
    Phase::Run,
    Phase::Plan,
    Phase::RunPoint,
    Phase::ExecIdle,
    Phase::Reduce,
    Phase::ExportTrace,
    Phase::ExportMetrics,
    Phase::Heartbeat,
];

impl Phase {
    /// Stable name used in folded stacks and phase tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Plan => "plan",
            Phase::RunPoint => "run_point",
            Phase::ExecIdle => "exec_idle",
            Phase::Reduce => "reduce",
            Phase::ExportTrace => "export_trace",
            Phase::ExportMetrics => "export_metrics",
            Phase::Heartbeat => "heartbeat",
        }
    }

    fn from_code(code: u8) -> Option<Phase> {
        PHASES.get(code as usize).copied()
    }
}

// ---------------------------------------------------------------------
// Clock and enable flag

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<HostInstant> = OnceLock::new();

/// Nanoseconds since the profiling epoch (first clock use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(HostInstant::now).elapsed().as_nanos() as u64
}

/// Turns phase profiling on. Scopes entered while disabled were no-ops
/// and stay no-ops through their exit.
pub fn enable() {
    now_ns(); // pin the epoch
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns phase profiling off (new scopes become no-ops).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True if phase profiling is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Per-thread scope stack and accumulator

#[derive(Debug, Default, Clone, Copy)]
struct PathStat {
    self_ns: u64,
    enters: u64,
    exits: u64,
}

#[derive(Default)]
struct Tls {
    depth: usize,
    /// Open-phase stack encoded 8 bits per level, innermost in the low
    /// byte; each byte is `phase code + 1` so 0 means "empty".
    path: u64,
    /// Clock stamp of the last scope boundary on this thread.
    last: u64,
    acc: BTreeMap<u64, PathStat>,
}

thread_local! {
    static TLS: RefCell<Tls> = RefCell::new(Tls::default());
}

static TOTALS: Mutex<BTreeMap<u64, PathStat>> = Mutex::new(BTreeMap::new());

fn merge_into_totals(acc: BTreeMap<u64, PathStat>) {
    let mut totals = TOTALS.lock().unwrap_or_else(|e| e.into_inner());
    for (path, stat) in acc {
        let t = totals.entry(path).or_default();
        t.self_ns += stat.self_ns;
        t.enters += stat.enters;
        t.exits += stat.exits;
    }
}

/// RAII guard for one profiled phase; created by [`scope`].
#[derive(Debug)]
pub struct Scope {
    active: bool,
}

/// Opens a profiled scope for `phase`. Disabled or past [`MAX_DEPTH`],
/// this is a no-op guard.
#[inline]
pub fn scope(phase: Phase) -> Scope {
    if !enabled() {
        return Scope { active: false };
    }
    let entered = TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        if t.depth >= MAX_DEPTH {
            return false;
        }
        let now = now_ns();
        if t.depth > 0 {
            let path = t.path;
            let since_last = now.saturating_sub(t.last);
            t.acc.entry(path).or_default().self_ns += since_last;
        }
        t.depth += 1;
        t.path = (t.path << 8) | (phase as u64 + 1);
        let path = t.path;
        t.acc.entry(path).or_default().enters += 1;
        t.last = now;
        true
    });
    Scope { active: entered }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        TLS.with(|tls| {
            let mut t = tls.borrow_mut();
            if t.depth == 0 {
                // Unbalanced exit (only reachable if a caller leaks a
                // guard across reset); drop silently.
                return;
            }
            let now = now_ns();
            let path = t.path;
            let since_last = now.saturating_sub(t.last);
            {
                let stat = t.acc.entry(path).or_default();
                stat.self_ns += since_last;
                stat.exits += 1;
            }
            t.path >>= 8;
            t.depth -= 1;
            t.last = now;
            if t.depth == 0 {
                let acc = std::mem::take(&mut t.acc);
                drop(t);
                merge_into_totals(acc);
            }
        });
    }
}

/// Clears accumulated phase data (global table and the calling thread's
/// in-flight accumulator). Test isolation; call with no scopes open.
pub fn reset() {
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        t.acc.clear();
        t.depth = 0;
        t.path = 0;
    });
    let mut totals = TOTALS.lock().unwrap_or_else(|e| e.into_inner());
    // Shrink site: `mem::take` releases the table's nodes.
    drop(std::mem::take(&mut *totals));
}

// ---------------------------------------------------------------------
// Report

/// One phase path's accumulated numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLine {
    /// Phase names from root to leaf, e.g. `["run", "run_point"]`.
    pub path: Vec<&'static str>,
    /// Time attributed to exactly this path (children excluded).
    pub self_ns: u64,
    /// Scope entries.
    pub enters: u64,
    /// Scope exits (== `enters` once all scopes are closed).
    pub exits: u64,
}

/// A harvested phase profile over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfReport {
    /// End-to-end measured wall time the profile is judged against.
    pub wall_ns: u64,
    /// Per-path lines, sorted by path (depth-first, parents before
    /// children).
    pub lines: Vec<PhaseLine>,
    /// Measured host cost of one enabled empty scope (enter + exit),
    /// in nanoseconds.
    pub scope_ns: f64,
}

fn decode_path(mut path: u64) -> Vec<&'static str> {
    let mut codes = Vec::new();
    while path != 0 {
        codes.push((path & 0xff) as u8);
        path >>= 8;
    }
    codes.reverse();
    codes
        .into_iter()
        .filter_map(|c| c.checked_sub(1).and_then(Phase::from_code))
        .map(Phase::name)
        .collect()
}

fn drain_totals() -> BTreeMap<u64, PathStat> {
    let mut totals = TOTALS.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *totals)
}

/// Empty scopes timed per calibration batch.
const CALIBRATION_SCOPES: u32 = 4_096;

/// Host cost of one enabled empty scope in nanoseconds: the fastest of
/// three batches of real [`scope`] calls, each nested under one outer
/// scope as most run scopes are. The batches' lines are drained and
/// dropped, so the calibration shows up in no report. Call with no
/// scopes open and the global table already drained.
fn calibrate_scope_ns() -> f64 {
    let was_enabled = enabled();
    enable();
    let batch = || {
        let start = now_ns();
        let _outer = scope(Phase::Run);
        for _ in 0..CALIBRATION_SCOPES {
            std::hint::black_box(scope(Phase::RunPoint));
        }
        now_ns().saturating_sub(start)
    };
    let fastest = (0..3).map(|_| batch()).min().unwrap_or(0);
    if !was_enabled {
        disable();
    }
    drop(drain_totals());
    fastest as f64 / f64::from(CALIBRATION_SCOPES)
}

impl ProfReport {
    /// Builds a report from the global table (draining it) against the
    /// given measured wall time, then measures the cost of one scope.
    /// Call with no scopes open.
    pub fn take(wall_ns: u64) -> Self {
        let drained = drain_totals();
        let mut lines: Vec<PhaseLine> = drained
            .into_iter()
            .map(|(path, stat)| PhaseLine {
                path: decode_path(path),
                self_ns: stat.self_ns,
                enters: stat.enters,
                exits: stat.exits,
            })
            .collect();
        lines.sort_by(|a, b| a.path.cmp(&b.path));
        ProfReport {
            wall_ns,
            lines,
            scope_ns: calibrate_scope_ns(),
        }
    }

    /// Scope entries over all phase paths.
    pub fn scopes(&self) -> u64 {
        self.lines.iter().map(|l| l.enters).sum()
    }

    /// Wall time attributed to some named phase: the sum of all self
    /// times. On multi-threaded runs this is *thread* time and may
    /// legitimately exceed `wall_ns`.
    pub fn attributed_ns(&self) -> u64 {
        self.lines.iter().map(|l| l.self_ns).sum()
    }

    /// Measured wall time no phase accounts for.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.attributed_ns())
    }

    /// Percentage of wall time attributed to named phases, capped at
    /// 100 (parallel runs can attribute more thread time than wall).
    pub fn coverage_pct(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let pct = self.attributed_ns() as f64 * 100.0 / self.wall_ns as f64;
        pct.min(100.0)
    }

    /// Total (self + descendant) time for the line at `idx`.
    pub fn total_ns(&self, idx: usize) -> u64 {
        let prefix = &self.lines[idx].path;
        self.lines
            .iter()
            .filter(|l| {
                l.path.len() >= prefix.len() && &l.path[..prefix.len()] == prefix.as_slice()
            })
            .map(|l| l.self_ns)
            .sum()
    }

    /// Collapsed-stack (flamegraph) rendering: one line per path,
    /// `name;name;name <self-time-in-microseconds>`, sorted by path.
    /// Feed to any stackcollapse-compatible flamegraph tool.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{} {}", l.path.join(";"), l.self_ns / 1_000);
        }
        out
    }

    /// Human-readable phase table with a wall/attributed/unattributed
    /// footer and the profiler's own estimated overhead. The
    /// unattributed remainder is always reported explicitly.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>12} {:>12}",
            "phase", "calls", "self(ms)", "total(ms)"
        );
        for (i, l) in self.lines.iter().enumerate() {
            let depth = l.path.len().saturating_sub(1);
            let name = l.path.last().copied().unwrap_or("?");
            let label = format!("{}{}", "  ".repeat(depth), name);
            let _ = writeln!(
                out,
                "{:<44} {:>10} {:>12.3} {:>12.3}",
                label,
                l.enters,
                l.self_ns as f64 / 1e6,
                self.total_ns(i) as f64 / 1e6,
            );
        }
        let attr = self.attributed_ns();
        let _ = writeln!(out);
        let _ = writeln!(out, "wall         {:>12.3} ms", self.wall_ns as f64 / 1e6);
        let _ = writeln!(
            out,
            "attributed   {:>12.3} ms ({:.1}% of wall)",
            attr as f64 / 1e6,
            self.coverage_pct()
        );
        let _ = writeln!(
            out,
            "unattributed {:>12.3} ms",
            self.unattributed_ns() as f64 / 1e6
        );
        // The profiler's own cost: scope entries × one measured scope.
        let overhead = self.scopes() as f64 * self.scope_ns;
        let _ = writeln!(
            out,
            "overhead ≈ {} scopes × {:.1} ns = {:.3} ms ({:.2}% of wall)",
            self.scopes(),
            self.scope_ns,
            overhead / 1e6,
            overhead * 100.0 / self.wall_ns.max(1) as f64
        );
        out
    }
}

// ---------------------------------------------------------------------
// Stopwatch

/// A plain monotonic host-time stopwatch (progress lines, ETA math).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { start_ns: now_ns() }
    }

    /// Nanoseconds elapsed since [`start`](Self::start).
    pub fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.start_ns)
    }

    /// Seconds elapsed since [`start`](Self::start).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

// ---------------------------------------------------------------------
// Heartbeat

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), if the platform exposes it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().ok();
        }
    }
    None
}

/// Periodic live-run snapshots: a one-line stderr beat plus an
/// optional atomically rewritten Prometheus textfile — the seam a
/// future `reprod` `/metrics` endpoint serves from.
#[derive(Debug)]
pub struct Heartbeat {
    every_ns: u64,
    started_ns: u64,
    last_beat_ns: u64,
    total: Option<u64>,
    file: Option<PathBuf>,
    beats: u64,
}

impl Heartbeat {
    /// A heartbeat firing at most every `every_secs` seconds. `total`
    /// (expected completions) enables ETA; `file` names a Prometheus
    /// textfile to rewrite atomically on each beat.
    pub fn new(every_secs: f64, total: Option<u64>, file: Option<&Path>) -> Self {
        let now = now_ns();
        Heartbeat {
            every_ns: (every_secs.max(0.01) * 1e9) as u64,
            started_ns: now,
            last_beat_ns: now,
            total,
            file: file.map(Path::to_path_buf),
            beats: 0,
        }
    }

    /// Number of beats emitted so far.
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// Emits a beat if the interval has elapsed. `p90_ms` is only
    /// invoked when a beat actually fires (it may be costly).
    /// Returns true if a beat was emitted.
    pub fn maybe_beat(&mut self, completed: u64, p90_ms: impl FnOnce() -> f64) -> bool {
        let now = now_ns();
        if now.saturating_sub(self.last_beat_ns) < self.every_ns {
            return false;
        }
        let _hb = scope(Phase::Heartbeat);
        self.last_beat_ns = now;
        self.beats += 1;
        let elapsed_s = (now.saturating_sub(self.started_ns)) as f64 / 1e9;
        let rate = completed as f64 / elapsed_s.max(1e-9);
        let p90 = p90_ms();
        let rss = peak_rss_kb().unwrap_or(0);
        let eta_s = self.total.map(|t| {
            let left = t.saturating_sub(completed) as f64;
            if rate > 0.0 {
                left / rate
            } else {
                f64::INFINITY
            }
        });
        let mut line = match (self.total, eta_s) {
            (Some(t), Some(eta)) => format!(
                "[hb {}: {completed}/{t} req, {rate:.0} req/s, eta {eta:.0}s",
                self.beats
            ),
            _ => format!("[hb {}: {completed} req, {rate:.0} req/s", self.beats),
        };
        let _ = write!(line, ", p90 {p90:.3} ms, rss {rss} kB]");
        line.push('\n');
        // One write_all of a full line so beats stay intact when
        // stderr is piped or interleaved with worker output.
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
        drop(err);
        if let Some(path) = self.file.clone() {
            self.write_textfile(&path, completed, rate, p90, rss, eta_s);
        }
        true
    }

    fn write_textfile(
        &self,
        path: &Path,
        completed: u64,
        rate: f64,
        p90: f64,
        rss: u64,
        eta_s: Option<f64>,
    ) {
        let mut body = String::new();
        let _ = writeln!(body, "# TYPE repro_requests_completed counter");
        let _ = writeln!(body, "repro_requests_completed {completed}");
        let _ = writeln!(body, "# TYPE repro_requests_per_second gauge");
        let _ = writeln!(body, "repro_requests_per_second {rate:.3}");
        let _ = writeln!(body, "# TYPE repro_p90_response_ms gauge");
        let _ = writeln!(body, "repro_p90_response_ms {p90:.6}");
        let _ = writeln!(body, "# TYPE repro_peak_rss_kb gauge");
        let _ = writeln!(body, "repro_peak_rss_kb {rss}");
        if let Some(eta) = eta_s {
            if eta.is_finite() {
                let _ = writeln!(body, "# TYPE repro_eta_seconds gauge");
                let _ = writeln!(body, "repro_eta_seconds {eta:.1}");
            }
        }
        let _ = writeln!(body, "# TYPE repro_heartbeats_total counter");
        let _ = writeln!(body, "repro_heartbeats_total {}", self.beats);
        // Atomic rewrite: scrapers never observe a torn file.
        let tmp = path.with_extension("prom.tmp");
        if fs::write(&tmp, body).is_ok() {
            let _ = fs::rename(&tmp, path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiling state is process-global; tests that touch it serialize
    /// on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let _g = locked();
        disable();
        reset();
        {
            let _s = scope(Phase::Run);
            let _t = scope(Phase::RunPoint);
        }
        let r = ProfReport::take(1);
        assert!(r.lines.is_empty());
    }

    #[test]
    fn calibration_leaves_no_line_and_reports_its_cost() {
        let _g = locked();
        reset();
        enable();
        {
            let _run = scope(Phase::Run);
            let _p = scope(Phase::RunPoint);
        }
        disable();
        let r = ProfReport::take(1_000_000);
        let paths: Vec<_> = r.lines.iter().map(|l| l.path.clone()).collect();
        assert_eq!(paths, [vec!["run"], vec!["run", "run_point"]]);
        assert_eq!(r.scopes(), 2, "calibration scopes are not counted");
        assert!(r.scope_ns > 0.0);
        assert!(!enabled(), "calibration restores the disabled state");
        assert!(
            ProfReport::take(1).lines.is_empty(),
            "calibration drains its own lines"
        );
        let footer = r.table().lines().last().unwrap_or_default().to_string();
        assert!(footer.starts_with("overhead ≈ 2 scopes × "), "{footer}");
        assert!(footer.ends_with("% of wall)"), "{footer}");
    }

    #[test]
    fn nested_scopes_attribute_self_time_without_double_counting() {
        let _g = locked();
        reset();
        enable();
        {
            let _run = scope(Phase::Run);
            for _ in 0..3 {
                let _p = scope(Phase::RunPoint);
                std::hint::black_box(0u64);
            }
        }
        disable();
        let r = ProfReport::take(now_ns());
        let run: Vec<_> = r.lines.iter().filter(|l| l.path == ["run"]).collect();
        let point: Vec<_> = r
            .lines
            .iter()
            .filter(|l| l.path == ["run", "run_point"])
            .collect();
        assert_eq!(run.len(), 1);
        assert_eq!(point.len(), 1);
        assert_eq!(run[0].enters, 1);
        assert_eq!(run[0].exits, 1);
        assert_eq!(point[0].enters, 3);
        assert_eq!(point[0].exits, 3);
        // run's *total* covers its children; self never double counts.
        assert!(r.total_ns(0) >= point[0].self_ns);
    }

    #[test]
    fn depth_overflow_is_a_balanced_no_op() {
        let _g = locked();
        reset();
        enable();
        {
            let mut guards = Vec::new();
            for _ in 0..(MAX_DEPTH + 4) {
                guards.push(scope(Phase::RunPoint));
            }
        }
        disable();
        let r = ProfReport::take(now_ns());
        for l in &r.lines {
            assert_eq!(l.enters, l.exits, "unbalanced at {:?}", l.path);
            assert!(l.path.len() <= MAX_DEPTH);
        }
    }

    #[test]
    fn folded_and_table_render() {
        let r = ProfReport {
            wall_ns: 4_000_000,
            lines: vec![
                PhaseLine {
                    path: vec!["run"],
                    self_ns: 1_000_000,
                    enters: 1,
                    exits: 1,
                },
                PhaseLine {
                    path: vec!["run", "run_point"],
                    self_ns: 2_500_000,
                    enters: 4,
                    exits: 4,
                },
            ],
            scope_ns: 50.0,
        };
        assert_eq!(r.folded(), "run 1000\nrun;run_point 2500\n");
        let table = r.table();
        assert!(table.contains("unattributed"));
        assert!(
            table.contains("overhead ≈ 5 scopes × 50.0 ns = 0.000 ms (0.01% of wall)"),
            "{table}"
        );
        assert!(table.contains("run_point"));
        assert_eq!(r.attributed_ns(), 3_500_000);
        assert_eq!(r.unattributed_ns(), 500_000);
        assert!((r.coverage_pct() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn heartbeat_fires_on_interval_and_writes_textfile() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("prof-hb-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let file = dir.join("hb.prom");
        let mut hb = Heartbeat::new(0.01, Some(100), Some(&file));
        assert!(!hb.maybe_beat(1, || 0.5), "fires only after the interval");
        let sw = Stopwatch::start();
        while sw.elapsed_secs() < 0.02 {
            std::hint::black_box(0u64);
        }
        assert!(hb.maybe_beat(50, || 0.5));
        assert_eq!(hb.beats(), 1);
        let body = fs::read_to_string(&file).unwrap();
        assert!(body.contains("repro_requests_completed 50"));
        assert!(body.contains("repro_heartbeats_total 1"));
        let _ = fs::remove_dir_all(&dir);
    }
}
