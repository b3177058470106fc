//! Host-time phase profiling of the coarse run phases.
//!
//! Everything else in this crate (and in every sim crate) runs on
//! *virtual* time; this module is the one sanctioned exception. It
//! attributes real wall-clock execution time to a few coarse named
//! phases ([`Phase`]): planning, the per-point simulations, executor
//! idle, reduction, the explorer's cache probes, exports and
//! heartbeats. No timer sits on the per-request path, so the profile
//! costs a fixed number of clock reads per run point, not per request.
//! Per-layer questions (source pull, kernel push/pop, dispatch scan,
//! cost model, stats record) are answered by perfbench's batch
//! micro-timings (`python3 perfbench/run.py --trace 1`) and by the
//! deterministic counters, not here.
//!
//! # The wall-clock carve-out
//!
//! The workspace `clippy.toml` disallows host-time types and calls
//! because host time feeding simulation state destroys reproducibility.
//! This module *reads* the host clock but its measurements flow only
//! outward — to stderr, profile files, and heartbeat snapshots — never
//! into simulated state, event ordering, or results. The carve-out is
//! therefore one module-level `#[expect]` below; every other use site
//! in the workspace's simulation crates stays lint-clean.
//!
//! # Design
//!
//! Host times are plain values of the run that measured them; nothing
//! here is process-global. Code times a phase where it happens with a
//! [`Stopwatch`]: one clock-read pair per timed span. The executor
//! returns one [`StudyTimes`] per study run; the caller gathers these
//! and the phases it timed itself (exports, [`Heartbeat`] beats) into a
//! [`RunTimes`], and [`ProfReport::new`] folds them into a phase tree. Points that ran on worker threads
//! count under a root `run_point`, beside the calling thread's
//! `run;exec_idle`; points that ran inline count under `run;run_point`.
//! `run`'s self time is the wall time no calling-thread phase accounts
//! for. [`ProfReport`] renders the tree as a table and as collapsed
//! stacks (flamegraph format), plus per-study and slowest-point tables,
//! and reports its own cost: timed spans times one clock-read pair,
//! measured in-process when the report is built.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the profiler reads the host clock; its measurements flow only to stderr and profile files, never into simulated state"
)]

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant as HostInstant;

/// A named coarse execution phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Whole-run root (study dispatch, reduction, rendering).
    Run,
    /// Planning a study's point list.
    Plan,
    /// One plan point's simulation (worker-side root when parallel).
    RunPoint,
    /// Executor calling thread waiting on worker results.
    ExecIdle,
    /// Plan-order result reduction.
    Reduce,
    /// `repro explore` hashing its descriptors and probing the point
    /// cache.
    CacheProbe,
    /// Trace export (`--trace`).
    ExportTrace,
    /// Metrics export (`--metrics`).
    ExportMetrics,
    /// The `explore.json` write of `repro explore`.
    ExportExplore,
    /// The `report.html` dashboard write.
    ExportReport,
    /// Heartbeat snapshot emission.
    Heartbeat,
}

impl Phase {
    /// Stable name used in folded stacks and phase tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Plan => "plan",
            Phase::RunPoint => "run_point",
            Phase::ExecIdle => "exec_idle",
            Phase::Reduce => "reduce",
            Phase::CacheProbe => "cache_probe",
            Phase::ExportTrace => "export_trace",
            Phase::ExportMetrics => "export_metrics",
            Phase::ExportExplore => "export_explore",
            Phase::ExportReport => "export_report",
            Phase::Heartbeat => "heartbeat",
        }
    }
}

// ---------------------------------------------------------------------
// Stopwatch

/// A plain monotonic host-time stopwatch: phase timings, progress
/// lines, ETA math.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: HostInstant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: HostInstant::now(),
        }
    }

    /// Nanoseconds elapsed since [`start`](Self::start).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Seconds elapsed since [`start`](Self::start).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

// ---------------------------------------------------------------------
// Run-scoped timings

/// How many spans of one phase were timed, and their total host time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTime {
    /// Timed spans.
    pub calls: u64,
    /// Their total, in nanoseconds.
    pub ns: u64,
}

impl PhaseTime {
    /// One span of `ns` nanoseconds.
    pub fn once(ns: u64) -> Self {
        PhaseTime { calls: 1, ns }
    }

    /// Adds `other`'s spans to these.
    pub fn add(&mut self, other: PhaseTime) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Points per study run whose labels a [`StudyTimes`] keeps.
pub const SLOWEST_POINTS: usize = 10;

/// Host times of one study run, as the executor measured them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyTimes {
    /// The study's name.
    pub study: &'static str,
    /// True if the points ran on worker threads, false if inline.
    pub parallel: bool,
    /// Planning the point list.
    pub plan_ns: u64,
    /// Each point's run, in plan order.
    pub point_ns: Vec<u64>,
    /// The calling thread's wait on its workers (0 when inline).
    pub idle_ns: u64,
    /// Reducing the outputs.
    pub reduce_ns: u64,
    /// Up to [`SLOWEST_POINTS`] points, slowest first (ties in plan
    /// order), as `(label, ns)`.
    pub slowest: Vec<(String, u64)>,
}

/// The host times one run gathers for its [`ProfReport`].
#[derive(Debug, Default)]
pub struct RunTimes {
    /// Study runs, in run order.
    pub studies: Vec<StudyTimes>,
    /// Calling-thread phases outside the studies (exports, heartbeats).
    pub phases: Vec<(Phase, PhaseTime)>,
}

impl RunTimes {
    /// Adds `time` to `phase`'s total.
    pub fn add(&mut self, phase: Phase, time: PhaseTime) {
        match self.phases.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, t)) => t.add(time),
            None if time.calls > 0 => self.phases.push((phase, time)),
            None => {}
        }
    }

    /// Runs `f`, counting its host time as one span of `phase`.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let clock = Stopwatch::start();
        let out = f();
        self.add(phase, PhaseTime::once(clock.elapsed_ns()));
        out
    }
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
    /// Timed spans.
    pub calls: u64,
}

/// A phase profile over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfReport {
    /// End-to-end measured wall time the profile is judged against.
    pub wall_ns: u64,
    /// Per-path lines, sorted by path (depth-first, parents before
    /// children).
    pub lines: Vec<PhaseLine>,
    /// The study runs, in run order.
    pub studies: Vec<StudyTimes>,
    /// Measured host cost of one clock-read pair, in nanoseconds.
    pub pair_ns: f64,
}

/// Clock-read pairs timed per calibration batch.
const CALIBRATION_PAIRS: u32 = 4_096;

/// Host cost of one clock-read pair (a [`Stopwatch`] started and read)
/// in nanoseconds: the fastest of three batches.
fn calibrate_pair_ns() -> f64 {
    let batch = || {
        let clock = Stopwatch::start();
        for _ in 0..CALIBRATION_PAIRS {
            std::hint::black_box(std::hint::black_box(Stopwatch::start()).elapsed_ns());
        }
        clock.elapsed_ns()
    };
    let fastest = (0..3).map(|_| batch()).min().unwrap_or(0);
    fastest as f64 / f64::from(CALIBRATION_PAIRS)
}

impl ProfReport {
    /// Folds one run's times into a phase tree against its measured
    /// wall time, then measures the cost of one clock-read pair.
    pub fn new(wall_ns: u64, mut times: RunTimes) -> Self {
        let studies = std::mem::take(&mut times.studies);
        let mut workers = PhaseTime::default();
        for s in &studies {
            times.add(Phase::Plan, PhaseTime::once(s.plan_ns));
            let points = PhaseTime {
                calls: s.point_ns.len() as u64,
                ns: s.point_ns.iter().sum(),
            };
            if s.parallel {
                workers.add(points);
                times.add(Phase::ExecIdle, PhaseTime::once(s.idle_ns));
            } else {
                times.add(Phase::RunPoint, points);
            }
            times.add(Phase::Reduce, PhaseTime::once(s.reduce_ns));
        }
        let line = |path: Vec<&'static str>, t: PhaseTime| PhaseLine {
            path,
            self_ns: t.ns,
            calls: t.calls,
        };
        let children_ns: u64 = times.phases.iter().map(|(_, t)| t.ns).sum();
        let mut lines: Vec<PhaseLine> = times
            .phases
            .iter()
            .map(|&(phase, t)| line(vec![Phase::Run.name(), phase.name()], t))
            .collect();
        lines.push(line(
            vec![Phase::Run.name()],
            PhaseTime::once(wall_ns.saturating_sub(children_ns)),
        ));
        if workers.calls > 0 {
            lines.push(line(vec![Phase::RunPoint.name()], workers));
        }
        lines.sort_by(|a, b| a.path.cmp(&b.path));
        ProfReport {
            wall_ns,
            lines,
            studies,
            pair_ns: calibrate_pair_ns(),
        }
    }

    /// Timed spans over all phase paths.
    pub fn spans(&self) -> u64 {
        self.lines.iter().map(|l| l.calls).sum()
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
    /// footer and the profiler's own estimated overhead, then one row
    /// per study run and the slowest points of each. The unattributed
    /// remainder is always reported explicitly.
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
                l.calls,
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
        // The profiler's own cost: timed spans × one clock-read pair.
        let overhead = self.spans() as f64 * self.pair_ns;
        let _ = writeln!(
            out,
            "overhead ≈ {} spans × {:.1} ns = {:.3} ms ({:.2}% of wall)",
            self.spans(),
            self.pair_ns,
            overhead / 1e6,
            overhead * 100.0 / self.wall_ns.max(1) as f64
        );
        if self.studies.is_empty() {
            return out;
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "\n{:>4} {:<12} {:>8} {:>10} {:>12} {:>10} {:>10}",
            "#", "study", "points", "plan(ms)", "points(ms)", "idle(ms)", "reduce(ms)"
        );
        let mut slowest = format!(
            "\n{:>4} {:<12} {:>10}  slowest points\n",
            "#", "study", "ms"
        );
        for (n, s) in self.studies.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>4} {:<12} {:>8} {:>10.3} {:>12.3} {:>10.3} {:>10.3}",
                n + 1,
                s.study,
                s.point_ns.len(),
                ms(s.plan_ns),
                ms(s.point_ns.iter().sum()),
                ms(s.idle_ns),
                ms(s.reduce_ns)
            );
            for (label, ns) in &s.slowest {
                let _ = writeln!(
                    slowest,
                    "{:>4} {:<12} {:>10.3}  {label}",
                    n + 1,
                    s.study,
                    ms(*ns)
                );
            }
        }
        out + &slowest
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
    clock: Stopwatch,
    /// When the last beat fired, in nanoseconds since `clock` started.
    last_beat_ns: u64,
    total: Option<u64>,
    file: Option<PathBuf>,
    /// The beats emitted so far, and the host time they took.
    beats: PhaseTime,
}

impl Heartbeat {
    /// A heartbeat firing at most every `every_secs` seconds. `total`
    /// (expected completions) enables ETA; `file` names a Prometheus
    /// textfile to rewrite atomically on each beat.
    pub fn new(every_secs: f64, total: Option<u64>, file: Option<&Path>) -> Self {
        Heartbeat {
            every_ns: (every_secs.max(0.01) * 1e9) as u64,
            clock: Stopwatch::start(),
            last_beat_ns: 0,
            total,
            file: file.map(Path::to_path_buf),
            beats: PhaseTime::default(),
        }
    }

    /// The beats emitted so far, and the host time they took.
    pub fn time(&self) -> PhaseTime {
        self.beats
    }

    /// Emits a beat if the interval has elapsed. `p90_ms` is only
    /// invoked when a beat actually fires (it may be costly).
    /// Returns true if a beat was emitted.
    pub fn maybe_beat(&mut self, completed: u64, p90_ms: impl FnOnce() -> f64) -> bool {
        let now = self.clock.elapsed_ns();
        if now.saturating_sub(self.last_beat_ns) < self.every_ns {
            return false;
        }
        let beat = Stopwatch::start();
        self.last_beat_ns = now;
        self.beats.calls += 1;
        let elapsed_s = now as f64 / 1e9;
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
                self.beats.calls
            ),
            _ => format!("[hb {}: {completed} req, {rate:.0} req/s", self.beats.calls),
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
        self.beats.ns += beat.elapsed_ns();
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
        let _ = writeln!(body, "repro_heartbeats_total {}", self.beats.calls);
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

    #[test]
    fn calibration_leaves_no_line_and_reports_its_cost() {
        let mut times = RunTimes::default();
        times.add(Phase::ExportMetrics, PhaseTime::once(1_000));
        let r = ProfReport::new(1_000_000, times);
        let paths: Vec<_> = r.lines.iter().map(|l| l.path.clone()).collect();
        assert_eq!(paths, [vec!["run"], vec!["run", "export_metrics"]]);
        assert_eq!(r.spans(), 2, "calibration pairs are not counted");
        assert!(r.pair_ns > 0.0);
        let footer = r.table().lines().last().unwrap_or_default().to_string();
        assert!(footer.starts_with("overhead ≈ 2 spans × "), "{footer}");
        assert!(footer.ends_with("% of wall)"), "{footer}");
    }

    #[test]
    fn nested_scopes_attribute_self_time_without_double_counting() {
        let study = |study, parallel, point_ns| StudyTimes {
            study,
            parallel,
            plan_ns: 10,
            point_ns,
            idle_ns: if parallel { 500 } else { 0 },
            reduce_ns: 20,
            slowest: vec![("p0".to_string(), 300)],
        };
        let mut times = RunTimes::default();
        times
            .studies
            .push(study("serial", false, vec![100, 300, 200]));
        times.studies.push(study("fanned", true, vec![400, 400]));
        times.add(Phase::Heartbeat, PhaseTime::once(5));
        times.add(Phase::Heartbeat, PhaseTime::once(7));
        let r = ProfReport::new(10_000, times);
        let lines: Vec<_> = r
            .lines
            .iter()
            .map(|l| (l.path.join(";"), l.calls, l.self_ns))
            .collect();
        // The calling thread's children never count twice: `run`'s self
        // time is the wall they leave. Worker time sits beside it.
        let want = [
            ("run", 1, 10_000 - 1_172),
            ("run;exec_idle", 1, 500),
            ("run;heartbeat", 2, 12),
            ("run;plan", 2, 20),
            ("run;reduce", 2, 40),
            ("run;run_point", 3, 600),
            ("run_point", 2, 800),
        ];
        assert_eq!(lines, want.map(|(p, calls, ns)| (p.to_string(), calls, ns)));
        assert_eq!(r.total_ns(0), 10_000);
        let table = r.table();
        assert!(table.contains("   1 serial              3"), "{table}");
        assert!(
            table.contains("   2 fanned            0.000  p0"),
            "{table}"
        );
    }

    #[test]
    fn folded_and_table_render() {
        let r = ProfReport {
            wall_ns: 4_000_000,
            lines: vec![
                PhaseLine {
                    path: vec!["run"],
                    self_ns: 1_000_000,
                    calls: 1,
                },
                PhaseLine {
                    path: vec!["run", "run_point"],
                    self_ns: 2_500_000,
                    calls: 4,
                },
            ],
            studies: Vec::new(),
            pair_ns: 50.0,
        };
        assert_eq!(r.folded(), "run 1000\nrun;run_point 2500\n");
        let table = r.table();
        assert!(table.contains("unattributed"));
        assert!(
            table.contains("overhead ≈ 5 spans × 50.0 ns = 0.000 ms (0.01% of wall)"),
            "{table}"
        );
        assert!(table.contains("run_point"));
        assert_eq!(r.attributed_ns(), 3_500_000);
        assert_eq!(r.unattributed_ns(), 500_000);
        assert!((r.coverage_pct() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn heartbeat_fires_on_interval_and_writes_textfile() {
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
        assert_eq!(hb.time().calls, 1, "a beat counts itself");
        let body = fs::read_to_string(&file).unwrap();
        assert!(body.contains("repro_requests_completed 50"));
        assert!(body.contains("repro_heartbeats_total 1"));
        let _ = fs::remove_dir_all(&dir);
    }
}
