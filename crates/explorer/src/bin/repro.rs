//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--jobs N] [--requests N] [--seed S]
//!       [--stats exact|streaming] [--trace DIR] [--metrics DIR]
//!       [--profile DIR]
//! repro report DIR
//! repro spc FILE [--actuators N] [--requests N]
//! repro scale [--requests N] [--actuators N] [--inter-arrival MS]
//!             [--stats exact|streaming] [--seed S] [--jobs N]
//!             [--heartbeat SECS] [--heartbeat-file PATH]
//! repro explore [--grid coarse|adaptive|full] [--refine N]
//!               [--latency mean|p90] [--out DIR] [--cache DIR|none]
//!               [--jobs N] [--requests N] [--seed S]
//!
//! EXPERIMENT: table1 | fig2 (alias: limit) | fig3 | fig4 |
//!             fig5 (alias: sa_eval) | fig6 | fig7 | fig8 | table9 |
//!             fig9 | thermal | drpm | dash | validate | robust |
//!             all (default: all; `all` includes the extension studies)
//! ```
//!
//! `--jobs`, `--requests`, `--seed`, `--stats` and `--profile` apply to
//! every mode; every other flag only to the modes listed with it. An
//! unknown or second experiment name, or a flag outside its mode, is
//! refused with one line on stderr and exit code 1.
//!
//! `--profile DIR` writes three artifacts into DIR after the run:
//! `profile.txt` (the host wall-clock tree of the coarse phases, ending
//! in the profiler's own measured overhead, then one row per study run
//! and each run's ten slowest points), `profile.folded` (collapsed
//! stacks for flamegraph tools) and `counters.json` (deterministic
//! kernel counters; the
//! `"deterministic"` section is byte-identical across runs, hosts, and
//! `--jobs`). Per-layer host timings come from perfbench
//! (`python3 perfbench/run.py --trace 1`). `--heartbeat SECS` makes
//! `repro scale` emit live `[hb ...]` snapshots (completed, req/s,
//! ETA, streaming p90, peak RSS) to stderr every SECS seconds;
//! `--heartbeat-file PATH` additionally rewrites a Prometheus textfile
//! atomically on each beat.
//!
//! `--stats streaming` swaps the studies' exact sample stores for
//! bounded-memory streaming accumulators; with it, request counts far
//! beyond report scale (10⁷–10⁸) run in flat memory. `repro scale` is
//! the dedicated scaling scenario: one SA(n) drive under the synthetic
//! open workload, printing deterministic stats to stdout and the peak
//! RSS (`[max-rss-kb: N]`, from `/proc/self/status` VmHWM) to stderr —
//! CI gates on that probe. With `--jobs 2` or more it splits the one
//! drive's replay across two threads (`experiments::SplitReplay`): a
//! scout replays segments ahead on a cold drive and the leader takes
//! its work over once their states meet, so stdout, the queue peak and
//! the deterministic counters are those of the one-thread replay.
//!
//! Sweeps fan out across `--jobs` worker threads (default: the
//! machine's available parallelism). The report printed to stdout is
//! byte-identical for every jobs value; per-point progress lines go to
//! stderr.
//!
//! `repro explore` sweeps the DASH × scheduler × cache × RPM ×
//! workload design space through the point cache (see the `explorer`
//! crate docs): cache misses simulate on the executor, hits load from
//! `--cache` (default `.explore-cache`; keyed on descriptor hash +
//! code version), and the run writes a byte-stable
//! `<out>/explore.json` plus a `report.html` with the Pareto-frontier
//! panel. Stdout and both artifacts are byte-identical across `--jobs`
//! values and cold/warm cache states; progress and hit/miss counts go
//! to stderr.
//!
//! `--trace DIR` additionally exports the fixed telemetry scenarios
//! (see `experiments::tracing`) as Perfetto-loadable JSON + CSV + an
//! analysis summary; `--metrics DIR` exports the same scenarios as
//! Prometheus text + stable JSON metrics snapshots (see
//! `experiments::metrics_export`). Both exports are byte-identical
//! across runs and `--jobs` values. `repro report DIR` renders the
//! metrics exports in DIR into a single self-contained
//! `DIR/report.html` dashboard.

use std::env;
use std::process::ExitCode;

use experiments::configs::{hcsd_params, Scale};
use experiments::{
    cost_analysis, extensions, tech_table, BottleneckStudy, DesignStudy, Executor, LimitStudy,
    RaidStudy, RpmStudy, SaStudy, Study, StudyError, ValidationStudy,
};
use simkit::StatsMode;
use telemetry::prof::{Phase, ProfReport, RunTimes, Stopwatch};

struct Args {
    experiment: String,
    scale: Scale,
    requests_set: bool,
    stats_set: bool,
    /// The trace file of `spc`, or the metrics directory of `report`.
    operand: Option<String>,
    actuators: u32,
    inter_arrival_ms: f64,
    jobs: usize,
    trace_dir: Option<String>,
    metrics_dir: Option<String>,
    profile_dir: Option<String>,
    heartbeat_secs: Option<f64>,
    heartbeat_file: Option<String>,
    explore_grid: String,
    explore_refine: u32,
    explore_latency: String,
    explore_out: String,
    explore_cache: Option<String>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What `--help` returns, as its `Err`: the one multi-line message
/// `parse_args` gives.
const USAGE: &str = "usage: repro [table1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|table9|fig9|thermal|drpm|dash|validate|robust|all] [--jobs N] [--requests N] [--seed S] [--stats exact|streaming] [--trace DIR] [--metrics DIR] [--profile DIR]\n       repro report <metrics-dir>\n       repro spc <trace-file> [--actuators N] [--requests N]\n       repro scale [--requests N] [--actuators N] [--inter-arrival MS] [--stats exact|streaming] [--seed S] [--jobs N] [--heartbeat SECS] [--heartbeat-file PATH]\n       repro explore [--grid coarse|adaptive|full] [--refine N] [--latency mean|p90] [--out DIR] [--cache DIR|none] [--jobs N] [--requests N] [--seed S]";

/// The study experiments `USAGE` lists, with the aliases `limit`
/// (fig2) and `sa_eval` (fig5). Every other mode is its own name.
const STUDIES: [&str; 18] = [
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table9", "fig9", "thermal",
    "drpm", "dash", "validate", "robust", "all", "limit", "sa_eval",
];

/// The modes a flag applies to (`study` is every name in `STUDIES`),
/// or `None` for `--jobs`, `--requests`, `--seed`, `--stats` and
/// `--profile`, which apply everywhere.
fn modes_of(flag: &str) -> Option<&'static [&'static str]> {
    match flag {
        "--trace" | "--metrics" => Some(&["study"]),
        "--heartbeat" | "--heartbeat-file" | "--inter-arrival" => Some(&["scale"]),
        "--actuators" => Some(&["scale", "spc"]),
        "--grid" | "--refine" | "--latency" | "--out" | "--cache" => Some(&["explore"]),
        _ => None,
    }
}

/// Parses the arguments after the program name. Every rejection is one
/// line, except the `--help` text.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut experiment: Option<String> = None;
    let mut mode_flags = Vec::new();
    let mut scale = Scale::report();
    let mut operand = None;
    let mut actuators = 4u32;
    let mut inter_arrival_ms = 6.0;
    let mut jobs = default_jobs();
    let mut requests_set = false;
    let mut stats_set = false;
    let mut trace_dir = None;
    let mut metrics_dir = None;
    let mut profile_dir = None;
    let mut heartbeat_secs = None;
    let mut heartbeat_file = None;
    let mut explore_grid = "adaptive".to_string();
    let mut explore_refine = 2u32;
    let mut explore_latency = "p90".to_string();
    let mut explore_out = "explore-out".to_string();
    let mut explore_cache = Some(".explore-cache".to_string());
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if let Some(modes) = modes_of(&arg) {
            mode_flags.push((arg.clone(), modes));
        }
        match arg.as_str() {
            "--trace" => {
                trace_dir = Some(it.next().ok_or("--trace needs a directory")?);
            }
            "--metrics" => {
                metrics_dir = Some(it.next().ok_or("--metrics needs a directory")?);
            }
            "--profile" => {
                profile_dir = Some(it.next().ok_or("--profile needs a directory")?);
            }
            "--heartbeat" => {
                let v = it
                    .next()
                    .ok_or("--heartbeat needs an interval in seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --heartbeat: {e}"))?;
                if !(v > 0.0 && v.is_finite()) {
                    return Err("--heartbeat must be positive and finite".to_string());
                }
                heartbeat_secs = Some(v);
            }
            "--heartbeat-file" => {
                heartbeat_file = Some(it.next().ok_or("--heartbeat-file needs a path")?);
            }
            "--actuators" => {
                actuators = it
                    .next()
                    .ok_or("--actuators needs a value")?
                    .parse::<u32>()
                    .map_err(|e| format!("bad --actuators: {e}"))?;
                if actuators == 0 {
                    return Err("--actuators must be at least 1".to_string());
                }
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--requests" => {
                let v = it
                    .next()
                    .ok_or("--requests needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad --requests: {e}"))?;
                if v == 0 {
                    return Err("--requests must be at least 1".to_string());
                }
                scale = scale.with_requests(v);
                requests_set = true;
            }
            "--grid" => {
                let v = it.next().ok_or("--grid needs coarse|adaptive|full")?;
                match v.as_str() {
                    "coarse" | "adaptive" | "full" => explore_grid = v,
                    other => {
                        return Err(format!("bad --grid {other:?} (want coarse|adaptive|full)"));
                    }
                }
            }
            "--refine" => {
                explore_refine = it
                    .next()
                    .ok_or("--refine needs a pass count")?
                    .parse::<u32>()
                    .map_err(|e| format!("bad --refine: {e}"))?;
            }
            "--latency" => {
                let v = it.next().ok_or("--latency needs mean|p90")?;
                match v.as_str() {
                    "mean" | "p90" => explore_latency = v,
                    other => return Err(format!("bad --latency {other:?} (want mean|p90)")),
                }
            }
            "--out" => {
                explore_out = it.next().ok_or("--out needs a directory")?;
            }
            "--cache" => {
                let v = it.next().ok_or("--cache needs a directory (or `none`)")?;
                explore_cache = if v == "none" { None } else { Some(v) };
            }
            "--stats" => {
                let v = it.next().ok_or("--stats needs exact|streaming")?;
                let mode = match v.as_str() {
                    "exact" => StatsMode::Exact,
                    "streaming" => StatsMode::Streaming,
                    other => {
                        return Err(format!("bad --stats {other:?} (want exact|streaming)"));
                    }
                };
                scale = scale.with_stats(mode);
                stats_set = true;
            }
            "--inter-arrival" => {
                inter_arrival_ms = it
                    .next()
                    .ok_or("--inter-arrival needs a value in ms")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --inter-arrival: {e}"))?;
                if !(inter_arrival_ms > 0.0 && inter_arrival_ms.is_finite()) {
                    return Err("--inter-arrival must be positive and finite".to_string());
                }
            }
            "--seed" => {
                scale.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if !other.starts_with('-') => match experiment.as_deref() {
                None if !STUDIES.contains(&other)
                    && !["report", "spc", "scale", "explore"].contains(&other) =>
                {
                    return Err(format!(
                        "unknown experiment {other:?} (repro --help lists them)"
                    ));
                }
                None => experiment = Some(other.to_string()),
                Some("spc" | "report") if operand.is_none() => operand = Some(other.to_string()),
                Some(first) => {
                    return Err(format!(
                        "unexpected argument {other:?} after experiment {first:?} (repro runs one experiment; `all` runs every study)"
                    ));
                }
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mut experiment = experiment.unwrap_or_else(|| "all".to_string());
    let mode = if STUDIES.contains(&experiment.as_str()) {
        "study"
    } else {
        experiment.as_str()
    };
    if let Some((flag, _)) = mode_flags.iter().find(|(_, modes)| !modes.contains(&mode)) {
        return Err(format!("{flag} does not apply to `repro {experiment}`"));
    }
    // `sa_eval` is the study behind the paper's Figure 5 CDFs; accept
    // it as an alias so metrics tooling can name the study directly.
    if experiment == "sa_eval" {
        experiment = "fig5".to_string();
    }
    // Likewise `limit` names the limit study behind Figure 2.
    if experiment == "limit" {
        experiment = "fig2".to_string();
    }
    Ok(Args {
        experiment,
        scale,
        requests_set,
        stats_set,
        operand,
        actuators,
        inter_arrival_ms,
        jobs,
        trace_dir,
        metrics_dir,
        profile_dir,
        heartbeat_secs,
        heartbeat_file,
        explore_grid,
        explore_refine,
        explore_latency,
        explore_out,
        explore_cache,
    })
}

/// The `repro explore` mode: sweep the design space through the point
/// cache, write `<out>/explore.json`, and render `<out>/report.html`
/// with the Pareto panel. The panel comes from the outcome in memory;
/// `explore.json` is written for `repro report` and other readers, not
/// parsed back here. Cache hit/miss counts go to stderr; stdout and
/// the artifacts are byte-identical across jobs and cache states. With
/// `--profile`, the cache probes and the two writes are phases under
/// `run`.
fn run_explore(args: &Args, times: &mut RunTimes) -> Result<(), String> {
    let defaults = explorer::SweepScale::default();
    let scale = explorer::SweepScale {
        requests: if args.requests_set {
            args.scale.requests
        } else {
            defaults.requests
        },
        seed: args.scale.seed,
        stats: if args.stats_set {
            args.scale.stats
        } else {
            defaults.stats
        },
    };
    let coverage = match args.explore_grid.as_str() {
        "coarse" => explorer::Coverage::Coarse,
        "full" => explorer::Coverage::Full,
        _ => explorer::Coverage::Adaptive {
            passes: args.explore_refine,
        },
    };
    let latency = match args.explore_latency.as_str() {
        "mean" => explorer::LatencyAxis::Mean,
        _ => explorer::LatencyAxis::P90,
    };
    let opts = explorer::ExploreOptions {
        scale,
        coverage,
        latency,
        cache: args.explore_cache.as_deref().map(explorer::PointCache::new),
    };
    let exec = Executor::new(args.jobs);
    let out = explorer::explore(&opts, &exec);
    times.studies.extend(exec.take_times());
    let out = out.map_err(|e| e.to_string())?;
    times.add(Phase::CacheProbe, out.probe);
    eprintln!(
        "[explore: {} points ({} executed, {} cached), {} on the frontier]",
        out.points.len(),
        out.executed,
        out.cached,
        out.frontier.len()
    );

    let out_dir = std::path::Path::new(&args.explore_out);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let json_path = out_dir.join("explore.json");
    times
        .time(Phase::ExportExplore, || {
            std::fs::write(&json_path, &out.json)
        })
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    eprintln!("[explore: {}]", json_path.display());
    let report = times
        .time(Phase::ExportReport, || {
            experiments::metrics_export::write_report_with_panel(out_dir, &out.panel(&opts))
        })
        .map_err(|e| e.to_string())?;
    eprintln!("[report: {}]", report.display());

    // The deterministic stdout summary: the frontier, one line per
    // point, in canonical order.
    println!(
        "# explore: {} points, {} frontier | axes: {} latency (ms), energy (J), cost (USD)",
        out.points.len(),
        out.frontier.len(),
        args.explore_latency
    );
    for &i in &out.frontier {
        let p = &out.points[i];
        println!(
            "{} | {:>7.3} ms | {:>9.3} J | {:>6.2} USD | {}",
            p.descriptor.label(),
            match latency {
                explorer::LatencyAxis::Mean => p.mean_ms,
                explorer::LatencyAxis::P90 => p.p90_ms,
            },
            p.energy_j,
            p.cost_usd,
            &out.hashes[i][..12],
        );
    }
    Ok(())
}

/// Replays a real SPC-format trace (e.g. the UMass Financial or
/// Websearch traces) against conventional and intra-disk parallel
/// drives. The trace streams from disk one line at a time
/// ([`workload::spc::SpcSource`]); the scan pass validates every line
/// up front, so multi-gigabyte traces replay in flat memory.
fn run_spc(args: &Args) -> Result<(), String> {
    let Some(path) = args.operand.as_deref() else {
        return Err("spc mode needs a trace file: repro spc <file>".to_string());
    };
    for (i, n) in [1u32, args.actuators].into_iter().enumerate() {
        let source = workload::SpcSource::from_path(path, path, 1, Some(args.scale.requests))
            .map_err(|e| e.to_string())?;
        if i == 0 {
            println!(
                "replaying {} (footprint {} sectors, stats {:?})",
                path,
                source.layout().footprint_sectors(),
                args.scale.stats
            );
        }
        let r = experiments::run_drive(
            &hcsd_params(),
            intradisk::DriveConfig::sa(n).with_stats_mode(args.scale.stats),
            source,
        )
        .map_err(|e| format!("SA({n}) replay failed: {e}"))?;
        println!(
            "  SA({n}): {} requests | mean {:.2} ms | p90-bucketed CDF@20ms {:.1}% | power {:.2} W",
            r.metrics.response_time_ms.count(),
            r.metrics.response_time_ms.mean(),
            r.metrics.response_hist.cdf().at(20.0) * 100.0,
            r.power.total_w()
        );
        eprintln!("[spc SA({n}): queue-peak {}]", r.queue_peak);
    }
    Ok(())
}

/// A [`RunObserver`](experiments::RunObserver) that drives live
/// heartbeats from the run loop: every `CHECK_MASK + 1` completions it
/// glances at the host clock and, if the interval elapsed, emits one
/// snapshot line (and optionally rewrites the Prometheus textfile).
/// The mask keeps the clock read off the per-request path.
/// Emits `--heartbeat` snapshots, if asked for any.
struct HeartbeatObserver {
    hb: Option<telemetry::prof::Heartbeat>,
    completed: u64,
}

impl HeartbeatObserver {
    /// Check the clock every 1024 completions: ~millisecond-granular
    /// at simulator throughput, invisible in the per-request cost.
    const CHECK_MASK: u64 = 1023;
}

impl HeartbeatObserver {
    #[cold]
    fn check(&mut self, stats: &simkit::ResponseStats) {
        if let Some(hb) = &mut self.hb {
            hb.maybe_beat(self.completed, || stats.percentile_stream(90.0));
        }
    }
}

impl experiments::RunObserver for HeartbeatObserver {
    #[inline]
    fn on_complete(&mut self, stats: &simkit::ResponseStats) {
        self.completed += 1;
        if self.completed & Self::CHECK_MASK == 0 {
            self.check(stats);
        }
    }
}

/// The bounded-memory scaling scenario: one SA(n) drive under the
/// synthetic open workload (60% reads, 20% sequential, exponential
/// inter-arrivals), streamed lazily from the generator so the request
/// count can far exceed what would fit materialized. Stats go to
/// stdout; the peak-RSS probe goes to stderr so stdout stays
/// deterministic for a given configuration. The replay is split across
/// `--jobs` (at most two) workers, which stdout cannot tell apart.
fn run_scale(args: &Args, times: &mut RunTimes) -> Result<(), String> {
    let params = hcsd_params();
    let spec = workload::SyntheticSpec::paper(
        args.inter_arrival_ms,
        params.capacity_sectors(),
        args.scale.requests,
    );
    let config = intradisk::DriveConfig::sa(args.actuators).with_stats_mode(args.scale.stats);
    let file = args.heartbeat_file.as_deref().map(std::path::Path::new);
    let mut obs = HeartbeatObserver {
        hb: args.heartbeat_secs.map(|every| {
            telemetry::prof::Heartbeat::new(every, Some(args.scale.requests as u64), file)
        }),
        completed: 0,
    };
    let r = experiments::SplitReplay::new(args.jobs).run(
        &params,
        config,
        spec.source(args.scale.seed),
        &mut obs,
    );
    if let Some(hb) = &obs.hb {
        times.add(Phase::Heartbeat, hb.time());
    }
    let r = r.map_err(|e| format!("scale run failed: {e}"))?;
    let stats = &r.metrics.response_time_ms;
    println!(
        "scale: {} requests | SA({}) | {:.1} ms inter-arrival | stats {:?} | seed {}",
        args.scale.requests,
        args.actuators,
        args.inter_arrival_ms,
        args.scale.stats,
        args.scale.seed
    );
    println!(
        "  completed {} | mean {:.3} ms | p90(stream) {:.3} ms",
        stats.count(),
        stats.mean(),
        r.p90_stream_ms()
    );
    if stats.is_exact() {
        println!("  p90(exact) {:.3} ms", stats.percentile(90.0));
    }
    eprintln!("[queue-peak: {}]", r.queue_peak);
    if let Some(kb) = telemetry::prof::peak_rss_kb() {
        eprintln!("[max-rss-kb: {kb}]");
    }
    Ok(())
}

fn run_experiments(args: &Args, exec: &Executor) -> Result<(), StudyError> {
    let scale = args.scale;
    let want = |name: &str| args.experiment == name || args.experiment == "all";

    // The worker count must not leak into stdout: the report is
    // byte-identical for every --jobs value.
    eprintln!("[executor: {} jobs]", exec.jobs());
    println!(
        "# Intra-Disk Parallelism reproduction — {} requests/run, seed {}\n",
        scale.requests, scale.seed
    );

    if want("table1") {
        println!("{}", tech_table::render());
    }
    if want("fig2") || want("fig3") {
        let report = LimitStudy::all().run(scale, exec)?;
        if want("fig2") {
            println!("{}", report.render_figure2());
        }
        if want("fig3") {
            println!("{}", report.render_figure3());
        }
    }
    if want("fig4") {
        let report = BottleneckStudy::all().run(scale, exec)?;
        println!("{}", report.render());
    }
    if want("fig5") || want("fig6") {
        let report = SaStudy::all().run(scale, exec)?;
        if want("fig5") {
            println!("{}", report.render_cdfs());
            println!("{}", report.render_pdfs());
        }
        if want("fig6") {
            println!("{}", report.render_power());
        }
    }
    if want("fig6") || want("fig7") {
        let report = RpmStudy::all().run(scale, exec)?;
        if want("fig6") {
            println!("{}", report.render_figure6());
        }
        if want("fig7") {
            println!("{}", report.render_figure7());
        }
    }
    if want("fig8") {
        let report = RaidStudy::all().run(scale, exec)?;
        println!("{}", report.render_performance());
        println!("{}", report.render_power());
    }
    if want("table9") {
        println!("{}", cost_analysis::render_table9a());
    }
    if want("fig9") {
        println!("{}", cost_analysis::render_figure9b());
    }
    if want("thermal") {
        println!("{}", extensions::render_thermal());
    }
    if want("drpm") {
        println!("{}", DesignStudy::drpm().run(scale, exec)?.render());
    }
    if want("validate") {
        let report = ValidationStudy::all().run(scale, exec)?;
        println!("{}", report.render());
    }
    if want("robust") {
        println!(
            "{}",
            experiments::replication::render(scale, &[42, 1, 2, 3, 4], exec)
        );
    }
    if want("dash") {
        println!("{}", DesignStudy::dash().run(scale, exec)?.render());
    }
    // Kernel high-water marks accumulated across the studies above
    // (event-queue traffic and the deepest any drive's pending queue
    // got) — stderr, so stdout stays the byte-stable report.
    eprintln!(
        "[kernel: {} pushes / {} pops / peak-pending {} | disk-queue-peak {}]",
        simkit::counters::WHEEL_PUSHES.get(),
        simkit::counters::WHEEL_POPS.get(),
        simkit::counters::WHEEL_PEAK_PENDING.get(),
        intradisk::counters::QUEUE_PEAK_DEPTH.get()
    );
    Ok(())
}

/// The command line after the program name, or a one-line error naming
/// the first argument that is not UTF-8.
fn argv() -> Result<Vec<String>, String> {
    env::args_os()
        .skip(1)
        .map(|a| {
            a.into_string()
                .map_err(|a| format!("argument {a:?} is not valid UTF-8"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match argv().and_then(parse_args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // The dispatch gathers its host times as it goes; with --profile
    // they become the phase profile, written after it returns.
    if args.profile_dir.is_some() {
        experiments::profile::reset_counters();
    }
    let mut times = RunTimes::default();
    let clock = Stopwatch::start();
    let outcome = dispatch(&args, &mut times);
    if let Err(msg) = &outcome {
        eprintln!("{msg}");
    }
    if let Some(dir) = args.profile_dir.as_deref() {
        let report = ProfReport::new(clock.elapsed_ns(), times);
        eprintln!(
            "[profile: {:.0} ms wall, {:.1}% attributed, {:.1} ms unattributed]",
            report.wall_ns as f64 / 1e6,
            report.coverage_pct(),
            report.unattributed_ns() as f64 / 1e6
        );
        match experiments::profile::write_profile(std::path::Path::new(dir), &report, args.jobs) {
            Ok(files) => {
                for f in files {
                    eprintln!("[profile: {}]", f.display());
                }
            }
            Err(e) => {
                eprintln!("profile export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

/// Runs the mode `args` names, gathering its host times into `times`.
fn dispatch(args: &Args, times: &mut RunTimes) -> Result<(), String> {
    match args.experiment.as_str() {
        "scale" => run_scale(args, times),
        "spc" => run_spc(args),
        "explore" => run_explore(args, times),
        "report" => {
            let dir = args
                .operand
                .as_deref()
                .ok_or("report mode needs a directory: repro report <metrics-dir>")?;
            let path = times
                .time(Phase::ExportReport, || {
                    experiments::metrics_export::write_report(std::path::Path::new(dir))
                })
                .map_err(|e| format!("report failed: {e}"))?;
            eprintln!("[report: {}]", path.display());
            Ok(())
        }
        _ => run_studies(args, times),
    }
}

/// The study modes: the studies on the executor, then the trace and
/// metrics exports.
fn run_studies(args: &Args, times: &mut RunTimes) -> Result<(), String> {
    let exec = Executor::new(args.jobs).with_progress();
    let studies = run_experiments(args, &exec);
    times.studies.extend(exec.take_times());
    studies.map_err(|e| e.to_string())?;

    // Trace and metrics exports run serially after the sweeps, and
    // their file lists go to stderr: stdout stays byte-identical
    // whether or not (and with whatever --jobs) they are enabled.
    if let Some(dir) = args.trace_dir.as_deref() {
        let dir = std::path::Path::new(dir);
        let export = times
            .time(Phase::ExportTrace, || {
                experiments::tracing::export_traces(dir, args.scale)
            })
            .map_err(|e| format!("trace export failed: {e}"))?;
        for f in &export.files {
            eprintln!("[trace: {}]", dir.join(f).display());
        }
        let drops = export
            .drops
            .iter()
            .map(|(name, n)| format!("{name} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!("[trace-drops: {drops}]");
    }
    if let Some(dir) = args.metrics_dir.as_deref() {
        let dir = std::path::Path::new(dir);
        let files = times
            .time(Phase::ExportMetrics, || {
                experiments::metrics_export::export_metrics(dir, args.scale)
            })
            .map_err(|e| format!("metrics export failed: {e}"))?;
        for f in files {
            eprintln!("[metrics: {}]", dir.join(f).display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{check, gen, Gen};

    /// Every flag `parse_args` knows.
    const FLAGS: [&str; 18] = [
        "--trace",
        "--metrics",
        "--profile",
        "--heartbeat",
        "--heartbeat-file",
        "--actuators",
        "--jobs",
        "--requests",
        "--grid",
        "--refine",
        "--latency",
        "--out",
        "--cache",
        "--stats",
        "--inter-arrival",
        "--seed",
        "--help",
        "-h",
    ];

    /// Flag values, good and bad: counts at and past their limits,
    /// floats the interval flags refuse, every enum name and none.
    const VALUES: [&str; 24] = [
        "0",
        "1",
        "2",
        "64",
        "-1",
        "1.5",
        "6.0",
        "1e3",
        "inf",
        "NaN",
        "18446744073709551615",
        "18446744073709551616",
        "",
        "none",
        "coarse",
        "adaptive",
        "full",
        "mean",
        "p90",
        "exact",
        "streaming",
        "fig5",
        "explore",
        "-",
    ];

    /// One argument: a flag, a value, an experiment name or garbage
    /// (which may hold a newline or non-ASCII text).
    fn arb_arg() -> Gen<String> {
        let garbage = gen::vec_of(gen::one_of("-a1 .\né=x".chars().collect()), 0..=6)
            .map(|cs| cs.into_iter().collect::<String>());
        Gen::new(move |src| match gen::u32_in(0..=3).generate(src) {
            0 => gen::one_of(FLAGS.to_vec()).generate(src).to_string(),
            1 => gen::one_of(VALUES.to_vec()).generate(src).to_string(),
            2 => gen::one_of(vec![
                "all",
                "scale",
                "spc",
                "report",
                "sa_eval",
                "limit",
                "nosuchfig",
            ])
            .generate(src)
            .to_string(),
            _ => garbage.generate(src),
        })
    }

    /// Any argv gives `Args` or one line of error (the `--help` text
    /// aside), and never panics.
    #[test]
    fn any_argv_parses_or_fails_with_one_line() {
        check("any_argv_parses_or_fails_with_one_line", |t| {
            let argv: Vec<String> = t.draw(&gen::vec_of(arb_arg(), 0..=8));
            if let Err(msg) = parse_args(argv) {
                assert!(
                    msg == USAGE || (!msg.is_empty() && !msg.contains('\n')),
                    "{msg:?}"
                );
            }
        });
    }

    /// Well-formed `--jobs`, `--requests` and `--seed`, in any order
    /// and beside an experiment name, land in `Args` as given.
    #[test]
    fn well_formed_counts_land_in_args() {
        check("well_formed_counts_land_in_args", |t| {
            let jobs = t.draw(&gen::usize_in(1..=1024));
            let requests = t.draw(&gen::usize_in(1..=1 << 40));
            let seed = t.draw(&gen::u64_any());
            let rotate = t.draw(&gen::usize_in(0..=2));
            let experiment = t.draw(&gen::one_of(vec!["explore", "scale", "fig4"]));
            let mut pairs = [
                ["--jobs", &jobs.to_string()].map(str::to_string),
                ["--requests", &requests.to_string()].map(str::to_string),
                ["--seed", &seed.to_string()].map(str::to_string),
            ];
            pairs.rotate_left(rotate);
            let argv = std::iter::once(experiment.to_string()).chain(pairs.into_iter().flatten());
            let args = parse_args(argv).expect("well-formed argv parses");
            assert_eq!(args.experiment, experiment);
            assert_eq!(args.jobs, jobs);
            assert_eq!(args.scale.requests, requests);
            assert!(args.requests_set);
            assert_eq!(args.scale.seed, seed);
        });
    }

    /// The command lines `perfbench/run.py` builds parse, and land in
    /// `Args` as given: each workload's timed run, `scale_sa4`'s
    /// one-request set-up run, and each with the reference run's
    /// trailing `--profile`.
    #[test]
    fn benchmark_command_lines_parse_as_given() {
        let all = "all --jobs 1 --requests 10000 --seed 42 --metrics m";
        let explore = "explore --grid full --jobs 2 --requests 500 --seed 42 --cache c --out o";
        for profile in ["", " --profile p"] {
            let parse = |words: &str| {
                let words = format!("{words}{profile}");
                let a = parse_args(words.split(' ').map(str::to_string))
                    .unwrap_or_else(|e| panic!("{words}: {e}"));
                let want_profile = (!profile.is_empty()).then(|| "p".to_string());
                assert_eq!(a.profile_dir, want_profile, "{words}");
                a
            };
            for requests in [1_000_000, 1] {
                let a = parse(&format!(
                    "scale --requests {requests} --actuators 4 --inter-arrival 6.0 --stats streaming --seed 42"
                ));
                assert_eq!(
                    (a.experiment.as_str(), a.scale.requests, a.actuators),
                    ("scale", requests, 4)
                );
                assert_eq!(a.inter_arrival_ms.to_bits(), 6.0f64.to_bits());
                assert_eq!((a.scale.stats, a.scale.seed), (StatsMode::Streaming, 42));
            }
            let a = parse(all);
            assert_eq!(a.experiment, "all");
            assert_eq!((a.jobs, a.scale.requests, a.scale.seed), (1, 10_000, 42));
            assert_eq!(a.metrics_dir.as_deref(), Some("m"));
            let a = parse(explore);
            assert_eq!(
                (a.experiment.as_str(), a.explore_grid.as_str()),
                ("explore", "full")
            );
            assert_eq!((a.jobs, a.scale.requests, a.scale.seed), (2, 500, 42));
            assert_eq!(
                (a.explore_cache.as_deref(), a.explore_out.as_str()),
                (Some("c"), "o")
            );
        }
    }
}
