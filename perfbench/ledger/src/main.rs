//! The per-layer ledger of the repository benchmark.
//!
//! ```text
//! perfbench-ledger --workload scale_sa4|repro_all|explore --seed S
//!                  --seconds S --work DIR
//! ```
//!
//! For one workload it reports, as the last line of stdout, one JSON
//! object `{"checks": {...}, "metrics": {...}}` over the layers that
//! workload reaches:
//!
//! - host time per call into each layer, from spans this file places
//!   around calls to the crates' public functions (replicas of the run
//!   loops in [`replica`], per-call batches in [`micro`]);
//! - the deterministic counters of every crate, per request, read after
//!   the run's drives and arrays have dropped (they flush on drop);
//! - the cost of one empty span and the observer effect of the spans.
//!
//! Checks: each replica reproduces the original loop's results bit for
//! bit, and the counters repeat exactly across two runs.

mod micro;
mod replica;
mod timing;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use array::Layout;
use diskmodel::DiskParams;
use experiments::configs::{hcsd_params, source_for};
use experiments::{
    cost_analysis, extensions, replication, tech_table, BottleneckStudy, Executor, LimitStudy,
    RaidStudy, RpmStudy, SaStudy, Scale, Study, ValidationStudy,
};
use explorer::{
    Coverage, ExploreOptions, GridResolution, LatencyAxis, PointCache, PointDescriptor,
    PointOutcome, SweepScale,
};
use intradisk::{DiskDrive, DriveConfig, IoRequest};
use simkit::StatsMode;
use workload::{profile_for, RequestSource, SyntheticSpec, WorkloadKind};

use replica::{RunFingerprint, Spans};
use timing::{median, overhead_pct, per_req, ratio};

/// Completions kept from a traced replica for the stats-record replay.
const CAPTURE: usize = 200_000;

/// Requests the cost-model and geometry batches run over.
const MICRO_REQUESTS: usize = 65_536;

/// The explorer's per-point costs are timed on every `EXPLORE_SAMPLE`-th
/// grid point.
const EXPLORE_SAMPLE: usize = 16;

type Result<T> = std::result::Result<T, String>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    work: PathBuf,
}

fn parse_args() -> Result<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        work: PathBuf::from(".bench_work/ledger"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--work" => args.work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The metrics and checks of one ledger run. BENCHMARK.json declares
/// the metric names; one the workload does not reach is left out here
/// and reads 0 in the benchmark's output.
#[derive(Default)]
struct Ledger {
    metrics: BTreeMap<&'static str, f64>,
    checks: BTreeMap<String, bool>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(timing::valid_metric_name(name), "bad metric name {name:?}");
        self.metrics.insert(name, value);
    }

    fn check(&mut self, name: &str, ok: bool) {
        let all = self.checks.get(name).copied().unwrap_or(true);
        self.checks.insert(name.to_string(), all && ok);
        if !ok {
            eprintln!("[ledger] check failed: {name}");
        }
    }

    /// The result line. A value that is not finite is written as 0 and
    /// fails a check.
    fn json(&mut self) -> String {
        let finite = self.metrics.values().all(|v| v.is_finite());
        self.check("metrics are finite", finite);
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, &v)| format!("\"{m}\": {}", if v.is_finite() { v } else { 0.0 }))
            .collect();
        format!(
            "{{\"checks\": {{{}}}, \"metrics\": {{{}}}}}",
            checks.join(", "),
            metrics.join(", ")
        )
    }
}

// ---------------------------------------------------------------------
// Counters.

/// Every deterministic counter of every crate, by name.
fn counters() -> BTreeMap<&'static str, u64> {
    let mut all = Vec::new();
    all.extend(simkit::counters::all());
    all.extend(intradisk::counters::all());
    all.extend(array::counters::all());
    all.extend(workload::counters::all());
    all.extend(experiments::counters::deterministic());
    all.into_iter().map(|c| (c.name(), c.get())).collect()
}

/// Runs `f` against freshly reset counters twice; checks that both runs
/// count the same, and returns the first run's counters and results.
fn counted_twice<T>(
    ledger: &mut Ledger,
    mut f: impl FnMut(usize) -> Result<T>,
) -> Result<(BTreeMap<&'static str, u64>, T, T)> {
    experiments::profile::reset_counters();
    let first = f(0)?;
    let a = counters();
    experiments::profile::reset_counters();
    let second = f(1)?;
    let b = counters();
    ledger.check("counters repeat across two runs", a == b);
    Ok((a, first, second))
}

fn set_counter_metrics(ledger: &mut Ledger, c: &BTreeMap<&'static str, u64>) {
    let get = |name: &str| c.get(name).copied().unwrap_or(0);
    let requests = get("workload.requests_pulled");
    ledger.check("the run pulled requests", requests > 0);
    let per = |name: &str| per_req(get(name), requests);
    ledger.set("intradisk.scans_per_req", per("intradisk.dispatch.scans"));
    ledger.set(
        "intradisk.candidates_per_req",
        per("intradisk.dispatch.candidates"),
    );
    ledger.set(
        "intradisk.arm_visits_per_req",
        per("intradisk.dispatch.arm_visits"),
    );
    ledger.set(
        "intradisk.positioning_evals_per_req",
        per("intradisk.cost.positioning_evals"),
    );
    ledger.set(
        "intradisk.plan_evals_per_req",
        per("intradisk.cost.plan_evals"),
    );
    ledger.set(
        "intradisk.dispatch_yield",
        per_req(
            get("intradisk.dispatch.scans"),
            get("intradisk.dispatch.candidates"),
        ),
    );
    let hits = get("intradisk.cache.hits");
    ledger.set(
        "intradisk.cache_hit_ratio",
        per_req(hits, hits + get("intradisk.cache.misses")),
    );
    ledger.set(
        "intradisk.queue_peak",
        get("intradisk.queue.peak_depth") as f64,
    );
    ledger.set("simkit.pushes_per_req", per("simkit.wheel.pushes"));
    ledger.set(
        "simkit.scan_words_per_pop",
        per_req(
            get("simkit.wheel.slot_scan_words"),
            get("simkit.wheel.pops"),
        ),
    );
    ledger.set(
        "simkit.overflow_hits",
        get("simkit.wheel.overflow_hits") as f64,
    );
    ledger.set("simkit.hist_records_per_req", per("simkit.hist.records"));
    ledger.set(
        "simkit.stream_records_per_req",
        per("simkit.hist.stream_records"),
    );
    ledger.set(
        "array.sub_issues_per_req",
        per_req(get("array.sub_issues"), get("array.logical_submits")),
    );
    ledger.set("array.inflight_peak", get("array.inflight_peak") as f64);
    ledger.set(
        "experiments.points_run",
        get("experiments.points_run") as f64,
    );
}

// ---------------------------------------------------------------------
// The drive layer: replicas of the drive loop plus per-call batches.

/// One drive configuration replayed by the replica, with the
/// fingerprint of the original loop's run of it.
struct Case {
    params: DiskParams,
    config: DriveConfig,
    reference: RunFingerprint,
}

/// Replays every case through the untraced and the traced replica
/// (alternating, at least `min_rounds` times and for about `budget_s`
/// seconds), then times the cost model and the stats recorders on the
/// first case's requests and completions.
fn drive_layer<S: RequestSource>(
    ledger: &mut Ledger,
    cases: &[Case],
    source: impl Fn(usize) -> S,
    min_rounds: usize,
    budget_s: f64,
) -> Result<()> {
    let start = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut spans = Spans::default();
    let (mut pulled, mut completed) = (0u64, 0u64);
    let mut captured = Vec::new();
    let (mut positioning_evals, mut plan_evals) = (0u64, 0u64);
    while off.len() < min_rounds || start.elapsed().as_secs_f64() < budget_s {
        let first = off.is_empty();
        let (mut wall_off, mut wall_on) = (0.0, 0.0);
        for (i, case) in cases.iter().enumerate() {
            let r = replica::run_drive::<false>(&case.params, case.config.clone(), source(i), 0)
                .map_err(|e| e.to_string())?;
            ledger.check(
                "drive replica matches run_drive",
                RunFingerprint::of_drive(&r.result) == case.reference,
            );
            wall_off += r.wall_s;

            experiments::profile::reset_counters();
            let capture = if first {
                CAPTURE.saturating_sub(captured.len())
            } else {
                0
            };
            let r =
                replica::run_drive::<true>(&case.params, case.config.clone(), source(i), capture)
                    .map_err(|e| e.to_string())?;
            ledger.check(
                "drive replica matches run_drive",
                RunFingerprint::of_drive(&r.result) == case.reference,
            );
            wall_on += r.wall_s;
            if first {
                spans.pull.merge(r.spans.pull);
                spans.submit.merge(r.spans.submit);
                spans.complete.merge(r.spans.complete);
                pulled += r.pulled;
                completed += r.result.metrics.completed;
                captured.extend(r.captured);
                positioning_evals += intradisk::counters::POSITIONING_EVALS.get();
                plan_evals += intradisk::counters::PLAN_EVALS.get();
            }
        }
        off.push(wall_off);
        on.push(wall_on);
    }
    ledger.set("workload.pull_ns", spans.pull.per_call_ns());
    ledger.set("workload.pulls_per_req", per_req(pulled, completed));
    ledger.set("intradisk.submit_ns", spans.submit.per_call_ns());
    ledger.set("intradisk.complete_ns", spans.complete.per_call_ns());
    ledger.set(
        "trace.overhead_pct",
        overhead_pct(median(&on), median(&off)),
    );
    eprintln!(
        "[ledger] drive replica: {} rounds of {} cases, untraced {:.3} s, traced {:.3} s",
        off.len(),
        cases.len(),
        median(&off),
        median(&on)
    );

    // Construction, per case in turn, enough times to outlast the clock.
    let reps = 256usize.div_ceil(cases.len());
    let per_build_us = |build: &mut dyn FnMut(usize)| {
        timing::median_over_rounds(5, budget_s / 16.0, || {
            let t = Instant::now();
            for _ in 0..reps {
                for i in 0..cases.len() {
                    build(i);
                }
            }
            t.elapsed().as_secs_f64() * 1e6 / (reps * cases.len()) as f64
        })
    };
    ledger.set(
        "workload.source_new_us",
        per_build_us(&mut |i| {
            black_box(source(i));
        }),
    );
    ledger.set(
        "intradisk.drive_new_us",
        per_build_us(&mut |i| {
            black_box(DiskDrive::new(&cases[i].params, cases[i].config.clone()));
        }),
    );

    let mut requests: Vec<IoRequest> = Vec::with_capacity(MICRO_REQUESTS);
    let mut src = source(0);
    while requests.len() < MICRO_REQUESTS {
        match src.next_request() {
            Some(r) => requests.push(r),
            None => break,
        }
    }
    let m = micro::measure(&cases[0].params, &requests, &captured, budget_s / 16.0);
    ledger.set("diskmodel.locate_ns", m.locate_ns);
    ledger.set("diskmodel.segments_ns", m.segments_ns);
    ledger.set("intradisk.positioning_ns", m.positioning_ns);
    ledger.set("intradisk.plan_ns", m.plan_ns);
    ledger.set("intradisk.transfer_ns", m.transfer_ns);
    ledger.set("simkit.record_exact_ns", m.record_exact_ns);
    ledger.set("simkit.record_stream_ns", m.record_stream_ns);
    ledger.set("simkit.finalize_ms", m.finalize_ms);
    let cost_ns = positioning_evals as f64 * m.positioning_ns + plan_evals as f64 * m.plan_ns;
    ledger.set(
        "intradisk.cost_share",
        ratio(cost_ns, (spans.submit.ns + spans.complete.ns) as f64),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Workloads, each measured on the layers it reaches. The run lengths are
// those of the workloads' `repro` commands in run.py.

type Counters = BTreeMap<&'static str, u64>;

/// `scale_sa4`'s requests.
const SCALE_REQUESTS: usize = 1_000_000;

/// `repro_all`'s requests per run.
const ALL_REQUESTS: usize = 10_000;

/// `explore`'s requests per point.
const EXPLORE_REQUESTS: usize = 500;

/// `repro scale`: one SA(4) drive, synthetic open loop, streaming stats.
fn scale_sa4(ledger: &mut Ledger, args: &Args) -> Result<Counters> {
    let params = hcsd_params();
    let spec = SyntheticSpec::paper(6.0, params.capacity_sectors(), SCALE_REQUESTS);
    let config = DriveConfig::sa(4).with_stats_mode(StatsMode::Streaming);
    let (c, reference, _) = counted_twice(ledger, |_| {
        experiments::run_drive(&params, config.clone(), spec.source(args.seed))
            .map_err(|e| e.to_string())
    })?;
    let cases = [Case {
        params,
        config,
        reference: RunFingerprint::of_drive(&reference),
    }];
    drive_layer(ledger, &cases, |_| spec.source(args.seed), 3, args.seconds)?;
    Ok(c)
}

/// Seconds per study call of one `repro all`-shaped pass, and of the
/// metrics export.
fn repro_all_pass(
    scale: Scale,
    exec: &Executor,
    metrics_dir: &Path,
) -> Result<Vec<(&'static str, f64)>> {
    let mut times = Vec::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Result<String>| -> Result<()> {
        let t = Instant::now();
        black_box(f()?);
        times.push((name, t.elapsed().as_secs_f64()));
        Ok(())
    };
    let err = |e: &dyn std::fmt::Display| e.to_string();
    black_box(tech_table::render());
    timed("experiments.study_s.limit", &mut || {
        let r = LimitStudy::all().run(scale, exec).map_err(|e| err(&e))?;
        Ok(r.render_figure2() + &r.render_figure3())
    })?;
    timed("experiments.study_s.bottleneck", &mut || {
        Ok(BottleneckStudy::all()
            .run(scale, exec)
            .map_err(|e| err(&e))?
            .render())
    })?;
    timed("experiments.study_s.sa", &mut || {
        let r = SaStudy::all().run(scale, exec).map_err(|e| err(&e))?;
        Ok(r.render_cdfs() + &r.render_pdfs() + &r.render_power())
    })?;
    timed("experiments.study_s.rpm", &mut || {
        let r = RpmStudy::all().run(scale, exec).map_err(|e| err(&e))?;
        Ok(r.render_figure6() + &r.render_figure7())
    })?;
    timed("experiments.study_s.raid", &mut || {
        let r = RaidStudy::all().run(scale, exec).map_err(|e| err(&e))?;
        Ok(r.render_performance() + &r.render_power())
    })?;
    black_box(cost_analysis::render_table9a() + &cost_analysis::render_figure9b());
    black_box(extensions::render_thermal());
    timed("experiments.study_s.drpm", &mut || {
        extensions::render_drpm(scale).map_err(|e| err(&e))
    })?;
    timed("experiments.study_s.validation", &mut || {
        Ok(ValidationStudy::all()
            .run(scale, exec)
            .map_err(|e| err(&e))?
            .render())
    })?;
    timed("experiments.study_s.robust", &mut || {
        Ok(replication::render(scale, &[42, 1, 2, 3, 4], exec))
    })?;
    timed("experiments.study_s.dash", &mut || {
        extensions::render_dash(scale).map_err(|e| err(&e))
    })?;
    timed("telemetry.export_s", &mut || {
        let files =
            experiments::metrics_export::export_metrics(metrics_dir, scale).map_err(|e| err(&e))?;
        Ok(files.join(","))
    })?;
    Ok(times)
}

/// The studies of `repro all` and its metrics export. The first pass
/// runs at jobs 1, as the workload does, and gives the times; the
/// second, at jobs 2, must count exactly the same.
fn studies(ledger: &mut Ledger, scale: Scale, work: &Path) -> Result<Counters> {
    let (c, times, _) = counted_twice(ledger, |run| {
        repro_all_pass(
            scale,
            &Executor::new(1 + run),
            &work.join(format!("metrics-{run}")),
        )
    })?;
    for (name, t) in times {
        ledger.set(name, t);
    }
    Ok(c)
}

/// `repro all --jobs 1 --metrics DIR`: every study, exact stats, the
/// drive layer on the Figure 5 shape and the array layer.
fn repro_all(ledger: &mut Ledger, args: &Args) -> Result<Counters> {
    let scale = Scale {
        seed: args.seed,
        ..Scale::report().with_requests(ALL_REQUESTS)
    };
    let c = studies(ledger, scale, &args.work)?;

    // The drive layer on the Figure 5 shape: SA(4), exact stats.
    let params = hcsd_params();
    let config = DriveConfig::sa(4).with_stats_mode(scale.stats);
    let kind = WorkloadKind::ALL[0];
    let reference = experiments::run_drive(&params, config.clone(), source_for(kind, scale))
        .map_err(|e| e.to_string())?;
    let cases = [Case {
        params,
        config,
        reference: RunFingerprint::of_drive(&reference),
    }];
    drive_layer(
        ledger,
        &cases,
        |_| source_for(kind, scale),
        5,
        args.seconds / 4.0,
    )?;
    array_layer(ledger, args.seed)?;
    Ok(c)
}

/// The array layer on the most overloaded Figure 8 point: one
/// conventional member under 1 ms mean inter-arrival, exact stats.
fn array_layer(ledger: &mut Ledger, seed: u64) -> Result<()> {
    let params = hcsd_params();
    let spec = SyntheticSpec::paper(1.0, params.capacity_sectors(), ALL_REQUESTS);
    let member = DriveConfig::sa(1).with_stats_mode(Scale::report().stats);
    let layout = Layout::striped_default();
    let reference = experiments::run_array(&params, member.clone(), 1, layout, spec.source(seed))
        .map_err(|e| e.to_string())?;
    let r = replica::run_array(&params, member, 1, layout, spec.source(seed))
        .map_err(|e| e.to_string())?;
    ledger.check(
        "array replica matches run_array",
        RunFingerprint::of_array(&r.result) == RunFingerprint::of_array(&reference),
    );
    ledger.set("array.submit_ns", r.spans.submit.per_call_ns());
    ledger.set("array.complete_ns", r.spans.complete.per_call_ns());
    ledger.set("simkit.push_ns", r.spans.push.per_call_ns());
    ledger.set("simkit.pop_ns", r.spans.pop.per_call_ns());
    eprintln!("[ledger] array replica: {:.3} s traced", r.wall_s);
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The explorer layer: `repro explore --grid full` cold into a fresh
/// cache at jobs 2 and at jobs 1 (which must agree byte for byte and
/// count for count), the report, and per-point fixed costs on every
/// `EXPLORE_SAMPLE`-th grid point. Returns the counters of the jobs-2
/// run, the sample and its outcomes.
fn explorer_layer(
    ledger: &mut Ledger,
    sweep: SweepScale,
    work: &Path,
    budget_s: f64,
) -> Result<(Counters, Vec<PointDescriptor>, Vec<PointOutcome>)> {
    let run = |run: usize| -> Result<(f64, u64, explorer::ExploreOutcome)> {
        let opts = ExploreOptions {
            scale: sweep,
            coverage: Coverage::Full,
            latency: LatencyAxis::P90,
            cache: Some(PointCache::new(work.join(format!("cache-{run}")))),
        };
        let t = Instant::now();
        let out = explorer::explore(&opts, &Executor::new(2 - run)).map_err(|e| e.to_string())?;
        let wall_s = t.elapsed().as_secs_f64();
        Ok((wall_s, experiments::counters::STEALS.get(), out))
    };
    let (c, (t2, steals, parallel), (t1, _, serial)) = counted_twice(ledger, run)?;
    ledger.check(
        "explore output is the same at jobs 1 and jobs 2",
        serial.json == parallel.json,
    );
    ledger.set("experiments.jobs_speedup", t1 / t2);
    ledger.set("experiments.steals", steals as f64);
    ledger.set(
        "explorer.cache_kb_per_point",
        dir_bytes(&work.join("cache-0")) as f64 / 1024.0 / parallel.points.len() as f64,
    );

    let out = work.join("out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    std::fs::write(out.join("explore.json"), &parallel.json).map_err(|e| e.to_string())?;
    let report_ms = timing::median_over_rounds(5, budget_s / 8.0, || {
        let t = Instant::now();
        let ok = experiments::metrics_export::write_report(&out).is_ok();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if ok {
            ms
        } else {
            f64::NAN
        }
    });
    ledger.set("telemetry.report_ms", report_ms);

    let grid = explorer::space::grid(GridResolution::Full, sweep);
    let sample: Vec<_> = grid.iter().step_by(EXPLORE_SAMPLE).copied().collect();
    let per_op_us = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64
    };
    let mut outcomes = Vec::new();
    let mut failed = false;
    ledger.set(
        "explorer.run_point_us",
        per_op_us(&mut || {
            for d in &sample {
                match explorer::point::run_point(d) {
                    Ok(o) => outcomes.push(o),
                    Err(_) => failed = true,
                }
            }
        }),
    );
    ledger.check("every sampled point runs", !failed);
    let cache = PointCache::new(work.join("cache-micro"));
    let mut stored = true;
    ledger.set(
        "explorer.store_us",
        per_op_us(&mut || stored = outcomes.iter().all(|o| cache.store(o).is_ok())),
    );
    let mut loaded = Vec::new();
    ledger.set(
        "explorer.load_us",
        per_op_us(&mut || loaded = sample.iter().map(|d| cache.load(d)).collect()),
    );
    let round_trip = stored
        && loaded
            .iter()
            .zip(&outcomes)
            .all(|(l, o)| l.as_ref() == Some(o));
    ledger.check("point cache round-trips every outcome", round_trip);
    ledger.set(
        "explorer.hash_us",
        timing::median_over_rounds(5, budget_s / 16.0, || {
            let t = Instant::now();
            for d in &grid {
                black_box(d.hash());
            }
            t.elapsed().as_secs_f64() * 1e6 / grid.len() as f64
        }),
    );
    Ok((c, sample, outcomes))
}

/// `repro explore --grid full --jobs 2`, cold, into a fresh cache, and
/// the drive layer over the explorer's sample.
fn explore(ledger: &mut Ledger, args: &Args) -> Result<Counters> {
    // The stats mode `repro explore` uses when `--stats` is not given.
    let sweep = SweepScale {
        requests: EXPLORE_REQUESTS,
        seed: args.seed,
        ..SweepScale::default()
    };
    let (c, sample, outcomes) = explorer_layer(ledger, sweep, &args.work, args.seconds)?;

    // Each sampled point that run_drive reproduces (against run_point's
    // results) becomes a case, replayed from its own descriptor.
    let mut points = Vec::new();
    let mut cases = Vec::new();
    for (d, o) in sample.iter().zip(&outcomes) {
        let Ok(r) = experiments::run_drive(
            &d.disk_params(),
            d.drive_config(),
            profile_for(d.workload).source(d.requests, d.seed),
        ) else {
            continue;
        };
        if r.metrics.completed == o.completed
            && r.metrics.response_time_ms.mean().to_bits() == o.mean_ms.to_bits()
        {
            points.push(*d);
            cases.push(Case {
                params: d.disk_params(),
                config: d.drive_config(),
                reference: RunFingerprint::of_drive(&r),
            });
        }
    }
    ledger.check(
        "run_drive reproduces run_point",
        cases.len() == sample.len(),
    );
    if cases.is_empty() {
        return Err("run_drive reproduces no sampled explore point".to_string());
    }
    drive_layer(
        ledger,
        &cases,
        |i| profile_for(points[i].workload).source(points[i].requests, points[i].seed),
        5,
        args.seconds / 4.0,
    )?;
    Ok(c)
}

/// The workload's ledger over the layers it reaches.
fn run_ledger(ledger: &mut Ledger, args: &Args) -> Result<()> {
    ledger.set("trace.span_ns", timing::span_cost_ns(1_000_000));
    let counters = match args.workload.as_str() {
        "scale_sa4" => scale_sa4(ledger, args)?,
        "repro_all" => repro_all(ledger, args)?,
        "explore" => explore(ledger, args)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    set_counter_metrics(ledger, &counters);
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut ledger = Ledger::default();
    let ran = std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))
        .and_then(|()| run_ledger(&mut ledger, &args));
    if let Err(e) = ran {
        eprintln!("[ledger] {e}");
        return std::process::ExitCode::FAILURE;
    }
    println!("{}", ledger.json());
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_latch_failure_and_metrics_print_in_name_order() {
        let mut l = Ledger::default();
        l.set("trace.span_ns", 21.5);
        l.set("simkit.push_ns", 0.25);
        l.check("c", true);
        l.check("c", false);
        l.check("c", true);
        let json = l.json();
        assert!(json.contains("\"simkit.push_ns\": 0.25, \"trace.span_ns\": 21.5"));
        assert!(json.contains("\"c\": false"));
        assert!(json.contains("\"metrics are finite\": true"));
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut l = Ledger::default();
        l.set("simkit.pop_ns", f64::NAN);
        let json = l.json();
        assert!(json.contains("\"simkit.pop_ns\": 0"));
        assert!(json.contains("\"metrics are finite\": false"));
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn malformed_metric_name_is_a_bug() {
        Ledger::default().set("no spaces", 1.0);
    }
}
