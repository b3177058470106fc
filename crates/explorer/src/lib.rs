//! Design-space explorer: cached cross-product sweeps with adaptive
//! Pareto-frontier refinement.
//!
//! The paper's argument is a *design-space* claim — SA(n)/MH taxonomy
//! points traded off on latency, power, and cost — and this crate turns
//! the repo's one-study-at-a-time harness into an explorer of that
//! space (the EagleTree shape: the simulator's product is the
//! explorable space itself). Three pillars:
//!
//! 1. **Content-addressed point cache** ([`cache`]): every point is
//!    pinned by a canonical descriptor ([`descriptor`]) whose SHA-256
//!    keys an on-disk record together with a build-time source
//!    fingerprint ([`cache::CODE_VERSION`]) — re-running or extending a
//!    sweep re-executes only points this exact code has never seen,
//!    and a warm run is byte-identical to the cold run that filled it.
//! 2. **Adaptive sampling** ([`space`], [`explore`]): a coarse grid
//!    seeds the space, then bounded refinement passes step the numeric
//!    axes (cache size, RPM) toward full resolution only around the
//!    current Pareto frontier. Refinement order is deterministic
//!    (frontier plan order, axis-index tie-breaks), so output is
//!    byte-identical across `--jobs` values and cache states.
//! 3. **3-axis Pareto frontier** ([`pareto`]): latency (mean or p90),
//!    energy (the telemetry power path × span), and cost (Table 9a) —
//!    reduced in plan order, exported as byte-stable `explore.json`,
//!    and rendered as a frontier panel in `repro report`'s dashboard.
//!
//! Each pass runs through the existing deterministic
//! [`experiments::Study`]/[`experiments::Executor`] machinery, so the
//! whole exploration inherits the repo's plan-order determinism
//! contract.

// The workspace `clippy.toml` bans hashed collections for simulator
// state. Here they only index the point cache and dedup plan points:
// explore's outputs follow plan order, never a hash iteration order.
#![expect(
    clippy::disallowed_types,
    reason = "hash-keyed cache index and plan dedup; no output iterates them"
)]

use std::collections::HashSet;
use std::fmt::Write as _;

use diskmodel::DriveError;
use experiments::{Executor, ExperimentPlan, Scale, Study, StudyError};
use telemetry::metrics::report::{ExplorePanel, ExplorePoint};
use telemetry::prof::{PhaseTime, Stopwatch};
use workload::{TraceBook, WorkloadKind};

pub mod cache;
pub mod descriptor;
pub mod pareto;
pub mod point;
pub mod sha256;
pub mod space;

pub use cache::{PointCache, CODE_VERSION};
pub use descriptor::PointDescriptor;
pub use pareto::{Axes, LatencyAxis};
pub use point::PointOutcome;
pub use space::{GridResolution, SweepScale};

/// Schema tag of the `explore.json` export (shared with the report
/// renderer, which validates it before drawing the Pareto panel).
pub const EXPLORE_SCHEMA: &str = telemetry::metrics::report::EXPLORE_SCHEMA;

/// How the explorer covers the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// The coarse seed grid only.
    Coarse,
    /// The exhaustive full-resolution cross-product.
    Full,
    /// Coarse grid, then up to `passes` frontier-refinement passes.
    Adaptive {
        /// Maximum refinement passes (each pass re-runs the frontier
        /// neighborhood at one more axis step).
        passes: u32,
    },
}

impl Coverage {
    /// Stable name for the export and progress lines.
    pub fn name(self) -> &'static str {
        match self {
            Coverage::Coarse => "coarse",
            Coverage::Full => "full",
            Coverage::Adaptive { .. } => "adaptive",
        }
    }
}

/// Everything an exploration run needs.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Per-point run length, seed, stats mode.
    pub scale: SweepScale,
    /// Grid coverage strategy.
    pub coverage: Coverage,
    /// Which latency statistic feeds the frontier.
    pub latency: LatencyAxis,
    /// Point cache to consult/fill; `None` runs everything cold and
    /// persists nothing.
    pub cache: Option<PointCache>,
}

/// An exploration's reduced result. Everything but the host time is
/// identical across `--jobs` values and cold/warm cache states.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Every evaluated point, in canonical design-space order.
    pub points: Vec<PointOutcome>,
    /// Each point's descriptor hash, in the same order as `points`.
    pub hashes: Vec<String>,
    /// Indices into `points` of the Pareto frontier.
    pub frontier: Vec<usize>,
    /// Points simulated this run (cache misses).
    pub executed: usize,
    /// Points served from the cache.
    pub cached: usize,
    /// The byte-stable `explore.json` body.
    pub json: String,
    /// Host time spent hashing descriptors and probing the cache, one
    /// span per batch.
    pub probe: PhaseTime,
}

impl ExploreOutcome {
    /// The report's Pareto panel for this outcome, as `repro report`
    /// would read it back from [`json`](Self::json): the same labels,
    /// latency axis and code version, without the round trip through
    /// the file. `opts` must be the options that produced `self`.
    pub fn panel(&self, opts: &ExploreOptions) -> ExplorePanel {
        ExplorePanel {
            coverage: Some(opts.coverage.name().to_string()),
            requests: Some(opts.scale.requests as u64),
            latency_axis: opts.latency.name(),
            code_version: Some(code_version(opts).to_string()),
            points: self
                .points
                .iter()
                .zip(&self.hashes)
                .zip(frontier_mask(self.points.len(), &self.frontier))
                .map(|((p, hash), frontier)| ExplorePoint {
                    latency_ms: axes_of(p, opts.latency).latency_ms,
                    energy_j: p.energy_j,
                    cost_usd: p.cost_usd,
                    frontier,
                    label: p.descriptor.label(),
                    hash: hash.clone(),
                })
                .collect(),
        }
    }
}

/// The code version `explore.json` names: the cache's, or this
/// build's when the run has no cache.
fn code_version(opts: &ExploreOptions) -> &str {
    opts.cache
        .as_ref()
        .map_or(CODE_VERSION, |c| c.code_version())
}

/// `mask[i]` is true iff point `i` is on the frontier.
fn frontier_mask(len: usize, frontier: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; len];
    for &i in frontier {
        mask[i] = true;
    }
    mask
}

/// One batch of descriptors run through the Study machinery.
struct ExplorePass {
    points: Vec<PointDescriptor>,
}

impl Study for ExplorePass {
    type Point = PointDescriptor;
    type Output = PointOutcome;
    type Report = Vec<PointOutcome>;

    fn name(&self) -> &'static str {
        "explore"
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<PointDescriptor> {
        // Descriptors are fully self-describing; the Scale channel is
        // already baked into each one.
        ExperimentPlan::new(self.points.clone())
    }

    fn label(&self, point: &PointDescriptor) -> String {
        point.label()
    }

    fn run_point(
        &self,
        point: &PointDescriptor,
        _scale: Scale,
        book: &TraceBook,
    ) -> Result<PointOutcome, DriveError> {
        point::run_point_with(point, book)
    }

    fn reduce(&self, outputs: Vec<PointOutcome>) -> Vec<PointOutcome> {
        outputs
    }
}

/// The objective triple of one outcome under a latency-axis choice.
pub fn axes_of(p: &PointOutcome, latency: LatencyAxis) -> Axes {
    Axes {
        latency_ms: match latency {
            LatencyAxis::Mean => p.mean_ms,
            LatencyAxis::P90 => p.p90_ms,
        },
        energy_j: p.energy_j,
        cost_usd: p.cost_usd,
    }
}

/// Canonical design-space sort key: design, policy, cache, rpm,
/// workload — the same nesting order the grid enumerates in.
fn sort_key(d: &PointDescriptor) -> (usize, usize, u32, u32, usize) {
    let design = space::designs()
        .iter()
        .position(|x| *x == d.dash)
        .unwrap_or(usize::MAX);
    let policy = space::POLICIES
        .iter()
        .position(|x| *x == d.policy)
        .unwrap_or(usize::MAX);
    let workload = WorkloadKind::ALL
        .iter()
        .position(|x| *x == d.workload)
        .unwrap_or(usize::MAX);
    (design, policy, d.cache_mib, d.rpm, workload)
}

/// Runs one batch: cache hits load, misses simulate (in plan order, on
/// the executor) and are stored back. Returns outcomes in the batch's
/// plan order, each with its descriptor's hash (computed here, once),
/// plus the number executed. The hash-and-probe pass is timed into
/// `probe`.
fn run_batch(
    batch: &[PointDescriptor],
    opts: &ExploreOptions,
    exec: &Executor,
    probe: &mut PhaseTime,
) -> Result<(Vec<(PointOutcome, String)>, usize), StudyError> {
    let clock = Stopwatch::start();
    let hashes: Vec<String> = batch.iter().map(PointDescriptor::hash).collect();
    let mut outcomes: Vec<Option<PointOutcome>> = Vec::with_capacity(batch.len());
    let mut misses = Vec::new();
    for (d, hash) in batch.iter().zip(&hashes) {
        match opts.cache.as_ref().and_then(|c| c.load_hashed(d, hash)) {
            Some(hit) => outcomes.push(Some(hit)),
            None => {
                misses.push(*d);
                outcomes.push(None);
            }
        }
    }
    probe.add(PhaseTime::once(clock.elapsed_ns()));
    let executed = misses.len();
    if !misses.is_empty() {
        let pass = ExplorePass { points: misses };
        let scale = Scale {
            requests: opts.scale.requests,
            seed: opts.scale.seed,
            stats: opts.scale.stats,
        };
        let mut fresh = pass.run(scale, exec)?.into_iter();
        for (slot, hash) in outcomes.iter_mut().zip(&hashes) {
            if slot.is_some() {
                continue;
            }
            *slot = fresh.next();
            if let (Some(cache), Some(out)) = (opts.cache.as_ref(), slot.as_ref()) {
                if let Err(e) = cache.store_hashed(out, hash) {
                    // A dead cache must not kill the sweep, but it does
                    // forfeit the warm-run guarantee — say so once per
                    // point on stderr (stdout stays deterministic).
                    eprintln!("[explore: cache write failed for {}: {e}]", out.descriptor);
                }
            }
        }
    }
    Ok((
        outcomes
            .into_iter()
            .map(|o| o.expect("slot filled"))
            .zip(hashes)
            .collect(),
        executed,
    ))
}

/// Runs the exploration: seed grid, optional refinement passes, Pareto
/// reduction, and the `explore.json` export. Deterministic: the
/// returned outcome (including the JSON bytes) is identical across
/// `--jobs` values and across cold/warm cache states of the same build.
pub fn explore(opts: &ExploreOptions, exec: &Executor) -> Result<ExploreOutcome, StudyError> {
    let seed_resolution = match opts.coverage {
        Coverage::Full => GridResolution::Full,
        Coverage::Coarse | Coverage::Adaptive { .. } => GridResolution::Coarse,
    };
    let seed = space::grid(seed_resolution, opts.scale);

    let mut evaluated: Vec<(PointOutcome, String)> = Vec::with_capacity(seed.len());
    // Equal descriptors are equal canonical forms, so this dedups
    // exactly as their hashes would, without hashing.
    let mut seen: HashSet<PointDescriptor> = seed.iter().copied().collect();
    let mut executed = 0usize;
    let mut probe = PhaseTime::default();

    eprintln!(
        "[explore: {} coverage, {} seed points, {} requests/point]",
        opts.coverage.name(),
        seed.len(),
        opts.scale.requests
    );
    let (outcomes, ran) = run_batch(&seed, opts, exec, &mut probe)?;
    evaluated.extend(outcomes);
    executed += ran;

    if let Coverage::Adaptive { passes } = opts.coverage {
        for pass_no in 1..=passes {
            // Frontier over everything evaluated so far, in evaluation
            // order (deterministic: seed order, then candidate order).
            let axes: Vec<Axes> = evaluated
                .iter()
                .map(|(p, _)| axes_of(p, opts.latency))
                .collect();
            let frontier = pareto::frontier_indices(&axes);
            let mut batch = Vec::new();
            for &i in &frontier {
                for n in space::neighbors(&evaluated[i].0.descriptor) {
                    if seen.insert(n) {
                        batch.push(n);
                    }
                }
            }
            if batch.is_empty() {
                eprintln!("[explore: refinement pass {pass_no} converged]");
                break;
            }
            eprintln!(
                "[explore: refinement pass {pass_no}, {} frontier points -> {} new candidates]",
                frontier.len(),
                batch.len()
            );
            let (outcomes, ran) = run_batch(&batch, opts, exec, &mut probe)?;
            evaluated.extend(outcomes);
            executed += ran;
        }
    }

    // Canonical export order: the design-space nesting order, not the
    // discovery order — so coverage changes reorder nothing they share.
    evaluated.sort_by_key(|(p, _)| sort_key(&p.descriptor));
    let (points, hashes): (Vec<PointOutcome>, Vec<String>) = evaluated.into_iter().unzip();
    let axes: Vec<Axes> = points.iter().map(|p| axes_of(p, opts.latency)).collect();
    let frontier = pareto::frontier_indices(&axes);
    let cached = points.len() - executed;
    let json = render_json(opts, &points, &hashes, &frontier);
    Ok(ExploreOutcome {
        points,
        hashes,
        frontier,
        executed,
        cached,
        json,
        probe,
    })
}

/// Renders the byte-stable `explore.json` body: single trailing
/// newline, fixed key order, floats in shortest-round-trip form. The
/// body deliberately excludes anything cache- or wall-clock-dependent
/// (hit counts, timings), so cold and warm runs emit identical bytes.
fn render_json(
    opts: &ExploreOptions,
    points: &[PointOutcome],
    hashes: &[String],
    frontier: &[usize],
) -> String {
    let on_frontier = frontier_mask(points.len(), frontier);
    // A point's line is about 330 bytes, a frontier entry 72.
    let mut out = String::with_capacity(512 + 340 * points.len() + 72 * frontier.len());
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{}\",\n  \"code_version\": \"{}\",\n  \"coverage\": \"{}\",\n  \
         \"latency_axis\": \"{}\",\n  \"requests\": {},\n  \"seed\": {},\n  \"stats\": \"{}\",\n  \
         \"points\": [",
        EXPLORE_SCHEMA,
        code_version(opts),
        opts.coverage.name(),
        opts.latency.name(),
        opts.scale.requests,
        opts.scale.seed,
        descriptor::stats_name(opts.scale.stats),
    );
    for (i, (p, hash)) in points.iter().zip(hashes).enumerate() {
        let d = &p.descriptor;
        let _ = write!(
            out,
            "{}\n    {{\"cache_mib\":{},\"cache_hits\":{},\"completed\":{},\"cost_usd\":{},\
             \"dash\":\"{}\",\"energy_j\":{},\"frontier\":{},\"hash\":\"{}\",\"mean_ms\":{},\
             \"p90_ms\":{},\"policy\":\"{}\",\"power_w\":{},\"rpm\":{},\"workload\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            d.cache_mib,
            p.cache_hits,
            p.completed,
            p.cost_usd,
            d.dash,
            p.energy_j,
            on_frontier[i],
            hash,
            p.mean_ms,
            p.p90_ms,
            descriptor::policy_name(d.policy),
            p.power_w,
            d.rpm,
            d.workload.name(),
        );
    }
    out.push_str("\n  ],\n  \"frontier\": [");
    for (k, &i) in frontier.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{}\"",
            if k == 0 { "" } else { "," },
            hashes[i]
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::metrics::jsonv::{self, Value};

    fn tiny_opts() -> ExploreOptions {
        ExploreOptions {
            scale: SweepScale {
                requests: 200,
                ..SweepScale::default()
            },
            coverage: Coverage::Coarse,
            latency: LatencyAxis::P90,
            cache: None,
        }
    }

    #[test]
    fn coarse_explore_is_deterministic_across_jobs() {
        let opts = tiny_opts();
        let a = explore(&opts, &Executor::serial()).expect("explore succeeds");
        let b = explore(&opts, &Executor::new(2)).expect("explore succeeds");
        assert_eq!(a.json, b.json);
        assert_eq!(a.frontier, b.frontier);
        assert_eq!(a.points.len(), 6 * 3 * 2 * 2 * 4);
        assert_eq!(a.executed, a.points.len(), "no cache: everything runs");
        let hashes: Vec<String> = a.points.iter().map(|p| p.descriptor.hash()).collect();
        assert_eq!(a.hashes, hashes, "each point's hash, in point order");
    }

    #[test]
    fn explore_json_parses_and_marks_frontier() {
        let out = explore(&tiny_opts(), &Executor::new(2)).expect("explore succeeds");
        let doc = jsonv::parse(&out.json).expect("export is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(EXPLORE_SCHEMA)
        );
        let pts = doc.get("points").and_then(Value::as_array).expect("points");
        assert_eq!(pts.len(), out.points.len());
        let marked = pts
            .iter()
            .filter(|p| {
                p.get("frontier")
                    .map(|v| matches!(v, Value::Bool(true)))
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(marked, out.frontier.len());
        let fr = doc
            .get("frontier")
            .and_then(Value::as_array)
            .expect("frontier");
        assert_eq!(fr.len(), out.frontier.len());
    }

    #[test]
    fn adaptive_refinement_adds_points_deterministically() {
        let opts = ExploreOptions {
            coverage: Coverage::Adaptive { passes: 1 },
            ..tiny_opts()
        };
        let a = explore(&opts, &Executor::serial()).expect("explore succeeds");
        let b = explore(&opts, &Executor::new(3)).expect("explore succeeds");
        assert_eq!(a.json, b.json);
        assert!(
            a.points.len() > 6 * 3 * 2 * 2 * 4,
            "refinement explored past the coarse grid"
        );
    }
}
