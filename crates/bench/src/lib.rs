//! `bench` — self-contained benchmark harness for the reproduction.
//!
//! Four benchmark suites live under `benches/` (all `harness = false`
//! binaries driven by `cargo bench`):
//!
//! * `figures` — regenerates every table and figure of the paper at a
//!   reduced, deterministic scale (one benchmark per artifact, so
//!   `cargo bench` doubles as an end-to-end regression run over the
//!   whole evaluation).
//! * `substrates` — microbenchmarks of the building blocks: seek-curve
//!   evaluation, LBA mapping, rotational-wait computation (by instant
//!   and by phase), one SA(4) SPTF dispatch scan, cache lookups, Zipf
//!   sampling, and raw simulator throughput.
//! * `ablations` — sensitivity sweeps over the design knobs DESIGN.md
//!   calls out (queue policy, SPTF window, arm placement, cache size,
//!   stripe unit, overlap mode).
//! * `kernel` — event-kernel throughput, timing wheel against the
//!   retired binary heap (`scripts/verify.sh` gates wheel ≤ heap).
//!
//! End-to-end and per-layer performance is tracked by perfbench
//! (`python3 perfbench/run.py`), not by these suites.
//!
//! The timing harness is hand-rolled so the workspace builds with zero
//! external dependencies: each benchmark runs a warmup, then
//! `samples` timed iterations, and reports the median (plus min/mean/
//! max) as one JSON line on stdout — machine-greppable and
//! diff-friendly across runs:
//!
//! ```text
//! {"bench":"seek_time_eval","median_ns":61,"mean_ns":63,"min_ns":59,"max_ns":92,"samples":30,"inner_iters":1000}
//! ```

use std::time::Instant;

use experiments::configs::Scale;

/// One benchmark's timing summary. Times are per *inner iteration*.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample in nanoseconds.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Inner iterations per sample.
    pub inner_iters: usize,
}

impl BenchResult {
    /// Renders the result as one JSON line.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"median_ns\":{:.0},\"mean_ns\":{:.0},\"min_ns\":{:.0},\"max_ns\":{:.0},\"samples\":{},\"inner_iters\":{}}}",
            self.name, self.median_ns, self.mean_ns, self.min_ns, self.max_ns, self.samples, self.inner_iters
        )
    }
}

/// Times `f`, running `warmup` untimed calls and then `samples` timed
/// calls, and prints the summary JSON line. The reported numbers are
/// per call.
///
/// # Panics
/// Panics if `samples == 0`.
pub fn bench<T>(
    name: &str,
    warmup: usize,
    samples: usize,
    mut f: impl FnMut() -> T,
) -> BenchResult {
    bench_inner(name, warmup, samples, 1, &mut |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        start.elapsed().as_nanos() as f64
    })
}

/// Like [`bench()`] but each timed sample runs `inner_iters` calls and
/// reports per-call time — for operations too fast to time one-by-one.
///
/// # Panics
/// Panics if `samples == 0` or `inner_iters == 0`.
pub fn bench_micro<T>(
    name: &str,
    warmup: usize,
    samples: usize,
    inner_iters: usize,
    mut f: impl FnMut() -> T,
) -> BenchResult {
    assert!(inner_iters > 0, "need at least one inner iteration");
    bench_inner(name, warmup, samples, inner_iters, &mut |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        start.elapsed().as_nanos() as f64
    })
}

fn bench_inner(
    name: &str,
    warmup: usize,
    samples: usize,
    inner_iters: usize,
    timed_run: &mut dyn FnMut(usize) -> f64,
) -> BenchResult {
    assert!(samples > 0, "need at least one sample");
    for _ in 0..warmup {
        timed_run(inner_iters);
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| timed_run(inner_iters) / inner_iters as f64)
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = if samples % 2 == 1 {
        per_iter[samples / 2]
    } else {
        (per_iter[samples / 2 - 1] + per_iter[samples / 2]) / 2.0
    };
    let result = BenchResult {
        name: name.to_string(),
        median_ns: median,
        mean_ns: per_iter.iter().sum::<f64>() / samples as f64,
        min_ns: per_iter[0],
        max_ns: per_iter[samples - 1],
        samples,
        inner_iters,
    };
    println!("{}", result.to_json_line());
    result
}

/// The deterministic scale benches run at (small enough that a full
/// `cargo bench` finishes in minutes).
pub fn bench_scale() -> Scale {
    Scale::bench().with_requests(6_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        let r = bench("noop_odd", 1, 5, || 42u64);
        assert_eq!(r.samples, 5);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        let r = bench("noop_even", 0, 4, || 42u64);
        assert_eq!(r.samples, 4);
        assert!(r.median_ns >= 0.0);
    }

    #[test]
    fn micro_reports_per_iteration_time() {
        let slow = bench("spin_once", 1, 5, || {
            std::hint::black_box((0..1_000u64).sum::<u64>())
        });
        let fast = bench_micro("spin_amortized", 1, 5, 100, || {
            std::hint::black_box((0..1_000u64).sum::<u64>())
        });
        // Per-iteration medians should be within an order of magnitude;
        // mostly this guards against forgetting the inner division.
        assert!(fast.median_ns < slow.median_ns * 10.0 + 1_000.0);
    }

    #[test]
    fn json_line_is_well_formed() {
        let r = bench("json_check", 0, 3, || 1u8);
        let line = r.to_json_line();
        assert!(line.starts_with("{\"bench\":\"json_check\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"median_ns\":"), "{line}");
    }

    #[test]
    fn scale_is_deterministic() {
        assert_eq!(bench_scale().seed, 42);
        assert_eq!(bench_scale().requests, 6_000);
    }
}
