//! `bench` — the event-kernel throughput benchmark and its timer.
//!
//! `benches/kernel.rs` (a `harness = false` binary driven by
//! `cargo bench -p bench --bench kernel`) times the timing wheel
//! against the retired binary heap; `scripts/verify.sh` gates
//! wheel ≤ heap on its `--quick` pair.
//!
//! End-to-end and per-layer performance is tracked by perfbench
//! (`python3 perfbench/run.py`), not by this crate.
//!
//! The timing harness is hand-rolled so the workspace builds with zero
//! external dependencies: each benchmark runs a warmup, then `samples`
//! timed calls, and reports the median (plus min/mean/max) as one JSON
//! line on stdout — machine-greppable and diff-friendly across runs:
//!
//! ```text
//! {"bench":"<name>","median_ns":<ns>,"mean_ns":<ns>,"min_ns":<ns>,"max_ns":<ns>,"samples":<n>}
//! ```

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a benchmark timer reads the host clock by design"
)]

use std::time::Instant;

/// One benchmark's timing summary. Times are per call.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Median per-call time in nanoseconds.
    pub median_ns: f64,
    /// Mean per-call time in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample in nanoseconds.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
}

impl BenchResult {
    /// Renders the result as one JSON line.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"median_ns\":{:.0},\"mean_ns\":{:.0},\"min_ns\":{:.0},\"max_ns\":{:.0},\"samples\":{}}}",
            self.name, self.median_ns, self.mean_ns, self.min_ns, self.max_ns, self.samples
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
    assert!(samples > 0, "need at least one sample");
    let mut timed_call = || {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_nanos() as f64
    };
    for _ in 0..warmup {
        timed_call();
    }
    let mut per_call: Vec<f64> = (0..samples).map(|_| timed_call()).collect();
    per_call.sort_by(|a, b| a.total_cmp(b));
    let median = if samples % 2 == 1 {
        per_call[samples / 2]
    } else {
        (per_call[samples / 2 - 1] + per_call[samples / 2]) / 2.0
    };
    let result = BenchResult {
        name: name.to_string(),
        median_ns: median,
        mean_ns: per_call.iter().sum::<f64>() / samples as f64,
        min_ns: per_call[0],
        max_ns: per_call[samples - 1],
        samples,
    };
    println!("{}", result.to_json_line());
    result
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
    fn json_line_is_well_formed() {
        let r = bench("json_check", 0, 3, || 1u8);
        let line = r.to_json_line();
        assert!(line.starts_with("{\"bench\":\"json_check\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"median_ns\":"), "{line}");
    }
}
