//! Host-time spans and the ledger's arithmetic: per-call averages,
//! medians and per-request ratios.

use std::time::Instant;

/// Host time accumulated over a number of calls into one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Acc {
    /// Total host nanoseconds inside the spans.
    pub ns: u128,
    /// Calls the spans covered (a batched span covers many).
    pub calls: u64,
}

impl Acc {
    /// Closes a span opened at `start` that covered `calls` calls.
    #[inline]
    pub fn add(&mut self, start: Instant, calls: u64) {
        self.ns += start.elapsed().as_nanos();
        self.calls += calls;
    }

    /// Adds another accumulator's spans to this one.
    pub fn merge(&mut self, other: Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean host nanoseconds per call (0 when nothing was timed).
    pub fn per_call_ns(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A counter per request: `count / requests`, 0 for an empty run.
pub fn per_req(count: u64, requests: u64) -> f64 {
    ratio(count as f64, requests as f64)
}

/// Median of the samples (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are bugs in the
/// ledger, not properties of the measured program.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Observer effect of tracing: traced minus untraced wall time, as a
/// percentage of untraced.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    ratio(traced_s - untraced_s, untraced_s) * 100.0
}

/// Host cost of one empty timed span: open it, close it, accumulate.
pub fn span_cost_ns(spans: u64) -> f64 {
    let mut acc = Acc::default();
    let start = Instant::now();
    for _ in 0..spans {
        let t = Instant::now();
        acc.add(t, 1);
    }
    std::hint::black_box(acc);
    ratio(start.elapsed().as_nanos() as f64, spans as f64)
}

/// Runs `round` at least `min_rounds` times and until `budget_s`
/// seconds have passed; returns the median of its results.
pub fn median_over_rounds(min_rounds: usize, budget_s: f64, mut round: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_rounds || start.elapsed().as_secs_f64() < budget_s {
        samples.push(round());
    }
    median(&samples)
}

/// True for a metric name the benchmark contract accepts: a letter or
/// digit first, then at most 63 of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_average_and_empty_accumulator() {
        let acc = Acc {
            ns: 1_000,
            calls: 8,
        };
        assert_eq!(acc.per_call_ns(), 125.0);
        assert_eq!(Acc::default().per_call_ns(), 0.0);
    }

    #[test]
    fn per_request_ratios() {
        assert_eq!(per_req(3_000_000, 1_000_000), 3.0);
        assert_eq!(per_req(1, 4), 0.25);
        assert_eq!(per_req(7, 0), 0.0, "an empty run has no per-request cost");
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_is_a_bug() {
        median(&[]);
    }

    #[test]
    fn overhead_is_a_signed_percentage() {
        assert_eq!(overhead_pct(1.1, 1.0).round(), 10.0);
        assert!(
            overhead_pct(0.9, 1.0) < 0.0,
            "noise can make tracing look free"
        );
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn rounds_run_at_least_the_minimum() {
        let mut n = 0;
        let m = median_over_rounds(3, 0.0, || {
            n += 1;
            n as f64
        });
        assert_eq!(n, 3);
        assert_eq!(m, 2.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "req_per_s",
            "simkit.push_ns",
            "experiments.study_s.raid",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn span_cost_is_positive() {
        assert!(span_cost_ns(10_000) > 0.0);
    }
}
