//! Pull-based request ingestion: [`RequestSource`].
//!
//! The materialize-then-consume data plane (`Vec<IoRequest>` inside
//! [`Trace`]) caps run size by RAM long before the event kernel runs
//! out of steam. `RequestSource` inverts it: the run loop *pulls* one
//! request at a time, so the workload's memory footprint is O(1) for
//! the generated sources (synthetic, profiles, SPC streaming) and the
//! run size is bounded only by simulated-time arithmetic.
//!
//! # Contract
//!
//! * [`next_request`](RequestSource::next_request) yields requests in
//!   **nondecreasing arrival order** — the run loops interleave
//!   arrivals with completion events on that assumption. Generated
//!   sources satisfy it by construction; [`Trace`] sorts at build time.
//! * [`footprint_sectors`](RequestSource::footprint_sectors) is the
//!   logical address space requests are drawn from, known up front
//!   (the array layouts and the paper's placement studies need it
//!   before the first request).
//! * [`len_hint`](RequestSource::len_hint) is the exact remaining
//!   request count when known (all shipped sources know it), `None`
//!   for open-ended sources.
//! * [`skip`](RequestSource::skip) fast-forwards past `n` requests and
//!   is the checkpoint/resume seam: a split run resumes by rebuilding
//!   the source from its seed and skipping the requests a previous
//!   shard consumed (see ROADMAP item 2 residuals for full sim-state
//!   checkpointing).
//!
//! Run loops accept `impl IntoRequestSource`, so call sites pass either
//! a source (by value) or `&Trace` (backward compatible: borrows the
//! materialized requests through a cursor).

use intradisk::IoRequest;

use crate::trace::Trace;

/// A pull-based stream of I/O requests in nondecreasing arrival order.
pub trait RequestSource {
    /// Yields the next request, or `None` when the workload ends.
    fn next_request(&mut self) -> Option<IoRequest>;

    /// The logical address space the requests are drawn from, sectors.
    fn footprint_sectors(&self) -> u64;

    /// Exact number of requests remaining, when known.
    fn len_hint(&self) -> Option<u64> {
        None
    }

    /// Workload name for reports.
    fn name(&self) -> &str {
        "workload"
    }

    /// Fast-forwards past up to `n` requests, returning how many were
    /// skipped (fewer only if the source ended). The default pulls and
    /// discards; sources with random-access backing override it.
    ///
    /// This is the resume seam: rebuild the source deterministically
    /// (same spec and seed) and `skip` what an earlier shard consumed.
    fn skip(&mut self, n: u64) -> u64 {
        let mut skipped = 0;
        while skipped < n {
            if self.next_request().is_none() {
                break;
            }
            skipped += 1;
        }
        skipped
    }
}

impl<S: RequestSource + ?Sized> RequestSource for &mut S {
    fn next_request(&mut self) -> Option<IoRequest> {
        (**self).next_request()
    }

    fn footprint_sectors(&self) -> u64 {
        (**self).footprint_sectors()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn skip(&mut self, n: u64) -> u64 {
        (**self).skip(n)
    }
}

/// Conversion into a [`RequestSource`], so run loops accept sources
/// and `&Trace` interchangeably (mirrors `IntoIterator`/`Iterator`).
pub trait IntoRequestSource {
    /// The concrete source this converts into.
    type Source: RequestSource;

    /// Converts into a source positioned at the first request.
    fn into_source(self) -> Self::Source;
}

impl<S: RequestSource> IntoRequestSource for S {
    type Source = S;

    fn into_source(self) -> S {
        self
    }
}

impl<'a> IntoRequestSource for &'a Trace {
    type Source = TraceSource<'a>;

    fn into_source(self) -> TraceSource<'a> {
        self.source()
    }
}

/// A [`RequestSource`] as an iterator over its requests, whose `nth`
/// is the source's [`skip`](RequestSource::skip).
#[derive(Debug, Clone)]
pub struct Requests<S>(pub S);

impl<S: RequestSource> Iterator for Requests<S> {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        self.0.next_request()
    }

    fn nth(&mut self, n: usize) -> Option<IoRequest> {
        self.0.skip(n as u64);
        self.0.next_request()
    }
}

/// A transparent wrapper that counts every request pulled through it,
/// batching into a [`DropCounter`](simkit::counters::DropCounter) that
/// flushes to [`crate::counters::REQUESTS_PULLED`] when the source
/// drops. Run loops wrap their sources in this so ingestion volume
/// shows up in the deterministic counter export.
#[derive(Debug, Clone)]
pub struct CountingSource<S> {
    inner: S,
    pulled: simkit::counters::DropCounter,
}

impl<S: RequestSource> CountingSource<S> {
    /// Wraps `inner`, counting pulls (skips count too: a skipped
    /// request was still ingested).
    pub fn new(inner: S) -> Self {
        CountingSource {
            inner,
            pulled: simkit::counters::DropCounter::new(&crate::counters::REQUESTS_PULLED),
        }
    }
}

impl<S: RequestSource> RequestSource for CountingSource<S> {
    fn next_request(&mut self) -> Option<IoRequest> {
        let r = self.inner.next_request();
        if r.is_some() {
            self.pulled.bump();
        }
        r
    }

    fn footprint_sectors(&self) -> u64 {
        self.inner.footprint_sectors()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn skip(&mut self, n: u64) -> u64 {
        let skipped = self.inner.skip(n);
        self.pulled.add(skipped);
        skipped
    }
}

/// A cursor over a materialized [`Trace`] (backward compatibility:
/// traces are already sorted by arrival).
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceSource<'a> {
    pub(crate) fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, pos: 0 }
    }

    /// The trace this cursor replays.
    #[cfg(test)]
    pub(crate) fn trace(&self) -> &'a Trace {
        self.trace
    }
}

impl RequestSource for TraceSource<'_> {
    fn next_request(&mut self) -> Option<IoRequest> {
        let r = self.trace.requests().get(self.pos).copied()?;
        self.pos += 1;
        Some(r)
    }

    fn footprint_sectors(&self) -> u64 {
        self.trace.footprint_sectors()
    }

    fn len_hint(&self) -> Option<u64> {
        Some((self.trace.len() - self.pos) as u64)
    }

    fn name(&self) -> &str {
        self.trace.name()
    }

    fn skip(&mut self, n: u64) -> u64 {
        let remaining = (self.trace.len() - self.pos) as u64;
        let skipped = n.min(remaining);
        self.pos += skipped as usize;
        skipped
    }
}

/// Collects a source into a materialized [`Trace`] (tests, tools, and
/// small runs that want random access).
pub fn collect_trace(source: impl IntoRequestSource) -> Trace {
    let mut src = source.into_source();
    let mut reqs = Vec::with_capacity(src.len_hint().unwrap_or(0) as usize);
    let name = src.name().to_string();
    let footprint = src.footprint_sectors();
    while let Some(r) = src.next_request() {
        reqs.push(r);
    }
    Trace::new(name, reqs, footprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intradisk::IoKind;
    use simkit::SimTime;

    fn trace(n: u64) -> Trace {
        let reqs = (0..n)
            .map(|i| IoRequest::new(i, SimTime::from_millis(i as f64), i * 8, 8, IoKind::Read))
            .collect();
        Trace::new("t", reqs, 10_000)
    }

    #[test]
    fn trace_source_yields_in_order() {
        let t = trace(5);
        let mut src = t.source();
        assert_eq!(src.len_hint(), Some(5));
        assert_eq!(src.name(), "t");
        assert_eq!(src.footprint_sectors(), 10_000);
        let ids: Vec<u64> = std::iter::from_fn(|| src.next_request())
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(src.len_hint(), Some(0));
        assert!(src.next_request().is_none());
    }

    #[test]
    fn skip_fast_forwards_and_clamps() {
        let t = trace(10);
        let mut src = t.source();
        assert_eq!(src.skip(3), 3);
        assert_eq!(src.next_request().map(|r| r.id), Some(3));
        assert_eq!(src.skip(100), 6);
        assert!(src.next_request().is_none());
    }

    #[test]
    fn default_skip_pulls() {
        // Exercise the default impl through a &mut (blanket impl keeps
        // the override; a plain pulling source uses the default).
        struct Counting(u64);
        impl RequestSource for Counting {
            fn next_request(&mut self) -> Option<IoRequest> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(IoRequest::new(self.0, SimTime::ZERO, 0, 8, IoKind::Read))
            }
            fn footprint_sectors(&self) -> u64 {
                1
            }
        }
        let mut c = Counting(5);
        assert_eq!(RequestSource::skip(&mut c, 3), 3);
        assert_eq!(RequestSource::skip(&mut c, 9), 2);
    }

    #[test]
    fn collect_round_trips_a_trace() {
        let t = trace(7);
        let rebuilt = collect_trace(&t);
        assert_eq!(rebuilt, t);
    }
}
