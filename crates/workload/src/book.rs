//! The workloads of one sweep: [`TraceBook`].
//!
//! A sweep replays the same few profile streams against many drive
//! designs — the paper's evaluation replays the four Table 2 traces
//! against MD arrays, HC-SD, SA(n) and the RPM variants. A
//! [`ProfileSource`] pull costs a Zipf draw (four `powf`) plus an
//! arrival `ln`; copying a stored request costs a few nanoseconds. So
//! a book generates each profile's trace once, on first use, and every
//! later run of the sweep replays the stored copy.
//!
//! The stored trace is the one [`TraceProfile::generate`](crate::TraceProfile::generate)
//! materializes, which is exactly what
//! [`TraceProfile::source`](crate::TraceProfile::source) yields lazily, so a
//! replay is indistinguishable from a fresh lazy source: same requests,
//! footprint, length and name.
//!
//! # Memory bound
//!
//! A book stores a trace only when its request count is at most
//! [`MAX_STORED_REQUESTS`] (65,536 × 32 B per request = 2 MiB per trace,
//! 8 MiB for all four profiles). Above that it hands out the lazy
//! source, so streaming runs at 10⁷–10⁸ requests keep workload memory
//! flat.
//!
//! # Concurrency
//!
//! Each profile's trace sits in its own [`OnceLock`]: a worker that
//! needs a trace another worker is generating waits for it. The trace
//! depends only on `(kind, requests, seed)`, so no output can depend on
//! which worker generated it.

use std::sync::OnceLock;

use intradisk::IoRequest;

use crate::profiles::{profile_for, ProfileSource, WorkloadKind};
use crate::source::{RequestSource, TraceSource};
use crate::trace::Trace;

/// The largest request count a [`TraceBook`] stores; longer workloads
/// stream lazily.
pub const MAX_STORED_REQUESTS: usize = 65_536;

/// One sweep's workloads: each profile's trace generated once, on first
/// use, then replayed by every run of the sweep.
#[derive(Debug)]
pub struct TraceBook {
    requests: usize,
    seed: u64,
    traces: [OnceLock<Trace>; WorkloadKind::ALL.len()],
}

impl TraceBook {
    /// An empty book for workloads of `requests` requests generated
    /// from `seed`. Generates nothing until a source is asked for.
    pub fn new(requests: usize, seed: u64) -> Self {
        TraceBook {
            requests,
            seed,
            traces: Default::default(),
        }
    }

    /// True if the book stores its traces (request count within
    /// [`MAX_STORED_REQUESTS`]).
    fn stores(&self) -> bool {
        self.requests <= MAX_STORED_REQUESTS
    }

    /// The workload `kind` at the book's `(requests, seed)`: a replay
    /// of the stored trace, generated by the first caller, or the lazy
    /// source when the book does not store traces this long.
    pub fn source(&self, kind: WorkloadKind) -> BookSource<'_> {
        if !self.stores() {
            return BookSource::Lazy(profile_for(kind).source(self.requests, self.seed));
        }
        let trace = self.traces[kind as usize]
            .get_or_init(|| profile_for(kind).generate(self.requests, self.seed));
        BookSource::Stored(trace.source())
    }

    /// The workload `kind` at `(requests, seed)`: the book's replay when
    /// they are the book's, otherwise a lazy source of their own.
    pub fn source_at(&self, kind: WorkloadKind, requests: usize, seed: u64) -> BookSource<'_> {
        if (requests, seed) == (self.requests, self.seed) {
            self.source(kind)
        } else {
            BookSource::Lazy(profile_for(kind).source(requests, seed))
        }
    }
}

/// A source handed out by [`TraceBook`]: a replay of a stored trace or
/// a lazy generator.
// Built once per run and moved into the run loop, so the lazy variant's
// size costs nothing; boxing it would add an allocation per run.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum BookSource<'a> {
    /// A cursor over the book's stored trace.
    Stored(TraceSource<'a>),
    /// The lazy generator (trace too long to store, or not the book's
    /// `(requests, seed)`).
    Lazy(ProfileSource),
}

impl RequestSource for BookSource<'_> {
    #[inline]
    fn next_request(&mut self) -> Option<IoRequest> {
        match self {
            BookSource::Stored(s) => s.next_request(),
            BookSource::Lazy(s) => s.next_request(),
        }
    }

    fn footprint_sectors(&self) -> u64 {
        match self {
            BookSource::Stored(s) => s.footprint_sectors(),
            BookSource::Lazy(s) => s.footprint_sectors(),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            BookSource::Stored(s) => s.len_hint(),
            BookSource::Lazy(s) => s.len_hint(),
        }
    }

    fn name(&self) -> &str {
        match self {
            BookSource::Stored(s) => s.name(),
            BookSource::Lazy(s) => s.name(),
        }
    }

    fn skip(&mut self, n: u64) -> u64 {
        match self {
            BookSource::Stored(s) => s.skip(n),
            BookSource::Lazy(s) => s.skip(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stored trace a book source replays, if it replays one.
    fn stored<'a>(src: &BookSource<'a>) -> Option<&'a [IoRequest]> {
        match src {
            BookSource::Stored(s) => Some(s.trace().requests()),
            BookSource::Lazy(_) => None,
        }
    }

    /// Pulls `src` to the end, checking it against `want` field by
    /// field: name, footprint, the length hint before every pull, and
    /// every request.
    fn assert_same_stream(mut src: BookSource<'_>, mut want: ProfileSource, what: &str) {
        assert_eq!(src.name(), want.name(), "{what}: name");
        assert_eq!(
            src.footprint_sectors(),
            want.footprint_sectors(),
            "{what}: footprint"
        );
        loop {
            assert_eq!(src.len_hint(), want.len_hint(), "{what}: len_hint");
            let (got, expect) = (src.next_request(), want.next_request());
            assert_eq!(got, expect, "{what}: request");
            if expect.is_none() {
                break;
            }
        }
    }

    #[test]
    fn io_request_is_32_bytes() {
        // The memory bound's arithmetic (2 MiB per stored trace).
        assert_eq!(std::mem::size_of::<IoRequest>(), 32);
    }

    #[test]
    fn replay_yields_exactly_the_lazy_stream_for_every_kind() {
        let book = TraceBook::new(2_000, 17);
        for kind in WorkloadKind::ALL {
            let fresh = || profile_for(kind).source(2_000, 17);
            let first = book.source(kind);
            assert!(stored(&first).is_some(), "{}: not stored", kind.name());
            assert_same_stream(first, fresh(), kind.name());
            // A second replay starts from the top again.
            assert_same_stream(book.source(kind), fresh(), kind.name());
        }
    }

    #[test]
    fn sources_of_one_kind_share_one_trace() {
        let book = TraceBook::new(500, 3);
        let a = book.source(WorkloadKind::TpcC);
        let b = book.source(WorkloadKind::TpcC);
        let other = book.source(WorkloadKind::TpcH);
        let (a, b, other) = (
            stored(&a).unwrap(),
            stored(&b).unwrap(),
            stored(&other).unwrap(),
        );
        assert!(
            std::ptr::eq(a, b),
            "two replays of one kind must share storage"
        );
        assert!(!std::ptr::eq(a, other), "kinds must not share storage");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test races two threads on a book's first use"
    )]
    fn concurrent_first_use_shares_one_trace() {
        let book = TraceBook::new(4_000, 9);
        let barrier = std::sync::Barrier::new(2);
        let slices: Vec<&[IoRequest]> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        stored(&book.source(WorkloadKind::Financial)).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(
            std::ptr::eq(slices[0], slices[1]),
            "racing first users must share one trace"
        );
        assert_same_stream(
            book.source(WorkloadKind::Financial),
            profile_for(WorkloadKind::Financial).source(4_000, 9),
            "after the race",
        );
    }

    #[test]
    fn above_the_bound_nothing_is_stored() {
        let at = TraceBook::new(MAX_STORED_REQUESTS, 1);
        assert!(at.stores());
        let over = TraceBook::new(MAX_STORED_REQUESTS + 1, 1);
        assert!(!over.stores());
        for kind in WorkloadKind::ALL {
            let src = over.source(kind);
            assert!(
                stored(&src).is_none(),
                "{}: stored above the bound",
                kind.name()
            );
            assert!(
                over.traces[kind as usize].get().is_none(),
                "{}",
                kind.name()
            );
            assert_eq!(src.len_hint(), Some(MAX_STORED_REQUESTS as u64 + 1));
        }
        // The lazy source above the bound is still the profile's stream.
        let mut lazy = over.source(WorkloadKind::TpcH);
        let mut want = profile_for(WorkloadKind::TpcH).source(MAX_STORED_REQUESTS + 1, 1);
        for _ in 0..1_000 {
            assert_eq!(lazy.next_request(), want.next_request());
        }
    }

    #[test]
    fn source_at_another_scale_is_lazy_and_its_own() {
        let book = TraceBook::new(800, 5);
        for (requests, seed) in [(801, 5), (800, 6)] {
            let src = book.source_at(WorkloadKind::Websearch, requests, seed);
            assert!(stored(&src).is_none());
            assert_same_stream(
                src,
                profile_for(WorkloadKind::Websearch).source(requests, seed),
                "other scale",
            );
        }
        assert!(
            book.traces.iter().all(|t| t.get().is_none()),
            "nothing generated"
        );
        let own = book.source_at(WorkloadKind::Websearch, 800, 5);
        assert!(stored(&own).is_some());
    }

    #[test]
    fn skip_on_a_replay_matches_the_lazy_skip() {
        let book = TraceBook::new(600, 13);
        let mut replay = book.source(WorkloadKind::Financial);
        let mut lazy = profile_for(WorkloadKind::Financial).source(600, 13);
        assert_eq!(replay.skip(450), lazy.skip(450));
        assert_same_stream(replay, lazy, "after skip");
    }
}
