//! SPC-format trace parsing.
//!
//! The UMass Trace Repository distributes the *Financial* and
//! *Websearch* traces the paper used in the SPC (Storage Performance
//! Council) text format: one request per line,
//!
//! ```text
//! ASU,LBA,Size,Opcode,Timestamp[,...]
//! ```
//!
//! where `ASU` is the application storage unit (≈ original disk/LUN),
//! `LBA` is in 512-byte sectors relative to that ASU, `Size` is in
//! bytes, `Opcode` is `r`/`R` or `w`/`W`, and `Timestamp` is in seconds
//! from the start of the trace.
//!
//! This module parses that format into a [`Trace`], concatenating the
//! ASUs into one logical address space exactly the way the paper's
//! limit study lays MD data out on HC-SD ("sequentially populated with
//! data from each of the drives"). If you have the real traces, replay
//! them with `experiments::runner::run_drive`; the synthetic profiles
//! in [`crate::profiles`] exist only because the originals are not
//! redistributable.
//!
//! Every line is checked at this boundary: a field that does not
//! parse, an address or size past what the simulator can address, a
//! timestamp that is not finite or lies past the simulation clock, and
//! an ASU set whose concatenation overflows the sector space are each a
//! [`ParseSpcError`] naming the line and its [`SpcErrorKind`], so a
//! replay never starts on input it cannot represent.
//!
//! Two ingestion paths share the same parser:
//!
//! * [`read_trace`] materializes a [`Trace`] (small traces, tests).
//! * [`SpcSource`] streams requests one line at a time through the
//!   [`RequestSource`] pull interface — memory stays O(#ASUs)
//!   regardless of trace length. [`SpcSource::from_path`] does the
//!   required two passes over the file: a scan pass building the
//!   [`AsuLayout`] (per-ASU sizes and bases need the whole file), then
//!   the streaming pass.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use intradisk::{IoKind, IoRequest};
use simkit::SimTime;

use crate::source::RequestSource;
use crate::trace::Trace;

/// One parsed SPC record, before address-space concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpcRecord {
    /// Application storage unit (original device number).
    pub asu: u32,
    /// Sector address within the ASU.
    pub lba: u64,
    /// Request size in bytes.
    pub bytes: u64,
    /// Read or write.
    pub kind: IoKind,
    /// Arrival time.
    pub arrival: SimTime,
}

/// Timestamps must lie in the first half of the simulation clock
/// (2^63 ns, about 292 years), which leaves the replay the second half
/// to finish in.
const MAX_TIMESTAMP_S: f64 = (1u64 << 63) as f64 / 1e9;

/// What is wrong with an SPC line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpcErrorKind {
    /// A field is missing or does not parse, or the size is zero.
    Malformed,
    /// The request's last sector, `LBA + ⌈Size / 512⌉`, is past `u64`.
    LbaOverflow,
    /// The request spans more than `u32::MAX` sectors.
    SizeOverflow,
    /// The timestamp is NaN or infinite.
    NonFiniteTimestamp,
    /// The timestamp is negative.
    NegativeTimestamp,
    /// The timestamp lies past the simulation clock's range.
    TimestampOverflow,
    /// The ASUs, laid back to back, overflow the `u64` sector space.
    AddressSpaceOverflow,
    /// The file could not be opened or read.
    Io,
}

/// Error parsing an SPC trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpcError {
    line: usize,
    kind: SpcErrorKind,
    message: String,
}

impl ParseSpcError {
    fn new(line: usize, kind: SpcErrorKind, message: impl Into<String>) -> Self {
        ParseSpcError {
            line,
            kind,
            message: message.into(),
        }
    }

    fn malformed(line: usize, message: impl Into<String>) -> Self {
        Self::new(line, SpcErrorKind::Malformed, message)
    }

    fn io(line: usize, e: std::io::Error) -> Self {
        Self::new(line, SpcErrorKind::Io, format!("I/O error: {e}"))
    }

    /// 1-based line number the error occurred on (0 for a file that
    /// could not be opened).
    pub fn line(&self) -> usize {
        self.line
    }

    /// What is wrong with the line.
    pub fn kind(&self) -> SpcErrorKind {
        self.kind
    }
}

impl fmt::Display for ParseSpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SPC trace line {}: {}", self.line, self.message)
    }
}

impl Error for ParseSpcError {}

/// Parses one SPC line (ignores any extra trailing fields).
pub fn parse_line(line: &str, lineno: usize) -> Result<SpcRecord, ParseSpcError> {
    let mut fields = line.split(',').map(str::trim);
    let mut next = |what: &str| {
        fields
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| ParseSpcError::malformed(lineno, format!("missing {what} field")))
    };
    let asu = next("ASU")?
        .parse::<u32>()
        .map_err(|e| ParseSpcError::malformed(lineno, format!("bad ASU: {e}")))?;
    let lba = next("LBA")?
        .parse::<u64>()
        .map_err(|e| ParseSpcError::malformed(lineno, format!("bad LBA: {e}")))?;
    let bytes = next("Size")?
        .parse::<u64>()
        .map_err(|e| ParseSpcError::malformed(lineno, format!("bad size: {e}")))?;
    if bytes == 0 {
        return Err(ParseSpcError::malformed(lineno, "zero-byte request"));
    }
    let sectors = bytes.div_ceil(512);
    if sectors > u64::from(u32::MAX) {
        return Err(ParseSpcError::new(
            lineno,
            SpcErrorKind::SizeOverflow,
            format!("{bytes}-byte request spans more than {} sectors", u32::MAX),
        ));
    }
    if lba.checked_add(sectors).is_none() {
        return Err(ParseSpcError::new(
            lineno,
            SpcErrorKind::LbaOverflow,
            format!(
                "request of {sectors} sectors at LBA {lba} ends past the last addressable sector"
            ),
        ));
    }
    let kind = match next("Opcode")? {
        "r" | "R" => IoKind::Read,
        "w" | "W" => IoKind::Write,
        other => {
            return Err(ParseSpcError::malformed(
                lineno,
                format!("bad opcode {other:?}"),
            ));
        }
    };
    let secs = next("Timestamp")?
        .parse::<f64>()
        .map_err(|e| ParseSpcError::malformed(lineno, format!("bad timestamp: {e}")))?;
    if !secs.is_finite() {
        return Err(ParseSpcError::new(
            lineno,
            SpcErrorKind::NonFiniteTimestamp,
            format!("timestamp {secs} is not finite"),
        ));
    }
    if secs < 0.0 {
        return Err(ParseSpcError::new(
            lineno,
            SpcErrorKind::NegativeTimestamp,
            "negative timestamp",
        ));
    }
    if secs > MAX_TIMESTAMP_S {
        return Err(ParseSpcError::new(
            lineno,
            SpcErrorKind::TimestampOverflow,
            format!("timestamp {secs} s is past the simulation clock's {MAX_TIMESTAMP_S:.0} s"),
        ));
    }
    Ok(SpcRecord {
        asu,
        lba,
        bytes,
        kind,
        arrival: SimTime::from_millis(secs * 1_000.0),
    })
}

/// Reads an entire SPC trace, concatenating the ASUs into one logical
/// address space (ASU 0's blocks first, then ASU 1's, ...). Each ASU is
/// sized to its largest referenced address, rounded up to `asu_align`
/// sectors (use the original per-disk capacity when known, or 1 to pack
/// tightly).
///
/// Blank lines and lines starting with `#` are skipped. Requests are
/// truncated to `max_requests` if given.
///
/// # Errors
/// Returns the first malformed line, or an I/O error wrapped into a
/// parse error at line 0.
pub fn read_trace(
    reader: impl BufRead,
    name: &str,
    asu_align: u64,
    max_requests: Option<usize>,
) -> Result<Trace, ParseSpcError> {
    let mut extents = Extents::new(asu_align);
    let mut records = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| ParseSpcError::io(lineno, e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let record = parse_line(trimmed, lineno)?;
        extents.observe(&record, lineno)?;
        records.push((record, lineno));
        if let Some(max) = max_requests {
            if records.len() >= max {
                break;
            }
        }
    }
    let layout = extents.into_layout();
    let requests = records
        .iter()
        .enumerate()
        .map(|(i, (r, lineno))| layout.place(i as u64, r, *lineno))
        .collect::<Result<_, _>>()?;
    Ok(Trace::new(name, requests, layout.footprint_sectors()))
}

/// Per-ASU extents (the end of each ASU's furthest request) and the
/// aligned total they concatenate to, checked line by line so an
/// overflowing layout names the line that overflowed it.
struct Extents {
    // simlint: allow(unbounded-sim-state) — one entry per ASU, the
    // O(#ASUs) state the layout needs; lives for one scan.
    sizes: BTreeMap<u32, u64>,
    align: u64,
    /// Σ over ASUs of the extent rounded up to `align`.
    total: u64,
}

impl Extents {
    fn new(align: u64) -> Self {
        assert!(align > 0, "alignment must be positive");
        Extents {
            sizes: BTreeMap::new(),
            align,
            total: 0,
        }
    }

    /// Grows `r`'s ASU to cover it. `r` came from [`parse_line`], so
    /// its end sector fits in a `u64`.
    fn observe(&mut self, r: &SpcRecord, lineno: usize) -> Result<(), ParseSpcError> {
        let end = r.lba + r.bytes.div_ceil(512);
        let size = self.sizes.entry(r.asu).or_insert(0);
        if end <= *size {
            return Ok(());
        }
        let align = self.align;
        let aligned = |s: u64| s.div_ceil(align).checked_mul(align);
        // The old extent's aligned size is already part of the total.
        let old = aligned(*size).unwrap_or(0);
        let total = aligned(end).and_then(|new| (self.total - old).checked_add(new));
        let Some(total) = total else {
            return Err(ParseSpcError::new(
                lineno,
                SpcErrorKind::AddressSpaceOverflow,
                format!(
                    "ASU {} extended to {end} sectors overflows the concatenated address space",
                    r.asu
                ),
            ));
        };
        *size = end;
        self.total = total;
        Ok(())
    }

    /// Lays the ASUs out back to back in ASU order.
    fn into_layout(self) -> AsuLayout {
        let mut bases = BTreeMap::new();
        let mut base = 0u64;
        for (asu, size) in self.sizes {
            bases.insert(asu, base);
            // No overflow: the running sum never exceeds `self.total`.
            base += size.div_ceil(self.align) * self.align;
        }
        AsuLayout {
            bases,
            footprint: base.max(1),
        }
    }
}

/// The concatenated address-space layout of a trace's ASUs: each ASU is
/// sized to its largest referenced address, rounded up to `asu_align`
/// sectors, and the ASUs are laid out back to back in ASU order.
///
/// Building the layout needs a full pass over the trace (an ASU's size
/// is only known at the end), but the layout itself is O(#ASUs) — this
/// is what lets [`SpcSource`] stream arbitrarily long traces in bounded
/// memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsuLayout {
    bases: BTreeMap<u32, u64>,
    footprint: u64,
}

impl AsuLayout {
    /// Builds the layout by scanning an SPC reader line by line
    /// (bounded memory: only per-ASU maxima are kept). Honors the same
    /// comment/blank-line and `max_requests` rules as [`read_trace`],
    /// so the layout matches what `read_trace` would compute.
    ///
    /// # Errors
    /// Returns the first malformed line (including the line whose ASU
    /// extent overflows the concatenated address space), or an I/O
    /// error at its line.
    pub fn scan(
        reader: impl BufRead,
        asu_align: u64,
        max_requests: Option<usize>,
    ) -> Result<Self, ParseSpcError> {
        let mut extents = Extents::new(asu_align);
        let mut seen = 0usize;
        for (i, line) in reader.lines().enumerate() {
            let lineno = i + 1;
            let line = line.map_err(|e| ParseSpcError::io(lineno, e))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            extents.observe(&parse_line(trimmed, lineno)?, lineno)?;
            seen += 1;
            if max_requests.is_some_and(|max| seen >= max) {
                break;
            }
        }
        Ok(extents.into_layout())
    }

    /// Concatenated base address of an ASU, if it appeared in the scan.
    pub fn base(&self, asu: u32) -> Option<u64> {
        self.bases.get(&asu).copied()
    }

    /// Total concatenated address space, sectors (at least 1).
    pub fn footprint_sectors(&self) -> u64 {
        self.footprint
    }

    /// Maps a record from line `lineno` into the concatenated space.
    /// ASUs absent from the layout land at base 0; a layout built from
    /// the same lines holds every ASU and every address, so only a
    /// layout scanned from other lines can fail here.
    fn place(&self, id: u64, r: &SpcRecord, lineno: usize) -> Result<IoRequest, ParseSpcError> {
        // `parse_line` bounds the sector count by `u32::MAX`.
        let sectors = r.bytes.div_ceil(512) as u32;
        let base = self.base(r.asu).unwrap_or(0);
        let lba = base.checked_add(r.lba).ok_or_else(|| {
            ParseSpcError::new(
                lineno,
                SpcErrorKind::AddressSpaceOverflow,
                format!(
                    "LBA {} of ASU {} lies past the layout's address space",
                    r.lba, r.asu
                ),
            )
        })?;
        Ok(IoRequest::new(id, r.arrival, lba, sectors, r.kind))
    }
}

/// A line-streaming [`RequestSource`] over an SPC reader: memory stays
/// O(#ASUs) regardless of trace length, so multi-hundred-million-request
/// traces replay without materializing.
///
/// Requires an [`AsuLayout`] built up front (see [`AsuLayout::scan`] or
/// [`SpcSource::from_path`], which does both passes).
///
/// # Ordering
///
/// [`read_trace`] sorts after the fact, so it tolerates out-of-order
/// timestamps; a stream cannot. Real SPC traces are time-ordered, and
/// this source *clamps* any stray backwards timestamp up to the previous
/// arrival to preserve the [`RequestSource`] nondecreasing contract. On
/// a time-ordered trace the stream is record-for-record identical to
/// `read_trace`.
///
/// # Errors
///
/// `next_request` has no error channel; a malformed line or I/O error
/// ends the stream and is held for inspection via
/// [`error`](SpcSource::error). Callers that validated the file during
/// the layout scan will only ever see I/O errors here.
#[derive(Debug)]
pub struct SpcSource<R: BufRead> {
    reader: R,
    layout: AsuLayout,
    name: String,
    remaining: Option<u64>,
    next_id: u64,
    lineno: usize,
    last_arrival: SimTime,
    error: Option<ParseSpcError>,
}

impl<R: BufRead> SpcSource<R> {
    /// Creates a streaming source over `reader` with a prebuilt layout.
    /// At most `max_requests` requests are yielded if given.
    pub fn new(
        reader: R,
        layout: AsuLayout,
        name: impl Into<String>,
        max_requests: Option<usize>,
    ) -> Self {
        SpcSource {
            reader,
            layout,
            name: name.into(),
            remaining: max_requests.map(|m| m as u64),
            next_id: 0,
            lineno: 0,
            last_arrival: SimTime::ZERO,
            error: None,
        }
    }

    /// The parse or I/O error that ended the stream, if any.
    pub fn error(&self) -> Option<&ParseSpcError> {
        self.error.as_ref()
    }

    /// The layout the source maps ASUs through.
    pub fn layout(&self) -> &AsuLayout {
        &self.layout
    }
}

impl SpcSource<BufReader<File>> {
    /// Opens an SPC trace file for streaming replay: pass one scans the
    /// file to build the [`AsuLayout`] (validating every line), pass two
    /// streams requests from a fresh reader. Peak memory is O(#ASUs).
    ///
    /// # Errors
    /// Returns the first malformed line or the I/O error that
    /// interrupted either pass.
    pub fn from_path(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        asu_align: u64,
        max_requests: Option<usize>,
    ) -> Result<Self, ParseSpcError> {
        let path = path.as_ref();
        let open = |p: &Path| {
            File::open(p).map(BufReader::new).map_err(|e| {
                ParseSpcError::new(0, SpcErrorKind::Io, format!("open {}: {e}", p.display()))
            })
        };
        let layout = AsuLayout::scan(open(path)?, asu_align, max_requests)?;
        Ok(SpcSource::new(open(path)?, layout, name, max_requests))
    }
}

impl<R: BufRead> RequestSource for SpcSource<R> {
    fn next_request(&mut self) -> Option<IoRequest> {
        if self.error.is_some() || self.remaining == Some(0) {
            return None;
        }
        let mut line = String::new();
        loop {
            self.lineno += 1;
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.error = Some(ParseSpcError::io(self.lineno, e));
                    return None;
                }
            }
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let placed = parse_line(trimmed, self.lineno)
                .and_then(|record| self.layout.place(self.next_id, &record, self.lineno));
            let mut req = match placed {
                Ok(req) => req,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            };
            // Clamp stray backwards timestamps (see type docs).
            req.arrival = req.arrival.max(self.last_arrival);
            self.last_arrival = req.arrival;
            self.next_id += 1;
            if let Some(rem) = &mut self.remaining {
                *rem -= 1;
            }
            return Some(req);
        }
    }

    fn footprint_sectors(&self) -> u64 {
        self.layout.footprint
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "\
0,1000,4096,r,0.000000
1,2000,8192,W,0.015000
# a comment

0,1004,512,R,0.031000
";

    #[test]
    fn parses_well_formed_lines() {
        let r = parse_line("2,12345,4096,w,1.5", 1).unwrap();
        assert_eq!(r.asu, 2);
        assert_eq!(r.lba, 12_345);
        assert_eq!(r.bytes, 4_096);
        assert_eq!(r.kind, IoKind::Write);
        assert_eq!(r.arrival, SimTime::from_millis(1_500.0));
    }

    #[test]
    fn tolerates_extra_fields_and_whitespace() {
        let r = parse_line(" 0 , 5 , 1024 , R , 0.25 , extra , fields ", 1).unwrap();
        assert_eq!(r.lba, 5);
        assert_eq!(r.kind, IoKind::Read);
    }

    #[test]
    fn accepts_the_largest_representable_request() {
        // u32::MAX sectors ending on the last u64 sector, in the last
        // accepted second.
        let r = parse_line("0,18446744069414584320,2199023255040,r,9200000000", 1).unwrap();
        assert_eq!(r.lba.checked_add(r.bytes / 512), Some(u64::MAX));
        assert_eq!(r.bytes / 512, u64::from(u32::MAX));
    }

    #[test]
    fn rejects_malformed_lines() {
        use SpcErrorKind::*;
        for (bad, kind) in [
            ("", Malformed),
            ("0,5,1024,R", Malformed),     // missing timestamp
            ("x,5,1024,R,0.1", Malformed), // bad ASU
            ("0,5,0,R,0.1", Malformed),    // zero bytes
            ("0,5,1024,q,0.1", Malformed), // bad opcode
            ("0,5,1024,R,-1.0", NegativeTimestamp),
            ("0,18446744073709551615,4096,r,0.0", LbaOverflow),
            ("0,0,9999999999999,r,0.0", SizeOverflow),
            ("0,0,2199023255041,r,0.0", SizeOverflow), // u32::MAX sectors + 1 byte
            ("0,0,4096,r,1e300", TimestampOverflow),
            ("0,0,4096,r,inf", NonFiniteTimestamp),
            ("0,0,4096,r,NaN", NonFiniteTimestamp),
        ] {
            let err = parse_line(bad, 7).unwrap_err();
            assert_eq!((err.line(), err.kind()), (7, kind), "{bad}: {err}");
        }
    }

    #[test]
    fn reads_trace_skipping_comments() {
        let trace = read_trace(Cursor::new(SAMPLE), "sample", 1, None).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.name(), "sample");
        // Sorted by arrival.
        assert!(trace
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn concatenation_keeps_asus_disjoint() {
        let trace = read_trace(Cursor::new(SAMPLE), "s", 1, None).unwrap();
        // ASU 0 spans [0, 1005); ASU 1 must start at or after 1005.
        let reqs = trace.requests();
        let asu1 = reqs
            .iter()
            .find(|r| r.sectors == 16)
            .expect("the 8 KiB write");
        assert!(
            asu1.lba >= 1005 + 2000,
            "ASU 1 base not offset: {}",
            asu1.lba
        );
        assert!(trace.footprint_sectors() >= asu1.end_lba());
    }

    #[test]
    fn alignment_rounds_asu_bases() {
        let trace = read_trace(Cursor::new(SAMPLE), "s", 4096, None).unwrap();
        let asu1 = trace
            .requests()
            .iter()
            .find(|r| r.sectors == 16)
            .expect("the 8 KiB write");
        // Base of ASU 1 is 1005 rounded up to 4096.
        assert_eq!(asu1.lba, 4096 + 2000);
    }

    #[test]
    fn max_requests_truncates() {
        let trace = read_trace(Cursor::new(SAMPLE), "s", 1, Some(2)).unwrap();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn error_carries_line_number() {
        let bad = "0,1,512,r,0.0\n0,1,512,BAD,0.1\n";
        let err = read_trace(Cursor::new(bad), "s", 1, None).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn sub_sector_sizes_round_up() {
        let t = read_trace(Cursor::new("0,9,100,r,0.0"), "s", 1, None).unwrap();
        assert_eq!(t.requests()[0].sectors, 1);
    }

    #[test]
    fn streaming_source_matches_read_trace() {
        // The golden: on a time-ordered trace, the streaming path yields
        // record-for-record what the materializing path produces.
        for align in [1u64, 4096] {
            let trace = read_trace(Cursor::new(SAMPLE), "s", align, None).unwrap();
            let layout = AsuLayout::scan(Cursor::new(SAMPLE), align, None).unwrap();
            let mut src = SpcSource::new(Cursor::new(SAMPLE), layout, "s", None);
            assert_eq!(src.footprint_sectors(), trace.footprint_sectors());
            assert_eq!(src.name(), "s");
            for want in trace.requests() {
                assert_eq!(src.next_request().as_ref(), Some(want), "align {align}");
            }
            assert!(src.next_request().is_none());
            assert!(src.error().is_none());
        }
    }

    #[test]
    fn streaming_source_honors_max_requests() {
        let layout = AsuLayout::scan(Cursor::new(SAMPLE), 1, Some(2)).unwrap();
        let mut src = SpcSource::new(Cursor::new(SAMPLE), layout, "s", Some(2));
        assert!(src.next_request().is_some());
        assert!(src.next_request().is_some());
        assert!(src.next_request().is_none());
    }

    #[test]
    fn streaming_source_clamps_backwards_timestamps() {
        let unordered = "0,0,512,r,1.0\n0,8,512,r,0.5\n";
        let layout = AsuLayout::scan(Cursor::new(unordered), 1, None).unwrap();
        let mut src = SpcSource::new(Cursor::new(unordered), layout, "s", None);
        let a = src.next_request().unwrap();
        let b = src.next_request().unwrap();
        assert_eq!(b.arrival, a.arrival, "clamped up to the previous arrival");
    }

    #[test]
    fn streaming_source_surfaces_parse_errors() {
        let bad = "0,1,512,r,0.0\n0,1,512,BAD,0.1\n";
        let layout = AsuLayout::scan(Cursor::new("0,1,512,r,0.0\n"), 1, None).unwrap();
        let mut src = SpcSource::new(Cursor::new(bad), layout, "s", None);
        assert!(src.next_request().is_some());
        assert!(src.next_request().is_none());
        assert_eq!(src.error().map(ParseSpcError::line), Some(2));
        // The stream stays ended.
        assert!(src.next_request().is_none());
    }

    #[test]
    fn from_path_streams_a_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("spc_source_test_fixture.trace");
        std::fs::write(&path, SAMPLE).unwrap();
        let trace = read_trace(Cursor::new(SAMPLE), "f", 1, None).unwrap();
        let mut src = SpcSource::from_path(&path, "f", 1, None).unwrap();
        for want in trace.requests() {
            assert_eq!(src.next_request().as_ref(), Some(want));
        }
        assert!(src.next_request().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn layout_bases_and_footprint() {
        let layout = AsuLayout::scan(Cursor::new(SAMPLE), 1, None).unwrap();
        assert_eq!(layout.base(0), Some(0));
        // ASU 0's furthest reference ends at 1000 + 8 = 1008; ASU 1
        // starts right after.
        assert_eq!(layout.base(1), Some(1008));
        assert_eq!(layout.base(7), None);
        assert_eq!(layout.footprint_sectors(), 1008 + 2016);
    }
}
