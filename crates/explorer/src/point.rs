//! One evaluated point: simulation, objective extraction, and the
//! cache record format.
//!
//! [`run_point`] is a pure function of the descriptor (the same
//! contract as [`experiments::Study::run_point`]); [`PointOutcome`]
//! carries everything downstream consumers need — the objective triple
//! plus the serialized streaming stats — and round-trips through a
//! `jsonv`-compatible JSON record ([`PointOutcome::to_record`] /
//! [`PointOutcome::from_record`]).
//!
//! Byte-stability: every float in the record is written with Rust's
//! `{}` formatting (shortest round-trip) and re-read with
//! `str::parse::<f64>`, so a warm-cache value is bit-identical to the
//! cold-run value it was stored from.

use diskmodel::cost::{drive_cost, Component};
use diskmodel::DriveError;
use simkit::ResponseStats;
use telemetry::metrics::jsonv::{self, Value};
use workload::TraceBook;

use crate::descriptor::PointDescriptor;

/// Schema tag of a point-cache record.
pub const RECORD_SCHEMA: &str = "intradisk-explore-point-v1";

/// Everything one evaluated point contributes to the exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// The descriptor that produced this outcome.
    pub descriptor: PointDescriptor,
    /// Mean response time (ms).
    pub mean_ms: f64,
    /// 90th-percentile response time (ms), from the streaming view.
    pub p90_ms: f64,
    /// Average power over the replay (W).
    pub power_w: f64,
    /// Sim-time span of the replay (ms).
    pub duration_ms: f64,
    /// Energy over the replay (J): power × span.
    pub energy_j: f64,
    /// Drive material cost (USD, Table 9a midpoint, extended for
    /// multi-head designs).
    pub cost_usd: f64,
    /// Requests completed.
    pub completed: u64,
    /// On-drive cache hits.
    pub cache_hits: u64,
    /// The serialized response-time accumulator (streaming state).
    pub stats: ResponseStats,
}

/// Material cost of a descriptor's drive (USD, midpoint of the Table 9a
/// range): `drive_cost(platters, actuators)`, plus per-extra-head
/// head + suspension cost for `Hm` (multi-head) designs, which Table 9a
/// prices per-unit but does not enumerate.
pub fn cost_usd(d: &PointDescriptor) -> f64 {
    let platters = d.disk_params().platters();
    let actuators = d.dash.arm_assemblies();
    let heads = d.dash.heads();
    let mut cost = drive_cost(platters, actuators);
    if heads > 1 {
        let extra = heads - 1;
        cost = cost
            + Component::Head
                .unit_cost()
                .times(2 * platters * actuators * extra)
            + Component::HeadSuspension
                .unit_cost()
                .times(platters * actuators * extra);
    }
    cost.midpoint()
}

/// Runs one point: generates the workload from the seed and replays it
/// against the descriptor's drive. Pure in `(descriptor)`.
pub fn run_point(d: &PointDescriptor) -> Result<PointOutcome, DriveError> {
    run_point_with(d, &TraceBook::new(d.requests, d.seed))
}

/// [`run_point`], replaying the workload from a sweep's `book`. A
/// descriptor whose `(requests, seed)` is not the book's streams its own
/// lazy source, so the outcome is the same for every book.
pub fn run_point_with(d: &PointDescriptor, book: &TraceBook) -> Result<PointOutcome, DriveError> {
    let params = d.disk_params();
    let source = book.source_at(d.workload, d.requests, d.seed);
    let r = experiments::run_drive(&params, d.drive_config(), source)?;
    let stats = &r.metrics.response_time_ms;
    let power_w = r.power.total_w();
    let duration_ms = r.duration.as_millis();
    Ok(PointOutcome {
        descriptor: *d,
        mean_ms: stats.mean(),
        p90_ms: stats.percentile_stream(90.0),
        power_w,
        duration_ms,
        energy_j: power_w * r.duration.as_secs(),
        cost_usd: cost_usd(d),
        completed: r.metrics.completed,
        cache_hits: r.metrics.cache_hits,
        stats: stats.clone(),
    })
}

/// The lowercase digits the record's `stats_hex` field is written in.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX_DIGITS[usize::from(b >> 4)] as char);
        out.push(HEX_DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

/// Value of one digit [`hex_encode`] writes; anything else (uppercase,
/// signs, non-hex) is `None`.
fn hex_digit(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    }
}

/// Inverse of [`hex_encode`]: accepts exactly its output.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    digits
        .chunks_exact(2)
        .map(|pair| Some(hex_digit(pair[0])? << 4 | hex_digit(pair[1])?))
        .collect()
}

impl PointOutcome {
    /// The point's descriptor hash (content address).
    pub fn hash(&self) -> String {
        self.descriptor.hash()
    }

    /// Serializes to the cache record: single-line JSON, fixed key
    /// order, floats in shortest-round-trip form.
    pub fn to_record(&self, code_version: &str) -> String {
        format!(
            "{{\"schema\":\"{}\",\"code_version\":\"{}\",\"descriptor\":{},\
             \"descriptor_hash\":\"{}\",\"metrics\":{{\"cache_hits\":{},\"completed\":{},\
             \"cost_usd\":{},\"duration_ms\":{},\"energy_j\":{},\"mean_ms\":{},\"p90_ms\":{},\
             \"power_w\":{}}},\"stats_hex\":\"{}\"}}",
            RECORD_SCHEMA,
            code_version,
            self.descriptor.canonical(),
            self.hash(),
            self.cache_hits,
            self.completed,
            self.cost_usd,
            self.duration_ms,
            self.energy_j,
            self.mean_ms,
            self.p90_ms,
            self.power_w,
            hex_encode(&self.stats.to_bytes()),
        )
    }

    /// Parses a cache record back. Returns `None` if the record does
    /// not parse, carries the wrong schema/code-version, or its
    /// embedded hash disagrees with `expect` — all of which the cache
    /// treats as a miss.
    pub fn from_record(
        body: &str,
        expect: &PointDescriptor,
        code_version: &str,
    ) -> Option<PointOutcome> {
        let doc = jsonv::parse(body).ok()?;
        if doc.get("schema").and_then(Value::as_str) != Some(RECORD_SCHEMA) {
            return None;
        }
        if doc.get("code_version").and_then(Value::as_str) != Some(code_version) {
            return None;
        }
        if doc.get("descriptor_hash").and_then(Value::as_str) != Some(expect.hash().as_str()) {
            return None;
        }
        let m = doc.get("metrics")?;
        let f = |k: &str| m.get(k).and_then(Value::as_f64);
        let u = |k: &str| m.get(k).and_then(Value::as_u64);
        let stats_hex = doc.get("stats_hex").and_then(Value::as_str)?;
        let stats = ResponseStats::from_bytes(&hex_decode(stats_hex)?).ok()?;
        Some(PointOutcome {
            descriptor: *expect,
            mean_ms: f("mean_ms")?,
            p90_ms: f("p90_ms")?,
            power_w: f("power_w")?,
            duration_ms: f("duration_ms")?,
            energy_j: f("energy_j")?,
            cost_usd: f("cost_usd")?,
            completed: u("completed")?,
            cache_hits: u("cache_hits")?,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{grid, GridResolution, SweepScale};

    fn small_point() -> PointDescriptor {
        let scale = SweepScale {
            requests: 300,
            ..SweepScale::default()
        };
        grid(GridResolution::Coarse, scale)[1]
    }

    #[test]
    fn record_round_trip_is_exact() {
        let d = small_point();
        let out = run_point(&d).expect("replay succeeds");
        let body = out.to_record("cv-test");
        let back = PointOutcome::from_record(&body, &d, "cv-test").expect("record parses");
        assert_eq!(back, out);
        // Re-encoding is byte-identical: warm runs rewrite nothing new.
        assert_eq!(back.to_record("cv-test"), body);
    }

    #[test]
    fn record_rejects_wrong_version_or_descriptor() {
        let d = small_point();
        let out = run_point(&d).expect("replay succeeds");
        let body = out.to_record("cv-a");
        assert!(PointOutcome::from_record(&body, &d, "cv-b").is_none());
        let other = PointDescriptor {
            seed: d.seed + 1,
            ..d
        };
        assert!(PointOutcome::from_record(&body, &other, "cv-a").is_none());
        assert!(PointOutcome::from_record("{not json", &d, "cv-a").is_none());
    }

    #[test]
    fn hex_codec_round_trips_every_byte() {
        let all: Vec<u8> = (0..=255u8).collect();
        let hex = hex_encode(&all);
        assert_eq!(hex.len(), 512);
        for b in 0..=255u8 {
            let pair = hex_encode(&[b]);
            assert_eq!(pair, format!("{b:02x}"), "encoding of {b}");
            assert_eq!(hex_decode(&pair), Some(vec![b]), "decoding of {pair}");
        }
        assert_eq!(hex_decode(&hex), Some(all));
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }

    #[test]
    fn hex_decode_accepts_only_what_the_encoder_writes() {
        for bad in [
            "+f", "0+", "-1", "FF", "aB", "0A", "g0", " 0", "0x", "abc", "a",
        ] {
            assert_eq!(hex_decode(bad), None, "{bad:?} must not decode");
        }
        assert_eq!(hex_decode("é"), None, "non-ASCII pair");
    }

    #[test]
    fn cost_grows_with_actuators_and_heads() {
        let d = small_point();
        let sa1 = PointDescriptor {
            dash: intradisk::DashConfig::sa(1),
            ..d
        };
        let sa4 = PointDescriptor {
            dash: intradisk::DashConfig::sa(4),
            ..d
        };
        let mh2 = PointDescriptor {
            dash: intradisk::DashConfig::new(1, 1, 1, 2),
            ..d
        };
        assert!(cost_usd(&sa4) > cost_usd(&sa1));
        assert!(cost_usd(&mh2) > cost_usd(&sa1));
        assert!(
            cost_usd(&sa4) > cost_usd(&mh2),
            "extra actuators cost more than extra heads"
        );
    }

    #[test]
    fn run_point_is_deterministic() {
        let d = small_point();
        let a = run_point(&d).expect("replay succeeds");
        let b = run_point(&d).expect("replay succeeds");
        assert_eq!(a, b);
    }

    #[test]
    fn run_point_with_a_shared_book_matches_run_point() {
        let scale = SweepScale {
            requests: 300,
            ..SweepScale::default()
        };
        let book = TraceBook::new(scale.requests, scale.seed);
        let points = grid(GridResolution::Coarse, scale);
        for kind in workload::WorkloadKind::ALL {
            let d = points
                .iter()
                .find(|d| d.workload == kind)
                .expect("every workload in the grid");
            let alone = run_point(d).expect("replay succeeds");
            // Twice: the first call generates the book's trace, the
            // second replays it.
            for _ in 0..2 {
                let shared = run_point_with(d, &book).expect("replay succeeds");
                assert_eq!(shared, alone, "{}", kind.name());
            }
        }
        // A descriptor off the book's scale streams its own workload;
        // `run_point` replays it from a book of its own.
        for d in [
            PointDescriptor {
                requests: 301,
                ..points[1]
            },
            PointDescriptor {
                seed: scale.seed + 1,
                ..points[1]
            },
        ] {
            let shared = run_point_with(&d, &book).expect("replay succeeds");
            assert_eq!(shared, run_point(&d).expect("replay succeeds"));
            assert_eq!(shared.completed, d.requests as u64);
        }
    }
}
