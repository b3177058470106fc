//! One evaluated point: simulation, objective extraction, and the
//! cache record format.
//!
//! [`run_point`] is a pure function of the descriptor (the same
//! contract as [`experiments::Study::run_point`]); [`PointOutcome`]
//! carries the eight scalar metrics every downstream consumer reads and
//! round-trips through the point cache's flat record: eleven
//! space-separated fields in a fixed order (wrapped here, one line on
//! disk),
//!
//! ```text
//! <schema> <code-version> <descriptor-hash> <cache_hits> <completed>
//!     <cost_usd> <duration_ms> <energy_j> <mean_ms> <p90_ms> <power_w>
//! ```
//!
//! A reader splits the record and parses each field in place. The
//! record carries the descriptor's hash, not its canonical form: a
//! reader already holds the descriptor it asks for, and the hash pins
//! it. The explorer hashes each descriptor once per run and hands that
//! hash to the writer and the reader.
//!
//! Byte-stability: every float in the record is written with Rust's
//! `{}` formatting (shortest round-trip) and re-read with
//! `str::parse::<f64>`, so a warm-cache value is bit-identical to the
//! cold-run value it was stored from.

use std::io::Write as _;
use std::str::FromStr;

use diskmodel::cost::{drive_cost, Component};
use diskmodel::DriveError;
use workload::TraceBook;

use crate::descriptor::PointDescriptor;

/// Schema tag of a point-cache record.
pub const RECORD_SCHEMA: &str = "intradisk-explore-point-v3";

/// Fields in a record: schema, code version, descriptor hash, eight
/// metrics.
const RECORD_FIELDS: usize = 11;

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
    })
}

/// One record field parsed as a `T`, or `None` if it is missing or
/// does not parse.
fn parse<T: FromStr>(field: Option<&[u8]>) -> Option<T> {
    std::str::from_utf8(field?).ok()?.parse().ok()
}

impl PointOutcome {
    /// Serializes to the cache record (see the module docs): fixed
    /// field order, floats in shortest-round-trip form. `hash` is the
    /// descriptor's [`hash`](PointDescriptor::hash), which the caller
    /// already holds.
    pub(crate) fn to_record(&self, hash: &str, code_version: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(320);
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            out,
            "{RECORD_SCHEMA} {code_version} {hash} {} {} {} {} {} {} {} {}",
            self.cache_hits,
            self.completed,
            self.cost_usd,
            self.duration_ms,
            self.energy_j,
            self.mean_ms,
            self.p90_ms,
            self.power_w,
        );
        out
    }

    /// Parses a cache record back for `expect`, whose
    /// [`hash`](PointDescriptor::hash) is `hash`. Returns `None` — which
    /// the cache treats as a miss — unless the record has exactly the
    /// fields [`to_record`](Self::to_record) writes, carries this schema,
    /// `code_version` and `hash`, and every metric parses.
    pub(crate) fn from_record(
        record: &[u8],
        expect: &PointDescriptor,
        hash: &str,
        code_version: &str,
    ) -> Option<PointOutcome> {
        // `power_w`, last, takes the rest of the record unsplit: a
        // space does not parse as a float, so a field too many fails
        // its parse, and a field too few leaves it missing.
        let mut fields = record.splitn(RECORD_FIELDS, |&b| b == b' ');
        let mut field = || fields.next();
        if field()? != RECORD_SCHEMA.as_bytes()
            || field()? != code_version.as_bytes()
            || field()? != hash.as_bytes()
        {
            return None;
        }
        let cache_hits = parse(field())?;
        let completed = parse(field())?;
        let cost_usd = parse(field())?;
        let duration_ms = parse(field())?;
        let energy_j = parse(field())?;
        let mean_ms = parse(field())?;
        let p90_ms = parse(field())?;
        let power_w = parse(field())?;
        Some(PointOutcome {
            descriptor: *expect,
            mean_ms,
            p90_ms,
            power_w,
            duration_ms,
            energy_j,
            cost_usd,
            completed,
            cache_hits,
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
        let body = out.to_record(&d.hash(), "cv-test");
        let back =
            PointOutcome::from_record(&body, &d, &d.hash(), "cv-test").expect("record parses");
        assert_eq!(back, out);
        // Re-encoding is byte-identical: warm runs rewrite nothing new.
        assert_eq!(back.to_record(&d.hash(), "cv-test"), body);
        // Eleven space-separated fields, the last `power_w`.
        let text = String::from_utf8(body).expect("record is ASCII");
        let fields: Vec<&str> = text.split(' ').collect();
        assert_eq!(fields.len(), RECORD_FIELDS, "{text}");
        assert_eq!(fields[..3], [RECORD_SCHEMA, "cv-test", d.hash().as_str()]);
        assert_eq!(fields[10], out.power_w.to_string());
    }

    #[test]
    fn record_rejects_wrong_version_or_descriptor() {
        let d = small_point();
        let out = run_point(&d).expect("replay succeeds");
        let body = out.to_record(&d.hash(), "cv-a");
        assert!(PointOutcome::from_record(&body, &d, &d.hash(), "cv-b").is_none());
        let other = PointDescriptor {
            seed: d.seed + 1,
            ..d
        };
        assert!(PointOutcome::from_record(&body, &other, &other.hash(), "cv-a").is_none());
        assert!(PointOutcome::from_record(b"not a record", &d, &d.hash(), "cv-a").is_none());
        assert!(PointOutcome::from_record(b"", &d, &d.hash(), "cv-a").is_none());
    }

    /// A field that does not parse is a miss: a schema of another
    /// version, a signed or fractional count, a metric that is not a
    /// number, or a space or newline past the last field. (The cache
    /// tests add and drop whole fields.)
    #[test]
    fn record_rejects_unparsable_fields() {
        let d = small_point();
        let out = run_point(&d).expect("replay succeeds");
        let hash = d.hash();
        let text = String::from_utf8(out.to_record(&hash, "cv-a")).expect("record is ASCII");
        let fields: Vec<&str> = text.split(' ').collect();
        let rejects = |what: &str, record: &[u8]| {
            assert!(
                PointOutcome::from_record(record, &d, &hash, "cv-a").is_none(),
                "{what}: {}",
                String::from_utf8_lossy(record)
            );
        };
        rejects("a trailing space", format!("{text} ").as_bytes());
        rejects("a trailing newline", format!("{text}\n").as_bytes());
        for (i, bad) in [
            (0, "intradisk-explore-point-v2"),
            (3, "-1"),
            (4, "1.5"),
            (5, "x"),
            (9, ""),
            (10, "1e"),
        ] {
            let mut edited = fields.clone();
            edited[i] = bad;
            rejects(&format!("field {i} = {bad:?}"), edited.join(" ").as_bytes());
        }
    }

    /// Every metric comes back bit for bit, at the values shortest
    /// round-trip formatting could plausibly lose: signed zero,
    /// subnormals, the extremes and integers past 2⁵³.
    #[test]
    fn record_metrics_round_trip_bit_for_bit() {
        let d = small_point();
        let base = run_point(&d).expect("replay succeeds");
        let hash = d.hash();
        let hard = [
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE.next_down(),
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::EPSILON,
            0.1 + 0.2,
            9_007_199_254_740_993.0,
            1e-300,
            123_456.789e200,
        ];
        for (k, &v) in hard.iter().enumerate() {
            // Each metric takes each value in turn, beside the others.
            let w = hard[(k + 1) % hard.len()];
            let out = PointOutcome {
                mean_ms: v,
                p90_ms: w,
                power_w: -v,
                duration_ms: v,
                energy_j: w,
                cost_usd: v,
                completed: u64::MAX,
                cache_hits: 0,
                ..base.clone()
            };
            let back = PointOutcome::from_record(&out.to_record(&hash, "cv"), &d, &hash, "cv")
                .expect("record parses");
            let bits = |p: &PointOutcome| {
                [
                    p.mean_ms,
                    p.p90_ms,
                    p.power_w,
                    p.duration_ms,
                    p.energy_j,
                    p.cost_usd,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(&back), bits(&out), "at {v:e}");
            assert_eq!((back.completed, back.cache_hits), (u64::MAX, 0), "at {v:e}");
        }
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
