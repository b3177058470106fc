//! Metrics exporters: Prometheus text exposition and stable JSON.
//!
//! Both formats are produced by deterministic string assembly from a
//! sorted [`MetricsSnapshot`]: floats are rendered with Rust's
//! shortest-roundtrip `{}` formatting, iteration order is the
//! snapshot's sorted order, and no timestamps other than virtual time
//! appear — so two runs of the same study yield byte-identical
//! exports, regardless of host or `--jobs`.
//!
//! Prometheus mapping:
//!
//! * counters → `counter` families;
//! * gauges → a `gauge` family for the final value plus
//!   `<name>_mean` (time-weighted) and `<name>_max` companions (the
//!   exposition format has no series history; the JSON export carries
//!   the full cadence series);
//! * histograms with a fixed-edge view → `histogram` families with
//!   cumulative `le` buckets (exactly the paper's bucket edges);
//! * streaming-only histograms → `summary` families with
//!   `quantile="0.5|0.9|0.99"` estimates from the log-bucketed
//!   histogram (each within its documented relative-error bound).

use std::fmt::Write as _;

use super::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};

/// JSON schema tag stamped into every export (bump on shape changes).
pub const JSON_SCHEMA: &str = "intradisk-metrics-v1";

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn prom_header(out: &mut String, name: &str, help: &str, kind: &str, last: &mut String) {
    if last != name {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        *last = name.to_string();
    }
}

fn prom_gauge_family(out: &mut String, gauges: &[GaugeSnapshot]) {
    // Final value, then the time-weighted mean and max companions —
    // each its own family, grouped per Prometheus exposition rules.
    type Value = fn(&GaugeSnapshot) -> f64;
    let families: [(&str, &str, Value); 3] = [
        ("", "", |g| g.last),
        ("_mean", " (time-weighted mean)", |g| g.time_weighted_mean),
        ("_max", " (maximum)", |g| g.max),
    ];
    for (suffix, help_suffix, value) in families {
        let mut last = String::new();
        for g in gauges {
            let name = format!("{}{suffix}", g.key.name);
            let help = format!("{}{help_suffix}", g.help);
            prom_header(out, &name, &help, "gauge", &mut last);
            let labels = prom_labels(&g.key.labels, None);
            let _ = writeln!(out, "{name}{labels} {}", value(g));
        }
    }
}

fn prom_histogram_family(out: &mut String, hists: &[HistogramSnapshot]) {
    let mut last = String::new();
    for h in hists {
        let name = &h.key.name;
        if let Some(fixed) = &h.fixed {
            prom_header(out, name, h.help, "histogram", &mut last);
            let mut cum = 0u64;
            for (i, &count) in fixed.counts().iter().enumerate() {
                cum += count;
                let le = if i < fixed.edges().len() {
                    fixed.edges()[i].to_string()
                } else {
                    "+Inf".to_string()
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    name,
                    prom_labels(&h.key.labels, Some(("le", &le))),
                    cum
                );
            }
        } else {
            prom_header(out, name, h.help, "summary", &mut last);
            for (q, p) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    name,
                    prom_labels(&h.key.labels, Some(("quantile", q))),
                    h.stream.percentile(p)
                );
            }
        }
        let labels = prom_labels(&h.key.labels, None);
        let _ = writeln!(out, "{name}_sum{labels} {}", h.stream.sum());
        let _ = writeln!(out, "{name}_count{labels} {}", h.stream.count());
    }
}

/// Renders the snapshot in the Prometheus text exposition format.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last = String::new();
    for c in &snap.counters {
        prom_header(&mut out, &c.key.name, c.help, "counter", &mut last);
        let _ = writeln!(
            out,
            "{}{} {}",
            c.key.name,
            prom_labels(&c.key.labels, None),
            c.value
        );
    }
    prom_gauge_family(&mut out, &snap.gauges);
    prom_histogram_family(&mut out, &snap.histograms);
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Renders the snapshot as stable JSON, including the full gauge
/// cadence series (which the Prometheus exposition cannot carry) and
/// both histogram views. Infinite bucket upper bounds are encoded as
/// `null`.
pub fn json_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{}\",\n  \"end_ns\": {},\n  \"counters\": [",
        JSON_SCHEMA,
        snap.end.as_nanos()
    );
    for (i, c) in snap.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
            json_escape(&c.key.name),
            json_labels(&c.key.labels),
            c.value
        );
    }
    let _ = write!(out, "\n  ],\n  \"gauges\": [");
    for (i, g) in snap.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let series: Vec<String> = g
            .series
            .iter()
            .map(|(t, v)| format!("[{},{}]", t.as_nanos(), v))
            .collect();
        let _ = write!(
            out,
            "{sep}\n    {{\"name\":\"{}\",\"labels\":{},\"last\":{},\"max\":{},\"time_weighted_mean\":{},\"series\":[{}]}}",
            json_escape(&g.key.name),
            json_labels(&g.key.labels),
            g.last,
            g.max,
            g.time_weighted_mean,
            series.join(",")
        );
    }
    let _ = write!(out, "\n  ],\n  \"histograms\": [");
    for (i, h) in snap.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let buckets: Vec<String> = h
            .stream
            .nonzero_buckets()
            .iter()
            .map(|&(lo, hi, c)| {
                let hi = if hi.is_finite() {
                    hi.to_string()
                } else {
                    "null".to_string()
                };
                format!("[{lo},{hi},{c}]")
            })
            .collect();
        let fixed = match &h.fixed {
            Some(f) => {
                let edges: Vec<String> = f.edges().iter().map(|e| e.to_string()).collect();
                let counts: Vec<String> = f.counts().iter().map(|c| c.to_string()).collect();
                format!(
                    "{{\"edges\":[{}],\"counts\":[{}]}}",
                    edges.join(","),
                    counts.join(",")
                )
            }
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{sep}\n    {{\"name\":\"{}\",\"labels\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"relative_error\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}],\"fixed\":{}}}",
            json_escape(&h.key.name),
            json_labels(&h.key.labels),
            h.stream.count(),
            h.stream.sum(),
            h.stream.min(),
            h.stream.max(),
            h.stream.relative_error(),
            if h.stream.is_empty() { 0.0 } else { h.stream.percentile(50.0) },
            if h.stream.is_empty() { 0.0 } else { h.stream.percentile(90.0) },
            if h.stream.is_empty() { 0.0 } else { h.stream.percentile(99.0) },
            buckets.join(","),
            fixed
        );
    }
    let _ = write!(out, "\n  ]\n}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IoOp, TraceEvent};
    use crate::metrics::MetricsRecorder;
    use crate::Recorder;
    use simkit::SimTime;

    fn snapshot() -> MetricsSnapshot {
        let mut rec = MetricsRecorder::new();
        rec.record(
            SimTime::ZERO,
            TraceEvent::RequestSubmitted {
                req: 0,
                lba: 0,
                sectors: 8,
                op: IoOp::Read,
            },
        );
        rec.record(
            SimTime::ZERO,
            TraceEvent::RequestQueued { req: 0, depth: 1 },
        );
        rec.record(SimTime::from_millis(7.0), TraceEvent::Complete { req: 0 });
        rec.finish()
    }

    #[test]
    fn prometheus_families_are_grouped_and_typed() {
        let text = prometheus_text(&snapshot());
        assert!(text.contains("# TYPE requests_submitted_total counter"));
        assert!(text.contains("requests_submitted_total{scope=\"0\"} 1"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("# TYPE response_time_ms histogram"));
        assert!(text.contains("response_time_ms_bucket{scope=\"0\",le=\"10\"} 1"));
        assert!(text.contains("response_time_ms_bucket{scope=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("# TYPE seek_time_ms summary"));
        // HELP/TYPE appear exactly once per family.
        let helps = text.matches("# HELP response_time_ms ").count();
        assert_eq!(helps, 1);
    }

    #[test]
    fn json_is_parseable_and_stable() {
        let snap = snapshot();
        let a = json_text(&snap);
        let b = json_text(&snap);
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"intradisk-metrics-v1\""));
        let v = crate::metrics::jsonv::parse(&a).expect("export must parse");
        let counters = v.get("counters").and_then(|c| c.as_array()).unwrap();
        assert!(!counters.is_empty());
        let hists = v.get("histograms").and_then(|c| c.as_array()).unwrap();
        let rt = hists
            .iter()
            .find(|h| h.get("name").and_then(|n| n.as_str()) == Some("response_time_ms"))
            .unwrap();
        assert_eq!(rt.get("count").and_then(|c| c.as_f64()), Some(1.0));
        assert!(rt.get("fixed").map(|f| !f.is_null()).unwrap_or(false));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
