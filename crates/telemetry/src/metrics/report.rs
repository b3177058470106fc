//! `repro report` — a single self-contained HTML dashboard.
//!
//! The renderer consumes the JSON exports written by
//! [`super::export::json_text`] (re-read through [`super::jsonv`]) and
//! emits one HTML document with inline SVG charts:
//!
//! * the response-time CDF over the paper's Figure-5 bucket edges,
//!   one curve per scenario (plus the exact bucket-count table, so the
//!   numbers behind the curve are auditable);
//! * queue-depth and power-mode timelines from the gauge cadence
//!   series;
//! * per-actuator utilization bars (busy time / run span);
//! * optionally, the design-space explorer's Pareto panel, drawn from a
//!   typed [`ExplorePanel`]. `repro explore` hands the renderer the
//!   panel of the sweep it just ran; only `repro report` reads one back
//!   out of `explore.json` ([`ExplorePanel::from_json`]).
//!
//! No external assets, no JavaScript, no fonts beyond the generic CSS
//! families — the file renders offline and identically everywhere.
//! Rendering is pure string assembly over sorted inputs, so it is
//! byte-deterministic for a fixed set of exports.

use std::fmt::Write as _;

use super::jsonv::Value;

/// Schema tag of the design-space explorer's `explore.json` export.
/// The explorer writes it; `repro report` checks it before reading the
/// Pareto panel out of the file.
pub const EXPLORE_SCHEMA: &str = "intradisk-explore-v1";

/// One scenario's parsed metrics export.
#[derive(Debug, Clone)]
pub struct ReportInput {
    /// Scenario name (the export file stem).
    pub name: String,
    /// Parsed `*.metrics.json` document.
    pub json: Value,
}

const CHART_W: f64 = 640.0;
const CHART_H: f64 = 300.0;
const MARGIN_L: f64 = 56.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 24.0;
const MARGIN_B: f64 = 44.0;

/// Fixed palette (color-blind-friendly Okabe–Ito subset).
const PALETTE: [&str; 8] = [
    "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#f0e442", "#000000",
];

fn fmt_num(v: f64) -> String {
    let mut s = String::new();
    fmt_num_into(&mut s, v);
    s
}

/// Appends `v` in the report's compact number form: `∞` if not
/// finite, whole numbers from 100 up, one decimal (a trailing `.0`
/// dropped) from 1 up, `0` below 1e-9, else three decimals.
fn fmt_num_into(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push('∞');
        return;
    }
    let a = v.abs();
    if a >= 100.0 {
        let _ = write!(out, "{v:.0}");
    } else if a >= 1.0 {
        let _ = write!(out, "{v:.1}");
        if out.ends_with(".0") {
            out.truncate(out.len() - 2);
        }
    } else if a < 1e-9 {
        out.push('0');
    } else {
        let _ = write!(out, "{v:.3}");
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc_into(&mut out, s);
    out
}

/// Appends `s` with `&`, `<` and `>` escaped as HTML entities.
fn esc_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.find(['&', '<', '>']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            _ => "&gt;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

#[derive(Debug, Clone)]
struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

struct Scale {
    min: f64,
    span: f64,
    lo_px: f64,
    span_px: f64,
}

impl Scale {
    fn new(min: f64, max: f64, lo_px: f64, hi_px: f64) -> Scale {
        let span = if (max - min).abs() < 1e-12 {
            1.0
        } else {
            max - min
        };
        Scale {
            min,
            span,
            lo_px,
            span_px: hi_px - lo_px,
        }
    }

    fn px(&self, v: f64) -> f64 {
        self.lo_px + (v - self.min) / self.span * self.span_px
    }
}

fn nice_ticks(min: f64, max: f64) -> Vec<f64> {
    let span = max - min;
    if span.abs() < 1e-12 {
        return vec![min];
    }
    let raw_step = span / 5.0;
    let mag = 10f64.powf(raw_step.abs().log10().floor());
    let norm = raw_step / mag;
    let step = if norm < 1.5 {
        mag
    } else if norm < 3.5 {
        2.0 * mag
    } else if norm < 7.5 {
        5.0 * mag
    } else {
        10.0 * mag
    };
    let mut ticks = Vec::new();
    let mut t = (min / step).ceil() * step;
    while t <= max + step * 1e-9 {
        ticks.push(t);
        t += step;
    }
    ticks
}

/// Renders an SVG line chart. `step` draws left-continuous staircases
/// (gauge semantics); otherwise points are joined directly.
fn line_chart(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    step: bool,
    y_tick_names: Option<&[&str]>,
) -> String {
    let mut x_min = f64::INFINITY;
    let mut x_max = f64::NEG_INFINITY;
    let mut y_min: f64 = 0.0;
    let mut y_max = f64::NEG_INFINITY;
    for s in series {
        for &(x, y) in &s.points {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
    }
    if !x_min.is_finite() {
        x_min = 0.0;
        x_max = 1.0;
        y_max = 1.0;
    }
    if y_max <= y_min {
        y_max = y_min + 1.0;
    }
    let xs = Scale::new(x_min, x_max, MARGIN_L, CHART_W - MARGIN_R);
    let ys = Scale::new(y_min, y_max, CHART_H - MARGIN_B, MARGIN_T);

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" role=\"img\" aria-label=\"{}\">",
        esc(title)
    );
    let _ = write!(
        svg,
        "<text x=\"{}\" y=\"14\" class=\"title\">{}</text>",
        MARGIN_L,
        esc(title)
    );
    // Axes.
    let x0 = MARGIN_L;
    let x1 = CHART_W - MARGIN_R;
    let y0 = CHART_H - MARGIN_B;
    let _ = write!(
        svg,
        "<line x1=\"{x0}\" y1=\"{y0}\" x2=\"{x1}\" y2=\"{y0}\" class=\"axis\"/>\
         <line x1=\"{x0}\" y1=\"{}\" x2=\"{x0}\" y2=\"{y0}\" class=\"axis\"/>",
        MARGIN_T
    );
    for t in nice_ticks(x_min, x_max) {
        let px = xs.px(t);
        let _ = write!(
            svg,
            "<line x1=\"{px:.1}\" y1=\"{y0}\" x2=\"{px:.1}\" y2=\"{}\" class=\"tick\"/>\
             <text x=\"{px:.1}\" y=\"{}\" class=\"lbl\" text-anchor=\"middle\">{}</text>",
            y0 + 4.0,
            y0 + 16.0,
            fmt_num(t)
        );
    }
    if let Some(names) = y_tick_names {
        for (i, name) in names.iter().enumerate() {
            let py = ys.px(i as f64);
            let _ = write!(
                svg,
                "<text x=\"{}\" y=\"{py:.1}\" class=\"lbl\" text-anchor=\"end\">{}</text>",
                x0 - 6.0,
                esc(name)
            );
        }
    } else {
        for t in nice_ticks(y_min, y_max) {
            let py = ys.px(t);
            let _ = write!(
                svg,
                "<line x1=\"{}\" y1=\"{py:.1}\" x2=\"{x0}\" y2=\"{py:.1}\" class=\"tick\"/>\
                 <text x=\"{}\" y=\"{:.1}\" class=\"lbl\" text-anchor=\"end\">{}</text>",
                x0 - 4.0,
                x0 - 6.0,
                py + 3.0,
                fmt_num(t)
            );
        }
    }
    let _ = write!(
        svg,
        "<text x=\"{:.1}\" y=\"{}\" class=\"axlbl\" text-anchor=\"middle\">{}</text>",
        (x0 + x1) / 2.0,
        CHART_H - 8.0,
        esc(x_label)
    );
    let _ = write!(
        svg,
        "<text x=\"12\" y=\"{:.1}\" class=\"axlbl\" text-anchor=\"middle\" transform=\"rotate(-90 12 {:.1})\">{}</text>",
        (MARGIN_T + y0) / 2.0,
        (MARGIN_T + y0) / 2.0,
        esc(y_label)
    );
    // Series.
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut pts = String::new();
        let mut prev_y: Option<f64> = None;
        for &(x, y) in &s.points {
            let px = xs.px(x);
            let py = ys.px(y);
            if step {
                if let Some(py_prev) = prev_y {
                    let _ = write!(pts, "{px:.1},{py_prev:.1} ");
                }
            }
            let _ = write!(pts, "{px:.1},{py:.1} ");
            prev_y = Some(py);
        }
        let _ = write!(
            svg,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.6\"/>",
            pts.trim_end()
        );
        // Legend swatch + label.
        let ly = MARGIN_T + 4.0 + (i as f64) * 14.0;
        let _ = write!(
            svg,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"10\" height=\"3\" fill=\"{color}\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"lbl\">{}</text>",
            x1 - 150.0,
            ly,
            x1 - 136.0,
            ly + 4.0,
            esc(&s.label)
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Renders horizontal utilization bars (`fraction` in [0, 1]).
fn bar_chart(title: &str, bars: &[(String, f64)]) -> String {
    let row_h = 22.0;
    let h = MARGIN_T + 12.0 + bars.len() as f64 * row_h + 12.0;
    let bar_x = 140.0;
    let bar_w = CHART_W - bar_x - 80.0;
    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {CHART_W} {h:.0}\" role=\"img\" aria-label=\"{}\">",
        esc(title)
    );
    let _ = write!(
        svg,
        "<text x=\"8\" y=\"14\" class=\"title\">{}</text>",
        esc(title)
    );
    for (i, (label, frac)) in bars.iter().enumerate() {
        let y = MARGIN_T + 8.0 + i as f64 * row_h;
        let w = (frac.clamp(0.0, 1.0)) * bar_w;
        let color = PALETTE[i % PALETTE.len()];
        let _ = write!(
            svg,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"lbl\" text-anchor=\"end\">{}</text>\
             <rect x=\"{bar_x}\" y=\"{:.1}\" width=\"{bar_w:.1}\" height=\"12\" class=\"barbg\"/>\
             <rect x=\"{bar_x}\" y=\"{:.1}\" width=\"{w:.1}\" height=\"12\" fill=\"{color}\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"lbl\">{:.1}%</text>",
            bar_x - 8.0,
            y + 10.0,
            esc(label),
            y,
            y,
            bar_x + bar_w + 6.0,
            y + 10.0,
            frac * 100.0
        );
    }
    svg.push_str("</svg>");
    svg
}

fn metric<'a>(doc: &'a Value, family: &str, name: &str, scope: &str) -> Option<&'a Value> {
    doc.get(family)?.as_array()?.iter().find(|m| {
        m.get("name").and_then(Value::as_str) == Some(name)
            && m.get("labels")
                .and_then(|l| l.get("scope"))
                .and_then(Value::as_str)
                == Some(scope)
    })
}

fn gauge_series(doc: &Value, name: &str, scope: &str) -> Vec<(f64, f64)> {
    metric(doc, "gauges", name, scope)
        .and_then(|g| g.get("series"))
        .and_then(Value::as_array)
        .map(|points| {
            points
                .iter()
                .filter_map(|p| {
                    let pair = p.as_array()?;
                    let t_ns = pair.first()?.as_f64()?;
                    let v = pair.get(1)?.as_f64()?;
                    Some((t_ns / 1e6, v)) // ns → ms
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Bucket edges, per-bucket counts and `(edge, cumulative fraction)`
/// points of one Figure-5 CDF.
type Fig5Cdf = (Vec<f64>, Vec<u64>, Vec<(f64, f64)>);

/// The paper's Figure-5 CDF for one scenario: cumulative fraction at
/// each fixed bucket edge, from the exact fixed-edge histogram.
fn fig5_cdf(doc: &Value) -> Option<Fig5Cdf> {
    let fixed = metric(doc, "histograms", "response_time_ms", "0")?.get("fixed")?;
    let edges: Vec<f64> = fixed
        .get("edges")?
        .as_array()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    let counts: Vec<u64> = fixed
        .get("counts")?
        .as_array()?
        .iter()
        .filter_map(Value::as_u64)
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 || edges.is_empty() {
        return None;
    }
    let mut cum = 0u64;
    let mut pts = Vec::new();
    for (i, &e) in edges.iter().enumerate() {
        cum += counts.get(i).copied().unwrap_or(0);
        pts.push((e, cum as f64 / total as f64));
    }
    Some((edges, counts, pts))
}

fn utilization_bars(doc: &Value) -> Vec<(String, f64)> {
    let span_ms = doc
        .get("end_ns")
        .and_then(Value::as_f64)
        .map(|ns| ns / 1e6)
        .unwrap_or(0.0);
    let mut bars = Vec::new();
    if span_ms <= 0.0 {
        return bars;
    }
    if let Some(gauges) = doc.get("gauges").and_then(Value::as_array) {
        for g in gauges {
            if g.get("name").and_then(Value::as_str) != Some("actuator_busy_ms") {
                continue;
            }
            let scope = g
                .get("labels")
                .and_then(|l| l.get("scope"))
                .and_then(Value::as_str)
                .unwrap_or("?");
            let actuator = g
                .get("labels")
                .and_then(|l| l.get("actuator"))
                .and_then(Value::as_str)
                .unwrap_or("?");
            let busy_ms = g.get("last").and_then(Value::as_f64).unwrap_or(0.0);
            bars.push((
                format!("scope {scope} · actuator {actuator}"),
                busy_ms / span_ms,
            ));
        }
    }
    bars.sort_by(|a, b| a.0.cmp(&b.0));
    bars
}

/// One explore point reduced to what the Pareto panel draws.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorePoint {
    /// The point's value on the panel's latency axis (ms).
    pub latency_ms: f64,
    /// Energy over the run (J).
    pub energy_j: f64,
    /// Drive cost (USD).
    pub cost_usd: f64,
    /// True if the point is on the Pareto frontier.
    pub frontier: bool,
    /// `<dash> <policy> <cache>MiB <rpm>rpm <workload>`.
    pub label: String,
    /// The point's descriptor hash.
    pub hash: String,
}

/// What the design-space exploration panel draws: the sweep's headline
/// settings and its points, in export order.
///
/// `repro explore` builds it from the outcome it already holds;
/// `repro report` builds it from `explore.json` with
/// [`ExplorePanel::from_json`]. Both give equal panels for one sweep,
/// so the rendered bytes do not depend on which one drew them.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorePanel {
    /// Coverage name (`coarse`, `adaptive`, `full`), if known.
    pub coverage: Option<String>,
    /// Requests per point, if known.
    pub requests: Option<u64>,
    /// The latency axis: `"mean"` or `"p90"`.
    pub latency_axis: &'static str,
    /// The code version the points were cached under, if known.
    pub code_version: Option<String>,
    /// Every point, in export order.
    pub points: Vec<ExplorePoint>,
}

impl ExplorePanel {
    /// Reads the panel out of a parsed `explore.json` (schema
    /// [`EXPLORE_SCHEMA`], which the caller checks), honoring its
    /// declared latency axis. Malformed points are skipped, not fatal.
    pub fn from_json(doc: &Value) -> ExplorePanel {
        let (latency_axis, latency_key) = match doc.get("latency_axis").and_then(Value::as_str) {
            Some("mean") => ("mean", "mean_ms"),
            _ => ("p90", "p90_ms"),
        };
        let points = doc
            .get("points")
            .and_then(Value::as_array)
            .map(|points| {
                points
                    .iter()
                    .filter_map(|p| {
                        let f = |k: &str| p.get(k).and_then(Value::as_f64);
                        let s = |k: &str| p.get(k).and_then(Value::as_str);
                        Some(ExplorePoint {
                            latency_ms: f(latency_key)?,
                            energy_j: f("energy_j")?,
                            cost_usd: f("cost_usd")?,
                            frontier: matches!(p.get("frontier"), Some(Value::Bool(true))),
                            label: format!(
                                "{} {} {}MiB {}rpm {}",
                                s("dash")?,
                                s("policy")?,
                                p.get("cache_mib").and_then(Value::as_u64)?,
                                p.get("rpm").and_then(Value::as_u64)?,
                                s("workload")?,
                            ),
                            hash: s("hash")?.to_string(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        ExplorePanel {
            coverage: doc
                .get("coverage")
                .and_then(Value::as_str)
                .map(str::to_string),
            requests: doc.get("requests").and_then(Value::as_u64),
            latency_axis,
            code_version: doc
                .get("code_version")
                .and_then(Value::as_str)
                .map(str::to_string),
            points,
        }
    }
}

/// `s` cut to its first `n` bytes, or all of `s` if it is shorter or
/// byte `n` is inside a character.
fn prefix(s: &str, n: usize) -> &str {
    s.get(..n).unwrap_or(s)
}

/// The latency-vs-energy scatter: dominated points gray, frontier
/// points highlighted, cost encoded as marker radius, every marker
/// carrying a `<title>` tooltip with its label + descriptor hash.
fn explore_scatter(out: &mut String, points: &[ExplorePoint], latency_name: &str) {
    let mut x_min = f64::INFINITY;
    let mut x_max = f64::NEG_INFINITY;
    let mut y_min = f64::INFINITY;
    let mut y_max = f64::NEG_INFINITY;
    let mut c_min = f64::INFINITY;
    let mut c_max = f64::NEG_INFINITY;
    for p in points {
        x_min = x_min.min(p.latency_ms);
        x_max = x_max.max(p.latency_ms);
        y_min = y_min.min(p.energy_j);
        y_max = y_max.max(p.energy_j);
        c_min = c_min.min(p.cost_usd);
        c_max = c_max.max(p.cost_usd);
    }
    if !x_min.is_finite() {
        return;
    }
    let xs = Scale::new(x_min, x_max, MARGIN_L, CHART_W - MARGIN_R);
    let ys = Scale::new(y_min, y_max, CHART_H - MARGIN_B, MARGIN_T);
    let c_span = if (c_max - c_min).abs() < 1e-12 {
        1.0
    } else {
        c_max - c_min
    };
    let radius = |cost: f64| 2.0 + 4.0 * (cost - c_min) / c_span;

    let title = format!("Latency vs energy, cost as marker size ({latency_name} latency)");
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" role=\"img\" aria-label=\"{}\">",
        esc(&title)
    );
    let _ = write!(
        out,
        "<text x=\"{MARGIN_L}\" y=\"14\" class=\"title\">{}</text>",
        esc(&title)
    );
    let x0 = MARGIN_L;
    let x1 = CHART_W - MARGIN_R;
    let y0 = CHART_H - MARGIN_B;
    let _ = write!(
        out,
        "<line x1=\"{x0}\" y1=\"{y0}\" x2=\"{x1}\" y2=\"{y0}\" class=\"axis\"/>\
         <line x1=\"{x0}\" y1=\"{MARGIN_T}\" x2=\"{x0}\" y2=\"{y0}\" class=\"axis\"/>",
    );
    for t in nice_ticks(x_min, x_max) {
        let px = xs.px(t);
        let _ = write!(
            out,
            "<line x1=\"{px:.1}\" y1=\"{y0}\" x2=\"{px:.1}\" y2=\"{}\" class=\"tick\"/>\
             <text x=\"{px:.1}\" y=\"{}\" class=\"lbl\" text-anchor=\"middle\">{}</text>",
            y0 + 4.0,
            y0 + 16.0,
            fmt_num(t)
        );
    }
    for t in nice_ticks(y_min, y_max) {
        let py = ys.px(t);
        let _ = write!(
            out,
            "<line x1=\"{}\" y1=\"{py:.1}\" x2=\"{x0}\" y2=\"{py:.1}\" class=\"tick\"/>\
             <text x=\"{}\" y=\"{:.1}\" class=\"lbl\" text-anchor=\"end\">{}</text>",
            x0 - 4.0,
            x0 - 6.0,
            py + 3.0,
            fmt_num(t)
        );
    }
    let _ = write!(
        out,
        "<text x=\"{:.1}\" y=\"{}\" class=\"axlbl\" text-anchor=\"middle\">{latency_name} response time (ms)</text>",
        (x0 + x1) / 2.0,
        CHART_H - 8.0,
    );
    let _ = write!(
        out,
        "<text x=\"12\" y=\"{:.1}\" class=\"axlbl\" text-anchor=\"middle\" transform=\"rotate(-90 12 {:.1})\">energy (J)</text>",
        (MARGIN_T + y0) / 2.0,
        (MARGIN_T + y0) / 2.0,
    );
    // Dominated cloud first, frontier on top of it. Each marker writes
    // straight into `out`: no string is built per point.
    for pass in [false, true] {
        for p in points.iter().filter(|p| p.frontier == pass) {
            let (class, r) = if p.frontier {
                ("pfront", radius(p.cost_usd) + 1.0)
            } else {
                ("pdom", radius(p.cost_usd))
            };
            let _ = write!(
                out,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"{r:.1}\" class=\"{class}\"><title>",
                xs.px(p.latency_ms),
                ys.px(p.energy_j),
            );
            esc_into(out, &p.label);
            out.push_str(" | ");
            fmt_num_into(out, p.latency_ms);
            out.push_str(" ms | ");
            fmt_num_into(out, p.energy_j);
            out.push_str(" J | ");
            fmt_num_into(out, p.cost_usd);
            out.push_str(" USD | ");
            esc_into(out, &p.hash);
            out.push_str("</title></circle>");
        }
    }
    out.push_str("</svg>");
}

/// One headline cell of a `.stats` row.
fn stat_cell(out: &mut String, value: &str, key: &str) {
    out.push_str("<div class=\"stat\"><div class=\"v\">");
    esc_into(out, value);
    out.push_str("</div><div class=\"k\">");
    esc_into(out, key);
    out.push_str("</div></div>");
}

/// The design-space exploration section: headline stats, the Pareto
/// scatter, and a frontier table keyed by descriptor hash.
fn explore_section(out: &mut String, panel: &ExplorePanel) {
    let points = &panel.points;
    let latency_name = panel.latency_axis;
    let frontier = points.iter().filter(|p| p.frontier).count();

    out.push_str("<section><h2>Design-space exploration — Pareto frontier</h2>");
    out.push_str("<div class=\"stats\">");
    stat_cell(out, &points.len().to_string(), "points");
    stat_cell(out, &frontier.to_string(), "frontier");
    stat_cell(out, panel.coverage.as_deref().unwrap_or("?"), "coverage");
    stat_cell(
        out,
        &panel.requests.map_or("?".into(), |v| v.to_string()),
        "requests/point",
    );
    stat_cell(out, latency_name, "latency axis");
    out.push_str("</div>");
    if let Some(cv) = &panel.code_version {
        out.push_str("<p class=\"meta\">cached points keyed on code version <code>");
        esc_into(out, prefix(cv, 16));
        out.push_str("</code></p>");
    }
    if !points.is_empty() {
        out.push_str("<figure>");
        explore_scatter(out, points, latency_name);
        out.push_str("</figure>");
    }
    if frontier > 0 {
        let _ = write!(
            out,
            "<table class=\"fig5\"><caption>Frontier configurations (non-dominated on \
             {latency_name} latency, energy, cost)</caption>\
             <tr><th>configuration</th><th>latency (ms)</th><th>energy (J)</th>\
             <th>cost (USD)</th><th>descriptor</th></tr>"
        );
        for p in points.iter().filter(|p| p.frontier) {
            out.push_str("<tr><td class=\"cfg\">");
            esc_into(out, &p.label);
            out.push_str("</td><td>");
            fmt_num_into(out, p.latency_ms);
            out.push_str("</td><td>");
            fmt_num_into(out, p.energy_j);
            out.push_str("</td><td>");
            fmt_num_into(out, p.cost_usd);
            out.push_str("</td><td><code>");
            esc_into(out, prefix(&p.hash, 12));
            out.push_str("</code></td></tr>");
        }
        out.push_str("</table>");
    }
    out.push_str("</section>");
}

const POWER_MODE_NAMES: [&str; 4] = ["idle", "seek", "rot_wait", "transfer"];

fn scenario_section(input: &ReportInput) -> String {
    let doc = &input.json;
    let mut out = String::new();
    let _ = write!(out, "<section><h2>{}</h2>", esc(&input.name));

    // Headline numbers.
    let mut cells = String::new();
    for (label, family, name, field) in [
        ("requests", "counters", "requests_completed_total", "value"),
        ("cache hits", "counters", "cache_hits_total", "value"),
        ("p50 ms", "histograms", "response_time_ms", "p50"),
        ("p90 ms", "histograms", "response_time_ms", "p90"),
        ("p99 ms", "histograms", "response_time_ms", "p99"),
        ("mean depth", "gauges", "queue_depth", "time_weighted_mean"),
    ] {
        let v = metric(doc, family, name, "0")
            .and_then(|m| m.get(field))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let _ = write!(
            cells,
            "<div class=\"stat\"><div class=\"v\">{}</div><div class=\"k\">{}</div></div>",
            fmt_num(v),
            esc(label)
        );
    }
    let _ = write!(out, "<div class=\"stats\">{cells}</div>");

    // Queue-depth + power-mode timelines.
    let depth = gauge_series(doc, "queue_depth", "0");
    if !depth.is_empty() {
        let s = [Series {
            label: "queue depth".to_string(),
            points: depth,
        }];
        let _ = write!(
            out,
            "<figure>{}</figure>",
            line_chart(
                "Queue depth over time",
                "sim time (ms)",
                "requests",
                &s,
                true,
                None
            )
        );
    }
    let mode = gauge_series(doc, "power_mode", "0");
    if !mode.is_empty() {
        let s = [Series {
            label: "mode".to_string(),
            points: mode,
        }];
        let _ = write!(
            out,
            "<figure>{}</figure>",
            line_chart(
                "Power mode over time",
                "sim time (ms)",
                "mode",
                &s,
                true,
                Some(&POWER_MODE_NAMES)
            )
        );
    }

    // Per-actuator utilization.
    let bars = utilization_bars(doc);
    if !bars.is_empty() {
        let _ = write!(
            out,
            "<figure>{}</figure>",
            bar_chart("Per-actuator utilization (busy / span)", &bars)
        );
    }

    // Exact Figure-5 bucket counts — the audit trail behind the CDF.
    if let Some((edges, counts, _)) = fig5_cdf(doc) {
        let mut head = String::new();
        let mut row = String::new();
        for (i, &c) in counts.iter().enumerate() {
            let label = if i < edges.len() {
                format!("≤{}", fmt_num(edges[i]))
            } else {
                format!("&gt;{}", fmt_num(edges[edges.len() - 1]))
            };
            let _ = write!(head, "<th>{label}</th>");
            let _ = write!(row, "<td>{c}</td>");
        }
        let _ = write!(
            out,
            "<table class=\"fig5\"><caption>Figure-5 response-time buckets (ms, exact counts)</caption>\
             <tr><th>bucket</th>{head}</tr><tr><th>count</th>{row}</tr></table>"
        );
    }

    out.push_str("</section>");
    out
}

/// Renders the full dashboard for a sorted set of scenario exports.
pub fn render_html(inputs: &[ReportInput]) -> String {
    render_html_with_explore(inputs, None)
}

/// Renders the dashboard with an optional design-space exploration
/// panel.
pub fn render_html_with_explore(inputs: &[ReportInput], explore: Option<&ExplorePanel>) -> String {
    let mut inputs: Vec<&ReportInput> = inputs.iter().collect();
    inputs.sort_by(|a, b| a.name.cmp(&b.name));

    // A panel marker with its tooltip is about 200 bytes.
    let panel_bytes = explore.map_or(0, |panel| 256 * panel.points.len());
    let mut html = String::with_capacity(8192 + panel_bytes);
    html.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>intradisk metrics report</title>\n<style>\n\
         body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:60rem;color:#1a1a2e;}\n\
         h1{font-size:1.5rem;} h2{font-size:1.15rem;border-bottom:1px solid #ddd;padding-bottom:.25rem;}\n\
         figure{margin:1rem 0;} svg{max-width:100%;height:auto;background:#fafafa;border:1px solid #eee;}\n\
         .title{font-size:12px;font-weight:600;} .lbl{font-size:9px;fill:#444;} .axlbl{font-size:10px;fill:#222;}\n\
         .axis{stroke:#333;stroke-width:1;} .tick{stroke:#bbb;stroke-width:.5;} .barbg{fill:#eee;}\n\
         .stats{display:flex;gap:1rem;flex-wrap:wrap;margin:.5rem 0 1rem;}\n\
         .stat{background:#f4f6fa;border-radius:6px;padding:.4rem .8rem;text-align:center;}\n\
         .stat .v{font-size:1.1rem;font-weight:700;} .stat .k{font-size:.7rem;color:#556;}\n\
         table.fig5{border-collapse:collapse;font-size:.8rem;margin:1rem 0;}\n\
         table.fig5 th,table.fig5 td{border:1px solid #ccc;padding:.2rem .5rem;text-align:right;}\n\
         table.fig5 caption{caption-side:top;text-align:left;font-size:.75rem;color:#556;padding-bottom:.25rem;}\n\
         table.fig5 td.cfg{text-align:left;}\n\
         .meta{color:#667;font-size:.85rem;}\n\
         .pdom{fill:#9aa7b5;opacity:.45;} .pfront{fill:#d55e00;stroke:#7a3100;stroke-width:.8;}\n\
         </style>\n</head>\n<body>\n",
    );
    html.push_str("<h1>Intra-disk parallelism — metrics report</h1>\n");
    let _ = writeln!(
        html,
        "<p class=\"meta\">{} scenario(s) · deterministic export schema <code>{}</code> · all timestamps are virtual sim-time</p>",
        inputs.len(),
        super::export::JSON_SCHEMA
    );

    // Overlay CDF across scenarios (the paper's Figure-5 shape).
    let cdf_series: Vec<Series> = inputs
        .iter()
        .filter_map(|input| {
            fig5_cdf(&input.json).map(|(_, _, points)| Series {
                label: input.name.clone(),
                points,
            })
        })
        .collect();
    if !cdf_series.is_empty() {
        let _ = writeln!(
            html,
            "<section><h2>Response-time CDF (paper Figure 5 buckets)</h2><figure>{}</figure></section>",
            line_chart(
                "Cumulative fraction of requests vs response time",
                "response time (ms)",
                "fraction ≤ x",
                &cdf_series,
                false,
                None
            )
        );
    }

    if let Some(panel) = explore {
        explore_section(&mut html, panel);
        html.push('\n');
    }

    for input in &inputs {
        html.push_str(&scenario_section(input));
        html.push('\n');
    }
    html.push_str("</body>\n</html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IoOp, TraceEvent};
    use crate::metrics::{export, jsonv, MetricsRecorder};
    use crate::Recorder;
    use simkit::{SimDuration, SimTime};

    fn sample_input(name: &str) -> ReportInput {
        let mut rec = MetricsRecorder::new();
        for i in 0..20u64 {
            let t = SimTime::from_millis(i as f64 * 10.0);
            rec.record(
                t,
                TraceEvent::RequestSubmitted {
                    req: i,
                    lba: i * 100,
                    sectors: 8,
                    op: IoOp::Read,
                },
            );
            rec.record(
                t,
                TraceEvent::Dispatched {
                    req: i,
                    actuator: (i % 2) as u32,
                    depth: 0,
                },
            );
            rec.record(
                t,
                TraceEvent::Transfer {
                    req: i,
                    actuator: (i % 2) as u32,
                    dur: SimDuration::from_millis(3.0),
                },
            );
            rec.record(
                t + SimDuration::from_millis(3.0 + (i % 5) as f64),
                TraceEvent::Complete { req: i },
            );
        }
        let json_str = export::json_text(&rec.finish());
        ReportInput {
            name: name.to_string(),
            json: jsonv::parse(&json_str).expect("export parses"),
        }
    }

    #[test]
    fn report_is_self_contained_html() {
        let html = render_html(&[sample_input("sa1"), sample_input("sa2")]);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert!(html.contains("<svg"));
        // No external assets or scripts.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        assert!(!html.contains("src="));
        assert!(html.contains("Figure-5 response-time buckets"));
        assert!(html.contains("Per-actuator utilization"));
    }

    #[test]
    fn report_is_deterministic_and_order_insensitive() {
        let a = sample_input("alpha");
        let b = sample_input("beta");
        let one = render_html(&[a.clone(), b.clone()]);
        let two = render_html(&[b, a]);
        assert_eq!(one, two);
    }

    #[test]
    fn fig5_table_counts_match_export() {
        let input = sample_input("sa1");
        let (_, counts, _) = fig5_cdf(&input.json).expect("fixed hist present");
        assert_eq!(counts.iter().sum::<u64>(), 20);
        let html = render_html(&[input]);
        // Every bucket count appears verbatim in the table row.
        for c in counts {
            assert!(html.contains(&format!("<td>{c}</td>")));
        }
    }

    #[test]
    fn empty_inputs_still_render() {
        let html = render_html(&[]);
        assert!(html.contains("0 scenario(s)"));
    }

    fn sample_explore() -> ExplorePanel {
        let doc = jsonv::parse(
            r#"{
  "schema": "intradisk-explore-v1",
  "code_version": "deadbeefdeadbeefdeadbeefdeadbeef",
  "coverage": "coarse",
  "latency_axis": "p90",
  "requests": 200,
  "seed": 42,
  "stats": "streaming",
  "points": [
    {"cache_mib":8,"cache_hits":10,"completed":200,"cost_usd":61.0,"dash":"D1A1S1H1","energy_j":40.0,"frontier":true,"hash":"aaaa111122223333","mean_ms":5.0,"p90_ms":9.0,"policy":"fcfs","power_w":12.0,"rpm":7200,"workload":"oltp"},
    {"cache_mib":8,"cache_hits":12,"completed":200,"cost_usd":80.0,"dash":"D1A2S1H1","energy_j":55.0,"frontier":false,"hash":"bbbb111122223333","mean_ms":6.0,"p90_ms":11.0,"policy":"fcfs","power_w":14.0,"rpm":7200,"workload":"oltp"}
  ],
  "frontier": [
    "aaaa111122223333"
  ]
}"#,
        )
        .expect("sample explore parses");
        ExplorePanel::from_json(&doc)
    }

    #[test]
    fn explore_panel_renders_frontier_and_stays_self_contained() {
        let doc = sample_explore();
        let html = render_html_with_explore(&[sample_input("sa1")], Some(&doc));
        assert!(html.contains("Design-space exploration — Pareto frontier"));
        assert!(html.contains("Frontier configurations"));
        // Frontier hash appears (truncated) in the table; both points
        // carry tooltips with their full hash.
        assert!(html.contains("aaaa11112222"));
        assert!(html.contains("bbbb111122223333"));
        assert!(html.contains("D1A1S1H1 fcfs 8MiB 7200rpm oltp"));
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://"));
        assert!(!html.contains("src="));
        // Without the panel, none of it renders.
        let plain = render_html(&[sample_input("sa1")]);
        assert!(!plain.contains("Pareto"));
    }

    #[test]
    fn explore_panel_is_deterministic_and_renders_without_scenarios() {
        let doc = sample_explore();
        let a = render_html_with_explore(&[], Some(&doc));
        let b = render_html_with_explore(&[], Some(&doc));
        assert_eq!(a, b);
        assert!(a.contains("0 scenario(s)"));
        assert!(a.contains("Pareto"));
    }

    /// A code version or hash from outside whose cut point falls inside
    /// a character renders whole instead of panicking.
    #[test]
    fn explore_panel_cuts_text_only_on_char_boundaries() {
        let mut panel = sample_explore();
        // One ASCII byte, then two-byte characters: every even byte
        // offset, 12 and 16 included, is inside a character.
        let cv = format!("a{}", "é".repeat(10));
        let hash = format!("a{}", "é".repeat(8));
        panel.code_version = Some(cv.clone());
        panel.points[0].hash = hash.clone();
        let html = render_html_with_explore(&[], Some(&panel));
        assert!(html.contains(&format!("<code>{cv}</code>")));
        assert!(html.contains(&format!("<td><code>{hash}</code>")));
    }

    #[test]
    fn fmt_num_is_compact() {
        assert_eq!(fmt_num(150.0), "150");
        assert_eq!(fmt_num(5.0), "5");
        assert_eq!(fmt_num(2.5), "2.5");
        assert_eq!(fmt_num(0.123), "0.123");
        assert_eq!(fmt_num(0.0), "0");
    }
}
