//! Byte-stable JSON rendering of a lint report.
//!
//! The output is a deterministic function of the finding set: findings
//! are already globally sorted by the engine, keys are emitted in a
//! fixed order, and escaping is canonical (the eight JSON control
//! escapes plus `\u00XX` for other control bytes). `scripts/verify.sh`
//! gates on two runs producing byte-identical output.

use crate::rules::Finding;
use crate::Report;

/// Escapes one string for a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one finding as a single-line JSON object.
pub fn finding_object(f: &Finding) -> String {
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
        escape(&f.file),
        f.line,
        f.col,
        escape(f.rule),
        escape(&f.message)
    )
}

/// Renders the full report: schema tag, scan size, findings one per
/// line in engine order.
pub fn render_report(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"simlint\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        out.push_str(&finding_object(f));
    }
    if report.findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_is_canonical() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t"), "x\\n\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_report_renders() {
        let r = Report {
            findings: vec![],
            files_scanned: 3,
        };
        let s = render_report(&r);
        assert!(s.contains("\"files_scanned\": 3"));
        assert!(s.contains("\"findings\": []"));
    }

    #[test]
    fn findings_render_one_per_line() {
        let f = Finding {
            file: "a.rs".into(),
            line: 1,
            col: 2,
            rule: "no-wall-clock",
            message: "msg with \"quotes\"".into(),
        };
        let r = Report {
            findings: vec![f.clone(), f],
            files_scanned: 1,
        };
        let s = render_report(&r);
        assert_eq!(s.matches("{\"file\":\"a.rs\"").count(), 2);
        assert!(s.contains("\\\"quotes\\\""));
    }
}
