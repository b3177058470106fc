//! The accepted-findings baseline and its drift gate.
//!
//! A baseline entry identifies a finding by `(file, rule, message)` —
//! deliberately *not* by line number, so unrelated edits that shift
//! code don't churn the file. Matching is by multiset: if the workspace
//! has two identical findings and the baseline records one, one is new.
//!
//! The gate is two-sided. A finding not covered by the baseline is
//! *new* and fails verify (regressions can't land silently); a baseline
//! entry with no matching finding is *stale* and also fails (fixes must
//! shrink the baseline via `--write-baseline`, so the debt register
//! never overstates reality).
//!
//! The parser below reads only the subset of JSON the writer emits
//! (string-valued objects in an `entries` array) but is tolerant of
//! whitespace and key order, so hand-edits survive.

use std::collections::BTreeMap;

use crate::json::escape;
use crate::rules::Finding;

/// Multiset of accepted findings, keyed `(file, rule, message)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(String, String, String), usize>,
}

/// Result of diffing current findings against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Drift {
    /// Findings not covered by the baseline (indices into the report's
    /// finding vector).
    pub new: Vec<usize>,
    /// Baseline entries with no matching finding: `(file, rule,
    /// message, surplus count)`.
    pub stale: Vec<(String, String, String, usize)>,
}

impl Baseline {
    /// Records every finding as accepted.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.file.clone(), f.rule.to_string(), f.message.clone()))
                .or_default() += 1;
        }
        Baseline { counts }
    }

    /// Number of accepted findings (multiset cardinality).
    pub fn len(&self) -> usize {
        self.counts.values().sum()
    }

    /// True when no findings are accepted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Diffs `findings` against the baseline.
    pub fn drift(&self, findings: &[Finding]) -> Drift {
        let mut remaining = self.counts.clone();
        let mut drift = Drift::default();
        for (i, f) in findings.iter().enumerate() {
            let key = (f.file.clone(), f.rule.to_string(), f.message.clone());
            match remaining.get_mut(&key) {
                Some(n) if *n > 0 => *n -= 1,
                _ => drift.new.push(i),
            }
        }
        for ((file, rule, message), n) in remaining {
            if n > 0 {
                drift.stale.push((file, rule, message, n));
            }
        }
        drift
    }

    /// Renders the baseline file: one entry object per accepted
    /// finding, sorted, byte-stable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"simlint_baseline\": 2,\n");
        out.push_str("  \"entries\": [");
        let mut first = true;
        for ((file, rule, message), n) in &self.counts {
            for _ in 0..*n {
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                out.push_str(&format!(
                    "    {{\"file\":\"{}\",\"rule\":\"{}\",\"message\":\"{}\"}}",
                    escape(file),
                    escape(rule),
                    escape(message)
                ));
            }
        }
        if first {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }

    /// Parses a baseline file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            chars: text.chars().collect(),
            i: 0,
        };
        p.skip_ws();
        p.expect('{')?;
        let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        let mut saw_tag = false;
        loop {
            p.skip_ws();
            if p.eat('}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            match key.as_str() {
                "simlint_baseline" => {
                    let v = p.number()?;
                    if v != 2.0 {
                        return Err(format!("unsupported baseline version {v}"));
                    }
                    saw_tag = true;
                }
                "entries" => {
                    p.expect('[')?;
                    loop {
                        p.skip_ws();
                        if p.eat(']') {
                            break;
                        }
                        let entry = p.object()?;
                        let get = |k: &str| {
                            entry
                                .get(k)
                                .cloned()
                                .ok_or_else(|| format!("baseline entry missing \"{k}\""))
                        };
                        let key = (get("file")?, get("rule")?, get("message")?);
                        *counts.entry(key).or_default() += 1;
                        p.skip_ws();
                        if !p.eat(',') {
                            p.skip_ws();
                            p.expect(']')?;
                            break;
                        }
                    }
                }
                other => return Err(format!("unknown baseline key \"{other}\"")),
            }
            p.skip_ws();
            if !p.eat(',') {
                p.skip_ws();
                p.expect('}')?;
                break;
            }
        }
        if !saw_tag {
            return Err("missing \"simlint_baseline\" version tag".into());
        }
        Ok(Baseline { counts })
    }
}

/// Minimal JSON-subset cursor for [`Baseline::parse`].
struct Parser {
    chars: Vec<char>,
    i: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self.chars.get(self.i).is_some_and(|c| c.is_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.chars.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!(
                "expected '{c}' at offset {}, found {:?}",
                self.i,
                self.chars.get(self.i)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.chars.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(&e) = self.chars.get(self.i) else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let hex: String = self.chars
                                [self.i..(self.i + 4).min(self.chars.len())]
                                .iter()
                                .collect();
                            if hex.len() != 4 {
                                return Err("truncated \\u escape".into());
                            }
                            self.i += 4;
                            let v = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape \"{hex}\""))?;
                            out.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{other}'")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self
            .chars
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            self.i += 1;
        }
        let s: String = self.chars[start..self.i].iter().collect();
        s.parse().map_err(|_| format!("bad number \"{s}\""))
    }

    /// Parses `{ "k": "v", ... }` with string values only.
    fn object(&mut self) -> Result<BTreeMap<String, String>, String> {
        self.skip_ws();
        self.expect('{')?;
        let mut out = BTreeMap::new();
        loop {
            self.skip_ws();
            if self.eat('}') {
                break;
            }
            let k = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let v = self.string()?;
            out.insert(k, v);
            self.skip_ws();
            if !self.eat(',') {
                self.skip_ws();
                self.expect('}')?;
                break;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, msg: &str) -> Finding {
        Finding {
            file: file.into(),
            line: 1,
            col: 1,
            rule: "no-panic-in-lib",
            message: msg.into(),
        }
    }

    #[test]
    fn round_trip() {
        let fs = vec![
            finding("a.rs", "m1"),
            finding("a.rs", "m1"),
            finding("b.rs", "m\"2\""),
        ];
        let b = Baseline::from_findings(&fs);
        let parsed = Baseline::parse(&b.render()).expect("round trip");
        assert_eq!(parsed, b);
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn empty_round_trip() {
        let b = Baseline::from_findings(&[]);
        assert!(b.is_empty());
        let parsed = Baseline::parse(&b.render()).expect("round trip");
        assert!(parsed.is_empty());
    }

    #[test]
    fn drift_detects_new_and_stale() {
        let b = Baseline::from_findings(&[finding("a.rs", "m1"), finding("b.rs", "m2")]);
        // m1 still present, m2 fixed, m3 introduced.
        let now = vec![finding("a.rs", "m1"), finding("c.rs", "m3")];
        let d = b.drift(&now);
        assert_eq!(d.new, vec![1]);
        assert_eq!(d.stale.len(), 1);
        assert_eq!(d.stale[0].0, "b.rs");
    }

    #[test]
    fn multiset_counts_matter() {
        let b = Baseline::from_findings(&[finding("a.rs", "m")]);
        let now = vec![finding("a.rs", "m"), finding("a.rs", "m")];
        let d = b.drift(&now);
        assert_eq!(d.new.len(), 1, "second copy of the same finding is new");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("not json").is_err());
        assert!(
            Baseline::parse("{\"entries\": []}").is_err(),
            "missing version tag"
        );
        assert!(Baseline::parse("{\"simlint_baseline\": 1, \"entries\": []}").is_err());
    }
}
