//! Scoping: which tokens are test-only, which lines are allowlisted,
//! and which crate/role a file plays in the workspace.
//!
//! The determinism rules gate *shipped simulator code*. Test modules
//! (`#[cfg(test)]`, `#[test]`, `mod tests`), integration tests,
//! examples, and benches may use wall-clock time, hash maps, or
//! `unwrap()` freely — they do not run inside a simulation. The
//! allowlist (`// simlint: allow(<rule>)`) records the deliberate
//! exceptions that remain in library code, each of which should carry
//! a justification in the surrounding comment.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lexer::{Tok, TokKind};

/// Role of one `.rs` file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `crates/<name>/src/`.
    Lib,
    /// Binary source under `crates/<name>/src/bin/` (or `main.rs`).
    Bin,
    /// Integration tests (`crates/<name>/tests/`, workspace `tests/`).
    Test,
    /// Examples.
    Example,
    /// Bench harnesses.
    Bench,
}

/// Which crate a file belongs to and what role it plays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate name (`""` when the file belongs to no crate we scope).
    pub crate_name: String,
    /// Role of the file.
    pub kind: FileKind,
}

impl FileClass {
    /// True for roles that run only under `cargo test`/examples/benches
    /// and are therefore exempt from every rule.
    pub fn is_test_like(&self) -> bool {
        matches!(
            self.kind,
            FileKind::Test | FileKind::Example | FileKind::Bench
        )
    }
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &Path) -> FileClass {
    let parts: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    match parts.as_slice() {
        ["crates", name, "src", "bin", ..] => FileClass {
            crate_name: (*name).to_string(),
            kind: FileKind::Bin,
        },
        ["crates", name, "src", ..] => FileClass {
            crate_name: (*name).to_string(),
            kind: FileKind::Lib,
        },
        ["crates", name, "tests", ..] => FileClass {
            crate_name: (*name).to_string(),
            kind: FileKind::Test,
        },
        ["crates", name, "benches", ..] => FileClass {
            crate_name: (*name).to_string(),
            kind: FileKind::Bench,
        },
        ["crates", name, "examples", ..] => FileClass {
            crate_name: (*name).to_string(),
            kind: FileKind::Example,
        },
        // Workspace-level test/example directories (wired to the
        // experiments crate via explicit [[test]]/[[example]] tables).
        ["tests", ..] => FileClass {
            crate_name: "experiments".to_string(),
            kind: FileKind::Test,
        },
        ["examples", ..] => FileClass {
            crate_name: "experiments".to_string(),
            kind: FileKind::Example,
        },
        _ => FileClass {
            crate_name: String::new(),
            kind: FileKind::Lib,
        },
    }
}

/// Token-index spans (inclusive start, inclusive end) of test-only
/// regions: the brace block following `#[cfg(test)]`-style attributes
/// or introducing `mod tests`.
pub fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // `#[ ... test ... ]` — covers #[test], #[cfg(test)],
        // #[cfg(any(test, ...))], #[cfg_attr(test, ...)].
        if toks[i].is_op("#") && next_code(toks, i + 1).map(|j| toks[j].is_op("[")) == Some(true) {
            let open = next_code(toks, i + 1).expect("checked above");
            if let Some(close) = matching(toks, open, "[", "]") {
                let mentions_test = toks[open..=close].iter().any(|t| t.is_ident("test"));
                if mentions_test {
                    if let Some((start, end)) = following_block(toks, close + 1) {
                        spans.push((start, end));
                        i = start + 1;
                        continue;
                    }
                }
                i = close + 1;
                continue;
            }
        }
        // `mod tests {` / `mod test {`.
        if toks[i].is_ident("mod") {
            if let Some(j) = next_code(toks, i + 1) {
                if toks[j].kind == TokKind::Ident
                    && (toks[j].text == "tests" || toks[j].text == "test")
                {
                    if let Some(k) = next_code(toks, j + 1) {
                        if toks[k].is_op("{") {
                            if let Some(end) = matching(toks, k, "{", "}") {
                                spans.push((k, end));
                                i = k + 1;
                                continue;
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
    spans
}

/// True if token index `idx` falls inside any test span.
pub fn in_test(spans: &[(usize, usize)], idx: usize) -> bool {
    spans.iter().any(|&(s, e)| idx >= s && idx <= e)
}

/// Index of the next non-comment token at or after `from`.
fn next_code(toks: &[Tok], from: usize) -> Option<usize> {
    (from..toks.len())
        .find(|&j| !matches!(toks[j].kind, TokKind::LineComment | TokKind::BlockComment))
}

/// Index of the delimiter matching `toks[open]` (which must be `od`).
fn matching(toks: &[Tok], open: usize, od: &str, cd: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_op(od) {
            depth += 1;
        } else if t.is_op(cd) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Finds the brace block of the item that starts at `from` (after an
/// attribute): the first `{ ... }` before a top-level `;`. Returns the
/// span of the block, or `None` for braceless items (`#[cfg(test)] use
/// ...;`).
fn following_block(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let mut j = from;
    while j < toks.len() {
        if toks[j].is_op(";") {
            return None;
        }
        if toks[j].is_op("{") {
            let end = matching(toks, j, "{", "}")?;
            return Some((j, end));
        }
        j += 1;
    }
    None
}

/// Per-line allowlist parsed from `// simlint: allow(rule-a, rule-b)`
/// comments. A trailing comment suppresses findings on its own line; a
/// comment alone on its line suppresses findings on the next *code*
/// line — intervening comment lines (the justification the allow is
/// expected to carry) don't break the attachment.
pub fn allow_map(toks: &[Tok]) -> BTreeMap<u32, BTreeSet<String>> {
    let mut map: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let Some(rules) = parse_allow(&t.text) else {
            continue;
        };
        let standalone = !toks[..i]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| !matches!(p.kind, TokKind::LineComment | TokKind::BlockComment));
        let target = if standalone {
            toks[i + 1..]
                .iter()
                .find(|n| !matches!(n.kind, TokKind::LineComment | TokKind::BlockComment))
                .map(|n| n.line)
                .unwrap_or(t.line + 1)
        } else {
            t.line
        };
        map.entry(target).or_default().extend(rules);
    }
    map
}

/// Extracts the rule list from a `simlint: allow(...)` comment, if the
/// comment is one.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let at = comment.find("simlint:")?;
    let rest = comment[at + "simlint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    Some(
        rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use std::path::PathBuf;

    #[test]
    fn classify_paths() {
        let c = |p: &str| classify(&PathBuf::from(p));
        assert_eq!(
            c("crates/simkit/src/event.rs"),
            FileClass {
                crate_name: "simkit".into(),
                kind: FileKind::Lib
            }
        );
        assert_eq!(c("crates/experiments/src/bin/repro.rs").kind, FileKind::Bin);
        assert_eq!(
            c("crates/intradisk/tests/edge_cases.rs").kind,
            FileKind::Test
        );
        assert_eq!(c("crates/bench/benches/figures.rs").kind, FileKind::Bench);
        assert_eq!(c("tests/oracles.rs").kind, FileKind::Test);
        assert_eq!(c("examples/quickstart.rs").kind, FileKind::Example);
        assert!(c("tests/oracles.rs").is_test_like());
        assert!(!c("crates/array/src/controller.rs").is_test_like());
    }

    #[test]
    fn cfg_test_module_is_a_test_span() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let toks = tokenize(src);
        let spans = test_spans(&toks);
        assert_eq!(spans.len(), 1);
        let helper = toks
            .iter()
            .position(|t| t.is_ident("helper"))
            .expect("helper");
        let lib = toks.iter().position(|t| t.is_ident("lib")).expect("lib");
        assert!(in_test(&spans, helper));
        assert!(!in_test(&spans, lib));
    }

    #[test]
    fn test_attribute_function_is_a_test_span() {
        let src = "#[test]\nfn check() { body(); }\nfn real() {}";
        let toks = tokenize(src);
        let spans = test_spans(&toks);
        let body = toks.iter().position(|t| t.is_ident("body")).expect("body");
        let real = toks.iter().position(|t| t.is_ident("real")).expect("real");
        assert!(in_test(&spans, body));
        assert!(!in_test(&spans, real));
    }

    #[test]
    fn mod_tests_without_attribute_counts() {
        let src = "mod tests { fn inner() {} }\nfn outer() {}";
        let toks = tokenize(src);
        let spans = test_spans(&toks);
        let inner = toks
            .iter()
            .position(|t| t.is_ident("inner"))
            .expect("inner");
        assert!(in_test(&spans, inner));
    }

    #[test]
    fn braceless_cfg_test_item_has_no_span() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {}";
        let toks = tokenize(src);
        // The `use` has no block; nothing should be marked.
        assert!(test_spans(&toks).is_empty());
    }

    #[test]
    fn derive_test_does_not_trip() {
        // `Test` (capitalised) in a derive is not the ident `test`.
        let src = "#[derive(Debug)]\nstruct S { x: u32 }\nfn f() {}";
        let toks = tokenize(src);
        assert!(test_spans(&toks).is_empty());
    }

    #[test]
    fn allow_trailing_and_standalone() {
        let src = "\
let a = x.unwrap(); // simlint: allow(no-panic-in-lib)
// simlint: allow(no-float-eq, no-wall-clock)
let b = 1.0 == y;
";
        let toks = tokenize(src);
        let map = allow_map(&toks);
        assert!(map[&1].contains("no-panic-in-lib"));
        assert!(map[&3].contains("no-float-eq"));
        assert!(map[&3].contains("no-wall-clock"));
        assert!(!map.contains_key(&2));
    }

    #[test]
    fn standalone_allow_skips_justification_comments() {
        let src = "\
// simlint: allow(unbounded-sim-state) — deliberately O(samples):
// exact percentiles need every sample; see the module docs.
let samples = Vec::new();
";
        let toks = tokenize(src);
        let map = allow_map(&toks);
        assert!(
            map[&3].contains("unbounded-sim-state"),
            "attaches past comment lines"
        );
        assert!(!map.contains_key(&2));
    }

    #[test]
    fn non_allow_comments_ignored() {
        let toks = tokenize("// just a note about simlint\nlet x = 1;");
        assert!(allow_map(&toks).is_empty());
    }
}
