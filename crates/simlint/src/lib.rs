//! simlint — determinism & unit-safety static analysis for the
//! simulator workspace.
//!
//! The evaluation in this repository is a trace-driven simulation
//! study: its results are only meaningful if runs are bit-for-bit
//! reproducible *and* the event kernel keeps its allocation-free,
//! bounded-memory contract. Nothing in the language stops a contributor
//! from introducing `HashMap` iteration order, a stray `unwrap()`, or a
//! `Vec::push` on the dispatch path — so this tool does, as an in-tree
//! lint (the registry mirror is unreachable; external lint crates are
//! off the table, following the `testkit` precedent).
//!
//! The v2 pipeline: a hand-rolled [`lexer`] turns each `.rs` file into
//! a token stream; [`parse`] pairs brackets into a token tree and
//! extracts an item outline ([`ast`]: fns with body spans and the
//! `// simlint: hot` marker, impl owners, struct fields); [`flow`]
//! answers intra-body questions (calls, let bindings, methods invoked
//! through a field); [`callgraph`] propagates properties transitively
//! within a crate; [`scope`] marks `#[cfg(test)]` / `mod tests`
//! regions, parses the `// simlint: allow(<rule>)` allowlist, and
//! classifies files; [`rules`] holds the file-scope token rules and the
//! crate-scope syntax-aware rules. This module glues them into a
//! workspace walk with structured `file:line:col: rule: message`
//! diagnostics, byte-stable `--format json` output ([`json`]), and an
//! accepted-findings drift gate ([`baseline`]).
//!
//! Run it as a workspace binary:
//!
//! ```text
//! cargo run --release -p simlint -- --deny-all --baseline simlint.baseline.json
//! ```

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod flow;
pub mod json;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scope;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ast::Outline;
use lexer::{tokenize, Tok};
use parse::Brackets;
use rules::{check, check_crate, rule_applies, CrateFile, Finding, RuleInfo, RuleScope, RULES};
use scope::{allow_map, classify, in_test, test_spans, FileClass};

/// One file, fully analyzed: tokens, bracket map, outline, test spans,
/// and allowlist. Parsed once, shared by every rule.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path with forward slashes.
    pub label: String,
    /// Crate and role.
    pub class: FileClass,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Bracket-pairing map over `toks`.
    pub brackets: Brackets,
    /// Item outline.
    pub outline: Outline,
    test_spans: Vec<(usize, usize)>,
    allows: BTreeMap<u32, BTreeSet<String>>,
}

/// Parses one file's source text into the form the rules consume.
pub fn parse_source(label: &str, source: &str, class: &FileClass) -> ParsedFile {
    let toks = tokenize(source);
    let brackets = parse::brackets(&toks);
    let outline = parse::outline(&toks, &brackets);
    let test_spans = test_spans(&toks);
    let allows = allow_map(&toks);
    ParsedFile {
        label: label.to_string(),
        class: class.clone(),
        toks,
        brackets,
        outline,
        test_spans,
        allows,
    }
}

impl ParsedFile {
    /// True if `line` allowlists `rule` (or `all`).
    fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allows
            .get(&line)
            .map(|set| set.contains(rule) || set.contains("all"))
            .unwrap_or(false)
    }
}

/// Runs every enabled rule over a set of parsed files: file-scope rules
/// per file, crate-scope rules per crate group. Findings suppressed by
/// the in-source allowlist are dropped; test regions never produce
/// findings. Output is globally sorted by (file, line, col, rule).
pub fn lint_files(files: &[ParsedFile], enabled: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();

    // File-scope token rules.
    for pf in files {
        for rule in RULES {
            if rule.scope != RuleScope::File
                || !enabled.contains(rule.name)
                || !rule_applies(rule, &pf.class)
            {
                continue;
            }
            let skip = |i: usize| in_test(&pf.test_spans, i);
            for f in check(rule, &pf.label, &pf.toks, &skip) {
                if !pf.allowed(f.line, rule.name) {
                    findings.push(f);
                }
            }
        }
    }

    // Crate-scope rules: group files by crate, then hand each rule the
    // files it applies to (so a crate's tests/benches never feed the
    // call graph or the field-usage evidence).
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, pf) in files.iter().enumerate() {
        by_crate
            .entry(pf.class.crate_name.as_str())
            .or_default()
            .push(i);
    }
    let by_label: BTreeMap<&str, &ParsedFile> =
        files.iter().map(|pf| (pf.label.as_str(), pf)).collect();
    for rule in RULES {
        if rule.scope != RuleScope::Crate || !enabled.contains(rule.name) {
            continue;
        }
        for idxs in by_crate.values() {
            let sel: Vec<CrateFile<'_>> = idxs
                .iter()
                .map(|&i| &files[i])
                .filter(|pf| rule_applies(rule, &pf.class))
                .map(|pf| CrateFile {
                    label: &pf.label,
                    toks: &pf.toks,
                    brackets: &pf.brackets,
                    outline: &pf.outline,
                })
                .collect();
            if sel.is_empty() {
                continue;
            }
            for f in check_crate(rule, &sel) {
                let allowed = by_label
                    .get(f.file.as_str())
                    .map(|pf| pf.allowed(f.line, rule.name))
                    .unwrap_or(false);
                if !allowed {
                    findings.push(f);
                }
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings
}

/// Lints one file's source text under an explicit classification.
///
/// This is the unit the fixture tests drive directly; crate-scope rules
/// see the file as a one-file crate.
pub fn lint_source(
    file: &str,
    source: &str,
    class: &FileClass,
    enabled: &BTreeSet<String>,
) -> Vec<Finding> {
    lint_files(&[parse_source(file, source, class)], enabled)
}

/// Default skip list used when the workspace has no `.simlintignore`.
const DEFAULT_IGNORES: &[&str] = &["target", ".git", "crates/simlint/tests/fixtures"];

/// The skip list for a workspace walk.
///
/// Loaded from `<root>/.simlintignore` (one entry per line, `#`
/// comments); falls back to `DEFAULT_IGNORES`. An entry containing
/// `/` is anchored at the workspace root and skips that exact path
/// (and everything under it); a bare name skips any directory with
/// that name at any depth.
#[derive(Debug, Clone)]
pub struct IgnoreList {
    entries: Vec<String>,
}

impl IgnoreList {
    /// Loads `<root>/.simlintignore`, or the built-in defaults.
    pub fn load(root: &Path) -> IgnoreList {
        match fs::read_to_string(root.join(".simlintignore")) {
            Ok(text) => IgnoreList {
                entries: text
                    .lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .map(|l| l.trim_end_matches('/').to_string())
                    .collect(),
            },
            Err(_) => IgnoreList {
                entries: DEFAULT_IGNORES.iter().map(|s| s.to_string()).collect(),
            },
        }
    }

    /// True if the workspace-relative path `rel` (forward slashes)
    /// should be skipped.
    pub fn matches(&self, rel: &str) -> bool {
        for e in &self.entries {
            if e.contains('/') {
                if rel == e || rel.starts_with(&format!("{e}/")) {
                    return true;
                }
            } else if rel.split('/').any(|seg| seg == e) {
                return true;
            }
        }
        false
    }
}

/// Recursively collects every `.rs` file under `root`, honoring the
/// workspace's `.simlintignore` skip list (build output, VCS metadata,
/// and simlint's own deliberately-violating fixtures by default).
/// Sorted for deterministic reporting.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let ignores = IgnoreList::load(root);
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if ignores.matches(&rel) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Result of linting a whole workspace.
#[derive(Debug, Clone)]
pub struct Report {
    /// All surviving findings, ordered by file then position.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Lints every Rust source under `root` with the `enabled` rules.
pub fn lint_workspace(root: &Path, enabled: &BTreeSet<String>) -> io::Result<Report> {
    let sources = collect_sources(root)?;
    let files_scanned = sources.len();
    let mut parsed = Vec::with_capacity(files_scanned);
    for path in sources {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let class = classify(&rel);
        let source = fs::read_to_string(&path)?;
        let label = rel.to_string_lossy().replace('\\', "/");
        parsed.push(parse_source(&label, &source, &class));
    }
    let findings = lint_files(&parsed, enabled);
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// The default rule set: every rule enabled.
pub fn all_rules() -> BTreeSet<String> {
    RULES.iter().map(|r| r.name.to_string()).collect()
}

/// Looks up rule metadata by name (re-exported for the CLI).
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    rules::rule_by_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope::FileKind;

    fn lib_class(krate: &str) -> FileClass {
        FileClass {
            crate_name: krate.into(),
            kind: FileKind::Lib,
        }
    }

    #[test]
    fn findings_filtered_by_allowlist_and_region() {
        let src = "\
use std::collections::HashMap;
let keep = std::collections::HashMap::new(); // simlint: allow(no-unordered-iteration)
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
}
";
        let f = lint_source("x.rs", src, &lib_class("simkit"), &all_rules());
        assert_eq!(f.len(), 1, "only the first HashMap should survive: {f:?}");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].rule, "no-unordered-iteration");
    }

    #[test]
    fn disabled_rule_is_silent() {
        let mut enabled = all_rules();
        enabled.remove("no-unordered-iteration");
        let f = lint_source(
            "x.rs",
            "use std::collections::HashMap;",
            &lib_class("simkit"),
            &enabled,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn out_of_scope_crate_is_silent() {
        let f = lint_source(
            "x.rs",
            "use std::collections::HashMap; let t = Instant::now();",
            &lib_class("testkit"),
            &all_rules(),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn findings_are_position_sorted() {
        let src = "let b = y.unwrap();\nlet a = std::time::Instant::now();\n";
        let f = lint_source("x.rs", src, &lib_class("intradisk"), &all_rules());
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }

    #[test]
    fn display_format_is_structured() {
        let f = lint_source(
            "crates/simkit/src/event.rs",
            "let t = Instant::now();",
            &lib_class("simkit"),
            &all_rules(),
        );
        let line = f[0].to_string();
        assert!(
            line.starts_with("crates/simkit/src/event.rs:1:9: no-wall-clock:"),
            "unexpected diagnostic format: {line}"
        );
    }

    #[test]
    fn crate_rules_run_across_files_of_one_crate() {
        // The hot annotation is in one file; the callee with the
        // allocation lives in another file of the same crate.
        let a = parse_source(
            "crates/simkit/src/a.rs",
            "// simlint: hot\npub fn root() { helper(); }\n",
            &lib_class("simkit"),
        );
        let b = parse_source(
            "crates/simkit/src/b.rs",
            "pub fn helper() { let mut v = Vec::new(); v.push(1); }\n",
            &lib_class("simkit"),
        );
        let f = lint_files(&[a, b], &all_rules());
        let alloc: Vec<_> = f
            .iter()
            .filter(|f| f.rule == "no-alloc-in-hot-path")
            .collect();
        assert_eq!(
            alloc.len(),
            2,
            "Vec::new and push in the cross-file callee: {f:?}"
        );
        assert!(alloc.iter().all(|f| f.file == "crates/simkit/src/b.rs"));
    }

    #[test]
    fn crate_rules_do_not_cross_crates() {
        let a = parse_source(
            "crates/simkit/src/a.rs",
            "// simlint: hot\npub fn root() { helper(); }\n",
            &lib_class("simkit"),
        );
        let b = parse_source(
            "crates/intradisk/src/b.rs",
            "pub fn helper() { let mut v = Vec::new(); v.push(1); }\n",
            &lib_class("intradisk"),
        );
        let f = lint_files(&[a, b], &all_rules());
        assert!(
            f.iter().all(|f| f.rule != "no-alloc-in-hot-path"),
            "hot must not propagate across crates: {f:?}"
        );
    }

    #[test]
    fn ignore_list_semantics() {
        let ig = IgnoreList {
            entries: vec!["target".into(), "crates/simlint/tests/fixtures".into()],
        };
        assert!(ig.matches("target"));
        assert!(ig.matches("crates/foo/target/debug/x.rs"));
        assert!(ig.matches("crates/simlint/tests/fixtures"));
        assert!(ig.matches("crates/simlint/tests/fixtures/hot.rs"));
        assert!(
            !ig.matches("crates/other/tests/fixtures/x.rs"),
            "anchored entry"
        );
        assert!(
            !ig.matches("crates/simlint/tests/fixtures_helper.rs"),
            "prefix only at /"
        );
    }

    #[test]
    fn collect_sources_honors_simlintignore() {
        let base = std::env::temp_dir().join(format!("simlint-ignore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(base.join("src")).expect("mkdir");
        fs::create_dir_all(base.join("skipme")).expect("mkdir");
        fs::create_dir_all(base.join("nested/fixtures")).expect("mkdir");
        fs::write(base.join("src/lib.rs"), "").expect("write");
        fs::write(base.join("skipme/a.rs"), "").expect("write");
        fs::write(base.join("nested/fixtures/b.rs"), "").expect("write");
        fs::write(base.join(".simlintignore"), "# comment\nskipme\n").expect("write");
        let files = collect_sources(&base).expect("walk");
        let rels: Vec<String> = files
            .iter()
            .map(|p| {
                p.strip_prefix(&base)
                    .expect("rel")
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        assert_eq!(
            rels,
            vec!["nested/fixtures/b.rs", "src/lib.rs"],
            "skipme is ignored; a non-simlint fixtures dir is linted"
        );
        fs::remove_dir_all(&base).expect("cleanup");
    }
}
