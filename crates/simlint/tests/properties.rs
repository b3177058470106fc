//! Property tests for the analysis pipeline: the lexer, bracket
//! matcher, outline parser, and full rule engine must be *total* —
//! lint input is other people's code mid-edit, so no input, however
//! mangled, may panic or produce an inconsistent bracket map.

use simlint::parse::{brackets, outline, token_tree};
use simlint::scope::{FileClass, FileKind};
use simlint::{all_rules, lexer::tokenize, lint_source};
use testkit::{check, gen};

/// Source fragments the adversarial generator splices together: item
/// heads without bodies, stray closers, comment markers, string
/// literals containing brackets, hot markers, attribute openers.
const FRAGMENTS: &[&str] = &[
    "fn f() {",
    "}",
    "{",
    ")",
    "]",
    "(",
    "[",
    "pub fn g(a: u32) -> u64 {",
    "struct S",
    "struct T { x: Vec<u64>, }",
    "impl Drive {",
    "impl",
    "trait",
    "mod m {",
    "mod tests {",
    "#[cfg(test)]",
    "#[",
    "// simlint: hot",
    "// simlint: allow(no-panic-in-lib)",
    "// plain comment",
    "/* block",
    "*/",
    "let x = v.push(1);",
    "let Some(e) = slab.get(k) else {",
    "x.unwrap()",
    "match e {",
    "_ => 0,",
    "TraceEvent::Complete { .. } => 1,",
    "\"string with } and ( inside\"",
    "'}'",
    "ident",
    "Vec::<u64>::new()",
    "a << b >> c",
    "::",
    "<",
    ">",
    ";",
    ",",
    "=>",
    "1.5e3",
    "0xff",
    "=",
    "let",
    "r#\"raw ) text\"#",
];

fn adversarial_source() -> testkit::Gen<String> {
    gen::vec_of(gen::usize_in(0..=FRAGMENTS.len() - 1), 0..=40).and_then(|p| {
        gen::vec_of(gen::usize_in(0..=2), 0..=40).map(move |s| {
            let mut out = String::new();
            for (i, &f) in p.iter().enumerate() {
                out.push_str(FRAGMENTS[f]);
                out.push_str(match s.get(i) {
                    Some(0) => " ",
                    Some(1) => "\n",
                    _ => "\t",
                });
            }
            out
        })
    })
}

#[test]
fn pipeline_is_total_on_adversarial_sources() {
    check("simlint_pipeline_never_panics", |t| {
        let src = t.draw(&adversarial_source());
        let toks = tokenize(&src);
        let (_tree, br) = token_tree(&toks);
        let o = outline(&toks, &br);

        // The bracket map is internally consistent even when the
        // source is unbalanced: every recorded pair points at a
        // matching open/close of the same shape, in order.
        for open in 0..toks.len() {
            let Some(close) = br.close_of(open) else {
                continue;
            };
            assert!(open < close && close < toks.len(), "pair out of range");
            let expect = match toks[open].text.as_str() {
                "(" => ")",
                "[" => "]",
                "{" => "}",
                other => panic!("close recorded for non-open token {other:?}"),
            };
            assert_eq!(toks[close].text, expect, "mismatched pair shape");
        }

        // Outline spans stay inside the token stream and start/end on
        // a brace pair.
        for f in &o.fns {
            if let Some((a, b)) = f.body {
                assert!(a < b && b < toks.len(), "fn body span out of range");
                assert!(
                    toks[a].is_op("{") && toks[b].is_op("}"),
                    "fn body not a brace block"
                );
            }
        }

        // The full engine (file rules + crate rules over the one-file
        // crate) must not panic either, for every crate class.
        for krate in ["simkit", "intradisk", "telemetry", "testkit"] {
            let class = FileClass {
                crate_name: krate.to_string(),
                kind: FileKind::Lib,
            };
            let _ = lint_source("fuzz.rs", &src, &class, &all_rules());
        }
    });
}

/// One non-delimiter atom.
fn atom() -> testkit::Gen<String> {
    gen::one_of(vec![
        "x",
        "1",
        ";",
        ",",
        "fn",
        "f",
        "+",
        "ident",
        "// note\n",
        "\"s\"",
    ])
    .map(|a| format!("{a} "))
}

/// Recursively generates a source whose delimiters all balance.
fn balanced_source(depth: usize) -> testkit::Gen<String> {
    if depth == 0 {
        return atom();
    }
    gen::usize_in(0..=3).and_then(move |kind| match kind {
        0 => gen::one_of(vec![("(", ")"), ("[", "]"), ("{", "}")]).and_then(move |(o, c)| {
            balanced_source(depth - 1).map(move |inner| format!("{o} {inner} {c} "))
        }),
        1 => balanced_source(depth - 1)
            .and_then(move |a| balanced_source(depth - 1).map(move |b| format!("{a}{b}"))),
        _ => atom(),
    })
}

#[test]
fn balanced_sources_report_balanced_brackets() {
    check("simlint_balanced_brackets_detected", |t| {
        let src = t.draw(&balanced_source(4));
        let toks = tokenize(&src);
        let br = brackets(&toks);
        assert!(
            br.balanced,
            "generator produced only matched delimiters: {src:?}"
        );
        // Every open delimiter has a recorded partner.
        for (i, tok) in toks.iter().enumerate() {
            if matches!(tok.text.as_str(), "(" | "[" | "{") {
                assert!(
                    br.close_of(i).is_some(),
                    "open at {i} unpaired in balanced source"
                );
            }
        }
    });
}
