//! Dataflow-lite: intra-body token walks the crate-scope rules share.
//!
//! Nothing here builds an expression tree. Each helper answers one
//! narrow question over a function-body token range — which calls does
//! this body make (with receiver and turbofish handled), which locals
//! does it bind and to what initializer, which methods does it invoke
//! on a given field or local — precisely enough for the rules in
//! [`crate::rules`] and cheap enough to run over the whole workspace on
//! every verify.

use crate::lexer::{Tok, TokKind};
use crate::parse::Brackets;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(...)` — `receiver` is the single code token before
    /// the dot (`self`, a local, `)`/`]` for chained receivers).
    Method {
        /// Text of the receiver token, if it was an identifier.
        receiver: Option<String>,
    },
    /// `Qualifier::name(...)` — `Vec::new`, `Self::helper`.
    Qualified(String),
    /// `name(...)` with no path or receiver.
    Free,
    /// `name!(...)` / `name![...]` / `name!{...}`.
    Macro,
}

/// One call site inside a body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee classification.
    pub kind: CallKind,
    /// Callee name (method, fn, or macro name).
    pub name: String,
    /// Token index of the callee name.
    pub tok: usize,
}

/// One `let` binding (including `if let`/`while let`).
#[derive(Debug, Clone)]
pub struct Binding {
    /// Names bound by the pattern (lowercase idents only; enum
    /// constructors like `Some` are skipped).
    pub names: Vec<String>,
    /// True when the pattern is a bare `[mut] name` — the binding holds
    /// the initializer's value itself, not a destructured part of it.
    pub simple: bool,
    /// Token range `[start, end)` of the initializer expression.
    pub init: (usize, usize),
}

/// True for comment tokens.
fn is_comment(t: &Tok) -> bool {
    matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
}

/// Next non-comment token index in `[from, end)`.
pub fn next_code(toks: &[Tok], from: usize, end: usize) -> Option<usize> {
    (from..end.min(toks.len())).find(|&j| !is_comment(&toks[j]))
}

/// Previous non-comment token index before `at`, if any.
pub fn prev_code(toks: &[Tok], at: usize) -> Option<usize> {
    (0..at).rev().find(|&j| !is_comment(&toks[j]))
}

/// Skips a turbofish (`::<...>`) starting at `i` if one is present,
/// returning the index of the token after it (or `i` unchanged).
pub fn after_turbofish(toks: &[Tok], i: usize, end: usize) -> usize {
    let Some(colons) = next_code(toks, i, end).filter(|&j| toks[j].is_op("::")) else {
        return i;
    };
    let Some(lt) = next_code(toks, colons + 1, end).filter(|&j| toks[j].is_op("<")) else {
        return i;
    };
    let mut angle: i32 = 0;
    let mut j = lt;
    while j < end.min(toks.len()) {
        if toks[j].kind == TokKind::Op {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                _ => {}
            }
            if angle <= 0 && matches!(toks[j].text.as_str(), ">" | ">>") {
                return j + 1;
            }
        }
        j += 1;
    }
    i
}

/// Extracts every call site in `[start, end)`.
///
/// Definitions are excluded (`fn name(` is not a call); turbofish is
/// skipped, so `collect::<Vec<_>>()` reports `collect` as a method.
pub fn calls(toks: &[Tok], range: (usize, usize)) -> Vec<Call> {
    let (start, end) = range;
    let end = end.min(toks.len());
    let mut out = Vec::new();
    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Macro invocation: `name!` followed by any open delimiter.
        if let Some(bang) = next_code(toks, i + 1, end).filter(|&j| toks[j].is_op("!")) {
            let delim = next_code(toks, bang + 1, end)
                .map(|j| toks[j].is_op("(") || toks[j].is_op("[") || toks[j].is_op("{"))
                .unwrap_or(false);
            if delim {
                out.push(Call {
                    kind: CallKind::Macro,
                    name: t.text.clone(),
                    tok: i,
                });
                continue;
            }
        }
        // Call: ident [turbofish] `(`.
        let after_tf = after_turbofish(toks, i + 1, end);
        let is_call = next_code(toks, after_tf, end)
            .map(|j| toks[j].is_op("("))
            .unwrap_or(false);
        if !is_call {
            continue;
        }
        let prev = prev_code(toks, i);
        match prev.map(|p| &toks[p]) {
            Some(p) if p.is_op(".") => {
                let recv = prev_code(toks, prev.expect("is_op checked"))
                    .and_then(|r| (toks[r].kind == TokKind::Ident).then(|| toks[r].text.clone()));
                out.push(Call {
                    kind: CallKind::Method { receiver: recv },
                    name: t.text.clone(),
                    tok: i,
                });
            }
            Some(p) if p.is_op("::") => {
                let qualifier = prev_code(toks, prev.expect("is_op checked"))
                    .filter(|&q| toks[q].kind == TokKind::Ident)
                    .map(|q| toks[q].text.clone())
                    .unwrap_or_default();
                out.push(Call {
                    kind: CallKind::Qualified(qualifier),
                    name: t.text.clone(),
                    tok: i,
                });
            }
            Some(p) if p.is_ident("fn") => {
                // A definition, not a call.
            }
            _ => {
                if !is_keyword(&t.text) {
                    out.push(Call {
                        kind: CallKind::Free,
                        name: t.text.clone(),
                        tok: i,
                    });
                }
            }
        }
    }
    out
}

/// Keywords that syntactically precede a parenthesis but are not calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "in"
            | "let"
            | "else"
            | "loop"
            | "move"
            | "as"
            | "mut"
            | "ref"
            | "break"
            | "continue"
            | "unsafe"
            | "where"
    )
}

/// Extracts `let` bindings (plain, `if let`, `while let`) in the range.
pub fn bindings(toks: &[Tok], br: &Brackets, range: (usize, usize)) -> Vec<Binding> {
    let (start, end) = range;
    let end = end.min(toks.len());
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        // Pattern: tokens up to the `=` at nesting depth 0. A `:` at
        // depth 0 starts the type annotation — scanned past, but its
        // tokens neither bind names nor affect `simple`.
        let mut names = Vec::new();
        let mut simple = true;
        let mut in_type = false;
        let mut depth: i32 = 0;
        let mut j = i + 1;
        let mut eq = None;
        while j < end {
            let t = &toks[j];
            if t.is_op("=") && depth <= 0 {
                eq = Some(j);
                break;
            }
            if t.is_op(";") || t.is_op("{") {
                break; // `let else` without init or a parse we skip.
            }
            if t.kind == TokKind::Op {
                match t.text.as_str() {
                    "(" | "[" => {
                        depth += 1;
                        if !in_type {
                            // Tuple/slice patterns destructure.
                            simple = false;
                        }
                        j += 1;
                        continue;
                    }
                    ")" | "]" => {
                        depth -= 1;
                        j += 1;
                        continue;
                    }
                    ":" if depth <= 0 => {
                        in_type = true;
                        j += 1;
                        continue;
                    }
                    _ => {}
                }
            }
            if in_type || is_comment(t) {
                j += 1;
                continue;
            }
            let lowercase_ident = t.kind == TokKind::Ident
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_');
            if t.kind == TokKind::Ident
                && !matches!(t.text.as_str(), "mut" | "ref" | "box")
                && lowercase_ident
            {
                // Lowercase idents bind; `Some`/`Ok`/struct names don't.
                // A path segment (`m::CONST`) is not a binding either.
                let path = prev_code(toks, j)
                    .map(|p| toks[p].is_op("::"))
                    .unwrap_or(false)
                    || next_code(toks, j + 1, end)
                        .map(|n| toks[n].is_op("::"))
                        .unwrap_or(false);
                if !path {
                    names.push(t.text.clone());
                }
            } else if !t.is_ident("mut") && !t.is_ident("ref") {
                // Constructors, `_` wildcards inside, `..`, `&`, etc.
                simple = false;
            }
            j += 1;
        }
        if names.len() != 1 {
            simple = false;
        }
        let Some(eq) = eq else {
            i = j + 1;
            continue;
        };
        // Initializer: to the first `;` or block `{` at depth 0
        // (groups skipped via the bracket map).
        let mut k = eq + 1;
        let init_start = k;
        while k < end {
            let t = &toks[k];
            if t.is_op(";") || t.is_op("{") {
                break;
            }
            if t.kind == TokKind::Op && matches!(t.text.as_str(), "(" | "[") {
                k = br.close_of(k).map(|c| c + 1).unwrap_or(k + 1);
                continue;
            }
            k += 1;
        }
        out.push(Binding {
            names,
            simple,
            init: (init_start, k),
        });
        i = k;
    }
    out
}

/// Methods invoked through a field or local, following the chain:
/// `self.f[i].push(x)?` attributes `push` to `f`; every later link in
/// the same chain is attributed too (`self.f.entry(k).or_default()
/// .push(v)` yields `entry`, `or_default`, `push`).
///
/// Returns `(method name, token index of the method)` pairs.
pub fn methods_on(
    toks: &[Tok],
    br: &Brackets,
    range: (usize, usize),
    name: &str,
    is_field: bool,
) -> Vec<(String, usize)> {
    let (start, end) = range;
    let end = end.min(toks.len());
    let mut out = Vec::new();
    for i in start..end {
        if !toks[i].is_ident(name) {
            continue;
        }
        if is_field {
            // A field use is `<recv>.name` — require a preceding dot
            // (so a local that shadows the field name doesn't match).
            let dotted = prev_code(toks, i)
                .map(|p| toks[p].is_op("."))
                .unwrap_or(false);
            if !dotted {
                continue;
            }
        } else {
            // A local use must NOT be a field access or path segment.
            let p = prev_code(toks, i).map(|p| toks[p].is_op(".") || toks[p].is_op("::"));
            if p == Some(true) {
                continue;
            }
        }
        // Walk the chain: `[..]` indexes, `?`, `.method(...)`,
        // `.subfield`, stopping at anything else.
        let mut j = i + 1;
        while j < end {
            let Some(c) = next_code(toks, j, end) else {
                break;
            };
            let t = &toks[c];
            if t.is_op("[") {
                j = br.close_of(c).map(|x| x + 1).unwrap_or(c + 1);
                continue;
            }
            if t.is_op("?") {
                j = c + 1;
                continue;
            }
            if t.is_op(".") {
                let Some(m) = next_code(toks, c + 1, end) else {
                    break;
                };
                if toks[m].kind != TokKind::Ident {
                    break;
                }
                let after_tf = after_turbofish(toks, m + 1, end);
                match next_code(toks, after_tf, end) {
                    Some(p) if toks[p].is_op("(") => {
                        out.push((toks[m].text.clone(), m));
                        j = br.close_of(p).map(|x| x + 1).unwrap_or(p + 1);
                    }
                    _ => {
                        // Sub-field access: keep walking the chain.
                        j = m + 1;
                    }
                }
                continue;
            }
            break;
        }
    }
    out
}

/// True if the range contains `name` used under a mutable-state reset:
/// as an argument to `mem::take`/`mem::swap`/`mem::replace`, or on the
/// left of a plain `=` assignment (`self.f = ...` / `f = ...`).
pub fn is_reset(toks: &[Tok], br: &Brackets, range: (usize, usize), name: &str) -> bool {
    let (start, end) = range;
    let end = end.min(toks.len());
    for i in start..end {
        let t = &toks[i];
        // `mem :: take ( ... name ... )`.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "take" | "swap" | "replace")
            && prev_code(toks, i)
                .map(|p| toks[p].is_op("::"))
                .unwrap_or(false)
        {
            let qual_ok = prev_code(toks, i)
                .and_then(|p| prev_code(toks, p))
                .map(|q| toks[q].is_ident("mem"))
                .unwrap_or(false);
            if qual_ok {
                if let Some(open) = next_code(toks, i + 1, end).filter(|&o| toks[o].is_op("(")) {
                    let close = br.close_of(open).unwrap_or(end.saturating_sub(1));
                    if toks[open..=close.min(end - 1)]
                        .iter()
                        .any(|a| a.is_ident(name))
                    {
                        return true;
                    }
                }
            }
        }
        // `name = ...` / `name [i] = ...` (but not `==`, `<=`, ...;
        // the lexer keeps those as single ops).
        if t.is_ident(name) {
            let mut j = i + 1;
            while j < end {
                let Some(c) = next_code(toks, j, end) else {
                    break;
                };
                if toks[c].is_op("[") {
                    j = br.close_of(c).map(|x| x + 1).unwrap_or(c + 1);
                    continue;
                }
                if toks[c].is_op("=") {
                    return true;
                }
                break;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parse::brackets;

    fn with(src: &str) -> (Vec<Tok>, Brackets) {
        let toks = tokenize(src);
        let br = brackets(&toks);
        (toks, br)
    }

    #[test]
    fn calls_classify_method_qualified_free_macro() {
        let (toks, _) =
            with("self.q.push(x); Vec::new(); helper(1); format!(\"{x}\"); fn defn() {}");
        let cs = calls(&toks, (0, toks.len()));
        let find = |n: &str| cs.iter().find(|c| c.name == n);
        assert!(matches!(
            &find("push").expect("push").kind,
            CallKind::Method { .. }
        ));
        assert!(matches!(&find("new").expect("new").kind, CallKind::Qualified(q) if q == "Vec"));
        assert!(matches!(
            &find("helper").expect("helper").kind,
            CallKind::Free
        ));
        assert!(matches!(
            &find("format").expect("format").kind,
            CallKind::Macro
        ));
        assert!(find("defn").is_none(), "definitions are not calls");
    }

    #[test]
    fn turbofish_collect_is_a_method_call() {
        let (toks, _) = with("let v = it.collect::<Vec<_>>();");
        let cs = calls(&toks, (0, toks.len()));
        assert!(cs.iter().any(|c| c.name == "collect"));
    }

    #[test]
    fn bindings_capture_names_and_init() {
        let (toks, br) = with("let mut x = q.pop(); while let Some(e) = s.next() { }");
        let bs = bindings(&toks, &br, (0, toks.len()));
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].names, vec!["x"]);
        assert!(bs[0].simple);
        assert_eq!(bs[1].names, vec!["e"], "Some is not a binding");
        assert!(!bs[1].simple, "Some(e) destructures");
        let init_text: Vec<_> = (bs[0].init.0..bs[0].init.1)
            .map(|i| toks[i].text.as_str())
            .collect();
        assert_eq!(init_text, vec!["q", ".", "pop", "(", ")"]);
    }

    #[test]
    fn methods_on_field_follow_the_chain() {
        let (toks, br) =
            with("self.overflow.entry(g).or_default().push(e); self.slots[i].push(x);");
        let ms = methods_on(&toks, &br, (0, toks.len()), "overflow", true);
        let names: Vec<_> = ms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["entry", "or_default", "push"]);
        let ms2 = methods_on(&toks, &br, (0, toks.len()), "slots", true);
        assert_eq!(ms2.len(), 1);
        assert_eq!(ms2[0].0, "push");
    }

    #[test]
    fn methods_on_local_ignores_fields_of_same_name() {
        let (toks, br) = with("e.remove_entry(); self.e.push(x);");
        let ms = methods_on(&toks, &br, (0, toks.len()), "e", false);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].0, "remove_entry");
    }

    #[test]
    fn reset_detection() {
        let (toks, br) = with("self.scratch = batch;");
        assert!(is_reset(&toks, &br, (0, toks.len()), "scratch"));
        let (toks, br) = with("let b = mem::take(&mut self.scratch);");
        assert!(is_reset(&toks, &br, (0, toks.len()), "scratch"));
        let (toks, br) = with("if self.scratch == other {}");
        assert!(!is_reset(&toks, &br, (0, toks.len()), "scratch"));
        let (toks, br) = with("self.scratch.push(x);");
        assert!(!is_reset(&toks, &br, (0, toks.len()), "scratch"));
    }
}
