//! Syntax-aware pass: bracket-matching token tree + recursive-descent
//! item outline.
//!
//! Two layers, both total (they never panic, whatever the input — the
//! property suite generates adversarial sources against exactly that
//! claim):
//!
//! 1. [`token_tree`] pairs `(`/`[`/`{` delimiters in one pass with a
//!    stack, producing a [`Brackets`] map from every open-delimiter
//!    token index to its close. Mismatched or unclosed delimiters are
//!    tolerated (the map entry is absent and `balanced` turns false) so
//!    the outline still degrades gracefully on half-edited files.
//! 2. [`outline`] walks the token stream item by item — `fn`, `struct`,
//!    `impl`, `trait`, `mod` — recursing into blocks, and records the
//!    [`crate::ast::Outline`] the crate-scope rules consume. Angle
//!    brackets are *not* tree delimiters (in expression position `<` is
//!    a comparison); the few places the outline needs generics (impl
//!    type names, field types) count them locally.

use crate::ast::{FieldItem, FnItem, Outline, StructItem};
use crate::lexer::{Tok, TokKind};

/// Bracket-pairing result over one token stream.
#[derive(Debug, Clone)]
pub struct Brackets {
    /// `close[i] = Some(j)` when token `i` is an open delimiter whose
    /// matching close delimiter is token `j`.
    close: Vec<Option<usize>>,
    /// False when any delimiter was unclosed or mismatched.
    pub balanced: bool,
}

impl Brackets {
    /// The close index matching the open delimiter at `open`, if any.
    pub fn close_of(&self, open: usize) -> Option<usize> {
        self.close.get(open).copied().flatten()
    }
}

/// One node of the token tree: a plain token, or a delimited group with
/// its children.
#[derive(Debug, Clone)]
pub enum Node {
    /// A non-delimiter token, by index.
    Leaf(usize),
    /// A `(...)`/`[...]`/`{...}` group.
    Group {
        /// Token index of the open delimiter.
        open: usize,
        /// Token index of the close delimiter.
        close: usize,
        /// Children between the delimiters.
        children: Vec<Node>,
    },
}

/// Pairs delimiters and builds the token tree in one pass.
///
/// A close delimiter that does not match the innermost open one is
/// treated as a leaf (and flags the stream unbalanced); unclosed opens
/// are flushed as leaves at end of input.
pub fn token_tree(toks: &[Tok]) -> (Vec<Node>, Brackets) {
    let mut close = vec![None; toks.len()];
    let mut balanced = true;
    // Stack of (open index, expected close text, children built so far).
    let mut stack: Vec<(usize, &'static str, Vec<Node>)> = Vec::new();
    let mut top: Vec<Node> = Vec::new();

    let push_node =
        |stack: &mut Vec<(usize, &'static str, Vec<Node>)>, top: &mut Vec<Node>, node: Node| {
            match stack.last_mut() {
                Some((_, _, children)) => children.push(node),
                None => top.push(node),
            }
        };

    for (i, t) in toks.iter().enumerate() {
        let open_close = match t.kind {
            TokKind::Op => match t.text.as_str() {
                "(" => Some(")"),
                "[" => Some("]"),
                "{" => Some("}"),
                _ => None,
            },
            _ => None,
        };
        if let Some(cd) = open_close {
            stack.push((i, cd, Vec::new()));
            continue;
        }
        let is_close = t.kind == TokKind::Op && matches!(t.text.as_str(), ")" | "]" | "}");
        if is_close {
            match stack.last() {
                Some((_, expected, _)) if *expected == t.text => {
                    let (open, _, children) = stack.pop().expect("non-empty: just matched");
                    close[open] = Some(i);
                    push_node(
                        &mut stack,
                        &mut top,
                        Node::Group {
                            open,
                            close: i,
                            children,
                        },
                    );
                }
                _ => {
                    // Stray close: leaf, stream unbalanced.
                    balanced = false;
                    push_node(&mut stack, &mut top, Node::Leaf(i));
                }
            }
            continue;
        }
        push_node(&mut stack, &mut top, Node::Leaf(i));
    }

    // Unclosed opens: flatten their children back as if the open were a
    // plain token.
    if !stack.is_empty() {
        balanced = false;
        while let Some((open, _, children)) = stack.pop() {
            let mut flat = vec![Node::Leaf(open)];
            flat.extend(children);
            match stack.last_mut() {
                Some((_, _, parent)) => parent.extend(flat),
                None => top.extend(flat),
            }
        }
    }

    (top, Brackets { close, balanced })
}

/// Convenience: just the bracket map.
pub fn brackets(toks: &[Tok]) -> Brackets {
    token_tree(toks).1
}

/// True for the comment kinds the outline skips.
fn is_comment(t: &Tok) -> bool {
    matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
}

/// Index of the next non-comment token at or after `from`, below `end`.
fn next_code(toks: &[Tok], from: usize, end: usize) -> Option<usize> {
    (from..end.min(toks.len())).find(|&j| !is_comment(&toks[j]))
}

/// True if a line comment is the `// simlint: hot` marker (the word
/// `hot`, exactly, after the `simlint:` tag).
fn is_hot_marker(comment: &str) -> bool {
    let Some(at) = comment.find("simlint:") else {
        return false;
    };
    let rest = comment[at + "simlint:".len()..].trim();
    rest == "hot" || rest.strip_prefix("hot").is_some_and(|r| r.starts_with(' '))
}

/// Builds the item outline for one file.
pub fn outline(toks: &[Tok], br: &Brackets) -> Outline {
    let mut out = Outline::default();
    parse_items(toks, br, 0, toks.len(), None, false, &mut out);
    out
}

/// Pending per-item modifiers accumulated while scanning toward the
/// next item keyword.
#[derive(Default)]
struct Pending {
    hot: bool,
    test: bool,
}

/// Recursive-descent item scan over `[start, end)`.
#[allow(clippy::too_many_arguments)]
fn parse_items(
    toks: &[Tok],
    br: &Brackets,
    start: usize,
    end: usize,
    owner: Option<&str>,
    in_test: bool,
    out: &mut Outline,
) {
    let end = end.min(toks.len());
    let mut pending = Pending::default();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match t.kind {
            TokKind::LineComment => {
                if is_hot_marker(&t.text) {
                    pending.hot = true;
                }
                i += 1;
            }
            TokKind::BlockComment => i += 1,
            TokKind::Op if t.text == "#" => {
                // `#[...]` / `#![...]`: one attribute; a `test` ident
                // anywhere inside marks the item test-only (covers
                // #[test], #[cfg(test)], #[cfg(any(test, ...))]).
                let mut j = i + 1;
                if toks.get(j).map(|n| n.is_op("!")).unwrap_or(false) {
                    j += 1;
                }
                match next_code(toks, j, end).filter(|&o| toks[o].is_op("[")) {
                    Some(open) => {
                        let close = br.close_of(open).unwrap_or(open);
                        if toks[open..=close.min(end - 1)]
                            .iter()
                            .any(|a| a.is_ident("test"))
                        {
                            pending.test = true;
                        }
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            TokKind::Ident => match t.text.as_str() {
                "fn" => {
                    i = parse_fn(toks, br, i, end, owner, in_test, &mut pending, out);
                }
                "struct" => {
                    i = parse_struct(toks, br, i, end, in_test, &mut pending, out);
                }
                "impl" | "trait" => {
                    i = parse_impl_or_trait(toks, br, i, end, in_test, &mut pending, out);
                }
                "mod" => {
                    i = parse_mod(toks, br, i, end, owner, in_test, &mut pending, out);
                }
                _ => i += 1,
            },
            TokKind::Op if matches!(t.text.as_str(), "(" | "[" | "{") => {
                // A group at item level belongs to an item the outline
                // does not model (enum body, const initializer,
                // macro_rules body, extern block): skip it wholesale so
                // its contents are never misread as items, and drop any
                // pending modifiers — they belonged to that item.
                i = br.close_of(i).map(|c| c + 1).unwrap_or(i + 1);
                pending = Pending::default();
            }
            TokKind::Op if t.text == ";" => {
                // End of a braceless item: pending modifiers are spent.
                pending = Pending::default();
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Parses `fn name ... ;` or `fn name ... { body }` starting at the
/// `fn` keyword. Returns the index to resume scanning at.
#[allow(clippy::too_many_arguments)]
fn parse_fn(
    toks: &[Tok],
    br: &Brackets,
    kw: usize,
    end: usize,
    owner: Option<&str>,
    in_test: bool,
    pending: &mut Pending,
    out: &mut Outline,
) -> usize {
    let Some(name_at) = next_code(toks, kw + 1, end).filter(|&j| toks[j].kind == TokKind::Ident)
    else {
        *pending = Pending::default();
        return kw + 1;
    };
    // Scan past the signature for the body `{` or a terminating `;`,
    // skipping parameter/array groups. (A `{` inside the signature can
    // only come from const-generic expressions, which this workspace
    // does not use.)
    let mut j = name_at + 1;
    let mut body = None;
    let mut resume = j;
    while j < end {
        let t = &toks[j];
        if t.is_op(";") {
            resume = j + 1;
            break;
        }
        if t.is_op("{") {
            // Only a matched brace pair delimits a body; an unclosed
            // brace (mid-edit source) leaves the fn bodyless rather
            // than inventing a degenerate span.
            match br.close_of(j) {
                Some(close) if close < end => {
                    body = Some((j, close));
                    resume = close + 1;
                }
                _ => resume = end,
            }
            break;
        }
        if t.is_op("(") || t.is_op("[") {
            j = br.close_of(j).map(|c| c + 1).unwrap_or(j + 1);
            continue;
        }
        j += 1;
        resume = j;
    }
    out.fns.push(FnItem {
        name: toks[name_at].text.clone(),
        owner: owner.map(str::to_string),
        line: toks[kw].line,
        col: toks[kw].col,
        body,
        hot: pending.hot,
        in_test: in_test || pending.test,
    });
    *pending = Pending::default();
    resume
}

/// Parses a struct item starting at the `struct` keyword.
fn parse_struct(
    toks: &[Tok],
    br: &Brackets,
    kw: usize,
    end: usize,
    in_test: bool,
    pending: &mut Pending,
    out: &mut Outline,
) -> usize {
    let Some(name_at) = next_code(toks, kw + 1, end).filter(|&j| toks[j].kind == TokKind::Ident)
    else {
        *pending = Pending::default();
        return kw + 1;
    };
    let mut item = StructItem {
        name: toks[name_at].text.clone(),
        line: toks[kw].line,
        in_test: in_test || pending.test,
        fields: Vec::new(),
    };
    // Find the field block `{`, a tuple body `(`, or a terminating `;`.
    let mut j = name_at + 1;
    let mut resume = j;
    while j < end {
        let t = &toks[j];
        if t.is_op(";") {
            resume = j + 1;
            break;
        }
        if t.is_op("(") || t.is_op("[") {
            // Tuple struct body (unnamed fields are not sim-state
            // candidates) or an array type in generics.
            j = br.close_of(j).map(|c| c + 1).unwrap_or(j + 1);
            resume = j;
            continue;
        }
        if t.is_op("{") {
            let close = br.close_of(j).unwrap_or(end.saturating_sub(1));
            parse_fields(toks, br, j + 1, close.min(end), &mut item.fields);
            resume = close + 1;
            break;
        }
        j += 1;
        resume = j;
    }
    out.structs.push(item);
    *pending = Pending::default();
    resume
}

/// Parses the named fields between a struct's braces.
fn parse_fields(toks: &[Tok], br: &Brackets, start: usize, end: usize, out: &mut Vec<FieldItem>) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if is_comment(t) {
            i += 1;
            continue;
        }
        if t.is_op("#") {
            // Field attribute: skip `#[...]`.
            match next_code(toks, i + 1, end).filter(|&o| toks[o].is_op("[")) {
                Some(open) => i = br.close_of(open).map(|c| c + 1).unwrap_or(open + 1),
                None => i += 1,
            }
            continue;
        }
        if t.is_ident("pub") {
            i += 1;
            // Visibility scope: `pub(crate)` etc.
            if let Some(o) = next_code(toks, i, end).filter(|&o| toks[o].is_op("(")) {
                i = br.close_of(o).map(|c| c + 1).unwrap_or(o + 1);
            }
            continue;
        }
        // `name : type , ` — anything else is noise we step over.
        let colon_next = next_code(toks, i + 1, end)
            .map(|j| toks[j].is_op(":"))
            .unwrap_or(false);
        if t.kind == TokKind::Ident && colon_next {
            let colon = next_code(toks, i + 1, end).expect("checked above");
            // Type runs to the next comma outside all nesting; commas
            // inside generics are skipped by counting angle depth (and
            // delimiter groups via the bracket map).
            let mut j = colon + 1;
            let mut angle: i32 = 0;
            let mut ty = String::new();
            while j < end {
                let tt = &toks[j];
                if is_comment(tt) {
                    j += 1;
                    continue;
                }
                if tt.kind == TokKind::Op {
                    match tt.text.as_str() {
                        "," if angle <= 0 => break,
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "<<" => angle += 2,
                        ">>" => angle -= 2,
                        "(" | "[" | "{" => {
                            let close = br.close_of(j).unwrap_or(j);
                            for k in j..=close.min(end - 1) {
                                if !is_comment(&toks[k]) {
                                    if !ty.is_empty() {
                                        ty.push(' ');
                                    }
                                    ty.push_str(&toks[k].text);
                                }
                            }
                            j = close + 1;
                            continue;
                        }
                        _ => {}
                    }
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(&tt.text);
                j += 1;
            }
            out.push(FieldItem {
                name: t.text.clone(),
                line: t.line,
                col: t.col,
                ty,
            });
            i = j + 1;
            continue;
        }
        // Skip groups (shouldn't appear between fields, but stay total).
        if t.kind == TokKind::Op && matches!(t.text.as_str(), "(" | "[" | "{") {
            i = br.close_of(i).map(|c| c + 1).unwrap_or(i + 1);
            continue;
        }
        i += 1;
    }
}

/// Parses an `impl`/`trait` item starting at its keyword: extracts the
/// implementing type name and recurses into the block for methods.
fn parse_impl_or_trait(
    toks: &[Tok],
    br: &Brackets,
    kw: usize,
    end: usize,
    in_test: bool,
    pending: &mut Pending,
    out: &mut Outline,
) -> usize {
    // The type name is the last angle-depth-0 path ident before the
    // block, restarting after `for` (`impl Trait for Type`), stopping
    // at `where`.
    let mut j = kw + 1;
    let mut angle: i32 = 0;
    let mut name: Option<String> = None;
    let mut in_where = false;
    let mut body: Option<(usize, usize)> = None;
    let mut resume = j;
    while j < end {
        let t = &toks[j];
        if is_comment(t) {
            j += 1;
            continue;
        }
        if t.is_op(";") {
            // `impl Trait for Type;`-style (or a parse we can't use).
            resume = j + 1;
            break;
        }
        if t.is_op("{") {
            let close = br.close_of(j).unwrap_or(end.saturating_sub(1));
            body = Some((j + 1, close.min(end)));
            resume = close + 1;
            break;
        }
        if t.kind == TokKind::Op {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "(" | "[" => {
                    j = br.close_of(j).map(|c| c + 1).unwrap_or(j + 1);
                    continue;
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident && angle <= 0 && !in_where {
            match t.text.as_str() {
                "for" => name = None,
                "where" => in_where = true,
                _ => name = Some(t.text.clone()),
            }
        }
        j += 1;
        resume = j;
    }
    if let Some((bs, be)) = body {
        let test = in_test || pending.test;
        let owner = name;
        parse_items(toks, br, bs, be, owner.as_deref(), test, out);
    }
    *pending = Pending::default();
    resume
}

/// Parses a `mod` item: recurses into inline blocks, marking `mod
/// tests`/`mod test` blocks test-only.
#[allow(clippy::too_many_arguments)]
fn parse_mod(
    toks: &[Tok],
    br: &Brackets,
    kw: usize,
    end: usize,
    owner: Option<&str>,
    in_test: bool,
    pending: &mut Pending,
    out: &mut Outline,
) -> usize {
    let name_at = next_code(toks, kw + 1, end).filter(|&j| toks[j].kind == TokKind::Ident);
    let Some(name_at) = name_at else {
        *pending = Pending::default();
        return kw + 1;
    };
    let mod_test = matches!(toks[name_at].text.as_str(), "tests" | "test");
    match next_code(toks, name_at + 1, end) {
        Some(o) if toks[o].is_op("{") => {
            let close = br.close_of(o).unwrap_or(end.saturating_sub(1));
            parse_items(
                toks,
                br,
                o + 1,
                close.min(end),
                owner,
                in_test || pending.test || mod_test,
                out,
            );
            *pending = Pending::default();
            close + 1
        }
        Some(o) if toks[o].is_op(";") => {
            *pending = Pending::default();
            o + 1
        }
        _ => {
            *pending = Pending::default();
            name_at + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(src: &str) -> Outline {
        let toks = tokenize(src);
        let br = brackets(&toks);
        outline(&toks, &br)
    }

    #[test]
    fn brackets_pair_and_nest() {
        let toks = tokenize("fn f(a: [u8; 4]) { g(1); }");
        let (tree, br) = token_tree(&toks);
        assert!(br.balanced);
        // Top level: fn, f, (..), {..}.
        let groups: Vec<_> = tree
            .iter()
            .filter(|n| matches!(n, Node::Group { .. }))
            .collect();
        assert_eq!(groups.len(), 2);
        let open_paren = toks.iter().position(|t| t.is_op("(")).expect("open paren");
        let close = br.close_of(open_paren).expect("matched");
        assert!(toks[close].is_op(")"));
    }

    #[test]
    fn unbalanced_input_is_tolerated() {
        for src in ["fn f( {", "} ) ] fn g() {}", "fn f() { ( }"] {
            let toks = tokenize(src);
            let (_, br) = token_tree(&toks);
            assert!(!br.balanced, "{src:?} should be unbalanced");
        }
        // The well-formed sibling of a broken item still outlines.
        let o = parse("} fn ok() {}");
        assert_eq!(o.fns.len(), 1);
        assert_eq!(o.fns[0].name, "ok");
    }

    #[test]
    fn outline_fns_with_owner_and_body() {
        let o = parse(
            "fn free() { body(); }\n\
             impl Wheel { fn push(&mut self) {} fn pop(&mut self) -> u8 { 0 } }\n\
             impl Calendar for Wheel { fn len(&self) -> usize { 0 } }\n",
        );
        let names: Vec<(String, Option<String>)> = o
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("push".into(), Some("Wheel".into())),
                ("pop".into(), Some("Wheel".into())),
                ("len".into(), Some("Wheel".into())),
            ]
        );
        assert!(o.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn hot_marker_and_test_attrs() {
        let o = parse(
            "// simlint: hot\nfn dispatch() {}\n\
             fn cold() {}\n\
             #[test]\nfn check() {}\n\
             #[cfg(test)]\nmod tests { fn helper() {} }\n\
             mod tests2 { fn shipped() {} }\n",
        );
        let by_name = |n: &str| o.fns.iter().find(|f| f.name == n).expect("fn");
        assert!(by_name("dispatch").hot);
        assert!(!by_name("cold").hot, "hot must not leak past one item");
        assert!(by_name("check").in_test);
        assert!(by_name("helper").in_test);
        assert!(!by_name("shipped").in_test, "tests2 is not `mod tests`");
    }

    #[test]
    fn struct_fields_with_generic_types() {
        let o = parse(
            "pub struct Q {\n\
                 pub map: BTreeMap<u64, Vec<Entry>>,\n\
                 #[allow(dead_code)]\n\
                 len: usize,\n\
             }\n\
             struct Unit;\n\
             struct Tup(u32, Vec<u8>);\n",
        );
        assert_eq!(o.structs.len(), 3);
        let q = &o.structs[0];
        assert_eq!(q.fields.len(), 2);
        assert_eq!(q.fields[0].name, "map");
        assert!(Outline::ty_mentions(&q.fields[0].ty, "BTreeMap"));
        assert!(Outline::ty_mentions(&q.fields[0].ty, "Vec"));
        assert!(!Outline::ty_mentions(&q.fields[0].ty, "Entr"));
        assert_eq!(q.fields[1].name, "len");
        assert!(o.structs[1].fields.is_empty());
        assert!(o.structs[2].fields.is_empty());
    }

    #[test]
    fn enum_and_const_blocks_are_not_items() {
        let o = parse(
            "enum E { A { x: u32 }, B }\n\
             const T: Foo = Foo { bar: 1 };\n\
             fn after() {}\n",
        );
        assert!(
            o.structs.is_empty(),
            "enum arms are not structs: {:?}",
            o.structs
        );
        assert_eq!(o.fns.len(), 1);
        assert_eq!(o.fns[0].name, "after");
    }

    #[test]
    fn impl_type_name_handles_generics_for_and_where() {
        let o = parse(
            "impl<E: Copy> Calendar<E> for Wheel<E> where E: Ord { fn a(&self) {} }\n\
             impl Plain { fn b(&self) {} }\n",
        );
        assert_eq!(o.fns[0].owner.as_deref(), Some("Wheel"));
        assert_eq!(o.fns[1].owner.as_deref(), Some("Plain"));
    }
}
