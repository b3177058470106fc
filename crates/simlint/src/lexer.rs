//! A minimal hand-rolled Rust lexer.
//!
//! The workspace cannot pull `syn` or `proc-macro2` (the registry
//! mirror is unreachable — see the testkit precedent), and the
//! determinism rules only need a token stream with *correct*
//! string/comment/lifetime handling plus line numbers. The lexer
//! therefore recognises exactly that: identifiers, numeric literals
//! (tagging floats, which `no-float-eq` needs), string and char
//! literals (skipped as opaque tokens so `"HashMap"` inside a message
//! never trips a rule), line and nested block comments (kept, so the
//! `// simlint: allow(...)` mechanism can read them), and multi-char
//! operators (`==` must not lex as `=`, `=`).

/// What kind of token was lexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// Integer literal (including hex/octal/binary and suffixed forms).
    Int,
    /// Float literal (`1.0`, `2.`, `1e-3`, `1f64`).
    Float,
    /// String literal of any flavour (plain, raw, byte), content opaque.
    Str,
    /// Char or byte-char literal, content opaque.
    Char,
    /// `// ...` comment (doc comments included); text excludes newline.
    LineComment,
    /// `/* ... */` comment, possibly nested; text includes delimiters.
    BlockComment,
    /// Operator or punctuation; `text` holds the exact spelling.
    Op,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text (for `Str`/`Char`, may be abbreviated).
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column of the first character.
    pub col: u32,
}

impl Tok {
    /// True if this is an identifier spelling exactly `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this is an operator spelling exactly `s`.
    pub fn is_op(&self, s: &str) -> bool {
        self.kind == TokKind::Op && self.text == s
    }
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes `n` characters, appending them to `out`.
    fn take(&mut self, n: usize, out: &mut String) {
        for _ in 0..n {
            if let Some(c) = self.bump() {
                out.push(c);
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Three- and two-character operators, longest match first.
const OPS3: &[&str] = &["..=", "<<=", ">>="];
const OPS2: &[&str] = &[
    "==", "!=", "<=", ">=", "::", "->", "=>", "..", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=",
];

/// Tokenizes `src`, never failing: unrecognised bytes become one-char
/// `Op` tokens, and unterminated literals run to end of input.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            toks.push(Tok {
                kind: TokKind::LineComment,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            loop {
                match cur.peek(0) {
                    None => break,
                    Some('/') if cur.peek(1) == Some('*') => {
                        depth += 1;
                        cur.take(2, &mut text);
                    }
                    Some('*') if cur.peek(1) == Some('/') => {
                        depth = depth.saturating_sub(1);
                        cur.take(2, &mut text);
                        if depth == 0 {
                            break;
                        }
                    }
                    Some(_) => cur.take(1, &mut text),
                }
            }
            toks.push(Tok {
                kind: TokKind::BlockComment,
                text,
                line,
                col,
            });
            continue;
        }
        // Raw / byte string prefixes: r"", r#""#, b"", br#""#, b''.
        if c == 'r' || c == 'b' {
            if let Some(tok) = lex_prefixed_literal(&mut cur, line, col) {
                toks.push(tok);
                continue;
            }
        }
        if is_ident_start(c) {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        if c.is_ascii_digit() {
            toks.push(lex_number(&mut cur, line, col));
            continue;
        }
        if c == '"' {
            toks.push(lex_plain_string(&mut cur, line, col));
            continue;
        }
        if c == '\'' {
            toks.push(lex_quote(&mut cur, line, col));
            continue;
        }
        // Operators, longest match first.
        let two: String = [c, cur.peek(1).unwrap_or('\0')].iter().collect();
        let three: String = [c, cur.peek(1).unwrap_or('\0'), cur.peek(2).unwrap_or('\0')]
            .iter()
            .collect();
        if OPS3.contains(&three.as_str()) {
            let mut text = String::new();
            cur.take(3, &mut text);
            toks.push(Tok {
                kind: TokKind::Op,
                text,
                line,
                col,
            });
        } else if OPS2.contains(&two.as_str()) {
            let mut text = String::new();
            cur.take(2, &mut text);
            toks.push(Tok {
                kind: TokKind::Op,
                text,
                line,
                col,
            });
        } else {
            cur.bump();
            toks.push(Tok {
                kind: TokKind::Op,
                text: c.to_string(),
                line,
                col,
            });
        }
    }
    toks
}

/// Lexes `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, or `b'x'` when the
/// cursor sits on `r`/`b`; returns `None` if this is just an identifier
/// starting with those letters.
fn lex_prefixed_literal(cur: &mut Cursor, line: u32, col: u32) -> Option<Tok> {
    let c0 = cur.peek(0)?;
    // Byte char b'x'.
    if c0 == 'b' && cur.peek(1) == Some('\'') {
        let mut text = String::new();
        cur.take(1, &mut text); // b
        let tok = lex_quote(cur, line, col);
        return Some(Tok {
            kind: TokKind::Char,
            text: text + &tok.text,
            line,
            col,
        });
    }
    // Determine where the hashes / quote would start.
    let body = if c0 == 'b' && cur.peek(1) == Some('r') {
        2
    } else {
        1
    };
    let raw = c0 == 'r' || (c0 == 'b' && cur.peek(1) == Some('r'));
    if c0 == 'b' && !raw && cur.peek(1) == Some('"') {
        let mut text = String::new();
        cur.take(1, &mut text); // b
        let tok = lex_plain_string(cur, line, col);
        return Some(Tok {
            kind: TokKind::Str,
            text: text + &tok.text,
            line,
            col,
        });
    }
    if raw {
        let mut hashes = 0usize;
        while cur.peek(body + hashes) == Some('#') {
            hashes += 1;
        }
        if cur.peek(body + hashes) == Some('"') {
            let mut text = String::new();
            cur.take(body + hashes + 1, &mut text);
            // Consume until `"` followed by `hashes` hashes.
            loop {
                match cur.peek(0) {
                    None => break,
                    Some('"') => {
                        let all = (0..hashes).all(|k| cur.peek(1 + k) == Some('#'));
                        cur.take(1 + if all { hashes } else { 0 }, &mut text);
                        if all {
                            break;
                        }
                    }
                    Some(_) => cur.take(1, &mut text),
                }
            }
            return Some(Tok {
                kind: TokKind::Str,
                text,
                line,
                col,
            });
        }
    }
    None
}

fn lex_plain_string(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    cur.take(1, &mut text); // opening quote
    loop {
        match cur.peek(0) {
            None => break,
            Some('\\') => cur.take(2, &mut text),
            Some('"') => {
                cur.take(1, &mut text);
                break;
            }
            Some(_) => cur.take(1, &mut text),
        }
    }
    Tok {
        kind: TokKind::Str,
        text,
        line,
        col,
    }
}

/// Lexes either a char literal or a lifetime starting at `'`.
fn lex_quote(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    // Escaped char: '\n', '\u{..}'.
    if cur.peek(1) == Some('\\') {
        cur.take(2, &mut text); // quote + backslash
        cur.take(1, &mut text); // escaped char
        while let Some(ch) = cur.peek(0) {
            cur.take(1, &mut text);
            if ch == '\'' {
                break;
            }
        }
        return Tok {
            kind: TokKind::Char,
            text,
            line,
            col,
        };
    }
    // Plain char 'x' (the char after next is the closing quote).
    if cur.peek(1).is_some() && cur.peek(2) == Some('\'') {
        cur.take(3, &mut text);
        return Tok {
            kind: TokKind::Char,
            text,
            line,
            col,
        };
    }
    // Lifetime.
    cur.take(1, &mut text);
    while let Some(ch) = cur.peek(0) {
        if !is_ident_continue(ch) {
            break;
        }
        cur.take(1, &mut text);
    }
    Tok {
        kind: TokKind::Lifetime,
        text,
        line,
        col,
    }
}

fn lex_number(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    let mut float = false;
    // Radix prefixes never form floats.
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'o' | 'b')) {
        cur.take(2, &mut text);
        while let Some(ch) = cur.peek(0) {
            if !(ch.is_ascii_alphanumeric() || ch == '_') {
                break;
            }
            cur.take(1, &mut text);
        }
        return Tok {
            kind: TokKind::Int,
            text,
            line,
            col,
        };
    }
    while let Some(ch) = cur.peek(0) {
        if !(ch.is_ascii_digit() || ch == '_') {
            break;
        }
        cur.take(1, &mut text);
    }
    // Fractional part — but `0..10` is a range and `1.max(2)` a method.
    if cur.peek(0) == Some('.') {
        let after = cur.peek(1);
        let is_range = after == Some('.');
        let is_method = after.map(is_ident_start).unwrap_or(false);
        if !is_range && !is_method {
            float = true;
            cur.take(1, &mut text);
            while let Some(ch) = cur.peek(0) {
                if !(ch.is_ascii_digit() || ch == '_') {
                    break;
                }
                cur.take(1, &mut text);
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(0), Some('e' | 'E')) {
        let sign = matches!(cur.peek(1), Some('+' | '-'));
        let digit_at = if sign { 2 } else { 1 };
        if cur
            .peek(digit_at)
            .map(|c| c.is_ascii_digit())
            .unwrap_or(false)
        {
            float = true;
            cur.take(digit_at + 1, &mut text);
            while let Some(ch) = cur.peek(0) {
                if !(ch.is_ascii_digit() || ch == '_') {
                    break;
                }
                cur.take(1, &mut text);
            }
        }
    }
    // Type suffix (`u32`, `f64`, ...); an `f` suffix makes it a float.
    if cur.peek(0).map(is_ident_start).unwrap_or(false) {
        let mut suffix = String::new();
        while let Some(ch) = cur.peek(0) {
            if !is_ident_continue(ch) {
                break;
            }
            suffix.push(ch);
            cur.take(1, &mut String::new());
        }
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
        text.push_str(&suffix);
    }
    Tok {
        kind: if float { TokKind::Float } else { TokKind::Int },
        text,
        line,
        col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_ops() {
        let t = kinds("let x == y != z;");
        assert_eq!(t[0], (TokKind::Ident, "let".to_string()));
        assert_eq!(t[2], (TokKind::Op, "==".to_string()));
        assert_eq!(t[4], (TokKind::Op, "!=".to_string()));
    }

    #[test]
    fn strings_are_opaque() {
        let t = kinds(r#"let s = "HashMap == 1.0 // not a comment";"#);
        assert!(t.iter().all(|(k, _)| *k != TokKind::Float));
        assert!(t.iter().any(|(k, _)| *k == TokKind::Str));
        assert!(!t
            .iter()
            .any(|(k, x)| *k == TokKind::Ident && x == "HashMap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let t = kinds(r###"let s = r#"quote " inside"#; let y = 1;"###);
        assert!(t.iter().any(|(k, _)| *k == TokKind::Str));
        assert!(t.iter().any(|(k, x)| *k == TokKind::Ident && x == "y"));
    }

    #[test]
    fn floats_vs_ranges_vs_methods() {
        let t = kinds("1.0 0..10 1.max(2) 2. 1e-3 7f64 0x1f");
        let floats: Vec<&String> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, x)| x)
            .collect();
        assert_eq!(floats, ["1.0", "2.", "1e-3", "7f64"]);
        assert!(t.iter().any(|(k, x)| *k == TokKind::Op && x == ".."));
        assert!(t.iter().any(|(k, x)| *k == TokKind::Int && x == "0x1f"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(), 2);
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn comments_survive_with_positions() {
        let toks = tokenize("let a = 1; // simlint: allow(no-float-eq)\n/* block */ let b = 2;");
        let line_comments: Vec<&Tok> = toks
            .iter()
            .filter(|t| t.kind == TokKind::LineComment)
            .collect();
        assert_eq!(line_comments.len(), 1);
        assert!(line_comments[0].text.contains("simlint: allow"));
        assert_eq!(line_comments[0].line, 1);
        assert!(toks.iter().any(|t| t.kind == TokKind::BlockComment));
        let b = toks.iter().find(|t| t.is_ident("b")).expect("ident b");
        assert_eq!(b.line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let t = kinds("/* outer /* inner */ still comment */ let x = 1;");
        assert!(t.iter().any(|(k, x)| *k == TokKind::Ident && x == "x"));
        assert_eq!(
            t.iter()
                .filter(|(k, _)| *k == TokKind::BlockComment)
                .count(),
            1
        );
    }

    #[test]
    fn byte_literals() {
        let t = kinds("let a = b\"bytes\"; let c = b'x'; let r = br#\"raw\"#;");
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert!(t.iter().any(|(k, _)| *k == TokKind::Char));
    }
}
