//! A minimal Rust lexer for the lint pass.
//!
//! The build environment has no access to `syn`, so the lint engine
//! works on a token stream produced by this hand-rolled scanner. It
//! understands exactly as much Rust surface syntax as the rules need:
//! line and (nested) block comments, string / raw-string / byte-string
//! / char literals, lifetimes, raw identifiers and numbers — enough to
//! never mistake the *contents* of a comment or string for code, and to
//! attach a correct line number to every token.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `r#type`, ...).
    Ident,
    /// A numeric literal (value not interpreted).
    Number,
    /// A string, raw-string or byte-string literal (contents dropped).
    Str,
    /// A character or byte literal.
    Char,
    /// A lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// A single punctuation character (`.`, `[`, `!`, ...).
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// Token text. Full text for identifiers and single-character
    /// punctuation; empty for literals (their contents never matter to
    /// a rule).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` if this is punctuation `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.starts_with(c)
    }

    /// `true` if this is the identifier `name`.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `source`, dropping comments and literal contents.
#[must_use]
pub fn tokenize(source: &str) -> Vec<Tok> {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut toks = Vec::new();
    while let Some(c) = cur.peek() {
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek_at(1) == Some('/') {
            skip_line_comment(&mut cur);
            continue;
        }
        if c == '/' && cur.peek_at(1) == Some('*') {
            skip_block_comment(&mut cur);
            continue;
        }
        let line = cur.line;
        if is_ident_start(c) {
            lex_ident_or_prefixed_literal(&mut cur, line, &mut toks);
            continue;
        }
        if c.is_ascii_digit() {
            lex_number(&mut cur);
            toks.push(Tok {
                kind: TokKind::Number,
                text: String::new(),
                line,
            });
            continue;
        }
        if c == '"' {
            cur.bump();
            skip_string_body(&mut cur);
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            continue;
        }
        if c == '\'' {
            lex_quote(&mut cur, line, &mut toks);
            continue;
        }
        cur.bump();
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
    }
    toks
}

fn skip_line_comment(cur: &mut Cursor) {
    while let Some(c) = cur.peek() {
        if c == '\n' {
            break;
        }
        cur.bump();
    }
}

fn skip_block_comment(cur: &mut Cursor) {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1u32;
    while depth > 0 {
        match (cur.peek(), cur.peek_at(1)) {
            (Some('/'), Some('*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some('*'), Some('/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break,
        }
    }
}

fn read_ident(cur: &mut Cursor) -> String {
    let mut s = String::new();
    while let Some(c) = cur.peek() {
        if is_ident_continue(c) {
            s.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    s
}

/// Lexes something starting with an identifier character: a plain
/// identifier, a raw identifier (`r#type`), or a prefixed literal
/// (`r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'`).
fn lex_ident_or_prefixed_literal(cur: &mut Cursor, line: u32, toks: &mut Vec<Tok>) {
    let ident = read_ident(cur);
    let is_raw_capable = ident == "r" || ident == "br" || ident == "b";
    match cur.peek() {
        Some('"') if is_raw_capable => {
            cur.bump();
            if ident == "b" {
                skip_string_body(cur);
            } else {
                skip_raw_string_body(cur, 0);
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
        }
        Some('#') if ident == "r" || ident == "br" => {
            // Raw string with hashes, or a raw identifier.
            let mut hashes = 0usize;
            while cur.peek_at(hashes) == Some('#') {
                hashes += 1;
            }
            if cur.peek_at(hashes) == Some('"') {
                for _ in 0..=hashes {
                    cur.bump();
                }
                skip_raw_string_body(cur, hashes);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                });
            } else if ident == "r" && hashes == 1 {
                cur.bump(); // '#'
                let name = read_ident(cur);
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: name,
                    line,
                });
            } else {
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: ident,
                    line,
                });
            }
        }
        Some('\'') if ident == "b" => {
            cur.bump();
            skip_char_body(cur);
            toks.push(Tok {
                kind: TokKind::Char,
                text: String::new(),
                line,
            });
        }
        _ => {
            toks.push(Tok {
                kind: TokKind::Ident,
                text: ident,
                line,
            });
        }
    }
}

fn lex_number(cur: &mut Cursor) {
    while let Some(c) = cur.peek() {
        if c.is_alphanumeric() || c == '_' {
            cur.bump();
        } else if c == '.' {
            // Consume the dot only for a fractional part — `0..n` must
            // leave the range dots alone.
            match cur.peek_at(1) {
                Some(d) if d.is_ascii_digit() => {
                    cur.bump();
                }
                _ => break,
            }
        } else {
            break;
        }
    }
}

/// Skips a (non-raw) string body; the opening quote is consumed.
fn skip_string_body(cur: &mut Cursor) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Skips a raw string body closed by `"` plus `hashes` hash marks.
fn skip_raw_string_body(cur: &mut Cursor, hashes: usize) {
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut matched = 0usize;
            while matched < hashes && cur.peek() == Some('#') {
                cur.bump();
                matched += 1;
            }
            if matched == hashes {
                break;
            }
        }
    }
}

/// Skips a char/byte-literal body; the opening quote is consumed.
fn skip_char_body(cur: &mut Cursor) {
    if cur.peek() == Some('\\') {
        cur.bump();
        cur.bump();
    } else {
        cur.bump();
    }
    // Tolerate multi-char escapes like \u{1F600}.
    while let Some(c) = cur.peek() {
        cur.bump();
        if c == '\'' {
            break;
        }
    }
}

/// Lexes after seeing `'`: a lifetime or a char literal.
fn lex_quote(cur: &mut Cursor, line: u32, toks: &mut Vec<Tok>) {
    cur.bump(); // the quote
    let next = cur.peek();
    let after = cur.peek_at(1);
    let is_lifetime = match (next, after) {
        (Some(c), Some('\'')) if is_ident_start(c) => false, // 'a'
        (Some(c), _) if is_ident_start(c) => true,           // 'a, 'static
        _ => false,
    };
    if is_lifetime {
        let name = read_ident(cur);
        toks.push(Tok {
            kind: TokKind::Lifetime,
            text: name,
            line,
        });
    } else {
        skip_char_body(cur);
        toks.push(Tok {
            kind: TokKind::Char,
            text: String::new(),
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_dropped() {
        let src = "a // HashMap in a comment\nb /* Instant */ c /* /* nested */ still */ d";
        assert_eq!(idents(src), ["a", "b", "c", "d"]);
    }

    #[test]
    fn string_contents_are_dropped() {
        let src = r#"let x = "unwrap() \" HashMap"; let y = r"Instant"; y"#;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|i| i == "unwrap" || i == "HashMap" || i == "Instant"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let x = r#"has "quotes" and HashMap"#; done"###;
        assert_eq!(idents(src), ["let", "x", "done"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = tokenize("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let toks = tokenize("0..10");
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("r#type r#match plain"), ["type", "match", "plain"]);
    }

    #[test]
    fn multiline_string_advances_lines() {
        let toks = tokenize("let s = \"line\nline\nline\";\nafter");
        let after = toks.iter().find(|t| t.is_ident("after")).map(|t| t.line);
        assert_eq!(after, Some(4));
    }

    #[test]
    fn deeply_nested_block_comments_balance() {
        let src = "a /* 1 /* 2 /* 3 unwrap() */ 2 */ 1 */ b /* unbalanced tail";
        assert_eq!(idents(src), ["a", "b"], "depth counting, then EOF safety");
    }

    #[test]
    fn raw_strings_with_many_hashes_skip_lesser_terminators() {
        // A `"#` inside an `r##"..."##` body must not close it.
        let src = r####"let s = r##"tail "# keeps going HashMap"##; after"####;
        assert_eq!(idents(src), ["let", "s", "after"]);
    }

    #[test]
    fn byte_strings_and_byte_raw_strings_are_opaque() {
        let src = r###"let a = b"unwrap \" esc"; let c = br#"panic "quote""#; end"###;
        assert_eq!(idents(src), ["let", "a", "let", "c", "end"]);
        let strs = tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Str)
            .count();
        assert_eq!(strs, 2, "both byte-string flavours lex as one Str");
    }

    #[test]
    fn byte_char_literals_lex_as_chars() {
        let toks = tokenize(r"let x = b'x'; let q = b'\''; let n = b'\n'; done");
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 3);
        assert!(toks.iter().any(|t| t.is_ident("done")), "lexer resyncs");
        assert!(
            !toks.iter().any(|t| t.kind == TokKind::Lifetime),
            "byte chars are never mistaken for lifetimes"
        );
    }

    #[test]
    fn lifetimes_in_bounds_positions_are_not_chars() {
        let toks = tokenize("struct S<'a, 'b: 'a>(&'a str, &'b str); impl<'s> S<'s, 's> {}");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 8);
        assert_eq!(chars, 0);
    }
}
