//! Pass 1 of the three-pass lint: the lightweight item model.
//!
//! On top of the raw token stream from [`crate::lexer`], this module
//! recognises just enough item structure for whole-program reasoning:
//! inline modules, `impl`/`trait` blocks, struct fields, and functions
//! with the token span of their bodies. It is *name-resolution-lite*
//! by design — no types, no generics, no expression trees — because
//! the transitive rules in [`crate::reach`] only need to know who can
//! call whom and which fields belong to which struct. Anything the
//! parser cannot place (a malformed header, an exotic construct) is
//! skipped rather than guessed, which errs on the side of fewer graph
//! edges and is then compensated by the conservative "assume
//! reachable" fallbacks in [`crate::graph`].

use crate::engine::FileClass;
use crate::lexer::{tokenize, Tok, TokKind};
use std::ops::Range;

/// A function item: free function, inherent or trait method, or a
/// bodyless trait method declaration.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Self type of the enclosing `impl`/`trait` block, if any.
    pub self_ty: Option<String>,
    /// Names of enclosing inline modules, outermost first.
    pub modules: Vec<String>,
    /// `true` when the parameter list contains a `self` receiver.
    pub has_self: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, exclusive of the braces. Empty
    /// for bodyless trait method declarations.
    pub body: Range<usize>,
}

/// A struct and its named fields (tuple and unit structs keep an empty
/// field list).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// Named fields in declaration order.
    pub fields: Vec<String>,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
}

/// The item model of one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every function, including methods and trait declarations.
    pub fns: Vec<FnItem>,
    /// Every struct with named fields recorded.
    pub structs: Vec<StructItem>,
}

/// One classified workspace file, fully prepared for pass 2: stripped
/// token stream plus the parsed item model.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// How the file participates in the lint pass.
    pub class: FileClass,
    /// Token stream with test-only items removed.
    pub toks: Vec<Tok>,
    /// The item model parsed from `toks`.
    pub parsed: ParsedFile,
}

impl FileModel {
    /// Tokenizes, strips test spans, and parses `source`.
    #[must_use]
    pub fn build(rel: &str, class: FileClass, source: &str) -> FileModel {
        let toks = strip_test_spans(&tokenize(source));
        let parsed = parse_items(&toks);
        FileModel {
            rel: rel.to_string(),
            class,
            toks,
            parsed,
        }
    }
}

/// Skips a balanced `<...>` generic-argument list starting at `open`
/// (which must be `<`). Returns the index just past the matching `>`.
/// A `>` preceded by `-` or `=` is an arrow (`->`, `=>`), not a
/// closer. Bails at `;` or `{` so malformed input cannot swallow an
/// item body.
pub(crate) fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(t) = toks.get(i) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = i > 0
                && toks
                    .get(i - 1)
                    .is_some_and(|p| p.is_punct('-') || p.is_punct('='));
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            return i;
        }
        i += 1;
    }
    i
}

/// Returns the index of the `}` matching the `{` at `open` (or
/// `toks.len()` when unbalanced).
pub(crate) fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(t) = toks.get(i) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Brace-context kinds tracked while scanning a file.
enum Ctx {
    /// An inline `mod name { ... }`.
    Mod(String),
    /// An `impl`/`trait` block with its self-type name.
    Ty(String),
    /// Any other brace: expression block, match body, struct literal.
    Opaque,
}

/// Parses the item model out of a (test-stripped) token stream.
#[must_use]
pub fn parse_items(toks: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut i = 0usize;
    while let Some(t) = toks.get(i) {
        if t.is_punct('{') {
            stack.push(Ctx::Opaque);
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            stack.pop();
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" => i = parse_mod(toks, i, &mut stack),
            "impl" => i = parse_impl(toks, i, &mut stack),
            "trait" => i = parse_trait(toks, i, &mut stack),
            "fn" => i = parse_fn(toks, i, &stack, &mut out.fns),
            "struct" => i = parse_struct(toks, i, &mut out.structs),
            _ => i += 1,
        }
    }
    out
}

/// `mod name { ... }` pushes a module context; `mod name;` is skipped.
fn parse_mod(toks: &[Tok], i: usize, stack: &mut Vec<Ctx>) -> usize {
    let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
        return i + 1;
    };
    if toks.get(i + 2).is_some_and(|t| t.is_punct('{')) {
        stack.push(Ctx::Mod(name.text.clone()));
        i + 3
    } else {
        i + 2
    }
}

/// Parses an `impl` header up to its `{`, extracting the self-type
/// name: the last path segment before the block, restarting after
/// `for` (`impl Trait for Type`). Pushes a [`Ctx::Ty`] context.
fn parse_impl(toks: &[Tok], i: usize, stack: &mut Vec<Ctx>) -> usize {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j);
    }
    let mut ty: Option<String> = None;
    while let Some(t) = toks.get(j) {
        if t.is_punct('{') {
            stack.push(Ctx::Ty(ty.unwrap_or_else(|| "?".to_string())));
            return j + 1;
        }
        if t.is_punct(';') {
            return j + 1;
        }
        if t.is_punct('<') {
            j = skip_angles(toks, j);
            continue;
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "for" => ty = None,
                // From here on only the block can follow; `where`
                // clauses contain idents that are not the self type.
                "where" => {
                    while let Some(w) = toks.get(j) {
                        if w.is_punct('{') {
                            stack.push(Ctx::Ty(ty.unwrap_or_else(|| "?".to_string())));
                            return j + 1;
                        }
                        if w.is_punct(';') {
                            return j + 1;
                        }
                        if w.is_punct('<') {
                            j = skip_angles(toks, j);
                        } else {
                            j += 1;
                        }
                    }
                    return j;
                }
                "dyn" | "mut" | "const" | "unsafe" => {}
                name => ty = Some(name.to_string()),
            }
        }
        j += 1;
    }
    j
}

/// Parses a `trait Name ... {` header and pushes a [`Ctx::Ty`] context
/// named after the trait, so default methods resolve like methods.
fn parse_trait(toks: &[Tok], i: usize, stack: &mut Vec<Ctx>) -> usize {
    let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
        return i + 1;
    };
    let mut j = i + 2;
    while let Some(t) = toks.get(j) {
        if t.is_punct('{') {
            stack.push(Ctx::Ty(name.text.clone()));
            return j + 1;
        }
        if t.is_punct(';') {
            return j + 1;
        }
        if t.is_punct('<') {
            j = skip_angles(toks, j);
        } else {
            j += 1;
        }
    }
    j
}

/// Parses a `fn` item: name, optional generics, parameter list, then
/// either a `;` (bodyless declaration) or the `{ ... }` body, whose
/// token span is recorded. Returns the index scanning should resume
/// at — the body's opening `{`, so the block tracker pushes a context
/// for it (keeping the enclosing impl context alive past the body) and
/// nested items are still found.
fn parse_fn(toks: &[Tok], i: usize, stack: &[Ctx], fns: &mut Vec<FnItem>) -> usize {
    let Some(fn_tok) = toks.get(i) else {
        return i + 1;
    };
    // `fn(` with no name is a function-pointer type, not an item.
    let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
        return i + 1;
    };
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j);
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return i + 1;
    }
    // Parameter list: balanced parens; a top-level `self` marks a
    // method receiver.
    let mut depth = 0i32;
    let mut has_self = false;
    while let Some(t) = toks.get(j) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        } else if depth == 1 && t.is_ident("self") {
            has_self = true;
        }
        j += 1;
    }
    // Return type / where clause, then the body or a `;`.
    let mut body = 0..0;
    loop {
        match toks.get(j) {
            None => break,
            Some(t) if t.is_punct(';') => {
                j += 1;
                break;
            }
            Some(t) if t.is_punct('{') => {
                body = j + 1..matching_brace(toks, j);
                break;
            }
            Some(t) if t.is_punct('<') => j = skip_angles(toks, j),
            Some(_) => j += 1,
        }
    }
    let self_ty = match stack.last() {
        Some(Ctx::Ty(n)) => Some(n.clone()),
        _ => None,
    };
    let modules = stack
        .iter()
        .filter_map(|c| match c {
            Ctx::Mod(m) => Some(m.clone()),
            _ => None,
        })
        .collect();
    let resume = if body.end == 0 { j } else { body.start - 1 };
    fns.push(FnItem {
        name: name_tok.text.clone(),
        self_ty,
        modules,
        has_self,
        line: fn_tok.line,
        body,
    });
    resume
}

/// Parses a `struct` item, recording named fields. Tuple and unit
/// structs are recorded with no fields.
fn parse_struct(toks: &[Tok], i: usize, structs: &mut Vec<StructItem>) -> usize {
    let Some(struct_tok) = toks.get(i) else {
        return i + 1;
    };
    let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
        return i + 1;
    };
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j);
    }
    // Walk the (possibly `where`-claused) header to the body, a tuple
    // list, or the terminating semicolon.
    let mut fields = Vec::new();
    while let Some(t) = toks.get(j) {
        if t.is_punct(';') {
            j += 1;
            break;
        }
        if t.is_punct('(') {
            // Tuple struct: skip the element list, keep scanning for
            // the `;` (a where clause may follow the parens).
            let mut depth = 0i32;
            while let Some(p) = toks.get(j) {
                if p.is_punct('(') {
                    depth += 1;
                } else if p.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            continue;
        }
        if t.is_punct('{') {
            let close = matching_brace(toks, j);
            fields = parse_struct_fields(toks, j, close);
            j = close + 1;
            break;
        }
        if t.is_punct('<') {
            j = skip_angles(toks, j);
        } else {
            j += 1;
        }
    }
    structs.push(StructItem {
        name: name_tok.text.clone(),
        fields,
        line: struct_tok.line,
    });
    j
}

/// Collects field names between a struct's braces: an identifier
/// followed by a single `:` at top depth (attributes and nested
/// bracketed regions are skipped).
fn parse_struct_fields(toks: &[Tok], open: usize, close: usize) -> Vec<String> {
    let mut fields = Vec::new();
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut k = open + 1;
    while k < close {
        let Some(t) = toks.get(k) else { break };
        // Skip `#[...]` attributes wholesale.
        if t.is_punct('#') && toks.get(k + 1).is_some_and(|b| b.is_punct('[')) {
            let mut d = 0i32;
            let mut m = k + 1;
            while let Some(a) = toks.get(m) {
                if a.is_punct('[') {
                    d += 1;
                } else if a.is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
            continue;
        }
        if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            let arrow = toks
                .get(k.wrapping_sub(1))
                .is_some_and(|p| p.is_punct('-') || p.is_punct('='));
            if !arrow {
                angle -= 1;
            }
        } else if t.kind == TokKind::Ident && brace == 0 && paren == 0 && angle == 0 {
            let single_colon = toks.get(k + 1).is_some_and(|c| c.is_punct(':'))
                && !toks.get(k + 2).is_some_and(|c| c.is_punct(':'));
            if single_colon {
                fields.push(t.text.clone());
            }
        }
        k += 1;
    }
    fields
}

/// Strips tokens belonging to test code: any item annotated with an
/// attribute containing the identifier `test` (`#[test]`,
/// `#[cfg(test)] mod ...`, `#[cfg(all(test, ...))]`), including the
/// whole body of a `#[cfg(test)] mod`.
#[must_use]
pub fn strip_test_spans(toks: &[Tok]) -> Vec<Tok> {
    let keep = test_keep_mask(toks);
    toks.iter()
        .zip(keep)
        .filter_map(|(t, k)| if k { Some(t.clone()) } else { None })
        .collect()
}

/// Inclusive line ranges covered by test-only tokens. Used to discard
/// waiver directives that sit inside test code: test items are exempt
/// from every rule, so a directive there can never waive anything and
/// must not be audited as stale either.
#[must_use]
pub fn test_span_lines(toks: &[Tok]) -> Vec<(u32, u32)> {
    let keep = test_keep_mask(toks);
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mut in_run = false;
    for (t, k) in toks.iter().zip(keep) {
        if k {
            in_run = false;
        } else if in_run {
            if let Some(last) = out.last_mut() {
                last.1 = t.line;
            }
        } else {
            out.push((t.line, t.line));
            in_run = true;
        }
    }
    out
}

/// The per-token keep/drop mask behind [`strip_test_spans`].
fn test_keep_mask(toks: &[Tok]) -> Vec<bool> {
    let mut keep = vec![true; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks.get(i).is_some_and(|t| t.is_punct('#')) {
            i += 1;
            continue;
        }
        // Attribute: `#[...]` or `#![...]`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut depth = 0i32;
        let mut is_test_attr = false;
        while let Some(t) = toks.get(j) {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("test") {
                // `#[cfg(not(test))]` gates *non*-test code.
                let negated = j >= 2
                    && toks.get(j - 1).is_some_and(|p| p.is_punct('('))
                    && toks.get(j - 2).is_some_and(|p| p.is_ident("not"));
                if !negated {
                    is_test_attr = true;
                }
            }
            j += 1;
        }
        let attr_end = j; // index of the closing ']'
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = attr_end + 1;
        while toks.get(k).is_some_and(|t| t.is_punct('#')) {
            let mut d = 0i32;
            let mut m = k + 1;
            if toks.get(m).is_some_and(|t| t.is_punct('!')) {
                m += 1;
            }
            while let Some(t) = toks.get(m) {
                if t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
        }
        // Skip the annotated item: up to a `;` at depth 0, or the
        // matching `}` of its first depth-0 `{`.
        let mut brace = 0i32;
        let mut paren = 0i32;
        let mut end = k;
        while let Some(t) = toks.get(end) {
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            } else if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct(';') && brace == 0 && paren == 0 {
                break;
            }
            end += 1;
        }
        for flag in keep
            .iter_mut()
            .take((end + 1).min(toks.len()))
            .skip(attr_start)
        {
            *flag = false;
        }
        i = end + 1;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_items(&strip_test_spans(&tokenize(src)))
    }

    #[test]
    fn free_fns_and_methods_are_distinguished() {
        let p = parse(
            "fn free() { helper(); }\n\
             struct S { x: u32 }\n\
             impl S { fn method(&self) -> u32 { self.x } }\n\
             impl Clone for S { fn clone(&self) -> S { S { x: 0 } } }\n",
        );
        let names: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref()))
            .collect();
        assert_eq!(
            names,
            [("free", None), ("method", Some("S")), ("clone", Some("S")),]
        );
        assert!(p.fns.iter().any(|f| f.name == "method" && f.has_self));
        assert!(!p.fns.iter().any(|f| f.name == "free" && f.has_self));
    }

    #[test]
    fn every_method_of_a_multi_method_impl_keeps_the_self_type() {
        // Regression: the first method's closing brace must pop the
        // *body* context, not the enclosing impl — otherwise only the
        // first method of each impl records `self_ty`.
        let p = parse(
            "struct S { x: u32 }\n\
             impl S {\n\
                 fn a(&self) -> u32 { if self.x > 0 { 1 } else { 0 } }\n\
                 fn b(&self) {}\n\
                 fn c(&mut self) { self.x = 3; }\n\
             }\n\
             fn after() {}\n",
        );
        let names: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("a", Some("S")),
                ("b", Some("S")),
                ("c", Some("S")),
                ("after", None),
            ]
        );
    }

    #[test]
    fn impl_trait_for_type_takes_the_type_after_for() {
        let p = parse("impl neofog::Observer for Recorder { fn see(&mut self) {} }");
        assert_eq!(
            p.fns.first().map(|f| f.self_ty.as_deref()),
            Some(Some("Recorder"))
        );
    }

    #[test]
    fn generic_headers_and_where_clauses_do_not_confuse_the_body_span() {
        let p = parse(
            "fn pick<T: Clone>(xs: &[T]) -> Option<T> where T: Default { xs.first().cloned() }",
        );
        let f = p.fns.first().expect("one fn");
        assert!(!f.body.is_empty(), "body span recorded");
        assert_eq!(f.name, "pick");
    }

    #[test]
    fn trait_blocks_record_default_and_bodyless_methods() {
        let p = parse(
            "trait Observer { fn on_event(&mut self, e: u32); fn flush(&mut self) { noop() } }",
        );
        let decls: Vec<(&str, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.body.is_empty()))
            .collect();
        assert_eq!(decls, [("on_event", true), ("flush", false)]);
        assert!(p
            .fns
            .iter()
            .all(|f| f.self_ty.as_deref() == Some("Observer")));
    }

    #[test]
    fn struct_fields_are_collected_and_types_are_not() {
        let p = parse(
            "pub struct Buf {\n  #[serde(skip)]\n  pub capacity: usize,\n  samples: Vec<Box<dyn Fn(u32) -> u32>>,\n}\n\
             struct Unit;\nstruct Pair(u32, u32);\n",
        );
        let buf = p.structs.first().expect("Buf parsed");
        assert_eq!(buf.fields, ["capacity", "samples"]);
        assert_eq!(p.structs.len(), 3);
        assert!(p
            .structs
            .iter()
            .any(|s| s.name == "Pair" && s.fields.is_empty()));
    }

    #[test]
    fn nested_items_keep_module_and_impl_context() {
        let p = parse(
            "mod inner { pub fn helper() {} }\n\
             fn outer() { fn local() {} struct Local { n: u32 } }\n",
        );
        let helper = p.fns.iter().find(|f| f.name == "helper").expect("helper");
        assert_eq!(helper.modules, ["inner"]);
        // A fn nested in a body is recorded but is not a method.
        let local = p.fns.iter().find(|f| f.name == "local").expect("local");
        assert_eq!(local.self_ty, None);
        assert!(p.structs.iter().any(|s| s.name == "Local"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse("fn real(cb: fn(u32) -> u32) -> u32 { cb(1) }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns.first().map(|f| f.name.as_str()), Some("real"));
    }

    #[test]
    fn test_items_are_stripped_before_parsing() {
        let p = parse("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns.first().map(|f| f.name.as_str()), Some("lib"));
    }
}
