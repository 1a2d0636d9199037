//! Dimensioned quantities use the typed units of `neofog-types`.
//!
//! Energy, power, time and charge values must be `Energy`, `Power`,
//! `Duration` or `SimTime`: a bare `f64` silently mixes joules with
//! nanojoules and watts with milliwatts. This test walks the library
//! sources (`crates/*/src` without `src/bin/` and `main.rs`, plus the
//! root `src/`) and flags every `name: f64` field, parameter or const
//! whose name carries a dimension and no dimensionless marker. Local
//! `let` bindings, comments and test items are exempt: the discipline
//! bites at API boundaries.

use std::path::{Path, PathBuf};

/// Name fragments that mark an `f64` as carrying a physical dimension.
const DIMENSIONED: &str = "energy power joule watt volt ampere coulomb charge latency duration \
                           elapsed timeout deadline airtime";
/// Suffixes that mark an `f64` as carrying an explicit unit.
const UNIT_SUFFIXES: &str = "_nj _uj _mj _j _nw _uw _mw _w _us _ms _ns _secs _seconds _micros \
                             _millis _nanos";
/// Fragments that mark a dimensionless ratio (`charge_efficiency`).
const DIMENSIONLESS: &str = "efficiency _eff eff_ ratio fraction factor scale share prob chance \
                             weight score norm gain loss";
/// Names that look dimensioned but are not.
const IDENT_ALLOWS: &[&str] = &[
    "initial_charge", // fraction of capacitor capacity in [0, 1], not coulombs
];
/// `units.rs` defines the raw representations the typed units wrap.
const FILE_ALLOWS: &[&str] = &["crates/types/src/units.rs"];

fn is_dimensioned(name: &str) -> bool {
    let lower = name.to_lowercase();
    let has = |list: &str| list.split_whitespace().any(|m| lower.contains(m));
    !has(DIMENSIONLESS)
        && !IDENT_ALLOWS.contains(&name)
        && (has(DIMENSIONED) || UNIT_SUFFIXES.split_whitespace().any(|s| lower.ends_with(s)))
}

/// Splits source into identifier and single-character tokens, dropping
/// comments and the contents of string and char literals.
fn tokens(src: &str) -> Vec<String> {
    let c: Vec<char> = src.chars().collect();
    let at = |k: usize| c.get(k).copied().unwrap_or(' ');
    let (mut out, mut i) = (Vec::new(), 0);
    while i < c.len() {
        let start = i;
        i += 1;
        match (c[start], at(start + 1)) {
            ('/', '/') => i = (start..c.len()).find(|&k| c[k] == '\n').unwrap_or(c.len()),
            ('/', '*') => {
                i = (start + 2..c.len())
                    .find(|&k| c[k] == '*' && at(k + 1) == '/')
                    .map_or(c.len(), |k| k + 2);
            }
            ('"', _) => {
                // A raw string ends at `"` plus the `#`s it opened with.
                let hashes = c[..start].iter().rev().take_while(|&&h| h == '#').count();
                let raw = at(start.wrapping_sub(hashes + 1)) == 'r';
                while i < c.len() && !(c[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#')) {
                    i += if !raw && c[i] == '\\' { 2 } else { 1 };
                }
                i += 1;
            }
            ('\'', '\\') => {
                i = (start + 3..c.len())
                    .find(|&k| c[k] == '\'')
                    .map_or(c.len(), |k| k + 1);
            }
            ('\'', _) if at(start + 2) == '\'' => i = start + 3,
            (ch, _) if ch.is_alphanumeric() || ch == '_' => {
                while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                    i += 1;
                }
                out.push(c[start..i].iter().collect());
            }
            (ch, _) if !ch.is_whitespace() => out.push(ch.to_string()),
            _ => {}
        }
    }
    out
}

/// Drops every item under an attribute that names `test` (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, ...))]`): through its first `;`
/// outside brackets, or through the brace block it opens.
fn strip_test_items(toks: &[String]) -> Vec<String> {
    let (mut out, mut i) = (Vec::new(), 0);
    while i < toks.len() {
        let attr = toks[i] == "#" && toks.get(i + 1).is_some_and(|t| t == "[");
        let end = toks[i..].iter().position(|t| t == "]").map(|p| i + p);
        let Some(end) = end.filter(|&e| attr && toks[i..e].iter().any(|t| t == "test")) else {
            out.push(toks[i].clone());
            i += 1;
            continue;
        };
        let (mut depth, mut braces) = (0, 0);
        i = end + 1;
        while let Some(t) = toks.get(i) {
            i += 1;
            match t.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => braces += 1,
                "}" if braces <= 1 => break,
                "}" => braces -= 1,
                ";" if depth == 0 && braces == 0 => break,
                _ => {}
            }
        }
    }
    out
}

/// The names of every dimensioned `name: f64` outside a `let`.
fn violations(src: &str) -> Vec<String> {
    let toks = strip_test_items(&tokens(src));
    let tok = |k: Option<usize>| k.and_then(|k| toks.get(k)).map(String::as_str);
    (0..toks.len())
        .filter(|&i| {
            tok(Some(i + 1)) == Some(":")
                && tok(Some(i + 2)) == Some("f64")
                && tok(Some(i + 3)).is_none_or(|t| [",", ")", "}", "=", ";"].contains(&t))
                && tok(i.checked_sub(1)) != Some("let")
                && (tok(i.checked_sub(1)), tok(i.checked_sub(2))) != (Some("mut"), Some("let"))
                && is_dimensioned(&toks[i])
        })
        .map(|i| toks[i].clone())
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() && !path.ends_with("bin") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("main.rs") {
            out.push(path);
        }
    }
}

#[test]
fn dimensioned_f64_names_use_typed_units() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut found = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).expect("under the workspace root");
        if !FILE_ALLOWS.iter().any(|&allowed| rel == Path::new(allowed)) {
            let src = std::fs::read_to_string(path).expect("readable source file");
            let names = violations(&src).into_iter();
            found.extend(names.map(|name| format!("{}: `{name}: f64`", rel.display())));
        }
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    assert!(
        found.is_empty(),
        "dimensioned quantities carried as bare f64; use Energy/Power/Duration:\n{}",
        found.join("\n")
    );
}

#[test]
fn flags_a_dimensioned_field_and_nothing_exempt() {
    let src = r#"
        pub struct Node { pub standby_energy: f64, pub charge_efficiency: f64 }
        pub fn f(initial_charge: f64, deadline: u64) { let airtime_us: f64 = 1.0; }
        // pub latency_ms: f64,
        const NOTE: &str = "timeout_ms: f64, {";
        const BRACE: char = '{';
        #[cfg(test)]
        mod tests { fn g(latency_ms: f64) { let _ = '}'; } }
        pub const PEAK_POWER_MW: f64 = 3.0;
    "#;
    assert_eq!(violations(src), ["standby_energy", "PEAK_POWER_MW"]);
}
