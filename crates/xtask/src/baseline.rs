//! The checked-in violation baseline (`lint-baseline.json`).
//!
//! The graph rules (NF-REACH, NF-NV, NF-DET-004) inherit every
//! pre-existing finding the per-site waivers deliberately did not hide
//! — chiefly loop-bound indexing in numeric kernels that the slot loop
//! reaches. Those live in `lint-baseline.json` at the workspace root:
//! `cargo xtask lint` subtracts baselined findings (reporting how
//! many), fails on anything new, and warns when a baseline entry no
//! longer matches any finding so the file can only shrink honestly.
//! Regenerate with `cargo xtask lint --update-baseline` after fixing
//! sites (review the diff — the tool cannot tell a fix from a
//! regression elsewhere).
//!
//! Entries are keyed on `(rule, path, message)` with an occurrence
//! count; messages contain function display names but no line numbers,
//! so unrelated edits moving code up or down a file do not churn the
//! baseline.

use crate::engine::Violation;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Name of the baseline file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// One aggregated baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    rule: String,
    path: String,
    message: String,
    count: u64,
}

/// A parsed baseline.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: Vec<Entry>,
}

impl Baseline {
    /// Loads the baseline at `path`. A missing file is an empty
    /// baseline; a malformed one is an error.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files and
    /// [`io::ErrorKind::InvalidData`] for malformed JSON.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        if !path.is_file() {
            return Ok(Baseline::default());
        }
        let text = std::fs::read_to_string(path)?;
        parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Aggregates `violations` into a fresh baseline.
    #[must_use]
    pub fn from_violations(violations: &[Violation]) -> Baseline {
        let mut counts: BTreeMap<(String, String, String), u64> = BTreeMap::new();
        for v in violations {
            *counts
                .entry((v.rule.to_string(), v.path.clone(), v.message.clone()))
                .or_insert(0) += 1;
        }
        Baseline {
            entries: counts
                .into_iter()
                .map(|((rule, path, message), count)| Entry {
                    rule,
                    path,
                    message,
                    count,
                })
                .collect(),
        }
    }

    /// Number of findings the baseline waives in total.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Splits `violations` into the ones the baseline does not cover
    /// and the ones it waives — `(kept, suppressed)`. Suppressed
    /// findings are returned whole (not just counted) so SARIF output
    /// can report them with a `suppressions` entry instead of hiding
    /// them. Entries left with unmatched count append a stale-baseline
    /// warning.
    #[must_use]
    pub fn apply(
        &self,
        violations: Vec<Violation>,
        warnings: &mut Vec<String>,
    ) -> (Vec<Violation>, Vec<Violation>) {
        let mut remaining: BTreeMap<(String, String, String), u64> = self
            .entries
            .iter()
            .map(|e| ((e.rule.clone(), e.path.clone(), e.message.clone()), e.count))
            .collect();
        let mut kept = Vec::new();
        let mut suppressed = Vec::new();
        for v in violations {
            let key = (v.rule.to_string(), v.path.clone(), v.message.clone());
            match remaining.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    suppressed.push(v);
                }
                _ => kept.push(v),
            }
        }
        for ((rule, path, message), n) in remaining {
            if n > 0 {
                warnings.push(format!(
                    "stale baseline entry: [{rule}] {path} — \"{message}\" \
                     waives {n} finding(s) that no longer occur; regenerate \
                     with `cargo xtask lint --update-baseline`"
                ));
            }
        }
        (kept, suppressed)
    }

    /// Renders the baseline as deterministic, diff-friendly JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::from("{\n  \"version\": 1,\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"rule\": {}, ", crate::sarif::json_str(&e.rule)));
            s.push_str(&format!("\"path\": {}, ", crate::sarif::json_str(&e.path)));
            s.push_str(&format!(
                "\"message\": {}, ",
                crate::sarif::json_str(&e.message)
            ));
            s.push_str(&format!("\"count\": {}}}", e.count));
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

// --- minimal JSON reader -------------------------------------------------
//
// The workspace builds offline with no serde backend, so the baseline
// is read by this purpose-built scanner: objects, arrays, strings with
// the escapes `render` emits, and unsigned integers. Anything else is a
// parse error — the file is machine-written.

struct Reader {
    chars: Vec<char>,
    pos: usize,
}

impl Reader {
    fn new(text: &str) -> Reader {
        Reader {
            chars: text.chars().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at offset {start}"));
        }
        self.chars
            .get(start..self.pos)
            .map(|cs| cs.iter().collect::<String>())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "number out of range".to_string())
    }
}

fn parse(text: &str) -> Result<Baseline, String> {
    let mut r = Reader::new(text);
    r.eat('{')?;
    let mut entries = Vec::new();
    loop {
        r.skip_ws();
        if r.peek() == Some('}') {
            r.bump();
            break;
        }
        let key = r.string()?;
        r.eat(':')?;
        match key.as_str() {
            "version" => {
                let v = r.number()?;
                if v != 1 {
                    return Err(format!("unsupported baseline version {v}"));
                }
            }
            "entries" => {
                r.eat('[')?;
                loop {
                    r.skip_ws();
                    if r.peek() == Some(']') {
                        r.bump();
                        break;
                    }
                    entries.push(parse_entry(&mut r)?);
                    r.skip_ws();
                    if r.peek() == Some(',') {
                        r.bump();
                    }
                }
            }
            other => return Err(format!("unknown key `{other}`")),
        }
        r.skip_ws();
        if r.peek() == Some(',') {
            r.bump();
        }
    }
    Ok(Baseline { entries })
}

fn parse_entry(r: &mut Reader) -> Result<Entry, String> {
    r.eat('{')?;
    let mut rule = None;
    let mut path = None;
    let mut message = None;
    let mut count = None;
    loop {
        r.skip_ws();
        if r.peek() == Some('}') {
            r.bump();
            break;
        }
        let key = r.string()?;
        r.eat(':')?;
        match key.as_str() {
            "rule" => rule = Some(r.string()?),
            "path" => path = Some(r.string()?),
            "message" => message = Some(r.string()?),
            "count" => count = Some(r.number()?),
            other => return Err(format!("unknown entry key `{other}`")),
        }
        r.skip_ws();
        if r.peek() == Some(',') {
            r.bump();
        }
    }
    match (rule, path, message, count) {
        (Some(rule), Some(path), Some(message), Some(count)) => Ok(Entry {
            rule,
            path,
            message,
            count,
        }),
        _ => Err("entry missing rule/path/message/count".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, path: &str, message: &str) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line: 1,
            message: message.to_string(),
            subject: String::new(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let vs = vec![
            v("NF-REACH-001", "crates/core/src/a.rs", "m \"one\""),
            v("NF-REACH-001", "crates/core/src/a.rs", "m \"one\""),
            v("NF-NV-001", "crates/nvp/src/b.rs", "m two"),
        ];
        let b = Baseline::from_violations(&vs);
        let parsed = parse(&b.render()).expect("round trip");
        assert_eq!(parsed.entries, b.entries);
        assert_eq!(parsed.total(), 3);
    }

    #[test]
    fn apply_suppresses_counts_and_flags_stale_leftovers() {
        let base = Baseline::from_violations(&[
            v("NF-REACH-001", "a.rs", "m"),
            v("NF-REACH-001", "a.rs", "m"),
            v("NF-NV-001", "b.rs", "gone"),
        ]);
        // One of the two `m` findings remains, `gone` was fixed, and a
        // brand-new finding appears.
        let current = vec![
            v("NF-REACH-001", "a.rs", "m"),
            v("NF-DET-004", "c.rs", "new"),
        ];
        let mut warnings = Vec::new();
        let (kept, suppressed) = base.apply(current, &mut warnings);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed.first().map(|v| v.rule), Some("NF-REACH-001"));
        assert_eq!(kept.len(), 1);
        assert_eq!(kept.first().map(|v| v.rule), Some("NF-DET-004"));
        // Two stale keys: the unmatched half of `m` and all of `gone`.
        assert_eq!(warnings.len(), 2, "{warnings:?}");
    }

    #[test]
    fn missing_file_is_an_empty_baseline() {
        let b = Baseline::load(Path::new("/nonexistent/lint-baseline.json")).expect("empty");
        assert_eq!(b.total(), 0);
    }
}
