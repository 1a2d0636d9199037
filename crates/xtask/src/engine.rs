//! The lint engine driver: file classification, the three-pass
//! pipeline, waiver bookkeeping and the baseline filter.
//!
//! Pass 1 builds a [`FileModel`] per classified file (token stream
//! with test spans stripped, plus the parsed item model) and runs the
//! per-file matchers. Pass 2 builds the workspace [`CallGraph`]. Pass 3
//! runs the transitive rules in [`crate::reach`] and
//! [`crate::dataflow`]. All raw findings then flow through one
//! suppression layer — inline `neofog-lint: allow(...)` directives,
//! then identifier allowlists, then file allowlists, then (workspace
//! runs only) the checked-in baseline — which records which waivers
//! actually fired so stale ones can be reported as warnings instead of
//! silently rotting.

use crate::baseline::{Baseline, BASELINE_FILE};
use crate::dataflow;
use crate::graph::CallGraph;
use crate::lexer::{tokenize, Tok, TokKind};
use crate::parser::{test_span_lines, FileModel};
use crate::reach;
use crate::rules::{
    self, Scope, BANNED_HASH_IDENTS, BANNED_PANIC_MACROS, BANNED_PANIC_METHODS, BANNED_RNG_IDENTS,
    BANNED_TIME_IDENTS, DIMENSIONED_MARKERS, DIMENSIONED_SUFFIXES, DIMENSIONLESS_MARKERS,
    LEDGER_METHODS,
};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Crates whose library code must be deterministic (rule scope
/// [`Scope::SimCrates`]).
const SIM_CRATES: &[&str] = &["core", "energy", "net", "nvp", "rf"];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule ID, e.g. `NF-DET-002`.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// What was found at the site.
    pub message: String,
    /// The identifier the finding is about (method/field/ident name),
    /// used by identifier-level allowlists; empty when not
    /// applicable.
    pub subject: String,
    /// For graph rules: the call chain (display names) from an entry
    /// point to the offending function. Empty for per-file rules.
    pub chain: Vec<String>,
}

/// How a file participates in the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name (`core`, `types`, ...; `neofog` for the
    /// root package).
    pub crate_name: String,
    /// Library code: panic-policy and unit rules apply.
    pub is_library: bool,
    /// Library code of a deterministic simulation crate.
    pub is_sim: bool,
}

/// Classifies a workspace-relative path. Returns `None` for files the
/// pass skips entirely (tests, benches, examples, fixtures, shims).
#[must_use]
pub fn classify(rel: &str) -> Option<FileClass> {
    let rel = rel.replace('\\', "/");
    if !rel.ends_with(".rs") {
        return None;
    }
    let skip_fragments = [
        "/tests/",
        "/benches/",
        "/examples/",
        "/fixtures/",
        "/target/",
    ];
    if skip_fragments.iter().any(|f| rel.contains(f))
        || rel.starts_with("shims/")
        || rel.starts_with("target/")
    {
        return None;
    }
    let (crate_name, in_src) = if let Some(rest) = rel.strip_prefix("crates/") {
        let mut parts = rest.splitn(2, '/');
        let name = parts.next()?.to_string();
        let tail = parts.next()?;
        (name, tail.starts_with("src/"))
    } else if rel.starts_with("src/") {
        ("neofog".to_string(), true)
    } else {
        return None;
    };
    if !in_src {
        return None;
    }
    // Binaries (bench figure generators) are exempt from the library
    // panic policy and the determinism rules: they are allowed to
    // measure wall-clock time and to abort on setup errors.
    let is_bin = rel.contains("/src/bin/") || rel.ends_with("/main.rs");
    let is_library = !is_bin;
    let is_sim = is_library && SIM_CRATES.contains(&crate_name.as_str());
    Some(FileClass {
        crate_name,
        is_library,
        is_sim,
    })
}

/// One inline waiver: `// neofog-lint: allow(RULE)` covering its own
/// line and the line below.
#[derive(Debug)]
struct InlineAllow {
    rule: String,
    line: u32,
    used: bool,
}

/// Parses `// neofog-lint: allow(ID[, ID]*)` directives, one entry
/// per (rule, directive line).
fn parse_allow_directives(source: &str) -> Vec<InlineAllow> {
    let mut out = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let Some(pos) = raw.find("neofog-lint:") else {
            continue;
        };
        let rest = &raw[pos + "neofog-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        for id in after[..close].split(',') {
            let id = id.trim();
            if id.is_empty() {
                continue;
            }
            out.push(InlineAllow {
                rule: id.to_string(),
                line: line_no,
                used: false,
            });
        }
    }
    out
}

/// True when `id` is shaped like a real rule id (`NF-PANIC-001`):
/// exactly three `-`-separated segments — `NF`, an uppercase family,
/// a numeric index.
fn has_rule_id_shape(id: &str) -> bool {
    let mut parts = id.split('-');
    let (a, b, c) = (parts.next(), parts.next(), parts.next());
    parts.next().is_none()
        && a == Some("NF")
        && b.is_some_and(|s| !s.is_empty() && s.chars().all(|ch| ch.is_ascii_uppercase()))
        && c.is_some_and(|s| !s.is_empty() && s.chars().all(|ch| ch.is_ascii_digit()))
}

/// Keywords that may legitimately precede a `[` starting an array
/// expression or type rather than an indexing operation.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

/// Matches a workspace-relative path against a glob pattern where `*`
/// stands for any run of characters except `/`. A pattern without `*`
/// degrades to exact equality, so plain paths keep their old meaning.
pub(crate) fn glob_matches(pattern: &str, path: &str) -> bool {
    fn segment_matches(pat: &str, seg: &str) -> bool {
        match pat.split_once('*') {
            None => pat == seg,
            Some((prefix, rest)) => {
                let Some(tail) = seg.strip_prefix(prefix) else {
                    return false;
                };
                // Greedy scan: try every split point for the `*`.
                (0..=tail.len())
                    .rev()
                    .filter(|&k| tail.is_char_boundary(k))
                    .any(|k| segment_matches(rest, &tail[k..]))
            }
        }
    }
    let mut pats = pattern.split('/');
    let mut segs = path.split('/');
    loop {
        match (pats.next(), segs.next()) {
            (None, None) => return true,
            (Some(p), Some(s)) => {
                if !segment_matches(p, s) {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

// --- shared site scanners ------------------------------------------------
//
// The per-file matchers scan a whole token stream; the graph rules in
// `crate::reach` scan one function body at a time. Both use these
// range-based helpers so the heuristics cannot drift apart.

/// `.unwrap()` / `.expect(` method-call sites in `range`.
pub(crate) fn panic_method_sites(toks: &[Tok], range: Range<usize>) -> Vec<(u32, String)> {
    let mut hits = Vec::new();
    for i in range {
        let Some(tok) = toks.get(i) else { break };
        if tok.kind != TokKind::Ident || !BANNED_PANIC_METHODS.contains(&tok.text.as_str()) {
            continue;
        }
        let dotted = i > 0 && toks.get(i - 1).is_some_and(|t| t.is_punct('.'));
        let called = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if dotted && called {
            hits.push((tok.line, tok.text.clone()));
        }
    }
    hits
}

/// `panic!` / `unreachable!` / `todo!` / `unimplemented!` sites in
/// `range`.
pub(crate) fn panic_macro_sites(toks: &[Tok], range: Range<usize>) -> Vec<(u32, String)> {
    let mut hits = Vec::new();
    for i in range {
        let Some(tok) = toks.get(i) else { break };
        if tok.kind != TokKind::Ident || !BANNED_PANIC_MACROS.contains(&tok.text.as_str()) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            hits.push((tok.line, tok.text.clone()));
        }
    }
    hits
}

/// `expr[...]` indexing sites in `range` (heuristic: `[` directly
/// after an identifier, `)` or `]`).
pub(crate) fn indexing_sites(toks: &[Tok], range: Range<usize>) -> Vec<u32> {
    let mut hits = Vec::new();
    for i in range {
        if i == 0 {
            continue;
        }
        let Some(tok) = toks.get(i) else { break };
        if !tok.is_punct('[') {
            continue;
        }
        let Some(prev) = toks.get(i - 1) else {
            continue;
        };
        let indexes = match prev.kind {
            TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
            TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
            _ => false,
        };
        if indexes {
            hits.push(tok.line);
        }
    }
    hits
}

/// Banned-determinism identifier sites in `range`:
/// `(rule, line, name, what)`.
pub(crate) fn det_ident_sites(
    toks: &[Tok],
    range: Range<usize>,
) -> Vec<(&'static str, u32, String, &'static str)> {
    let groups: [(&'static str, &[&str], &'static str); 3] = [
        ("NF-DET-001", BANNED_TIME_IDENTS, "wall-clock time source"),
        ("NF-DET-002", BANNED_HASH_IDENTS, "hash-ordered collection"),
        ("NF-DET-003", BANNED_RNG_IDENTS, "non-SimRng randomness"),
    ];
    let mut hits = Vec::new();
    for i in range {
        let Some(tok) = toks.get(i) else { break };
        if tok.kind != TokKind::Ident {
            continue;
        }
        for (rule, idents, what) in groups {
            if idents.contains(&tok.text.as_str()) {
                hits.push((rule, tok.line, tok.text.clone(), what));
            }
        }
    }
    hits
}

// --- per-file matchers ---------------------------------------------------

/// Is `rule_id` in scope for this file? (Allowlists are applied later,
/// in the suppression layer.)
fn rule_in_scope(rule_id: &str, model: &FileModel) -> bool {
    let Some(rule) = rules::rule_by_id(rule_id) else {
        return false;
    };
    match rule.scope {
        Scope::Library => model.class.is_library,
        Scope::SimCrates => model.class.is_sim,
        Scope::File(path) => model.rel == path,
        Scope::Glob(pattern) => glob_matches(pattern, &model.rel),
    }
}

fn push_violation(
    out: &mut Vec<Violation>,
    model: &FileModel,
    rule: &'static str,
    line: u32,
    subject: String,
    message: String,
) {
    out.push(Violation {
        rule,
        path: model.rel.clone(),
        line,
        message,
        subject,
        chain: Vec::new(),
    });
}

/// Runs every per-file rule over one model, emitting raw
/// (unsuppressed) violations.
fn per_file_rules(model: &FileModel) -> Vec<Violation> {
    let mut out = Vec::new();
    let all = 0..model.toks.len();
    for (rule, line, name, what) in det_ident_sites(&model.toks, all.clone()) {
        if rule_in_scope(rule, model) {
            let msg = format!("{what} `{name}`");
            push_violation(&mut out, model, rule, line, name, msg);
        }
    }
    if rule_in_scope("NF-PANIC-001", model) {
        for (line, name) in panic_method_sites(&model.toks, all.clone()) {
            let msg = format!("`.{name}()` can panic");
            push_violation(&mut out, model, "NF-PANIC-001", line, name, msg);
        }
    }
    if rule_in_scope("NF-PANIC-002", model) {
        for (line, name) in panic_macro_sites(&model.toks, all.clone()) {
            let msg = format!("`{name}!` aborts the simulation");
            push_violation(&mut out, model, "NF-PANIC-002", line, name, msg);
        }
    }
    if rule_in_scope("NF-PANIC-003", model) {
        for line in indexing_sites(&model.toks, all.clone()) {
            push_violation(
                &mut out,
                model,
                "NF-PANIC-003",
                line,
                String::new(),
                "slice indexing can panic; use get() or an iterator".to_string(),
            );
        }
    }
    check_units(model, &mut out);
    check_ledger(model, &mut out);
    out
}

fn is_dimensioned_name(name: &str) -> bool {
    let lower = name.to_lowercase();
    if DIMENSIONLESS_MARKERS.iter().any(|m| lower.contains(m)) {
        return false;
    }
    DIMENSIONED_MARKERS.iter().any(|m| lower.contains(m))
        || DIMENSIONED_SUFFIXES.iter().any(|s| lower.ends_with(s))
}

/// NF-UNIT-001: `name: f64` fields, parameters and consts whose name
/// carries a physical dimension. Local `let` bindings are exempt — the
/// typed-unit discipline bites at API boundaries.
fn check_units(model: &FileModel, out: &mut Vec<Violation>) {
    if !rule_in_scope("NF-UNIT-001", model) || model.rel == "crates/types/src/units.rs" {
        return;
    }
    let toks = &model.toks;
    for i in 0..toks.len() {
        let Some(name_tok) = toks.get(i) else { break };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let colon = toks.get(i + 1).is_some_and(|t| t.is_punct(':'));
        let f64_type = toks.get(i + 2).is_some_and(|t| t.is_ident("f64"));
        let terminated = toks.get(i + 3).is_none_or(|t| {
            t.is_punct(',')
                || t.is_punct(')')
                || t.is_punct('}')
                || t.is_punct('=')
                || t.is_punct(';')
        });
        if !(colon && f64_type && terminated) {
            continue;
        }
        // `let [mut] name: f64` is a local binding — exempt.
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let prev2 = i.checked_sub(2).and_then(|p| toks.get(p));
        let is_local = prev.is_some_and(|t| t.is_ident("let"))
            || (prev.is_some_and(|t| t.is_ident("mut"))
                && prev2.is_some_and(|t| t.is_ident("let")));
        if is_local || !is_dimensioned_name(&name_tok.text) {
            continue;
        }
        let msg = format!(
            "`{}: f64` looks dimensioned; use the typed units in \
             neofog_types (Energy/Power/Duration)",
            name_tok.text
        );
        push_violation(
            out,
            model,
            "NF-UNIT-001",
            name_tok.line,
            name_tok.text.clone(),
            msg,
        );
    }
}

/// NF-LEDGER-001: energy-moving calls in the slot loop must book in the
/// `EnergyLedger` — an identifier `ledger` within two lines.
fn check_ledger(model: &FileModel, out: &mut Vec<Violation>) {
    if !rule_in_scope("NF-LEDGER-001", model) {
        return;
    }
    let toks = &model.toks;
    // Any identifier mentioning the ledger counts as a booking site:
    // `ledger`, `ledgers[i]`, `EnergyLedger::open`, ...
    let ledger_lines: BTreeSet<u32> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("ledger"))
        .map(|t| t.line)
        .collect();
    for i in 1..toks.len() {
        let Some(tok) = toks.get(i) else { break };
        if tok.kind != TokKind::Ident || !LEDGER_METHODS.contains(&tok.text.as_str()) {
            continue;
        }
        let dotted = toks.get(i - 1).is_some_and(|t| t.is_punct('.'));
        let called = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !(dotted && called) {
            continue;
        }
        let near_ledger = ledger_lines
            .range(tok.line.saturating_sub(2)..=tok.line + 2)
            .next()
            .is_some();
        if !near_ledger {
            let msg = format!(
                "`.{}()` moves energy without booking it in the ledger",
                tok.text
            );
            push_violation(out, model, "NF-LEDGER-001", tok.line, tok.text.clone(), msg);
        }
    }
}

// --- the three-pass driver -----------------------------------------------

/// Per-run statistics: per-pass wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Pass 1: model building (lex + parse) plus the per-file rules.
    pub pass1_ms: u64,
    /// Pass 2: call-graph construction.
    pub pass2_ms: u64,
    /// Pass 3: transitive rules (reachability + dataflow).
    pub pass3_ms: u64,
}

fn elapsed_ms(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Result of analysing a set of sources, before any baseline is
/// applied.
struct Analysis {
    files_checked: usize,
    violations: Vec<Violation>,
    warnings: Vec<String>,
    file_allow_used: Vec<bool>,
    ident_allow_used: Vec<bool>,
    stats: LintStats,
}

/// Runs all three passes and the waiver suppression layer over `files`
/// (pairs of workspace-relative path and source text).
fn analyze(files: &[(String, String)]) -> Analysis {
    let mut stats = LintStats::default();
    // Pass 1: per-file models and per-file rules.
    let t1 = Instant::now();
    let mut models: Vec<FileModel> = Vec::new();
    let mut inline: Vec<Vec<InlineAllow>> = Vec::new();
    for (rel, source) in files {
        let Some(class) = classify(rel) else { continue };
        models.push(FileModel::build(rel, class, source));
        // Directives inside test items can neither waive (test code is
        // exempt) nor go stale — drop them before bookkeeping. The line
        // ranges come from the *unstripped* token stream.
        let test_lines = test_span_lines(&tokenize(source));
        let mut allows = parse_allow_directives(source);
        allows.retain(|a| !test_lines.iter().any(|&(s, e)| a.line >= s && a.line <= e));
        inline.push(allows);
    }
    let mut raw: Vec<Violation> = Vec::new();
    for m in &models {
        raw.extend(per_file_rules(m));
    }
    stats.pass1_ms = elapsed_ms(t1);
    // Pass 2: the call graph, minus developer tooling crates.
    let t2 = Instant::now();
    let graph_models: Vec<FileModel> = models
        .iter()
        .filter(|m| !rules::TOOL_CRATES.contains(&m.class.crate_name.as_str()))
        .cloned()
        .collect();
    let graph = CallGraph::build(&graph_models);
    stats.pass2_ms = elapsed_ms(t2);
    // Pass 3: the transitive rules. These always run in full — one
    // edited file can change reachability anywhere.
    let t3 = Instant::now();
    raw.extend(reach::panic_reachability(&graph_models, &graph));
    raw.extend(reach::determinism_closure(&graph_models, &graph));
    raw.extend(reach::nv_write_discipline(&graph_models, &graph));
    raw.extend(dataflow::hot_path::alloc_reachability(
        &graph_models,
        &graph,
    ));
    raw.extend(dataflow::par::parallel_discipline(&graph_models, &graph));
    stats.pass3_ms = elapsed_ms(t3);
    raw.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    // Suppression: inline directives, then identifier allowlist, then
    // file allowlist — marking each waiver that fires.
    let file_index: BTreeMap<&str, usize> = models
        .iter()
        .enumerate()
        .map(|(i, m)| (m.rel.as_str(), i))
        .collect();
    let mut file_allow_used = vec![false; rules::FILE_ALLOWS.len()];
    let mut ident_allow_used = vec![false; rules::IDENT_ALLOWS.len()];
    let mut kept = Vec::new();
    'violations: for v in raw {
        if let Some(&fi) = file_index.get(v.path.as_str()) {
            if let Some(allows) = inline.get_mut(fi) {
                for a in allows.iter_mut() {
                    if a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line) {
                        a.used = true;
                        continue 'violations;
                    }
                }
            }
        }
        for (ai, a) in rules::IDENT_ALLOWS.iter().enumerate() {
            if a.rule == v.rule && a.ident == v.subject {
                if let Some(slot) = ident_allow_used.get_mut(ai) {
                    *slot = true;
                }
                continue 'violations;
            }
        }
        for (ai, a) in rules::FILE_ALLOWS.iter().enumerate() {
            if a.rule == v.rule && glob_matches(a.path, &v.path) {
                if let Some(slot) = file_allow_used.get_mut(ai) {
                    *slot = true;
                }
                continue 'violations;
            }
        }
        kept.push(v);
    }
    // Stale inline directives: a waiver that fired on nothing.
    let mut warnings = Vec::new();
    for (m, allows) in models.iter().zip(&inline) {
        for a in allows {
            // Only audit ids with the real `NF-XXX-NNN` shape: prose
            // that *mentions* the directive syntax with a placeholder
            // id (`allow(...)`, `allow(NF-XXX-NNN)`) is documentation,
            // not a waiver.
            if !a.used && has_rule_id_shape(&a.rule) {
                warnings.push(format!(
                    "{}:{}: stale waiver: `neofog-lint: allow({})` matches no \
                     violation site — remove it or fix the rule id",
                    m.rel, a.line, a.rule
                ));
            }
        }
    }
    Analysis {
        files_checked: models.len(),
        violations: kept,
        warnings,
        file_allow_used,
        ident_allow_used,
        stats,
    }
}

/// Warnings for [`rules::FileAllow`] entries that waived nothing.
pub(crate) fn stale_file_allow_warnings(allows: &[rules::FileAllow], used: &[bool]) -> Vec<String> {
    allows
        .iter()
        .zip(used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| {
            format!(
                "stale waiver: rules.rs FILE_ALLOWS entry [{}] {} matches no \
                 violation site — remove it",
                a.rule, a.path
            )
        })
        .collect()
}

/// Warnings for [`rules::IdentAllow`] entries that waived nothing.
pub(crate) fn stale_ident_allow_warnings(
    allows: &[rules::IdentAllow],
    used: &[bool],
) -> Vec<String> {
    allows
        .iter()
        .zip(used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| {
            format!(
                "stale waiver: rules.rs IDENT_ALLOWS entry [{}] `{}` matches \
                 no violation site — remove it",
                a.rule, a.ident
            )
        })
        .collect()
}

/// Outcome of linting a file tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// Number of files that were classified and scanned.
    pub files_checked: usize,
    /// Non-waived, non-baselined diagnostics, ordered by path then
    /// line.
    pub violations: Vec<Violation>,
    /// Findings suppressed by the checked-in baseline
    /// (`suppressed.len()`).
    pub baselined: usize,
    /// The baseline-suppressed findings themselves, so SARIF output
    /// can report them with a `suppressions` entry instead of hiding
    /// them.
    pub suppressed: Vec<Violation>,
    /// Stale-waiver and stale-baseline warnings. Never fail the run,
    /// but the workspace self-test keeps them at zero.
    pub warnings: Vec<String>,
    /// Per-pass timings for this run.
    pub stats: LintStats,
}

/// Lints a set of in-memory sources as one mini-workspace: all three
/// passes and the inline-waiver audit run; the `rules.rs` allowlist
/// audit and the baseline do not (they are meaningful only against the
/// real tree).
#[must_use]
pub fn lint_sources(files: &[(&str, &str)]) -> LintReport {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| ((*rel).to_string(), (*src).to_string()))
        .collect();
    let analysis = analyze(&owned);
    LintReport {
        files_checked: analysis.files_checked,
        violations: analysis.violations,
        baselined: 0,
        suppressed: Vec::new(),
        warnings: analysis.warnings,
        stats: analysis.stats,
    }
}

/// Lints one file's source text. `rel_path` decides which rules apply;
/// unclassified paths produce no diagnostics. The graph rules see a
/// one-file workspace, so cross-file reachability needs
/// [`lint_sources`].
#[must_use]
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
    lint_sources(&[(rel_path, source)]).violations
}

/// Recursively collects `.rs` files under `dir` into `out` as paths
/// relative to `root`.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Options for a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Subtract the checked-in baseline (normal runs).
    pub apply_baseline: bool,
    /// When set, reported findings (kept *and* suppressed) are
    /// restricted to these workspace-relative paths and the
    /// stale-waiver audit is skipped, since waivers for untouched
    /// files legitimately fire on nothing in a scoped run — the
    /// `--changed` mode. The analysis itself still covers the whole
    /// tree: transitive rules need every file.
    pub changed_paths: Option<Vec<String>>,
}

/// Lints the whole workspace rooted at `root` (`crates/*/src` plus the
/// root package's `src/`) according to `opts`.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files,
/// or [`std::io::ErrorKind::InvalidData`] for a malformed baseline.
pub fn lint_workspace_with(root: &Path, opts: &LintOptions) -> std::io::Result<LintReport> {
    let mut rels = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(root, &dir, &mut rels)?;
        }
    }
    rels.sort();
    let mut files = Vec::new();
    for rel in rels {
        if classify(&rel).is_none() {
            continue;
        }
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    let analysis = analyze(&files);
    let mut warnings = analysis.warnings;
    warnings.extend(stale_file_allow_warnings(
        rules::FILE_ALLOWS,
        &analysis.file_allow_used,
    ));
    warnings.extend(stale_ident_allow_warnings(
        rules::IDENT_ALLOWS,
        &analysis.ident_allow_used,
    ));
    let (mut violations, mut suppressed) = if opts.apply_baseline {
        let baseline = Baseline::load(&root.join(BASELINE_FILE))?;
        baseline.apply(analysis.violations, &mut warnings)
    } else {
        (analysis.violations, Vec::new())
    };
    if let Some(paths) = &opts.changed_paths {
        let touched = |v: &Violation| paths.iter().any(|p| p == &v.path);
        violations.retain(&touched);
        suppressed.retain(&touched);
        warnings.clear();
    }
    Ok(LintReport {
        files_checked: analysis.files_checked,
        violations,
        baselined: suppressed.len(),
        suppressed,
        warnings,
        stats: analysis.stats,
    })
}

/// Lints the workspace with the checked-in baseline applied — what
/// `cargo xtask lint` reports.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files,
/// or [`std::io::ErrorKind::InvalidData`] for a malformed baseline.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    lint_workspace_with(
        root,
        &LintOptions {
            apply_baseline: true,
            ..LintOptions::default()
        },
    )
}

/// Like [`lint_workspace`] but without subtracting the baseline —
/// the input for `cargo xtask lint --update-baseline`.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files.
pub fn lint_workspace_unbaselined(root: &Path) -> std::io::Result<LintReport> {
    lint_workspace_with(root, &LintOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_matching_is_segment_wise() {
        assert!(glob_matches(
            "crates/core/src/sim/*.rs",
            "crates/core/src/sim/harvest.rs"
        ));
        assert!(glob_matches(
            "crates/core/src/sim/*.rs",
            "crates/core/src/sim/mod.rs"
        ));
        // `*` never crosses a `/`.
        assert!(!glob_matches(
            "crates/core/src/sim/*.rs",
            "crates/core/src/sim/deep/x.rs"
        ));
        // Fewer segments than the pattern is not a match either.
        assert!(!glob_matches(
            "crates/core/src/sim/*.rs",
            "crates/core/src/sim.rs"
        ));
        // Patterns without `*` are exact-path equality.
        assert!(glob_matches(
            "crates/core/src/fleet.rs",
            "crates/core/src/fleet.rs"
        ));
        assert!(!glob_matches(
            "crates/core/src/fleet.rs",
            "crates/core/src/fleet2.rs"
        ));
        // Multiple stars in one segment backtrack correctly.
        assert!(glob_matches(
            "crates/*/src/*_end.rs",
            "crates/core/src/slot_end.rs"
        ));
        assert!(!glob_matches(
            "crates/*/src/*_end.rs",
            "crates/core/src/slotend.rs"
        ));
    }

    #[test]
    fn classification_covers_the_layout() {
        assert!(classify("crates/core/src/sim/mod.rs").is_some_and(|c| c.is_sim));
        assert!(classify("crates/types/src/units.rs").is_some_and(|c| !c.is_sim));
        assert!(classify("crates/bench/src/bin/headline.rs").is_some_and(|c| !c.is_library));
        assert_eq!(classify("crates/core/tests/prop_balance.rs"), None);
        assert_eq!(classify("shims/proptest/src/lib.rs"), None);
        assert!(classify("src/lib.rs").is_some_and(|c| c.crate_name == "neofog"));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let v = lint_source("crates/types/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v.first().map(|v| v.line), Some(1));
    }

    #[test]
    fn inline_allow_waives_one_site() {
        let src = "// neofog-lint: allow(NF-PANIC-001) fixture\nfn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap(); }\n";
        let v = lint_source("crates/types/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.line), Some(3));
    }

    #[test]
    fn unused_inline_allow_is_reported_stale() {
        let clean = "// neofog-lint: allow(NF-PANIC-001) nothing here panics\nfn f() {}\n";
        let report = lint_sources(&[("crates/types/src/x.rs", clean)]);
        assert!(report.violations.is_empty());
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(
            report
                .warnings
                .first()
                .is_some_and(|w| w.contains("stale waiver") && w.contains("NF-PANIC-001")),
            "{:?}",
            report.warnings
        );
        // A used directive produces no warning.
        let used = "// neofog-lint: allow(NF-PANIC-001) fixture\nfn f() { x.unwrap(); }\n";
        let report = lint_sources(&[("crates/types/src/x.rs", used)]);
        assert!(report.violations.is_empty());
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn doc_mentions_and_test_code_directives_are_not_audited() {
        // Prose that shows the directive syntax with a placeholder id
        // is documentation, not a waiver.
        let doc = "/// Write `// neofog-lint: allow(NF-XXX-NNN)` to waive a site.\nfn f() {}\n";
        let report = lint_sources(&[("crates/types/src/x.rs", doc)]);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        // A directive inside a test item waives nothing (the code is
        // already exempt) and must not be flagged stale either.
        let test_code = "#[cfg(test)]\nmod tests {\n    \
             // neofog-lint: allow(NF-PANIC-001)\n    \
             fn f() { x.unwrap(); }\n}\n";
        let report = lint_sources(&[("crates/types/src/y.rs", test_code)]);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn changed_paths_scope_findings_and_skip_the_waiver_audit() {
        // A throwaway three-file workspace: two files with a finding
        // each, one with an inline waiver that fires on nothing.
        let root =
            std::env::temp_dir().join(format!("neofog-xtask-changed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let files = [
            (
                "crates/core/src/lib.rs",
                "pub fn core_fixture() -> u64 {\n    maybe().unwrap()\n}\n",
            ),
            (
                "crates/types/src/lib.rs",
                "pub fn id_fixture(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n",
            ),
            (
                "crates/types/src/units.rs",
                "// neofog-lint: allow(NF-PANIC-001) stale\npub fn unit_fixture() -> u64 {\n    7\n}\n",
            ),
        ];
        for (rel, src) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
            std::fs::write(&path, src).expect("write fixture");
        }
        let found = |opts: &LintOptions| -> (Vec<(&'static str, String)>, Vec<String>) {
            let report = lint_workspace_with(&root, opts).expect("lint runs");
            let hits = report
                .violations
                .into_iter()
                .map(|v| (v.rule, v.path))
                .collect();
            (hits, report.warnings)
        };
        let (full, full_warnings) = found(&LintOptions::default());
        assert_eq!(
            full,
            [
                ("NF-PANIC-001", "crates/core/src/lib.rs".to_string()),
                ("NF-PANIC-001", "crates/types/src/lib.rs".to_string()),
            ]
        );
        assert!(
            full_warnings
                .iter()
                .any(|w| w.starts_with("crates/types/src/units.rs:1: stale waiver")),
            "{full_warnings:?}"
        );
        // `--changed`: findings restricted to the touched path, the
        // stale-waiver audit skipped.
        let (scoped, scoped_warnings) = found(&LintOptions {
            changed_paths: Some(vec!["crates/core/src/lib.rs".to_string()]),
            ..LintOptions::default()
        });
        assert_eq!(
            scoped,
            [("NF-PANIC-001", "crates/core/src/lib.rs".to_string())]
        );
        assert!(scoped_warnings.is_empty(), "{scoped_warnings:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn allowlist_audits_flag_only_unused_entries() {
        let allows = [
            rules::FileAllow {
                rule: "NF-PANIC-003",
                path: "crates/a/src/x.rs",
                reason: "",
            },
            rules::FileAllow {
                rule: "NF-PANIC-003",
                path: "crates/b/src/y.rs",
                reason: "",
            },
        ];
        let warnings = stale_file_allow_warnings(&allows, &[true, false]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings
            .first()
            .is_some_and(|w| w.contains("crates/b/src/y.rs")));

        let idents = [rules::IdentAllow {
            rule: "NF-UNIT-001",
            ident: "initial_charge",
            reason: "",
        }];
        assert!(stale_ident_allow_warnings(&idents, &[true]).is_empty());
        assert_eq!(stale_ident_allow_warnings(&idents, &[false]).len(), 1);
    }
}
