//! NF-SHARD-001/002 and NF-FLOAT-001/002: shard discipline and
//! cross-thread float determinism for the sharded slot kernel.
//!
//! The kernel's determinism contract (DESIGN.md §17) has two halves,
//! and each rule pair guards one of them statically:
//!
//! * **Shard isolation** — a sweep body sees one position-aligned
//!   `ColumnsShard` split slice and emits into its own
//!   `ShardScratch::events` buffer; `drive()` splices buffers in
//!   ascending shard order so parallel emission order equals serial
//!   order. NF-SHARD-001 flags any sweep-reachable function whose
//!   signature or body names full-fleet state (`NodeColumns`,
//!   `NodeCold`, `SlotCtx`, ...) — a global-index escape hatch that
//!   aliases rows another thread owns. NF-SHARD-002 flags direct
//!   `.emit(..)`/`.on_event(..)` dispatch (or naming `EventBus` /
//!   `Observers`) downstream of a sweep — events published in thread
//!   completion order instead of splice order.
//!
//! * **Integer cross-shard reductions** — float addition is not
//!   associative, so any f64 accumulation whose grouping depends on
//!   shard count breaks bit-identity between thread counts.
//!   NF-FLOAT-001 flags compound assignment and `sum()`/`fold()`/
//!   `product()` sites with float evidence in the enclosing statement;
//!   NF-FLOAT-002 flags float comparisons, which amplify a 1-ulp
//!   wobble into a control-flow divergence. Entry roots are the sweep
//!   bodies plus every function of the shard driver, the fork-join
//!   layer and the transmit module (owner of the cross-shard
//!   suffix-sum/carry pass); sites are only *reported* in the
//!   kernel/coordinator files ([`rules::FLOAT_SITE_GLOBS`]) — the one
//!   layer that iterates shards, and therefore the only place a
//!   cross-shard reduction can live. Node-local float math behind a
//!   `NodeView` is waived in the baseline with per-site rationale.
//!
//! Entry selection is *function-shaped*, not file-shaped: only
//! functions named `sweep`/`*_sweep` in [`rules::SHARD_ENTRY_FILES`]
//! root the NF-SHARD closure, because the same files also contain the
//! sanctioned coordinators (`drive`, `splice`, `ColumnsShard::full`)
//! that legitimately hold the whole fleet — and no sweep can call back
//! into them. Like [`crate::reach`], messages omit line numbers (the
//! baseline stays stable as code drifts) and carry the witness call
//! chain in [`crate::engine::Violation::chain`].

use crate::engine::{glob_matches, Violation};
use crate::graph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::parser::{skip_angles, FileModel};
use crate::rules;
use std::collections::BTreeSet;
use std::ops::Range;

/// Node ids of sweep-shaped functions in the shard entry files.
fn sweep_entries(models: &[FileModel], graph: &CallGraph) -> Vec<usize> {
    graph
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, n)| {
            let rel = models.get(n.file).map(|m| m.rel.as_str())?;
            (rules::SHARD_ENTRY_FILES.contains(&rel) && rules::is_sweep_name(&n.name)).then_some(id)
        })
        .collect()
}

/// NF-SHARD-001/002: full-fleet state or direct observer dispatch
/// transitively reachable from a shard sweep.
pub(crate) fn shard_discipline(models: &[FileModel], graph: &CallGraph) -> Vec<Violation> {
    let reach = graph.reach_forward(&sweep_entries(models, graph));
    let mut out = Vec::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        if !reach.visited(id) {
            continue;
        }
        let Some(m) = models.get(n.file) else {
            continue;
        };
        if !m.class.is_library {
            continue;
        }
        let chain = graph.chain(&reach, id);
        // Banned type names anywhere in the signature or body: a type
        // that is never named cannot be indexed into. The signature
        // matters as much as the body — `fn helper(cols: &mut
        // NodeColumns, ..)` is the classic escape hatch.
        for range in [n.sig.clone(), n.body.clone()] {
            for i in range {
                let Some(tok) = m.toks.get(i) else { break };
                if tok.kind != TokKind::Ident {
                    continue;
                }
                if rules::SHARD_GLOBAL_STATE_IDENTS.contains(&tok.text.as_str()) {
                    out.push(Violation {
                        rule: "NF-SHARD-001",
                        path: m.rel.clone(),
                        line: tok.line,
                        message: format!(
                            "`{}` names full-fleet state `{}` and is reachable from a shard sweep",
                            n.display, tok.text
                        ),
                        subject: tok.text.clone(),
                        chain: chain.clone(),
                    });
                } else if rules::SHARD_BUS_IDENTS.contains(&tok.text.as_str()) {
                    out.push(Violation {
                        rule: "NF-SHARD-002",
                        path: m.rel.clone(),
                        line: tok.line,
                        message: format!(
                            "`{}` names the event bus `{}` and is reachable from a shard sweep",
                            n.display, tok.text
                        ),
                        subject: tok.text.clone(),
                        chain: chain.clone(),
                    });
                }
            }
        }
        // Dotted `.emit(` / `.on_event(` dispatch in the body. The
        // sweep's own `emit(ev)` closure parameter is a bare call and
        // never matches — that is the sanctioned scratch-buffer path.
        for i in n.body.clone() {
            let Some(tok) = m.toks.get(i) else { break };
            if tok.kind != TokKind::Ident || !rules::SHARD_EMIT_METHODS.contains(&tok.text.as_str())
            {
                continue;
            }
            let dotted = i
                .checked_sub(1)
                .and_then(|p| m.toks.get(p))
                .is_some_and(|p| p.is_punct('.'));
            let called = m.toks.get(i + 1).is_some_and(|t| t.is_punct('('));
            if dotted && called {
                out.push(Violation {
                    rule: "NF-SHARD-002",
                    path: m.rel.clone(),
                    line: tok.line,
                    message: format!(
                        "`{}` dispatches `.{}()` directly, bypassing the shard event splice",
                        n.display, tok.text
                    ),
                    subject: tok.text.clone(),
                    chain: chain.clone(),
                });
            }
        }
    }
    out
}

/// Statement bounds around token `k`, clamped to `range`: the token
/// span between the nearest `;`/`{`/`}` on each side. Coarse but
/// sufficient — float *evidence* (a float literal or an `f64`/`f32`
/// identifier) only counts when it shares a statement with the
/// flagged operator.
fn stmt_bounds(toks: &[Tok], k: usize, range: &Range<usize>) -> Range<usize> {
    let boundary = |t: &Tok| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
    let mut lo = k;
    while lo > range.start {
        if toks.get(lo - 1).is_some_and(boundary) {
            break;
        }
        lo -= 1;
    }
    let mut hi = k + 1;
    while hi < range.end {
        if toks.get(hi).is_some_and(boundary) {
            break;
        }
        hi += 1;
    }
    lo..hi
}

/// `true` when `stmt` contains a float literal or a float type name.
fn has_float_evidence(toks: &[Tok], stmt: Range<usize>) -> bool {
    stmt.filter_map(|i| toks.get(i)).any(|t| {
        t.is_float_literal()
            || (t.kind == TokKind::Ident && rules::FLOAT_TYPE_IDENTS.contains(&t.text.as_str()))
    })
}

/// Float accumulation sites in `range`: `(line, op)`. Compound
/// assignment (`+=`, `-=`, `*=`, `/=`, `%=`) and the iterator
/// reductions of [`rules::FLOAT_FOLD_METHODS`], each gated on float
/// evidence within the enclosing statement. Plain `=` is a
/// *derivation* (overwrite), not an accumulation, and stays allowed.
fn float_accum_sites(toks: &[Tok], range: Range<usize>) -> Vec<(u32, String)> {
    let mut hits: BTreeSet<(u32, String)> = BTreeSet::new();
    for i in range.clone() {
        let Some(tok) = toks.get(i) else { break };
        let compound = ['+', '-', '*', '/', '%']
            .iter()
            .find(|&&c| tok.is_punct(c))
            .filter(|_| toks.get(i + 1).is_some_and(|t| t.is_punct('=')));
        if let Some(&c) = compound {
            if has_float_evidence(toks, stmt_bounds(toks, i, &range)) {
                hits.insert((tok.line, format!("{c}=")));
            }
            continue;
        }
        if tok.kind == TokKind::Ident
            && rules::FLOAT_FOLD_METHODS.contains(&tok.text.as_str())
            && i.checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|p| p.is_punct('.'))
            && toks.get(i + 1).is_some_and(|t| {
                // Plain `.sum()` / turbofish `.sum::<f64>()`.
                t.is_punct('(') || t.is_punct(':')
            })
            && has_float_evidence(toks, stmt_bounds(toks, i, &range))
        {
            hits.insert((tok.line, format!("{}()", tok.text)));
        }
    }
    hits.into_iter().collect()
}

/// Float comparison sites in `range`: `(line, op)`. Token-shape
/// exclusions keep generics, shifts, arrows and turbofish out:
/// `<` after `:` or an uppercase-led identifier opens a type argument
/// list whose matching `>` is no comparison either (so the `>` of
/// `Vec<f64>` plus a binding's `=` never reads as `>=`), adjacent
/// `<<`/`>>` are shifts, `->`/`=>` are arrows.
fn float_cmp_sites(toks: &[Tok], range: Range<usize>) -> Vec<(u32, String)> {
    let mut hits: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut generic_closers: BTreeSet<usize> = BTreeSet::new();
    for i in range.clone() {
        let Some(tok) = toks.get(i) else { break };
        if tok.kind != TokKind::Punct {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(i + 1);
        let next_eq = next.is_some_and(|t| t.is_punct('='));
        let op: Option<String> = if tok.is_punct('!') && next_eq {
            Some("!=".into())
        } else if tok.is_punct('=') && next_eq {
            // `==`, unless this is the second char of !=/<=/>=/==.
            (!prev.is_some_and(|p| {
                p.is_punct('!') || p.is_punct('<') || p.is_punct('>') || p.is_punct('=')
            }))
            .then(|| "==".into())
        } else if tok.is_punct('<') {
            let shift =
                prev.is_some_and(|p| p.is_punct('<')) || next.is_some_and(|t| t.is_punct('<'));
            let generic = prev.is_some_and(|p| {
                p.is_punct(':')
                    || (p.kind == TokKind::Ident
                        && p.text.starts_with(|c: char| c.is_ascii_uppercase()))
            }) || next.is_some_and(|t| t.kind == TokKind::Lifetime);
            if generic {
                let close = skip_angles(toks, i).saturating_sub(1);
                if toks.get(close).is_some_and(|t| t.is_punct('>')) {
                    generic_closers.insert(close);
                }
            }
            (!shift && !generic).then(|| if next_eq { "<=".into() } else { "<".into() })
        } else if tok.is_punct('>') {
            let shift =
                prev.is_some_and(|p| p.is_punct('>')) || next.is_some_and(|t| t.is_punct('>'));
            let arrow = prev.is_some_and(|p| p.is_punct('-') || p.is_punct('='));
            let generic_close = generic_closers.contains(&i);
            (!shift && !arrow && !generic_close).then(|| {
                if next_eq {
                    ">=".into()
                } else {
                    ">".into()
                }
            })
        } else {
            None
        };
        if let Some(op) = op {
            if has_float_evidence(toks, stmt_bounds(toks, i, &range)) {
                hits.insert((tok.line, op));
            }
        }
    }
    hits.into_iter().collect()
}

/// NF-FLOAT-001/002: float accumulation or comparison transitively
/// reachable from the parallel drive path or the transmit carry pass.
pub(crate) fn float_discipline(models: &[FileModel], graph: &CallGraph) -> Vec<Violation> {
    let mut entries = sweep_entries(models, graph);
    for (id, n) in graph.nodes.iter().enumerate() {
        let Some(rel) = models.get(n.file).map(|m| m.rel.as_str()) else {
            continue;
        };
        if rules::FLOAT_ENTRY_FILES.contains(&rel) {
            entries.push(id);
        }
    }
    let reach = graph.reach_forward(&entries);
    let mut out = Vec::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        if !reach.visited(id) {
            continue;
        }
        let Some(m) = models.get(n.file) else {
            continue;
        };
        if !m.class.is_library
            || !rules::FLOAT_SITE_GLOBS
                .iter()
                .any(|g| glob_matches(g, &m.rel))
        {
            continue;
        }
        let chain = graph.chain(&reach, id);
        for (line, op) in float_accum_sites(&m.toks, n.body.clone()) {
            out.push(Violation {
                rule: "NF-FLOAT-001",
                path: m.rel.clone(),
                line,
                message: format!(
                    "`{}` accumulates floating-point values (`{op}`) on the sharded drive path",
                    n.display
                ),
                subject: op,
                chain: chain.clone(),
            });
        }
        for (line, op) in float_cmp_sites(&m.toks, n.body.clone()) {
            out.push(Violation {
                rule: "NF-FLOAT-002",
                path: m.rel.clone(),
                line,
                message: format!(
                    "`{}` branches on a floating-point comparison (`{op}`) on the sharded drive path",
                    n.display
                ),
                subject: op,
                chain: chain.clone(),
            });
        }
    }
    out
}
