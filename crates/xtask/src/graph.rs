//! The workspace symbol table and name-resolution-lite call graph.
//!
//! Nodes are every function parsed by [`crate::parser`]; edges are
//! call sites resolved by name. Resolution is deliberately
//! conservative in the direction the rules need: when a method name is
//! implemented by several types (or only by a trait — a dynamic
//! dispatch the lexer cannot see through), the call is linked to
//! *every* candidate, so "assume reachable" is the fallback and a
//! transitive rule can under-report only when a call is truly
//! invisible (macros, function pointers), never because resolution
//! guessed the wrong target.

use crate::lexer::{Tok, TokKind};
use crate::parser::{skip_angles, FileModel};
use std::collections::BTreeMap;
use std::ops::Range;

/// Keywords that can precede `(` without being a call (`if (..)`,
/// `match (..)`, tuple-struct `Self(..)`, ...). Shared with the
/// call-site scan so control flow is never mistaken for a call.
const EXPR_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning [`FileModel`] in the slice the graph was
    /// built from.
    pub file: usize,
    /// Owning crate directory name.
    pub crate_name: String,
    /// Human-readable name: `crate::[mod::][Type::]name`.
    pub display: String,
    /// Bare function name.
    pub name: String,
    /// Self type of the enclosing impl/trait block, if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range within the owning file's stream.
    pub body: Range<usize>,
}

/// Forward- or reverse-reachability result with parent pointers for
/// chain reconstruction.
#[derive(Debug)]
pub struct ReachSet {
    visited: Vec<bool>,
    parent: Vec<usize>,
}

impl ReachSet {
    /// `true` when node `id` was reached.
    #[must_use]
    pub fn visited(&self, id: usize) -> bool {
        self.visited.get(id).copied().unwrap_or(false)
    }
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function nodes, in file order.
    pub nodes: Vec<FnNode>,
    /// `callees[i]` — nodes that node `i` may call (sorted, deduped).
    pub callees: Vec<Vec<usize>>,
    /// `callers[i]` — nodes that may call node `i`.
    pub callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over every function in `models`.
    #[must_use]
    pub fn build(models: &[FileModel]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, m) in models.iter().enumerate() {
            for f in &m.parsed.fns {
                let mut display = m.class.crate_name.clone();
                for md in &f.modules {
                    display.push_str("::");
                    display.push_str(md);
                }
                if let Some(ty) = &f.self_ty {
                    display.push_str("::");
                    display.push_str(ty);
                }
                display.push_str("::");
                display.push_str(&f.name);
                nodes.push(FnNode {
                    file: fi,
                    crate_name: m.class.crate_name.clone(),
                    display,
                    name: f.name.clone(),
                    self_ty: f.self_ty.clone(),
                    line: f.line,
                    body: f.body.clone(),
                });
            }
        }
        // Resolution tables: free functions by name, methods by name
        // (every impl and trait declaration), and (type, name) pairs
        // for qualified calls.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut assoc: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            match &n.self_ty {
                None => free.entry(n.name.as_str()).or_default().push(id),
                Some(ty) => {
                    methods.entry(n.name.as_str()).or_default().push(id);
                    assoc
                        .entry((ty.as_str(), n.name.as_str()))
                        .or_default()
                        .push(id);
                }
            }
        }
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (id, n) in nodes.iter().enumerate() {
            let Some(model) = models.get(n.file) else {
                continue;
            };
            let toks = &model.toks;
            let mut targets = Vec::new();
            for j in n.body.clone() {
                resolve_call_site(toks, j, n, &nodes, &free, &methods, &assoc, &mut targets);
            }
            targets.retain(|&t| t != id);
            targets.sort_unstable();
            targets.dedup();
            if let Some(slot) = callees.get_mut(id) {
                *slot = targets;
            }
        }
        for (id, cs) in callees.iter().enumerate() {
            for &c in cs {
                if let Some(slot) = callers.get_mut(c) {
                    slot.push(id);
                }
            }
        }
        CallGraph {
            nodes,
            callees,
            callers,
        }
    }

    /// Forward BFS from `entries` over callee edges. Entries are
    /// themselves visited.
    #[must_use]
    pub fn reach_forward(&self, entries: &[usize]) -> ReachSet {
        self.bfs(entries, &self.callees, |_| true)
    }

    /// Reverse BFS from `entries` over caller edges, never expanding
    /// through nodes rejected by `enter` (the start nodes are always
    /// visited).
    #[must_use]
    pub fn reach_backward(&self, entries: &[usize], enter: impl Fn(usize) -> bool) -> ReachSet {
        self.bfs(entries, &self.callers, enter)
    }

    fn bfs(
        &self,
        entries: &[usize],
        edges: &[Vec<usize>],
        enter: impl Fn(usize) -> bool,
    ) -> ReachSet {
        let mut visited = vec![false; self.nodes.len()];
        let mut parent = vec![usize::MAX; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut sorted_entries: Vec<usize> = entries.to_vec();
        sorted_entries.sort_unstable();
        sorted_entries.dedup();
        for &e in &sorted_entries {
            if let Some(v) = visited.get_mut(e) {
                if !*v {
                    *v = true;
                    queue.push_back(e);
                }
            }
        }
        while let Some(cur) = queue.pop_front() {
            let Some(next) = edges.get(cur) else {
                continue;
            };
            for &nb in next {
                if !enter(nb) {
                    continue;
                }
                if let Some(v) = visited.get_mut(nb) {
                    if !*v {
                        *v = true;
                        if let Some(p) = parent.get_mut(nb) {
                            *p = cur;
                        }
                        queue.push_back(nb);
                    }
                }
            }
        }
        ReachSet { visited, parent }
    }

    /// Reconstructs the call chain from the entry that discovered
    /// `target` down to `target`, as display names. A chain of length
    /// one means `target` is itself an entry point.
    #[must_use]
    pub fn chain(&self, reach: &ReachSet, target: usize) -> Vec<String> {
        let mut ids = Vec::new();
        let mut cur = target;
        loop {
            ids.push(cur);
            match reach.parent.get(cur) {
                Some(&p) if p != usize::MAX => cur = p,
                _ => break,
            }
        }
        ids.reverse();
        ids.iter()
            .filter_map(|&i| self.nodes.get(i).map(|n| n.display.clone()))
            .collect()
    }

    /// Finds a node whose display name ends with `suffix` (test
    /// convenience).
    #[must_use]
    pub fn find(&self, suffix: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.display.ends_with(suffix))
    }
}

/// `true` for identifiers shaped like a generic type parameter: one
/// uppercase letter, optionally followed by digits (`R`, `T`, `R1`).
fn is_generic_param_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_uppercase())
        && chars.clone().all(|c| c.is_ascii_digit())
        && name.len() <= 3
}

/// Inspects token `j` of `toks` for a call site and appends every
/// resolution candidate to `out`.
#[allow(clippy::too_many_arguments)]
fn resolve_call_site(
    toks: &[Tok],
    j: usize,
    caller: &FnNode,
    nodes: &[FnNode],
    free: &BTreeMap<&str, Vec<usize>>,
    methods: &BTreeMap<&str, Vec<usize>>,
    assoc: &BTreeMap<(&str, &str), Vec<usize>>,
    out: &mut Vec<usize>,
) {
    let Some(t) = toks.get(j) else { return };
    if t.kind != TokKind::Ident || EXPR_KEYWORDS.contains(&t.text.as_str()) {
        return;
    }
    // Macros are not calls.
    if toks.get(j + 1).is_some_and(|x| x.is_punct('!')) {
        return;
    }
    // `name::<T>(...)` — hop the turbofish to find the paren.
    let mut call_at = j + 1;
    if toks.get(j + 1).is_some_and(|x| x.is_punct(':'))
        && toks.get(j + 2).is_some_and(|x| x.is_punct(':'))
        && toks.get(j + 3).is_some_and(|x| x.is_punct('<'))
    {
        call_at = skip_angles(toks, j + 3);
    }
    if !toks.get(call_at).is_some_and(|x| x.is_punct('(')) {
        return;
    }
    let name = t.text.as_str();
    let prev = j.checked_sub(1).and_then(|p| toks.get(p));
    if prev.is_some_and(|p| p.is_punct('.')) {
        // Method call: every impl (and trait declaration) of that
        // name is a candidate — single impls resolve exactly, the
        // rest fall back to "assume reachable".
        if let Some(v) = methods.get(name) {
            out.extend_from_slice(v);
        }
        return;
    }
    let qualified = prev.is_some_and(|p| p.is_punct(':'))
        && j >= 2
        && toks.get(j - 2).is_some_and(|p| p.is_punct(':'));
    if qualified {
        match j.checked_sub(3).and_then(|p| toks.get(p)) {
            Some(q) if q.kind == TokKind::Ident => {
                let qual = if q.text == "Self" {
                    caller.self_ty.clone().unwrap_or_else(|| "Self".to_string())
                } else {
                    q.text.clone()
                };
                if let Some(v) = assoc.get(&(qual.as_str(), name)) {
                    out.extend_from_slice(v);
                } else if let Some(v) = free.get(name) {
                    // `module::helper(...)` — the qualifier is a
                    // module or crate, not a type.
                    out.extend_from_slice(v);
                } else if is_generic_param_name(&qual) {
                    // `R::map(...)`: the qualifier is a generic
                    // parameter no impl block names, so every method
                    // of that name is a candidate — this is how the
                    // runner's `R::map` links to each `Reduce` impl.
                    // Longer unresolved qualifiers (`Vec::new`,
                    // `Instant::now`) are std/foreign types; linking
                    // them to every same-named workspace method would
                    // drown reachability in false edges.
                    if let Some(v) = methods.get(name) {
                        out.extend_from_slice(v);
                    }
                }
            }
            // `<T as Trait>::name(...)` and friends: conservative.
            _ => {
                if let Some(v) = methods.get(name) {
                    out.extend_from_slice(v);
                }
                if let Some(v) = free.get(name) {
                    out.extend_from_slice(v);
                }
            }
        }
        return;
    }
    // Bare call: prefer free functions of the caller's own crate;
    // with no same-crate candidate, link every crate's (a `use`d
    // cross-crate helper called unqualified).
    if let Some(v) = free.get(name) {
        let same: Vec<usize> = v
            .iter()
            .copied()
            .filter(|&c| {
                nodes
                    .get(c)
                    .is_some_and(|cn| cn.crate_name == caller.crate_name)
            })
            .collect();
        if same.is_empty() {
            out.extend_from_slice(v);
        } else {
            out.extend_from_slice(&same);
        }
    }
}
