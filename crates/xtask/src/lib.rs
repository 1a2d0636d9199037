//! `neofog-xtask`: the workspace task runner.
//!
//! Run as `cargo xtask lint` (the alias lives in `.cargo/config.toml`).
//! The lint pass enforces the NEOFog-specific invariants that rustc and
//! clippy cannot see — typed units at API boundaries, determinism of
//! the simulation crates, the library panic policy, energy-ledger
//! routing in the slot loop, and the transitive graph rules:
//! panic-reachability from the slot loop, NV write discipline, and the
//! determinism closure. The rule table and every exemption are in
//! [`rules`]; the driver is in [`engine`].
//!
//! The analysis runs in three passes on a hand-rolled token stream
//! ([`lexer`]) — the build environment has no `syn`:
//!
//! 1. [`parser`] turns each file into a lightweight item model
//!    (modules, impl blocks, struct fields, functions with body token
//!    spans) and the per-file matchers scan the tokens.
//! 2. [`graph`] links the items into a workspace call graph.
//! 3. [`reach`] and [`dataflow`] run the transitive rules over it,
//!    printing offending call chains in the diagnostics.
//!
//! Findings can be waived inline, via the allowlists in [`rules`], or
//! — for pre-existing graph-rule findings — via the checked-in
//! [`baseline`]; `--sarif` output for CI lives in [`sarif`].

pub mod baseline;
pub mod dataflow;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod rules;
pub mod sarif;

pub use engine::{
    classify, lint_source, lint_sources, lint_workspace, lint_workspace_unbaselined,
    lint_workspace_with, LintOptions, LintReport, LintStats, Violation,
};
