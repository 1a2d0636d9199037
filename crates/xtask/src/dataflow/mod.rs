//! Pass-3 dataflow rules: hot-path allocation discipline and
//! parallelism discipline.
//!
//! Both families are transitive twins of invariants the test suite
//! enforces dynamically at single points:
//!
//! * [`hot_path`] — **NF-ALLOC-001/002**: the counting-allocator test
//!   (`crates/core/tests/alloc_discipline.rs`) proves the steady-state
//!   slot loop performs zero heap allocations *on the configurations
//!   it drives*; the static rules flag every allocation site reachable
//!   from a phase function on any path, so a regression is caught at
//!   review time rather than on whichever path a test happens to
//!   exercise.
//! * [`par`] — **NF-PAR-001/002**: the runner's golden tests prove
//!   parallel == serial *for the reducers they run*; the static rules
//!   ban interior mutability and unordered-iteration sources on every
//!   path reachable from the work-stealing pool, including every
//!   `Reduce::map`/`fold` impl the conservative call graph links in.
//!
//! Like [`crate::reach`], diagnostics omit line numbers from their
//! messages (keeping the baseline stable as code drifts) and carry the
//! witness call chain in [`crate::engine::Violation::chain`].

pub(crate) mod hot_path;
pub(crate) mod par;
