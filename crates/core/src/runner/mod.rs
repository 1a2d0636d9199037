//! Streaming batch execution: a work-stealing job pool plus
//! reducer-based aggregation.
//!
//! The paper's evaluation runs "1000 to 5000" node simulators
//! simultaneously (§4). Before this subsystem existed, batch execution
//! lived inside `experiment::run_many`, which statically chunked the
//! job list across at most 16 threads (one slow chunk stragglers the
//! whole batch) and materialized every full [`SimResult`] — per-node
//! metrics plus the optional per-slot stored-energy series — before
//! any aggregation happened. Fleet-sized sweeps were therefore both
//! latency-bound by the unluckiest chunk and memory-bound by results
//! nobody needed in full.
//!
//! The runner splits the problem into three small, composable pieces:
//!
//! * [`pool`] — a work-stealing execution pool: workers claim jobs one
//!   at a time from a shared atomic index, so a slow simulation only
//!   occupies its own worker while the rest of the pool drains the
//!   remaining jobs. The worker count is configurable via
//!   [`PoolConfig`] (defaulting to the machine's available
//!   parallelism, uncapped).
//! * [`reduce`] — the [`Reduce`] trait: each finished [`SimResult`] is
//!   mapped to a small per-job item *on the worker thread* (dropping
//!   the full result immediately) and folded into the aggregate on the
//!   coordinating thread in job-index order. [`CollectAll`] is the
//!   identity reducer behind `experiment::run_many`; `fleet` keeps
//!   only three scalars per chain.
//! * [`progress`] — the [`Progress`] observer hook: jobs started /
//!   finished callbacks on the coordinating thread, with
//!   [`StderrTicker`] as the ready-made ticker for the long-running
//!   figure binaries. [`NoProgress`] discards everything.
//!
//! The pool is the only place simulations run in parallel: each
//! simulation's slot loop is serial (DESIGN.md §16 records why).
//!
//! # Determinism contract
//!
//! Simulations themselves are pure functions of their [`SimConfig`]
//! (seeded RNG, no wall clock), so parallelism can only break
//! reproducibility through aggregation order. The runner therefore
//! guarantees that [`Reduce::fold`] is invoked in ascending job order
//! `0, 1, 2, …` with no gaps, buffering out-of-order completions until
//! the next index arrives. A batch folded on one worker is
//! bit-for-bit identical to the same batch folded on sixteen — pinned
//! by the golden tests in `tests/runner_determinism.rs`.
//!
//! # Cancellation
//!
//! The first job failure (a [`Simulator::new`] configuration error)
//! cancels the batch cooperatively: a shared flag stops workers from
//! claiming further jobs, in-flight simulations run to completion and
//! are discarded, and the error with the smallest job index observed
//! is returned.
//!
//! [`SimConfig`]: crate::sim::SimConfig
//! [`SimResult`]: crate::sim::SimResult
//! [`Simulator::new`]: crate::sim::Simulator::new

pub mod pool;
pub mod progress;
pub mod reduce;

pub use pool::{run_batch, PoolConfig};
pub use progress::{NoProgress, Progress, StderrTicker};
pub use reduce::{CollectAll, Reduce};
