//! Reducer-based aggregation of batch results.

use crate::sim::SimResult;

/// Streams a batch of [`SimResult`]s into an aggregate without keeping
/// them all alive.
///
/// [`Reduce::map`] runs on the worker thread that finished the
/// simulation and compresses the full result into [`Reduce::Item`];
/// the `SimResult` — per-node metrics and any per-slot stored-energy
/// series — is dropped the moment `map` returns. Items are then folded
/// on the coordinating thread.
///
/// # Ordering
///
/// The runner guarantees [`Reduce::fold`] is called in ascending job
/// order `0, 1, 2, …` with no gaps, regardless of which workers finish
/// first (out-of-order completions are buffered). Reducers may
/// therefore depend on fold order — `CollectAll` simply pushes — and
/// aggregation stays deterministic at any worker count.
pub trait Reduce {
    /// Per-job summary shipped from the worker to the coordinator.
    /// Keep it small: batch memory is `O(jobs × size_of::<Item>())`.
    type Item: Send;
    /// The final aggregate [`Reduce::finish`] produces.
    type Output;

    /// Compresses one finished simulation into its reduced item (runs
    /// on the worker thread; the full result is dropped on return).
    fn map(result: SimResult) -> Self::Item;

    /// Folds one item into the aggregate. Called in ascending job
    /// order starting at 0, with no gaps.
    fn fold(&mut self, index: usize, item: Self::Item);

    /// Consumes the reducer into the final aggregate after the last
    /// fold.
    fn finish(self) -> Self::Output;
}

/// The order-preserving identity reducer: keeps every full
/// [`SimResult`], in input order.
///
/// This is what `experiment::run_many` folds with — for callers that
/// genuinely need every result (the figure helpers read several
/// metrics per run). Fleet-sized batches should prefer a summarizing
/// reducer instead.
#[derive(Debug, Default)]
pub struct CollectAll {
    results: Vec<SimResult>,
}

impl Reduce for CollectAll {
    type Item = SimResult;
    type Output = Vec<SimResult>;

    fn map(result: SimResult) -> SimResult {
        result
    }

    fn fold(&mut self, index: usize, item: SimResult) {
        debug_assert_eq!(index, self.results.len(), "runner folds in job order");
        self.results.push(item);
    }

    fn finish(self) -> Vec<SimResult> {
        self.results
    }
}
