//! The work-stealing execution pool.
//!
//! Jobs live in a shared slice; workers claim the next unclaimed index
//! from one atomic counter, so there is no static chunking and no
//! straggler chunk — a slow simulation occupies exactly one worker
//! while the others keep draining the queue. Completed jobs flow back
//! to the coordinating thread over a channel, which re-sequences them
//! and folds the reducer in job-index order (see
//! [`Reduce`]'s ordering contract).

use super::progress::Progress;
use super::reduce::Reduce;
use crate::sim::{SimConfig, Simulator};
use neofog_types::{NeoFogError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};

/// How a batch is spread over worker threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads to spawn; `None` uses the machine's available
    /// parallelism, uncapped.
    pub workers: Option<usize>,
}

impl PoolConfig {
    /// A pool with an explicit worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig {
            workers: Some(workers.max(1)),
        }
    }

    /// Worker threads actually spawned for `jobs` jobs: the configured
    /// count (or the available parallelism), but never more threads
    /// than jobs.
    #[must_use]
    pub fn resolve(&self, jobs: usize) -> usize {
        let auto = || std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
        self.workers.unwrap_or_else(auto).clamp(1, jobs.max(1))
    }
}

/// One completion notice from a worker to the coordinator.
enum WorkerMsg<I> {
    /// A worker claimed the job at this index.
    Started(usize),
    /// The job at this index finished and was mapped to its item.
    Finished(usize, I),
    /// The job at this index failed to build its simulator.
    Failed(usize, NeoFogError),
}

/// Runs a batch of simulations on the work-stealing pool, reducing
/// each result as soon as its simulation finishes.
///
/// `reducer` receives every result through [`Reduce::map`] (on the
/// worker thread, dropping the full [`crate::sim::SimResult`]
/// immediately) and [`Reduce::fold`] (on this thread, in ascending job
/// order). `progress` observes claims and completions; pass
/// [`super::NoProgress`] to observe nothing.
///
/// # Errors
///
/// Returns the configuration error of the lowest-indexed failing job
/// ([`Simulator::new`] is the only fallible step), cancelling the rest
/// of the batch cooperatively, and [`NeoFogError::Internal`] if a
/// worker thread panics or a result goes missing.
pub fn run_batch<R: Reduce>(
    configs: &[SimConfig],
    reducer: R,
    pool: &PoolConfig,
    progress: &mut dyn Progress,
) -> Result<R::Output> {
    let total = configs.len();
    let mut reducer = reducer;
    if total == 0 {
        return Ok(reducer.finish());
    }
    let workers = pool.resolve(total);
    let next_job = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel::<WorkerMsg<R::Item>>();
    let (next_job, cancelled) = (&next_job, &cancelled);
    std::thread::scope(move |scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(move || worker_loop::<R>(configs, next_job, cancelled, &tx))
            })
            .collect();
        // The coordinator's receive loop ends when every worker has
        // dropped its sender clone; keeping this one would deadlock it.
        drop(tx);
        let folded = drain::<R>(&rx, &mut reducer, cancelled, progress, total);
        for handle in handles {
            if handle.join().is_err() {
                return Err(NeoFogError::internal("simulation worker thread panicked"));
            }
        }
        if folded? != total {
            return Err(NeoFogError::internal("simulation batch lost a result"));
        }
        Ok(reducer.finish())
    })
}

/// Worker body: claim → simulate → map → send, until the queue is
/// empty, the batch is cancelled, or the coordinator hung up.
fn worker_loop<R: Reduce>(
    configs: &[SimConfig],
    next_job: &AtomicUsize,
    cancelled: &AtomicBool,
    tx: &Sender<WorkerMsg<R::Item>>,
) {
    loop {
        if cancelled.load(Ordering::Relaxed) {
            return;
        }
        let index = next_job.fetch_add(1, Ordering::Relaxed);
        let Some(cfg) = configs.get(index) else {
            return;
        };
        if tx.send(WorkerMsg::Started(index)).is_err() {
            return;
        }
        let msg = match Simulator::new(cfg.clone()) {
            Ok(sim) => WorkerMsg::Finished(index, R::map(sim.run())),
            Err(error) => WorkerMsg::Failed(index, error),
        };
        if tx.send(msg).is_err() {
            return;
        }
    }
}

/// Coordinator body: re-sequences out-of-order completions and folds
/// the reducer in ascending job order. Returns how many items were
/// folded (== the batch size on success).
fn drain<R: Reduce>(
    rx: &Receiver<WorkerMsg<R::Item>>,
    reducer: &mut R,
    cancelled: &AtomicBool,
    progress: &mut dyn Progress,
    total: usize,
) -> Result<usize> {
    // Completions that arrived ahead of the next fold index. Bounded
    // in practice by the worker count: a job can only overtake jobs
    // that are still running.
    let mut ahead: BTreeMap<usize, R::Item> = BTreeMap::new();
    let mut next_fold = 0usize;
    let mut finished = 0usize;
    let mut first_error: Option<(usize, NeoFogError)> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Started(index) => progress.on_started(index, total),
            WorkerMsg::Finished(index, item) => {
                finished += 1;
                progress.on_finished(index, finished, total);
                if first_error.is_none() {
                    ahead.insert(index, item);
                    while let Some(item) = ahead.remove(&next_fold) {
                        reducer.fold(next_fold, item);
                        next_fold += 1;
                    }
                }
            }
            WorkerMsg::Failed(index, error) => {
                // Cooperative cancellation: workers stop claiming, the
                // in-flight simulations finish and are discarded. Keep
                // the lowest-indexed error so the surfaced failure does
                // not depend on which worker raced ahead.
                cancelled.store(true, Ordering::Relaxed);
                if first_error.as_ref().is_none_or(|&(i, _)| index < i) {
                    first_error = Some((index, error));
                }
                ahead.clear();
            }
        }
    }
    match first_error {
        Some((_, error)) => Err(error),
        None => Ok(next_fold),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CollectAll, NoProgress};
    use super::*;
    use crate::node::SystemKind;
    use neofog_energy::Scenario;
    use neofog_types::Duration;

    fn quick(seed: u64, slots: u64) -> SimConfig {
        let mut cfg =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, seed);
        cfg.slots = slots;
        cfg
    }

    #[test]
    fn empty_batch_finishes_the_reducer() {
        let out = run_batch(
            &[],
            CollectAll::default(),
            &PoolConfig::default(),
            &mut NoProgress,
        )
        .expect("empty batch runs");
        assert!(out.is_empty());
    }

    #[test]
    fn resolve_never_exceeds_jobs_or_drops_to_zero() {
        assert_eq!(PoolConfig::with_workers(8).resolve(3), 3);
        assert_eq!(PoolConfig::with_workers(0).resolve(3), 1);
        assert_eq!(PoolConfig::with_workers(2).resolve(100), 2);
        assert!(PoolConfig::default().resolve(100) >= 1);
    }

    #[test]
    fn first_error_cancels_and_surfaces_lowest_index() {
        // Index 1 is invalid (sub-second slot rejects the distributed
        // balancer); the batch must error rather than lose a result.
        let mut bad = quick(2, 40);
        bad.slot_len = Duration::from_micros(500_000);
        let configs = vec![quick(1, 40), bad, quick(3, 40)];
        let err = run_batch(
            &configs,
            CollectAll::default(),
            &PoolConfig::with_workers(2),
            &mut NoProgress,
        )
        .expect_err("invalid config must fail the batch");
        assert!(matches!(err, NeoFogError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn collect_all_preserves_input_order() {
        let configs = vec![quick(5, 60), quick(6, 10), quick(7, 30)];
        let seeds: Vec<u64> = configs.iter().map(|c| c.seed).collect();
        let results = run_batch(
            &configs,
            CollectAll::default(),
            &PoolConfig::with_workers(3),
            &mut NoProgress,
        )
        .expect("batch runs");
        let got: Vec<u64> = results.iter().map(|r| r.config.seed).collect();
        assert_eq!(got, seeds);
    }
}
