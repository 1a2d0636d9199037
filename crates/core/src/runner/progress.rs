//! Progress observation for batch runs.

/// Observer of batch execution progress.
///
/// Both callbacks run on the coordinating thread (never concurrently),
/// so implementations need no synchronization. Jobs *start* in claim
/// order but may *finish* in any order; the runner's fold order (see
/// [`crate::runner::Reduce`]) is unaffected by anything an observer
/// does.
pub trait Progress {
    /// A worker claimed job `index` of `total`.
    fn on_started(&mut self, index: usize, total: usize) {
        let _ = (index, total);
    }

    /// Job `index` finished its simulation; `finished` of `total` jobs
    /// are now done (counting this one).
    fn on_finished(&mut self, index: usize, finished: usize, total: usize) {
        let _ = (index, finished, total);
    }
}

/// Discards all progress callbacks.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl Progress for NoProgress {}

/// A coarse completion ticker for the long-running figure binaries:
/// prints `label: finished/total` to stderr roughly every 5 % of the
/// batch (and always for the final job).
///
/// The cadence is count-based, not time-based: library code reads no
/// wall clock (the clock ban in `clippy.toml`), and a fleet of uniform
/// chains ticks at an even rate anyway.
#[derive(Debug, Clone, Default)]
pub struct StderrTicker {
    label: String,
}

impl StderrTicker {
    /// A ticker whose lines are prefixed with `label`.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        StderrTicker {
            label: label.into(),
        }
    }
}

impl Progress for StderrTicker {
    fn on_finished(&mut self, _index: usize, finished: usize, total: usize) {
        let step = (total / 20).max(1);
        if finished.is_multiple_of(step) || finished == total {
            eprintln!("{}: {finished}/{total} simulations done", self.label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_callbacks_are_noops() {
        // Compiles and runs without any state: the trait's defaults
        // discard their arguments.
        NoProgress.on_started(0, 3);
        NoProgress.on_finished(0, 1, 3);
    }

    #[test]
    fn ticker_survives_tiny_batches() {
        // total < 20 must not divide by zero.
        let mut ticker = StderrTicker::new("test");
        ticker.on_finished(0, 1, 1);
    }
}
