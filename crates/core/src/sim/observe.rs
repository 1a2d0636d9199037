//! The observer bus: pluggable recorders fed by [`SimEvent`]s.
//!
//! The phase functions know nothing about metrics, traces or logs —
//! they only emit events. Everything recorded about a run is an
//! implementation of [`SimObserver`] folded over the event stream:
//!
//! * [`MetricsObserver`] — the paper's counters ([`NetworkMetrics`]).
//! * [`StoredTraceObserver`] — the Figure-9 stored-energy series.
//! * [`EventLogObserver`] — a deterministic JSONL event log for replay
//!   and slot-by-slot diffing.
//!
//! Additional observers compose through the [`Observers`] fan-out and
//! [`Simulator::attach_observer`](crate::sim::Simulator::attach_observer).

use super::event::SimEvent;
use crate::balance::OffloadTarget;
use crate::metrics::NetworkMetrics;
use neofog_types::{NeoFogError, Result};
use std::io::Write;

/// A recorder fed every [`SimEvent`] in emission order.
///
/// Observers must not influence the simulation: they receive shared
/// references to events and have no channel back into the slot loop,
/// so attaching or removing one can never change a `SimResult`.
pub trait SimObserver {
    /// Called once per event, in deterministic emission order.
    fn on_event(&mut self, event: &SimEvent);

    /// Called once after the final slot, before results are assembled.
    fn on_finish(&mut self) {}
}

/// Fan-out composition of boxed observers (delivery in push order).
#[derive(Default)]
pub struct Observers {
    inner: Vec<Box<dyn SimObserver>>,
}

impl Observers {
    /// Adds an observer to the end of the delivery order.
    pub fn push(&mut self, observer: Box<dyn SimObserver>) {
        self.inner.push(observer);
    }

    /// Number of attached observers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no observer is attached (the bus fast-path).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl SimObserver for Observers {
    fn on_event(&mut self, event: &SimEvent) {
        for obs in &mut self.inner {
            obs.on_event(event);
        }
    }

    fn on_finish(&mut self) {
        for obs in &mut self.inner {
            obs.on_finish();
        }
    }
}

impl std::fmt::Debug for Observers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observers")
            .field("len", &self.inner.len())
            .finish()
    }
}

/// The bus a phase emits through: the always-on recorders (metrics,
/// optional trace) plus the pluggable [`Observers`] fan-out, split off
/// the simulator so phases can hold `&mut` node state alongside it.
pub(crate) struct EventBus<'a> {
    pub(crate) metrics: &'a mut MetricsObserver,
    pub(crate) trace: Option<&'a mut StoredTraceObserver>,
    pub(crate) extra: &'a mut Observers,
}

impl EventBus<'_> {
    /// Delivers one event to every recorder, in a fixed order.
    pub(crate) fn emit(&mut self, event: &SimEvent) {
        self.metrics.on_event(event);
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.on_event(event);
        }
        self.extra.on_event(event);
    }
}

/// Folds the event stream into the paper's [`NetworkMetrics`].
///
/// This is the sole writer of the counters a
/// [`SimResult`](crate::sim::SimResult) reports; it applies each event
/// to exactly
/// the field the pre-pipeline slot loop mutated at the same program
/// point, so the fold reproduces the original metrics bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsObserver {
    metrics: NetworkMetrics,
}

impl MetricsObserver {
    /// A fresh fold over `physical_nodes` per-node counter slots.
    #[must_use]
    pub fn new(physical_nodes: usize) -> Self {
        MetricsObserver {
            metrics: NetworkMetrics::new(physical_nodes),
        }
    }

    /// Read access to the counters accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// Consumes the fold into the final counters.
    #[must_use]
    pub fn into_metrics(self) -> NetworkMetrics {
        self.metrics
    }
}

impl SimObserver for MetricsObserver {
    fn on_event(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::HarvestBooked { node, income } => {
                self.metrics.nodes[node].harvested += income;
            }
            SimEvent::CapacitorOverflow { node, rejected } => {
                self.metrics.nodes[node].rejected += rejected;
            }
            SimEvent::NodeWoke { node } => self.metrics.nodes[node].wakeups += 1,
            SimEvent::WakeFailed { node } => self.metrics.nodes[node].failures += 1,
            SimEvent::PackageCaptured { node } => self.metrics.nodes[node].captured += 1,
            SimEvent::PackageShed { node, count, .. } => {
                self.metrics.nodes[node].dropped += count;
            }
            SimEvent::TasksMigrated {
                interrupted,
                moved,
                hops,
            } => {
                self.metrics.balance_interruptions += interrupted;
                self.metrics.balance_tasks_moved += moved;
                self.metrics.balance_transfer_hops += hops;
            }
            SimEvent::OffloadDecided { target, tasks, .. } => {
                self.metrics.offload_decisions += 1;
                if !matches!(target, OffloadTarget::Local) {
                    self.metrics.offload_shipped_tasks += tasks;
                }
            }
            SimEvent::RadioCharged { node, energy, .. } => {
                self.metrics.nodes[node].radio_energy += energy;
            }
            SimEvent::FogProgressed { node, energy, .. } => {
                self.metrics.nodes[node].compute_energy += energy;
            }
            SimEvent::FogCompleted { node } => self.metrics.nodes[node].tasks_executed += 1,
            SimEvent::PackageDelivered { origin, fog_done } => {
                if fog_done {
                    self.metrics.nodes[origin].delivered_fog += 1;
                } else {
                    self.metrics.nodes[origin].delivered_cloud += 1;
                }
            }
            SimEvent::PackageLost { origin } => self.metrics.nodes[origin].dropped += 1,
            SimEvent::SlotBegan { .. }
            | SimEvent::SlotEnded { .. }
            | SimEvent::CapacitorLeaked { .. }
            | SimEvent::LedgerSettled { .. } => {}
        }
    }
}

/// Records the per-slot stored-energy series (Figure 9) from the
/// [`SimEvent::CapacitorLeaked`] event each node emits at slot end.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTraceObserver {
    series: Vec<Vec<f32>>,
}

impl StoredTraceObserver {
    /// A fresh trace for `physical_nodes` nodes.
    #[must_use]
    pub fn new(physical_nodes: usize) -> Self {
        StoredTraceObserver {
            series: vec![Vec::new(); physical_nodes],
        }
    }

    /// Moves the recorded series into the per-node metrics.
    pub fn merge_into(self, metrics: &mut NetworkMetrics) {
        for (node, series) in metrics.nodes.iter_mut().zip(self.series) {
            node.stored_series = series;
        }
    }
}

impl SimObserver for StoredTraceObserver {
    fn on_event(&mut self, event: &SimEvent) {
        if let SimEvent::CapacitorLeaked { node, stored, .. } = *event {
            if let Some(series) = self.series.get_mut(node) {
                series.push(stored.as_millijoules() as f32);
            }
        }
    }
}

/// Streams every event as one JSON object per line (JSONL).
///
/// The format is deliberately dependency-free and deterministic: keys
/// appear in a fixed order, energies are printed in nanojoules with
/// Rust's shortest-roundtrip `f64` formatting, and no wall-clock data
/// is ever written — so the same `SimConfig` and seed produce a
/// byte-identical log, and two logs can be diffed slot-by-slot.
pub struct EventLogObserver {
    out: Box<dyn Write>,
    slot: u64,
    failed: bool,
}

impl EventLogObserver {
    /// Opens (creates or truncates) a log file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] when the file cannot be
    /// created.
    pub fn create(path: &str) -> Result<Self> {
        let file = std::fs::File::create(path).map_err(|e| {
            NeoFogError::invalid_config(format!("cannot create event log {path}: {e}"))
        })?;
        Ok(Self::from_writer(Box::new(std::io::BufWriter::new(file))))
    }

    /// Streams to an arbitrary writer (used by tests to capture bytes).
    #[must_use]
    pub fn from_writer(out: Box<dyn Write>) -> Self {
        EventLogObserver {
            out,
            slot: 0,
            failed: false,
        }
    }

    /// Whether a write failed at some point (the log is then partial;
    /// the simulation itself is unaffected).
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.failed
    }
}

impl SimObserver for EventLogObserver {
    fn on_event(&mut self, event: &SimEvent) {
        if self.failed {
            return;
        }
        if let SimEvent::SlotBegan { slot } = *event {
            self.slot = slot;
        }
        let line = render_jsonl(self.slot, event);
        if self.out.write_all(line.as_bytes()).is_err() {
            self.failed = true;
        }
    }

    fn on_finish(&mut self) {
        if self.out.flush().is_err() {
            self.failed = true;
        }
    }
}

impl std::fmt::Debug for EventLogObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLogObserver")
            .field("slot", &self.slot)
            .field("failed", &self.failed)
            .finish()
    }
}

/// Renders one event as a JSONL line (trailing `\n` included). Keys:
/// `slot` and `kind` first, then the event's own fields in declaration
/// order; energies carry an `_nj` suffix (nanojoules).
#[must_use]
pub fn render_jsonl(slot: u64, event: &SimEvent) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(96);
    // String formatting into a String cannot fail; `write!` only
    // returns Err when the sink does.
    let _ = write!(s, "{{\"slot\":{slot},\"kind\":\"{}\"", event.kind());
    match *event {
        SimEvent::SlotBegan { .. } | SimEvent::SlotEnded { .. } => {}
        SimEvent::HarvestBooked { node, income } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"income_nj\":{}",
                income.as_nanojoules()
            );
        }
        SimEvent::CapacitorOverflow { node, rejected } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"rejected_nj\":{}",
                rejected.as_nanojoules()
            );
        }
        SimEvent::NodeWoke { node }
        | SimEvent::WakeFailed { node }
        | SimEvent::PackageCaptured { node }
        | SimEvent::FogCompleted { node } => {
            let _ = write!(s, ",\"node\":{node}");
        }
        SimEvent::PackageShed {
            node,
            count,
            reason,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"count\":{count},\"reason\":\"{}\"",
                reason.label()
            );
        }
        SimEvent::TasksMigrated {
            interrupted,
            moved,
            hops,
        } => {
            let _ = write!(
                s,
                ",\"interrupted\":{interrupted},\"moved\":{moved},\"hops\":{hops}"
            );
        }
        SimEvent::OffloadDecided {
            node,
            target,
            tasks,
            ship_energy,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"target\":\"{}\",\"tasks\":{tasks},\"ship_energy_nj\":{}",
                target.label(),
                ship_energy.as_nanojoules()
            );
        }
        SimEvent::RadioCharged {
            node,
            energy,
            purpose,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"energy_nj\":{},\"purpose\":\"{}\"",
                energy.as_nanojoules(),
                purpose.label()
            );
        }
        SimEvent::FogProgressed {
            node,
            instructions,
            energy,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"instructions\":{instructions},\"energy_nj\":{}",
                energy.as_nanojoules()
            );
        }
        SimEvent::PackageDelivered { origin, fog_done } => {
            let _ = write!(s, ",\"origin\":{origin},\"fog_done\":{fog_done}");
        }
        SimEvent::PackageLost { origin } => {
            let _ = write!(s, ",\"origin\":{origin}");
        }
        SimEvent::CapacitorLeaked {
            node,
            leaked,
            stored,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"leaked_nj\":{},\"stored_nj\":{}",
                leaked.as_nanojoules(),
                stored.as_nanojoules()
            );
        }
        SimEvent::LedgerSettled {
            node,
            stored_before,
            harvested,
            consumed,
            leaked,
            lost,
            stored_after,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"stored_before_nj\":{},\"harvested_nj\":{},\
                 \"consumed_nj\":{},\"leaked_nj\":{},\"lost_nj\":{},\"stored_after_nj\":{}",
                stored_before.as_nanojoules(),
                harvested.as_nanojoules(),
                consumed.as_nanojoules(),
                leaked.as_nanojoules(),
                lost.as_nanojoules(),
                stored_after.as_nanojoules()
            );
        }
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::event::RadioPurpose;
    use neofog_types::Energy;

    #[test]
    fn jsonl_lines_are_wellformed() {
        let line = render_jsonl(
            7,
            &SimEvent::RadioCharged {
                node: 3,
                energy: Energy::from_nanojoules(1.5),
                purpose: RadioPurpose::Session,
            },
        );
        assert_eq!(
            line,
            "{\"slot\":7,\"kind\":\"radio_charged\",\"node\":3,\"energy_nj\":1.5,\
             \"purpose\":\"session\"}\n"
        );
    }

    #[test]
    fn metrics_fold_applies_counters() {
        let mut obs = MetricsObserver::new(2);
        obs.on_event(&SimEvent::NodeWoke { node: 1 });
        obs.on_event(&SimEvent::PackageDelivered {
            origin: 0,
            fog_done: true,
        });
        obs.on_event(&SimEvent::HarvestBooked {
            node: 1,
            income: Energy::from_nanojoules(42.0),
        });
        let m = obs.into_metrics();
        assert_eq!(m.nodes[1].wakeups, 1);
        assert_eq!(m.nodes[0].delivered_fog, 1);
        assert_eq!(m.nodes[1].harvested, Energy::from_nanojoules(42.0));
    }

    #[test]
    fn event_log_tracks_slot_and_streams() {
        struct Shared(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut obs = EventLogObserver::from_writer(Box::new(Shared(sink.clone())));
        obs.on_event(&SimEvent::SlotBegan { slot: 5 });
        obs.on_event(&SimEvent::NodeWoke { node: 0 });
        obs.on_finish();
        let text = String::from_utf8(sink.borrow().clone()).expect("utf8");
        assert_eq!(
            text,
            "{\"slot\":5,\"kind\":\"slot_began\"}\n{\"slot\":5,\"kind\":\"node_woke\",\"node\":0}\n"
        );
        assert!(!obs.is_failed());
    }

    #[test]
    fn observers_fan_out_in_push_order() {
        struct Counter(std::rc::Rc<std::cell::RefCell<u32>>);
        impl SimObserver for Counter {
            fn on_event(&mut self, _event: &SimEvent) {
                *self.0.borrow_mut() += 1;
            }
        }
        let count = std::rc::Rc::new(std::cell::RefCell::new(0));
        let mut fan = Observers::default();
        assert!(fan.is_empty());
        fan.push(Box::new(Counter(count.clone())));
        fan.push(Box::new(Counter(count.clone())));
        assert_eq!(fan.len(), 2);
        fan.on_event(&SimEvent::SlotBegan { slot: 0 });
        assert_eq!(*count.borrow(), 2);
    }
}
