//! The observer bus: pluggable recorders fed by [`SimEvent`]s.
//!
//! The phase functions know nothing about metrics, traces or logs —
//! they only emit events. Everything recorded about a run is an
//! implementation of [`SimObserver`] folded over the event stream:
//!
//! * [`MetricsObserver`] — the paper's counters ([`NetworkMetrics`]),
//!   folded into one dense column per counter; the per-node rows are
//!   built once, when the run ends.
//! * [`StoredTraceObserver`] — the Figure-9 stored-energy series.
//! * [`EventLogObserver`] — a deterministic JSONL event log for replay
//!   and slot-by-slot diffing.
//!
//! Additional observers compose through the [`Observers`] fan-out and
//! [`Simulator::attach_observer`](crate::sim::Simulator::attach_observer).

use super::event::SimEvent;
use crate::balance::OffloadTarget;
use crate::metrics::{NetworkMetrics, NodeMetrics};
use neofog_types::{Energy, NeoFogError, Result};
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
    ///
    /// Always inlined, with [`MetricsObserver::on_event`], so each emit
    /// site folds its own event's counter directly instead of calling
    /// out of line into a 17-arm jump table: the site already knows its
    /// variant. At 10⁴ and 10⁵ nodes this cut slot time by 10.3 % and
    /// 18.0 % on a 2-core host; plain `#[inline]` left the calls out of
    /// line (+3.6 %).
    #[inline(always)]
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
/// [`SimResult`](crate::sim::SimResult) reports: each event adds to
/// exactly one counter, in emission order.
///
/// The fold is columnar: one dense column per [`NodeMetrics`] counter,
/// so an event touches one cell of the column it counts in, and a
/// sweep's events for consecutive nodes land in consecutive cells.
/// [`MetricsObserver::into_metrics`] builds the per-node rows once.
/// Each cell takes its node's additions in event order, so every
/// energy sum is bit-identical to a fold into per-node rows (the
/// reference fold in this module's tests).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsObserver {
    wakeups: Vec<u64>,
    failures: Vec<u64>,
    captured: Vec<u64>,
    tasks_executed: Vec<u64>,
    delivered_fog: Vec<u64>,
    delivered_cloud: Vec<u64>,
    dropped: Vec<u64>,
    harvested: Vec<Energy>,
    rejected: Vec<Energy>,
    radio_energy: Vec<Energy>,
    compute_energy: Vec<Energy>,
    /// The network totals; its `nodes` stays empty until
    /// [`MetricsObserver::into_metrics`] fills it from the columns.
    network: NetworkMetrics,
}

impl MetricsObserver {
    /// A fresh fold over `physical_nodes` per-node counter slots.
    #[must_use]
    pub fn new(physical_nodes: usize) -> Self {
        let counts = vec![0; physical_nodes];
        let energies = vec![Energy::ZERO; physical_nodes];
        MetricsObserver {
            wakeups: counts.clone(),
            failures: counts.clone(),
            captured: counts.clone(),
            tasks_executed: counts.clone(),
            delivered_fog: counts.clone(),
            delivered_cloud: counts.clone(),
            dropped: counts,
            harvested: energies.clone(),
            rejected: energies.clone(),
            radio_energy: energies.clone(),
            compute_energy: energies,
            network: NetworkMetrics::default(),
        }
    }

    /// Consumes the fold into the final counters, one
    /// [`NodeMetrics`] row per node.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "every column holds one counter per node"
    )]
    pub fn into_metrics(self) -> NetworkMetrics {
        let nodes = (0..self.wakeups.len())
            .map(|i| NodeMetrics {
                wakeups: self.wakeups[i],
                failures: self.failures[i],
                captured: self.captured[i],
                tasks_executed: self.tasks_executed[i],
                delivered_fog: self.delivered_fog[i],
                delivered_cloud: self.delivered_cloud[i],
                dropped: self.dropped[i],
                harvested: self.harvested[i],
                rejected: self.rejected[i],
                radio_energy: self.radio_energy[i],
                compute_energy: self.compute_energy[i],
                stored_series: Vec::new(),
            })
            .collect();
        NetworkMetrics {
            nodes,
            ..self.network
        }
    }
}

impl SimObserver for MetricsObserver {
    // Inlined into every emit site; see `EventBus::emit`.
    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "event node ids index the per-node counters, which are sized to the node count"
    )]
    fn on_event(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::HarvestBooked { node, income } => self.harvested[node] += income,
            SimEvent::CapacitorOverflow { node, rejected } => self.rejected[node] += rejected,
            SimEvent::NodeWoke { node } => self.wakeups[node] += 1,
            SimEvent::WakeFailed { node } => self.failures[node] += 1,
            SimEvent::PackageCaptured { node } => self.captured[node] += 1,
            SimEvent::PackageShed { node, count, .. } => self.dropped[node] += count,
            SimEvent::TasksMigrated {
                interrupted,
                moved,
                hops,
            } => {
                self.network.balance_interruptions += interrupted;
                self.network.balance_tasks_moved += moved;
                self.network.balance_transfer_hops += hops;
            }
            SimEvent::OffloadDecided { target, tasks, .. } => {
                self.network.offload_decisions += 1;
                if !matches!(target, OffloadTarget::Local) {
                    self.network.offload_shipped_tasks += tasks;
                }
            }
            SimEvent::RadioCharged { node, energy, .. } => self.radio_energy[node] += energy,
            SimEvent::FogProgressed { node, energy, .. } => self.compute_energy[node] += energy,
            SimEvent::FogCompleted { node } => self.tasks_executed[node] += 1,
            SimEvent::PackageDelivered { origin, fog_done } => {
                if fog_done {
                    self.delivered_fog[origin] += 1;
                } else {
                    self.delivered_cloud[origin] += 1;
                }
            }
            SimEvent::PackageLost { origin } => self.dropped[origin] += 1,
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
    use crate::sim::event::{RadioPurpose, ShedReason};
    use proptest::prelude::*;

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

    /// The row fold [`MetricsObserver`] replaced, kept as its
    /// reference: every event lands in its node's [`NodeMetrics`] row.
    struct RowFold {
        metrics: NetworkMetrics,
    }

    impl SimObserver for RowFold {
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

    /// Number of [`SimEvent`] variants [`drawn_event`] draws from.
    const VARIANTS: usize = 17;

    /// Builds one event of variant `variant` from raw draws: `node`
    /// indexes the node, `count` fills every count field, `nj` every
    /// energy field and `pick` chooses the enum fields.
    fn drawn_event(variant: usize, node: usize, count: u64, nj: f64, pick: usize) -> SimEvent {
        let energy = Energy::from_nanojoules(nj);
        match variant {
            0 => SimEvent::SlotBegan { slot: count },
            1 => SimEvent::HarvestBooked {
                node,
                income: energy,
            },
            2 => SimEvent::CapacitorOverflow {
                node,
                rejected: energy,
            },
            3 => SimEvent::NodeWoke { node },
            4 => SimEvent::WakeFailed { node },
            5 => SimEvent::PackageCaptured { node },
            6 => SimEvent::PackageShed {
                node,
                count,
                reason: [
                    ShedReason::BufferFull,
                    ShedReason::Stale,
                    ShedReason::Volatile,
                ][pick % 3],
            },
            7 => SimEvent::TasksMigrated {
                interrupted: count % 3,
                moved: count,
                hops: count * 2,
            },
            8 => SimEvent::OffloadDecided {
                node,
                target: [
                    OffloadTarget::Local,
                    OffloadTarget::Neighbor,
                    OffloadTarget::Cloud,
                ][pick % 3],
                tasks: count,
                ship_energy: energy,
            },
            9 => SimEvent::RadioCharged {
                node,
                energy,
                purpose: [
                    RadioPurpose::Session,
                    RadioPurpose::Packet,
                    RadioPurpose::Relay,
                    RadioPurpose::Balance,
                ][pick % 4],
            },
            10 => SimEvent::FogProgressed {
                node,
                instructions: count,
                energy,
            },
            11 => SimEvent::FogCompleted { node },
            12 => SimEvent::PackageDelivered {
                origin: node,
                fog_done: pick.is_multiple_of(2),
            },
            13 => SimEvent::PackageLost { origin: node },
            14 => SimEvent::CapacitorLeaked {
                node,
                leaked: energy,
                stored: energy,
            },
            15 => SimEvent::LedgerSettled {
                node,
                stored_before: energy,
                harvested: energy,
                consumed: energy,
                leaked: energy,
                lost: energy,
                stored_after: energy,
            },
            _ => SimEvent::SlotEnded { slot: count },
        }
    }

    /// Every counter of `m`, energies as their bit patterns: per node
    /// the seven counts and four energies, then the network totals.
    fn counter_bits(m: &NetworkMetrics) -> Vec<u64> {
        let mut bits: Vec<u64> = m
            .nodes
            .iter()
            .flat_map(|n| {
                [
                    n.wakeups,
                    n.failures,
                    n.captured,
                    n.tasks_executed,
                    n.delivered_fog,
                    n.delivered_cloud,
                    n.dropped,
                    n.harvested.as_nanojoules().to_bits(),
                    n.rejected.as_nanojoules().to_bits(),
                    n.radio_energy.as_nanojoules().to_bits(),
                    n.compute_energy.as_nanojoules().to_bits(),
                ]
            })
            .collect();
        bits.extend([
            m.balance_interruptions,
            m.balance_tasks_moved,
            m.balance_transfer_hops,
            m.offload_decisions,
            m.offload_shipped_tasks,
        ]);
        bits
    }

    #[test]
    fn drawn_events_cover_every_variant() {
        let mut kinds: Vec<&str> = (0..VARIANTS)
            .map(|v| drawn_event(v, 0, 1, 1.0, 0).kind())
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), VARIANTS);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The columnar fold matches the row fold counter for counter,
        /// energies bit for bit, on random streams of every variant.
        #[test]
        fn columnar_fold_matches_the_row_fold(
            nodes in 1usize..65,
            draws in prop::collection::vec(
                (0..VARIANTS, any::<usize>(), 0u64..1_000, 0.0..1e6f64, 0usize..12),
                0..400,
            ),
        ) {
            let mut columns = MetricsObserver::new(nodes);
            let mut rows = RowFold {
                metrics: NetworkMetrics::new(nodes),
            };
            for &(variant, node, count, nj, pick) in &draws {
                let event = drawn_event(variant, node % nodes, count, nj, pick);
                columns.on_event(&event);
                rows.on_event(&event);
            }
            prop_assert_eq!(counter_bits(&columns.into_metrics()), counter_bits(&rows.metrics));
        }
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
        fan.push(Box::new(Counter(count.clone())));
        fan.push(Box::new(Counter(count.clone())));
        fan.on_event(&SimEvent::SlotBegan { slot: 0 });
        assert_eq!(*count.borrow(), 2);
    }
}
