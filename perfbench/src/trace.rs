//! Tracing that lives outside the simulator: a phase-boundary observer
//! attached through `Simulator::attach_observer`, and a `Progress`
//! implementation that timestamps the runner's job callbacks.
//!
//! # Boundary attribution
//!
//! The serial kernel emits a sweep's events while the sweep runs, so
//! the observer takes an `Instant` only when the phase class of two
//! consecutive events differs and charges the interval since the
//! previous boundary to the phase that was running. Work a phase does
//! before its first event is therefore charged to the phase before it
//! (for example `slot_end` carries the next slot's scratch reset, and
//! a phase that emits nothing costs nothing). The one phase whose main
//! work precedes its first event is balance: the balancer round runs
//! silently and then reports `TasksMigrated`. For it the observer also
//! stamps the wake events of the last position's nodes, which the wake
//! sweep emits last, so the gap between the end of the wake sweep and
//! `TasksMigrated` is charged to balance; the queue rebuild after the
//! report is charged to balance too, since compute has not emitted yet.

use neofog_core::sim::{BalancerKind, RadioPurpose, ShedReason, SimConfig, SimEvent, SimObserver};
use neofog_core::Progress;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The six slot phases, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Harvest,
    Wake,
    Balance,
    Compute,
    Transmit,
    SlotEnd,
}

impl Phase {
    pub const ALL: [Phase; 6] = [
        Phase::Harvest,
        Phase::Wake,
        Phase::Balance,
        Phase::Compute,
        Phase::Transmit,
        Phase::SlotEnd,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Phase::Harvest => "harvest",
            Phase::Wake => "wake",
            Phase::Balance => "balance",
            Phase::Compute => "compute",
            Phase::Transmit => "transmit",
            Phase::SlotEnd => "slot_end",
        }
    }
}

/// The phase that emitted `event`, given the phase the slot is in.
///
/// Every `SimEvent` variant is matched by name, with no wildcard arm,
/// so a new event kind fails to compile until it is classified.
pub fn classify(event: &SimEvent, current: Phase) -> Phase {
    match event {
        SimEvent::SlotBegan { .. } | SimEvent::HarvestBooked { .. } => Phase::Harvest,
        // Harvest rejects income a full capacitor cannot take; slot end
        // rejects leftover direct income it banks.
        SimEvent::CapacitorOverflow { .. } => {
            if current == Phase::Harvest {
                Phase::Harvest
            } else {
                Phase::SlotEnd
            }
        }
        SimEvent::NodeWoke { .. }
        | SimEvent::WakeFailed { .. }
        | SimEvent::PackageCaptured { .. } => Phase::Wake,
        SimEvent::PackageShed { reason, .. } => match reason {
            ShedReason::BufferFull => Phase::Wake,
            ShedReason::Stale => Phase::Compute,
            ShedReason::Volatile => Phase::SlotEnd,
        },
        SimEvent::TasksMigrated { .. } | SimEvent::OffloadDecided { .. } => Phase::Balance,
        SimEvent::RadioCharged { purpose, .. } => match purpose {
            RadioPurpose::Balance => Phase::Balance,
            RadioPurpose::Session | RadioPurpose::Packet | RadioPurpose::Relay => Phase::Transmit,
        },
        SimEvent::FogProgressed { .. } | SimEvent::FogCompleted { .. } => Phase::Compute,
        SimEvent::PackageDelivered { .. } | SimEvent::PackageLost { .. } => Phase::Transmit,
        SimEvent::CapacitorLeaked { .. }
        | SimEvent::LedgerSettled { .. }
        | SimEvent::SlotEnded { .. } => Phase::SlotEnd,
    }
}

/// Event kinds, indexed by [`kind_index`].
pub const KINDS: [&str; 17] = [
    "slot_began",
    "harvest_booked",
    "capacitor_overflow",
    "node_woke",
    "wake_failed",
    "package_captured",
    "package_shed",
    "tasks_migrated",
    "offload_decided",
    "radio_charged",
    "fog_progressed",
    "fog_completed",
    "package_delivered",
    "package_lost",
    "capacitor_leaked",
    "ledger_settled",
    "slot_ended",
];

/// Position of `event`'s kind in [`KINDS`].
pub fn kind_index(event: &SimEvent) -> usize {
    match event {
        SimEvent::SlotBegan { .. } => 0,
        SimEvent::HarvestBooked { .. } => 1,
        SimEvent::CapacitorOverflow { .. } => 2,
        SimEvent::NodeWoke { .. } => 3,
        SimEvent::WakeFailed { .. } => 4,
        SimEvent::PackageCaptured { .. } => 5,
        SimEvent::PackageShed { .. } => 6,
        SimEvent::TasksMigrated { .. } => 7,
        SimEvent::OffloadDecided { .. } => 8,
        SimEvent::RadioCharged { .. } => 9,
        SimEvent::FogProgressed { .. } => 10,
        SimEvent::FogCompleted { .. } => 11,
        SimEvent::PackageDelivered { .. } => 12,
        SimEvent::PackageLost { .. } => 13,
        SimEvent::CapacitorLeaked { .. } => 14,
        SimEvent::LedgerSettled { .. } => 15,
        SimEvent::SlotEnded { .. } => 16,
    }
}

/// What the phase observer has recorded. Event kinds are counted over
/// the simulator's whole life; phase times, phase event counts and
/// balancer counters only while armed.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub kinds: [u64; KINDS.len()],
    pub time: [Duration; 6],
    pub events: [u64; 6],
    pub slots: u64,
    pub tasks_moved: u64,
    pub transfer_hops: u64,
    pub offload_decisions: u64,
    pub offload_tasks: u64,
    armed: bool,
    /// First node whose wake events are stamped: the last position's
    /// nodes, when the balance phase runs.
    stamp_from: Option<usize>,
    current: Option<Phase>,
    since: Option<Instant>,
    last_wake: Option<Instant>,
}

impl PhaseLog {
    /// Starts timing at the next event.
    pub fn arm(&mut self) {
        self.armed = true;
        self.since = None;
    }

    /// Stops timing, charging the open interval to the running phase.
    pub fn disarm(&mut self) {
        if let (Some(phase), Some(since)) = (self.current, self.since) {
            self.time[phase as usize] += since.elapsed();
        }
        self.armed = false;
        self.since = None;
    }

    fn record(&mut self, event: &SimEvent) {
        self.kinds[kind_index(event)] += 1;
        let current = self.current.unwrap_or(Phase::SlotEnd);
        let phase = classify(event, current);
        if !self.armed {
            self.current = Some(phase);
            return;
        }
        let stamp = phase == Phase::Wake
            && self
                .stamp_from
                .is_some_and(|from| wake_node(event).is_some_and(|n| n >= from));
        if self.current != Some(phase) {
            let now = Instant::now();
            if let Some(since) = self.since {
                match self.last_wake.take() {
                    Some(last) if phase == Phase::Balance && current == Phase::Wake => {
                        self.time[Phase::Wake as usize] += last - since;
                        self.time[Phase::Balance as usize] += now - last;
                    }
                    _ => self.time[current as usize] += now - since,
                }
            }
            self.since = Some(now);
            self.current = Some(phase);
            if stamp {
                self.last_wake = Some(now);
            }
        } else if stamp {
            self.last_wake = Some(Instant::now());
        }
        self.events[phase as usize] += 1;
        match *event {
            SimEvent::SlotEnded { .. } => self.slots += 1,
            SimEvent::TasksMigrated { moved, hops, .. } => {
                self.tasks_moved += moved;
                self.transfer_hops += hops;
            }
            SimEvent::OffloadDecided { tasks, .. } => {
                self.offload_decisions += 1;
                self.offload_tasks += tasks;
            }
            _ => {}
        }
    }
}

/// The node a wake-phase event is about.
fn wake_node(event: &SimEvent) -> Option<usize> {
    match *event {
        SimEvent::NodeWoke { node }
        | SimEvent::WakeFailed { node }
        | SimEvent::PackageCaptured { node }
        | SimEvent::PackageShed { node, .. } => Some(node),
        _ => None,
    }
}

/// The observer half of a [`PhaseLog`]; the benchmark keeps the other
/// handle to arm, disarm and read it.
pub struct PhaseObserver(Rc<RefCell<PhaseLog>>);

impl PhaseObserver {
    /// A fresh observer for a simulation of `cfg`, and the shared log
    /// it fills.
    pub fn new(cfg: &SimConfig) -> (Self, Rc<RefCell<PhaseLog>>) {
        // Nodes are laid out position-major, so the last position's
        // clones are the last nodes the wake sweep visits, and one of
        // them is scheduled every slot.
        let balanced = cfg.system.is_fog_capable() && cfg.balancer != BalancerKind::None;
        let last_position = cfg.positions.saturating_sub(1) * cfg.multiplex as usize;
        let log = Rc::new(RefCell::new(PhaseLog {
            stamp_from: balanced.then_some(last_position),
            ..PhaseLog::default()
        }));
        (PhaseObserver(Rc::clone(&log)), log)
    }
}

impl SimObserver for PhaseObserver {
    fn on_event(&mut self, event: &SimEvent) {
        self.0.borrow_mut().record(event);
    }

    fn on_finish(&mut self) {
        self.0.borrow_mut().disarm();
    }
}

/// Timestamps of the runner's job callbacks for one batch.
#[derive(Debug, Default)]
pub struct JobClock {
    pub started: Vec<Option<Instant>>,
    pub finished: Vec<Option<Instant>>,
}

impl JobClock {
    /// Per-job latency, `on_started` to `on_finished`, in milliseconds.
    pub fn job_ms(&self) -> Vec<f64> {
        self.started
            .iter()
            .zip(&self.finished)
            .filter_map(|(&s, &f)| Some((f? - s?).as_secs_f64() * 1e3))
            .collect()
    }

    /// Time from the last job start to the last job finish.
    pub fn drain(&self) -> Duration {
        let last_start = self.started.iter().flatten().max();
        let last_finish = self.finished.iter().flatten().max();
        match (last_start, last_finish) {
            (Some(s), Some(f)) => f.saturating_duration_since(*s),
            _ => Duration::ZERO,
        }
    }

    pub fn jobs(&self) -> usize {
        self.started.len()
    }
}

impl Progress for JobClock {
    fn on_started(&mut self, index: usize, total: usize) {
        let now = Instant::now();
        self.started.resize(total, None);
        self.finished.resize(total, None);
        self.started[index] = Some(now);
    }

    fn on_finished(&mut self, index: usize, _finished: usize, total: usize) {
        let now = Instant::now();
        self.finished.resize(total, None);
        self.finished[index] = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neofog_core::OffloadTarget;
    use neofog_types::Energy;

    #[test]
    fn classifier_has_no_wildcard_arm() {
        let source = include_str!("trace.rs");
        for name in ["pub fn classify", "pub fn kind_index"] {
            let start = source.find(name).expect("function present");
            let end = start + source[start..].find("\n}\n").expect("function ends");
            let body = &source[start..end];
            assert!(!body.contains("_ =>"), "{name} has a wildcard arm");
        }
    }

    #[test]
    fn every_kind_lands_in_its_phase() {
        let e = Energy::ZERO;
        let cases = [
            (SimEvent::SlotBegan { slot: 0 }, Phase::Harvest),
            (
                SimEvent::HarvestBooked { node: 0, income: e },
                Phase::Harvest,
            ),
            (SimEvent::NodeWoke { node: 0 }, Phase::Wake),
            (SimEvent::WakeFailed { node: 0 }, Phase::Wake),
            (SimEvent::PackageCaptured { node: 0 }, Phase::Wake),
            (
                SimEvent::PackageShed {
                    node: 0,
                    count: 1,
                    reason: ShedReason::BufferFull,
                },
                Phase::Wake,
            ),
            (
                SimEvent::TasksMigrated {
                    interrupted: 0,
                    moved: 0,
                    hops: 0,
                },
                Phase::Balance,
            ),
            (
                SimEvent::OffloadDecided {
                    node: 0,
                    target: OffloadTarget::Cloud,
                    tasks: 0,
                    ship_energy: e,
                },
                Phase::Balance,
            ),
            (
                SimEvent::RadioCharged {
                    node: 0,
                    energy: e,
                    purpose: RadioPurpose::Balance,
                },
                Phase::Balance,
            ),
            (
                SimEvent::FogProgressed {
                    node: 0,
                    instructions: 1,
                    energy: e,
                },
                Phase::Compute,
            ),
            (SimEvent::FogCompleted { node: 0 }, Phase::Compute),
            (
                SimEvent::PackageShed {
                    node: 0,
                    count: 1,
                    reason: ShedReason::Stale,
                },
                Phase::Compute,
            ),
            (
                SimEvent::RadioCharged {
                    node: 0,
                    energy: e,
                    purpose: RadioPurpose::Relay,
                },
                Phase::Transmit,
            ),
            (
                SimEvent::PackageDelivered {
                    origin: 0,
                    fog_done: true,
                },
                Phase::Transmit,
            ),
            (SimEvent::PackageLost { origin: 0 }, Phase::Transmit),
            (
                SimEvent::PackageShed {
                    node: 0,
                    count: 1,
                    reason: ShedReason::Volatile,
                },
                Phase::SlotEnd,
            ),
            (
                SimEvent::CapacitorLeaked {
                    node: 0,
                    leaked: e,
                    stored: e,
                },
                Phase::SlotEnd,
            ),
            (SimEvent::SlotEnded { slot: 0 }, Phase::SlotEnd),
        ];
        for (event, phase) in cases {
            assert_eq!(classify(&event, Phase::Wake), phase, "{event:?}");
            assert_eq!(KINDS[kind_index(&event)], event.kind());
        }
        let overflow = SimEvent::CapacitorOverflow {
            node: 0,
            rejected: e,
        };
        assert_eq!(classify(&overflow, Phase::Harvest), Phase::Harvest);
        assert_eq!(classify(&overflow, Phase::Transmit), Phase::SlotEnd);
    }

    #[test]
    fn armed_log_charges_every_interval_to_a_phase() {
        let mut cfg = SimConfig::paper_default(
            neofog_core::SystemKind::FiosNeoFog,
            neofog_energy::Scenario::ForestIndependent,
            1,
        );
        cfg.positions = 1;
        let (mut obs, log) = PhaseObserver::new(&cfg);
        obs.on_event(&SimEvent::SlotEnded { slot: 0 });
        log.borrow_mut().arm();
        let e = Energy::ZERO;
        for event in [
            SimEvent::SlotBegan { slot: 1 },
            SimEvent::HarvestBooked { node: 0, income: e },
            SimEvent::NodeWoke { node: 0 },
            SimEvent::TasksMigrated {
                interrupted: 0,
                moved: 2,
                hops: 3,
            },
            SimEvent::FogCompleted { node: 0 },
            SimEvent::SlotEnded { slot: 1 },
        ] {
            obs.on_event(&event);
        }
        log.borrow_mut().disarm();
        let log = log.borrow();
        assert_eq!(log.slots, 1);
        assert_eq!(log.events.iter().sum::<u64>(), 6);
        assert_eq!(log.events, [2, 1, 1, 1, 0, 1]);
        assert_eq!((log.tasks_moved, log.transfer_hops), (2, 3));
        assert_eq!(log.kinds.iter().sum::<u64>(), 7);
        assert!(log.time.iter().sum::<Duration>() > Duration::ZERO);
    }
}
