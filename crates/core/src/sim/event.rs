//! The typed event vocabulary of the slot pipeline.
//!
//! Every observable state change in a slot — energy booked, a node
//! waking or failing, tasks migrating, packages moving — is described
//! by one [`SimEvent`] value emitted through the
//! [`SimObserver`](crate::sim::SimObserver) bus. The phase functions
//! emit events at exactly the point the change happens, so an event
//! stream is a complete, ordered record of a run: the metrics and the
//! stored-energy trace are pure folds over it. The energy ledger is
//! not: it settles in place at slot end and emits nothing.

use crate::balance::OffloadTarget;
use neofog_types::Energy;
use serde::{Deserialize, Serialize};

/// Why a package was shed (dropped without delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The NV admission buffer already held its bounded backlog.
    BufferFull,
    /// The package sat unprocessed past the staleness horizon on a
    /// node too depleted to ship it raw (§5.1: "the sampled data are
    /// discarded").
    Stale,
    /// A volatile node powered down and its queues evaporated.
    Volatile,
}

impl ShedReason {
    /// Stable lowercase label used in the JSONL event log.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::BufferFull => "buffer_full",
            ShedReason::Stale => "stale",
            ShedReason::Volatile => "volatile",
        }
    }
}

/// What a radio energy charge paid for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RadioPurpose {
    /// Opening a transmit session (software init / NVM restore / NVRF
    /// start, depending on the system).
    Session,
    /// Shipping one data packet.
    Packet,
    /// Forwarding airtime charged to an awake relay position.
    Relay,
    /// Load-balance transfer traffic shared across awake nodes.
    Balance,
}

impl RadioPurpose {
    /// Stable lowercase label used in the JSONL event log.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RadioPurpose::Session => "session",
            RadioPurpose::Packet => "packet",
            RadioPurpose::Relay => "relay",
            RadioPurpose::Balance => "balance",
        }
    }
}

/// One observable state change inside a slot.
///
/// Node indices are physical-node indices (position-major, clone-minor
/// — the same indexing as
/// [`NetworkMetrics::nodes`](crate::metrics::NetworkMetrics::nodes)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// A new RTC slot began.
    SlotBegan {
        /// Slot index.
        slot: u64,
    },
    /// A node's harvest income (post front-end, post RTC priority
    /// charge) was booked into its slot budget.
    HarvestBooked {
        /// Physical node index.
        node: usize,
        /// Income delivered to the budget.
        income: Energy,
    },
    /// A full capacitor rejected income it could not absorb.
    CapacitorOverflow {
        /// Physical node index.
        node: usize,
        /// Energy turned away.
        rejected: Energy,
    },
    /// A scheduled node paid its activation threshold and woke.
    NodeWoke {
        /// Physical node index.
        node: usize,
    },
    /// A scheduled node could not afford to wake (energy depletion —
    /// the paper's "node failure").
    WakeFailed {
        /// Physical node index.
        node: usize,
    },
    /// An awake node captured one data package.
    PackageCaptured {
        /// Physical node index.
        node: usize,
    },
    /// Packages were shed without delivery.
    PackageShed {
        /// Physical node index that held them.
        node: usize,
        /// How many were shed.
        count: u64,
        /// Why they were shed.
        reason: ShedReason,
    },
    /// The intra-chain balancer finished a round.
    TasksMigrated {
        /// Balance regions interrupted by node failure.
        interrupted: u64,
        /// Fog tasks reassigned to another node.
        moved: u64,
        /// Chain-hop transmissions the moves cost.
        hops: u64,
    },
    /// The offload balancer resolved a node's backlog deficit: keep it
    /// local, ship it one hop, or ship it to the sink (see
    /// [`OffloadBalancer`](crate::balance::OffloadBalancer)).
    OffloadDecided {
        /// Physical node index of the deciding position's awake
        /// representative.
        node: usize,
        /// Where the surplus tasks went.
        target: OffloadTarget,
        /// Tasks moved (0 when the decision was to hold).
        tasks: u64,
        /// Estimated radio front-end energy of the shipping.
        ship_energy: Energy,
    },
    /// Radio energy was charged to a node.
    RadioCharged {
        /// Physical node index.
        node: usize,
        /// Energy at the point of use.
        energy: Energy,
        /// What the charge paid for.
        purpose: RadioPurpose,
    },
    /// A fog task executed some instructions on a node.
    FogProgressed {
        /// Physical node index.
        node: usize,
        /// Instructions retired this step.
        instructions: u64,
        /// Compute energy spent.
        energy: Energy,
    },
    /// A fog task ran to completion on a node.
    FogCompleted {
        /// Physical node index (execution credit — may differ from the
        /// package's origin after balancing).
        node: usize,
    },
    /// A package was delivered end-to-end through the chain mesh.
    PackageDelivered {
        /// Physical node that captured the package.
        origin: usize,
        /// Whether it was fog-processed before delivery.
        fog_done: bool,
    },
    /// A package was lost to channel loss on its way out.
    PackageLost {
        /// Physical node that captured the package.
        origin: usize,
    },
    /// A capacitor leaked at slot end; `stored` is the level the node
    /// carries into the next slot.
    CapacitorLeaked {
        /// Physical node index.
        node: usize,
        /// Self-discharge over the slot.
        leaked: Energy,
        /// Stored level after the leak.
        stored: Energy,
    },
    /// A node's per-slot conservation ledger: `harvested +
    /// stored_before = consumed + leaked + lost + stored_after`.
    ///
    /// Never emitted: the ledger settles in place at slot end and
    /// asserts that identity itself. The variant stays only because
    /// the benchmark's event classifier (`perfbench/src/trace.rs`)
    /// still names it; delete it together with that match.
    LedgerSettled {
        /// Physical node index.
        node: usize,
        /// Stored level entering the slot.
        stored_before: Energy,
        /// Income after the harvester front-end.
        harvested: Energy,
        /// Energy delivered to loads (plus the RTC's intake).
        consumed: Energy,
        /// Capacitor self-discharge.
        leaked: Energy,
        /// Conversion losses and rejected income.
        lost: Energy,
        /// Stored level leaving the slot.
        stored_after: Energy,
    },
    /// The slot ended; every per-node ledger has settled.
    SlotEnded {
        /// Slot index.
        slot: u64,
    },
}

impl SimEvent {
    /// Stable snake_case tag used in the JSONL event log.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::SlotBegan { .. } => "slot_began",
            SimEvent::HarvestBooked { .. } => "harvest_booked",
            SimEvent::CapacitorOverflow { .. } => "capacitor_overflow",
            SimEvent::NodeWoke { .. } => "node_woke",
            SimEvent::WakeFailed { .. } => "wake_failed",
            SimEvent::PackageCaptured { .. } => "package_captured",
            SimEvent::PackageShed { .. } => "package_shed",
            SimEvent::TasksMigrated { .. } => "tasks_migrated",
            SimEvent::OffloadDecided { .. } => "offload_decided",
            SimEvent::RadioCharged { .. } => "radio_charged",
            SimEvent::FogProgressed { .. } => "fog_progressed",
            SimEvent::FogCompleted { .. } => "fog_completed",
            SimEvent::PackageDelivered { .. } => "package_delivered",
            SimEvent::PackageLost { .. } => "package_lost",
            SimEvent::CapacitorLeaked { .. } => "capacitor_leaked",
            SimEvent::LedgerSettled { .. } => "ledger_settled",
            SimEvent::SlotEnded { .. } => "slot_ended",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique() {
        let kinds = [
            SimEvent::SlotBegan { slot: 0 }.kind(),
            SimEvent::HarvestBooked {
                node: 0,
                income: Energy::ZERO,
            }
            .kind(),
            SimEvent::CapacitorOverflow {
                node: 0,
                rejected: Energy::ZERO,
            }
            .kind(),
            SimEvent::NodeWoke { node: 0 }.kind(),
            SimEvent::WakeFailed { node: 0 }.kind(),
            SimEvent::PackageCaptured { node: 0 }.kind(),
            SimEvent::PackageShed {
                node: 0,
                count: 1,
                reason: ShedReason::Stale,
            }
            .kind(),
            SimEvent::TasksMigrated {
                interrupted: 0,
                moved: 0,
                hops: 0,
            }
            .kind(),
            SimEvent::OffloadDecided {
                node: 0,
                target: OffloadTarget::Cloud,
                tasks: 0,
                ship_energy: Energy::ZERO,
            }
            .kind(),
            SimEvent::RadioCharged {
                node: 0,
                energy: Energy::ZERO,
                purpose: RadioPurpose::Session,
            }
            .kind(),
            SimEvent::FogProgressed {
                node: 0,
                instructions: 0,
                energy: Energy::ZERO,
            }
            .kind(),
            SimEvent::FogCompleted { node: 0 }.kind(),
            SimEvent::PackageDelivered {
                origin: 0,
                fog_done: true,
            }
            .kind(),
            SimEvent::PackageLost { origin: 0 }.kind(),
            SimEvent::CapacitorLeaked {
                node: 0,
                leaked: Energy::ZERO,
                stored: Energy::ZERO,
            }
            .kind(),
            SimEvent::LedgerSettled {
                node: 0,
                stored_before: Energy::ZERO,
                harvested: Energy::ZERO,
                consumed: Energy::ZERO,
                leaked: Energy::ZERO,
                lost: Energy::ZERO,
                stored_after: Energy::ZERO,
            }
            .kind(),
            SimEvent::SlotEnded { slot: 0 }.kind(),
        ];
        let unique: std::collections::BTreeSet<&str> = kinds.iter().copied().collect();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn labels_are_snake_case() {
        for label in [
            ShedReason::BufferFull.label(),
            ShedReason::Stale.label(),
            ShedReason::Volatile.label(),
            RadioPurpose::Session.label(),
            RadioPurpose::Packet.label(),
            RadioPurpose::Relay.label(),
            RadioPurpose::Balance.label(),
            OffloadTarget::Local.label(),
            OffloadTarget::Neighbor.label(),
            OffloadTarget::Cloud.label(),
        ] {
            assert!(label.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
