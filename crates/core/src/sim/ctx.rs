//! Shared per-slot state the phase functions operate on.
//!
//! A [`SlotCtx`] is a reusable scratch struct owned by the simulator:
//! it is [`reset`](SlotCtx::reset) at the top of every slot and
//! threaded through the six phases in order. It owns the per-slot
//! state that is *not* per-node-columnar (conservation ledgers,
//! per-position forwarding duty, the balance phase's chain snapshot,
//! package scratch); the per-node hot state — budgets, wake flags,
//! income powers — lives in the
//! [`NodeColumns`](super::columns::NodeColumns) arrays, reset by
//! [`begin_slot`](super::columns::NodeColumns::begin_slot) alongside
//! this context. Both clear and refill in place, so after the first
//! slot the steady-state loop performs no heap allocation here.
//!
//! It also defines [`Package`], the 16-byte entry of every node's
//! queues, and the queue bounds ([`MAX_PENDING`], [`QUEUE_RESERVE`]).

use super::columns::NodeColumns;
use super::ledger::EnergyLedger;
use crate::balance::{ChainBalanceInput, OffloadDecision};
use serde::{Deserialize, Serialize};

/// Maximum fog backlog a node admits (packages); the NV buffer sheds
/// newer samples beyond this.
pub(crate) const MAX_PENDING: usize = 8;

/// Initial capacity for the per-node package queues, reserved by
/// `NodeColumns::new`. `pending` is hard-capped at [`MAX_PENDING`]; the
/// outbox backlog tracks it closely (admission control throttles
/// inflow to one capture per wake plus what fog processing releases),
/// so 2× is enough that steady-state slots never regrow the queues.
/// At 16 bytes per [`Package`] each queue buffer is 256 bytes.
pub(crate) const QUEUE_RESERVE: usize = 2 * MAX_PENDING;

/// One captured data package travelling through the system.
///
/// Sixteen bytes: `Simulator::new` rejects configurations whose node
/// count (`positions × multiplex`), slot count or per-package fog
/// instructions exceed `u32::MAX`, so every field fits a `u32`. Events,
/// balancer tasks and the state digest widen them back to `u64`/`usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Package {
    /// Index of the capturing physical node.
    pub(crate) origin: u32,
    /// Slot of capture.
    pub(crate) created: u32,
    /// Remaining fog instructions (0 = processed).
    pub(crate) fog_remaining: u32,
    /// Whether the fog task completed.
    pub(crate) fog_done: bool,
}

const _: () = assert!(std::mem::size_of::<Package>() == 16);

/// The non-columnar per-slot state, with allocations that last the
/// whole run (see the module docs).
#[derive(Default)]
pub(crate) struct SlotCtx {
    /// Slot index.
    pub(crate) slot: u64,
    /// One conservation ledger per node, opened against the stored
    /// level entering the slot and settled at slot end.
    pub(crate) ledgers: Vec<EnergyLedger>,
    /// Transmit-phase scratch: forwarding airtime (bytes) accumulated
    /// per logical position this slot.
    pub(crate) forward_bytes: Vec<u64>,
    /// Transmit-phase scratch: bytes flowing *into* each position from
    /// its route-plan children, accumulated by the topological relay
    /// sweep.
    pub(crate) route_acc: Vec<u64>,
    /// Balance-phase scratch: offload decisions taken this slot.
    pub(crate) offload: Vec<OffloadDecision>,
    /// Balance-phase scratch: the chain snapshot handed to the
    /// balancer, one state per position. The balance phase rewrites
    /// every field of every state each slot, keeping only the task
    /// vectors' capacity.
    pub(crate) chain: ChainBalanceInput,
    /// Balance-phase scratch: each position's representative (its
    /// awake clone), if any.
    pub(crate) reps: Vec<Option<usize>>,
    /// Balance-phase scratch: copies of the representatives' pending
    /// packages in position order. Snapshot task tags index it.
    pub(crate) rep_packages: Vec<Package>,
    /// General package scratch (transmit ordering, stale shedding);
    /// every user clears it before use.
    pub(crate) pkg_scratch: Vec<Package>,
}

impl SlotCtx {
    /// A scratch context whose per-position vectors are pre-sized for
    /// `n_pos` chain positions, so even the first slots only fill —
    /// never grow — them. The package scratch holds one node's queue at
    /// a time and grows to that size in the first slots that use it.
    /// The balance scratch is sized by its first use, so runs without
    /// a balancer never allocate it.
    ///
    /// The ledgers are sized by the first [`reset`](SlotCtx::reset).
    /// Reserving them here, as the last allocation of
    /// `Simulator::new`, raised perfbench `paper_repro`'s peak RSS from
    /// 34.4 to 40.0 MB at seeds 1, 2, 3, 5 and 97 (glibc heap
    /// placement; the block itself is 40 bytes per node).
    pub(crate) fn warmed(n_pos: usize) -> Self {
        let mut ctx = SlotCtx::default();
        ctx.forward_bytes.reserve(n_pos);
        ctx.route_acc.reserve(n_pos);
        ctx.offload.reserve(n_pos);
        ctx
    }

    /// Resets the context for `slot`, opening one ledger per node.
    /// Clears and refills every per-slot vector in place so their
    /// capacity survives from slot to slot.
    pub(crate) fn reset(&mut self, nodes: &NodeColumns, slot: u64) {
        self.slot = slot;
        self.ledgers.clear();
        self.ledgers
            .extend(nodes.cap.iter().map(|c| EnergyLedger::open(c.stored())));
        self.forward_bytes.clear();
        self.route_acc.clear();
        self.offload.clear();
        self.pkg_scratch.clear();
    }
}
