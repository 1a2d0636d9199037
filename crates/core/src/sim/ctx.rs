//! Shared per-slot state the phase functions operate on.
//!
//! A [`SlotCtx`] is a reusable scratch struct owned by the simulator:
//! it is [`reset`](SlotCtx::reset) at the top of every slot and
//! threaded through the six phases in order. It owns the per-slot
//! state that is *not* per-node-columnar (conservation ledgers,
//! per-position forwarding duty, the balance phase's chain snapshot,
//! package scratch); the per-node hot state — budgets, wake flags,
//! income powers — lives in the
//! [`NodeColumns`](super::columns::NodeColumns) arrays, whose wake
//! flags [`begin_slot`](super::columns::NodeColumns::begin_slot)
//! clears alongside this context. Both clear and refill in place, so
//! after the first slot the steady-state loop performs no heap
//! allocation here.
//!
//! It also defines [`Package`], the 16-byte entry of every node's
//! queues, the staleness rule of §5.1 ([`STALE_AFTER`]), the queue
//! sizes ([`MAX_PENDING`], [`QUEUE_RESERVE`]) and the functions that
//! add packages to or remove them from a `pending` queue together with
//! its two mirror columns.

use super::ledger::EnergyLedger;
use crate::balance::{ChainBalanceInput, OffloadDecision};
use neofog_types::Energy;
use serde::{Deserialize, Serialize};

/// Admission limit of a node's own captures (packages): a node whose
/// fog backlog holds this many sheds each new sample it captures. It
/// does not bound the backlog itself — a balancer may hand a node more
/// packages than this (the tree balancer piles hundreds on one node).
pub(crate) const MAX_PENDING: usize = 8;

/// Initial capacity for the per-node package queues, reserved by
/// `NodeColumns::new`. Admission keeps a node's own captures below
/// [`MAX_PENDING`], and the outbox backlog tracks the fog backlog
/// closely (inflow is one capture per wake plus what fog processing
/// releases), so 2× is enough that steady-state slots of the
/// balancer-off and Algorithm 1 runs never regrow the queues. A queue
/// that a balancer piles past it grows to hold the pile. At 16 bytes
/// per [`Package`] each queue buffer is 256 bytes.
pub(crate) const QUEUE_RESERVE: usize = 2 * MAX_PENDING;

/// Slots a package may wait in `pending` without fog progress before
/// it is stale: "the sampled data are discarded" (§5.1), or shipped
/// raw when the node has energy to spare.
pub(crate) const STALE_AFTER: u64 = 20;

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

impl Package {
    /// The first slot at which the package is stale if it makes no fog
    /// progress: it has then waited more than [`STALE_AFTER`] slots
    /// since capture.
    pub(crate) fn stale_at(self) -> u64 {
        u64::from(self.created) + STALE_AFTER + 1
    }

    /// [`stale_at`](Package::stale_at) as an entry of the `u32`
    /// staleness-horizon column, clamped to `u32::MAX`. Slots are below
    /// `u32::MAX`, so the clamp only ever lowers the bound.
    pub(crate) fn horizon(self) -> u32 {
        u32::try_from(self.stale_at()).unwrap_or(u32::MAX)
    }

    /// Whether the package is stale at `slot`: it still carries all
    /// `fog_len` instructions of a fresh capture and `slot` has reached
    /// [`stale_at`](Package::stale_at). Packages with execution
    /// progress are never stale — killing a half-finished head would
    /// waste the energy already sunk.
    pub(crate) fn is_stale(self, slot: u64, fog_len: u32) -> bool {
        self.fog_remaining == fog_len && slot >= self.stale_at()
    }
}

/// The exact staleness horizon of `pending`: the least
/// [`horizon`](Package::horizon) of its packages without fog progress,
/// or `u32::MAX` ("none can turn stale") when it has none.
fn exact_horizon(pending: &[Package], fog_len: u32) -> u32 {
    pending
        .iter()
        .filter(|p| p.fog_remaining == fog_len)
        .map(|p| p.horizon())
        .min()
        .unwrap_or(u32::MAX)
}

// Every package added to or removed from a node's `pending` queue
// goes through the four functions below, which keep its two dense
// mirrors in `NodeColumns`: the FIFO depth (the queue's length) and
// the staleness horizon (a lower bound on the first slot at which a
// package without fog progress turns stale). Adding a package lowers
// the horizon, removing packages leaves it (the exact value can only
// rise), and any other rewrite recomputes it. Fog progress, which
// compute makes in place on the head package, only removes a stale
// candidate too, so it needs no function.

/// Appends a capture to `pending`: the depth counts it and the horizon
/// falls to the slot at which it turns stale, if that is lower.
pub(crate) fn push_pending(
    pending: &mut Vec<Package>,
    depth: &mut u32,
    horizon: &mut u32,
    pkg: Package,
) {
    pending.push(pkg);
    *depth += 1;
    *horizon = (*horizon).min(pkg.horizon());
}

/// Removes and returns the head of a non-empty `pending` (its fog task
/// finished). The depth drops by one; the horizon stays a lower bound.
pub(crate) fn pop_pending_head(pending: &mut Vec<Package>, depth: &mut u32) -> Package {
    *depth -= 1;
    pending.remove(0)
}

/// Empties `pending` (a volatile node's power-down). The depth drops to
/// zero; the horizon bounds an empty queue whatever its value.
pub(crate) fn clear_pending(pending: &mut Vec<Package>, depth: &mut u32) {
    pending.clear();
    *depth = 0;
}

/// Rewrites `pending` with `rewrite` (the balance rebuild, the stale
/// sweep's filter), then recomputes the depth and the exact horizon
/// over what it left.
pub(crate) fn rewrite_pending(
    pending: &mut Vec<Package>,
    depth: &mut u32,
    horizon: &mut u32,
    fog_len: u32,
    rewrite: impl FnOnce(&mut Vec<Package>),
) {
    rewrite(pending);
    *depth = pending.len() as u32;
    *horizon = exact_horizon(pending, fog_len);
}

/// The non-columnar per-slot state, with allocations that last the
/// whole run (see the module docs).
#[derive(Default)]
pub(crate) struct SlotCtx {
    /// Slot index.
    pub(crate) slot: u64,
    /// The clone index on duty this slot, `slot % multiplex`: NVD4Q
    /// puts clone `k` of every position on duty in the slots
    /// `≡ k (mod multiplex)` (§3.3, Algorithm 2), and only on-duty
    /// clones may wake.
    pub(crate) duty: usize,
    /// One conservation ledger per node, opened by the harvest sweep
    /// against the stored level entering the slot and settled at slot
    /// end.
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
    /// a time and is reserved to [`QUEUE_RESERVE`], a queue's own
    /// reserve: the transmit partition sizes it only to the outboxes of
    /// the warm-up slots (one package, nearly always), and a stale visit,
    /// which can shed a whole `pending` queue, may first come later.
    /// The balance scratch is sized by its first use, so runs without a
    /// balancer never allocate it.
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
        ctx.pkg_scratch.reserve(QUEUE_RESERVE);
        ctx
    }

    /// Resets the context for `slot` over `nodes` physical nodes,
    /// `multiplex` (non-zero) clones per position. Clears every
    /// per-slot vector in place so its capacity survives from slot to
    /// slot. The ledgers keep their length (the first slot sizes them);
    /// the harvest sweep opens each one.
    pub(crate) fn reset(&mut self, nodes: usize, slot: u64, multiplex: u32) {
        self.slot = slot;
        self.duty = (slot % u64::from(multiplex)) as usize;
        self.ledgers.resize(nodes, EnergyLedger::open(Energy::ZERO));
        self.forward_bytes.clear();
        self.route_acc.clear();
        self.offload.clear();
        self.pkg_scratch.clear();
    }
}
