//! Shared per-slot state the phase functions operate on.
//!
//! A [`SlotCtx`] is a reusable scratch struct owned by the simulator:
//! it is [`reset`](SlotCtx::reset) at the top of every slot and
//! threaded through the six phases in order. It owns the per-slot
//! state that is *not* per-node-columnar (conservation ledgers,
//! per-position forwarding duty, the balance phase's summaries and
//! chain snapshot, package scratch); the per-node hot state — budgets, wake flags,
//! income powers — lives in the
//! [`NodeColumns`](super::columns::NodeColumns) arrays, whose wake
//! flags [`begin_slot`](super::columns::NodeColumns::begin_slot)
//! clears alongside this context. Both clear and refill in place, so
//! after the first slot the steady-state loop performs no heap
//! allocation here.
//!
//! It also defines [`Package`], the 16-byte entry of every node's
//! package buffer, the staleness rule of §5.1 ([`STALE_AFTER`]), the
//! buffer sizes ([`MAX_PENDING`], [`QUEUE_RESERVE`]) and the functions
//! that add packages to a buffer, move them within it or remove them
//! from it.
//!
//! # One buffer per node
//!
//! A node keeps its packages in one `Vec<Package>`, as the paper's node
//! keeps them in one nonvolatile buffer from capture through fog
//! processing to transmission (Figure 2(b), §5.1). The buffer is split
//! at the node's `fifo_depth` column: the first `fifo_depth` packages
//! are the pending FIFO (awaiting fog processing, oldest first) and the
//! rest are the outbox (ready to ship, in arrival order). The split is
//! the depth itself, so no mirror can fall out of step with the queue.
//!
//! | operation | function | buffer |
//! |---|---|---|
//! | capture (fog) | [`push_pending`] | inserted at the split |
//! | capture (no fog) | [`push_outbox`] | appended |
//! | fog task finished | [`finish_head`] | head moved to the back |
//! | stale sweep | [`take_stale`] | gap closed; shipped to the back or dropped |
//! | balance rebuild | [`replace_pending`] | prefix replaced, outbox kept |
//! | transmit | [`sort_outbox`], [`drain_sent`] | suffix partitioned, then its head drained |
//! | power-down | [`clear_queue`] | emptied |
//!
//! Each buffer is reserved to [`QUEUE_RESERVE`] packages. Over 1,500
//! slots at seeds 1 and 97, no node held more than 14 packages at once
//! under the Distributed balancer (FIOS at multiplex 1–5 and NOS-NVP,
//! in all four scenarios; at most 12 in the classes the paper's
//! figures run), and none of `wide_chain`'s 10⁵ more than 8, so those
//! runs never regrow a buffer. The Tree balancer piles up to 1,289
//! packages on one node, and that buffer grows to hold them.

use super::ledger::EnergyLedger;
use crate::balance::{ChainBalanceInput, NodeSummary, OffloadDecision};
use neofog_types::Energy;
use serde::{Deserialize, Serialize};

/// Admission limit of a node's own captures (packages): a node whose
/// fog backlog holds this many sheds each new sample it captures. It
/// does not bound the backlog itself — a balancer may hand a node more
/// packages than this (the tree balancer piles hundreds on one node).
pub(crate) const MAX_PENDING: usize = 8;

/// Initial capacity of each node's package buffer, reserved by
/// `NodeColumns::new` (see the module docs for the measured headroom).
/// Admission keeps a node's own captures below [`MAX_PENDING`], and the
/// outbox tracks the FIFO closely (inflow is one capture per wake plus
/// what fog processing releases), so 2× is enough that steady-state
/// slots of the balancer-off and Algorithm 1 runs never regrow a
/// buffer. At 16 bytes per [`Package`] the buffer is 256 bytes.
pub(crate) const QUEUE_RESERVE: usize = 2 * MAX_PENDING;

/// Slots a package may wait in the pending FIFO without fog progress
/// before it is stale: "the sampled data are discarded" (§5.1), or
/// shipped raw when the node has energy to spare.
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

// Every package added to a node's buffer, moved within it or removed
// from it goes through the functions below. They keep the split (the
// `fifo_depth` column) and the staleness horizon (a lower bound on the
// first slot at which a pending package without fog progress turns
// stale): adding a package lowers the horizon, removing packages
// leaves it (the exact value can only rise), and a stale take or a
// replacement recomputes it. Fog progress, which compute makes in
// place on the head package, only removes a stale candidate too, so
// it needs no function.

/// The pending FIFO of a buffer split at `depth`.
pub(crate) fn pending(queue: &[Package], depth: u32) -> &[Package] {
    queue.get(..depth as usize).unwrap_or_default()
}

/// The outbox of a buffer split at `depth`.
pub(crate) fn outbox(queue: &[Package], depth: u32) -> &[Package] {
    queue.get(depth as usize..).unwrap_or_default()
}

/// Admits a capture to the back of the pending FIFO, ahead of the
/// outbox: the split moves up by one and the horizon falls to the slot
/// at which the capture turns stale, if that is lower.
pub(crate) fn push_pending(
    queue: &mut Vec<Package>,
    depth: &mut u32,
    horizon: &mut u32,
    pkg: Package,
) {
    queue.insert(*depth as usize, pkg);
    *depth += 1;
    *horizon = (*horizon).min(pkg.horizon());
}

/// Appends a package to the back of the outbox (the capture of a node
/// that does no fog processing).
pub(crate) fn push_outbox(queue: &mut Vec<Package>, pkg: Package) {
    queue.push(pkg);
}

/// Moves the head of a non-empty pending FIFO (its fog task finished)
/// to the back of the outbox. The split moves down by one; the horizon
/// stays a lower bound.
pub(crate) fn finish_head(queue: &mut [Package], depth: &mut u32) {
    debug_assert!(*depth > 0, "finish_head on an empty FIFO");
    queue.rotate_left(1);
    *depth -= 1;
}

/// Takes the packages that are stale at `slot` out of the pending
/// FIFO, closing the gap they leave, and either ships them (appends
/// them to the outbox, in FIFO order) or drops them. The split moves
/// down by their number and the horizon becomes exact. Returns how
/// many were stale; `scratch` holds them on the way.
pub(crate) fn take_stale(
    queue: &mut Vec<Package>,
    depth: &mut u32,
    horizon: &mut u32,
    slot: u64,
    fog_len: u32,
    ship: bool,
    scratch: &mut Vec<Package>,
) -> usize {
    scratch.clear();
    let mut seen = 0;
    let fifo = *depth;
    queue.retain(|p| {
        let in_fifo = seen < fifo;
        seen += 1;
        let stale = in_fifo && p.is_stale(slot, fog_len);
        if stale {
            scratch.push(*p);
        }
        !stale
    });
    *depth -= scratch.len() as u32;
    *horizon = exact_horizon(pending(queue, *depth), fog_len);
    if ship {
        queue.extend_from_slice(scratch);
    }
    scratch.len()
}

/// Replaces the pending FIFO with `fifo` (the balance rebuild), keeping
/// the outbox behind it. The split becomes the new FIFO's length and
/// the horizon becomes exact.
pub(crate) fn replace_pending(
    queue: &mut Vec<Package>,
    depth: &mut u32,
    horizon: &mut u32,
    fog_len: u32,
    fifo: impl ExactSizeIterator<Item = Package>,
) {
    let new_depth = fifo.len() as u32;
    queue.splice(..*depth as usize, fifo);
    *depth = new_depth;
    *horizon = exact_horizon(pending(queue, *depth), fog_len);
}

/// Puts the outbox in sending order, processed packages first (smaller
/// and more valuable), each group keeping its order: a stable two-pass
/// partition through `scratch`, in place.
pub(crate) fn sort_outbox(queue: &mut [Package], depth: u32, scratch: &mut Vec<Package>) {
    let Some(outbox) = queue.get_mut(depth as usize..) else {
        return;
    };
    scratch.clear();
    scratch.extend(outbox.iter().filter(|p| p.fog_done));
    scratch.extend(outbox.iter().filter(|p| !p.fog_done));
    outbox.copy_from_slice(scratch);
}

/// Removes the first `sent` packages of the outbox (those a radio
/// session sent).
pub(crate) fn drain_sent(queue: &mut Vec<Package>, depth: u32, sent: usize) {
    let start = depth as usize;
    queue.drain(start..start + sent);
}

/// Empties the buffer (a volatile node's power-down) and returns how
/// many packages it held. The split drops to zero; the horizon bounds
/// an empty FIFO whatever its value.
pub(crate) fn clear_queue(queue: &mut Vec<Package>, depth: &mut u32) -> usize {
    let lost = queue.len();
    queue.clear();
    *depth = 0;
    lost
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
    /// Balance-phase scratch: each position's scalars, filled every
    /// round before any FIFO is copied, from which the balancer decides
    /// whether the round can move a task.
    pub(crate) summaries: Vec<NodeSummary>,
    /// Balance-phase scratch: copies of the representatives' pending
    /// FIFOs in position order. Snapshot task tags index it.
    pub(crate) rep_packages: Vec<Package>,
    /// General package scratch (transmit ordering, stale shedding);
    /// every user clears it before use.
    pub(crate) pkg_scratch: Vec<Package>,
}

impl SlotCtx {
    /// A scratch context whose per-position vectors are pre-sized for
    /// `n_pos` chain positions, so even the first slots only fill —
    /// never grow — them. The package scratch holds part of one node's
    /// buffer at a time and is reserved to [`QUEUE_RESERVE`], a buffer's
    /// own reserve: the transmit partition sizes it only to the outboxes
    /// of the warm-up slots (one package, nearly always), and a stale
    /// visit, which can shed a whole pending FIFO, may first come later.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Instructions of a fresh capture in the drawn sequences.
    const FOG_LEN: u32 = 1_000;

    /// The two queues one buffer replaced, kept as its reference: each
    /// operation as the phases performed it on a separate pending `Vec`
    /// and outbox `Vec`.
    #[derive(Default)]
    struct TwoQueues {
        pending: Vec<Package>,
        outbox: Vec<Package>,
    }

    impl TwoQueues {
        fn finish_head(&mut self) {
            let head = self.pending.remove(0);
            self.outbox.push(head);
        }

        fn take_stale(&mut self, slot: u64, ship: bool) -> usize {
            let mut stale = Vec::new();
            self.pending.retain(|p| {
                let is_stale = p.is_stale(slot, FOG_LEN);
                if is_stale {
                    stale.push(*p);
                }
                !is_stale
            });
            if ship {
                self.outbox.extend_from_slice(&stale);
            }
            stale.len()
        }

        fn sort_outbox(&mut self) {
            // A stable sort: each group keeps its order.
            self.outbox.sort_by_key(|p| !p.fog_done);
        }
    }

    /// One node's buffer with its split and horizon.
    struct Buffer {
        queue: Vec<Package>,
        depth: u32,
        horizon: u32,
    }

    /// A capture at `slot` from node `origin`, with no fog progress.
    fn capture(origin: u32, slot: u64) -> Package {
        Package {
            origin,
            created: slot as u32,
            fog_remaining: FOG_LEN,
            fog_done: false,
        }
    }

    /// A new FIFO drawn from `old`: each package kept when its bit of
    /// `keep` is set, the kept ones reversed when `keep` is odd, then
    /// `fresh % 4` packages handed over from other nodes, the last of
    /// them part-processed.
    fn rebalanced(old: &[Package], keep: u32, fresh: u32, slot: u64) -> Vec<Package> {
        let mut fifo: Vec<Package> = old
            .iter()
            .enumerate()
            .filter(|&(k, _)| keep.rotate_right(k as u32) & 2 != 0)
            .map(|(_, p)| *p)
            .collect();
        if keep % 2 == 1 {
            fifo.reverse();
        }
        let handed = fresh % 4;
        for k in 0..handed {
            let mut pkg = capture(
                1_000 + fresh % 97 + k,
                slot.saturating_sub(u64::from(k * 7)),
            );
            if k + 1 == handed {
                pkg.fog_remaining = FOG_LEN / 2;
            }
            fifo.push(pkg);
        }
        fifo
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Random sequences of every buffer operation leave the prefix
        /// and the suffix equal to the two reference queues, package
        /// for package, and the horizon a lower bound on the exact one
        /// (exact after a stale take or a replacement).
        #[test]
        fn one_buffer_matches_two_queues(
            ops in prop::collection::vec((0usize..10, any::<u32>(), any::<u32>()), 0..300),
        ) {
            let mut model = TwoQueues::default();
            let mut buf = Buffer {
                queue: Vec::with_capacity(QUEUE_RESERVE),
                depth: 0,
                horizon: u32::MAX,
            };
            let mut scratch = Vec::new();
            let mut slot = 0u64;
            for &(op, a, b) in &ops {
                let mut exact = false;
                match op {
                    // A fog capture, inserted at the split.
                    0 => {
                        let pkg = capture(a % 64, slot);
                        push_pending(&mut buf.queue, &mut buf.depth, &mut buf.horizon, pkg);
                        model.pending.push(pkg);
                    }
                    // A capture that skips fog processing.
                    1 => {
                        let pkg = capture(a % 64, slot);
                        push_outbox(&mut buf.queue, pkg);
                        model.outbox.push(pkg);
                    }
                    // Fog progress on the head; a head that finishes
                    // moves to the back.
                    2 => {
                        let Some(head) = model.pending.first_mut() else {
                            continue;
                        };
                        let run = 1 + a % head.fog_remaining;
                        head.fog_remaining -= run;
                        head.fog_done = head.fog_remaining == 0;
                        let done = head.fog_done;
                        buf.queue[0] = *head;
                        if done {
                            finish_head(&mut buf.queue, &mut buf.depth);
                            model.finish_head();
                        }
                    }
                    // The stale sweep, shipping or dropping.
                    3 => {
                        let ship = b % 2 == 0;
                        let taken = take_stale(
                            &mut buf.queue,
                            &mut buf.depth,
                            &mut buf.horizon,
                            slot,
                            FOG_LEN,
                            ship,
                            &mut scratch,
                        );
                        prop_assert_eq!(taken, model.take_stale(slot, ship));
                        exact = true;
                    }
                    // A balance replacement: a changed FIFO, or the
                    // same one handed back.
                    4 | 5 => {
                        let fifo = if op == 4 {
                            rebalanced(&model.pending, a, b, slot)
                        } else {
                            model.pending.clone()
                        };
                        replace_pending(
                            &mut buf.queue,
                            &mut buf.depth,
                            &mut buf.horizon,
                            FOG_LEN,
                            fifo.iter().copied(),
                        );
                        model.pending = fifo;
                        exact = true;
                    }
                    // Transmit: the processed-first partition, then a
                    // session that sends part of the outbox.
                    6 => {
                        sort_outbox(&mut buf.queue, buf.depth, &mut scratch);
                        model.sort_outbox();
                        prop_assert_eq!(outbox(&buf.queue, buf.depth), &model.outbox[..]);
                        let sent = a as usize % (model.outbox.len() + 1);
                        drain_sent(&mut buf.queue, buf.depth, sent);
                        model.outbox.drain(..sent);
                    }
                    // A volatile node's power-down.
                    7 => {
                        let lost = clear_queue(&mut buf.queue, &mut buf.depth);
                        prop_assert_eq!(lost, model.pending.len() + model.outbox.len());
                        model.pending.clear();
                        model.outbox.clear();
                    }
                    // Time passes, so captures turn stale.
                    _ => slot += 1 + u64::from(a % 8),
                }
                prop_assert_eq!(pending(&buf.queue, buf.depth), &model.pending[..]);
                prop_assert_eq!(outbox(&buf.queue, buf.depth), &model.outbox[..]);
                let truth = exact_horizon(&model.pending, FOG_LEN);
                prop_assert!(buf.horizon <= truth, "horizon {} above {truth}", buf.horizon);
                if exact {
                    prop_assert_eq!(buf.horizon, truth);
                }
            }
        }
    }
}
