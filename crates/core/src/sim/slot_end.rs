//! Phase 6 — slot end: bank leftovers, leak capacitors, settle
//! ledgers.
//!
//! Unspent direct income charges the capacitor (overflow is rejected),
//! capacitors self-discharge, volatile nodes lose their queues at
//! power-down, and each node's conservation ledger settles in place:
//! [`EnergyLedger::settle`](super::ledger::EnergyLedger::settle)
//! asserts the slot balanced and emits nothing.
//!
//! The sweep zips the capacitor-level, direct-pool and FIFO-depth
//! columns against the cold rows; the capacitor's `charge` and `leak`
//! return the level deltas the ledger books.

use super::columns::{self, NodeColumns};
use super::ctx::{clear_pending, SlotCtx};
use super::event::{ShedReason, SimEvent};
use super::Simulator;
use neofog_types::Energy;

pub(super) fn run(sim: &mut Simulator, ctx: &mut SlotCtx) {
    let (parts, mut bus) = sim.split();
    let system = parts.cfg.system;
    let slot_len = parts.cfg.slot_len;
    let slot = ctx.slot;
    let retains_state = system.retains_state();
    let direct_eff = parts.nodes.direct_eff;
    let NodeColumns {
        stored,
        fifo_depth,
        direct_left,
        cold,
        cap,
        ..
    } = &mut *parts.nodes;
    for (i, ((((stored, direct_left), fifo_depth), cold), ledger)) in stored
        .iter_mut()
        .zip(direct_left.iter_mut())
        .zip(fifo_depth.iter_mut())
        .zip(cold.iter_mut())
        .zip(ctx.ledgers.iter_mut())
        .enumerate()
    {
        // Unspent direct income charges the capacitor.
        let leftover = columns::leftover_income(direct_left, direct_eff);
        if leftover > Energy::ZERO {
            let receipt = cap.charge(stored, leftover);
            ledger.debit_loss(leftover.saturating_sub(receipt.banked));
            bus.emit(&SimEvent::CapacitorOverflow {
                node: i,
                rejected: receipt.rejected,
            });
        }
        let leaked = cap.leak(stored, slot_len);
        ledger.debit_leak(leaked);
        if !retains_state {
            // Volatile node: queues evaporate at power-down.
            let lost = (cold.pending.len() + cold.outbox.len()) as u64;
            if lost > 0 {
                bus.emit(&SimEvent::PackageShed {
                    node: i,
                    count: lost,
                    reason: ShedReason::Volatile,
                });
            }
            clear_pending(&mut cold.pending, fifo_depth);
            cold.outbox.clear();
        }
        bus.emit(&SimEvent::CapacitorLeaked {
            node: i,
            leaked,
            stored: *stored,
        });
        ledger.settle(i, slot, *stored);
    }
}
