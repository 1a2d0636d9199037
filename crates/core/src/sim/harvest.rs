//! Phase 1 — harvest: book each node's slot income into its slot
//! energy budget.
//!
//! Per node: the ambient income is one read from the income table
//! `NodeColumns::new` folded from the node's power trace, scaled by the
//! harvester front-end; the RTC capacitor charges first (charging
//! priority) and, if it lost synchronization, attempts a stored-energy
//! resync; what remains fills the `direct_left` budget column — FIOS
//! nodes get a 90 %-efficient direct pool plus the capacitor, NOS
//! nodes only the capacitor round-trip.
//!
//! The sweep zips exactly the columns it writes (capacitor level, RTC
//! level and sync bit, direct pool, income power, the slot's ledgers)
//! with the slot's row of the slot-major income table: a dense slice,
//! in node order, that
//! [`IncomeTable::slot`](super::columns::IncomeTable::slot) hands it,
//! so harvest never learns the table's layout. It opens each node's
//! ledger against the stored level entering the slot before booking
//! anything. The harvester efficiency is a constant, the direct-channel
//! efficiency comes from the run's `NodeConfig`, and the capacitor and
//! RTC designs are stored once per run, so the sweep never touches a
//! cold row.

use super::columns::NodeColumns;
use super::ctx::SlotCtx;
use super::event::SimEvent;
use super::ledger::EnergyLedger;
use super::Simulator;
use neofog_energy::SuperCap;
use neofog_types::{Energy, Power};

/// Harvester conversion efficiency applied to the ambient trace.
const HARVESTER_EFFICIENCY: f64 = 0.85;

pub(super) fn run(sim: &mut Simulator, ctx: &mut SlotCtx) {
    let (parts, mut bus) = sim.split();
    let slot_len = parts.cfg.slot_len;
    let fe = parts.cfg.node.front_end;
    let has_direct = fe.has_direct_channel();
    let NodeColumns {
        stored,
        rtc_stored,
        synced,
        direct_left,
        income_power,
        income,
        cap,
        rtc,
        ..
    } = &mut *parts.nodes;
    let ambients = income.slot(ctx.slot);
    // The zip stops at its shortest input, so these make it rewrite
    // every node's income power and open every node's ledger.
    debug_assert_eq!(ambients.len(), income_power.len());
    debug_assert_eq!(ctx.ledgers.len(), income_power.len());
    for (i, ((((((ambient, stored), rtc_stored), synced), direct_left), income_power), ledger)) in
        ambients
            .iter()
            .zip(stored.iter_mut())
            .zip(rtc_stored.iter_mut())
            .zip(synced.iter_mut())
            .zip(direct_left.iter_mut())
            .zip(income_power.iter_mut())
            .zip(ctx.ledgers.iter_mut())
            .enumerate()
    {
        *ledger = EnergyLedger::open(*stored);
        let mut income = *ambient * HARVESTER_EFFICIENCY;
        ledger.credit_harvest(income);
        *income_power =
            Power::from_milliwatts(income.as_nanojoules() / slot_len.as_micros() as f64);
        // RTC priority charging (takes only what it needs; the RTC
        // is a terminal load, so its intake books as consumed).
        let past_rtc = rtc.tick(rtc_stored, synced, income, slot_len);
        ledger.debit_consumed(income.saturating_sub(past_rtc));
        income = past_rtc;
        if !*synced {
            // Attempt a resynchronization with stored energy. Any
            // draw the RTC cannot bank has left the capacitor for
            // good and books as lost.
            let drawn = SuperCap::discharge_up_to(stored, Energy::from_millijoules(1.0));
            let spare = rtc.charge_with_priority(rtc_stored, drawn);
            ledger.debit_consumed(drawn.saturating_sub(spare));
            ledger.debit_loss(spare);
            rtc.resynchronize(rtc_stored, synced, Energy::from_millijoules(0.5));
        }

        if has_direct {
            *direct_left = income * fe.direct_efficiency();
        } else {
            // NOS: income goes through the capacitor first; the
            // charge path's conversion loss plus any overflow a
            // full capacitor rejects both book as lost. The direct
            // pool column stays at the zero the last slot end left.
            let receipt = cap.charge(stored, income);
            ledger.debit_loss(income.saturating_sub(receipt.banked));
            bus.emit(&SimEvent::CapacitorOverflow {
                node: i,
                rejected: receipt.rejected,
            });
        }
        bus.emit(&SimEvent::HarvestBooked { node: i, income });
    }
}
