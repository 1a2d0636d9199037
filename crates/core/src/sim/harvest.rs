//! Phase 1 — harvest: integrate each node's income curve into its slot
//! energy budget.
//!
//! Per node: the ambient income is read off the node's prefix-summed
//! [`EnergyCurve`](neofog_energy::EnergyCurve) — two O(1) lookups
//! instead of a walk over every trace sample the slot covers — scaled
//! by the harvester front-end; the RTC capacitor charges first
//! (charging priority) and, if it lost synchronization, attempts a
//! stored-energy resync; what remains fills the `direct_left` budget
//! column — FIOS nodes get a 90 %-efficient direct pool plus the
//! capacitor, NOS nodes only the capacitor round-trip.
//!
//! The sweep zips exactly the columns it writes (capacitor, RTC,
//! direct pool, income power) against the cold rows it reads (curve,
//! config); the budget efficiencies are per-run scalars set when the
//! columns were scattered, so nothing is stored per node here.

use super::columns::NodeColumns;
use super::ctx::SlotCtx;
use super::event::SimEvent;
use super::Simulator;
use neofog_types::{Energy, Power};

pub(super) fn run(sim: &mut Simulator, ctx: &mut SlotCtx) {
    let (parts, mut bus) = sim.split();
    let slot_len = parts.cfg.slot_len;
    let fe = parts.cfg.node.front_end;
    let has_direct = fe.has_direct_channel();
    let NodeColumns {
        cap,
        rtc,
        direct_left,
        income_power,
        cold,
        ..
    } = &mut *parts.nodes;
    for (i, (((((cold, cap), rtc), direct_left), income_power), ledger)) in cold
        .iter_mut()
        .zip(cap.iter_mut())
        .zip(rtc.iter_mut())
        .zip(direct_left.iter_mut())
        .zip(income_power.iter_mut())
        .zip(ctx.ledgers.iter_mut())
        .enumerate()
    {
        let ambient = cold.curve.energy_between(ctx.t0, ctx.t1);
        let mut income = ambient * cold.cfg.harvester_efficiency;
        ledger.credit_harvest(income);
        *income_power =
            Power::from_milliwatts(income.as_nanojoules() / slot_len.as_micros() as f64);
        // RTC priority charging (takes only what it needs; the RTC
        // is a terminal load, so its intake books as consumed).
        let past_rtc = rtc.tick(income, slot_len);
        ledger.debit_consumed(income.saturating_sub(past_rtc));
        income = past_rtc;
        if !rtc.is_synchronized() {
            // Attempt a resynchronization with stored energy. Any
            // draw the RTC cannot bank has left the capacitor for
            // good and books as lost.
            let drawn = cap.discharge_up_to(Energy::from_millijoules(1.0));
            let spare = rtc.charge_with_priority(drawn);
            ledger.debit_consumed(drawn.saturating_sub(spare));
            ledger.debit_loss(spare);
            rtc.resynchronize(Energy::from_millijoules(0.5));
        }

        if has_direct {
            *direct_left = income * fe.direct_efficiency();
        } else {
            // NOS: income goes through the capacitor first; the
            // charge path's conversion loss plus any overflow a
            // full capacitor rejects both book as lost. The direct
            // pool column stays at the zero `begin_slot` gave it.
            let receipt = cap.charge_metered(income);
            ledger.debit_loss(income.saturating_sub(receipt.banked));
            bus.emit(&SimEvent::CapacitorOverflow {
                node: i,
                rejected: receipt.rejected,
            });
        }
        bus.emit(&SimEvent::HarvestBooked { node: i, income });
    }
}
