//! Phase 4 — compute: execute fog tasks within each node's time and
//! energy budget.
//!
//! Spendthrift chooses the frequency level from the effective
//! sustainable power (income plus a damped stored-energy term); the
//! head-of-queue task runs until time, energy or the transmit reserve
//! runs out. Forward progress persists across slots on NVPs. At the
//! tail of the phase, stale pending packages are shed: a node flush
//! with energy ships them raw to the cloud, otherwise "the sampled
//! data are discarded" (§5.1).
//!
//! Both loops skip idle nodes on the FIFO-depth column alone — a node
//! with nothing pending costs one dense `u32` load, not a cold-row
//! visit. Nodes that do work are handled through a [`NodeView`]
//! row lens; the budget spends use the split-borrow free functions
//! because the head package stays borrowed across them.
//!
//! [`NodeView`]: super::columns::NodeView

use super::columns;
use super::ctx::SlotCtx;
use super::event::{ShedReason, SimEvent};
use super::Simulator;
use neofog_types::Power;

pub(super) fn run(sim: &mut Simulator, ctx: &mut SlotCtx) {
    let fog_capable = sim.cfg.system.is_fog_capable();
    let (parts, mut bus) = sim.split();
    let slot_len = parts.cfg.slot_len;

    if fog_capable {
        for i in 0..parts.nodes.len() {
            if parts.nodes.fifo_depth[i] == 0 {
                continue;
            }
            let view = parts.nodes.view(i);
            let ledger = &mut ctx.ledgers[i];
            // Spendthrift samples both income power and the stored-energy
            // level (§2.2/§4): the effective sustainable power this slot is
            // the income plus what the capacitor could contribute, so a
            // node that accumulated for several sleeping slots (NVD4Q
            // clones) boosts its frequency when it finally activates.
            // The capacitor term is damped: the store must last beyond this
            // one slot, so Spendthrift only banks half of it on the level
            // decision.
            let effective = view.income_power
                + Power::from_milliwatts(
                    0.5 * view.available().as_nanojoules() / slot_len.as_micros() as f64,
                );
            let lvl = parts.spendthrift.choose(effective);
            // The tier capability scales execution speed (gateways and
            // cloud nodes run faster silicon); sensors are 1.0, so the
            // chain goldens see an exact ×1.0 multiply.
            let (epi, throughput) = (
                lvl.energy_per_inst,
                parts.spendthrift.throughput(effective) * view.caps.compute_rate,
            );
            // Keep a transmit reserve so computing never starves shipping.
            let reserve = view.cfg.radio.session_cost(parts.rf)
                + view
                    .cfg
                    .radio
                    .packet_cost(parts.rf, view.cfg.package.processed_bytes);
            let mut time_left = (throughput * slot_len.as_secs_f64()) as u64;
            while time_left > 0 {
                let Some(pkg) = view.pending.first_mut() else {
                    break;
                };
                let energy_afford =
                    columns::budget_available(*view.direct_left, view.discharge_eff, view.cap)
                        .saturating_sub(reserve)
                        .as_nanojoules()
                        / epi.as_nanojoules();
                let run = pkg
                    .fog_remaining
                    .min(time_left)
                    .min(energy_afford.max(0.0) as u64);
                if run == 0 {
                    break;
                }
                let cost = epi * run as f64;
                if !columns::spend_budget(
                    &mut *view.direct_left,
                    view.direct_eff,
                    view.discharge_eff,
                    &mut *view.cap,
                    ledger,
                    cost,
                ) {
                    break;
                }
                bus.emit(&SimEvent::FogProgressed {
                    node: i,
                    instructions: run,
                    energy: cost,
                });
                pkg.fog_remaining -= run;
                time_left -= run;
                if pkg.fog_remaining == 0 {
                    pkg.fog_done = true;
                    let finished = view.pending.remove(0);
                    view.outbox.push(finished);
                    *view.fifo_depth -= 1;
                    bus.emit(&SimEvent::FogCompleted { node: i });
                }
            }
        }
    }

    // Stale pending packages: a node flush with energy ships them
    // raw to the cloud; otherwise "the sampled data are discarded"
    // (§5.1). An empty FIFO has nothing to shed and emits nothing —
    // the depth column skips the whole row.
    let stale_after = 20;
    let slot = ctx.slot;
    for i in 0..parts.nodes.len() {
        if parts.nodes.fifo_depth[i] == 0 {
            continue;
        }
        let view = parts.nodes.view(i);
        let fog_len = view.cfg.package.fog_instructions;
        // Packages with execution progress are never shed — killing
        // a half-finished head would waste the energy already sunk.
        // Partition through the package scratch (retain keeps order,
        // like the drain/partition it replaces, without allocating).
        let stale = &mut ctx.pkg_scratch;
        stale.clear();
        view.pending.retain(|p| {
            let is_stale =
                p.fog_remaining == fog_len && slot.saturating_sub(p.created) > stale_after;
            if is_stale {
                stale.push(*p);
            }
            !is_stale
        });
        *view.fifo_depth = view.pending.len() as u32;
        if view.cap.fraction() > 0.6 {
            view.outbox.extend_from_slice(stale);
        } else if !stale.is_empty() {
            bus.emit(&SimEvent::PackageShed {
                node: i,
                count: stale.len() as u64,
                reason: ShedReason::Stale,
            });
        }
    }
}
