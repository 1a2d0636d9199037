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
//! visit. The stale sweep also skips a node while the slot is below
//! its staleness horizon (a second dense `u32`), so it visits a cold
//! row only when a package may have turned stale; the visit sheds what
//! is stale and recomputes the horizon exactly. Nodes that compute are
//! handled through a [`NodeView`] row lens; the budget spends use the
//! split-borrow free functions because the head package stays
//! borrowed across them.
//!
//! [`NodeView`]: super::columns::NodeView

use super::columns::{self, NodeColumns};
use super::ctx::{pop_pending_head, rewrite_pending, SlotCtx};
use super::event::{ShedReason, SimEvent};
use super::Simulator;
use crate::node::NodeCapabilities;
use neofog_types::Power;

#[expect(
    clippy::indexing_slicing,
    reason = "phase functions loop over per-node vectors all sized to the node count"
)]
pub(super) fn run(sim: &mut Simulator, ctx: &mut SlotCtx) {
    let fog_capable = sim.cfg.system.is_fog_capable();
    let (parts, mut bus) = sim.split();
    let slot_len = parts.cfg.slot_len;
    let node = &parts.cfg.node;

    if fog_capable {
        // Keep a transmit reserve so computing never starves shipping.
        let reserve = node.radio.session_cost(parts.rf)
            + node
                .radio
                .packet_cost(parts.rf, node.package.processed_bytes);
        // Node `i` implements position `i / multiplex`: repeat each
        // position's tier over its clones.
        let multiplex = parts.cfg.multiplex as usize;
        let node_tiers = parts
            .route
            .tier_slice()
            .iter()
            .flat_map(|&tier| std::iter::repeat_n(tier, multiplex));
        for (i, tier) in node_tiers.enumerate() {
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
            let compute_rate = NodeCapabilities::for_tier(tier).compute_rate;
            let (epi, throughput) = (lvl.energy_per_inst, lvl.throughput() * compute_rate);
            let mut time_left = (throughput * slot_len.as_secs_f64()) as u64;
            while time_left > 0 {
                let Some(pkg) = view.pending.first_mut() else {
                    break;
                };
                let energy_afford =
                    columns::budget_available(*view.direct_left, view.discharge_eff, *view.stored)
                        .saturating_sub(reserve)
                        .as_nanojoules()
                        / epi.as_nanojoules();
                let run = u64::from(pkg.fog_remaining)
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
                    &mut *view.stored,
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
                // `run` is at most `fog_remaining`, so it fits a `u32`.
                pkg.fog_remaining -= run as u32;
                time_left -= run;
                if pkg.fog_remaining == 0 {
                    pkg.fog_done = true;
                    let finished = pop_pending_head(view.pending, view.fifo_depth);
                    view.outbox.push(finished);
                    bus.emit(&SimEvent::FogCompleted { node: i });
                }
            }
        }
    }

    // Stale pending packages: a node flush with energy ships them
    // raw to the cloud; otherwise "the sampled data are discarded"
    // (§5.1). An empty FIFO has nothing to shed and emits nothing, and
    // neither does a node whose staleness horizon is still ahead: both
    // are skipped on their dense columns.
    let slot = ctx.slot;
    // Fits: `Simulator::new` bounds it by `u32::MAX`.
    let fog_len = node.package.fog_instructions as u32;
    let NodeColumns {
        stored,
        fifo_depth,
        stale_horizon,
        cold,
        cap,
        ..
    } = &mut *parts.nodes;
    for (i, (((stored, fifo_depth), horizon), cold)) in stored
        .iter()
        .zip(fifo_depth.iter_mut())
        .zip(stale_horizon.iter_mut())
        .zip(cold.iter_mut())
        .enumerate()
    {
        if *fifo_depth == 0 {
            continue;
        }
        if slot < u64::from(*horizon) {
            debug_assert!(
                !cold.pending.iter().any(|p| p.is_stale(slot, fog_len)),
                "node {i}: the stale sweep skipped a stale package at slot {slot} (horizon {horizon})"
            );
            continue;
        }
        debug_assert_eq!(
            *fifo_depth as usize,
            cold.pending.len(),
            "node {i}: FIFO depth mirror out of sync"
        );
        // Partition through the package scratch (retain keeps order,
        // like the drain/partition it replaces, without allocating).
        let stale = &mut ctx.pkg_scratch;
        stale.clear();
        rewrite_pending(&mut cold.pending, fifo_depth, horizon, fog_len, |pending| {
            pending.retain(|p| {
                let is_stale = p.is_stale(slot, fog_len);
                if is_stale {
                    stale.push(*p);
                }
                !is_stale
            });
        });
        if cap.fraction(*stored) > 0.6 {
            cold.outbox.extend_from_slice(stale);
        } else if !stale.is_empty() {
            bus.emit(&SimEvent::PackageShed {
                node: i,
                count: stale.len() as u64,
                reason: ShedReason::Stale,
            });
        }
    }
}
