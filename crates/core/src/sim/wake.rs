//! Phase 2 — wake/capture: on-duty nodes pay the activation threshold
//! and capture one data package.
//!
//! NVD4Q puts clone `k` of every position on duty in the slots
//! `≡ k (mod M)` (§3.3, Algorithm 2), and node `i` is clone `i % M`.
//! An on-duty node with a synchronized RTC wakes only if its budget
//! covers the system's activation threshold; one that cannot afford it
//! is a *failure* (energy depletion). Awake nodes capture one package
//! (rain can spoil the sample); fog-capable nodes enqueue its
//! processing task behind a bounded NV admission buffer, others ship it
//! raw.
//!
//! The sweep counts the clone index beside its zip (no division per
//! node), so a node that stays asleep costs it at most one column load,
//! the RTC sync bit, and nothing from its cold row. The admission check
//! reads the FIFO-depth column, not the queue itself. An admitted capture lowers
//! the node's staleness horizon to the slot at which the new package
//! turns stale.

use super::columns::{self, NodeColumns};
use super::ctx::{push_pending, Package, SlotCtx, MAX_PENDING};
use super::event::{ShedReason, SimEvent};
use super::Simulator;
use neofog_energy::Scenario;

pub(super) fn run(sim: &mut Simulator, ctx: &mut SlotCtx) {
    let (parts, mut bus) = sim.split();
    let system = parts.cfg.system;
    // Heavy rain degrades the sensing itself ("total successful
    // sampling under the reduced power conditions reduces to 8000",
    // §5.3): only that fraction of wakes yields a usable sample.
    let sampling_success = if parts.cfg.scenario == Scenario::MountainRainy {
        0.55
    } else {
        1.0
    };
    let fog_capable = system.is_fog_capable();
    // Fits: `Simulator::new` bounds it, the node count and the slot
    // count by `u32::MAX`.
    let fog_instructions = parts.cfg.node.package.fog_instructions as u32;
    let direct_eff = parts.nodes.direct_eff;
    let discharge_eff = parts.nodes.discharge_eff;
    let multiplex = parts.cfg.multiplex as usize;
    let duty = ctx.duty;
    let NodeColumns {
        stored,
        synced,
        fifo_depth,
        stale_horizon,
        direct_left,
        awake,
        cold,
        ..
    } = &mut *parts.nodes;
    // Node `i`'s clone index, `i % multiplex`, counted beside the zip.
    let mut clone = 0;
    for (
        i,
        (((((((synced, stored), direct_left), awake), fifo_depth), stale_horizon), cold), ledger),
    ) in synced
        .iter()
        .zip(stored.iter_mut())
        .zip(direct_left.iter_mut())
        .zip(awake.iter_mut())
        .zip(fifo_depth.iter_mut())
        .zip(stale_horizon.iter_mut())
        .zip(cold.iter_mut())
        .zip(ctx.ledgers.iter_mut())
        .enumerate()
    {
        let on_duty = clone == duty;
        clone += 1;
        if clone == multiplex {
            clone = 0;
        }
        if !(on_duty && *synced) {
            continue;
        }
        if columns::budget_available(*direct_left, discharge_eff, *stored)
            >= system.wake_threshold()
        {
            columns::spend_budget(
                direct_left,
                direct_eff,
                discharge_eff,
                stored,
                ledger,
                system.wake_cost(),
            );
            *awake = true;
            bus.emit(&SimEvent::NodeWoke { node: i });
            // Capture one package (rain can spoil the sample). The
            // draw is made even at odds of 1.0, so every node's RNG
            // stream advances once per wake in every scenario.
            if !cold.rng.chance(sampling_success) {
                continue;
            }
            bus.emit(&SimEvent::PackageCaptured { node: i });
            let pkg = Package {
                origin: i as u32,
                created: ctx.slot as u32,
                fog_remaining: fog_instructions,
                fog_done: false,
            };
            if fog_capable {
                // Admission control: the NV buffer holds a bounded
                // backlog; beyond it new samples are discarded ("if
                // the node lacks energy to process ... the sampled
                // data are discarded").
                if (*fifo_depth as usize) < MAX_PENDING {
                    push_pending(&mut cold.pending, fifo_depth, stale_horizon, pkg);
                } else {
                    bus.emit(&SimEvent::PackageShed {
                        node: i,
                        count: 1,
                        reason: ShedReason::BufferFull,
                    });
                }
            } else {
                cold.outbox.push(pkg);
            }
        } else {
            bus.emit(&SimEvent::WakeFailed { node: i });
        }
    }
}
