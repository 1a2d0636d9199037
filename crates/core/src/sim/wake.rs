//! Phase 2 — wake/capture: scheduled nodes pay the activation
//! threshold and capture one data package.
//!
//! A node scheduled this slot (its clone phase) wakes only if its
//! budget covers the system's activation threshold; a scheduled node
//! that cannot afford it is a *failure* (energy depletion). Awake
//! nodes capture one package (rain can spoil the sample); fog-capable
//! nodes enqueue its processing task behind a bounded NV admission
//! buffer, others ship it raw.
//!
//! The admission check reads the FIFO-depth column, not the queue
//! itself, so a node that stays asleep costs this sweep two column
//! loads (schedule, RTC sync bit) and nothing from its cold row. An
//! admitted capture lowers the node's staleness horizon to the slot at
//! which the new package turns stale.

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
    let NodeColumns {
        cap,
        rtc,
        schedule,
        fifo_depth,
        stale_horizon,
        direct_left,
        awake,
        cold,
        ..
    } = &mut *parts.nodes;
    for (
        i,
        (
            (((((((schedule, rtc), cap), direct_left), awake), fifo_depth), stale_horizon), cold),
            ledger,
        ),
    ) in schedule
        .iter()
        .zip(rtc.iter())
        .zip(cap.iter_mut())
        .zip(direct_left.iter_mut())
        .zip(awake.iter_mut())
        .zip(fifo_depth.iter_mut())
        .zip(stale_horizon.iter_mut())
        .zip(cold.iter_mut())
        .zip(ctx.ledgers.iter_mut())
        .enumerate()
    {
        let scheduled = schedule.wakes_at(ctx.slot) && rtc.is_synchronized();
        if !scheduled {
            continue;
        }
        if columns::budget_available(*direct_left, discharge_eff, cap) >= system.wake_threshold() {
            columns::spend_budget(
                direct_left,
                direct_eff,
                discharge_eff,
                cap,
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
