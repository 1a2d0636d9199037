//! Phase 3 — balance: redistribute fog tasks among the awake
//! representatives of each chain position.
//!
//! The configured intra-chain balancer sees one representative per
//! logical position (the awake clone, if any — NVD4Q multiplexing
//! wakes only the on-duty clone of each position) with its
//! Spendthrift state, reassigns the pending fog tasks, and the
//! transfer traffic is charged to the awake nodes — via the
//! balance-credit column: the per-node share is marked on every awake
//! node, then a second sweep spends marked credits in index order,
//! without allocating a participant list.
//!
//! The chain snapshot, the representative list and a copy of the
//! representatives' packages are [`SlotCtx`] scratch, cleared and
//! refilled every slot. A task's tag indexes the package copy. After
//! the balancer returns, only the representatives' pending queues are
//! rebuilt, with their FIFO depths and exact staleness horizons:
//! sleeping clones were never offered to the balancer and keep theirs
//! untouched.

use super::columns::{self, NodeColumns};
use super::ctx::{rewrite_pending, SlotCtx};
use super::event::{RadioPurpose, SimEvent};
use super::{BalancerKind, Simulator};
use crate::balance::{FogTask, NodeBalanceState, RouteContext};
use crate::node::NodeCapabilities;
use neofog_types::{Energy, NodeId};

/// The state of a position with no awake representative: dead to the
/// balancer, with no tasks.
fn vacant(tasks: Vec<FogTask>) -> NodeBalanceState {
    NodeBalanceState {
        node: NodeId::new(u32::MAX),
        spare_energy: Energy::ZERO,
        efficiency: 0.0,
        throughput: 0.0,
        tasks,
        alive: false,
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "phase functions loop over per-node vectors all sized to the node count"
)]
pub(super) fn run(sim: &mut Simulator, ctx: &mut SlotCtx) {
    if !sim.cfg.system.is_fog_capable() || matches!(sim.cfg.balancer, BalancerKind::None) {
        return;
    }
    let (parts, mut bus) = sim.split();
    let cols = &mut *parts.nodes;
    let SlotCtx {
        duty,
        chain,
        reps,
        rep_packages,
        offload,
        ledgers,
        ..
    } = ctx;
    // One representative per position: the awake clone (if any).
    let multiplex = parts.cfg.multiplex as usize;
    reps.clear();
    reps.extend((0..parts.cfg.positions).map(|pos| cols.awake_clone(pos, multiplex, *duty)));
    // Rewrite every position's state in full; only the task vectors'
    // capacity carries over from the previous slot.
    chain.nodes.resize_with(reps.len(), || vacant(Vec::new()));
    // Room for every representative's whole queue, so the copy grows
    // only when a queue does.
    let room: usize = reps
        .iter()
        .flatten()
        .filter_map(|&i| cols.cold.get(i))
        .map(|c| c.pending.capacity())
        .sum();
    rep_packages.clear();
    rep_packages.reserve(room);
    let radio = parts.cfg.node.radio;
    let tx_reserve = radio.session_cost(parts.rf)
        + radio.packet_cost(parts.rf, parts.cfg.node.package.processed_bytes) * 2.0;
    let tiers = parts.route.tier_slice();
    for ((state, rep), &tier) in chain.nodes.iter_mut().zip(reps.iter()).zip(tiers) {
        let mut tasks = std::mem::take(&mut state.tasks);
        tasks.clear();
        let Some(i) = *rep else {
            *state = vacant(tasks);
            continue;
        };
        let pending = &cols.cold[i].pending;
        // Likewise the position's task list: room for the queue it
        // copies.
        tasks.reserve(pending.capacity());
        let level = parts.spendthrift.choose(cols.income_power[i]);
        let spare =
            columns::budget_available(cols.direct_left[i], cols.discharge_eff, cols.stored[i])
                .saturating_sub(tx_reserve);
        let first = rep_packages.len();
        tasks.extend(
            pending
                .iter()
                .enumerate()
                .map(|(k, p)| FogTask::new(u64::from(p.fog_remaining), (first + k) as u64)),
        );
        rep_packages.extend_from_slice(pending);
        *state = NodeBalanceState {
            node: NodeId::new(i as u32),
            spare_energy: spare,
            efficiency: level.efficiency(),
            // Tier capability scales execution speed (×1.0 exact on
            // all-sensor chains).
            throughput: level.throughput() * NodeCapabilities::for_tier(tier).compute_rate,
            tasks,
            alive: true,
        };
    }
    let route = RouteContext {
        hops_to_sink: parts.route.hops_slice(),
        next_hop: parts.route.next_hop_slice(),
        tier: tiers,
        raw_bytes: parts.cfg.node.package.raw_bytes,
    };
    offload.clear();
    let report = parts.balancer.balance_routed(chain, &route, offload);
    bus.emit(&SimEvent::TasksMigrated {
        interrupted: report.interrupted_regions,
        moved: report.tasks_moved,
        hops: report.transfer_hops,
    });
    // Offload decisions are per logical position; report them against
    // the position's awake representative (the node that held — and
    // paid to ship — the tasks).
    for d in offload.iter() {
        let Some(node) = reps.get(d.position).copied().flatten() else {
            continue;
        };
        bus.emit(&SimEvent::OffloadDecided {
            node,
            target: d.target,
            tasks: d.tasks,
            ship_energy: d.ship_energy,
        });
    }

    // Apply the assignment: rebuild each representative's pending
    // queue, in position order, from its post-balance task tags, and
    // mirror the new depth and staleness horizon.
    // Fits: `Simulator::new` bounds it by `u32::MAX`.
    let fog_len = parts.cfg.node.package.fog_instructions as u32;
    for (state, rep) in chain.nodes.iter().zip(reps.iter()) {
        let Some(dest) = *rep else { continue };
        rewrite_pending(
            &mut cols.cold[dest].pending,
            &mut cols.fifo_depth[dest],
            &mut cols.stale_horizon[dest],
            fog_len,
            |pending| {
                pending.clear();
                pending.extend(state.tasks.iter().map(|t| rep_packages[t.tag as usize]));
            },
        );
    }

    // Charge transfer costs: each hop moves one raw package.
    if report.transfer_hops > 0 {
        let per_hop = parts
            .cfg
            .node
            .radio
            .packet_cost(parts.rf, parts.cfg.node.package.raw_bytes)
            + parts
                .cfg
                .system
                .rx_cost(parts.rf, parts.cfg.node.package.raw_bytes);
        let direct_eff = cols.direct_eff;
        let discharge_eff = cols.discharge_eff;
        let NodeColumns {
            stored,
            direct_left,
            awake,
            balance_credit,
            ..
        } = cols;
        let participants = awake.iter().filter(|&&a| a).count();
        if participants > 0 {
            let share = per_hop * report.transfer_hops as f64 / participants as f64;
            // Mark the share on every awake node...
            for (credit, &awake) in balance_credit.iter_mut().zip(awake.iter()) {
                if awake {
                    *credit = share;
                }
            }
            // ...then spend marked credits in index order. The share
            // is charged whether or not the spend lands in full — the
            // airtime happened either way.
            for (i, (((credit, stored), direct_left), ledger)) in balance_credit
                .iter_mut()
                .zip(stored.iter_mut())
                .zip(direct_left.iter_mut())
                .zip(ledgers.iter_mut())
                .enumerate()
            {
                if *credit == Energy::ZERO {
                    continue;
                }
                let share = *credit;
                *credit = Energy::ZERO;
                columns::spend_budget(
                    direct_left,
                    direct_eff,
                    discharge_eff,
                    stored,
                    ledger,
                    share,
                );
                bus.emit(&SimEvent::RadioCharged {
                    node: i,
                    energy: share,
                    purpose: RadioPurpose::Balance,
                });
            }
        }
    }
}
