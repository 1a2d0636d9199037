//! Phase 3 — balance: redistribute fog tasks among the awake
//! representatives of each chain position.
//!
//! The configured intra-chain balancer sees one representative per
//! logical position (the awake clone, if any — NVD4Q multiplexing
//! wakes only the on-duty clone of each position) with its
//! Spendthrift state, and reassigns the pending fog tasks.
//!
//! Every round first summarizes each position: its spare energy, the
//! instructions that energy affords, and its queued instructions and
//! tasks ([`NodeSummary`]). The same pass writes each position's
//! snapshot state apart from its tasks, so nothing is computed twice.
//! When the balancer's [`idle_report`](crate::balance::LoadBalancer::idle_report)
//! says from the summaries that no task can move, the round reports
//! and ends: no FIFO is copied, the balancer is not called, nothing is
//! rebuilt and nothing is charged. Most rounds of Algorithm 1 end
//! there.
//!
//! Otherwise the representatives' pending FIFOs are copied into the
//! snapshot. The chain snapshot, the representative list, the
//! summaries and the FIFO copy are [`SlotCtx`] scratch, cleared and
//! refilled every round; idle rounds reserve them too, so a busy round
//! never grows them later than it would have. A task's tag indexes the
//! package copy. After the balancer returns, only the representatives'
//! FIFOs are rebuilt, with their depths and exact staleness horizons,
//! and each outbox stays behind its FIFO. A representative the balancer
//! handed back exactly its own FIFO, tag for tag, keeps its buffer
//! untouched, as sleeping clones do: they were never offered to the
//! balancer. Transfer traffic is charged to the representatives, which
//! are exactly the awake nodes.

use super::columns;
use super::ctx::{pending, replace_pending, SlotCtx};
use super::event::{RadioPurpose, SimEvent};
use super::{BalancerKind, Simulator};
use crate::balance::{
    affordable_instructions, BalanceReport, FogTask, NodeBalanceState, NodeSummary, RouteContext,
};
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

/// The event that reports a round.
fn migrated(report: BalanceReport) -> SimEvent {
    SimEvent::TasksMigrated {
        interrupted: report.interrupted_regions,
        moved: report.tasks_moved,
        hops: report.transfer_hops,
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
        summaries,
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
    // capacity carries over from the previous round.
    chain.nodes.resize_with(reps.len(), || vacant(Vec::new()));
    summaries.clear();
    let radio = parts.cfg.node.radio;
    let tx_reserve = radio.session_cost(parts.rf)
        + radio.packet_cost(parts.rf, parts.cfg.node.package.processed_bytes) * 2.0;
    let tiers = parts.route.tier_slice();
    // Room for every representative's whole buffer in the FIFO copy.
    let mut room = 0;
    for ((state, rep), &tier) in chain.nodes.iter_mut().zip(reps.iter()).zip(tiers) {
        let mut tasks = std::mem::take(&mut state.tasks);
        tasks.clear();
        let Some(i) = *rep else {
            summaries.push(NodeSummary {
                capacity: tasks.capacity(),
                ..NodeSummary::default()
            });
            *state = vacant(tasks);
            continue;
        };
        let queue = &cols.cold[i].queue;
        let pending = pending(queue, cols.fifo_depth[i]);
        // Likewise the position's task list: room for the buffer whose
        // FIFO it copies, so both grow only when a buffer does.
        tasks.reserve(queue.capacity());
        room += queue.capacity();
        let level = parts.spendthrift.choose(cols.income_power[i]);
        let efficiency = level.efficiency();
        let spare =
            columns::budget_available(cols.direct_left[i], cols.discharge_eff, cols.stored[i])
                .saturating_sub(tx_reserve);
        summaries.push(NodeSummary {
            alive: true,
            spare_energy: spare,
            affordable: affordable_instructions(spare, efficiency),
            queued: pending.iter().map(|p| u64::from(p.fog_remaining)).sum(),
            tasks: pending.len(),
            capacity: tasks.capacity(),
        });
        *state = NodeBalanceState {
            node: NodeId::new(i as u32),
            spare_energy: spare,
            efficiency,
            // Tier capability scales execution speed (×1.0 exact on
            // all-sensor chains).
            throughput: level.throughput() * NodeCapabilities::for_tier(tier).compute_rate,
            tasks,
            alive: true,
        };
    }
    rep_packages.clear();
    rep_packages.reserve(room);
    if let Some(report) = parts.balancer.idle_report(summaries) {
        // No task can move: nothing to copy, rebuild or charge.
        bus.emit(&migrated(report));
        return;
    }
    for (state, rep) in chain.nodes.iter_mut().zip(reps.iter()) {
        let Some(i) = *rep else { continue };
        let pending = pending(&cols.cold[i].queue, cols.fifo_depth[i]);
        let first = rep_packages.len();
        state.tasks.extend(
            pending
                .iter()
                .enumerate()
                .map(|(k, p)| FogTask::new(u64::from(p.fog_remaining), (first + k) as u64)),
        );
        rep_packages.extend_from_slice(pending);
    }
    let route = RouteContext {
        hops_to_sink: parts.route.hops_slice(),
        next_hop: parts.route.next_hop_slice(),
        tier: tiers,
        raw_bytes: parts.cfg.node.package.raw_bytes,
    };
    offload.clear();
    let report = parts.balancer.balance_routed(chain, &route, offload);
    bus.emit(&migrated(report));
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

    // Apply the assignment: rebuild each representative's FIFO, in
    // position order, from its post-balance task tags. Its own packages
    // were copied to `rep_packages[first .. first + depth]`.
    // Fits: `Simulator::new` bounds it by `u32::MAX`.
    let fog_len = parts.cfg.node.package.fog_instructions as u32;
    let mut first = 0;
    for (state, rep) in chain.nodes.iter().zip(reps.iter()) {
        let Some(dest) = *rep else { continue };
        let own = first..first + cols.fifo_depth[dest] as usize;
        first = own.end;
        let unchanged = state.tasks.len() == own.len()
            && state.tasks.iter().zip(own).all(|(t, k)| t.tag == k as u64);
        if unchanged {
            continue;
        }
        replace_pending(
            &mut cols.cold[dest].queue,
            &mut cols.fifo_depth[dest],
            &mut cols.stale_horizon[dest],
            fog_len,
            state.tasks.iter().map(|t| rep_packages[t.tag as usize]),
        );
    }

    // Charge transfer costs: each hop moves one raw package, and every
    // awake node pays an equal share. Wake lets only the on-duty clone
    // wake, so the awake nodes are exactly the representatives, listed
    // in node-index order. The share is charged whether or not the
    // spend lands in full — the airtime happened either way. An empty
    // share books nothing.
    let participants = reps.iter().flatten().count();
    if report.transfer_hops > 0 && participants > 0 {
        let package = parts.cfg.node.package.raw_bytes;
        let per_hop = parts.cfg.node.radio.packet_cost(parts.rf, package)
            + parts.cfg.system.rx_cost(parts.rf, package);
        let share = per_hop * report.transfer_hops as f64 / participants as f64;
        if share != Energy::ZERO {
            for &i in reps.iter().flatten() {
                columns::spend_budget(
                    &mut cols.direct_left[i],
                    cols.direct_eff,
                    cols.discharge_eff,
                    &mut cols.stored[i],
                    &mut ledgers[i],
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
