//! Intra-chain load balancing (paper §3.2).
//!
//! Three strategies, matching Figure 6 and the evaluation's three
//! systems:
//!
//! * [`NoBalancer`] — every node keeps its own tasks (NOS-VP).
//! * [`TreeBalancer`] — the "baseline up-down multi-level tree" scheme:
//!   a coordinator node per region redistributes evenly, but if the
//!   coordinator is low on energy the whole region goes unbalanced
//!   (Figure 6(c): "left 12 tasks are all missed").
//! * [`DistributedBalancer`] — the paper's bottom-up pairwise scheme:
//!   each overloaded node shares state with its immediate chain
//!   neighbours and calls Algorithm 1 ([`dp::partition_tasks`]) to
//!   split surplus tasks left/right by *time on the most efficient
//!   side*, with a second round when a target is over-assigned.

pub mod distributed;
pub mod dp;
pub mod none;
pub mod offload;
pub mod tree;

pub use distributed::DistributedBalancer;
pub use dp::{partition_tasks, Assignment, Side};
pub use none::NoBalancer;
pub use offload::{OffloadBalancer, OffloadDecision, OffloadTarget};
pub use tree::TreeBalancer;

use neofog_net::NodeTier;
use neofog_types::{Energy, NodeId};
use serde::{Deserialize, Serialize};

/// One task queued for in-fog execution.
///
/// The `tag` travels with the task so the simulator can keep the task
/// paired with the data package it processes when balancers move it
/// between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FogTask {
    /// Remaining NVP instructions.
    pub instructions: u64,
    /// Opaque owner-assigned identity (package index).
    pub tag: u64,
}

impl FogTask {
    /// Creates a task.
    #[must_use]
    pub fn new(instructions: u64, tag: u64) -> Self {
        FogTask { instructions, tag }
    }
}

/// What one node shares with its neighbours before balancing: "the
/// available energy as well as NVP configuration (frequency and
/// resource state for the Spendthrift policy) are shared with other
/// nearby nodes in the local network chain".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeBalanceState {
    /// Which node this is.
    pub node: NodeId,
    /// Energy available for fog tasks beyond the node's own needs.
    pub spare_energy: Energy,
    /// Computational efficiency: instructions per nanojoule at the
    /// node's current Spendthrift operating point.
    pub efficiency: f64,
    /// Execution speed: instructions per second at the current
    /// operating point (determines *time*, the quantity Algorithm 1
    /// minimizes).
    pub throughput: f64,
    /// Fog tasks currently queued on this node.
    pub tasks: Vec<FogTask>,
    /// `false` when the node cannot participate this round (red).
    pub alive: bool,
}

/// Instructions `spare` energy affords at `efficiency` instructions
/// per nanojoule: the one expression behind
/// [`NodeBalanceState::affordable_instructions`] and
/// [`NodeSummary::affordable`].
#[must_use]
pub fn affordable_instructions(spare: Energy, efficiency: f64) -> u64 {
    (spare.max_zero().as_nanojoules() * efficiency) as u64
}

impl NodeBalanceState {
    /// Instructions this node can afford with its spare energy.
    #[must_use]
    pub fn affordable_instructions(&self) -> u64 {
        affordable_instructions(self.spare_energy, self.efficiency)
    }

    /// Instructions currently queued.
    #[must_use]
    pub fn queued_instructions(&self) -> u64 {
        self.tasks.iter().map(|t| t.instructions).sum()
    }

    /// Surplus capacity (positive) or deficit (negative), in
    /// instructions.
    #[must_use]
    pub fn surplus(&self) -> i64 {
        self.affordable_instructions() as i64 - self.queued_instructions() as i64
    }
}

/// One position's state without its tasks: the scalars a balancer
/// reads to decide, before any task list is built, whether a round can
/// move anything ([`LoadBalancer::idle_report`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeSummary {
    /// `false` when the position cannot participate this round.
    pub alive: bool,
    /// Energy available for fog tasks beyond the node's own needs.
    pub spare_energy: Energy,
    /// Instructions the spare energy affords
    /// ([`affordable_instructions`] at the node's efficiency).
    pub affordable: u64,
    /// Instructions queued.
    pub queued: u64,
    /// Tasks queued.
    pub tasks: usize,
    /// Tasks the position's list holds without growing: a balancer
    /// sizes its working memory from it, as it does from a task list's
    /// capacity in [`LoadBalancer::balance`].
    pub capacity: usize,
}

impl NodeSummary {
    /// The summary of `node`.
    #[must_use]
    pub fn of(node: &NodeBalanceState) -> Self {
        NodeSummary {
            alive: node.alive,
            spare_energy: node.spare_energy,
            affordable: node.affordable_instructions(),
            queued: node.queued_instructions(),
            tasks: node.tasks.len(),
            capacity: node.tasks.capacity(),
        }
    }

    /// Surplus capacity (positive) or deficit (negative), in
    /// instructions: [`NodeBalanceState::surplus`] of the summarized
    /// node.
    #[must_use]
    pub fn surplus(&self) -> i64 {
        self.affordable as i64 - self.queued as i64
    }
}

/// The chain snapshot a balancer operates on, in chain order
/// (sink end first).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChainBalanceInput {
    /// Per-node state in chain order.
    pub nodes: Vec<NodeBalanceState>,
}

/// What a balancing round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BalanceReport {
    /// Tasks moved between nodes.
    pub tasks_moved: u64,
    /// Instructions moved between nodes.
    pub instructions_moved: u64,
    /// Hop transmissions spent on state exchange and task transfer.
    pub transfer_hops: u64,
    /// Regions whose balancing was interrupted (coordinator death or
    /// mid-round power failure): "no load balance will take place at
    /// that region".
    pub interrupted_regions: u64,
}

/// The immutable routing context a topology-aware balancer prices
/// decisions against: per-position route-plan slices (indexed like
/// [`ChainBalanceInput::nodes`]) plus the package geometry. A
/// position's capabilities are its tier's fixed row,
/// [`NodeCapabilities::for_tier`](crate::node::NodeCapabilities::for_tier).
/// Built by the simulator's balance phase from its
/// [`RoutePlan`](neofog_net::RoutePlan) every round; balancers only
/// read it.
#[derive(Debug, Clone, Copy)]
pub struct RouteContext<'a> {
    /// Hop count from each position to the sink.
    pub hops_to_sink: &'a [u32],
    /// Next hop of each position ([`neofog_net::NO_HOP`] at the sink).
    pub next_hop: &'a [u32],
    /// Tier of each position.
    pub tier: &'a [NodeTier],
    /// Raw (unprocessed) package size — what an offloaded task ships.
    pub raw_bytes: u32,
}

/// A chain-level load-balancing strategy.
pub trait LoadBalancer: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Redistributes tasks in place and reports what moved.
    fn balance(&mut self, chain: &mut ChainBalanceInput) -> BalanceReport;

    /// Decides from each position's scalars, in chain order, whether
    /// a round can move anything. `Some(report)` means it cannot:
    /// [`LoadBalancer::balance`] and [`LoadBalancer::balance_routed`]
    /// would move no task, return `report` and leave every task list
    /// as it was, so the caller need not build the snapshot. `None`
    /// means "call the balancer"; it is always correct, and it is the
    /// default. A balancer that answers should also keep its working
    /// memory sized for these positions, so that skipping rounds never
    /// moves its first allocation later.
    fn idle_report(&mut self, nodes: &[NodeSummary]) -> Option<BalanceReport> {
        let _ = nodes;
        None
    }

    /// Topology-aware entry point: redistributes tasks with the route
    /// plan and each position's tier in view, appending any
    /// offload decisions taken. The default ignores the routing
    /// context and defers to [`LoadBalancer::balance`] — the chain
    /// balancers behave (and log) exactly as before — while
    /// [`OffloadBalancer`] overrides it with the front-end-priced
    /// compute-here / ship-to-neighbour / ship-to-cloud choice.
    fn balance_routed(
        &mut self,
        chain: &mut ChainBalanceInput,
        route: &RouteContext<'_>,
        decisions: &mut Vec<OffloadDecision>,
    ) -> BalanceReport {
        let _ = (route, decisions);
        self.balance(chain)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Builds a chain where node `i` has `energies[i]` spare mJ and
    /// `tasks[i]` queued tasks of `task_inst` instructions each, with
    /// uniform efficiency/throughput.
    pub fn chain(energies: &[f64], tasks: &[usize], task_inst: u64) -> ChainBalanceInput {
        assert_eq!(energies.len(), tasks.len());
        let nodes = energies
            .iter()
            .zip(tasks)
            .enumerate()
            .map(|(i, (&e, &t))| NodeBalanceState {
                node: NodeId::new(i as u32),
                spare_energy: Energy::from_millijoules(e),
                efficiency: 1.0 / 2.508,
                throughput: 1_000_000.0 / 12.0,
                tasks: (0..t).map(|k| FogTask::new(task_inst, k as u64)).collect(),
                alive: e > 0.0,
            })
            .collect();
        ChainBalanceInput { nodes }
    }

    /// Total instructions completable after balancing: each node
    /// executes min(queued, affordable).
    pub fn completable(chain: &ChainBalanceInput) -> u64 {
        chain
            .nodes
            .iter()
            .map(|n| n.queued_instructions().min(n.affordable_instructions()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surplus_math() {
        let n = NodeBalanceState {
            node: NodeId::new(0),
            spare_energy: Energy::from_nanojoules(2.508 * 100.0),
            efficiency: 1.0 / 2.508,
            throughput: 83_333.0,
            tasks: vec![FogTask::new(40, 0), FogTask::new(40, 1)],
            alive: true,
        };
        assert_eq!(n.affordable_instructions(), 100);
        assert_eq!(n.queued_instructions(), 80);
        assert_eq!(n.surplus(), 20);
    }

    #[test]
    fn deficit_is_negative() {
        let n = NodeBalanceState {
            node: NodeId::new(0),
            spare_energy: Energy::ZERO,
            efficiency: 1.0,
            throughput: 1.0,
            tasks: vec![FogTask::new(10, 0)],
            alive: true,
        };
        assert_eq!(n.surplus(), -10);
    }
}
