//! The offload balancer: compute-here vs. ship-to-neighbour vs.
//! ship-to-cloud, priced by the radio front-end.
//!
//! The chain balancers (tree, distributed) shift tasks between
//! adjacent chain neighbours; this balancer instead walks the route
//! plan of an arbitrary topology and answers the Kryszkiewicz et al.
//! question (arXiv:2104.12913) for every overloaded node: is it
//! cheaper to burn the deficit's compute energy locally over future
//! slots, to ship the raw data one hop to the next relay, or to ship
//! it all the way to the sink? Shipping is priced by the front-end
//! model on the capability row of each node's tier
//! ([`NodeCapabilities::for_tier`]) — transmit power over the
//! rate-dependent transfer time plus idle power over the link
//! latency — and remote computation on a
//! mains-powered tier (gateway, cloud) costs the harvesting fleet
//! nothing.
//!
//! Tasks only ever move to *alive* balance states (positions with an
//! awake representative): the simulator rebuilds the pending FIFOs
//! from the post-balance task lists, so a task parked on a dead state
//! would silently lose its package.

use super::{BalanceReport, ChainBalanceInput, LoadBalancer, RouteContext};
use crate::node::NodeCapabilities;
use neofog_net::NO_HOP;
use neofog_types::Energy;
use serde::{Deserialize, Serialize};

/// Where an offload decision sends a node's surplus tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OffloadTarget {
    /// Keep the tasks; local compute (over future slots) is cheapest.
    Local,
    /// Ship raw data one hop to the next relay toward the sink.
    Neighbor,
    /// Ship raw data the whole route to the sink position.
    Cloud,
}

impl OffloadTarget {
    /// Stable lowercase label used in the JSONL event log.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OffloadTarget::Local => "local",
            OffloadTarget::Neighbor => "neighbor",
            OffloadTarget::Cloud => "cloud",
        }
    }
}

/// One resolved offload choice, reported back to the simulator so it
/// can emit a typed event against the deciding node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadDecision {
    /// Logical position that had the deficit.
    pub position: usize,
    /// Where its surplus tasks went.
    pub target: OffloadTarget,
    /// Tasks moved (0 for a [`OffloadTarget::Local`] decision).
    pub tasks: u64,
    /// Radio front-end energy the shipping is estimated to cost.
    pub ship_energy: Energy,
}

/// The topology-aware offload balancer (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct OffloadBalancer;

impl OffloadBalancer {
    /// Creates the balancer.
    #[must_use]
    pub fn new() -> Self {
        OffloadBalancer
    }
}

/// Estimated front-end energy to ship one raw package from `pos` to
/// `target`, `hops` hops away, using the shipping node's own uplink
/// for every hop (a deliberate simplification: relay uplinks along the
/// route are at least as fast in every built-in capability table).
#[expect(
    clippy::indexing_slicing,
    reason = "`pos` is a route-plan position, and every route table has one row per position"
)]
fn ship_cost(route: &RouteContext<'_>, pos: usize, hops: u32) -> Energy {
    NodeCapabilities::for_tier(route.tier[pos]).ship_energy(route.raw_bytes) * f64::from(hops)
}

/// Remote-compute energy for `instructions` on the state at `target`:
/// free on mains-powered tiers, the state's own efficiency otherwise.
#[expect(
    clippy::indexing_slicing,
    reason = "`target` is the sink or a route-plan next hop, so it indexes both tables"
)]
fn remote_compute(
    chain: &ChainBalanceInput,
    route: &RouteContext<'_>,
    target: usize,
    instructions: u64,
) -> Energy {
    if route.tier[target].is_mains_powered() {
        Energy::ZERO
    } else {
        let eff = chain.nodes[target].efficiency.max(f64::MIN_POSITIVE);
        Energy::from_nanojoules(instructions as f64 / eff)
    }
}

impl LoadBalancer for OffloadBalancer {
    fn name(&self) -> &'static str {
        "offload"
    }

    /// Without a route plan there is nothing to price against: the
    /// plain chain entry point is a no-op. The simulator always calls
    /// [`LoadBalancer::balance_routed`].
    fn balance(&mut self, _chain: &mut ChainBalanceInput) -> BalanceReport {
        BalanceReport::default()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the chain and the route tables are sized to the position count the loop walks"
    )]
    fn balance_routed(
        &mut self,
        chain: &mut ChainBalanceInput,
        route: &RouteContext<'_>,
        decisions: &mut Vec<OffloadDecision>,
    ) -> BalanceReport {
        let mut report = BalanceReport::default();
        let n = chain.nodes.len();
        for pos in 0..n {
            if !chain.nodes[pos].alive || chain.nodes[pos].tasks.is_empty() {
                continue;
            }
            let surplus = chain.nodes[pos].surplus();
            if surplus >= 0 {
                continue;
            }
            let deficit = surplus.unsigned_abs();
            let own_eff = chain.nodes[pos].efficiency.max(f64::MIN_POSITIVE);
            let local = Energy::from_nanojoules(deficit as f64 / own_eff);
            // Candidate sink route: every topology puts the sink at
            // position 0; only worth considering when it is alive and
            // not this node itself.
            let sink_hops = route.hops_to_sink[pos];
            let cloud = (pos != 0 && chain.nodes[0].alive).then(|| {
                ship_cost(route, pos, sink_hops) + remote_compute(chain, route, 0, deficit)
            });
            // Candidate next relay (distinct from the sink route when
            // more than one hop out).
            let nh = route.next_hop[pos];
            let neighbor = (nh != NO_HOP && nh != 0)
                .then_some(nh as usize)
                .filter(|&t| chain.nodes[t].alive)
                .map(|t| {
                    (
                        t,
                        ship_cost(route, pos, 1) + remote_compute(chain, route, t, deficit),
                    )
                });
            // Cheapest beneficial target, ties to the fewer-hop option.
            let mut target = OffloadTarget::Local;
            let mut best = local;
            let mut dest = pos;
            let mut dest_hops = 0u32;
            if let Some((t, cost)) = neighbor {
                if cost < best {
                    (target, best, dest, dest_hops) = (OffloadTarget::Neighbor, cost, t, 1);
                }
            }
            if let Some(cost) = cloud {
                if cost < best {
                    (target, dest, dest_hops) = (OffloadTarget::Cloud, 0, sink_hops);
                }
            }
            let mut moved = 0u64;
            let mut moved_inst = 0u64;
            let mut ship_energy = Energy::ZERO;
            if target != OffloadTarget::Local {
                let per_task = ship_cost(route, pos, dest_hops);
                let mains_dest = route.tier[dest].is_mains_powered();
                // Move whole tasks off the back of the queue until the
                // node is back within its affordable budget (or a
                // battery-powered destination runs out of surplus).
                while chain.nodes[pos].surplus() < 0 {
                    if !mains_dest {
                        let room = chain.nodes[dest].surplus();
                        let next_inst = match chain.nodes[pos].tasks.last() {
                            Some(t) => t.instructions,
                            None => break,
                        };
                        if room < next_inst as i64 {
                            break;
                        }
                    }
                    let Some(task) = chain.nodes[pos].tasks.pop() else {
                        break;
                    };
                    moved += 1;
                    moved_inst += task.instructions;
                    ship_energy += per_task;
                    chain.nodes[dest].tasks.push(task);
                }
                report.tasks_moved += moved;
                report.instructions_moved += moved_inst;
                report.transfer_hops += moved * u64::from(dest_hops);
                if moved == 0 {
                    // Beneficial on paper but the destination had no
                    // room: record the hold as a local decision.
                    target = OffloadTarget::Local;
                }
            }
            decisions.push(OffloadDecision {
                position: pos,
                target,
                tasks: moved,
                ship_energy,
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::test_util::chain;
    use neofog_net::{NodeTier, TopologySpec};

    fn route_over<'a>(
        plan_hops: &'a [u32],
        plan_next: &'a [u32],
        tier: &'a [NodeTier],
    ) -> RouteContext<'a> {
        RouteContext {
            hops_to_sink: plan_hops,
            next_hop: plan_next,
            tier,
            raw_bytes: 64,
        }
    }

    /// A 4-node chain where node 3 is starved and node 0 (the sink,
    /// mains-powered gateway here) is rich: the whole backlog should
    /// ship to the sink, because remote compute there is free.
    #[test]
    fn starved_node_ships_to_mains_sink() {
        let mut input = chain(&[50.0, 10.0, 10.0, 0.1], &[0, 0, 0, 4], 1_000_000);
        let plan = TopologySpec::Chain.build(4).expect("chain");
        let tier = [
            NodeTier::Gateway,
            NodeTier::Sensor,
            NodeTier::Sensor,
            NodeTier::Sensor,
        ];
        let route = route_over(plan.hops_slice(), plan.next_hop_slice(), &tier);
        let mut decisions = Vec::new();
        let report = OffloadBalancer.balance_routed(&mut input, &route, &mut decisions);
        assert!(report.tasks_moved > 0, "nothing moved");
        assert_eq!(report.transfer_hops, report.tasks_moved * 3);
        let d = decisions
            .iter()
            .find(|d| d.position == 3)
            .expect("node 3 decided");
        assert_eq!(d.target, OffloadTarget::Cloud);
        assert!(d.ship_energy > Energy::ZERO);
        assert_eq!(input.nodes[0].tasks.len(), report.tasks_moved as usize);
    }

    /// When every node is a battery sensor and the backlog's compute
    /// energy dwarfs shipping, tasks flow to a neighbour with surplus.
    #[test]
    fn neighbor_with_surplus_absorbs_tasks() {
        // Node 2 starved, node 1 (its next hop) rich and at a far more
        // efficient operating point; sink dead so the cloud route is
        // unavailable. With uniform efficiency shipping between
        // sensors is never beneficial — the gain must pay the radio.
        let mut input = chain(&[0.0, 80.0, 0.05], &[0, 0, 3], 2_000_000);
        input.nodes[1].efficiency *= 4.0;
        let plan = TopologySpec::Chain.build(3).expect("chain");
        let tier = [NodeTier::Sensor; 3];
        let route = route_over(plan.hops_slice(), plan.next_hop_slice(), &tier);
        let mut decisions = Vec::new();
        let report = OffloadBalancer.balance_routed(&mut input, &route, &mut decisions);
        assert!(report.tasks_moved > 0);
        let d = decisions.iter().find(|d| d.position == 2).expect("decided");
        assert_eq!(d.target, OffloadTarget::Neighbor);
        assert_eq!(
            input.nodes[1].tasks.len(),
            report.tasks_moved as usize,
            "tasks landed on the neighbour"
        );
    }

    /// A node that can afford its queue makes no decision at all, and
    /// the plain chain entry point is a no-op.
    #[test]
    fn content_nodes_are_left_alone() {
        let mut input = chain(&[50.0, 50.0], &[1, 1], 1_000);
        let plan = TopologySpec::Chain.build(2).expect("chain");
        let tier = [NodeTier::Sensor; 2];
        let route = route_over(plan.hops_slice(), plan.next_hop_slice(), &tier);
        let mut decisions = Vec::new();
        let report = OffloadBalancer.balance_routed(&mut input, &route, &mut decisions);
        assert_eq!(report, BalanceReport::default());
        assert!(decisions.is_empty());
        let plain = OffloadBalancer.balance(&mut input);
        assert_eq!(plain, BalanceReport::default());
    }

    /// Tasks never move to a dead state — the simulator would lose
    /// their packages when rebuilding the queues.
    #[test]
    fn dead_targets_are_never_shipped_to() {
        // Sink and neighbour both dead: the starved node must hold.
        let mut input = chain(&[0.0, 0.0, 0.05], &[0, 0, 4], 2_000_000);
        let plan = TopologySpec::Chain.build(3).expect("chain");
        let tier = [NodeTier::Gateway, NodeTier::Sensor, NodeTier::Sensor];
        let route = route_over(plan.hops_slice(), plan.next_hop_slice(), &tier);
        let mut decisions = Vec::new();
        let report = OffloadBalancer.balance_routed(&mut input, &route, &mut decisions);
        assert_eq!(report.tasks_moved, 0);
        assert_eq!(input.nodes[2].tasks.len(), 4);
        let d = decisions.iter().find(|d| d.position == 2).expect("decided");
        assert_eq!(d.target, OffloadTarget::Local);
    }
}
