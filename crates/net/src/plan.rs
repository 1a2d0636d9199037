//! Pluggable topologies compiled into immutable route plans.
//!
//! The paper's world is a linear chain-mesh, and until PR 7 that
//! assumption was baked into the slot kernel itself (relay duty was a
//! reverse suffix-sum over chain positions). This module lifts the
//! topology into data: a [`TopologySpec`] names one of three shapes —
//! the paper's [`Chain`](TopologySpec::Chain), a seeded
//! [`ErdosRenyi`](TopologySpec::ErdosRenyi) random mesh with
//! connectivity repair, or a FogSim-NX-style
//! [`Tiered`](TopologySpec::Tiered) sensors → gateways → cloud layout —
//! and compiles it once into a [`RoutePlan`]: a next-hop table, hop
//! counts to the sink, a topological sweep order and a CSR-style
//! children adjacency. The slot loop only ever indexes these arrays;
//! it never searches the graph.
//!
//! Conventions shared by every shape:
//!
//! * **Position 0 is the sink** — the chain's sink edge, the mesh's
//!   gateway, the tiered layout's cloud. `next_hop[0]` is [`NO_HOP`].
//! * **Routes form an in-tree toward the sink**: every other node has
//!   exactly one next hop, chosen by breadth-first search with
//!   smallest-index tie-breaking, so plans are deterministic functions
//!   of the spec.
//! * On a chain the plan degenerates exactly to the paper's semantics:
//!   `next_hop[p] = p - 1` and `hops[p] = p`, bit-for-bit the indices
//!   the old suffix-sum relay fold used.

use neofog_types::{NeoFogError, Result, SimRng};
use serde::{Deserialize, Serialize};

/// Sentinel next-hop value of the sink (position 0): nowhere to go.
pub const NO_HOP: u32 = u32::MAX;

/// Which topology a simulation routes over.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// The paper's linear chain: position `p` relays through `p - 1`.
    #[default]
    Chain,
    /// A seeded Erdős-Rényi random mesh over all positions, with node 0
    /// as the gateway/sink. Sampling is O(positions²) pairs, so this is
    /// meant for meshes up to a few tens of thousands of nodes.
    /// Disconnected components are repaired deterministically (see
    /// [`erdos_renyi_edges`]).
    ErdosRenyi {
        /// Independent probability of each undirected edge.
        edge_prob: f64,
        /// Seed of the generator's private RNG stream (independent of
        /// the simulation seed, so the same graph can be reused across
        /// power-trace seeds).
        seed: u64,
    },
    /// Sensors → gateways → cloud: position 0 is the cloud, positions
    /// `1..=gateways` are gateways uplinked to it, and every remaining
    /// position is a sensor assigned round-robin to a gateway.
    Tiered {
        /// Number of gateway positions (≥ 1).
        gateways: usize,
    },
}

impl TopologySpec {
    /// `true` for the paper's chain (the shape all goldens pin).
    #[must_use]
    pub fn is_chain(&self) -> bool {
        matches!(self, TopologySpec::Chain)
    }

    /// Compiles the spec over `positions` nodes into a route plan.
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] when the spec cannot be
    /// realized: a non-finite or out-of-range edge probability, or a
    /// tiered layout without room for its tiers (`positions` must be at
    /// least `gateways + 2` so at least one sensor exists).
    pub fn build(&self, positions: usize) -> Result<RoutePlan> {
        match *self {
            TopologySpec::Chain => Ok(RoutePlan::chain(positions)),
            TopologySpec::ErdosRenyi { edge_prob, seed } => {
                if !(0.0..=1.0).contains(&edge_prob) {
                    return Err(NeoFogError::invalid_config(format!(
                        "Erdős-Rényi edge probability must be in [0, 1] (got {edge_prob})"
                    )));
                }
                let edges = erdos_renyi_edges(positions, edge_prob, seed);
                RoutePlan::from_edges(positions, &edges, |v| {
                    if v == 0 {
                        NodeTier::Gateway
                    } else {
                        NodeTier::Sensor
                    }
                })
            }
            TopologySpec::Tiered { gateways } => {
                if gateways == 0 {
                    return Err(NeoFogError::invalid_config(
                        "tiered topology needs at least one gateway".to_string(),
                    ));
                }
                if positions < gateways + 2 {
                    return Err(NeoFogError::invalid_config(format!(
                        "tiered topology with {gateways} gateway(s) needs at least \
                         {} positions (cloud + gateways + one sensor), got {positions}",
                        gateways + 2
                    )));
                }
                Ok(RoutePlan::tiered(positions, gateways))
            }
        }
    }
}

/// The tier a position plays in its topology. Chains are all-sensor;
/// meshes promote the sink to a gateway; tiered layouts add a cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeTier {
    /// An energy-harvesting sensing node.
    Sensor,
    /// A mains-assisted aggregation point.
    Gateway,
    /// The mains-powered cloud endpoint.
    Cloud,
}

impl NodeTier {
    /// `true` for tiers modelled as mains-powered (remote computation
    /// there costs the harvesting fleet nothing).
    #[must_use]
    pub fn is_mains_powered(self) -> bool {
        !matches!(self, NodeTier::Sensor)
    }

    /// Stable lowercase label for logs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NodeTier::Sensor => "sensor",
            NodeTier::Gateway => "gateway",
            NodeTier::Cloud => "cloud",
        }
    }
}

/// A compiled, immutable routing structure: everything the slot loop
/// needs to relay and price traffic without graph search.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Next hop toward the sink per position ([`NO_HOP`] at the sink).
    next_hop: Vec<u32>,
    /// Hop count to the sink per position (0 at the sink itself).
    hops: Vec<u32>,
    /// Positions in decreasing-hop order (ties by increasing index):
    /// processing in this order visits every node before its next hop,
    /// so one pass accumulates subtree traffic exactly.
    order: Vec<u32>,
    /// Tier per position.
    tier: Vec<NodeTier>,
    /// CSR row starts into [`RoutePlan::adj`]: children of position `p`
    /// (nodes whose next hop is `p`) are `adj[adj_start[p]..adj_start[p + 1]]`.
    adj_start: Vec<u32>,
    /// CSR child lists, ascending within each row.
    adj: Vec<u32>,
}

impl RoutePlan {
    /// The paper's chain over `n` positions: `next_hop[p] = p - 1`,
    /// `hops[p] = p`, every position a sensor.
    #[must_use]
    pub fn chain(n: usize) -> RoutePlan {
        let next_hop: Vec<u32> = (0..n)
            .map(|p| if p == 0 { NO_HOP } else { p as u32 - 1 })
            .collect();
        let hops: Vec<u32> = (0..n as u32).collect();
        RoutePlan::assemble(next_hop, hops, vec![NodeTier::Sensor; n])
    }

    /// The tiered layout: 0 = cloud, `1..=gateways` uplink to it, and
    /// sensors join gateways round-robin (sensor `k` → gateway
    /// `1 + k % gateways`), so the shape is a deterministic function of
    /// the position count alone.
    fn tiered(n: usize, gateways: usize) -> RoutePlan {
        let mut next_hop = Vec::with_capacity(n);
        let mut hops = Vec::with_capacity(n);
        let mut tier = Vec::with_capacity(n);
        for p in 0..n {
            if p == 0 {
                next_hop.push(NO_HOP);
                hops.push(0);
                tier.push(NodeTier::Cloud);
            } else if p <= gateways {
                next_hop.push(0);
                hops.push(1);
                tier.push(NodeTier::Gateway);
            } else {
                let sensor = p - gateways - 1;
                next_hop.push((1 + sensor % gateways) as u32);
                hops.push(2);
                tier.push(NodeTier::Sensor);
            }
        }
        RoutePlan::assemble(next_hop, hops, tier)
    }

    /// Compiles an undirected edge list into a plan by breadth-first
    /// search from position 0, with smallest-index tie-breaking (the
    /// parent of a node is its earliest-discovered minimal-hop
    /// neighbour of least index). `tier_of` assigns each position its
    /// tier.
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] when an edge endpoint is
    /// out of range or some node cannot reach the sink (the
    /// [`erdos_renyi_edges`] generator repairs connectivity before
    /// handing its edges here).
    #[expect(
        clippy::indexing_slicing,
        reason = "endpoints are checked against `n` before they index `neighbours`"
    )]
    pub fn from_edges(
        n: usize,
        edges: &[(u32, u32)],
        tier_of: impl Fn(usize) -> NodeTier,
    ) -> Result<RoutePlan> {
        let mut neighbours: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            let (a, b) = (a as usize, b as usize);
            if a >= n || b >= n || a == b {
                return Err(NeoFogError::invalid_config(format!(
                    "edge ({a}, {b}) is invalid for a {n}-position topology"
                )));
            }
            neighbours[a].push(b as u32);
            neighbours[b].push(a as u32);
        }
        for list in &mut neighbours {
            list.sort_unstable();
            list.dedup();
        }
        let (next_hop, hops) = bfs_tree(&neighbours);
        if let Some(orphan) = hops.iter().position(|&h| h == NO_HOP) {
            return Err(NeoFogError::invalid_config(format!(
                "position {orphan} cannot reach the sink; repair the edge list first"
            )));
        }
        let tier = (0..n).map(tier_of).collect();
        Ok(RoutePlan::assemble(next_hop, hops, tier))
    }

    /// Finishes a plan from its core tables: derives the sweep order
    /// and the CSR children adjacency.
    #[expect(
        clippy::indexing_slicing,
        reason = "every table has one row per position, and parents are positions"
    )]
    fn assemble(next_hop: Vec<u32>, hops: Vec<u32>, tier: Vec<NodeTier>) -> RoutePlan {
        let n = next_hop.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(hops[v as usize]), v));
        let mut counts = vec![0u32; n + 1];
        for &parent in &next_hop {
            if parent != NO_HOP {
                counts[parent as usize + 1] += 1;
            }
        }
        for p in 0..n {
            counts[p + 1] += counts[p];
        }
        let adj_start = counts;
        let mut adj = vec![0u32; adj_start[n] as usize];
        let mut cursor = adj_start.clone();
        // Children ascending within each row: child indices are visited
        // in increasing order here.
        for (child, &parent) in next_hop.iter().enumerate() {
            if parent != NO_HOP {
                let slot = cursor[parent as usize] as usize;
                adj[slot] = child as u32;
                cursor[parent as usize] += 1;
            }
        }
        RoutePlan {
            next_hop,
            hops,
            order,
            tier,
            adj_start,
            adj,
        }
    }

    /// Number of positions the plan routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.next_hop.len()
    }

    /// `true` for an empty plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next_hop.is_empty()
    }

    /// Next hop of position `v`, `None` at the sink.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "`v` is a position of this plan; out of range is a caller bug, as with a slice index"
    )]
    pub fn next_hop(&self, v: usize) -> Option<usize> {
        let hop = self.next_hop[v];
        (hop != NO_HOP).then_some(hop as usize)
    }

    /// The raw next-hop table ([`NO_HOP`] at the sink).
    #[must_use]
    pub fn next_hop_slice(&self) -> &[u32] {
        &self.next_hop
    }

    /// Hop count from position `v` to the sink.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "`v` is a position of this plan; out of range is a caller bug, as with a slice index"
    )]
    pub fn hops(&self, v: usize) -> u32 {
        self.hops[v]
    }

    /// The hop-count table.
    #[must_use]
    pub fn hops_slice(&self) -> &[u32] {
        &self.hops
    }

    /// Positions in decreasing-hop sweep order (see [`RoutePlan`]).
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Tier of position `v`.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "`v` is a position of this plan; out of range is a caller bug, as with a slice index"
    )]
    pub fn tier(&self, v: usize) -> NodeTier {
        self.tier[v]
    }

    /// The tier table.
    #[must_use]
    pub fn tier_slice(&self) -> &[NodeTier] {
        &self.tier
    }

    /// Children of position `v`: the positions that relay through it.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "`v` is a position of this plan; out of range is a caller bug, as with a slice index"
    )]
    pub fn children(&self, v: usize) -> &[u32] {
        &self.adj[self.adj_start[v] as usize..self.adj_start[v + 1] as usize]
    }

    /// Longest hop count in the plan (0 for a single node or empty).
    #[must_use]
    pub fn max_hops(&self) -> u32 {
        self.order.first().map_or(0, |&v| self.hops(v as usize))
    }
}

/// Samples the undirected edge set of a seeded Erdős-Rényi graph over
/// `n` nodes and repairs sink connectivity.
///
/// Every unordered pair `(i, j)` carries an edge independently with
/// probability `edge_prob`, drawn from a private xoshiro stream seeded
/// only by `seed` — the same `(n, edge_prob, seed)` always yields the
/// same edge list. After sampling, components unreachable from node 0
/// are reattached deterministically: the smallest-index orphan gains
/// one edge to a reachable node picked by the same stream, repeated
/// until the graph is sink-connected (at most `components − 1` extra
/// edges).
#[must_use]
#[expect(
    clippy::indexing_slicing,
    reason = "edges join positions below `n`, and node 0 is always reachable"
)]
pub fn erdos_renyi_edges(n: usize, edge_prob: f64, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SimRng::seed_from(seed ^ 0x0E06_E57A_70B0_0001);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(edge_prob) {
                edges.push((i as u32, j as u32));
            }
        }
    }
    if n == 0 {
        return edges;
    }
    // Connectivity repair: reattach orphan components one edge at a
    // time until BFS from node 0 covers everything.
    loop {
        let mut neighbours: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            neighbours[a as usize].push(b);
            neighbours[b as usize].push(a);
        }
        let (_, hops) = bfs_tree(&neighbours);
        let reachable: Vec<u32> = (0..n as u32)
            .filter(|&v| hops[v as usize] != NO_HOP)
            .collect();
        let Some(orphan) = hops.iter().position(|&h| h == NO_HOP) else {
            break;
        };
        let anchor = reachable[rng.index(reachable.len())];
        edges.push((anchor.min(orphan as u32), anchor.max(orphan as u32)));
    }
    edges
}

/// Breadth-first search from node 0 over sorted-or-not adjacency
/// lists; returns `(parent, hops)` with [`NO_HOP`] marking unreachable
/// nodes (and the root's parent). Tie-breaking is by discovery order:
/// lists are walked as given, so callers wanting smallest-index
/// parents sort their lists first.
#[expect(
    clippy::indexing_slicing,
    reason = "adjacency lists hold positions below `n`, the length of every table here"
)]
fn bfs_tree(neighbours: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let n = neighbours.len();
    let mut parent = vec![NO_HOP; n];
    let mut hops = vec![NO_HOP; n];
    if n == 0 {
        return (parent, hops);
    }
    let mut queue = std::collections::VecDeque::with_capacity(n);
    hops[0] = 0;
    queue.push_back(0u32);
    while let Some(v) = queue.pop_front() {
        for &w in &neighbours[v as usize] {
            if hops[w as usize] == NO_HOP {
                hops[w as usize] = hops[v as usize] + 1;
                parent[w as usize] = v;
                queue.push_back(w);
            }
        }
    }
    (parent, hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_plan_matches_paper_semantics() {
        let plan = TopologySpec::Chain.build(5).expect("chain builds");
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.next_hop_slice(), &[NO_HOP, 0, 1, 2, 3]);
        assert_eq!(plan.hops_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(plan.order(), &[4, 3, 2, 1, 0]);
        assert_eq!(plan.children(2), &[3]);
        assert_eq!(plan.children(4), &[] as &[u32]);
        assert_eq!(plan.max_hops(), 4);
        assert!(plan.tier_slice().iter().all(|&t| t == NodeTier::Sensor));
    }

    #[test]
    fn tiered_plan_places_cloud_gateways_sensors() {
        let plan = TopologySpec::Tiered { gateways: 2 }
            .build(7)
            .expect("builds");
        assert_eq!(plan.tier(0), NodeTier::Cloud);
        assert_eq!(plan.tier(1), NodeTier::Gateway);
        assert_eq!(plan.tier(2), NodeTier::Gateway);
        assert_eq!(plan.tier(3), NodeTier::Sensor);
        // Sensors round-robin over gateways 1 and 2.
        assert_eq!(plan.next_hop_slice(), &[NO_HOP, 0, 0, 1, 2, 1, 2]);
        assert_eq!(plan.hops_slice(), &[0, 1, 1, 2, 2, 2, 2]);
        // Sweep order: sensors (hops 2) first, ties ascending.
        assert_eq!(plan.order(), &[3, 4, 5, 6, 1, 2, 0]);
        assert_eq!(plan.children(1), &[3, 5]);
        assert_eq!(plan.children(0), &[1, 2]);
    }

    #[test]
    fn tiered_rejects_impossible_layouts() {
        assert!(TopologySpec::Tiered { gateways: 0 }.build(5).is_err());
        assert!(TopologySpec::Tiered { gateways: 4 }.build(5).is_err());
        assert!(TopologySpec::Tiered { gateways: 1 }.build(3).is_ok());
    }

    #[test]
    fn erdos_renyi_is_deterministic_and_connected() {
        let spec = TopologySpec::ErdosRenyi {
            edge_prob: 0.05,
            seed: 7,
        };
        let a = spec.build(40).expect("builds");
        let b = spec.build(40).expect("builds");
        assert_eq!(a, b);
        assert!(a.hops_slice().iter().all(|&h| h != NO_HOP));
        assert_eq!(a.tier(0), NodeTier::Gateway);
    }

    #[test]
    fn repair_reconnects_even_an_edgeless_graph() {
        let edges = erdos_renyi_edges(12, 0.0, 3);
        // Zero sampled edges: repair must add exactly n - 1.
        assert_eq!(edges.len(), 11);
        let plan = RoutePlan::from_edges(12, &edges, |_| NodeTier::Sensor).expect("connected");
        assert!(plan.hops_slice().iter().all(|&h| h != NO_HOP));
    }

    #[test]
    fn edge_prob_out_of_range_is_rejected() {
        for bad in [-0.1, 1.1, f64::NAN] {
            let spec = TopologySpec::ErdosRenyi {
                edge_prob: bad,
                seed: 1,
            };
            assert!(spec.build(4).is_err(), "edge_prob {bad} accepted");
        }
    }

    #[test]
    fn from_edges_rejects_bad_endpoints() {
        assert!(RoutePlan::from_edges(3, &[(0, 3)], |_| NodeTier::Sensor).is_err());
        assert!(RoutePlan::from_edges(3, &[(1, 1)], |_| NodeTier::Sensor).is_err());
        assert!(RoutePlan::from_edges(3, &[(0, 2)], |_| NodeTier::Sensor).is_err());
    }

    #[test]
    fn sweep_order_visits_children_before_parents() {
        let spec = TopologySpec::ErdosRenyi {
            edge_prob: 0.08,
            seed: 11,
        };
        let plan = spec.build(30).expect("builds");
        let mut seen = vec![false; plan.len()];
        for &v in plan.order() {
            let v = v as usize;
            seen[v] = true;
            if let Some(parent) = plan.next_hop(v) {
                assert!(!seen[parent], "parent {parent} swept before child {v}");
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn csr_children_agree_with_next_hops() {
        let plan = TopologySpec::ErdosRenyi {
            edge_prob: 0.1,
            seed: 5,
        }
        .build(25)
        .expect("builds");
        for p in 0..plan.len() {
            for &child in plan.children(p) {
                assert_eq!(plan.next_hop(child as usize), Some(p));
            }
        }
        let total: usize = (0..plan.len()).map(|p| plan.children(p).len()).sum();
        assert_eq!(total, plan.len() - 1, "in-tree has n - 1 edges");
    }
}
