//! The paper's distributed load balancer (§3.2, Algorithm 1).
//!
//! Bottom-up and pairwise: each node that cannot afford its queued fog
//! tasks shares state with its immediate chain neighbours, builds the
//! per-task time arrays `a` (left) and `b` (right), and calls the
//! Algorithm 1 dynamic program to ship surplus tasks to whichever side
//! finishes them soonest. Over-assigned receivers trigger "a second
//! call" that pushes overflow further outward (the paper's node 8 →
//! node 10 example), which we realize as repeated passes over the
//! chain. If a node cannot even afford the balancing exchange, no
//! balancing happens in its region this period — "this failure affects
//! performance, but not functionality".
//!
//! Whether a node can exchange is one test over per-node scalars
//! (alive, spare energy, affordable and queued instructions): a call
//! applies it at every node, and `idle_report` applies it to the whole
//! chain before any task list is built. When no node passes it, a
//! round moves nothing, and the simulator skips the call.

use super::dp::{partition_tasks_into, Assignment, Side};
use super::{BalanceReport, ChainBalanceInput, FogTask, LoadBalancer, NodeSummary};
use neofog_types::Energy;

/// Time quantum of the DP tables, in microseconds (0.1 s).
const TIME_UNIT_US: u64 = 100_000;

/// Outward-propagation passes (each pass is one "call" round).
const PASSES: usize = 3;

/// Most table cells the scratch reserves ahead of a call (512 KiB). A
/// paper run's table needs at most 121 × 17; the bound only keeps an
/// hours-long `MAXTIME` from reserving a table no call fills.
const TABLE_RESERVE_MAX: usize = 1 << 16;

/// Working memory of one node's exchange, kept across calls. Sized to
/// the chain's largest queue: a node's surplus never holds more tasks
/// than its queue has room for, and Algorithm 1's table never more
/// than `(MAXTIME + 1)` cells per task plus one column.
#[derive(Debug, Clone)]
struct ExchangeScratch {
    /// The tasks peeled off the overloaded node.
    surplus: Vec<FogTask>,
    /// Time of each surplus task on the left neighbour.
    a: Vec<u64>,
    /// Time of each surplus task on the right neighbour.
    b: Vec<u64>,
    /// Algorithm 1's table.
    table: Vec<u64>,
    /// Algorithm 1's output.
    assignment: Assignment,
}

impl ExchangeScratch {
    /// Empties the scratch and sizes it for a chain whose largest task
    /// list holds `room` tasks, so it grows on the first call and then
    /// only when one of the chain's queues does.
    fn size_for(&mut self, room: usize, max_time_units: u64) {
        let cells = usize::try_from(max_time_units)
            .unwrap_or(usize::MAX)
            .saturating_add(1)
            .saturating_mul(room + 1)
            .min(TABLE_RESERVE_MAX);
        let ExchangeScratch {
            surplus,
            a,
            b,
            table,
            assignment,
        } = self;
        surplus.clear();
        surplus.reserve(room);
        a.clear();
        a.reserve(room);
        b.clear();
        b.reserve(room);
        assignment.sides.clear();
        assignment.sides.reserve(room);
        table.clear();
        table.reserve(cells);
    }
}

/// The NEOFog distributed balancer.
#[derive(Debug, Clone)]
pub struct DistributedBalancer {
    /// The load-balance call interval (`MAXTIME`), in time units.
    max_time_units: u64,
    /// Energy a node must hold to participate in the exchange.
    exchange_cost: Energy,
    /// Each position's scalars during a call: summed once from the
    /// chain, then refreshed for the three positions of each exchange.
    nodes: Vec<NodeSummary>,
    scratch: ExchangeScratch,
}

/// The largest task list the summarized positions hold without growing.
fn largest_list(nodes: &[NodeSummary]) -> usize {
    nodes.iter().map(|n| n.capacity).max().unwrap_or(0)
}

/// Whether a position can take part in an exchange: it is alive and
/// holds the energy the exchange costs.
fn ready(node: &NodeSummary, cost: Energy) -> bool {
    node.alive && node.spare_energy >= cost
}

/// Whether an alive node holds tasks but is too weak to run the
/// exchange: its region goes unbalanced this period.
fn interrupted(node: &NodeSummary, cost: Energy) -> bool {
    node.alive && node.spare_energy < cost && node.tasks > 0
}

/// Whether the node at `idx` can exchange: it is ready, it cannot
/// afford its own queue, and a chain neighbour is ready and can afford
/// more than its own queue. Every other node keeps its tasks, so when
/// no node of the chain can exchange, a round moves nothing.
fn can_exchange(nodes: &[NodeSummary], idx: usize, cost: Energy) -> bool {
    let has_room = |j: Option<usize>| {
        j.and_then(|j| nodes.get(j))
            .is_some_and(|n| ready(n, cost) && n.affordable > n.queued)
    };
    nodes
        .get(idx)
        .is_some_and(|n| ready(n, cost) && n.surplus() < 0)
        && (has_room(idx.checked_sub(1)) || has_room(idx.checked_add(1)))
}

impl DistributedBalancer {
    /// Creates the balancer with a `MAXTIME` equal to the given call
    /// interval in seconds.
    #[must_use]
    pub fn new(call_interval_secs: u64) -> Self {
        DistributedBalancer {
            // Whole seconds times the time units per second, which
            // cannot overflow where seconds × 10⁶ µs did.
            max_time_units: call_interval_secs.saturating_mul(1_000_000 / TIME_UNIT_US),
            exchange_cost: Energy::from_microjoules(30.0),
            nodes: Vec::new(),
            scratch: ExchangeScratch {
                surplus: Vec::new(),
                a: Vec::new(),
                b: Vec::new(),
                table: Vec::new(),
                assignment: Assignment {
                    sides: Vec::new(),
                    left_time: 0,
                    right_time: 0,
                },
            },
        }
    }

    /// Time (in DP units, rounded up) for `instructions` on a node
    /// with the given throughput; a huge value when the side cannot
    /// take work.
    fn time_units(instructions: u64, throughput: f64, capacity: u64) -> u64 {
        if throughput <= 0.0 || capacity < instructions {
            // Effectively infinite: the DP budget will exclude it.
            return u64::MAX / 8;
        }
        let secs = instructions as f64 / throughput;
        ((secs * 1_000_000.0) / TIME_UNIT_US as f64).ceil() as u64
    }

    fn balance_node(
        &mut self,
        chain: &mut ChainBalanceInput,
        idx: usize,
        report: &mut BalanceReport,
    ) {
        let cost = self.exchange_cost;
        let Some(&node) = self.nodes.get(idx) else {
            return;
        };
        // Interruption: a node too weak to run the exchange leaves its
        // region unbalanced this period.
        if interrupted(&node, cost) {
            report.interrupted_regions += 1;
        }
        if !can_exchange(&self.nodes, idx, cost) {
            return;
        }
        let Some(tasks) = chain.nodes.get(idx).map(|n| &n.tasks) else {
            return;
        };
        // Peel surplus tasks off the back of the queue until the rest
        // fits the node's affordable budget.
        let afford = node.affordable;
        let mut kept_sum: u64 = 0;
        let mut keep = 0usize;
        for t in tasks {
            if kept_sum + t.instructions <= afford {
                kept_sum += t.instructions;
                keep += 1;
            } else {
                break;
            }
        }
        if keep == tasks.len() {
            return;
        }

        // Neighbour capabilities (alive, with spare capacity beyond
        // their own queues); `can_exchange` found room on one side.
        let nodes = &self.nodes;
        let side_state = |i: Option<usize>| -> (f64, u64) {
            match i.and_then(|j| nodes.get(j).zip(chain.nodes.get(j))) {
                Some((s, n)) if ready(s, cost) => {
                    (n.throughput, s.affordable.saturating_sub(s.queued))
                }
                _ => (0.0, 0),
            }
        };
        let left_idx = idx.checked_sub(1);
        let right_idx = Some(idx + 1).filter(|&j| j < chain.nodes.len());
        let (lt, lcap) = side_state(left_idx);
        let (rt, rcap) = side_state(right_idx);
        let ExchangeScratch {
            surplus,
            a,
            b,
            table,
            assignment,
        } = &mut self.scratch;
        surplus.clear();
        a.clear();
        b.clear();
        if let Some(node) = chain.nodes.get_mut(idx) {
            surplus.extend(node.tasks.drain(keep..));
        }
        a.extend(
            surplus
                .iter()
                .map(|t| Self::time_units(t.instructions, lt, lcap)),
        );
        b.extend(
            surplus
                .iter()
                .map(|t| Self::time_units(t.instructions, rt, rcap)),
        );
        partition_tasks_into(a, b, self.max_time_units, table, assignment);

        // Per the paper, a receiver may end up over-assigned ("the
        // assigned tasks require more energy than one node has already
        // stored"); the next pass's "second call" then pushes the
        // overflow further outward. Only per-task feasibility is
        // enforced here (via the time arrays).
        report.transfer_hops += 2; // the state exchange itself
        for (&task, side) in surplus.iter().zip(&assignment.sides) {
            let dest = match side {
                Side::Left if lcap >= task.instructions => left_idx,
                Side::Right if rcap >= task.instructions => right_idx,
                _ => None,
            };
            if dest.is_some() {
                report.tasks_moved += 1;
                report.instructions_moved += task.instructions;
                report.transfer_hops += 1;
            }
            if let Some(n) = chain.nodes.get_mut(dest.unwrap_or(idx)) {
                n.tasks.push(task);
            }
        }
        // Only the node and its two neighbours changed queues.
        let changed = idx.saturating_sub(1)..idx + 2;
        for (summary, n) in self
            .nodes
            .iter_mut()
            .zip(&chain.nodes)
            .skip(changed.start)
            .take(changed.len())
        {
            *summary = NodeSummary::of(n);
        }
    }
}

impl LoadBalancer for DistributedBalancer {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn balance(&mut self, chain: &mut ChainBalanceInput) -> BalanceReport {
        let mut report = BalanceReport::default();
        self.nodes.clear();
        self.nodes.extend(chain.nodes.iter().map(NodeSummary::of));
        self.scratch
            .size_for(largest_list(&self.nodes), self.max_time_units);
        for _ in 0..PASSES {
            let moved_before = report.tasks_moved;
            for idx in 0..chain.nodes.len() {
                self.balance_node(chain, idx, &mut report);
            }
            if report.tasks_moved == moved_before {
                break; // converged
            }
        }
        report
    }

    /// Exact: `Some` exactly when no node can exchange (it is alive
    /// and holds the exchange's energy, cannot afford its own queue, and
    /// has a neighbour that holds the exchange's energy and can afford
    /// more than its queue). Then [`LoadBalancer::balance`] would return
    /// at every node of its first pass and stop, so the report counts
    /// only the interruptions, and no task moves. Either way the
    /// working memory is sized for `nodes`, as a call would size it.
    fn idle_report(&mut self, nodes: &[NodeSummary]) -> Option<BalanceReport> {
        self.nodes.clear();
        self.nodes.reserve(nodes.len());
        self.scratch
            .size_for(largest_list(nodes), self.max_time_units);
        let cost = self.exchange_cost;
        if (0..nodes.len()).any(|idx| can_exchange(nodes, idx, cost)) {
            return None;
        }
        Some(BalanceReport {
            interrupted_regions: nodes.iter().filter(|n| interrupted(n, cost)).count() as u64,
            ..BalanceReport::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::test_util::{chain, completable};
    use crate::balance::NodeBalanceState;
    use neofog_types::SimRng;

    #[test]
    fn offloads_deficit_to_both_neighbors() {
        // Middle node has 4 tasks, no energy; neighbours each afford 2.
        // 100k-instruction tasks cost ~250 uJ each.
        let mut input = chain(&[0.52, 0.05, 0.52], &[0, 4, 0], 100_000);
        let report = DistributedBalancer::new(60).balance(&mut input);
        assert_eq!(report.tasks_moved, 4);
        assert_eq!(input.nodes[0].tasks.len(), 2);
        assert_eq!(input.nodes[2].tasks.len(), 2);
        assert!(input.nodes[1].tasks.is_empty());
    }

    #[test]
    fn second_pass_propagates_overload_outward() {
        // Paper's example: node 8 over-assigned, overflow reaches node
        // 10. Here: node 1 starves, node 2 can take 1 task, node 3 has
        // plenty — overflow must travel 1 → 2 → 3 across passes.
        let mut input = chain(&[0.0, 0.05, 0.26, 5.0], &[0, 3, 0, 0], 100_000);
        let report = DistributedBalancer::new(600).balance(&mut input);
        assert!(report.tasks_moved >= 3, "moved {}", report.tasks_moved);
        assert!(
            !input.nodes[3].tasks.is_empty(),
            "overflow should reach node 3: {:?}",
            input
                .nodes
                .iter()
                .map(|n| n.tasks.len())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn improves_completable_work_under_imbalance() {
        let mut input = chain(
            &[10.0, 0.0, 12.0, 5.0, 0.0, 18.0, 6.0, 3.0, 5.0, 9.0],
            &[1, 3, 1, 1, 3, 0, 1, 4, 1, 0],
            400_000,
        );
        let before = completable(&input);
        DistributedBalancer::new(60).balance(&mut input);
        let after = completable(&input);
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn starved_node_interrupts_instead_of_balancing() {
        // The deficit node cannot even afford the exchange.
        let mut input = chain(&[5.0, 0.02, 5.0], &[0, 3, 0], 100_000);
        let report = DistributedBalancer::new(60).balance(&mut input);
        assert_eq!(report.tasks_moved, 0);
        assert!(report.interrupted_regions > 0);
        assert_eq!(input.nodes[1].tasks.len(), 3, "tasks stay put");
    }

    #[test]
    fn oversized_surplus_stays_home() {
        // Nine tasks too large for either neighbour's spare capacity:
        // Algorithm 1 sends them all "right", where they do not fit,
        // so they stay queued (and its time sums do not overflow).
        let mut input = chain(&[5.0, 0.05, 5.0], &[0, 9, 0], 100_000_000);
        let report = DistributedBalancer::new(60).balance(&mut input);
        assert_eq!(report.tasks_moved, 0);
        assert_eq!(input.nodes[1].tasks.len(), 9);
    }

    #[test]
    fn dead_neighbors_are_skipped() {
        let mut input = chain(&[10.0, 0.01, 10.0], &[0, 2, 0], 100_000);
        input.nodes[0].alive = false;
        input.nodes[2].alive = false;
        let report = DistributedBalancer::new(60).balance(&mut input);
        assert_eq!(report.tasks_moved, 0);
        assert_eq!(input.nodes[1].tasks.len(), 2);
    }

    #[test]
    fn prefers_side_with_capacity() {
        // Left neighbour is rich, right is broke.
        let mut input = chain(&[2.0, 0.05, 0.0], &[0, 2, 0], 100_000);
        DistributedBalancer::new(60).balance(&mut input);
        assert_eq!(input.nodes[0].tasks.len(), 2);
        assert!(input.nodes[2].tasks.is_empty());
    }

    #[test]
    fn conserves_instructions() {
        let mut rng_outer = SimRng::seed_from(31);
        for _ in 0..40 {
            let energies: Vec<f64> = (0..10).map(|_| rng_outer.uniform(0.0, 4.0)).collect();
            let tasks: Vec<usize> = (0..10).map(|_| rng_outer.index(5)).collect();
            let mut input = chain(&energies, &tasks, 300_000);
            let before: u64 = input
                .nodes
                .iter()
                .map(super::super::NodeBalanceState::queued_instructions)
                .sum();
            DistributedBalancer::new(60).balance(&mut input);
            let after: u64 = input
                .nodes
                .iter()
                .map(super::super::NodeBalanceState::queued_instructions)
                .sum();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn efficiency_matters_through_throughput() {
        // Right neighbour is 4x faster: identical capacities, the DP
        // should favour it to minimize makespan.
        let mk = |throughput: f64, energy_mj: f64, tasks: usize| NodeBalanceState {
            node: neofog_types::NodeId::new(0),
            spare_energy: neofog_types::Energy::from_millijoules(energy_mj),
            efficiency: 1.0 / 2.508,
            throughput,
            tasks: (0..tasks)
                .map(|k| crate::balance::FogTask::new(100_000, k as u64))
                .collect(),
            alive: true,
        };
        let mut input = ChainBalanceInput {
            nodes: vec![
                mk(83_333.0, 2.0, 0),
                mk(83_333.0, 0.05, 4),
                mk(4.0 * 83_333.0, 2.0, 0),
            ],
        };
        DistributedBalancer::new(60).balance(&mut input);
        assert!(
            input.nodes[2].tasks.len() > input.nodes[0].tasks.len(),
            "fast side should take more: {:?}",
            input
                .nodes
                .iter()
                .map(|n| n.tasks.len())
                .collect::<Vec<_>>()
        );
    }
}
