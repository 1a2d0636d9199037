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

use super::dp::{partition_tasks, Side};
use super::{BalanceReport, ChainBalanceInput, LoadBalancer};
use neofog_types::{Energy, SimRng};

/// Time quantum of the DP tables, in microseconds (0.1 s).
const TIME_UNIT_US: u64 = 100_000;

/// The NEOFog distributed balancer.
#[derive(Debug, Clone, Copy)]
pub struct DistributedBalancer {
    /// The load-balance call interval (`MAXTIME`), in time units.
    max_time_units: u64,
    /// Energy a node must hold to participate in the exchange.
    exchange_cost: Energy,
    /// Outward-propagation passes (each pass is one "call" round).
    passes: usize,
}

impl DistributedBalancer {
    /// Creates the balancer with a `MAXTIME` equal to the given call
    /// interval in seconds.
    #[must_use]
    pub fn new(call_interval_secs: u64) -> Self {
        DistributedBalancer {
            max_time_units: call_interval_secs * 1_000_000 / TIME_UNIT_US,
            exchange_cost: Energy::from_microjoules(30.0),
            passes: 3,
        }
    }

    /// Overrides the state-exchange cost.
    #[must_use]
    pub fn with_exchange_cost(mut self, cost: Energy) -> Self {
        self.exchange_cost = cost;
        self
    }

    /// Overrides the number of propagation passes.
    ///
    /// # Panics
    ///
    /// Panics if `passes` is zero.
    #[must_use]
    pub fn with_passes(mut self, passes: usize) -> Self {
        assert!(passes > 0, "at least one pass required");
        self.passes = passes;
        self
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

    fn balance_node(&self, chain: &mut ChainBalanceInput, idx: usize, report: &mut BalanceReport) {
        let node = &chain.nodes[idx];
        if !node.alive {
            return;
        }
        // Interruption: a node too weak to run the exchange leaves its
        // region unbalanced this period.
        if node.spare_energy < self.exchange_cost {
            if !node.tasks.is_empty() {
                report.interrupted_regions += 1;
            }
            return;
        }
        let surplus_deficit = node.surplus();
        if surplus_deficit >= 0 {
            return; // the node can handle its own queue
        }
        // Peel surplus tasks off the back of the queue until the rest
        // fits the node's affordable budget.
        let afford = node.affordable_instructions();
        let mut kept_sum: u64 = 0;
        let mut keep = 0usize;
        for t in &node.tasks {
            if kept_sum + t.instructions <= afford {
                kept_sum += t.instructions;
                keep += 1;
            } else {
                break;
            }
        }
        if keep == node.tasks.len() {
            return;
        }

        // Neighbour capabilities (alive, with spare capacity beyond
        // their own queues).
        let side_state = |i: Option<usize>| -> (f64, u64) {
            match i {
                Some(j) => {
                    let n = &chain.nodes[j];
                    if n.alive && n.spare_energy >= self.exchange_cost {
                        let cap = n
                            .affordable_instructions()
                            .saturating_sub(n.queued_instructions());
                        (n.throughput, cap)
                    } else {
                        (0.0, 0)
                    }
                }
                None => (0.0, 0),
            }
        };
        let left_idx = idx.checked_sub(1);
        let right_idx = if idx + 1 < chain.nodes.len() {
            Some(idx + 1)
        } else {
            None
        };
        let (lt, lcap) = side_state(left_idx);
        let (rt, rcap) = side_state(right_idx);
        if lcap == 0 && rcap == 0 {
            // Nowhere to go; tasks stay queued.
            return;
        }
        let surplus = chain.nodes[idx].tasks.split_off(keep);

        let a: Vec<u64> = surplus
            .iter()
            .map(|t| Self::time_units(t.instructions, lt, lcap))
            .collect();
        let b: Vec<u64> = surplus
            .iter()
            .map(|t| Self::time_units(t.instructions, rt, rcap))
            .collect();
        let assignment = partition_tasks(&a, &b, self.max_time_units);

        // Per the paper, a receiver may end up over-assigned ("the
        // assigned tasks require more energy than one node has already
        // stored"); the next pass's "second call" then pushes the
        // overflow further outward. Only per-task feasibility is
        // enforced here (via the time arrays).
        report.transfer_hops += 2; // the state exchange itself
        for (task, side) in surplus.into_iter().zip(assignment.sides) {
            let dest = match side {
                Side::Left if lcap >= task.instructions => left_idx,
                Side::Right if rcap >= task.instructions => right_idx,
                _ => None,
            };
            match dest {
                Some(j) => {
                    chain.nodes[j].tasks.push(task);
                    report.tasks_moved += 1;
                    report.instructions_moved += task.instructions;
                    report.transfer_hops += 1;
                }
                None => chain.nodes[idx].tasks.push(task),
            }
        }
    }
}

impl LoadBalancer for DistributedBalancer {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn balance(&self, chain: &mut ChainBalanceInput, _rng: &mut SimRng) -> BalanceReport {
        let mut report = BalanceReport::default();
        for _ in 0..self.passes {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::test_util::{chain, completable};
    use crate::balance::NodeBalanceState;

    fn rng() -> SimRng {
        SimRng::seed_from(9)
    }

    #[test]
    fn offloads_deficit_to_both_neighbors() {
        // Middle node has 4 tasks, no energy; neighbours each afford 2.
        // 100k-instruction tasks cost ~250 uJ each.
        let mut input = chain(&[0.52, 0.05, 0.52], &[0, 4, 0], 100_000);
        let report = DistributedBalancer::new(60).balance(&mut input, &mut rng());
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
        let report = DistributedBalancer::new(600).balance(&mut input, &mut rng());
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
        DistributedBalancer::new(60).balance(&mut input, &mut rng());
        let after = completable(&input);
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn starved_node_interrupts_instead_of_balancing() {
        // The deficit node cannot even afford the exchange.
        let mut input = chain(&[5.0, 0.02, 5.0], &[0, 3, 0], 100_000);
        let report = DistributedBalancer::new(60).balance(&mut input, &mut rng());
        assert_eq!(report.tasks_moved, 0);
        assert!(report.interrupted_regions > 0);
        assert_eq!(input.nodes[1].tasks.len(), 3, "tasks stay put");
    }

    #[test]
    fn dead_neighbors_are_skipped() {
        let mut input = chain(&[10.0, 0.01, 10.0], &[0, 2, 0], 100_000);
        input.nodes[0].alive = false;
        input.nodes[2].alive = false;
        let report = DistributedBalancer::new(60).balance(&mut input, &mut rng());
        assert_eq!(report.tasks_moved, 0);
        assert_eq!(input.nodes[1].tasks.len(), 2);
    }

    #[test]
    fn prefers_side_with_capacity() {
        // Left neighbour is rich, right is broke.
        let mut input = chain(&[2.0, 0.05, 0.0], &[0, 2, 0], 100_000);
        DistributedBalancer::new(60).balance(&mut input, &mut rng());
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
            DistributedBalancer::new(60).balance(&mut input, &mut SimRng::seed_from(4));
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
        DistributedBalancer::new(60).balance(&mut input, &mut rng());
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
