//! The baseline up-down multi-level tree balancer (Figure 6(c)).
//!
//! A conventional WSN load balancer: the chain is recursively bisected;
//! the node at the middle of each segment acts as that segment's
//! coordinator, gathering load information *up* the tree and pushing a
//! proportional redistribution *down*. Its two weaknesses — exactly the
//! ones the paper's distributed scheme removes — are modelled
//! faithfully:
//!
//! 1. If a coordinator lacks the energy to run its balancing step, its
//!    whole segment goes unbalanced this round ("an up-down binary
//!    scheduling that is only partly achieved (left 12 tasks are all
//!    missed) when the assigned node 4 running parts of the load
//!    balance is low on stored energy").
//! 2. Redistribution is proportional to raw capacity and ignores the
//!    per-node Spendthrift efficiency, and tasks may travel many hops.

use super::{BalanceReport, ChainBalanceInput, FogTask, LoadBalancer};
use neofog_types::{Energy, SimRng};

/// Working vectors of [`TreeBalancer::redistribute`], allocated once
/// per [`LoadBalancer::balance`] call and reused by every segment.
/// Each segment drains `pool` and `leftovers`, so both are empty
/// between segments.
#[derive(Default)]
struct SegmentScratch {
    /// The segment's pooled tasks with their origin index.
    pool: Vec<(usize, FogTask)>,
    /// Affordable instructions left per segment node.
    remaining: Vec<u64>,
    /// Pooled tasks no node could take.
    leftovers: Vec<(usize, FogTask)>,
}

/// Baseline hierarchical balancer.
#[derive(Debug, Clone, Copy)]
pub struct TreeBalancer {
    /// Energy a coordinator must hold to run its step.
    coordination_cost: Energy,
}

impl TreeBalancer {
    /// Creates a balancer with the default coordination cost (one RF
    /// exchange plus bookkeeping, ~1 mJ).
    #[must_use]
    pub fn new() -> Self {
        TreeBalancer {
            coordination_cost: Energy::from_millijoules(1.0),
        }
    }

    fn balance_segment(
        &self,
        chain: &mut ChainBalanceInput,
        lo: usize,
        hi: usize,
        scratch: &mut SegmentScratch,
        report: &mut BalanceReport,
    ) {
        if hi - lo <= 1 {
            return;
        }
        let mid = (lo + hi) / 2;
        let coordinator_ok = {
            let c = &chain.nodes[mid];
            c.alive && c.spare_energy >= self.coordination_cost
        };
        if coordinator_ok {
            self.redistribute(chain, lo, hi, scratch, report);
        } else {
            report.interrupted_regions += 1;
        }
        self.balance_segment(chain, lo, mid, scratch, report);
        self.balance_segment(chain, mid, hi, scratch, report);
    }

    /// Proportional redistribution within `[lo, hi)`: pool every task,
    /// then refill nodes up to their affordable capacity in chain
    /// order; the remainder round-robins.
    fn redistribute(
        &self,
        chain: &mut ChainBalanceInput,
        lo: usize,
        hi: usize,
        scratch: &mut SegmentScratch,
        report: &mut BalanceReport,
    ) {
        let SegmentScratch {
            pool,
            remaining,
            leftovers,
        } = scratch;
        // Pool tasks with their origin index for hop accounting.
        for (idx, node) in chain.nodes[lo..hi].iter_mut().enumerate() {
            if node.alive {
                for t in node.tasks.drain(..) {
                    pool.push((lo + idx, t));
                }
            }
        }
        // Largest tasks first gives the proportional fill a fighting
        // chance of packing.
        pool.sort_by_key(|(_, task)| std::cmp::Reverse(task.instructions));
        remaining.clear();
        remaining.extend(chain.nodes[lo..hi].iter().map(|n| {
            if n.alive {
                n.affordable_instructions()
            } else {
                0
            }
        }));
        for (origin, task) in pool.drain(..) {
            // The node with the most capacity left that can take it;
            // ties go to the highest index.
            let target = (0..remaining.len())
                .filter(|&i| remaining[i] >= task.instructions)
                .max_by_key(|&i| remaining[i]);
            match target {
                Some(i) => {
                    remaining[i] -= task.instructions;
                    let dest = lo + i;
                    if dest != origin {
                        report.tasks_moved += 1;
                        report.instructions_moved += task.instructions;
                        report.transfer_hops += dest.abs_diff(origin) as u64;
                    }
                    chain.nodes[dest].tasks.push(task);
                }
                None => leftovers.push((origin, task)),
            }
        }
        // Unplaceable tasks return to their origins.
        for (origin, task) in leftovers.drain(..) {
            chain.nodes[origin].tasks.push(task);
        }
    }
}

impl Default for TreeBalancer {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadBalancer for TreeBalancer {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn balance(&self, chain: &mut ChainBalanceInput, _rng: &mut SimRng) -> BalanceReport {
        let mut report = BalanceReport::default();
        let n = chain.nodes.len();
        let mut scratch = SegmentScratch::default();
        self.balance_segment(chain, 0, n, &mut scratch, &mut report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::test_util::{chain, completable};

    #[test]
    fn moves_tasks_from_starved_to_rich() {
        // Node 0 has tasks but no energy; node 2 has energy, no tasks.
        let mut input = chain(&[0.1, 5.0, 10.0], &[4, 0, 0], 100_000);
        let before = completable(&input);
        let report = TreeBalancer::new().balance(&mut input, &mut SimRng::seed_from(1));
        let after = completable(&input);
        assert!(after > before, "balancing should increase completable work");
        assert!(report.tasks_moved > 0);
    }

    #[test]
    fn dead_coordinator_blocks_its_region() {
        // 4 nodes: coordinator of [0,4) is node 2; kill it.
        let mut input = chain(&[0.1, 20.0, 0.0, 20.0], &[6, 0, 0, 0], 100_000);
        input.nodes[2].alive = false;
        let report = TreeBalancer::new().balance(&mut input, &mut SimRng::seed_from(1));
        assert!(report.interrupted_regions > 0);
    }

    #[test]
    fn respects_capacity() {
        let mut input = chain(&[1.0, 1.0], &[10, 10], 1_000_000);
        TreeBalancer::new().balance(&mut input, &mut SimRng::seed_from(1));
        // ~1 mJ affords ~398 k instructions; no node should be loaded
        // beyond roughly one task over capacity (tasks are indivisible
        // and unplaceable ones return home).
        for n in &input.nodes {
            assert!(n.tasks.len() <= 10 + 10);
        }
        // Task count conserved.
        let total: usize = input.nodes.iter().map(|n| n.tasks.len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn task_conservation_under_randomized_chains() {
        let mut rng = SimRng::seed_from(42);
        for _ in 0..50 {
            let energies: Vec<f64> = (0..8).map(|_| rng.uniform(0.0, 20.0)).collect();
            let tasks: Vec<usize> = (0..8).map(|_| rng.index(6)).collect();
            let mut input = chain(&energies, &tasks, 200_000);
            let before: u64 = input
                .nodes
                .iter()
                .map(super::super::NodeBalanceState::queued_instructions)
                .sum();
            TreeBalancer::new().balance(&mut input, &mut SimRng::seed_from(7));
            let after: u64 = input
                .nodes
                .iter()
                .map(super::super::NodeBalanceState::queued_instructions)
                .sum();
            assert_eq!(before, after, "instructions must be conserved");
        }
    }

    #[test]
    fn hops_reflect_distance() {
        // Task must travel from node 0 to node 3 (coordinators at 1
        // and 2 are healthy enough to run the protocol but poor enough
        // that node 3 wins the capacity race).
        let mut input = chain(&[0.0, 2.0, 2.0, 50.0], &[1, 0, 0, 0], 100_000);
        input.nodes[0].alive = true; // alive but no energy
        let report = TreeBalancer::new().balance(&mut input, &mut SimRng::seed_from(1));
        assert_eq!(report.tasks_moved, 1);
        assert_eq!(report.transfer_hops, 3);
    }
}
