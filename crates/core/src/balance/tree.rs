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
//!
//! A coordinator that runs pools the tasks of its segment's alive
//! nodes, sorts them largest first (stably, so equal tasks keep pool
//! order: by node, then queue position) and fills each into the node
//! with the most affordable instructions left that can take it, ties
//! to the highest index. Tasks no node can take return to their node,
//! queued after the placed ones. Every coordinator below it that runs
//! does the same over a smaller range, with fresh capacities.
//!
//! **One sort per call.** Only the first coordinator that runs on a
//! path pools, sorts and fills. Every segment below it is derived from
//! that order, because of two facts:
//!
//! * The segment's pool is the coordinator's sorted order restricted
//!   to the smaller range, with one difference: within a run of equal
//!   instruction counts, tasks are ordered by the node they now sit
//!   on, and on each node the placed tasks come before the returned
//!   ones.
//! * The segment's fill picks, inside its range, exactly the
//!   destinations the coordinator picked, in the same order.
//!   Capacities only fall, and a range's capacities change only when
//!   a task lands in it. So the node the coordinator chose, the
//!   fullest in the whole segment, is also the fullest in the smaller
//!   range. A task the coordinator returned finds no room below
//!   either, because every node of the segment was already too full.
//!
//! So below the first coordinator only the members of a run of equal
//! instruction counts can change places: the run's k-th task in the
//! new order takes the coordinator's k-th destination inside the
//! range, and the tasks past the last such destination stay where
//! they are, returned. Each swap counts in `tasks_moved`,
//! `instructions_moved` and `transfer_hops`, as it did when every
//! level pooled and sorted again. Starved coordinators below still
//! count in `interrupted_regions`. The `#[cfg(test)]` `reference`
//! module keeps that pool-at-every-level code, and a property test
//! checks the two agree task for task.

use super::{BalanceReport, ChainBalanceInput, FogTask, LoadBalancer};
use neofog_types::Energy;
use std::cmp::Reverse;

/// Marks a sorted position whose task the fill returned.
const RETURNED: usize = usize::MAX;

/// One pooled task and where it sits now.
#[derive(Debug, Clone, Copy)]
struct Pooled {
    task: FogTask,
    /// The node the task sits on.
    node: usize,
    /// Its place in the order it was last dealt in: the pool position
    /// before the sort, then its position in the fill, then in its
    /// run's latest re-deal. Within one node's share of a run, placed
    /// tasks rank before returned ones.
    rank: usize,
    /// `false` when the latest fill or re-deal returned the task to its
    /// node.
    placed: bool,
}

/// Working memory of [`TreeBalancer::balance`], kept across calls and
/// sized on first use.
#[derive(Debug, Clone, Default)]
struct TreeScratch {
    /// The first running coordinator's pool, largest tasks first. Each
    /// run of equal instruction counts is kept ordered by
    /// `(node, rank)`, so a range's share of a run is contiguous.
    pool: Vec<Pooled>,
    /// The node the first fill chose for each sorted position, or
    /// [`RETURNED`]. Fixed while the run members move.
    dest: Vec<usize>,
    /// Affordable instructions left per segment node during a fill.
    remaining: Vec<u64>,
    /// The runs of equal tasks that sit on more than one node after
    /// the fill, as `(start, end)` ranges of `pool`: the only tasks
    /// that can move below it.
    runs: Vec<(usize, usize)>,
}

/// Baseline hierarchical balancer.
#[derive(Debug, Clone)]
pub struct TreeBalancer {
    /// Energy a coordinator must hold to run its step.
    coordination_cost: Energy,
    scratch: TreeScratch,
}

impl TreeBalancer {
    /// Creates a balancer with the default coordination cost (one RF
    /// exchange plus bookkeeping, ~1 mJ).
    #[must_use]
    pub fn new() -> Self {
        TreeBalancer {
            coordination_cost: Energy::from_millijoules(1.0),
            scratch: TreeScratch::default(),
        }
    }
}

impl TreeScratch {
    /// Empties the scratch and sizes it for `chain`. A pool never
    /// holds more tasks than the chain's queues have room for, so the
    /// scratch grows on the first fill and then only when one of those
    /// queues does, never at a late high-water mark of the task count.
    fn size_for(&mut self, chain: &ChainBalanceInput) {
        let room: usize = chain.nodes.iter().map(|n| n.tasks.capacity()).sum();
        self.pool.clear();
        self.pool.reserve(room);
        self.dest.clear();
        self.dest.reserve(room);
        self.remaining.clear();
        self.remaining.reserve(chain.nodes.len());
        self.runs.clear();
        self.runs.reserve(room / 2);
    }

    /// Balances `[lo, hi)` and the segments below it. `filled` says a
    /// coordinator above has already pooled, sorted and filled it.
    fn segment(
        &mut self,
        cost: Energy,
        chain: &mut ChainBalanceInput,
        lo: usize,
        hi: usize,
        filled: bool,
        report: &mut BalanceReport,
    ) {
        if hi - lo <= 1 {
            return;
        }
        let mid = (lo + hi) / 2;
        let coordinator_ok = chain
            .nodes
            .get(mid)
            .is_some_and(|c| c.alive && c.spare_energy >= cost);
        if !coordinator_ok {
            report.interrupted_regions += 1;
        } else if filled {
            self.redeal(lo, hi, report);
        } else {
            self.fill(chain, lo, hi, report);
        }
        let below = filled || coordinator_ok;
        self.segment(cost, chain, lo, mid, below, report);
        self.segment(cost, chain, mid, hi, below, report);
        if coordinator_ok && !filled {
            self.settle(chain);
        }
    }

    /// The first running coordinator's step: pools the alive nodes'
    /// tasks of `[lo, hi)`, sorts them once and fills them in.
    fn fill(
        &mut self,
        chain: &mut ChainBalanceInput,
        lo: usize,
        hi: usize,
        report: &mut BalanceReport,
    ) {
        self.size_for(chain);
        let TreeScratch {
            pool,
            dest,
            remaining,
            runs,
        } = self;
        let Some(nodes) = chain.nodes.get_mut(lo..hi) else {
            return;
        };
        remaining.extend(nodes.iter().map(|n| {
            if n.alive {
                n.affordable_instructions()
            } else {
                0
            }
        }));
        pool.extend(
            (lo..)
                .zip(nodes.iter_mut())
                .filter(|(_, n)| n.alive)
                .flat_map(|(node, n)| n.tasks.drain(..).map(move |task| (node, task)))
                .enumerate()
                .map(|(rank, (node, task))| Pooled {
                    task,
                    node,
                    rank,
                    placed: false,
                }),
        );
        // Ranks are distinct, so this is the stable order.
        pool.sort_unstable_by_key(|p| (Reverse(p.task.instructions), p.rank));
        for (rank, p) in pool.iter_mut().enumerate() {
            let size = p.task.instructions;
            // The node with the most capacity left that can take it;
            // ties go to the highest index.
            let to = (lo..)
                .zip(remaining.iter_mut())
                .filter(|(_, left)| **left >= size)
                .max_by_key(|(_, left)| **left)
                .map_or(RETURNED, |(node, left)| {
                    *left -= size;
                    node
                });
            p.rank = rank;
            p.placed = to != RETURNED;
            if p.placed {
                count_move(report, p, to);
                p.node = to;
            }
            dest.push(to);
        }
        // Every run is placed first and returned after (capacities
        // only fall). Order each run that spans nodes by node, for the
        // segments below; a run on one node never moves.
        let mut end = 0;
        for run in pool.chunk_by_mut(|x, y| x.task.instructions == y.task.instructions) {
            let start = end;
            end += run.len();
            let node = run.first().map(|p| p.node);
            if run.iter().any(|p| Some(p.node) != node) {
                run.sort_unstable_by_key(|p| (p.node, p.rank));
                runs.push((start, end));
            }
        }
    }

    /// A coordinator's step below the first: each run of equal tasks in
    /// `[lo, hi)` is dealt again, in node order, onto the destinations
    /// the first fill chose inside the range.
    fn redeal(&mut self, lo: usize, hi: usize, report: &mut BalanceReport) {
        for &(start, end) in &self.runs {
            let (Some(run), Some(dests)) =
                (self.pool.get_mut(start..end), self.dest.get(start..end))
            else {
                continue;
            };
            let from = run.partition_point(|p| p.node < lo);
            let to = run.partition_point(|p| p.node < hi);
            let Some(here) = run.get_mut(from..to) else {
                continue;
            };
            // Tasks that all sit on one node keep their places.
            if here.first().map(|p| p.node) == here.last().map(|p| p.node) {
                continue;
            }
            let mut slots = dests.iter().filter(|&&d| (lo..hi).contains(&d));
            for (rank, p) in here.iter_mut().enumerate() {
                p.rank = rank;
                p.placed = false;
                if let Some(&node) = slots.next() {
                    count_move(report, p, node);
                    p.node = node;
                    p.placed = true;
                }
            }
            here.sort_unstable_by_key(|p| (p.node, p.rank));
        }
    }

    /// Queues the pool back on its nodes: each node's placed tasks in
    /// pool order, then its returned ones.
    fn settle(&self, chain: &mut ChainBalanceInput) {
        for placed in [true, false] {
            for p in self.pool.iter().filter(|p| p.placed == placed) {
                if let Some(n) = chain.nodes.get_mut(p.node) {
                    n.tasks.push(p.task);
                }
            }
        }
    }
}

/// Counts `p` travelling to `node`, if that is elsewhere.
fn count_move(report: &mut BalanceReport, p: &Pooled, node: usize) {
    if node != p.node {
        report.tasks_moved += 1;
        report.instructions_moved += p.task.instructions;
        report.transfer_hops += node.abs_diff(p.node) as u64;
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

    fn balance(&mut self, chain: &mut ChainBalanceInput) -> BalanceReport {
        let mut report = BalanceReport::default();
        let n = chain.nodes.len();
        self.scratch
            .segment(self.coordination_cost, chain, 0, n, false, &mut report);
        report
    }
}

/// The tree balancer as it was before the single-sort rewrite: every
/// running coordinator pools its whole segment, sorts it and rescans
/// every segment node for every task. Kept as the reference the
/// rewrite is compared against, task for task.
#[cfg(test)]
mod reference {
    use crate::balance::{BalanceReport, ChainBalanceInput, FogTask};
    use neofog_types::Energy;

    /// Working vectors of [`redistribute`], allocated once per
    /// [`balance`] call and reused by every segment. Each segment
    /// drains `pool` and `leftovers`, so both are empty between
    /// segments.
    #[derive(Default)]
    struct SegmentScratch {
        /// The segment's pooled tasks with their origin index.
        pool: Vec<(usize, FogTask)>,
        /// Affordable instructions left per segment node.
        remaining: Vec<u64>,
        /// Pooled tasks no node could take.
        leftovers: Vec<(usize, FogTask)>,
    }

    /// One reference balancing round with the given coordination cost.
    pub(super) fn balance(
        coordination_cost: Energy,
        chain: &mut ChainBalanceInput,
    ) -> BalanceReport {
        let mut report = BalanceReport::default();
        let n = chain.nodes.len();
        let mut scratch = SegmentScratch::default();
        balance_segment(coordination_cost, chain, 0, n, &mut scratch, &mut report);
        report
    }

    fn balance_segment(
        coordination_cost: Energy,
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
            c.alive && c.spare_energy >= coordination_cost
        };
        if coordinator_ok {
            redistribute(chain, lo, hi, scratch, report);
        } else {
            report.interrupted_regions += 1;
        }
        balance_segment(coordination_cost, chain, lo, mid, scratch, report);
        balance_segment(coordination_cost, chain, mid, hi, scratch, report);
    }

    /// Proportional redistribution within `[lo, hi)`: pool every task,
    /// then refill nodes up to their affordable capacity in chain
    /// order; the remainder round-robins.
    fn redistribute(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::test_util::{chain, completable};
    use crate::balance::NodeBalanceState;
    use neofog_types::{NodeId, SimRng};
    use proptest::prelude::*;

    #[test]
    fn moves_tasks_from_starved_to_rich() {
        // Node 0 has tasks but no energy; node 2 has energy, no tasks.
        let mut input = chain(&[0.1, 5.0, 10.0], &[4, 0, 0], 100_000);
        let before = completable(&input);
        let report = TreeBalancer::new().balance(&mut input);
        let after = completable(&input);
        assert!(after > before, "balancing should increase completable work");
        assert!(report.tasks_moved > 0);
    }

    #[test]
    fn dead_coordinator_blocks_its_region() {
        // 4 nodes: coordinator of [0,4) is node 2; kill it.
        let mut input = chain(&[0.1, 20.0, 0.0, 20.0], &[6, 0, 0, 0], 100_000);
        input.nodes[2].alive = false;
        let report = TreeBalancer::new().balance(&mut input);
        assert!(report.interrupted_regions > 0);
    }

    #[test]
    fn respects_capacity() {
        let mut input = chain(&[1.0, 1.0], &[10, 10], 1_000_000);
        TreeBalancer::new().balance(&mut input);
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
            TreeBalancer::new().balance(&mut input);
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
        let report = TreeBalancer::new().balance(&mut input);
        assert_eq!(report.tasks_moved, 1);
        assert_eq!(report.transfer_hops, 3);
    }

    /// Draws one chain for the reference comparison: 1–16 nodes with up
    /// to 40 tasks each. Instruction counts come from a small
    /// per-chain palette, so runs of equal tasks span nodes (a
    /// one-count palette gives runs of more than 16 in one segment);
    /// the palette mixes zero-instruction tasks and counts above
    /// `u32::MAX` with the simulator's package sizes. Some nodes are
    /// dead, capacities repeat across nodes, and with probability 1/3
    /// every coordinator above a random depth is starved, so the first
    /// coordinator that runs can sit below the root.
    fn random_chain(seed: u64) -> ChainBalanceInput {
        const SIZES: [u64; 9] = [
            0,
            1,
            200_000,
            400_000,
            6_000_000,
            12_000_000,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            9_000_000_000,
        ];
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.index(16);
        let palette: Vec<u64> = (0..1 + rng.index(4))
            .map(|_| match rng.index(SIZES.len() + 2) {
                i if i < SIZES.len() => SIZES[i],
                i if i == SIZES.len() => 1 + rng.range_u64(20_000_000),
                _ => 1 + rng.range_u64(1 << 40),
            })
            .collect();
        let unit = palette.iter().copied().max().unwrap_or(1).max(1);
        let caps: Vec<u64> = (0..1 + rng.index(3))
            .map(|_| unit * rng.range_u64(8) + rng.range_u64(unit))
            .collect();
        let mut tag = 0u64;
        let mut nodes: Vec<NodeBalanceState> = (0..n)
            .map(|i| {
                let spare_mj = match rng.index(4) {
                    0 => 0.0,
                    1 => 0.4,
                    2 => 1.0,
                    _ => rng.uniform(1.0, 30.0),
                };
                let capacity = caps[rng.index(caps.len())];
                let spare = Energy::from_millijoules(spare_mj);
                let efficiency = if spare_mj > 0.0 {
                    capacity as f64 / spare.as_nanojoules()
                } else {
                    1.0
                };
                let count = match rng.index(3) {
                    0 => 0,
                    1 => rng.index(8),
                    _ => rng.index(41),
                };
                let tasks = (0..count)
                    .map(|_| {
                        tag += 1;
                        FogTask::new(palette[rng.index(palette.len())], tag)
                    })
                    .collect();
                NodeBalanceState {
                    node: NodeId::new(i as u32),
                    spare_energy: spare,
                    efficiency,
                    throughput: 83_333.0,
                    tasks,
                    alive: !rng.chance(0.15),
                }
            })
            .collect();
        if rng.chance(1.0 / 3.0) {
            starve_above(&mut nodes, 0, n, 1 + rng.index(4), &mut rng);
        }
        ChainBalanceInput { nodes }
    }

    /// Starves (or kills) every coordinator of `[lo, hi)` shallower
    /// than `depth` levels.
    fn starve_above(
        nodes: &mut [NodeBalanceState],
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut SimRng,
    ) {
        if depth == 0 || hi - lo <= 1 {
            return;
        }
        let mid = (lo + hi) / 2;
        if rng.chance(0.5) {
            nodes[mid].spare_energy = Energy::from_millijoules(0.4);
        } else {
            nodes[mid].alive = false;
        }
        starve_above(nodes, lo, mid, depth - 1, rng);
        starve_above(nodes, mid, hi, depth - 1, rng);
    }

    /// The generator reaches every case the comparison is for.
    #[test]
    fn random_chains_cover_the_hard_cases() {
        let cost = TreeBalancer::new().coordination_cost;
        let runs = |c: &NodeBalanceState| c.alive && c.spare_energy >= cost;
        let (mut long_run, mut dead_with_tasks, mut below_root) = (false, false, false);
        let (mut zero, mut huge_fits, mut one, mut sixteen) = (false, false, false, false);
        for seed in 0..2_000 {
            let c = random_chain(seed);
            let n = c.nodes.len();
            one |= n == 1;
            sixteen |= n == 16;
            let alive: Vec<&FogTask> = c
                .nodes
                .iter()
                .filter(|s| s.alive)
                .flat_map(|s| &s.tasks)
                .collect();
            long_run |= alive.iter().any(|t| {
                alive
                    .iter()
                    .filter(|u| u.instructions == t.instructions)
                    .count()
                    > 16
            });
            dead_with_tasks |= c.nodes.iter().any(|s| !s.alive && !s.tasks.is_empty());
            zero |= alive.iter().any(|t| t.instructions == 0);
            huge_fits |= alive.iter().any(|t| {
                t.instructions > u64::from(u32::MAX)
                    && c.nodes
                        .iter()
                        .any(|s| s.alive && s.affordable_instructions() >= t.instructions)
            });
            below_root |= n >= 4
                && !runs(&c.nodes[n / 2])
                && (runs(&c.nodes[n / 4]) || runs(&c.nodes[(n / 2 + n) / 2]));
        }
        assert!(long_run && dead_with_tasks && below_root);
        assert!(zero && huge_fits && one && sixteen);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        /// The balancer matches the reference task for task: every
        /// node's queue (instructions and tags, in order) and the whole
        /// report. One balancer balances every chain of a case in turn,
        /// as the simulator's does slot after slot.
        #[test]
        fn matches_reference(seeds in prop::collection::vec(any::<u64>(), 1..4)) {
            let mut balancer = TreeBalancer::new();
            for seed in seeds {
                let input = random_chain(seed);
                let mut expected = input.clone();
                let want = reference::balance(balancer.coordination_cost, &mut expected);
                let mut got = input;
                let report = balancer.balance(&mut got);
                prop_assert_eq!(report, want, "seed {}", seed);
                for (i, (g, e)) in got.nodes.iter().zip(&expected.nodes).enumerate() {
                    prop_assert_eq!(&g.tasks, &e.tasks, "seed {} node {}", seed, i);
                }
            }
        }
    }
}
