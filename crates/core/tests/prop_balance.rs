//! Property tests: Algorithm 1 optimality and balancer conservation.

use neofog_core::balance::{
    partition_tasks, ChainBalanceInput, DistributedBalancer, FogTask, LoadBalancer,
    NodeBalanceState, NodeSummary, Side, TreeBalancer,
};
use neofog_types::{Energy, NodeId};
use proptest::prelude::*;

fn brute_force(a: &[u64], b: &[u64], max_time: u64) -> u64 {
    let n = a.len();
    let mut best = u64::MAX;
    for mask in 0..(1u32 << n) {
        let mut l = 0u64;
        let mut r = 0u64;
        for k in 0..n {
            if mask & (1 << k) != 0 {
                l += a[k];
            } else {
                r += b[k];
            }
        }
        if l <= max_time {
            best = best.min(l.max(r));
        }
    }
    best
}

fn arbitrary_chain() -> impl Strategy<Value = ChainBalanceInput> {
    prop::collection::vec((0.0..10.0f64, 0usize..5, any::<bool>()), 2..10).prop_map(|specs| {
        let nodes = specs
            .into_iter()
            .enumerate()
            .map(|(i, (energy_mj, tasks, alive))| NodeBalanceState {
                node: NodeId::new(i as u32),
                spare_energy: Energy::from_millijoules(energy_mj),
                efficiency: 1.0 / 2.508,
                throughput: 83_333.0,
                tasks: (0..tasks)
                    .map(|k| FogTask::new(200_000, k as u64))
                    .collect(),
                alive,
            })
            .collect();
        ChainBalanceInput { nodes }
    })
}

/// A chain of 1–16 positions mixing five kinds of node: dead, starved
/// (below the 30 µJ exchange cost), empty, overloaded (more queued than
/// affordable) and roomy. Half the nodes of a chain lean to one kind,
/// so chains where nothing can move and chains with one exchange both
/// occur often. Tasks are whole (6 M instructions), partly processed,
/// small or empty.
fn mixed_chain() -> impl Strategy<Value = ChainBalanceInput> {
    let node = (0u8..10, 0.0..1.0f64, 0usize..6, any::<u64>());
    (0u8..5, prop::collection::vec(node, 1..17)).prop_map(|(lean, specs)| {
        let nodes = specs
            .into_iter()
            .enumerate()
            .map(|(i, (kind, draw, count, sizes))| {
                let kind = if kind < 5 { kind } else { lean };
                // 1 mJ affords about 399 k instructions.
                let (energy_mj, count) = match kind {
                    1 => (0.03 * draw, count),
                    2 => (0.03 + 10.0 * draw, 0),
                    3 => (0.03 + 0.5 * draw, count.max(2)),
                    _ => (0.03 + 10.0 * draw, count),
                };
                let size =
                    |k: usize| [6_000_000, 1_500_000, 200_000, 0][(sizes >> (2 * k)) as usize % 4];
                NodeBalanceState {
                    node: NodeId::new(i as u32),
                    spare_energy: Energy::from_millijoules(energy_mj),
                    efficiency: 1.0 / 2.508,
                    throughput: 83_333.0,
                    tasks: (0..count)
                        .map(|k| FogTask::new(size(k), k as u64))
                        .collect(),
                    alive: kind != 0,
                }
            })
            .collect();
        ChainBalanceInput { nodes }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Algorithm 1's idle test is exact: it answers `Some` exactly when
    /// a call exchanges nothing, and then its report is the call's and
    /// no task list changed.
    #[test]
    fn idle_report_is_exact(chain in mixed_chain()) {
        let summaries: Vec<NodeSummary> = chain.nodes.iter().map(NodeSummary::of).collect();
        let mut balancer = DistributedBalancer::new(12);
        let idle = balancer.idle_report(&summaries);
        let mut c = chain.clone();
        let report = balancer.balance(&mut c);
        prop_assert_eq!(idle.is_some(), report.transfer_hops == 0, "idle {:?}, call {:?}", idle, report);
        if let Some(idle) = idle {
            prop_assert_eq!(idle, report);
            prop_assert_eq!(&c, &chain);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dp_matches_brute_force(
        tasks in prop::collection::vec((1u64..30, 1u64..30), 1..10),
        max_time in 1u64..120,
    ) {
        let a: Vec<u64> = tasks.iter().map(|t| t.0).collect();
        let b: Vec<u64> = tasks.iter().map(|t| t.1).collect();
        let asn = partition_tasks(&a, &b, max_time);
        prop_assert!(asn.left_time <= max_time);
        prop_assert_eq!(asn.makespan(), brute_force(&a, &b, max_time));
    }

    #[test]
    fn dp_times_are_consistent(
        tasks in prop::collection::vec((1u64..50, 1u64..50), 1..12),
        max_time in 1u64..200,
    ) {
        let a: Vec<u64> = tasks.iter().map(|t| t.0).collect();
        let b: Vec<u64> = tasks.iter().map(|t| t.1).collect();
        let asn = partition_tasks(&a, &b, max_time);
        let l: u64 = asn.sides.iter().zip(&a).filter(|(s, _)| **s == Side::Left).map(|(_, &x)| x).sum();
        let r: u64 = asn.sides.iter().zip(&b).filter(|(s, _)| **s == Side::Right).map(|(_, &x)| x).sum();
        prop_assert_eq!(l, asn.left_time);
        prop_assert_eq!(r, asn.right_time);
    }

    #[test]
    fn balancers_conserve_tasks(chain in arbitrary_chain()) {
        let mut distributed = DistributedBalancer::new(60);
        let mut tree = TreeBalancer::new();
        for balancer in [&mut distributed as &mut dyn LoadBalancer, &mut tree] {
            let mut c = chain.clone();
            let before: u64 = c.nodes.iter().map(neofog_core::NodeBalanceState::queued_instructions).sum();
            let count_before: usize = c.nodes.iter().map(|n| n.tasks.len()).sum();
            balancer.balance(&mut c);
            let after: u64 = c.nodes.iter().map(neofog_core::NodeBalanceState::queued_instructions).sum();
            let count_after: usize = c.nodes.iter().map(|n| n.tasks.len()).sum();
            prop_assert_eq!(before, after, "{} lost instructions", balancer.name());
            prop_assert_eq!(count_before, count_after, "{} lost tasks", balancer.name());
        }
    }

    #[test]
    fn distributed_never_worsens_completable_work(chain in arbitrary_chain()) {
        let completable = |c: &ChainBalanceInput| -> u64 {
            c.nodes
                .iter()
                .map(|n| n.queued_instructions().min(n.affordable_instructions()))
                .sum()
        };
        let mut c = chain.clone();
        let before = completable(&c);
        DistributedBalancer::new(60).balance(&mut c);
        // Over-assignment is allowed transiently, but a single round
        // must not reduce what the chain can complete by more than one
        // task's worth of slack.
        prop_assert!(completable(&c) + 200_000 >= before);
    }

    #[test]
    fn dead_nodes_never_receive_tasks(chain in arbitrary_chain()) {
        let mut c = chain.clone();
        DistributedBalancer::new(60).balance(&mut c);
        for (i, node) in c.nodes.iter().enumerate() {
            if !node.alive {
                prop_assert_eq!(
                    node.tasks.len(),
                    chain.nodes[i].tasks.len(),
                    "dead node gained/lost tasks"
                );
            }
        }
    }
}
