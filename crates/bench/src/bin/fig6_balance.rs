//! Regenerates Figure 6: the load-balance illustration on a 10-node
//! chain — no balancing vs the baseline tree scheme vs the proposed
//! distributed scheme, including the coordinator-failure case.

use neofog_bench::{banner, BenchArgs};
use neofog_core::balance::{
    ChainBalanceInput, DistributedBalancer, FogTask, LoadBalancer, NoBalancer, NodeBalanceState,
    TreeBalancer,
};
use neofog_core::report::render_table;
use neofog_types::{Energy, NodeId};

/// Builds the Figure 6(b) situation: per-node available energy (in
/// task-units) and queued tasks.
fn figure6_chain() -> ChainBalanceInput {
    // Figure 6(b): energies 10,0,12,5,18,6,3,5,0,0 and task queues
    // concentrated on a few nodes (4 data on n1, 10 on n3, 12 on n5,
    // 4 on n8) — numbers transcribed from the illustration.
    const TASK: u64 = 400_000; // ~1 mJ per task at the base point
    let energies = [10.0, 0.0, 12.0, 5.0, 18.0, 6.0, 3.0, 5.0, 0.0, 0.0];
    let tasks = [1usize, 4, 1, 10, 1, 12, 1, 1, 4, 1];
    let nodes = energies
        .iter()
        .zip(tasks)
        .enumerate()
        .map(|(i, (&e, t))| NodeBalanceState {
            node: NodeId::new(i as u32),
            spare_energy: Energy::from_millijoules(e),
            efficiency: 1.0 / 2.508,
            throughput: 1_000_000.0 / 12.0,
            tasks: (0..t).map(|k| FogTask::new(TASK, k as u64)).collect(),
            alive: e > 0.0 || t > 0,
        })
        .collect();
    ChainBalanceInput { nodes }
}

fn completable(chain: &ChainBalanceInput) -> u64 {
    chain
        .nodes
        .iter()
        .map(|n| n.queued_instructions().min(n.affordable_instructions()))
        .sum()
}

fn show(label: &str, balancer: &mut dyn LoadBalancer) {
    let mut chain = figure6_chain();
    let before = completable(&chain);
    let report = balancer.balance(&mut chain);
    let after = completable(&chain);
    let rows: Vec<Vec<String>> = chain
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                format!("node {}", i + 1),
                format!("{:.0}", n.spare_energy.as_millijoules()),
                n.tasks.len().to_string(),
            ]
        })
        .collect();
    println!("--- {label} ---");
    println!(
        "{}",
        render_table(&["node", "energy (mJ)", "tasks after"], &rows)
    );
    let gained_tasks = (after.saturating_sub(before)) / 400_000;
    println!(
        "completable work: {before} -> {after} instructions ({:+.0}%), moved {} tasks over {} hops, {} interrupted regions",
        (after as f64 / before.max(1) as f64 - 1.0) * 100.0,
        report.tasks_moved,
        report.transfer_hops,
        report.interrupted_regions,
    );
    if report.transfer_hops > 0 {
        // The paper's key argument for the distributed scheme: it
        // produces "fewer, and more local, data transmissions", so the
        // gain per transfer hop (each hop ships a raw package) is what
        // determines whether balancing pays for itself.
        println!(
            "transfer efficiency: {:.2} tasks gained per transfer hop\n",
            gained_tasks as f64 / report.transfer_hops as f64
        );
    } else {
        println!();
    }
}

fn main() {
    let _args = BenchArgs::parse_or_exit();
    banner(
        "Figure 6",
        "distributed balance moves work to energy-rich neighbours; tree \
         balance loses whole regions when a coordinator is starved",
    );
    show("(b) no load balance", &mut NoBalancer);
    show(
        "(c) baseline up-down tree balance",
        &mut TreeBalancer::new(),
    );
    show(
        "(d) proposed distributed balance",
        &mut DistributedBalancer::new(60),
    );

    // The Figure 6(c) failure: starve the root coordinator (node 5 of
    // 10, index 4) and watch the tree lose the region.
    let mut chain = figure6_chain();
    chain.nodes[5].spare_energy = Energy::ZERO;
    chain.nodes[5].alive = false;
    let report = TreeBalancer::new().balance(&mut chain);
    println!(
        "tree balance with a dead coordinator: {} interrupted region(s) (paper: 'left 12 tasks are all missed')",
        report.interrupted_regions
    );
}
