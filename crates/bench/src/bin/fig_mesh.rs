//! Topology comparison: the same sensor fleet wired as a linear chain,
//! a seeded Erdős-Rényi mesh, and a sensors→gateway→cloud tier graph,
//! all driven through the precompiled [`RoutePlan`] the slot kernel
//! sweeps. The mesh and tiered runs use the offload balancer, which
//! prices compute-here vs ship-to-neighbour vs ship-to-cloud with the
//! radio front-end energy model.
//!
//! `--events <path>` streams the JSONL event log of the mesh run; CI
//! diffs it against the checked-in golden
//! (`crates/bench/golden/fig_mesh_events.jsonl`) to pin the mesh
//! pipeline byte-for-byte.
//!
//! [`RoutePlan`]: neofog_net::RoutePlan

use neofog_bench::{banner, BenchArgs, Flag};
use neofog_core::report::render_table;
use neofog_core::sim::{BalancerKind, SimConfig, Simulator};
use neofog_core::{NetworkMetrics, SystemKind};
use neofog_energy::Scenario;
use neofog_net::TopologySpec;

/// Logical positions in every topology (12: enough for two gateways
/// and a cloud node to leave a two-digit sensor field).
const POSITIONS: usize = 12;

fn base_cfg(seed: u64, slots: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, seed);
    cfg.positions = POSITIONS;
    cfg.slots = slots;
    cfg
}

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit(&[Flag::Events, Flag::Seed, Flag::Slots]);
    banner(
        "Topology comparison (mesh/tiered route plans + offload balancer)",
        "chain routing is the degenerate case of the route-plan sweep; \
         meshes shorten hop counts, tiers add mains-powered offload targets",
    );
    let seed = args.seed.unwrap_or(7);
    let slots = args.slots.unwrap_or(60);

    let mut runs: Vec<(&str, SimConfig)> = Vec::new();
    runs.push(("chain", base_cfg(seed, slots)));
    let mut mesh = base_cfg(seed, slots);
    mesh.topology = TopologySpec::ErdosRenyi {
        edge_prob: 0.3,
        seed,
    };
    mesh.balancer = BalancerKind::Offload;
    // The representative run CI pins: log its events when asked.
    mesh.events_path = args.events.clone();
    runs.push(("mesh (ER p=0.3)", mesh));
    let mut tiered = base_cfg(seed, slots);
    tiered.topology = TopologySpec::Tiered { gateways: 2 };
    tiered.balancer = BalancerKind::Offload;
    runs.push(("tiered (2 gateways)", tiered));

    let mut rows = Vec::new();
    for (label, cfg) in runs {
        let result = Simulator::new(cfg)?.run();
        let m: &NetworkMetrics = &result.metrics;
        rows.push(vec![
            label.to_string(),
            format!("{:.1}%", result.delivery_ratio() * 100.0),
            format!("{:.0}%", m.fog_share() * 100.0),
            m.offload_decisions.to_string(),
            m.offload_shipped_tasks.to_string(),
            format!("{:.2} J", m.total_radio_energy().as_joules()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Topology",
                "Delivered",
                "Fog share",
                "Offload decisions",
                "Tasks shipped",
                "Radio energy",
            ],
            &rows,
        )
    );
    println!("Mesh routes cut relay hop counts; the tier graph adds mains-powered");
    println!("gateways the offload balancer ships starved nodes' backlogs to.");
    Ok(())
}
