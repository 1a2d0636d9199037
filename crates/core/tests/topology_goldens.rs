//! Determinism goldens for the non-chain topologies.
//!
//! The chain goldens live in `columns_goldens.rs` and pin the exact
//! pre-topology-layer event logs; this file covers the new shapes. No
//! external pin exists for a mesh or a tier graph, so the contract is
//! run-twice reproducibility: the same `(topology, seed, balancer)`
//! must write a byte-identical event log every time, and the offload
//! balancer must actually resolve decisions on mains-tiered graphs.

use neofog_core::sim::{BalancerKind, SimConfig, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;
use neofog_net::TopologySpec;

fn routed(topology: TopologySpec, tag: &str, run: usize) -> (String, u64) {
    let path = std::env::temp_dir().join(format!(
        "neofog-topology-golden-{}-{tag}-{run}.jsonl",
        std::process::id()
    ));
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 9);
    cfg.positions = 12;
    cfg.slots = 80;
    cfg.topology = topology;
    cfg.balancer = BalancerKind::Offload;
    cfg.events_path = Some(path.display().to_string());
    let result = Simulator::new(cfg).expect("valid config").run();
    let text = std::fs::read_to_string(&path).expect("event log written");
    std::fs::remove_file(&path).ok();
    (text, result.metrics.offload_decisions)
}

#[test]
fn mesh_event_log_is_run_twice_identical() {
    let topo = TopologySpec::ErdosRenyi {
        edge_prob: 0.3,
        seed: 7,
    };
    let (a, decisions) = routed(topo, "mesh", 0);
    let (b, _) = routed(topo, "mesh", 1);
    assert_eq!(a, b, "mesh event logs diverged between identical runs");
    assert!(!a.is_empty());
    assert!(
        decisions > 0,
        "offload balancer resolved no decisions on the mesh"
    );
    assert!(
        a.contains("\"kind\":\"offload_decided\""),
        "no offload_decided events in the mesh log"
    );
}

#[test]
fn tiered_event_log_is_run_twice_identical() {
    let topo = TopologySpec::Tiered { gateways: 2 };
    let (a, decisions) = routed(topo, "tiered", 0);
    let (b, _) = routed(topo, "tiered", 1);
    assert_eq!(a, b, "tiered event logs diverged between identical runs");
    assert!(
        decisions > 0,
        "offload balancer resolved no decisions on the tier graph"
    );
    assert!(a.contains("\"kind\":\"offload_decided\""));
}

#[test]
fn distinct_seeds_give_distinct_meshes() {
    // Sanity that the mesh golden is not vacuous: a different graph
    // seed actually changes the log.
    let (a, _) = routed(
        TopologySpec::ErdosRenyi {
            edge_prob: 0.3,
            seed: 7,
        },
        "seed7",
        0,
    );
    let (b, _) = routed(
        TopologySpec::ErdosRenyi {
            edge_prob: 0.3,
            seed: 8,
        },
        "seed8",
        0,
    );
    assert_ne!(a, b, "graph seed had no effect on the event log");
}
