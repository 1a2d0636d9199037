//! Integration tests: failure modes degrade performance, never
//! functionality (paper §3.2 and §4).

use neofog::core::balance::{DistributedBalancer, FogTask, LoadBalancer, NodeBalanceState};
use neofog::core::sim::BalancerKind;
use neofog::prelude::*;

#[test]
fn interrupted_balancing_affects_performance_not_functionality() {
    // A chain where every node is too weak to run the exchange: the
    // balancer must leave all queues untouched and report the
    // interruptions (paper: "no load balance will take place at that
    // region. This failure affects performance, but not functionality").
    let nodes: Vec<NodeBalanceState> = (0..6)
        .map(|i| NodeBalanceState {
            node: NodeId::new(i),
            spare_energy: Energy::from_microjoules(5.0), // below exchange cost
            efficiency: 1.0 / 2.508,
            throughput: 83_333.0,
            tasks: vec![FogTask::new(500_000, u64::from(i))],
            alive: true,
        })
        .collect();
    let mut chain = neofog::core::balance::ChainBalanceInput { nodes };
    let before = chain.clone();
    let report = DistributedBalancer::new(60).balance(&mut chain, &mut SimRng::seed_from(1));
    assert_eq!(report.tasks_moved, 0);
    assert!(report.interrupted_regions > 0);
    assert_eq!(chain, before, "queues must be untouched");
}

#[test]
fn starvation_scenario_never_panics_and_keeps_invariants() {
    // Near-zero income: everything fails energetically, nothing breaks.
    for system in SystemKind::ALL {
        let mut cfg = SimConfig::paper_default(system, Scenario::MountainRainy, 7);
        cfg.slots = 300;
        cfg.node.cap_capacity = Energy::from_millijoules(5.0);
        cfg.node.initial_charge = 0.0;
        let result = Simulator::new(cfg).expect("valid config").run();
        let m = &result.metrics;
        assert!(m.total_processed() <= m.total_captured());
        assert!(m.total_captured() <= m.total_wakeups());
        assert!(m.total_wakeups() + m.total_failures() <= 300 * 10);
    }
}

#[test]
fn packet_loss_scales_with_weather() {
    let clear = {
        let mut cfg =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 5);
        cfg.slots = 400;
        Simulator::new(cfg).expect("valid config").run()
    };
    let stormy = {
        let mut cfg =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 5);
        cfg.slots = 400;
        cfg.weather_loss = 0.30;
        Simulator::new(cfg).expect("valid config").run()
    };
    assert!(
        stormy.metrics.total_processed() < clear.metrics.total_processed(),
        "storm loss must cost deliveries: {} vs {}",
        stormy.metrics.total_processed(),
        clear.metrics.total_processed()
    );
}

#[test]
fn volatile_nodes_drop_undelivered_work() {
    let mut cfg = SimConfig::paper_default(SystemKind::NosVp, Scenario::ForestIndependent, 3);
    cfg.slots = 300;
    let result = Simulator::new(cfg).expect("valid config").run();
    let m = &result.metrics;
    // A VP can only deliver what it transmits in the same slot; the
    // rest evaporates at power-down.
    assert!(m.total_dropped() > 0);
    assert_eq!(m.total_captured(), m.total_processed() + m.total_dropped());
}

#[test]
fn balancer_misconfiguration_is_harmless() {
    // Running the VP system with a balancer configured is a no-op (it
    // has no fog tasks), not a crash.
    let mut cfg = SimConfig::paper_default(SystemKind::NosVp, Scenario::ForestIndependent, 9);
    cfg.balancer = BalancerKind::Distributed;
    cfg.slots = 200;
    let result = Simulator::new(cfg).expect("valid config").run();
    assert_eq!(result.metrics.balance_tasks_moved, 0);
    assert_eq!(result.metrics.fog_processed(), 0);
}
