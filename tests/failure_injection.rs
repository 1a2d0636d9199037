//! Integration tests: failure modes degrade performance, never
//! functionality (paper §3.2 and §4).

use neofog::core::balance::{DistributedBalancer, FogTask, LoadBalancer, NodeBalanceState};
use neofog::core::sim::BalancerKind;
use neofog::net::TopologySpec;
use neofog::prelude::*;
use proptest::prelude::{any, prop_assert, proptest, ProptestConfig};
use proptest::sample::select;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
    let report = DistributedBalancer::new(60).balance(&mut chain);
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

const SCENARIOS: [Scenario; 4] = [
    Scenario::ForestIndependent,
    Scenario::BridgeDependent,
    Scenario::MountainSunny,
    Scenario::MountainRainy,
];

const BALANCERS: [BalancerKind; 4] = [
    BalancerKind::None,
    BalancerKind::Tree,
    BalancerKind::Distributed,
    BalancerKind::Offload,
];

/// Slot lengths and trace intervals, µs, each with the slot count it
/// forces (`None` keeps the drawn one). None makes more trace samples
/// per slot than the paper's 12 s slots at 1 s: the paper's timing, an
/// interval that does not divide the slot, one longer than the slot,
/// a 1 s slot, a sub-second slot (which the Distributed balancer
/// rejects), two windows that run past `u64::MAX` µs, which
/// `Simulator::new` rejects: the window itself, and the end of its
/// last trace sample; and the longest window it accepts, one slot of
/// `u64::MAX` µs sampled once, whose Distributed `MAXTIME` must fit.
const TIMINGS: [(u64, u64, Option<u64>); 8] = [
    (12_000_000, 1_000_000, None),
    (12_000_000, 5_000_000, None),
    (12_000_000, 13_000_000, None),
    (1_000_000, 1_000_000, None),
    (500_000, 1_000_000, None),
    (u64::MAX / 2, 1_000_000, Some(3)),
    (u64::MAX / 3, u64::MAX / 2, Some(3)),
    (u64::MAX, u64::MAX, Some(1)),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No configuration panics the slot loop: a fleet sweep runs
    /// thousands of simulations, and one panic aborts them all. A
    /// configuration is either rejected by `Simulator::new` or runs to
    /// the end on at least one physical node, with processed <=
    /// captured <= wakeups and a finite delivery ratio. The draws
    /// include empty chains (0 positions, multiplex 0), capacitors of
    /// zero or infinite size and windows past `u64::MAX` µs, which must
    /// be rejected, and runs of 0 slots, which must not.
    #[test]
    fn random_configurations_never_panic(
        (system, scenario, balancer) in (0usize..3, 0usize..4, 0usize..4),
        (topology, edge_prob, graph_seed, gateways) in
            (0usize..3, 0.0..1.0f64, any::<u64>(), 0usize..5),
        (positions, multiplex, slots) in (0usize..41, 0u32..6, 0u64..201),
        (seed, weather_loss, initial_charge) in (any::<u64>(), 0.0..1.0f64, 0.0..1.0f64),
        capacity_mj in select(vec![0.0, f64::INFINITY, 0.5, 5.0, 20.0, 100.0, 200.0, 400.0]),
        timing in select(TIMINGS.to_vec()),
    ) {
        let mut cfg = SimConfig::paper_default(SystemKind::ALL[system], SCENARIOS[scenario], seed);
        cfg.balancer = BALANCERS[balancer];
        cfg.topology = match topology {
            0 => TopologySpec::Chain,
            1 => TopologySpec::ErdosRenyi { edge_prob, seed: graph_seed },
            _ => TopologySpec::Tiered { gateways },
        };
        cfg.positions = positions;
        cfg.multiplex = multiplex;
        let (slot_us, dt_us, fixed_slots) = timing;
        cfg.slot_len = Duration::from_micros(slot_us);
        cfg.trace_dt = Duration::from_micros(dt_us);
        cfg.slots = fixed_slots.unwrap_or(slots);
        cfg.weather_loss = weather_loss;
        cfg.node.initial_charge = initial_charge;
        cfg.node.cap_capacity = Energy::from_millijoules(capacity_mj);
        let run = catch_unwind(AssertUnwindSafe(|| Simulator::new(cfg.clone()).map(Simulator::run)));
        prop_assert!(run.is_ok(), "panicked on {cfg:?}");
        if let Ok(Ok(result)) = run {
            let m = &result.metrics;
            prop_assert!(!m.nodes.is_empty(), "no physical node: {cfg:?}");
            prop_assert!(m.total_processed() <= m.total_captured(), "{cfg:?}");
            prop_assert!(m.total_captured() <= m.total_wakeups(), "{cfg:?}");
            prop_assert!(result.delivery_ratio().is_finite(), "{cfg:?}");
        }
    }
}
