//! Integration tests for NVD4Q virtualization in the simulator: slot
//! partitioning between clones and its effect on duty and hops.

use neofog::net::TopologySpec;
use neofog::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn multiplexed_simulation_halves_per_node_duty() {
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::MountainSunny, 8);
    cfg.multiplex = 2;
    cfg.slots = 400;
    let result = Simulator::new(cfg).expect("valid config").run();
    let m = &result.metrics;
    assert_eq!(m.nodes.len(), 20);
    for (i, node) in m.nodes.iter().enumerate() {
        assert!(
            node.wakeups + node.failures <= 200,
            "clone {i} scheduled more than 1/2 of slots"
        );
    }
    // The logical network still captures at (almost) the full rate.
    assert!(
        m.total_captured() > 3_600,
        "captured {}",
        m.total_captured()
    );
}

#[test]
fn only_the_on_duty_clone_tries_to_wake() {
    /// Every wake attempt, woken or failed, as `(slot, node)`.
    struct WakeAttempts {
        slot: u64,
        seen: Rc<RefCell<Vec<(u64, usize)>>>,
    }
    impl SimObserver for WakeAttempts {
        fn on_event(&mut self, event: &SimEvent) {
            match *event {
                SimEvent::SlotBegan { slot } => self.slot = slot,
                SimEvent::NodeWoke { node } | SimEvent::WakeFailed { node } => {
                    self.seen.borrow_mut().push((self.slot, node));
                }
                _ => {}
            }
        }
    }
    for topology in [TopologySpec::Chain, TopologySpec::Tiered { gateways: 2 }] {
        for m in [2u32, 3, 5] {
            let mut cfg =
                SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::MountainSunny, 4);
            cfg.topology = topology;
            cfg.multiplex = m;
            cfg.slots = 60;
            let seen = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(cfg).expect("valid config");
            sim.attach_observer(Box::new(WakeAttempts {
                slot: 0,
                seen: Rc::clone(&seen),
            }));
            let _ = sim.run();
            let m = m as usize;
            let mut clones_seen = vec![false; m];
            for &(slot, node) in seen.borrow().iter() {
                // Node `i` is clone `i % m` of its position.
                let clone = node % m;
                assert_eq!(
                    clone as u64,
                    slot % m as u64,
                    "{topology:?}, multiplex {m}: clone {clone} (node {node}) tried to wake in slot {slot}"
                );
                clones_seen[clone] = true;
            }
            assert!(
                clones_seen.iter().all(|&s| s),
                "{topology:?}, multiplex {m}: some clone never took a turn"
            );
        }
    }
}

#[test]
fn virtualization_does_not_change_logical_hops() {
    // NVD4Q's contrast with naive densification (Figure 7): the
    // simulated chain keeps `positions` logical hops regardless of M.
    for factor in [1u32, 4] {
        let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::MountainSunny, 2);
        cfg.multiplex = factor;
        cfg.slots = 200;
        let result = Simulator::new(cfg).expect("valid config").run();
        // Delivery ratio is governed by the 10-position chain loss, so
        // it must not degrade with physical density.
        assert!(result.metrics.total_processed() > 0);
    }
}
