//! Regression tests for the shared-base chain plan.
//!
//! Historically `TraceGenerator::node_trace` re-forked the base stream
//! (`0xBA5E`) on every call, so each call rebuilt a *different* base
//! curve and "dependent" nodes generated one at a time were not
//! actually correlated with the batch output. The plan API fixes this:
//! single-trace generation must be element-wise identical to batch
//! generation for every scenario, and the dependent base curve must be
//! synthesized once and shared. The simulator's per-slot incomes, which
//! the plan folds without storing a trace, one node or two per pass,
//! must equal the curve integrals bit for bit.

use neofog_energy::{EnergyCurve, Scenario, TraceGenerator};
use neofog_types::{Duration, Energy};
use std::sync::Arc;

const SCENARIOS: [Scenario; 4] = [
    Scenario::ForestIndependent,
    Scenario::BridgeDependent,
    Scenario::MountainSunny,
    Scenario::MountainRainy,
];

fn dims() -> (Duration, Duration) {
    (Duration::from_mins(30), Duration::from_secs(1))
}

#[test]
fn node_trace_matches_node_traces_elementwise() {
    let (total, dt) = dims();
    for scenario in SCENARIOS {
        let gen = TraceGenerator::new(scenario, 7);
        let batch = gen.node_traces(6, total, dt);
        for (i, expected) in batch.iter().enumerate() {
            let single = gen.node_trace(i as u64, total, dt);
            assert_eq!(&single, expected, "{scenario:?} node {i}");
        }
    }
}

#[test]
fn chain_plan_matches_node_traces() {
    let (total, dt) = dims();
    for scenario in SCENARIOS {
        let gen = TraceGenerator::new(scenario, 21);
        let batch = gen.node_traces(5, total, dt);
        let plan = gen.chain_plan(5, total, dt);
        assert_eq!(plan.len(), 5);
        for (i, expected) in batch.iter().enumerate() {
            assert_eq!(&plan.node_trace(i), expected, "{scenario:?} node {i}");
        }
    }
}

#[test]
fn plan_realization_is_order_independent() {
    let (total, dt) = dims();
    let gen = TraceGenerator::new(Scenario::BridgeDependent, 3);
    let plan = gen.chain_plan(4, total, dt);
    // Realizing node 3 first must not change what node 0 produces.
    let late_first = plan.node_trace(3);
    let early = plan.node_trace(0);
    let fresh = gen.chain_plan(4, total, dt);
    assert_eq!(fresh.node_trace(0), early);
    assert_eq!(fresh.node_trace(3), late_first);
}

#[test]
fn dependent_plans_share_one_base() {
    let (total, dt) = dims();
    for scenario in SCENARIOS {
        let plan = TraceGenerator::new(scenario, 5).chain_plan(8, total, dt);
        if scenario.is_dependent() {
            let base = plan.base().expect("dependent plans carry a base");
            // Cloning the plan shares the base allocation instead of
            // re-synthesizing it.
            let clone = plan.clone();
            assert!(Arc::ptr_eq(
                base,
                clone.base().expect("clone keeps the base")
            ));
        } else {
            assert!(plan.base().is_none(), "{scenario:?} must not build a base");
        }
    }
}

#[test]
fn separately_generated_dependent_nodes_are_correlated() {
    // The old per-call re-fork gave every call its own weather walk;
    // two traces requested one at a time now share the same base.
    let (total, dt) = dims();
    let gen = TraceGenerator::new(Scenario::BridgeDependent, 1);
    let a = gen.node_trace(0, total, dt);
    let b = gen.node_trace(1, total, dt);
    let corr = correlation(&a, &b);
    assert!(corr > 0.8, "dependent correlation too low: {corr}");
}

#[test]
fn node_curve_equals_scaled_trace_curve() {
    let (total, dt) = dims();
    for scenario in [Scenario::ForestIndependent, Scenario::MountainRainy] {
        let plan = TraceGenerator::new(scenario, 11).chain_plan(3, total, dt);
        for i in 0..3 {
            let via_plan = plan.node_curve(i, 0.75);
            let by_hand = EnergyCurve::new(plan.node_trace(i).scaled(0.75));
            assert_eq!(via_plan, by_hand, "{scenario:?} node {i}");
        }
    }
}

#[test]
fn slot_incomes_equal_curve_integrals_bit_for_bit() {
    // Trace intervals that divide the 12 s slot, that do not (5 s,
    // 7 s) and that are longer than it (13 s, 30 s); windows from none
    // to the paper's 1,500 slots; scales that clamp every sample to
    // zero, that zero it, and that scale it down and up.
    let slot = Duration::from_secs(12);
    let scales = [-1.0, 0.0, 0.75, 1.0, 3.0];
    let mut compared = 0;
    let mut paired = 0;
    for scenario in SCENARIOS {
        for seed in [1, 2, 97] {
            for dt_secs in [1, 5, 7, 12, 13, 30] {
                for slots in [0, 1, 37, 1500] {
                    let total = Duration::from_micros(slot.as_micros() * slots);
                    let plan = TraceGenerator::new(scenario, seed).chain_plan(
                        4,
                        total,
                        Duration::from_secs(dt_secs),
                    );
                    // Each node's lone fold, node-major, then scale.
                    let mut alone = Vec::new();
                    for i in 0..4 {
                        for scale in scales {
                            let curve = plan.node_curve(i, scale);
                            // A simulator keeps at least one slot's
                            // income, even over an empty window.
                            let mut incomes =
                                vec![Energy::from_nanojoules(-1.0); slots.max(1) as usize];
                            plan.slot_incomes(i, scale, slot, &mut incomes);
                            let mut t0 = Duration::ZERO;
                            for (s, income) in incomes.iter().enumerate() {
                                let want = curve.energy_between(t0, t0 + slot);
                                assert_eq!(
                                    income.as_nanojoules().to_bits(),
                                    want.as_nanojoules().to_bits(),
                                    "{scenario:?} seed {seed}, dt {dt_secs} s, {slots} slots, \
                                     node {i}, scale {scale}: slot {s}"
                                );
                                t0 += slot;
                            }
                            compared += incomes.len();
                            alone.push(incomes);
                        }
                    }
                    // The same nodes folded two per pass, as
                    // `Simulator::new` folds them, with the lanes in
                    // either order: each lane equals its node's lone
                    // fold.
                    for (k, scale) in scales.into_iter().enumerate() {
                        for [a, b] in [[0, 1], [2, 3], [3, 0]] {
                            let blank = vec![Energy::from_nanojoules(-1.0); slots.max(1) as usize];
                            let mut lanes = [blank.clone(), blank];
                            let [lane_a, lane_b] = &mut lanes;
                            plan.slot_incomes_lanes([a, b], scale, slot, [lane_a, lane_b]);
                            for (node, lane) in [a, b].into_iter().zip(&lanes) {
                                let want = &alone[node * scales.len() + k];
                                for (s, (got, want)) in lane.iter().zip(want).enumerate() {
                                    assert_eq!(
                                        got.as_nanojoules().to_bits(),
                                        want.as_nanojoules().to_bits(),
                                        "{scenario:?} seed {seed}, dt {dt_secs} s, {slots} slots, \
                                         lanes {a} and {b}, node {node}, scale {scale}: slot {s}"
                                    );
                                }
                                paired += lane.len();
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(compared, 4 * 3 * 6 * 4 * 5 * (1 + 1 + 37 + 1500));
    assert_eq!(paired, 4 * 3 * 6 * 5 * 3 * 2 * (1 + 1 + 37 + 1500));
}

fn correlation(a: &neofog_energy::PowerTrace, b: &neofog_energy::PowerTrace) -> f64 {
    let av: Vec<f64> = a.samples().iter().map(|p| p.as_milliwatts()).collect();
    let bv: Vec<f64> = b.samples().iter().map(|p| p.as_milliwatts()).collect();
    let n = av.len().min(bv.len()) as f64;
    let ma = av.iter().sum::<f64>() / n;
    let mb = bv.iter().sum::<f64>() / n;
    let cov: f64 = av.iter().zip(&bv).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = av.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = bv.iter().map(|y| (y - mb).powi(2)).sum();
    cov / (va.sqrt() * vb.sqrt()).max(f64::EPSILON)
}
