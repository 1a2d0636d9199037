//! Integration tests: the qualitative results of the paper's
//! evaluation hold in reduced-scale simulations.
//!
//! These tests run the system simulator at 1/3 to full scale and assert
//! the *shape* of Figures 10-13: who wins, roughly by what factor, and
//! where the multiplexing benefit saturates.

use neofog::prelude::*;

fn run(system: SystemKind, scenario: Scenario, seed: u64, slots: u64) -> SimResult {
    let mut cfg = SimConfig::paper_default(system, scenario, seed);
    cfg.slots = slots;
    Simulator::new(cfg).expect("valid config").run()
}

#[test]
fn figure10_ordering_neofog_nvp_vp() {
    // Average over three profiles to wash out seed luck.
    let mut totals = [0u64; 3];
    let mut fogs = [0u64; 3];
    for seed in 1..=3 {
        for (k, system) in SystemKind::ALL.iter().enumerate() {
            let r = run(*system, Scenario::ForestIndependent, seed, 500);
            totals[k] += r.metrics.total_processed();
            fogs[k] += r.metrics.fog_processed();
        }
    }
    let [vp, nvp, neo] = totals;
    assert!(nvp > vp, "NVP ({nvp}) should beat VP ({vp})");
    assert!(neo > nvp, "NEOFog ({neo}) should beat NVP ({nvp})");
    // Paper: 2.8X over VP, 2.0X over NVP (we land slightly lower).
    let neo_f = neo as f64;
    assert!(neo_f / vp as f64 > 1.5, "NEO/VP {}", neo_f / vp as f64);
    assert!(neo_f / nvp as f64 > 1.4, "NEO/NVP {}", neo_f / nvp as f64);
    // VP does no fog processing; NVP systems do mostly fog.
    assert_eq!(fogs[0], 0);
    assert!(fogs[2] as f64 > 0.9 * neo_f);
}

#[test]
fn figure11_dependent_gains_are_smaller_but_present() {
    let mut dep = [0u64; 3];
    for seed in 1..=3 {
        for (k, system) in SystemKind::ALL.iter().enumerate() {
            dep[k] += run(*system, Scenario::BridgeDependent, seed, 500)
                .metrics
                .total_processed();
        }
    }
    assert!(dep[2] > dep[1] && dep[1] > dep[0], "{dep:?}");
    // Paper: 2.1X / 1.7X for the dependent case.
    let gain_vp = dep[2] as f64 / dep[0] as f64;
    assert!((1.4..=3.5).contains(&gain_vp), "NEO/VP dependent {gain_vp}");
}

#[test]
fn wakeup_counts_vp_higher_than_nvp() {
    // The NVP's higher activation threshold costs it wakeups (paper:
    // 13656 vs 12383).
    let vp = run(SystemKind::NosVp, Scenario::ForestIndependent, 2, 500);
    let nvp = run(SystemKind::NosNvp, Scenario::ForestIndependent, 2, 500);
    assert!(vp.metrics.total_wakeups() >= nvp.metrics.total_wakeups());
    // Wakeups plus failures account for every scheduled slot.
    let m = &vp.metrics;
    assert_eq!(m.total_wakeups() + m.total_failures(), 500 * 10);
}

#[test]
fn figure12_sunny_multiplexing_adds_little() {
    let mut fogs = Vec::new();
    for factor in [1u32, 3] {
        let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::MountainSunny, 4);
        cfg.multiplex = factor;
        cfg.slots = 500;
        fogs.push(
            Simulator::new(cfg)
                .expect("valid config")
                .run()
                .metrics
                .fog_processed(),
        );
    }
    // High power: the in-fog rate is already high; 3x multiplexing
    // gains far less than 2x (the paper shows "minimal gains").
    let gain = fogs[1] as f64 / fogs[0].max(1) as f64;
    assert!(gain < 1.8, "sunny multiplex gain {gain}");
}

#[test]
fn figure13_rainy_multiplexing_doubles_then_saturates() {
    let mut fogs = Vec::new();
    for factor in [1u32, 3, 5] {
        let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::MountainRainy, 4);
        cfg.multiplex = factor;
        cfg.slots = 750;
        fogs.push(
            Simulator::new(cfg)
                .expect("valid config")
                .run()
                .metrics
                .fog_processed(),
        );
    }
    let g3 = fogs[1] as f64 / fogs[0].max(1) as f64;
    let g5 = fogs[2] as f64 / fogs[1].max(1) as f64;
    assert!(
        g3 > 1.6,
        "3x should roughly double in-fog processing, got {g3:.2}"
    );
    assert!(
        g5 < g3,
        "growth should slow beyond 3x: g3={g3:.2} g5={g5:.2}"
    );
}

#[test]
fn rainy_sampling_tops_out_below_ideal() {
    // Paper: "total successful sampling under the reduced power
    // conditions reduces to 8000" (of 15000).
    let r = run(SystemKind::FiosNeoFog, Scenario::MountainRainy, 4, 1500);
    let captured = r.metrics.total_captured();
    assert!(
        (6500..=9500).contains(&captured),
        "rainy captured {captured} should be near the paper's 8000"
    );
}

#[test]
fn neofog_spends_radio_budget_on_compute_instead() {
    let vp = run(SystemKind::NosVp, Scenario::ForestIndependent, 1, 500);
    let neo = run(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1, 500);
    assert!(
        neo.metrics.total_radio_energy() < vp.metrics.total_radio_energy() * 0.2,
        "NVRF should slash radio energy"
    );
    assert!(neo.metrics.total_compute_energy() > vp.metrics.total_compute_energy());
}

#[test]
fn figure9_vp_hoards_stored_energy() {
    // Figure 9: the VP without load balancing keeps its capacitor far
    // fuller than balanced NVP nodes, which convert the same income
    // into fog work instead.
    let results =
        neofog::core::experiment::figure9_with(1, None, &PoolConfig::default(), &mut NoProgress)
            .expect("figure9 runs");
    let mean = |m: &neofog::core::NetworkMetrics| -> f64 {
        let values: Vec<f32> = m
            .nodes
            .iter()
            .take(3)
            .flat_map(|n| n.stored_series.iter().copied())
            .collect();
        values.iter().map(|&v| f64::from(v)).sum::<f64>() / values.len() as f64
    };
    let vp = mean(&results[0].1);
    let tree = mean(&results[1].1);
    let dist = mean(&results[2].1);
    assert!(vp > 3.0 * tree, "VP {vp:.1} vs tree-balanced {tree:.1}");
    assert!(vp > 3.0 * dist, "VP {vp:.1} vs distributed {dist:.1}");
}

#[test]
fn headline_gains_exceed_paper_baseline() {
    // The abstract: 4.2X in-fog at baseline, 8X at 3X multiplexing.
    // Our NOS-VP baseline is weaker in rain, so the measured gains sit
    // above the paper's; assert they at least clear the paper's bar.
    let h = neofog::core::experiment::headline_with(3, &PoolConfig::default(), &mut NoProgress)
        .expect("headline runs");
    assert!(
        h.baseline_gain > 4.0,
        "baseline gain {:.1}",
        h.baseline_gain
    );
    assert!(h.multiplexed_gain > h.baseline_gain);
}
