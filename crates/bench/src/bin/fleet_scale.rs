//! Demonstrates the paper's §4 scale claim: thousands of single-node
//! simulators at once (defaults: 100 chains x 10 nodes = 1000 nodes
//! for the intra-chain study, and 5000 nodes with 5x NVD4Q
//! multiplexing for the inter-chain study), with the distribution of
//! per-chain outcomes the 10-node figures are drawn from.
//!
//! `--chains`, `--slots`, `--seed` and `--workers` rescale the run;
//! the streaming fleet reducer keeps ~24 bytes per chain, so chain
//! counts in the hundreds of thousands are memory-safe.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "reports its own wall time; the clock never reaches a simulation"
)]

use neofog_bench::{banner, BenchArgs, Flag};
use neofog_core::fleet::run_fleet_with;
use neofog_core::report::render_table;
use neofog_core::sim::SimConfig;
use neofog_core::{StderrTicker, SystemKind};
use neofog_energy::Scenario;
use std::time::Instant;

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit(&[Flag::Seed, Flag::Slots, Flag::Chains, Flag::Workers]);
    let chains = args.chains.unwrap_or(100);
    let slots = args.slots.unwrap_or(500);
    let seed = args.seed.unwrap_or(1);
    let pool = args.pool();
    banner(
        "Fleet scale (§4)",
        "1000 nodes intra-chain; 1000-5000 nodes inter-chain with NVD4Q",
    );
    // Intra-chain: independent 10-node chains.
    let mut base =
        SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, seed);
    base.slots = slots;
    let t0 = Instant::now();
    let intra = run_fleet_with(&base, chains, &pool, &mut StderrTicker::new("intra"))?;
    let intra_secs = t0.elapsed().as_secs_f64();

    // Inter-chain: the same chains at 5x multiplexing (5x the nodes).
    let mut multi = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::MountainRainy, seed);
    multi.slots = slots;
    multi.multiplex = 5;
    let t1 = Instant::now();
    let inter = run_fleet_with(&multi, chains, &pool, &mut StderrTicker::new("inter"))?;
    let inter_secs = t1.elapsed().as_secs_f64();

    let fmt = |s: &neofog_core::fleet::FleetStat| {
        vec![
            format!("{:.0}", s.mean),
            format!("{:.0}", s.std_dev),
            format!("{:.0}", s.min),
            format!("{:.0}", s.p10),
            format!("{:.0}", s.p50),
            format!("{:.0}", s.p90),
            format!("{:.0}", s.max),
        ]
    };
    for (label, fleet, secs) in [
        ("intra-chain", &intra, intra_secs),
        ("inter-chain (5x NVD4Q)", &inter, inter_secs),
    ] {
        println!(
            "--- {label}: {} chains / {} nodes, simulated in {secs:.1}s ---",
            fleet.chains, fleet.nodes
        );
        let mut rows = Vec::new();
        for (name, stat) in [
            ("captured / chain", &fleet.captured),
            ("processed / chain", &fleet.total),
            ("in-fog / chain", &fleet.fog),
        ] {
            let mut row = vec![name.to_string()];
            row.extend(fmt(stat));
            rows.push(row);
        }
        println!(
            "{}",
            render_table(
                &["metric", "mean", "sd", "min", "p10", "p50", "p90", "max"],
                &rows
            )
        );
        println!("network-wide in-fog packages: {}\n", fleet.fog_sum);
    }
    Ok(())
}
