//! Regenerates Figure 9: stored energy level of three consecutive
//! chain nodes under the three systems over a 5-hour daytime window.

use neofog_bench::{banner, BenchArgs, Flag};
use neofog_core::experiment::figure9_with;
use neofog_core::report::downsample;
use neofog_core::StderrTicker;

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit(&[Flag::Events, Flag::Seed, Flag::Workers]);
    banner(
        "Figure 9",
        "the unbalanced VP sits on a high stored level (it has nothing to \
         spend surplus on); balanced NVP systems run the store down by \
         doing fog work",
    );
    let results = figure9_with(
        args.seed.unwrap_or(1),
        args.events.as_deref(),
        &args.pool(),
        &mut StderrTicker::new("fig9"),
    )?;
    for node in 0..3 {
        println!("--- Node {} (stored energy, mJ, 0..300 min) ---", node + 1);
        for (label, metrics) in &results {
            let series = downsample(&metrics.nodes[node].stored_series, 25);
            let curve: Vec<String> = series.iter().map(|v| format!("{v:4.0}")).collect();
            println!("{label:24}: {}", curve.join(" "));
        }
        println!();
    }
    println!("Capacitor-full rejection over the window (energy wasted because");
    println!("the node had nothing useful to spend surplus on):");
    for (label, metrics) in &results {
        let rejected: f64 = metrics
            .nodes
            .iter()
            .take(3)
            .map(|n| n.rejected.as_millijoules())
            .sum();
        let mean_stored: f64 = metrics
            .nodes
            .iter()
            .take(3)
            .flat_map(|n| n.stored_series.iter())
            .map(|&v| f64::from(v))
            .sum::<f64>()
            / metrics
                .nodes
                .iter()
                .take(3)
                .map(|n| n.stored_series.len())
                .sum::<usize>() as f64;
        println!(
            "  {label:24} rejected {rejected:8.0} mJ across nodes 1-3, mean stored level {mean_stored:5.1} mJ"
        );
    }
    Ok(())
}
