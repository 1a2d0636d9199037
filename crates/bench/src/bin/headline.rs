//! Reproduces the paper's headline claim: "the NV-aware optimizations
//! in NEOFog increase the ability to perform in-fog processing by 4.2X
//! and can increase this to 8X if virtualized nodes are 3X multiplexed."

use neofog_bench::{banner, BenchArgs, Flag};
use neofog_core::experiment::headline_with;
use neofog_core::StderrTicker;

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit(&[Flag::Seed, Flag::Workers]);
    banner(
        "Headline (abstract)",
        "4.2X in-fog at baseline; 8X at 3X multiplexing",
    );
    let h = headline_with(
        args.seed.unwrap_or(3),
        &args.pool(),
        &mut StderrTicker::new("headline"),
    )?;
    println!(
        "in-fog gain over NOS-VP, baseline node count : {:.1}X (paper 4.2X)",
        h.baseline_gain
    );
    println!(
        "in-fog gain over NOS-VP, 3X multiplexing     : {:.1}X (paper 8X)",
        h.multiplexed_gain
    );
    println!();
    println!("Both gains land above the paper's figures because our NOS-VP");
    println!("baseline is weaker in the rainy scenario (see EXPERIMENTS.md);");
    println!("the ordering and the ~2X step from baseline to 3X multiplexing");
    println!("match the paper.");
    Ok(())
}
