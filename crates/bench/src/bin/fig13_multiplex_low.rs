//! Regenerates Figure 13: NVD4Q node multiplexing in a very-low-power,
//! dependent environment (rainy mountain) — longer accumulation per
//! clone substantially improves in-fog processing, saturating around
//! 3x as successful sampling tops out near 8000.

use neofog_bench::{banner, BenchArgs, Flag};
use neofog_core::experiment::multiplex_sweep_with;
use neofog_core::report::{render_bars, render_table};
use neofog_core::StderrTicker;
use neofog_energy::Scenario;

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit(&[Flag::Events, Flag::Seed, Flag::Workers]);
    banner(
        "Figure 13 (very low power, dependent variation)",
        "paper: VP ~725 in-fog; NEOFog 100% ~2800; ~2X at 300%; saturates (sampling ~8000)",
    );
    let factors = [1u32, 2, 3, 4, 5];
    let (points, vp) = multiplex_sweep_with(
        Scenario::MountainRainy,
        &factors,
        args.seed.unwrap_or(3),
        args.events.as_deref(),
        &args.pool(),
        &mut StderrTicker::new("fig13"),
    )?;
    let mut rows = vec![vec![
        "VP w/o load balance".to_string(),
        "-".to_string(),
        vp.to_string(),
        "-".to_string(),
    ]];
    for p in &points {
        rows.push(vec![
            format!("NEOFog {}00%", p.factor),
            p.captured.to_string(),
            p.total_processed.to_string(),
            p.fog_processed.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["Configuration", "Captured", "Processed", "In-fog"], &rows)
    );
    let labels: Vec<String> = std::iter::once("VP w/o LB".to_string())
        .chain(points.iter().map(|p| format!("{}00%", p.factor)))
        .collect();
    let values: Vec<f64> = std::iter::once(vp as f64)
        .chain(points.iter().map(|p| p.fog_processed as f64))
        .collect();
    println!("{}", render_bars(&labels, &values, 48));
    let base = points[0].fog_processed.max(1) as f64;
    let at3 = points
        .iter()
        .find(|p| p.factor == 3)
        .map_or(0, |p| p.fog_processed) as f64;
    let at4 = points
        .iter()
        .find(|p| p.factor == 4)
        .map_or(0, |p| p.fog_processed) as f64;
    let at5 = points
        .iter()
        .find(|p| p.factor == 5)
        .map_or(0, |p| p.fog_processed) as f64;
    println!("Gain at 300% over 100%: {:.2}X (paper ~2X)", at3 / base);
    println!(
        "Saturation beyond 300%: 400% adds {:+.1}%, 500% adds {:+.1}%",
        (at4 / at3 - 1.0) * 100.0,
        (at5 / at4 - 1.0) * 100.0
    );
    Ok(())
}
