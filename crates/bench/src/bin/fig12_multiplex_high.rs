//! Regenerates Figure 12: NVD4Q node multiplexing in a high-power,
//! large-variance environment (sunny mountain) — gains are minimal
//! because the in-fog processing rate is already high.

use neofog_bench::{banner, BenchArgs, Flag};
use neofog_core::experiment::multiplex_sweep_with;
use neofog_core::report::{render_bars, render_table};
use neofog_core::StderrTicker;
use neofog_energy::Scenario;

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit(&[Flag::Events, Flag::Seed, Flag::Workers]);
    banner(
        "Figure 12 (high power, independent variance)",
        "paper: VP w/o LB ~5000; NVP edges ~9500; multiplexing adds little",
    );
    let factors = [1u32, 2, 3, 4, 5];
    let (points, vp) = multiplex_sweep_with(
        Scenario::MountainSunny,
        &factors,
        args.seed.unwrap_or(3),
        args.events.as_deref(),
        &args.pool(),
        &mut StderrTicker::new("fig12"),
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
    let best = points.iter().map(|p| p.fog_processed).max().unwrap_or(0) as f64;
    println!(
        "Best multiplexing gain over 100%: {:.2}X (paper: minimal)",
        best / base
    );
    Ok(())
}
