//! Regenerates Figure 10: wakeups / cloud-processed / fog-processed
//! packages for five independent (forest) power profiles.

use neofog_bench::{banner, BenchArgs, Flag};
use neofog_core::experiment::{average_row, figure10_11_with};
use neofog_core::report::render_table;
use neofog_core::StderrTicker;
use neofog_energy::Scenario;

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit(&[Flag::Events, Flag::Workers]);
    banner(
        "Figure 10 (independent power)",
        "paper avg: VP 13656 wake / 2664 cloud; NVP 12383 / 3236 total (3045 fog); NEOFog 5582 total (5018 fog); ideal 15000",
    );
    let rows_data = figure10_11_with(
        Scenario::ForestIndependent,
        &[1, 2, 3, 4, 5],
        args.events.as_deref(),
        &args.pool(),
        &mut StderrTicker::new("fig10"),
    )?;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for r in &rows_data {
        for s in &r.systems {
            rows.push(vec![
                format!("profile {}", r.profile),
                s.system.label().to_string(),
                s.wakeups.to_string(),
                s.cloud.to_string(),
                s.fog.to_string(),
                s.total().to_string(),
            ]);
        }
    }
    let avg = average_row(&rows_data);
    for s in &avg {
        rows.push(vec![
            "Average".to_string(),
            s.system.label().to_string(),
            s.wakeups.to_string(),
            s.cloud.to_string(),
            s.fog.to_string(),
            s.total().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Profile", "System", "Wakeups", "Cloud", "Fog", "Total"],
            &rows
        )
    );
    let vp = avg[0].total().max(1) as f64;
    let nvp = avg[1].total().max(1) as f64;
    let neo = avg[2].total() as f64;
    println!("Average network-output gains: NEOFog/VP = {:.1}X (paper 2.8X), NEOFog/NVP = {:.1}X (paper 2.0X)", neo / vp, neo / nvp);
    Ok(())
}
