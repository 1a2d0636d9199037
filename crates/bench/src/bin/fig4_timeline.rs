//! Regenerates Figures 1 and 4: per-phase activation timing of the
//! NOS-VP, NOS-NVP and FIOS-NEOFog node designs.
//!
//! With `--events <path>` the binary additionally runs a short
//! FIOS-NEOFog slot simulation and streams its typed event log to
//! `<path>` as JSONL, so the per-slot phase sequence behind the
//! timing figures can be inspected line by line.

use neofog_bench::{banner, BenchArgs, Flag};
use neofog_core::report::render_table;
use neofog_core::sim::{SimConfig, Simulator};
use neofog_core::timeline::Timeline;
use neofog_core::SystemKind;
use neofog_energy::Scenario;

fn main() -> neofog_types::Result<()> {
    let args = BenchArgs::parse_or_exit(&[Flag::Events, Flag::Seed, Flag::Slots]);
    banner(
        "Figures 1 & 4",
        "NOS-VP ~646 ms to first byte; NOS-NVP 36 ms; NEOFog radio work ~4 ms",
    );
    for system in SystemKind::ALL {
        let tl = Timeline::figure4(system, 8);
        println!("--- {} ---", system.label());
        let rows: Vec<Vec<String>> = tl
            .phases
            .iter()
            .map(|p| {
                vec![
                    p.name.to_string(),
                    format!("{}", p.duration),
                    if p.on_intermittent_power {
                        "intermittent".into()
                    } else {
                        "stored".into()
                    },
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["Phase", "Duration", "Power source"], &rows)
        );
        println!(
            "total: {}   stored-energy window: {}\n",
            tl.total(),
            tl.stored_energy_time()
        );
    }
    let vp = Timeline::figure4(SystemKind::NosVp, 8);
    let neo = Timeline::figure4(SystemKind::FiosNeoFog, 8);
    println!(
        "stored-energy window shrinks {}x from NOS-VP to FIOS-NEOFog",
        vp.stored_energy_time().as_micros() / neo.stored_energy_time().as_micros().max(1)
    );
    if let Some(path) = args.events {
        let slots = args.slots.unwrap_or(60);
        let mut cfg = SimConfig::paper_default(
            SystemKind::FiosNeoFog,
            Scenario::ForestIndependent,
            args.seed.unwrap_or(1),
        );
        cfg.slots = slots;
        cfg.events_path = Some(path.clone());
        let result = Simulator::new(cfg)?.run();
        println!(
            "\nevent log: wrote {slots} slots of FIOS-NEOFog events to {path} \
             ({} packages captured)",
            result.metrics.total_captured()
        );
    }
    Ok(())
}
