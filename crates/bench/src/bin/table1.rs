//! Regenerates Table 1: functionality and components of current
//! energy-harvesting WSN systems.

use neofog_bench::{banner, BenchArgs};
use neofog_core::report::render_table;
use neofog_core::table1::deployed_systems;

fn main() {
    let _args = BenchArgs::parse_or_exit(&[]);
    banner(
        "Table 1",
        "catalog of deployed EH-WSN systems; all transmit raw data",
    );
    let rows: Vec<Vec<String>> = deployed_systems()
        .into_iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.energy_source.to_string(),
                s.sensors.to_string(),
                s.topology.to_string(),
                s.transmitted_data.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Existing System",
                "Energy Source",
                "Sensors",
                "Network Topology",
                "Transmitted Data"
            ],
            &rows,
        )
    );
    println!(
        "Chain-mesh deployments (NEOFog's intra-chain target): {}",
        deployed_systems().iter().filter(|s| s.chain_mesh).count()
    );
}
