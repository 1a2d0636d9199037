//! Regenerates Table 2: measured energy distribution on different
//! platforms under the naive and buffered strategies.
//!
//! Every printed value derives from the workspace's calibrated energy
//! model (2.508 nJ/instruction, 2851.2 nJ/byte on air, 64 KiB buffer)
//! and reproduces the paper's numbers to the printed precision.

use neofog_bench::{banner, BenchArgs};
use neofog_core::report::{percent, render_table};
use neofog_workloads::App;

fn main() {
    let _args = BenchArgs::parse_or_exit(&[]);
    banner(
        "Table 2",
        "naive vs buffered strategy energy; savings -24.1% .. -57.1%",
    );
    let rows: Vec<Vec<String>> = App::ALL
        .iter()
        .map(|app| {
            let r = app.energy_row();
            vec![
                app.name().to_string(),
                r.naive_instructions.to_string(),
                format!("{:.3}", r.naive_compute.as_nanojoules()),
                format!("{:.1}", r.naive_tx.as_nanojoules()),
                format!("{:.2}%", r.naive_compute_ratio * 100.0),
                format!("{:.1}", r.buffered_compute.as_millijoules()),
                format!("{:.2}", r.buffered_tx.as_millijoules()),
                format!("{:.1}%", r.buffered_compute_ratio * 100.0),
                percent(r.energy_saved_ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "App.",
                "Inst. NO.",
                "Compute nJ",
                "TX nJ",
                "Compute ratio",
                "Compute mJ (buf)",
                "TX mJ (buf)",
                "Compute ratio (buf)",
                "Energy saved",
            ],
            &rows,
        )
    );
    println!("Derived batch geometry:");
    for app in App::ALL {
        println!(
            "  {:16} {:6} samples/batch, compressed to {:5} B ({:.1}% of 64 KiB)",
            app.name(),
            app.samples_per_batch(),
            app.compressed_bytes(),
            app.compression_ratio() * 100.0
        );
    }
}
