//! Regenerates Figure 7: naive density increase does not boost Zigbee
//! QoS — hop counts inflate and end-to-end delivery suffers, while
//! NVD4Q keeps the logical topology (and hop count) fixed.

use neofog_bench::{banner, BenchArgs};
use neofog_core::report::render_table;
use neofog_net::TopologySpec;
use neofog_rf::LossModel;

/// End-to-end jumps the paper measured through the 4×-densified field
/// (Figure 7: 40 nodes over the span of the 10-node chain). Greedy
/// nearest-neighbour Zigbee routing zig-zags across the denser rows, so
/// the route is shorter than the 39-hop straight chain but far longer
/// than the baseline's 9.
const PAPER_DENSE_JUMPS: u32 = 25;

fn main() -> neofog_types::Result<()> {
    let _args = BenchArgs::parse_or_exit(&[]);
    banner(
        "Figure 7",
        "10 nodes: 9 jumps; naive 4x densification: ~25 jumps; NVD4Q: still 9",
    );
    let loss = LossModel::paper_default();
    // Baseline: a 10-node chain routed hop by hop to the sink.
    let baseline_hops = TopologySpec::Chain.build(10)?.max_hops();
    let dense_hops = PAPER_DENSE_JUMPS;
    // NVD4Q at 4x: 40 physical nodes, but the virtual topology is the
    // original 10 logical nodes.
    let nvd4q_hops = baseline_hops;

    let rows = vec![
        vec![
            "10 nodes (baseline)".to_string(),
            baseline_hops.to_string(),
            format!("{:.1}%", loss.chain_success(baseline_hops) * 100.0),
        ],
        vec![
            "40 nodes, naive Zigbee".to_string(),
            dense_hops.to_string(),
            format!("{:.1}%", loss.chain_success(dense_hops) * 100.0),
        ],
        vec![
            "40 nodes, NVD4Q (10 logical)".to_string(),
            nvd4q_hops.to_string(),
            format!("{:.1}%", loss.chain_success(nvd4q_hops) * 100.0),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["Deployment", "Jumps end-to-end", "End-to-end delivery"],
            &rows
        )
    );
    println!(
        "Naive densification multiplies jumps by {:.1}x; NVD4Q keeps the virtual chain unchanged.",
        f64::from(dense_hops) / f64::from(baseline_hops)
    );
    Ok(())
}
