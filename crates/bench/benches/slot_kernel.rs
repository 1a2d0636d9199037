//! The slot kernel: steady-state slots/sec over chain width.
//!
//! One simulator instance is built per node count (trace synthesis
//! and its fold into per-slot incomes paid once), warmed past the
//! queue-growth window, then timed per `advance(1)` — so the number
//! reported is the cost of one pass of the six-phase pipeline over
//! every node, the loop the struct-of-arrays `NodeColumns` layout
//! exists to make a tight linear sweep. `Throughput::Elements(nodes)`
//! turns the per-iteration time into node-slots/sec.
//!
//! Configuration notes:
//!
//! * `trace_dt = slot_len` coarsens the power traces so a 10⁶-node
//!   chain builds with fewer random draws (each node stores only its
//!   `slots` per-slot incomes, whatever `trace_dt` is); the per-slot
//!   *work* is identical.
//! * The balancer is `None`: the balancers' cross-node logic, and the
//!   per-call allocations Algorithm 1's DP and the tree balancer still
//!   make (DESIGN.md §11), would dominate the profile with work this
//!   bench does not target. The benchmark's `paper_repro` workload
//!   (`perfbench/`) times the balance phase instead.
//! * `NEOFOG_SLOT_KERNEL_MAX_NODES` caps the sweep (e.g. `=100000`
//!   skips the 10⁶ entry) for memory-constrained runs.
//!
//! Nothing records or gates these numbers: the repo's performance
//! record is `perfbench/`, whose `wide_chain` workload runs the 10⁵
//! chain configuration end to end. This bench is for the sizes and
//! shapes perfbench does not run — 10³, 10⁴ and 10⁶-node chains and
//! the balancer-off mesh and tiered networks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use neofog_core::sim::{BalancerKind, SimConfig, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;
use neofog_net::TopologySpec;

/// Slot window the steady-state driver cycles through.
const WINDOW_SLOTS: u64 = 32;
/// Slots advanced before timing starts (queue growth, income table touch).
const WARMUP_SLOTS: u64 = 8;

fn chain_cfg(nodes: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = nodes;
    cfg.slots = WINDOW_SLOTS;
    cfg.trace_dt = cfg.slot_len;
    cfg.balancer = BalancerKind::None;
    cfg
}

fn max_nodes() -> usize {
    std::env::var("NEOFOG_SLOT_KERNEL_MAX_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

fn bench_slot_kernel(c: &mut Criterion) {
    let cap = max_nodes();
    let mut group = c.benchmark_group("slot_kernel");
    group.sample_size(10);
    for nodes in [1_000usize, 10_000, 100_000, 1_000_000] {
        if nodes > cap {
            continue;
        }
        let mut sim = Simulator::new(chain_cfg(nodes)).expect("valid config");
        sim.advance(WARMUP_SLOTS);
        group.throughput(Throughput::Elements(nodes as u64));
        group.bench_with_input(BenchmarkId::new("nodes", nodes), &nodes, |b, _| {
            b.iter(|| sim.advance(1));
        });
    }
    // Mesh and tiered variants exercise the generalized route sweep.
    // The sweep itself stays O(positions); the 10⁴ cap is the ER
    // *generator*'s O(n²) pair sampling at build time.
    for nodes in [1_000usize, 10_000] {
        if nodes > cap {
            continue;
        }
        let mut cfg = chain_cfg(nodes);
        cfg.topology = TopologySpec::ErdosRenyi {
            edge_prob: (4.0 / nodes as f64).min(1.0),
            seed: 7,
        };
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.advance(WARMUP_SLOTS);
        group.throughput(Throughput::Elements(nodes as u64));
        group.bench_with_input(BenchmarkId::new("mesh", nodes), &nodes, |b, _| {
            b.iter(|| sim.advance(1));
        });
    }
    for nodes in [1_000usize, 10_000] {
        if nodes > cap {
            continue;
        }
        let mut cfg = chain_cfg(nodes);
        cfg.topology = TopologySpec::Tiered {
            gateways: (nodes / 100).max(1),
        };
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.advance(WARMUP_SLOTS);
        group.throughput(Throughput::Elements(nodes as u64));
        group.bench_with_input(BenchmarkId::new("tiered", nodes), &nodes, |b, _| {
            b.iter(|| sim.advance(1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_slot_kernel);
criterion_main!(benches);
