//! The three workloads, generated from the benchmark seed.
//!
//! * `paper_repro` — every figure function the EXPERIMENTS.md
//!   "Reproducing everything" loop spends its time on, run in-process
//!   on a 2-worker pool: hundreds of 10-node simulations with the
//!   systems' own Tree and Distributed balancers.
//! * `wide_chain` — one 10⁵-node FIOS/forest chain, balancer off,
//!   driven slot by slot: the column sweeps do all the work.
//! * `mesh_offload` — one 10⁴-position Erdős-Rényi mesh with the
//!   offload balancer: routing set-up and the balance phase dominate.

use crate::stats::Fnv;
use neofog_core::experiment::{
    ablation_with, figure10_11_with, figure9_with, headline_with, multiplex_sweep_with,
};
use neofog_core::fleet::run_fleet_with;
use neofog_core::node::RadioControl;
use neofog_core::sim::{BalancerKind, SimConfig, Simulator};
use neofog_core::{NetworkMetrics, PoolConfig, Progress, SystemKind};
use neofog_energy::{FrontEnd, Scenario};
use neofog_net::TopologySpec;
use std::fmt::Debug;

/// The seed a result is quoted at unless stated otherwise; at this
/// seed `paper_repro` runs exactly the EXPERIMENTS.md seeds.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claim made at the
/// default seed.
pub const HELD_OUT_SEED: u64 = 97;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperRepro,
    WideChain,
    MeshOffload,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperRepro,
        Workload::WideChain,
        Workload::MeshOffload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRepro => "paper_repro",
            Workload::WideChain => "wide_chain",
            Workload::MeshOffload => "mesh_offload",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Nodes in the `wide_chain` chain (the `BENCH_slot_kernel.json` 10⁵ row).
pub const WIDE_NODES: usize = 100_000;
/// Positions in the `mesh_offload` mesh.
pub const MESH_NODES: usize = 10_000;
/// Seed of the mesh's edge sampling, fixed so every benchmark seed
/// routes over the same graph.
const MESH_GRAPH_SEED: u64 = 7;
/// The single-sim workloads' simulation window; `advance` wraps the
/// slot index around it, as in the `slot_kernel` bench.
const WINDOW_SLOTS: u64 = 32;
/// Slots advanced after construction before any slot is timed.
pub const WARMUP_SLOTS: u64 = 8;
/// Pool size for `paper_repro`: one process, at most two threads.
pub const WORKERS: usize = 2;

/// Slots timed per pass of a single-sim workload: 1–2 s of work, so a
/// run holds many passes.
pub fn timed_slots(workload: Workload) -> u64 {
    match workload {
        Workload::PaperRepro => unreachable!("paper_repro times whole jobs, not slots"),
        Workload::WideChain => 30,
        Workload::MeshOffload => 50,
    }
}

/// The configuration of a single-sim workload.
pub fn single_config(workload: Workload, seed: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, seed);
    cfg.slots = WINDOW_SLOTS;
    cfg.trace_dt = cfg.slot_len;
    match workload {
        Workload::PaperRepro => unreachable!("paper_repro runs many configurations"),
        Workload::WideChain => {
            cfg.positions = WIDE_NODES;
            cfg.balancer = BalancerKind::None;
        }
        Workload::MeshOffload => {
            cfg.positions = MESH_NODES;
            cfg.topology = TopologySpec::ErdosRenyi {
                edge_prob: 4.0 / MESH_NODES as f64,
                seed: MESH_GRAPH_SEED,
            };
            cfg.balancer = BalancerKind::Offload;
        }
    }
    cfg
}

/// Physical nodes a configuration simulates.
pub fn physical_nodes(cfg: &SimConfig) -> usize {
    cfg.positions * cfg.multiplex as usize
}

/// Digest of a single-sim run: the durable node state plus the
/// per-node event-count folds of the metrics observer.
pub fn sim_digest(sim: Simulator) -> (u64, NetworkMetrics) {
    let mut h = Fnv::default();
    h.u64(sim.state_digest());
    let metrics = sim.run().metrics;
    for n in &metrics.nodes {
        for v in [
            n.wakeups,
            n.failures,
            n.captured,
            n.tasks_executed,
            n.delivered_fog,
            n.delivered_cloud,
            n.dropped,
        ] {
            h.u64(v);
        }
        for e in [n.harvested, n.rejected, n.radio_energy, n.compute_energy] {
            h.u64(e.as_nanojoules().to_bits());
        }
    }
    for v in [
        metrics.balance_interruptions,
        metrics.balance_tasks_moved,
        metrics.balance_transfer_hops,
        metrics.offload_decisions,
        metrics.offload_shipped_tasks,
    ] {
        h.u64(v);
    }
    (h.finish(), metrics)
}

/// One figure function of `paper_repro`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Figure {
    /// Figures 10 and 11 over five power profiles.
    Profiles(Scenario),
    /// Figure 9's three stored-energy variants.
    StoredEnergy,
    /// Figures 12 and 13: multiplexing factors 1–5.
    Multiplex(Scenario),
    /// The abstract's headline gains.
    Headline,
    /// The technique ablation.
    Ablation(Scenario),
    /// `fleet_scale`: 100 chains × 500 slots.
    Fleet { scenario: Scenario, multiplex: u32 },
}

const FLEET_CHAINS: usize = 100;
const FLEET_SLOTS: u64 = 500;

impl Figure {
    /// The figure functions in the order EXPERIMENTS.md runs them.
    pub const ALL: [Figure; 10] = [
        Figure::StoredEnergy,
        Figure::Profiles(Scenario::ForestIndependent),
        Figure::Profiles(Scenario::BridgeDependent),
        Figure::Multiplex(Scenario::MountainSunny),
        Figure::Multiplex(Scenario::MountainRainy),
        Figure::Headline,
        Figure::Ablation(Scenario::ForestIndependent),
        Figure::Ablation(Scenario::MountainRainy),
        Figure::Fleet {
            scenario: Scenario::ForestIndependent,
            multiplex: 1,
        },
        Figure::Fleet {
            scenario: Scenario::MountainRainy,
            multiplex: 5,
        },
    ];

    /// The seed each figure runs at; at `seed = 1` these are the
    /// figure binaries' defaults.
    fn seed(self, seed: u64) -> u64 {
        match self {
            Figure::Profiles(_) | Figure::StoredEnergy | Figure::Fleet { .. } => seed,
            Figure::Ablation(_) => seed.wrapping_add(1),
            Figure::Multiplex(_) | Figure::Headline => seed.wrapping_add(2),
        }
    }

    fn profiles(seed: u64) -> Vec<u64> {
        (0..5).map(|k| seed.wrapping_add(k)).collect()
    }

    fn fleet_base(self, seed: u64) -> SimConfig {
        let Figure::Fleet {
            scenario,
            multiplex,
        } = self
        else {
            unreachable!("only fleet figures have a fleet base")
        };
        let mut base = SimConfig::paper_default(SystemKind::FiosNeoFog, scenario, seed);
        base.slots = FLEET_SLOTS;
        base.multiplex = multiplex;
        base
    }

    /// The job list the figure function hands to the runner, mirrored
    /// from `neofog_core::experiment` and `fleet` so set-up can be
    /// timed serially. The runner's job count is checked against it.
    pub fn configs(self, seed: u64) -> Vec<SimConfig> {
        let s = self.seed(seed);
        let multiplex = |scenario, factors: &[u32]| {
            let mut configs: Vec<SimConfig> = factors
                .iter()
                .map(|&f| {
                    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, scenario, s);
                    cfg.multiplex = f;
                    cfg
                })
                .collect();
            configs.push(SimConfig::paper_default(SystemKind::NosVp, scenario, s));
            configs
        };
        match self {
            Figure::Profiles(scenario) => Figure::profiles(s)
                .into_iter()
                .flat_map(|p| {
                    SystemKind::ALL
                        .iter()
                        .map(move |&sys| SimConfig::paper_default(sys, scenario, p))
                })
                .collect(),
            Figure::StoredEnergy => [
                (SystemKind::NosVp, BalancerKind::None),
                (SystemKind::NosNvp, BalancerKind::Tree),
                (SystemKind::NosNvp, BalancerKind::Distributed),
            ]
            .into_iter()
            .map(|(system, balancer)| {
                let mut cfg = SimConfig::paper_default(system, Scenario::BridgeDependent, s);
                cfg.balancer = balancer;
                cfg.trace_stored = true;
                cfg.income_scale = 1.0;
                cfg
            })
            .collect(),
            Figure::Multiplex(scenario) => multiplex(scenario, &[1, 2, 3, 4, 5]),
            Figure::Headline => multiplex(Scenario::MountainRainy, &[1, 3]),
            Figure::Ablation(scenario) => {
                let base = SimConfig::paper_default(SystemKind::FiosNeoFog, scenario, s);
                let mut nvm = base.clone();
                nvm.node.radio = RadioControl::NvmRestore;
                let mut nos = base.clone();
                nos.node.front_end = FrontEnd::nos();
                let mut tree = base.clone();
                tree.balancer = BalancerKind::Tree;
                let mut none = base.clone();
                none.balancer = BalancerKind::None;
                vec![
                    base,
                    nvm,
                    nos,
                    tree,
                    none,
                    SimConfig::paper_default(SystemKind::NosNvp, scenario, s),
                    SimConfig::paper_default(SystemKind::NosVp, scenario, s),
                ]
            }
            Figure::Fleet { .. } => {
                let base = self.fleet_base(s);
                (0..FLEET_CHAINS as u64)
                    .map(|k| {
                        let mut cfg = base.clone();
                        cfg.seed = base.seed.wrapping_add(k);
                        cfg
                    })
                    .collect()
            }
        }
    }

    /// Runs the figure function on the pool and returns its rows.
    pub fn run(
        self,
        seed: u64,
        pool: &PoolConfig,
        progress: &mut dyn Progress,
    ) -> Result<Box<dyn Debug>, String> {
        let s = self.seed(seed);
        match self {
            Figure::Profiles(scenario) => boxed(figure10_11_with(
                scenario,
                &Figure::profiles(s),
                None,
                pool,
                progress,
            )),
            Figure::StoredEnergy => boxed(figure9_with(s, None, pool, progress)),
            Figure::Multiplex(scenario) => boxed(multiplex_sweep_with(
                scenario,
                &[1, 2, 3, 4, 5],
                s,
                None,
                pool,
                progress,
            )),
            Figure::Headline => boxed(headline_with(s, pool, progress)),
            Figure::Ablation(scenario) => boxed(ablation_with(scenario, s, None, pool, progress)),
            Figure::Fleet { .. } => boxed(run_fleet_with(
                &self.fleet_base(s),
                FLEET_CHAINS,
                pool,
                progress,
            )),
        }
    }
}

fn boxed<T: Debug + 'static>(rows: neofog_types::Result<T>) -> Result<Box<dyn Debug>, String> {
    rows.map(|r| Box::new(r) as Box<dyn Debug>)
        .map_err(|e| e.to_string())
}

/// Every job config of `paper_repro`, figure by figure.
pub fn paper_jobs(seed: u64) -> Vec<(Figure, Vec<SimConfig>)> {
    Figure::ALL
        .into_iter()
        .map(|f| (f, f.configs(seed)))
        .collect()
}

/// Digest of one `paper_repro` pass: FNV-1a over the `Debug` rendering
/// of every figure function's rows, in figure order.
pub fn rows_digest(rows: &[Box<dyn Debug>]) -> u64 {
    let mut h = Fnv::default();
    for r in rows {
        h.debug(r);
    }
    h.finish()
}

/// Simulated node-slots of a job list.
pub fn node_slots(configs: &[SimConfig]) -> u64 {
    configs
        .iter()
        .map(|c| physical_nodes(c) as u64 * c.slots)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neofog_core::NoProgress;

    #[test]
    fn default_seed_runs_the_experiments_seeds() {
        assert_eq!(Figure::Profiles(Scenario::ForestIndependent).seed(1), 1);
        assert_eq!(Figure::profiles(1), vec![1, 2, 3, 4, 5]);
        assert_eq!(Figure::StoredEnergy.seed(1), 1);
        assert_eq!(Figure::Ablation(Scenario::MountainRainy).seed(1), 2);
        assert_eq!(Figure::Multiplex(Scenario::MountainSunny).seed(1), 3);
        assert_eq!(Figure::Headline.seed(1), 3);
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        assert_eq!(paper_jobs(5), paper_jobs(5));
        assert_ne!(paper_jobs(5), paper_jobs(6));
        for w in [Workload::WideChain, Workload::MeshOffload] {
            assert_eq!(single_config(w, 5), single_config(w, 5));
            assert_ne!(single_config(w, 5), single_config(w, 6));
        }
    }

    fn small(workload: Workload, seed: u64) -> SimConfig {
        let mut cfg = single_config(workload, seed);
        cfg.positions = 200;
        if let TopologySpec::ErdosRenyi { edge_prob, .. } = &mut cfg.topology {
            *edge_prob = 4.0 / 200.0;
        }
        cfg
    }

    fn digest_after(cfg: &SimConfig, slots: u64) -> u64 {
        let mut sim = Simulator::new(cfg.clone()).expect("valid config");
        sim.advance(slots);
        sim_digest(sim).0
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in [Workload::WideChain, Workload::MeshOffload] {
            let a = digest_after(&small(w, 5), 40);
            assert_eq!(a, digest_after(&small(w, 5), 40), "{w:?}");
            assert_ne!(a, digest_after(&small(w, 6), 40), "{w:?}");
        }
    }

    #[test]
    fn figure_rows_digest_is_seed_dependent() {
        let pool = PoolConfig::with_workers(WORKERS);
        let rows = |seed| {
            vec![Figure::Headline
                .run(seed, &pool, &mut NoProgress)
                .expect("figure runs")]
        };
        assert_eq!(rows_digest(&rows(1)), rows_digest(&rows(1)));
        assert_ne!(rows_digest(&rows(1)), rows_digest(&rows(2)));
    }
}
