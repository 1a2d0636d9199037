//! Ready-made experiment configurations for every table and figure of
//! the paper's evaluation (§5).
//!
//! Batch execution itself lives in [`crate::runner`]: every helper
//! here builds its configuration list and hands it to the
//! work-stealing pool, collecting full results through the
//! order-preserving [`CollectAll`] reducer. Every figure helper
//! ([`figure9_with`], [`figure10_11_with`], [`multiplex_sweep_with`],
//! [`ablation_with`], [`headline_with`]) takes a [`PoolConfig`] and a
//! [`Progress`] observer: the figure binaries wire `--workers` and a
//! stderr ticker through them, and a caller that wants neither passes
//! `&PoolConfig::default()` (every available core) and
//! `&mut NoProgress`. [`run_many`] is [`run_many_with`] with those two
//! defaults.

#![expect(
    clippy::indexing_slicing,
    reason = "figure tables indexed by the system/profile grid it builds"
)]

use crate::metrics::NetworkMetrics;
use crate::node::SystemKind;
use crate::runner::{run_batch, CollectAll, NoProgress, PoolConfig, Progress};
use crate::sim::{SimConfig, SimResult};
use neofog_energy::Scenario;
use neofog_types::{NeoFogError, Result};
use serde::{Deserialize, Serialize};

/// The three-bar summary each power profile gets in Figures 10/11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemSummary {
    /// Node design.
    pub system: SystemKind,
    /// Total node wakeups.
    pub wakeups: u64,
    /// Packages delivered raw (cloud-processed).
    pub cloud: u64,
    /// Packages delivered after in-fog processing.
    pub fog: u64,
}

impl SystemSummary {
    /// Total packages processed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cloud + self.fog
    }

    fn from_result(result: &SimResult) -> Self {
        SystemSummary {
            system: result.config.system,
            wakeups: result.metrics.total_wakeups(),
            cloud: result.metrics.cloud_processed(),
            fog: result.metrics.fog_processed(),
        }
    }
}

/// One power profile's worth of Figure 10/11 data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileRow {
    /// Profile index (the paper shows five).
    pub profile: u64,
    /// One summary per system, in [`SystemKind::ALL`] order.
    pub systems: Vec<SystemSummary>,
}

/// Runs a batch of simulations on the work-stealing pool, keeping
/// every full result in input order.
///
/// This is a thin wrapper over [`run_batch`] with the [`CollectAll`]
/// reducer, default pool sizing (every available core) and no progress
/// output — see [`run_many_with`] to control either, and prefer a
/// summarizing reducer (like the fleet's) when the batch is large and
/// the full results are not needed.
///
/// # Errors
///
/// Returns [`NeoFogError::Internal`] if a simulation worker thread
/// panics or a result goes missing, and propagates any
/// [`crate::sim::Simulator::new`] configuration error (cancelling the
/// rest of the batch).
pub fn run_many(configs: &[SimConfig]) -> Result<Vec<SimResult>> {
    run_many_with(configs, &PoolConfig::default(), &mut NoProgress)
}

/// [`run_many`] with explicit pool sizing and a progress observer.
///
/// # Errors
///
/// Same as [`run_many`].
pub fn run_many_with(
    configs: &[SimConfig],
    pool: &PoolConfig,
    progress: &mut dyn Progress,
) -> Result<Vec<SimResult>> {
    run_batch(configs, CollectAll::default(), pool, progress)
}

/// Points the first configuration of a batch at a JSONL event log
/// (see [`SimConfig`]'s `events_path`). One representative run per
/// batch is logged: concurrent runs must not share a file, and one
/// deterministic log is enough to replay and diff the batch's seed.
fn log_first_run(configs: &mut [SimConfig], events: Option<&str>) {
    if let (Some(path), Some(first)) = (events, configs.first_mut()) {
        first.events_path = Some(path.to_string());
    }
}

/// Figures 10 (independent) and 11 (dependent): runs all three systems
/// over the given power profiles. When `events` is set, the first run
/// of the batch streams its JSONL event log there.
///
/// # Errors
///
/// Propagates [`run_many`] failures.
pub fn figure10_11_with(
    scenario: Scenario,
    profiles: &[u64],
    events: Option<&str>,
    pool: &PoolConfig,
    progress: &mut dyn Progress,
) -> Result<Vec<ProfileRow>> {
    let mut configs: Vec<SimConfig> = profiles
        .iter()
        .flat_map(|&p| {
            SystemKind::ALL
                .iter()
                .map(move |&s| SimConfig::paper_default(s, scenario, p))
        })
        .collect();
    log_first_run(&mut configs, events);
    let results = run_many_with(&configs, pool, progress)?;
    Ok(profiles
        .iter()
        .enumerate()
        .map(|(pi, &p)| ProfileRow {
            profile: p,
            systems: results
                .iter()
                .skip(pi * SystemKind::ALL.len())
                .take(SystemKind::ALL.len())
                .map(SystemSummary::from_result)
                .collect(),
        })
        .collect())
}

/// Averages the per-system totals across profiles (the "Average"
/// cluster of Figures 10/11).
#[must_use]
pub fn average_row(rows: &[ProfileRow]) -> Vec<SystemSummary> {
    let n = rows.len().max(1) as u64;
    (0..SystemKind::ALL.len())
        .map(|si| SystemSummary {
            system: SystemKind::ALL[si],
            wakeups: rows.iter().map(|r| r.systems[si].wakeups).sum::<u64>() / n,
            cloud: rows.iter().map(|r| r.systems[si].cloud).sum::<u64>() / n,
            fog: rows.iter().map(|r| r.systems[si].fog).sum::<u64>() / n,
        })
        .collect()
}

/// Figure 9: stored-energy traces of the first three chain nodes.
///
/// The paper's comparison is VP without load balance, NVP with the
/// baseline tree balance and NVP with the proposed distributed balance
/// — all on a bright daytime solar window where an unbalanced node's
/// capacitor is "frequently full, meaning further energy was rejected".
/// Here every variant runs the bridge scenario at its nominal income,
/// where the VP spends down to mid-level; flat tops appear only at
/// three times that income (EXPERIMENTS.md, Figure 9).
///
/// When `events` is set, the first variant streams its JSONL event log
/// there.
///
/// # Errors
///
/// Propagates [`run_many`] failures.
pub fn figure9_with(
    seed: u64,
    events: Option<&str>,
    pool: &PoolConfig,
    progress: &mut dyn Progress,
) -> Result<Vec<(&'static str, NetworkMetrics)>> {
    use crate::sim::BalancerKind;
    let variants = [
        ("VP w/o load balance", SystemKind::NosVp, BalancerKind::None),
        (
            "NVP + baseline tree LB",
            SystemKind::NosNvp,
            BalancerKind::Tree,
        ),
        (
            "NVP + distributed LB",
            SystemKind::NosNvp,
            BalancerKind::Distributed,
        ),
    ];
    let mut configs: Vec<SimConfig> = variants
        .iter()
        .map(|&(_, system, balancer)| {
            let mut cfg = SimConfig::paper_default(system, Scenario::BridgeDependent, seed);
            cfg.balancer = balancer;
            cfg.trace_stored = true;
            cfg
        })
        .collect();
    log_first_run(&mut configs, events);
    Ok(run_many_with(&configs, pool, progress)?
        .into_iter()
        .zip(variants)
        .map(|(r, (label, _, _))| (label, r.metrics))
        .collect())
}

/// One point of the Figure 12/13 multiplexing sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiplexPoint {
    /// Multiplexing factor (1 = "100 %").
    pub factor: u32,
    /// Packages processed in-fog by the NEOFog system.
    pub fog_processed: u64,
    /// Total packages processed.
    pub total_processed: u64,
    /// Total samples captured across the logical network.
    pub captured: u64,
}

/// Figures 12/13: NVD4Q multiplexing sweep. Returns the NEOFog points
/// for each factor plus the VP-without-balancing reference. When
/// `events` is set, the first factor's run streams its JSONL event log
/// there.
///
/// # Errors
///
/// Propagates [`run_many`] failures.
pub fn multiplex_sweep_with(
    scenario: Scenario,
    factors: &[u32],
    seed: u64,
    events: Option<&str>,
    pool: &PoolConfig,
    progress: &mut dyn Progress,
) -> Result<(Vec<MultiplexPoint>, u64)> {
    let mut configs: Vec<SimConfig> = factors
        .iter()
        .map(|&f| {
            let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, scenario, seed);
            cfg.multiplex = f;
            cfg
        })
        .collect();
    configs.push(SimConfig::paper_default(SystemKind::NosVp, scenario, seed));
    log_first_run(&mut configs, events);
    let mut results = run_many_with(&configs, pool, progress)?;
    let vp = results
        .pop()
        .ok_or_else(|| NeoFogError::internal("multiplex sweep lost its VP reference run"))?;
    let points = results
        .iter()
        .zip(factors)
        .map(|(r, &f)| MultiplexPoint {
            factor: f,
            fog_processed: r.metrics.fog_processed(),
            total_processed: r.metrics.total_processed(),
            captured: r.metrics.total_captured(),
        })
        .collect();
    // The VP system delivers everything raw; its "in-fog" equivalent in
    // Figures 12/13 is its delivered package count.
    Ok((points, vp.metrics.total_processed()))
}

/// The paper's headline numbers, derived from the low-power sweep:
/// in-fog gain of NEOFog over VP at baseline node count, and at 3×
/// multiplexing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    /// NEOFog(1×) / VP in-fog gain (paper: 4.2×).
    pub baseline_gain: f64,
    /// NEOFog(3×) / VP in-fog gain (paper: up to 8×).
    pub multiplexed_gain: f64,
}

/// One ablation variant: the full NEOFog node with one technique
/// removed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Packages processed in-fog.
    pub fog: u64,
    /// Total packages processed.
    pub total: u64,
}

/// The §5 "contributions due to individual techniques" study: start
/// from the full FIOS-NEOFog node and remove one nonvolatility-
/// exploiting technique at a time. When `events` is set, the full
/// NEOFog variant streams its JSONL event log there.
///
/// # Errors
///
/// Propagates [`run_many`] failures.
pub fn ablation_with(
    scenario: Scenario,
    seed: u64,
    events: Option<&str>,
    pool: &PoolConfig,
    progress: &mut dyn Progress,
) -> Result<Vec<AblationRow>> {
    use crate::node::RadioControl;
    use crate::sim::BalancerKind;
    use neofog_energy::FrontEnd;

    let base = SimConfig::paper_default(SystemKind::FiosNeoFog, scenario, seed);
    let mut variants: Vec<(String, SimConfig)> = Vec::new();
    variants.push(("full NEOFog".into(), base.clone()));
    {
        let mut cfg = base.clone();
        cfg.node.radio = RadioControl::NvmRestore;
        variants.push(("- NVRF (NVM-restore radio)".into(), cfg));
    }
    {
        let mut cfg = base.clone();
        cfg.node.front_end = FrontEnd::nos();
        variants.push(("- FIOS front-end (NOS single channel)".into(), cfg));
    }
    {
        let mut cfg = base.clone();
        cfg.balancer = BalancerKind::Tree;
        variants.push(("- distributed LB (baseline tree)".into(), cfg));
    }
    {
        let mut cfg = base.clone();
        cfg.balancer = BalancerKind::None;
        variants.push(("- load balancing entirely".into(), cfg));
    }
    variants.push((
        "NOS-NVP baseline".into(),
        SimConfig::paper_default(SystemKind::NosNvp, scenario, seed),
    ));
    variants.push((
        "NOS-VP baseline".into(),
        SimConfig::paper_default(SystemKind::NosVp, scenario, seed),
    ));

    let labels: Vec<String> = variants.iter().map(|(l, _)| l.clone()).collect();
    let mut configs: Vec<SimConfig> = variants.into_iter().map(|(_, c)| c).collect();
    log_first_run(&mut configs, events);
    Ok(run_many_with(&configs, pool, progress)?
        .into_iter()
        .zip(labels)
        .map(|(r, label)| AblationRow {
            label,
            fog: r.metrics.fog_processed(),
            total: r.metrics.total_processed(),
        })
        .collect())
}

/// Computes the headline gains in the low-power (rainy) scenario.
///
/// # Errors
///
/// Propagates [`run_many`] failures.
pub fn headline_with(
    seed: u64,
    pool: &PoolConfig,
    progress: &mut dyn Progress,
) -> Result<Headline> {
    let (points, vp) =
        multiplex_sweep_with(Scenario::MountainRainy, &[1, 3], seed, None, pool, progress)?;
    let vp = vp.max(1) as f64;
    let [one, three] = points.as_slice() else {
        return Err(NeoFogError::internal(
            "headline sweep expects exactly two factors",
        ));
    };
    Ok(Headline {
        baseline_gain: one.fog_processed as f64 / vp,
        multiplexed_gain: three.fog_processed as f64 / vp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    fn shrink(cfg: &mut SimConfig) {
        cfg.slots = 120;
    }

    #[test]
    fn run_many_preserves_order() {
        let mut a = SimConfig::paper_default(SystemKind::NosVp, Scenario::ForestIndependent, 1);
        let mut b =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
        shrink(&mut a);
        shrink(&mut b);
        let results = run_many(&[a, b]).expect("batch runs");
        assert_eq!(results[0].config.system, SystemKind::NosVp);
        assert_eq!(results[1].config.system, SystemKind::FiosNeoFog);
    }

    #[test]
    fn parallel_equals_serial() {
        let mut cfg =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 7);
        shrink(&mut cfg);
        let serial = Simulator::new(cfg.clone()).expect("config is valid").run();
        let parallel = run_many(&[cfg.clone()]).expect("batch runs").remove(0);
        assert_eq!(serial.metrics, parallel.metrics);
    }

    #[test]
    fn average_row_averages() {
        let rows = vec![
            ProfileRow {
                profile: 1,
                systems: vec![
                    SystemSummary {
                        system: SystemKind::NosVp,
                        wakeups: 10,
                        cloud: 4,
                        fog: 0,
                    },
                    SystemSummary {
                        system: SystemKind::NosNvp,
                        wakeups: 8,
                        cloud: 1,
                        fog: 5,
                    },
                    SystemSummary {
                        system: SystemKind::FiosNeoFog,
                        wakeups: 8,
                        cloud: 1,
                        fog: 9,
                    },
                ],
            },
            ProfileRow {
                profile: 2,
                systems: vec![
                    SystemSummary {
                        system: SystemKind::NosVp,
                        wakeups: 20,
                        cloud: 8,
                        fog: 0,
                    },
                    SystemSummary {
                        system: SystemKind::NosNvp,
                        wakeups: 10,
                        cloud: 1,
                        fog: 7,
                    },
                    SystemSummary {
                        system: SystemKind::FiosNeoFog,
                        wakeups: 10,
                        cloud: 1,
                        fog: 11,
                    },
                ],
            },
        ];
        let avg = average_row(&rows);
        assert_eq!(avg[0].wakeups, 15);
        assert_eq!(avg[0].cloud, 6);
        assert_eq!(avg[2].fog, 10);
    }
}
