//! Fleet-scale simulation (paper §4).
//!
//! "Our simulator runs thousands of single-node simulators
//! simultaneously (1000 for intra-chain simulation, and 1000 to 5000
//! for inter-chain simulation). Each node has different power inputs.
//! ... Of the simulated thousands of nodes, 10 consecutive nodes'
//! information is shown as the presented example in the paper for
//! simplicity."
//!
//! [`run_fleet`] simulates many independent chains on the
//! work-stealing pool (each chain seeded differently, exactly like the
//! paper's per-node power inputs) and aggregates the distribution of
//! per-chain outcomes, so the 10-node figures can be read as one draw
//! from a characterized population.
//!
//! Aggregation streams: every chain's [`SimResult`] is reduced to a
//! [`ChainSummary`] — three `u64` counters, 24 bytes — on the worker
//! thread that simulated it and dropped immediately, so the peak
//! memory of a 100 000-chain fleet is `O(chains × 24 bytes)` plus one
//! in-flight result per worker, independent of how heavy the per-node
//! metrics (or a `trace_stored` series) are.
//!
//! Each in-flight chain is one columnar [`Simulator`]: its hot node
//! state lives in the struct-of-arrays kernel (DESIGN.md §14), so a
//! worker's footprint is a handful of dense vectors plus one income
//! value per node per slot. The power traces are folded into those
//! incomes at construction and never stored, so [`SimConfig::trace_dt`]
//! sets set-up time (one random draw per sample), not memory.
//!
//! [`Simulator`]: crate::sim::Simulator

#![expect(
    clippy::indexing_slicing,
    reason = "percentile access into a vector it sorted and sized"
)]

use crate::runner::{run_batch, NoProgress, PoolConfig, Progress, Reduce};
use crate::sim::{SimConfig, SimResult};
use neofog_types::{NeoFogError, Result};
use serde::{Deserialize, Serialize};

/// Summary statistics over per-chain outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetStat {
    /// Mean across chains.
    pub mean: f64,
    /// Population standard deviation across chains (σ, dividing by
    /// `n` — the fleet *is* the population, not a sample of one).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl FleetStat {
    /// Computes statistics from raw per-chain values.
    ///
    /// # Percentile convention
    ///
    /// Percentiles use the **nearest-rank** method on the ascending
    /// sort: percentile `q` is the element at index
    /// `round(q × (n − 1))` (half-away-from-zero rounding, the `f64`
    /// default). No interpolation is performed — every reported
    /// percentile is a value that actually occurred. Consequences at
    /// the boundaries:
    ///
    /// * `n = 1`: every percentile equals the single value.
    /// * `n = 2`: `p10` is the smaller element (`round(0.1) = 0`);
    ///   `p50` and `p90` are the larger (`round(0.5) = round(0.9) = 1`).
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] if `values` is empty —
    /// percentiles of an empty population are undefined.
    pub fn from_values(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(NeoFogError::invalid_config(
                "fleet statistics need at least one chain value",
            ));
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            let idx = (q * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx]
        };
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let variance =
            sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / sorted.len() as f64;
        Ok(FleetStat {
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            p10: pct(0.10),
            p50: pct(0.50),
            p90: pct(0.90),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Aggregated result of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Chains simulated.
    pub chains: usize,
    /// Physical nodes simulated in total.
    pub nodes: usize,
    /// Distribution of per-chain fog-processed packages.
    pub fog: FleetStat,
    /// Distribution of per-chain total processed packages.
    pub total: FleetStat,
    /// Distribution of per-chain captured packages.
    pub captured: FleetStat,
    /// Network-wide fog-processed sum.
    pub fog_sum: u64,
}

/// The scalars a fleet keeps per chain: 24 bytes, however large the
/// chain's full [`SimResult`] was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSummary {
    /// Packages processed in-fog.
    pub fog: u64,
    /// Total packages processed.
    pub total: u64,
    /// Samples captured.
    pub captured: u64,
}

impl ChainSummary {
    /// Extracts the fleet-relevant counters from one chain's result.
    #[must_use]
    pub fn of(result: &SimResult) -> Self {
        ChainSummary {
            fog: result.metrics.fog_processed(),
            total: result.metrics.total_processed(),
            captured: result.metrics.total_captured(),
        }
    }
}

/// The streaming reducer behind [`run_fleet`]: folds each chain's
/// [`ChainSummary`] into three per-chain value vectors (for the
/// [`FleetStat`] percentiles) and a running network-wide sum.
///
/// Because [`Reduce::map`] runs on the worker thread, the full
/// [`SimResult`] never reaches the aggregation side: steady-state
/// memory is the three `f64` vectors — 24 bytes per chain.
#[derive(Debug, Default)]
pub struct FleetReducer {
    fog: Vec<f64>,
    total: Vec<f64>,
    captured: Vec<f64>,
    fog_sum: u64,
}

impl Reduce for FleetReducer {
    type Item = ChainSummary;
    type Output = FleetReducer;

    fn map(result: SimResult) -> ChainSummary {
        ChainSummary::of(&result)
    }

    fn fold(&mut self, _index: usize, chain: ChainSummary) {
        // Folds arrive in chain order, so these vectors are in chain
        // order too.
        self.fog.push(chain.fog as f64);
        self.total.push(chain.total as f64);
        self.captured.push(chain.captured as f64);
        self.fog_sum += chain.fog;
    }

    fn finish(self) -> FleetReducer {
        self
    }
}

/// Runs `chains` independent copies of `base` (seeded `base.seed`,
/// `base.seed + 1`, …) on the work-stealing pool and aggregates.
///
/// Uses default pool sizing (every available core) and no progress
/// output; see [`run_fleet_with`] to control either.
///
/// # Errors
///
/// Returns [`NeoFogError::InvalidConfig`] if `chains` is zero and
/// propagates [`crate::runner::run_batch`] failures.
///
/// # Examples
///
/// ```
/// use neofog_core::fleet::run_fleet;
/// use neofog_core::sim::SimConfig;
/// use neofog_core::SystemKind;
/// use neofog_energy::Scenario;
///
/// let mut base = SimConfig::paper_default(
///     SystemKind::FiosNeoFog,
///     Scenario::ForestIndependent,
///     1,
/// );
/// base.slots = 50;
/// let fleet = run_fleet(&base, 20).expect("fleet runs"); // 200 nodes
/// assert_eq!(fleet.chains, 20);
/// assert!(fleet.fog.p90 >= fleet.fog.p10);
/// ```
pub fn run_fleet(base: &SimConfig, chains: usize) -> Result<FleetResult> {
    run_fleet_with(base, chains, &PoolConfig::default(), &mut NoProgress)
}

/// [`run_fleet`] with explicit pool sizing and a progress observer.
///
/// # Errors
///
/// Same as [`run_fleet`].
pub fn run_fleet_with(
    base: &SimConfig,
    chains: usize,
    pool: &PoolConfig,
    progress: &mut dyn Progress,
) -> Result<FleetResult> {
    if chains == 0 {
        return Err(NeoFogError::invalid_config("at least one chain required"));
    }
    let configs: Vec<SimConfig> = (0..chains)
        .map(|k| {
            let mut cfg = base.clone();
            cfg.seed = base.seed.wrapping_add(k as u64);
            cfg
        })
        .collect();
    let tallies = run_batch(&configs, FleetReducer::default(), pool, progress)?;
    Ok(FleetResult {
        chains,
        nodes: chains * base.positions * base.multiplex as usize,
        fog: FleetStat::from_values(&tallies.fog)?,
        total: FleetStat::from_values(&tallies.total)?,
        captured: FleetStat::from_values(&tallies.captured)?,
        fog_sum: tallies.fog_sum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SystemKind;
    use neofog_energy::Scenario;

    fn base(slots: u64) -> SimConfig {
        let mut cfg =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 7);
        cfg.slots = slots;
        cfg
    }

    #[test]
    fn stats_are_ordered() {
        let s = FleetStat::from_values(&[5.0, 1.0, 9.0, 3.0, 7.0]).expect("non-empty");
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.p50, 5.0);
        assert!(s.p10 <= s.p50 && s.p50 <= s.p90);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Population σ of {1,3,5,7,9}: √8.
        assert!((s.std_dev - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_values_are_rejected_not_panicking() {
        assert!(matches!(
            FleetStat::from_values(&[]),
            Err(NeoFogError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn one_element_population_is_degenerate() {
        let s = FleetStat::from_values(&[4.25]).expect("non-empty");
        assert_eq!(
            (s.mean, s.min, s.p10, s.p50, s.p90, s.max),
            (4.25, 4.25, 4.25, 4.25, 4.25, 4.25)
        );
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn two_element_population_follows_nearest_rank() {
        // Nearest rank with n = 2: p10 → index round(0.1) = 0, p50 and
        // p90 → index round(0.5) = round(0.9) = 1.
        let s = FleetStat::from_values(&[10.0, 2.0]).expect("non-empty");
        assert_eq!(s.min, 2.0);
        assert_eq!(s.p10, 2.0);
        assert_eq!(s.p50, 10.0);
        assert_eq!(s.p90, 10.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.mean, 6.0);
        // Population σ of {2, 10} is 4.
        assert_eq!(s.std_dev, 4.0);
    }

    #[test]
    fn fleet_counts_nodes() {
        let fleet = run_fleet(&base(40), 8).expect("fleet runs");
        assert_eq!(fleet.chains, 8);
        assert_eq!(fleet.nodes, 80);
        assert!(fleet.fog_sum > 0);
    }

    #[test]
    fn chains_vary_but_cluster() {
        let fleet = run_fleet(&base(120), 16).expect("fleet runs");
        // Independent seeds: some spread, but the population clusters
        // (p90 within ~3x of p10 for this scenario).
        assert!(fleet.fog.max > fleet.fog.min, "no variation is suspicious");
        assert!(
            fleet.fog.p90 <= fleet.fog.p10 * 3.0 + 50.0,
            "{:?}",
            fleet.fog
        );
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = run_fleet(&base(40), 6).expect("fleet runs");
        let b = run_fleet(&base(40), 6).expect("fleet runs");
        assert_eq!(a, b);
    }

    #[test]
    fn zero_chains_rejected() {
        assert!(run_fleet(&base(10), 0).is_err());
    }
}
