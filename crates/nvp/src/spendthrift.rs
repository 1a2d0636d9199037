//! The Spendthrift frequency/resource-scaling policy.
//!
//! The paper assumes each NVP runs the *Spendthrift* architecture
//! [Ma et al., ASP-DAC'17]: sample the income power, then scale clock
//! frequency (and gate resources) so the core consumes income directly
//! rather than round-tripping energy through the capacitor. Higher
//! frequencies need higher voltage, so energy-per-instruction grows
//! with the level — running exactly at the income level is the leanest
//! conversion point.

use neofog_types::{Energy, Power};
use serde::{Deserialize, Serialize};

/// One operating point of the scaled NVP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyLevel {
    /// Clock multiplier relative to the 1 MHz base.
    pub factor: f64,
    /// Active power at this level.
    pub power: Power,
    /// Energy per instruction at this level.
    pub energy_per_inst: Energy,
}

impl FrequencyLevel {
    /// Instructions per second at this level: 1 MHz / 12 cycles
    /// ≈ 83 333 inst/s, scaled by the clock factor.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        (1_000_000.0 / 12.0) * self.factor
    }

    /// Instructions per nanojoule at this level.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        1.0 / self.energy_per_inst.as_nanojoules()
    }
}

/// A table of operating points plus the income-matching rule.
///
/// # Examples
///
/// ```
/// use neofog_nvp::SpendthriftPolicy;
/// use neofog_types::Power;
///
/// let policy = SpendthriftPolicy::paper_default();
/// let lvl = policy.choose(Power::from_milliwatts(0.5));
/// assert!(lvl.power <= Power::from_milliwatts(0.5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpendthriftPolicy {
    levels: Vec<FrequencyLevel>,
}

impl SpendthriftPolicy {
    /// The five-point table used throughout the workspace: ¼× to 4×
    /// the 1 MHz base. Power scales ≈ `f·V²` with voltage stepping, so
    /// energy-per-instruction rises gently with frequency.
    #[must_use]
    pub fn paper_default() -> Self {
        let base_power = 0.209; // mW at 1x
        let base_epi = 2.508; // nJ at 1x
        let levels = [0.25, 0.5, 1.0, 2.0, 4.0]
            .iter()
            .map(|&f: &f64| {
                // V rises mildly with f ⇒ P ∝ f^1.7, EPI ∝ f^0.4.
                let power = base_power * f.powf(1.7);
                let epi = base_epi * f.powf(0.4);
                FrequencyLevel {
                    factor: f,
                    power: Power::from_milliwatts(power),
                    energy_per_inst: Energy::from_nanojoules(epi),
                }
            })
            .collect();
        SpendthriftPolicy { levels }
    }

    /// All operating points, ascending by factor.
    #[must_use]
    pub fn levels(&self) -> &[FrequencyLevel] {
        &self.levels
    }

    /// The level Spendthrift selects for a given income power: the
    /// fastest level whose draw fits inside the income, or the slowest
    /// level when even it exceeds income (the capacitor covers the
    /// gap).
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "`paper_default`, the only constructor, builds five levels"
    )]
    pub fn choose(&self, income: Power) -> FrequencyLevel {
        self.levels
            .iter()
            .rev()
            .find(|l| l.power <= income)
            .copied()
            .unwrap_or(self.levels[0])
    }

    /// Instructions per second at the chosen level for this income.
    #[must_use]
    pub fn throughput(&self, income: Power) -> f64 {
        self.choose(income).throughput()
    }

    /// The *computational efficiency* the paper's load balancer shares
    /// between neighbours: instructions per nanojoule at the level this
    /// income selects.
    #[must_use]
    pub fn efficiency(&self, income: Power) -> f64 {
        self.choose(income).efficiency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chooses_fastest_affordable_level() {
        let p = SpendthriftPolicy::paper_default();
        // 4x draws 0.209 * 4^1.7 ≈ 2.2 mW.
        let lvl = p.choose(Power::from_milliwatts(10.0));
        assert_eq!(lvl.factor, 4.0);
        let lvl = p.choose(Power::from_milliwatts(0.21));
        assert_eq!(lvl.factor, 1.0);
    }

    #[test]
    fn falls_back_to_slowest_when_starved() {
        let p = SpendthriftPolicy::paper_default();
        let lvl = p.choose(Power::from_microwatts(1.0));
        assert_eq!(lvl.factor, 0.25);
    }

    #[test]
    fn base_level_matches_paper_constants() {
        let p = SpendthriftPolicy::paper_default();
        let one_x = p.levels().iter().find(|l| l.factor == 1.0).unwrap();
        assert!((one_x.power.as_milliwatts() - 0.209).abs() < 1e-12);
        assert!((one_x.energy_per_inst.as_nanojoules() - 2.508).abs() < 1e-12);
    }

    #[test]
    fn higher_frequency_costs_more_per_instruction() {
        let p = SpendthriftPolicy::paper_default();
        let epis: Vec<f64> = p
            .levels()
            .iter()
            .map(|l| l.energy_per_inst.as_nanojoules())
            .collect();
        assert!(epis.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn throughput_scales_with_income() {
        let p = SpendthriftPolicy::paper_default();
        let slow = p.throughput(Power::from_microwatts(10.0));
        let fast = p.throughput(Power::from_milliwatts(5.0));
        assert!(fast > slow * 10.0);
    }

    #[test]
    fn efficiency_is_higher_at_lower_income() {
        let p = SpendthriftPolicy::paper_default();
        assert!(
            p.efficiency(Power::from_microwatts(50.0)) > p.efficiency(Power::from_milliwatts(5.0))
        );
    }
}
