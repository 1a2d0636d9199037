//! Front-end power-conversion circuits (paper Figure 5).
//!
//! A *normally-off* node (Figure 5(a)) funnels all harvested energy
//! through impedance matching, the super-capacitor and an LDO before it
//! reaches the load — every joule pays the charge/discharge round-trip.
//!
//! The FIOS front-end (Figure 5(b), after Wang et al. and Sheng et al.)
//! adds switch `SW1`: a **direct source-to-load channel** at ~90 %
//! efficiency. While the NVP computes, income flows straight to the
//! processor; only the *surplus* (or deficit) goes through the
//! capacitor. The paper credits this leaner conversion path (together
//! with NVP checkpointing) with the 2.2×–5× forward-progress advantage
//! of FIOS over NOS.
//!
//! This module names the circuits and their efficiencies; the
//! simulator's slot energy budget (`neofog-core`'s harvest phase)
//! applies them.

use serde::{Deserialize, Serialize};

/// A node's power front-end: either the NOS single channel or the FIOS
/// dual channel with direct source-to-load support.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FrontEnd {
    /// Figure 5(a): everything goes through the capacitor.
    SingleChannel {
        /// Efficiency of the LDO/discharge path in `(0, 1]`.
        discharge_efficiency: f64,
    },
    /// Figure 5(b): direct channel while the load is active.
    DualChannel {
        /// Efficiency of the direct source-to-load path (paper: 0.90).
        direct_efficiency: f64,
        /// Efficiency of the LDO/discharge path in `(0, 1]`.
        discharge_efficiency: f64,
    },
}

impl FrontEnd {
    /// The paper's NOS front-end: capacitor round-trip with a lossy
    /// regulator (≈50 % end-to-end with charging loss included —
    /// "more than half of the energy income is wasted", §2.1).
    #[must_use]
    pub fn nos() -> Self {
        FrontEnd::SingleChannel {
            discharge_efficiency: 0.80,
        }
    }

    /// The paper's FIOS front-end with the 90 %-efficient direct path.
    #[must_use]
    pub fn fios() -> Self {
        FrontEnd::DualChannel {
            direct_efficiency: 0.90,
            discharge_efficiency: 0.80,
        }
    }

    /// `true` if this front-end has a direct source-to-load channel.
    #[must_use]
    pub fn has_direct_channel(&self) -> bool {
        matches!(self, FrontEnd::DualChannel { .. })
    }

    /// Efficiency of the direct channel (zero for single-channel).
    #[must_use]
    pub fn direct_efficiency(&self) -> f64 {
        match self {
            FrontEnd::SingleChannel { .. } => 0.0,
            FrontEnd::DualChannel {
                direct_efficiency, ..
            } => *direct_efficiency,
        }
    }

    /// Efficiency of the capacitor discharge path.
    #[must_use]
    pub fn discharge_efficiency(&self) -> f64 {
        match self {
            FrontEnd::SingleChannel {
                discharge_efficiency,
            }
            | FrontEnd::DualChannel {
                discharge_efficiency,
                ..
            } => *discharge_efficiency,
        }
    }
}
