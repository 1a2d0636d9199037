//! Energy-harvesting substrate for NEOFog.
//!
//! Models everything between the ambient environment and the node's
//! power rail (paper §2.1, Figure 2 and Figure 5):
//!
//! * [`trace`] — piecewise-constant [`PowerTrace`]s plus the synthetic
//!   trace generators used by the evaluation: *independent* traces
//!   (forest scenario, random segment concatenation, §5.2.1),
//!   *dependent* traces (bridge scenario, shared base ±30 % variance,
//!   §5.2.2) and low-power rainy traces (mountain scenario, §5.3).
//! * [`supercap`] — super-capacitor energy storage with capacity
//!   clamping (rejected energy is what Figure 9 shows as "capacitor
//!   frequently full"), leakage, and charge-efficiency loss.
//! * [`frontend`] — the NOS single-channel front-end versus the FIOS
//!   dual-channel front-end with a 90 %-efficient direct
//!   source-to-load path (Figure 5(b), after Wang et al.).
//! * [`rtc`] — the real-time-clock super-capacitor with charging
//!   priority (§2.1), whose depletion causes network desynchronization.
//!
//! A [`SuperCap`] and an [`Rtc`] are designs, shared by every node of a
//! run; a node's charge is a plain [`Energy`](neofog_types::Energy)
//! level their operations take by `&mut`.
//!
//! # Examples
//!
//! ```
//! use neofog_energy::{PowerTrace, SuperCap};
//! use neofog_types::{Duration, Energy, Power};
//!
//! let trace = PowerTrace::constant(
//!     Power::from_milliwatts(10.0),
//!     Duration::from_secs(2),
//!     Duration::from_millis(100),
//! );
//! let harvested = trace.energy_between(Duration::ZERO, Duration::from_secs(1));
//! let cap = SuperCap::new(Energy::from_millijoules(100.0))?;
//! let mut stored = Energy::ZERO;
//! cap.charge(&mut stored, harvested);
//! assert!(stored > Energy::ZERO);
//! # Ok::<(), neofog_types::NeoFogError>(())
//! ```

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod curve;
pub mod frontend;
pub mod rtc;
pub mod supercap;
pub mod trace;

pub use curve::EnergyCurve;
pub use frontend::FrontEnd;
pub use rtc::Rtc;
pub use supercap::{ChargeReceipt, SuperCap};
pub use trace::{ChainPlan, PowerTrace, Scenario, TraceGenerator};
