//! Radio substrate for NEOFog: software-controlled RF vs the
//! nonvolatile RF controller (NVRF).
//!
//! The paper's measured radio model (§2.2, §4):
//!
//! * Zigbee-class transceiver at 250 kbps; ≈89.1 mW in TX/RX, 14.93 mW
//!   idle, so one byte on air costs 32 µs × 89.1 mW = 2851.2 nJ.
//! * Traditional software RF re-initialization after power failure:
//!   531 ms with a 1 MHz host MCU, then a transmission of `N` bytes
//!   takes `(255 + 1.44·N + 0.032·N)` ms.
//! * The NVRF controller [Wang et al.] stores the RF configuration in a
//!   nonvolatile register file and restores it by direct nonvolatile
//!   memory access: 28 ms one-time configuration, then
//!   `(1.74 + 0.156 + 0.216·N + 0.032·N)` ms per transmission, a 27×
//!   init speedup and 6.2× throughput gain.
//!
//! Modules: [`timing`] (the measured formulas as pure functions) and
//! [`loss`] (the measured 0.75 % weather-driven loss process).

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod loss;
pub mod timing;

pub use loss::LossModel;
pub use timing::RfTimings;
