//! Sensor substrate for NEOFog.
//!
//! Models the sensing front of a node (paper §4): per-sensor
//! initialization and sampling costs (e.g. TMP101: 566 ms init,
//! 0.283 ms per sample) and synthetic signal generators whose outputs
//! feed the real application kernels in `neofog-workloads` (the "many
//! repeated patterns in data, especially in that sensed by WSNs" that
//! make compression effective, §5.1).
//!
//! * [`spec`] — [`SensorSpec`] timing/energy model + the paper's named
//!   sensors.
//! * [`signal`] — deterministic synthetic waveform generators for
//!   temperature, acceleration, UV, heartbeat and image data.

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod signal;
pub mod spec;

pub use signal::SignalGenerator;
pub use spec::{SensorKind, SensorSpec};
