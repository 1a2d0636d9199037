//! Sensor substrate for NEOFog.
//!
//! [`spec`] models the sensing front of a node (paper §4): per-sensor
//! initialization and sampling costs (e.g. TMP101: 566 ms init,
//! 0.283 ms per sample) as [`SensorSpec`], with the paper's named
//! sensors as [`SensorKind`]. Table 2's applications name their sensor
//! through it.

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod spec;

pub use spec::{SensorKind, SensorSpec};
