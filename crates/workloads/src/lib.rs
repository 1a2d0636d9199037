//! Application workloads for NEOFog.
//!
//! [`app`] is the analytic cost model of the paper's five measured
//! applications: instruction counts, payload sizes and batch energies
//! that reproduce Table 2 exactly, and the 64 KiB NV buffer the
//! buffered strategy fills ([`app::BUFFER_BYTES`]). The system
//! simulator prices its packages separately (`PackageSpec` in
//! `neofog-core`).

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod app;

pub use app::{App, AppEnergyRow, Strategy};
