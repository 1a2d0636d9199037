//! Application workloads for NEOFog.
//!
//! Two layers, deliberately kept in one crate so they stay calibrated
//! against each other:
//!
//! 1. **Analytic cost models** ([`app`], [`pipeline`]) — instruction
//!    counts, payload sizes and batch energies reproducing the paper's
//!    Table 2 exactly. The large-scale system simulator runs on these.
//! 2. **Real kernels** ([`fft`], [`noise`], [`strength`], [`pattern`],
//!    [`compress`](mod@compress), [`dct`], [`uvdose`]) — executable
//!    implementations of the in-fog computations the paper offloads
//!    from the cloud: 3-axis combination + noise removal + FFT + three
//!    structural-strength models for bridge health, normalized
//!    cross-correlation for heartbeat pattern matching, lossless
//!    compression (delta + RLE + LZSS) achieving the paper's 3–14.5 %
//!    ratios on WSN-like data, JPEG-style image coding for camera
//!    nodes and UV dose estimation. Examples and integration tests run
//!    these end-to-end. The forest deployment's volumetric-map kernel
//!    has no implementation here: the simulator only needs its
//!    instruction count (`PackageSpec::heavy` in `neofog-core`).

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
pub mod compress;
pub mod dct;
pub mod fft;
pub mod noise;
pub mod pattern;
pub mod pipeline;
pub mod strength;
pub mod uvdose;

pub use app::{App, AppEnergyRow, Strategy};
pub use compress::{compress, decompress};
pub use pipeline::{Phase, TaskPipeline};
