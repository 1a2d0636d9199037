//! Nonvolatile-processor substrate for NEOFog.
//!
//! [`spendthrift`] holds the node's compute element as the simulator
//! prices it (paper §2.2): the frequency/resource-scaling policy of
//! Ma et al. (ASP-DAC'17) that the paper assumes at node level, which
//! matches clock frequency to income power so energy converts to work
//! at the leanest point. Its 1× level is the paper's NVP: 1 MHz at
//! 0.209 mW, and an 8051-class core retires one instruction every 12
//! cycles, so one instruction costs 12 µs × 0.209 mW = **2.508 nJ**,
//! the figure behind every compute-energy entry of Table 2.
//!
//! The volatile-vs-nonvolatile difference (a VP loses its queue at
//! power-down and pays a 300 µs restart, an NVP restores in 32 µs) is
//! part of `neofog-core`'s `SystemKind`, not of this crate.

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod spendthrift;

pub use spendthrift::{FrequencyLevel, SpendthriftPolicy};
