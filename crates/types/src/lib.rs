//! Shared primitive types for the NEOFog workspace.
//!
//! This crate defines the vocabulary every other NEOFog crate speaks:
//!
//! * [`units`] — strongly typed physical quantities ([`Energy`],
//!   [`Power`], [`Duration`], [`SimTime`]) with checked, dimensionally
//!   consistent arithmetic. Internally energy is tracked in nanojoules,
//!   power in milliwatts and time in microseconds, because at those
//!   scales every constant measured in the NEOFog paper (ASPLOS'18) is
//!   exactly representable: `1 mW × 1 µs = 1 nJ`.
//! * [`id`] — the physical-node identifier [`NodeId`].
//! * [`error`] — the [`NeoFogError`] error type used across the
//!   workspace.
//! * [`rng`] — a small, deterministic, dependency-free PRNG
//!   ([`rng::SimRng`]) so that every simulation is reproducible from a
//!   seed.
//!
//! # Examples
//!
//! ```
//! use neofog_types::{Power, Duration, Energy};
//!
//! // The paper's Zigbee radio draws 89.1 mW while transmitting and one
//! // byte takes 32 µs at 250 kbps, i.e. 2851.2 nJ per byte.
//! let tx = Power::from_milliwatts(89.1) * Duration::from_micros(32);
//! assert!((tx.as_nanojoules() - 2851.2).abs() < 1e-9);
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

pub mod error;
pub mod id;
pub mod rng;
pub mod units;

pub use error::NeoFogError;
pub use id::NodeId;
pub use rng::SimRng;
pub use units::{Duration, Energy, Power, SimTime};

/// Convenience alias for results returned throughout the workspace.
pub type Result<T> = std::result::Result<T, NeoFogError>;
