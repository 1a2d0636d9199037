//! Network substrate for NEOFog.
//!
//! RTC slot scheduling and the routing structure the simulator's slot
//! loop relays over (§2.3, §4):
//!
//! * [`slots`] — RTC-synchronized wake-up slots: every node with
//!   sufficient energy wakes at the common slot, and NVD4Q clones take
//!   turns by phase offset.
//! * [`plan`] — pluggable topologies (chain / Erdős-Rényi mesh /
//!   tiered sensors → gateways → cloud) compiled once into immutable
//!   [`RoutePlan`]s (next hops, hop counts, sweep order, tiers) so the
//!   simulator's slot loop never searches the graph.

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod plan;
pub mod slots;

pub use plan::{erdos_renyi_edges, NodeTier, RoutePlan, TopologySpec, NO_HOP};
pub use slots::SlotSchedule;
