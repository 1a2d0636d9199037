//! Network substrate for NEOFog.
//!
//! RTC slot scheduling and the routing structure the simulator's slot
//! loop relays over (§2.3, §4):
//!
//! * [`slots`] — RTC-synchronized wake-up slots: every node with
//!   sufficient energy wakes at the common slot; energy-poor nodes wake
//!   at a multiple of it; fully depleted nodes desynchronize.
//! * [`plan`] — pluggable topologies (chain / Erdős-Rényi mesh /
//!   tiered sensors → gateways → cloud) compiled once into immutable
//!   [`RoutePlan`]s (next hops, hop counts, sweep order, CSR children)
//!   so the simulator's slot loop never searches the graph.

pub mod plan;
pub mod slots;

pub use plan::{erdos_renyi_edges, NodeTier, RoutePlan, TopologySpec, NO_HOP};
pub use slots::{SlotSchedule, WakeDecision};
