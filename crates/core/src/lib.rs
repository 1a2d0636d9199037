//! NEOFog core: the paper's contribution.
//!
//! This crate assembles the substrates (`neofog-energy`, `neofog-nvp`,
//! `neofog-rf`, `neofog-net`) into the three optimization layers of
//! the NEOFog architecture (paper §3) and the system-level simulator
//! that evaluates them (paper §4–§5):
//!
//! * [`node`] — node-level reoptimization: the NOS-VP, NOS-NVP and
//!   FIOS-NEOFog system kinds with their activation thresholds and
//!   per-slot cost structure (Figure 4).
//! * [`balance`] — intra-chain load balancing: no balancing, the
//!   baseline up-down tree balancer, and the paper's distributed
//!   dynamic-programming balancer (Algorithm 1).
//! * [`sim`] — the slot-driven WSN system simulator, structured as a
//!   six-phase pipeline emitting typed [`sim::SimEvent`]s to pluggable
//!   observers. It also runs inter-chain node virtualization for QoS
//!   (NVD4Q, Algorithm 2): at [`sim::SimConfig::multiplex`] `M`, each
//!   position has `M` clones and clone `k` is on duty in the slots
//!   `≡ k (mod M)`. [`fleet`] is the streaming many-chain harness
//!   behind the paper's "our simulator runs thousands of single-node
//!   simulators simultaneously".
//! * [`runner`] — batch execution: the work-stealing job pool, the
//!   [`runner::Reduce`] streaming-aggregation trait and the
//!   [`runner::Progress`] observer hook every experiment/fleet entry
//!   point runs on.
//! * [`metrics`] — wakeups / packets captured / cloud-processed /
//!   fog-processed accounting, plus stored-energy traces (Figure 9).
//! * [`experiment`] — ready-made configurations for every table and
//!   figure of the evaluation, and [`report`] — plain-text renderers
//!   for their outputs.
//! * [`timeline`] — the Figure 1 / Figure 4 activation timing
//!   breakdowns.
//! * [`table1`] — the catalog of deployed energy-harvesting WSN
//!   systems (Table 1).

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod balance;
pub mod experiment;
pub mod fleet;
pub mod metrics;
pub mod node;
pub mod report;
pub mod runner;
pub mod sim;
pub mod table1;
pub mod timeline;

pub use balance::{
    BalanceReport, ChainBalanceInput, DistributedBalancer, LoadBalancer, NoBalancer,
    NodeBalanceState, NodeSummary, OffloadBalancer, OffloadDecision, OffloadTarget, RouteContext,
    TreeBalancer,
};
pub use metrics::{NetworkMetrics, NodeMetrics};
pub use node::{NodeCapabilities, NodeConfig, PackageSpec, SystemKind};
pub use runner::{run_batch, CollectAll, NoProgress, PoolConfig, Progress, Reduce, StderrTicker};
pub use sim::{
    BalancerKind, EventLogObserver, MetricsObserver, Observers, RadioPurpose, ShedReason,
    SimConfig, SimEvent, SimObserver, SimResult, Simulator, StoredTraceObserver,
};
