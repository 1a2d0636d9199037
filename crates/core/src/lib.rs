//! NEOFog core: the paper's contribution.
//!
//! This crate assembles the substrates (`neofog-energy`, `neofog-nvp`,
//! `neofog-rf`, `neofog-sensors`, `neofog-workloads`, `neofog-net`)
//! into the three optimization layers of the NEOFog architecture
//! (paper §3) and the system-level simulator that evaluates them
//! (paper §4–§5):
//!
//! * [`node`] — node-level reoptimization: the NOS-VP, NOS-NVP and
//!   FIOS-NEOFog system kinds with their activation thresholds and
//!   per-slot cost structure (Figure 4).
//! * [`balance`] — intra-chain load balancing: no balancing, the
//!   baseline up-down tree balancer, and the paper's distributed
//!   dynamic-programming balancer (Algorithm 1).
//! * [`nvd4q`] — inter-chain node virtualization for QoS
//!   (Algorithm 2): clone sets time-multiplexing logical nodes via
//!   NVRF state sharing.
//! * [`sim`] — the slot-driven WSN system simulator, structured as a
//!   six-phase pipeline emitting typed [`sim::SimEvent`]s to pluggable
//!   observers, and [`fleet`] — the streaming many-chain harness
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

pub mod balance;
pub mod experiment;
pub mod fleet;
pub mod metrics;
pub mod node;
pub mod nvd4q;
pub mod report;
pub mod runner;
pub mod sim;
pub mod table1;
pub mod timeline;

pub use balance::{
    BalanceReport, ChainBalanceInput, DistributedBalancer, LoadBalancer, NoBalancer,
    NodeBalanceState, OffloadBalancer, OffloadDecision, OffloadTarget, RouteContext, TreeBalancer,
};
pub use metrics::{NetworkMetrics, NodeMetrics};
pub use node::{NodeCapabilities, NodeConfig, PackageSpec, SystemKind, TierCapabilities};
pub use nvd4q::{CloneSet, VirtualizationManager};
pub use runner::{run_batch, CollectAll, NoProgress, PoolConfig, Progress, Reduce, StderrTicker};
pub use sim::{
    BalancerKind, EventLogObserver, MetricsObserver, Observers, RadioPurpose, ShedReason,
    SimConfig, SimEvent, SimObserver, SimResult, Simulator, StoredTraceObserver,
};
