//! The slot-driven WSN system simulator (paper §4), structured as a
//! phase pipeline over a typed event bus.
//!
//! One simulator instance models one chain of logical positions (10 in
//! every figure), optionally NVD4Q-multiplexed so each position is
//! implemented by `M` physical clones. Time advances in RTC slots
//! (default 12 s × 1500 slots = the paper's 5-hour window, in which 10
//! always-on nodes would ideally deliver 15 000 data packages).
//!
//! # The phase pipeline
//!
//! Every slot clears the wake flags and the simulator-owned scratch
//! slot context (cleared and refilled in place so the steady-state
//! loop never allocates) and runs six explicit phase functions over
//! it, in order — one private module per phase:
//!
//! 1. `harvest` — each physical node opens its conservation ledger,
//!    reads its income for the slot from the table `Simulator::new`
//!    folded from its power trace, feeds the RTC capacitor first
//!    (charging priority), then builds its slot energy budget through
//!    its front-end: FIOS nodes get a 90 %-efficient direct pool plus
//!    the capacitor; NOS nodes only the capacitor round-trip.
//! 2. `wake` — the clones on duty this slot (clone `slot % M` of each
//!    position, NVD4Q's Algorithm 2) wake if they can afford the
//!    activation threshold; an on-duty node that cannot is a *failure*
//!    (energy depletion). Awake nodes capture one data package;
//!    fog-capable nodes also enqueue its processing task.
//! 3. `balance` — the configured intra-chain balancer redistributes
//!    fog tasks among the awake representatives using their Spendthrift
//!    state; transfer traffic is charged. A round in which the balancer
//!    can tell from each position's scalars that no task can move ends
//!    there, before any task list is built.
//! 4. `compute` — fog tasks execute within each node's time and
//!    energy budget (forward progress persists across slots on NVPs);
//!    stale pending packages are shed or shipped raw.
//! 5. `transmit` — nodes with ready packages open a radio session
//!    (531 ms software init / 33 ms NVM restore / 1.9 ms NVRF start
//!    depending on the system) and ship packages into the chain mesh;
//!    the MAC layer relays transparently (§2.3), so delivery succeeds
//!    with the measured per-hop probability compounded over the hop
//!    count, and awake intermediate nodes are charged forwarding
//!    airtime. Packages whose relay duty cannot be paid are lost.
//! 6. `slot_end` — volatile nodes lose their queues; capacitors
//!    leak; conservation ledgers settle.
//!
//! # The event bus
//!
//! Phases never touch a counter directly: every observable state
//! change is emitted as a [`SimEvent`] and folded by observers.
//! [`MetricsObserver`] (the paper's counters), [`StoredTraceObserver`]
//! (the Figure-9 series) and the JSONL [`EventLogObserver`] are all
//! such folds; additional recorders attach via
//! [`Simulator::attach_observer`]. Observers are write-only taps —
//! attaching one can never change a [`SimResult`].
//!
//! Energy conservation is not an observer: each node's ledger settles
//! in place at slot end and asserts the slot balanced, in every build
//! profile (see the `ledger` module).

mod balance;
mod columns;
mod compute;
mod ctx;
mod event;
mod harvest;
mod ledger;
mod observe;
mod slot_end;
mod transmit;
mod wake;

pub use event::{RadioPurpose, ShedReason, SimEvent};
pub use observe::{
    render_jsonl, EventLogObserver, MetricsObserver, Observers, SimObserver, StoredTraceObserver,
};

use crate::balance::{
    DistributedBalancer, LoadBalancer, NoBalancer, OffloadBalancer, TreeBalancer,
};
use crate::metrics::NetworkMetrics;
use crate::node::{NodeConfig, SystemKind};
use columns::NodeColumns;
use ctx::SlotCtx;
use neofog_energy::{Scenario, TraceGenerator};
use neofog_net::{RoutePlan, TopologySpec};
use neofog_nvp::SpendthriftPolicy;
use neofog_rf::{LossModel, RfTimings};
use neofog_types::{Duration, NeoFogError, Result};
use observe::EventBus;
use serde::{Deserialize, Serialize};

/// Which balancer a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BalancerKind {
    /// No balancing at all.
    None,
    /// The baseline up-down tree balancer.
    Tree,
    /// The paper's distributed Algorithm-1 balancer.
    Distributed,
    /// The topology-aware offload balancer: compute-here vs
    /// ship-to-neighbour vs ship-to-cloud, priced by the radio
    /// front-end energy model.
    Offload,
}

impl BalancerKind {
    /// Instantiates the balancer (the distributed one uses the slot
    /// length, rounded up to whole seconds, as its `MAXTIME` call
    /// interval).
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] for
    /// [`BalancerKind::Distributed`] with a sub-second slot length: the
    /// `MAXTIME` interval is counted in whole seconds, so rounding a
    /// sub-second slot up to 1 s would silently stretch the call
    /// interval past the slot.
    pub fn build(self, slot_len: Duration) -> Result<Box<dyn LoadBalancer>> {
        match self {
            BalancerKind::None => Ok(Box::new(NoBalancer)),
            BalancerKind::Tree => Ok(Box::new(TreeBalancer::new())),
            BalancerKind::Offload => Ok(Box::new(OffloadBalancer::new())),
            BalancerKind::Distributed => {
                let micros = slot_len.as_micros();
                if micros < 1_000_000 {
                    return Err(NeoFogError::invalid_config(format!(
                        "distributed balancer needs a slot length of at least 1 s \
                         (got {micros} µs)"
                    )));
                }
                let maxtime_secs = micros.div_ceil(1_000_000);
                Ok(Box::new(DistributedBalancer::new(maxtime_secs)))
            }
        }
    }

    /// The default balancer of each evaluated system.
    #[must_use]
    pub fn default_for(system: SystemKind) -> Self {
        match system {
            SystemKind::NosVp => BalancerKind::None,
            SystemKind::NosNvp => BalancerKind::Tree,
            SystemKind::FiosNeoFog => BalancerKind::Distributed,
        }
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Node design under test.
    pub system: SystemKind,
    /// Intra-chain balancer.
    pub balancer: BalancerKind,
    /// Network topology the positions are wired into (chain, seeded
    /// mesh or sensor/gateway/cloud tiers); compiled once into an
    /// immutable [`RoutePlan`] at construction.
    pub topology: TopologySpec,
    /// Power-trace scenario.
    pub scenario: Scenario,
    /// Logical chain positions (the paper presents 10).
    pub positions: usize,
    /// NVD4Q multiplexing factor (1 = no virtualization).
    pub multiplex: u32,
    /// Number of RTC slots to simulate.
    pub slots: u64,
    /// Slot length.
    pub slot_len: Duration,
    /// Sampling interval of the synthesized power traces, which must be
    /// positive. The paper evaluation uses 1 s (several samples per
    /// 12 s slot). Construction folds each node's trace into its
    /// `slots` per-slot incomes and stores nothing else, so `trace_dt`
    /// sets how many random draws set-up makes (`slots × slot_len /
    /// trace_dt` per node), not how much memory a run holds.
    pub trace_dt: Duration,
    /// Trace/loss random seed (the paper's "power profile" index).
    pub seed: u64,
    /// Per-node configuration.
    pub node: NodeConfig,
    /// Record per-slot stored energy (Figure 9) — memory-heavy.
    pub trace_stored: bool,
    /// Extra channel loss from weather (rainy scenarios).
    pub weather_loss: f64,
    /// Multiplier on every node's power trace (1.0 = the scenario's
    /// nominal level, which every figure uses, Figure 9 included).
    pub income_scale: f64,
    /// Write a deterministic JSONL event log to this path (see
    /// [`EventLogObserver`]); `None` disables logging.
    pub events_path: Option<String>,
}

impl SimConfig {
    /// The evaluation defaults: 10 positions, 1500 × 12 s slots
    /// (5 hours, 15 000 ideal packages), system-default balancer.
    #[must_use]
    pub fn paper_default(system: SystemKind, scenario: Scenario, seed: u64) -> Self {
        let mut node = NodeConfig::paper_default(system);
        // The forest and bridge deployments run the heavier offloaded
        // kernels (volumetric reconstruction / structural models); the
        // mountain nodes run a lighter slide detector.
        if matches!(
            scenario,
            Scenario::ForestIndependent | Scenario::BridgeDependent
        ) {
            node.package = crate::node::PackageSpec::heavy();
        }
        SimConfig {
            system,
            balancer: BalancerKind::default_for(system),
            topology: TopologySpec::default(),
            scenario,
            positions: 10,
            multiplex: 1,
            slots: 1500,
            slot_len: Duration::from_secs(12),
            trace_dt: Duration::from_secs(1),
            seed,
            node,
            trace_stored: false,
            weather_loss: if scenario == Scenario::MountainRainy {
                0.03
            } else {
                0.0
            },
            income_scale: 1.0,
            events_path: None,
        }
    }

    /// Ideal package count: one per position per slot.
    #[must_use]
    pub fn ideal_packages(&self) -> u64 {
        self.positions as u64 * self.slots
    }

    /// The slot window [`Simulator::advance`] cycles through, which is
    /// also the number of per-slot incomes built per node: `slots`,
    /// but at least one.
    fn window(&self) -> u64 {
        self.slots.max(1)
    }
}

/// Result of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// The configuration that produced it.
    pub config: SimConfig,
    /// All counters.
    pub metrics: NetworkMetrics,
}

impl SimResult {
    /// Convenience: total delivered / ideal, or 0.0 for a run with no
    /// slots (nothing was ideal, and nothing was delivered).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        let ideal = self.config.ideal_packages();
        if ideal == 0 {
            0.0
        } else {
            self.metrics.total_processed() as f64 / ideal as f64
        }
    }
}

/// The simulator: durable node state plus the observer stack.
pub struct Simulator {
    cfg: SimConfig,
    /// Per-node state, columnar for the hot fields (see [`columns`]).
    /// Position `p`'s clones are nodes `p·m .. (p+1)·m`, `m` being
    /// `cfg.multiplex`.
    nodes: NodeColumns,
    /// Compiled topology: next-hop table, hop counts, sweep order and
    /// each position's tier — the slot loop never does graph search.
    route: RoutePlan,
    /// Per-position end-to-end delivery odds: the loss model's per-hop
    /// success compounded over the position's route-plan hops plus the
    /// hop into the sink, computed once at construction.
    delivery_odds: Vec<f64>,
    balancer: Box<dyn LoadBalancer>,
    rf: RfTimings,
    spendthrift: SpendthriftPolicy,
    /// The counters fold (sole producer of the result metrics).
    metrics: MetricsObserver,
    /// The Figure-9 stored-energy fold, when `trace_stored` is set.
    trace: Option<StoredTraceObserver>,
    /// Pluggable observers: the JSONL event log and anything attached
    /// via [`Simulator::attach_observer`].
    observers: Observers,
    /// Reusable per-slot scratch: cleared and refilled every slot so
    /// the steady-state loop allocates nothing after warm-up.
    scratch: SlotCtx,
    /// Slots advanced so far (see [`Simulator::advance`]).
    next_slot: u64,
}

/// The simulation state a phase may read and mutate, split from the
/// observer stack so a phase can hold `&mut` node state while emitting
/// events.
pub(crate) struct SimParts<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) nodes: &'a mut NodeColumns,
    pub(crate) route: &'a RoutePlan,
    pub(crate) delivery_odds: &'a [f64],
    pub(crate) balancer: &'a mut Box<dyn LoadBalancer>,
    pub(crate) rf: &'a RfTimings,
    pub(crate) spendthrift: &'a SpendthriftPolicy,
}

impl Simulator {
    /// Builds a simulator (generating per-node power traces).
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] when the chain is empty
    /// (zero positions or a zero multiplex factor); when the slot
    /// length or the trace interval is zero; when the capacitor
    /// capacity (`node.cap_capacity`) is not positive and finite; when
    /// the physical node count (`positions × multiplex`), `slots` or
    /// `node.package.fog_instructions` exceeds `u32::MAX` (a queued
    /// package stores each in a `u32`); when a fog-capable system's
    /// packages carry no fog instructions; when the window
    /// (`slots × slot_len`), or the end of its last trace sample (the
    /// window rounded up to whole `trace_dt`s), does not fit in `u64` µs;
    /// when the balancer rejects the slot length (see
    /// [`BalancerKind::build`]) or when `events_path` cannot be created.
    pub fn new(cfg: SimConfig) -> Result<Self> {
        if cfg.positions == 0 || cfg.multiplex == 0 {
            return Err(NeoFogError::invalid_config(format!(
                "a chain needs at least one position and one clone per position \
                 (got {} positions × multiplex {})",
                cfg.positions, cfg.multiplex
            )));
        }
        if cfg.slot_len.is_zero() || cfg.trace_dt.is_zero() {
            return Err(NeoFogError::invalid_config(format!(
                "slot length and trace interval must be positive (got {} µs and {} µs)",
                cfg.slot_len.as_micros(),
                cfg.trace_dt.as_micros()
            )));
        }
        // A queued package stores a node index, a slot and an
        // instruction count in `u32`s.
        let fits = |v: u64| v <= u64::from(u32::MAX);
        let physical = cfg
            .positions
            .checked_mul(cfg.multiplex as usize)
            .filter(|&n| fits(n as u64));
        let fog_instructions = cfg.node.package.fog_instructions;
        let (Some(physical), true, true) = (physical, fits(cfg.slots), fits(fog_instructions))
        else {
            return Err(NeoFogError::invalid_config(format!(
                "positions × multiplex ({} × {}), slots ({}) and fog instructions per \
                 package ({fog_instructions}) must each fit in a u32",
                cfg.positions, cfg.multiplex, cfg.slots
            )));
        };
        // The compute phase advances a queue's head package by at most
        // its remaining instructions; with none to run, the head never
        // completes and blocks every package behind it.
        if cfg.system.is_fog_capable() && fog_instructions == 0 {
            return Err(NeoFogError::invalid_config(format!(
                "{:?} processes packages in fog, so each needs at least one fog \
                 instruction (got 0)",
                cfg.system
            )));
        }
        // Set-up clocks the window and every trace sample in whole µs:
        // the window's end and the end of its last sample must fit.
        let (slot_us, dt_us) = (cfg.slot_len.as_micros(), cfg.trace_dt.as_micros());
        let Some(window_us) = slot_us
            .checked_mul(cfg.slots)
            .filter(|&total| total.div_ceil(dt_us).checked_mul(dt_us).is_some())
        else {
            return Err(NeoFogError::invalid_config(format!(
                "{} slots of {slot_us} µs, sampled every {dt_us} µs, run past u64::MAX µs",
                cfg.slots
            )));
        };
        let gen = TraceGenerator::new(cfg.scenario, cfg.seed);
        let total_time = Duration::from_micros(window_us);
        let trace_dt = cfg.trace_dt;
        // One plan for the whole chain: dependent scenarios synthesize
        // their shared base curve exactly once here, instead of once
        // per physical node.
        let plan = gen.chain_plan(physical, total_time, trace_dt);
        // Compile the topology once: the slot loop only reads the
        // resulting next-hop/hops/order tables.
        let route = cfg.topology.build(cfg.positions)?;
        // Compound each position's per-hop delivery odds once, so the
        // transmit sweep never raises them to a power.
        let loss = LossModel::paper_default().with_weather_loss(cfg.weather_loss);
        let delivery_odds = (0..cfg.positions)
            .map(|p| loss.chain_success(route.hops(p) + 1))
            .collect();
        // Fill the columns the slot kernel sweeps in place, folding each
        // node's trace into the income table as it is synthesized: hot
        // fields and each slot's incomes become dense arrays, queues and
        // RNG streams stay row-oriented.
        let nodes = NodeColumns::new(&cfg, &plan)?;
        let balancer = cfg.balancer.build(cfg.slot_len)?;
        let metrics = MetricsObserver::new(physical);
        let trace = cfg.trace_stored.then(|| StoredTraceObserver::new(physical));
        let mut observers = Observers::default();
        if let Some(path) = &cfg.events_path {
            observers.push(Box::new(EventLogObserver::create(path)?));
        }
        Ok(Simulator {
            nodes,
            route,
            delivery_odds,
            balancer,
            rf: RfTimings::paper_default(),
            spendthrift: SpendthriftPolicy::paper_default(),
            metrics,
            trace,
            observers,
            scratch: SlotCtx::warmed(cfg.positions),
            next_slot: 0,
            cfg,
        })
    }

    /// Attaches an additional observer behind the built-in recorders
    /// (delivery order: metrics, trace, then attach order).
    pub fn attach_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.observers.push(observer);
    }

    /// FNV-1a digest over part of the per-node state. For each physical
    /// node `i` in index order it hashes: the main capacitor's stored
    /// energy, the RTC's sync bit, the FIFO depth, the unspent direct
    /// pool, the wake flag, the income power, a zero word (where a
    /// per-node balance credit was hashed; it was always 0.0 between
    /// slots, so every pinned digest holds), the position
    /// (`i / multiplex`), the two halves of its package buffer
    /// — the pending FIFO, then the outbox — each as its length and then
    /// each package's origin, creation slot, remaining instructions and
    /// done flag, and the next draw of a clone of the node's RNG stream.
    ///
    /// Nothing else is hashed: not the RTC capacitor's charge (which
    /// changes every slot), the balancer, the slot counter or the
    /// observers. Equal digests therefore mean equal values in the
    /// listed fields only.
    ///
    /// `perfbench/pins.txt` pins digests that fold this value, so a
    /// change to what it hashes invalidates every pinned seed.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "phase functions loop over per-node vectors all sized to the node count"
    )]
    pub fn state_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        };
        let multiplex = self.cfg.multiplex as usize;
        for i in 0..self.nodes.len() {
            mix(self.nodes.stored[i].as_nanojoules().to_bits());
            mix(u64::from(self.nodes.synced[i]));
            mix(u64::from(self.nodes.fifo_depth[i]));
            mix(self.nodes.direct_left[i].as_nanojoules().to_bits());
            mix(u64::from(self.nodes.awake[i]));
            mix(self.nodes.income_power[i].as_microwatts().to_bits());
            mix(0);
            mix((i / multiplex) as u64);
            let cold = &self.nodes.cold[i];
            let depth = self.nodes.fifo_depth[i];
            for queue in [
                ctx::pending(&cold.queue, depth),
                ctx::outbox(&cold.queue, depth),
            ] {
                mix(queue.len() as u64);
                for pkg in queue {
                    mix(u64::from(pkg.origin));
                    mix(u64::from(pkg.created));
                    mix(u64::from(pkg.fog_remaining));
                    mix(u64::from(pkg.fog_done));
                }
            }
            mix(cold.rng.clone().next_u64());
        }
        hash
    }

    /// Advances the simulation by `slots` more slots without finishing
    /// it, cycling the slot index through the configured window
    /// (`slot % cfg.slots`).
    ///
    /// This is the steady-state driver for benchmarks and soak tests:
    /// build once, warm up, then time `advance(1)` per iteration
    /// without paying trace synthesis again. Durable node state
    /// (capacitor charge, queues, RNG streams) carries across the
    /// wrap, so the workload stays representative; a run that should
    /// produce the paper's metrics uses [`Simulator::run`], which
    /// performs exactly one pass over the window.
    pub fn advance(&mut self, slots: u64) {
        let window = self.cfg.window();
        for _ in 0..slots {
            self.step(self.next_slot % window);
            self.next_slot += 1;
        }
    }

    /// Runs the remainder of the simulation window and returns the
    /// metrics (one pass over `cfg.slots` when no [`advance`] calls
    /// preceded it).
    ///
    /// [`advance`]: Simulator::advance
    #[must_use]
    pub fn run(mut self) -> SimResult {
        for slot in self.next_slot..self.cfg.slots {
            self.step(slot);
        }
        let Simulator {
            cfg,
            nodes,
            mut metrics,
            trace,
            mut observers,
            ..
        } = self;
        // The node state is the run's largest allocation: free it before
        // the metric rows are built beside the metric columns.
        drop(nodes);
        metrics.on_finish();
        observers.on_finish();
        let mut metrics = metrics.into_metrics();
        if let Some(mut trace) = trace {
            trace.on_finish();
            trace.merge_into(&mut metrics);
        }
        SimResult {
            config: cfg,
            metrics,
        }
    }

    /// Advances one slot through the six-phase pipeline.
    fn step(&mut self, slot: u64) {
        // Take the scratch context out so the phases can borrow the
        // simulator mutably alongside it; its vectors are cleared and
        // refilled in place, so capacity survives across all slots.
        let mut ctx = std::mem::take(&mut self.scratch);
        self.nodes.begin_slot();
        ctx.reset(self.nodes.len(), slot, self.cfg.multiplex);
        self.emit(&SimEvent::SlotBegan { slot });
        harvest::run(self, &mut ctx);
        wake::run(self, &mut ctx);
        balance::run(self, &mut ctx);
        compute::run(self, &mut ctx);
        transmit::run(self, &mut ctx);
        slot_end::run(self, &mut ctx);
        self.emit(&SimEvent::SlotEnded { slot });
        self.scratch = ctx;
    }

    /// Splits the simulator into phase-visible state and the event bus.
    pub(crate) fn split(&mut self) -> (SimParts<'_>, EventBus<'_>) {
        let Simulator {
            cfg,
            nodes,
            route,
            delivery_odds,
            balancer,
            rf,
            spendthrift,
            metrics,
            trace,
            observers,
            scratch: _,
            next_slot: _,
        } = self;
        (
            SimParts {
                cfg,
                nodes,
                route,
                delivery_odds,
                balancer,
                rf,
                spendthrift,
            },
            EventBus {
                metrics,
                trace: trace.as_mut(),
                extra: observers,
            },
        )
    }

    /// Emits one event outside any phase (slot boundaries).
    fn emit(&mut self, event: &SimEvent) {
        let (_parts, mut bus) = self.split();
        bus.emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neofog_types::Energy;

    fn quick_cfg(system: SystemKind) -> SimConfig {
        let mut cfg = SimConfig::paper_default(system, Scenario::ForestIndependent, 1);
        cfg.slots = 150;
        cfg
    }

    fn build(cfg: SimConfig) -> Simulator {
        Simulator::new(cfg).expect("config is valid")
    }

    #[test]
    fn runs_and_counts_are_bounded() {
        for system in SystemKind::ALL {
            let result = build(quick_cfg(system)).run();
            let m = &result.metrics;
            let ideal = result.config.ideal_packages();
            assert!(m.total_wakeups() + m.total_failures() <= ideal);
            assert!(m.total_captured() <= m.total_wakeups());
            assert!(
                m.total_processed() <= m.total_captured(),
                "{system:?}: processed {} > captured {}",
                m.total_processed(),
                m.total_captured()
            );
        }
    }

    #[test]
    fn vp_never_fog_processes() {
        let result = build(quick_cfg(SystemKind::NosVp)).run();
        assert_eq!(result.metrics.fog_processed(), 0);
    }

    #[test]
    fn neofog_mostly_fog_processes() {
        let result = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        let m = &result.metrics;
        assert!(m.total_processed() > 0, "nothing delivered");
        assert!(m.fog_share() > 0.5, "fog share {}", m.fog_share());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        let b = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg2 = quick_cfg(SystemKind::FiosNeoFog);
        cfg2.seed = 99;
        let a = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        let b = build(cfg2).run();
        assert_ne!(a.metrics, b.metrics);
    }

    #[test]
    fn stored_trace_recorded_when_enabled() {
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.trace_stored = true;
        let result = build(cfg).run();
        assert_eq!(result.metrics.nodes[0].stored_series.len(), 150);
    }

    #[test]
    fn multiplexing_reduces_per_node_wakeups() {
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.multiplex = 3;
        let result = build(cfg).run();
        // 30 physical nodes, each scheduled 1/3 of slots.
        assert_eq!(result.metrics.nodes.len(), 30);
        for n in &result.metrics.nodes {
            assert!(n.wakeups + n.failures <= 50);
        }
    }

    #[test]
    fn distributed_balancer_rejects_subsecond_slots() {
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slot_len = Duration::from_micros(500_000);
        assert!(matches!(
            Simulator::new(cfg),
            Err(NeoFogError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn distributed_balancer_takes_the_longest_slot() {
        // One slot of u64::MAX µs, sampled once: `Simulator::new`
        // accepts the window, and MAXTIME, counted in 0.1 s units, fits.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slots = 1;
        cfg.slot_len = Duration::from_micros(u64::MAX);
        cfg.trace_dt = Duration::from_micros(u64::MAX);
        let result = build(cfg).run();
        assert_eq!(result.metrics.nodes.len(), 10);
    }

    #[test]
    fn zero_slot_length_or_trace_interval_is_rejected() {
        for balancer in [
            BalancerKind::None,
            BalancerKind::Tree,
            BalancerKind::Distributed,
            BalancerKind::Offload,
        ] {
            let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
            cfg.balancer = balancer;
            cfg.slot_len = Duration::ZERO;
            assert!(
                matches!(Simulator::new(cfg), Err(NeoFogError::InvalidConfig { .. })),
                "{balancer:?} accepted a zero slot length"
            );
        }
        for scenario in [Scenario::ForestIndependent, Scenario::BridgeDependent] {
            let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, scenario, 1);
            cfg.trace_dt = Duration::ZERO;
            assert!(
                matches!(Simulator::new(cfg), Err(NeoFogError::InvalidConfig { .. })),
                "{scenario:?} accepted a zero trace interval"
            );
        }
        // An empty window still advances: the income table keeps one
        // slot, over a trace with no samples.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slots = 0;
        let mut sim = build(cfg);
        sim.advance(3);
        let result = sim.run();
        assert!(result
            .metrics
            .nodes
            .iter()
            .all(|n| n.harvested == Energy::ZERO));
    }

    #[test]
    fn empty_chains_are_rejected() {
        for (positions, multiplex) in [(0, 1), (10, 0), (0, 0)] {
            let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
            cfg.positions = positions;
            cfg.multiplex = multiplex;
            assert!(
                matches!(Simulator::new(cfg), Err(NeoFogError::InvalidConfig { .. })),
                "{positions} × {multiplex} nodes accepted"
            );
        }
        // A run with no slots stays legal: nothing was ideal, so nothing
        // of it was delivered.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slots = 0;
        assert_eq!(build(cfg).run().delivery_ratio(), 0.0);
    }

    #[test]
    fn capacitor_sizes_that_are_not_positive_and_finite_are_rejected() {
        let mj = Energy::from_millijoules;
        for capacity in [
            Energy::ZERO,
            mj(-5.0),
            mj(f64::INFINITY),
            mj(1.0) * f64::NAN,
        ] {
            let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
            cfg.node.cap_capacity = capacity;
            assert!(
                matches!(Simulator::new(cfg), Err(NeoFogError::InvalidConfig { .. })),
                "capacity {capacity:?} accepted"
            );
        }
        // The smallest positive size still runs.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.node.cap_capacity = Energy::from_nanojoules(f64::MIN_POSITIVE);
        let _ = build(cfg).run();
    }

    #[test]
    fn node_counts_beyond_u32_are_rejected() {
        for (positions, multiplex) in [(2, u32::MAX), (usize::MAX, 2)] {
            let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
            cfg.positions = positions;
            cfg.multiplex = multiplex;
            assert!(
                matches!(Simulator::new(cfg), Err(NeoFogError::InvalidConfig { .. })),
                "{positions} × {multiplex} nodes accepted"
            );
        }
    }

    #[test]
    fn slot_counts_beyond_u32_are_rejected() {
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slots = u64::from(u32::MAX) + 1;
        assert!(matches!(
            Simulator::new(cfg),
            Err(NeoFogError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn windows_beyond_u64_micros_are_rejected() {
        // The window itself overflows: 3 slots of u64::MAX / 2 µs.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slot_len = Duration::from_micros(u64::MAX / 2);
        cfg.slots = 3;
        assert!(matches!(
            Simulator::new(cfg),
            Err(NeoFogError::InvalidConfig { .. })
        ));
        // The window fits (3 × u64::MAX / 3 = u64::MAX µs), but it
        // takes three trace samples of u64::MAX / 2 µs, and the third
        // ends past u64::MAX µs.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slot_len = Duration::from_micros(u64::MAX / 3);
        cfg.slots = 3;
        cfg.trace_dt = Duration::from_micros(u64::MAX / 2);
        assert!(matches!(
            Simulator::new(cfg),
            Err(NeoFogError::InvalidConfig { .. })
        ));
        // A window that ends exactly at u64::MAX µs, in one sample,
        // still builds.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slot_len = Duration::from_micros(u64::MAX / 3);
        cfg.slots = 3;
        cfg.trace_dt = Duration::from_micros(u64::MAX);
        assert!(Simulator::new(cfg).is_ok());
    }

    #[test]
    fn fog_instructions_beyond_u32_are_rejected() {
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.node.package.fog_instructions = u64::from(u32::MAX) + 1;
        assert!(matches!(
            Simulator::new(cfg),
            Err(NeoFogError::InvalidConfig { .. })
        ));
        // The bound itself still fits a package.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.node.package.fog_instructions = u64::from(u32::MAX);
        let result = build(cfg).run();
        assert!(result.metrics.total_captured() > 0);
    }

    #[test]
    fn zero_fog_instructions_are_rejected_in_fog() {
        // A zero-instruction head package would never complete.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.node.package.fog_instructions = 0;
        assert!(matches!(
            Simulator::new(cfg),
            Err(NeoFogError::InvalidConfig { .. })
        ));
        // One instruction is enough for packages to finish in fog.
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.node.package.fog_instructions = 1;
        assert!(build(cfg).run().metrics.fog_processed() > 0);
        // NOS-VP never processes in fog, so the count is irrelevant.
        let mut cfg = quick_cfg(SystemKind::NosVp);
        cfg.node.package.fog_instructions = 0;
        assert!(Simulator::new(cfg).is_ok());
    }

    #[test]
    fn whole_second_slot_lengths_still_build() {
        for system in SystemKind::ALL {
            let cfg = quick_cfg(system);
            assert!(cfg.balancer.build(cfg.slot_len).is_ok());
        }
    }

    #[test]
    fn attached_observer_sees_every_slot_boundary() {
        struct SlotCounter(std::rc::Rc<std::cell::RefCell<(u64, u64)>>);
        impl SimObserver for SlotCounter {
            fn on_event(&mut self, event: &SimEvent) {
                match event {
                    SimEvent::SlotBegan { .. } => self.0.borrow_mut().0 += 1,
                    SimEvent::SlotEnded { .. } => self.0.borrow_mut().1 += 1,
                    _ => {}
                }
            }
        }
        let counts = std::rc::Rc::new(std::cell::RefCell::new((0, 0)));
        let mut sim = build(quick_cfg(SystemKind::FiosNeoFog));
        sim.attach_observer(Box::new(SlotCounter(counts.clone())));
        let _ = sim.run();
        assert_eq!(*counts.borrow(), (150, 150));
    }

    #[test]
    fn attaching_an_observer_never_changes_the_result() {
        struct Sink;
        impl SimObserver for Sink {
            fn on_event(&mut self, _event: &SimEvent) {}
        }
        let plain = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        let mut sim = build(quick_cfg(SystemKind::FiosNeoFog));
        sim.attach_observer(Box::new(Sink));
        let observed = sim.run();
        assert_eq!(plain.metrics, observed.metrics);
    }

    #[test]
    fn stale_sheds_run_past_the_horizon_skip() {
        // The compute phase's stale sweep skips a node while the slot is
        // below its staleness horizon, and debug-asserts at every skip
        // that the node holds no stale package. These runs make that
        // assertion matter: the heavy forest and bridge packages go
        // stale on scarce multiplexed chains, and advancing past `slots`
        // wraps the slot index below the capture slots of packages
        // still queued. With the tree balancer, which piles packages on
        // single nodes, its queue rebuild sets the horizon of every
        // awake node; without a balancer only captures and stale
        // visits move it.
        struct StaleSheds {
            slots: u64,
            begun: u64,
            /// Packages shed as stale before and after the wrap.
            shed: std::rc::Rc<std::cell::Cell<[u64; 2]>>,
        }
        impl SimObserver for StaleSheds {
            fn on_event(&mut self, event: &SimEvent) {
                match event {
                    SimEvent::SlotBegan { .. } => self.begun += 1,
                    SimEvent::PackageShed {
                        count,
                        reason: ShedReason::Stale,
                        ..
                    } => {
                        let mut shed = self.shed.get();
                        shed[usize::from(self.begun > self.slots)] += count;
                        self.shed.set(shed);
                    }
                    _ => {}
                }
            }
        }
        for (scenario, balancer) in [
            (Scenario::ForestIndependent, BalancerKind::Tree),
            (Scenario::BridgeDependent, BalancerKind::Tree),
            (Scenario::BridgeDependent, BalancerKind::None),
        ] {
            let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, scenario, 1);
            cfg.balancer = balancer;
            cfg.multiplex = 3;
            cfg.slots = 200;
            let shed = std::rc::Rc::new(std::cell::Cell::new([0; 2]));
            let mut sim = build(cfg);
            sim.attach_observer(Box::new(StaleSheds {
                slots: 200,
                begun: 0,
                shed: shed.clone(),
            }));
            sim.advance(500);
            let [before, after] = shed.get();
            assert!(
                before > 0 && after > 0,
                "{scenario:?} with {balancer:?}: {before} stale sheds before the wrap, \
                 {after} after"
            );
        }
    }

    #[test]
    fn chunked_advance_matches_one_uninterrupted_run() {
        let cfg = || {
            let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
            cfg.slots = 40;
            cfg
        };
        // Advances one simulator by `chunks`, returning its JSONL
        // event log and final state digest.
        let advance_in = |tag: &str, chunks: &[u64]| {
            let path = std::env::temp_dir()
                .join(format!("neofog-advance-{}-{tag}.jsonl", std::process::id()));
            let mut logged = cfg();
            logged.events_path = Some(path.display().to_string());
            let mut sim = build(logged);
            for &slots in chunks {
                sim.advance(slots);
            }
            let digest = sim.state_digest();
            drop(sim); // flushes the log writer
            let log = std::fs::read(&path).expect("event log written");
            std::fs::remove_file(&path).ok();
            (log, digest)
        };
        let chunked = advance_in("chunked", &[10, 10, 10]);
        let whole = advance_in("whole", &[30]);
        assert!(!whole.0.is_empty());
        assert!(
            chunked.0 == whole.0,
            "chunked event log diverged from advance(30)"
        );
        assert_eq!(chunked.1, whole.1);

        let mut sim = build(cfg());
        sim.advance(12);
        assert_eq!(sim.run().metrics, build(cfg()).run().metrics);
    }
}
