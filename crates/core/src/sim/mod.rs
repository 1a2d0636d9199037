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
//! Every slot resets the simulator-owned scratch
//! [`SlotCtx`](ctx::SlotCtx) (budgets, wake flags, conservation
//! ledgers — cleared and refilled in place so the steady-state loop
//! never allocates) and runs six explicit phase functions over it,
//! in order — one module per phase:
//!
//! 1. [`harvest`] — each physical node reads its prefix-summed income
//!    curve over the slot (O(1) per node),
//!    feeds the RTC capacitor first (charging priority), then builds
//!    its slot energy budget through its front-end: FIOS nodes get a
//!    90 %-efficient direct pool plus the capacitor; NOS nodes only
//!    the capacitor round-trip.
//! 2. [`wake`] — nodes scheduled this slot (their clone phase) wake if
//!    they can afford the activation threshold; a scheduled node that
//!    cannot is a *failure* (energy depletion). Awake nodes capture one
//!    data package; fog-capable nodes also enqueue its processing task.
//! 3. [`balance`] — the configured intra-chain balancer redistributes
//!    fog tasks among the awake representatives using their Spendthrift
//!    state; transfer traffic is charged.
//! 4. [`compute`] — fog tasks execute within each node's time and
//!    energy budget (forward progress persists across slots on NVPs);
//!    stale pending packages are shed or shipped raw.
//! 5. [`transmit`] — nodes with ready packages open a radio session
//!    (531 ms software init / 33 ms NVM restore / 1.9 ms NVRF start
//!    depending on the system) and ship packages into the chain mesh;
//!    the MAC layer relays transparently (§2.3), so delivery succeeds
//!    with the measured per-hop probability compounded over the hop
//!    count, and awake intermediate nodes are charged forwarding
//!    airtime. Packages whose relay duty cannot be paid are lost.
//! 6. [`slot_end`] — volatile nodes lose their queues; capacitors
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
use crate::node::{NodeCapabilities, NodeConfig, SystemKind, TierCapabilities};
use columns::NodeColumns;
use ctx::{NodeSim, SlotCtx};
use neofog_energy::{Rtc, Scenario, SuperCap, TraceGenerator};
use neofog_net::slots::SlotSchedule;
use neofog_net::{RoutePlan, TopologySpec};
use neofog_nvp::SpendthriftPolicy;
use neofog_rf::{LossModel, RfTimings};
use neofog_types::{Duration, Energy, NeoFogError, Power, Result, SimRng};
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
    /// Per-tier node capabilities (compute rate, radio envelope, link
    /// rates) applied by the node's route-plan tier.
    pub capabilities: TierCapabilities,
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
    /// Sampling interval of the synthesized power traces. The paper
    /// evaluation uses 1 s (several samples per 12 s slot); fleet-scale
    /// benchmarks coarsen it to `slot_len` so a 10⁶-node chain's curves
    /// fit in memory (per-node curve storage is proportional to
    /// `slots × slot_len / trace_dt`).
    pub trace_dt: Duration,
    /// Trace/loss random seed (the paper's "power profile" index).
    pub seed: u64,
    /// Per-node configuration.
    pub node: NodeConfig,
    /// Record per-slot stored energy (Figure 9) — memory-heavy.
    pub trace_stored: bool,
    /// Extra channel loss from weather (rainy scenarios).
    pub weather_loss: f64,
    /// Probability that a wake actually yields a usable sample; heavy
    /// rain degrades the sensing itself ("total successful sampling
    /// under the reduced power conditions reduces to 8000", §5.3).
    pub sampling_success: f64,
    /// Multiplier on every node's power trace (1.0 = the scenario's
    /// nominal level; Figure 9 uses a bright daytime window).
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
            capabilities: TierCapabilities::paper_default(),
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
            sampling_success: if scenario == Scenario::MountainRainy {
                0.55
            } else {
                1.0
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
    /// Convenience: total delivered / ideal.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        self.metrics.total_processed() as f64 / self.config.ideal_packages() as f64
    }
}

/// The simulator: durable node state plus the observer stack.
pub struct Simulator {
    cfg: SimConfig,
    /// Per-node state, columnar for the hot fields (see [`columns`]).
    nodes: NodeColumns,
    /// Physical node indices per logical position.
    positions: Vec<Vec<usize>>,
    /// Compiled topology: next-hop table, hop counts, sweep order and
    /// CSR adjacency — the slot loop never does graph search.
    route: RoutePlan,
    /// Per-position capability rows, derived from each position's tier.
    caps: Vec<NodeCapabilities>,
    balancer: Box<dyn LoadBalancer>,
    loss: LossModel,
    rf: RfTimings,
    spendthrift: SpendthriftPolicy,
    rng: SimRng,
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
    pub(crate) positions: &'a [Vec<usize>],
    pub(crate) route: &'a RoutePlan,
    pub(crate) caps: &'a [NodeCapabilities],
    pub(crate) balancer: &'a mut Box<dyn LoadBalancer>,
    pub(crate) loss: &'a LossModel,
    pub(crate) rf: &'a RfTimings,
    pub(crate) spendthrift: &'a SpendthriftPolicy,
    pub(crate) rng: &'a mut SimRng,
}

impl Simulator {
    /// Builds a simulator (generating per-node power traces).
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] when the balancer rejects
    /// the slot length (see [`BalancerKind::build`]) or when
    /// `events_path` cannot be created.
    pub fn new(cfg: SimConfig) -> Result<Self> {
        let physical = cfg.positions * cfg.multiplex as usize;
        let gen = TraceGenerator::new(cfg.scenario, cfg.seed);
        let total_time = Duration::from_micros(cfg.slot_len.as_micros() * cfg.slots);
        let trace_dt = cfg.trace_dt;
        // One plan for the whole chain: dependent scenarios synthesize
        // their shared base curve exactly once here, instead of once
        // per physical node.
        let plan = gen.chain_plan(physical, total_time, trace_dt);
        // Compile the topology once: the slot loop only reads the
        // resulting next-hop/hops/order tables.
        let route = cfg.topology.build(cfg.positions)?;
        let caps: Vec<NodeCapabilities> = (0..cfg.positions)
            .map(|p| cfg.capabilities.for_tier(route.tier(p)))
            .collect();
        let mut rng = SimRng::seed_from(cfg.seed ^ 0x5EED);
        let mut nodes = Vec::with_capacity(physical);
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); cfg.positions];
        for p in 0..cfg.positions {
            for k in 0..cfg.multiplex {
                let idx = nodes.len();
                positions[p].push(idx);
                let schedule = if cfg.multiplex == 1 {
                    SlotSchedule::every_slot()
                } else {
                    SlotSchedule::new(cfg.multiplex, k)
                };
                let curve = plan.node_curve(idx, cfg.income_scale);
                let cap = SuperCap::new(cfg.node.cap_capacity)
                    .with_charge_efficiency(0.65)
                    .with_leak(cfg.node.cap_leak)
                    .with_initial(cfg.node.cap_capacity * cfg.node.initial_charge);
                let rtc = Rtc::new(Energy::from_millijoules(5.0), Power::from_microwatts(2.0));
                nodes.push(NodeSim {
                    cfg: cfg.node,
                    cap,
                    rtc,
                    curve,
                    schedule,
                    position: p,
                    hops_to_sink: route.hops(p),
                    caps: caps[p],
                    pending: Vec::with_capacity(ctx::QUEUE_RESERVE),
                    outbox: Vec::with_capacity(ctx::QUEUE_RESERVE),
                    rng: rng.fork(idx as u64),
                });
            }
        }
        // Scatter the construction rows into the columnar layout the
        // slot kernel sweeps (hot fields become dense arrays; queues,
        // curves and RNG streams stay row-oriented).
        let nodes = NodeColumns::scatter(nodes, cfg.node.front_end);
        let loss = LossModel::paper_default().with_weather_loss(cfg.weather_loss);
        let balancer = cfg.balancer.build(cfg.slot_len)?;
        let metrics = MetricsObserver::new(physical);
        let trace = cfg.trace_stored.then(|| StoredTraceObserver::new(physical));
        let mut observers = Observers::default();
        if let Some(path) = &cfg.events_path {
            observers.push(Box::new(EventLogObserver::create(path)?));
        }
        Ok(Simulator {
            nodes,
            positions,
            route,
            caps,
            balancer,
            loss,
            rf: RfTimings::paper_default(),
            spendthrift: SpendthriftPolicy::paper_default(),
            rng: SimRng::seed_from(cfg.seed ^ 0xBA1A),
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
    /// node in index order it hashes: the main capacitor's stored
    /// energy, the RTC's sync bit, the FIFO depth, the unspent direct
    /// pool, the wake flag, the income power, the balance credit, the
    /// position, both queues (length, then each package's origin,
    /// creation slot, remaining instructions and done flag), and the
    /// next draw of a clone of the node's RNG stream.
    ///
    /// Nothing else is hashed: not the RTC capacitor's charge (which
    /// changes every slot), the schedule cursor, the simulator-wide
    /// RNG, the balancer, the slot counter or the observers. Equal
    /// digests therefore mean equal values in the listed fields only.
    ///
    /// `perfbench/pins.txt` pins digests that fold this value, so a
    /// change to what it hashes invalidates every pinned seed.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        };
        for i in 0..self.nodes.len() {
            mix(self.nodes.cap[i].stored().as_nanojoules().to_bits());
            mix(u64::from(self.nodes.rtc[i].is_synchronized()));
            mix(u64::from(self.nodes.fifo_depth[i]));
            mix(self.nodes.direct_left[i].as_nanojoules().to_bits());
            mix(u64::from(self.nodes.awake[i]));
            mix(self.nodes.income_power[i].as_microwatts().to_bits());
            mix(self.nodes.balance_credit[i].as_nanojoules().to_bits());
            mix(self.nodes.position[i] as u64);
            let cold = &self.nodes.cold[i];
            for queue in [&cold.pending, &cold.outbox] {
                mix(queue.len() as u64);
                for pkg in queue {
                    mix(pkg.origin as u64);
                    mix(pkg.created);
                    mix(pkg.fog_remaining);
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
        let window = self.cfg.slots.max(1);
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
            mut metrics,
            trace,
            mut observers,
            ..
        } = self;
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
        ctx.reset(&self.cfg, &self.nodes, slot);
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
            positions,
            route,
            caps,
            balancer,
            loss,
            rf,
            spendthrift,
            rng,
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
                positions,
                route,
                caps,
                balancer,
                loss,
                rf,
                spendthrift,
                rng,
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
