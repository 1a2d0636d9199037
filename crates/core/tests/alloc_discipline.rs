//! Steady-state allocation discipline for the slot loop.
//!
//! The scratch [`SlotCtx`] retains its vectors across slots, so after
//! a short warm-up (first slots grow the scratch and the per-node
//! package buffers to their working capacity) the phase pipeline must
//! perform **zero heap allocations per slot**. A counting global allocator
//! snapshots the allocation counter at slot boundaries through the
//! event bus and asserts the steady-state window allocates nothing.
//!
//! Scope: the paper's own configuration and every Algorithm 1 class
//! that `paper_repro` runs (NOS-NVP and FIOS, multiplex 1, 3 and 5)
//! keep the balance phase on, the latter over the paper's full 1,500
//! slots. Each balancer owns its working memory and sizes it from the
//! chain's buffer capacities (DESIGN.md §11); a separate case drives
//! the tree and Algorithm 1 balancers directly and checks that only
//! their first call allocates. The tree classes do not run here with
//! the simulator: the tree balancer can pile more packages on one node
//! than it ever held before, late in a run (380 on one FIOS forest
//! node at seed 1, slot 1,356), and that node's buffer grows to hold
//! them. The Offload balancer runs on a routed mesh, where it
//! allocates nothing after a 64-slot warm-up; on a tiered topology it
//! still allocates a few times late in a run, so that class does not
//! run here. The remaining cases exercise other paths (the NOS
//! baseline, multiplexed clones, a wide chain's columnar sweeps, a
//! routed mesh, tiers) with `BalancerKind::None`, to keep each on the
//! path it is about.
//!
//! The counter is process-wide, so concurrently running cases would
//! count each other's allocations. This binary is therefore declared
//! `harness = false` (see `crates/core/Cargo.toml`): `main` runs the
//! cases one after another on a single thread, at any
//! `--test-threads` setting.

use neofog_alloc_probe::{allocation_count, CountingAlloc};
use neofog_core::balance::{
    ChainBalanceInput, DistributedBalancer, FogTask, LoadBalancer, NodeBalanceState, NodeSummary,
    TreeBalancer,
};
use neofog_core::sim::{BalancerKind, SimConfig, SimEvent, SimObserver, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;
use neofog_types::{Energy, NodeId, SimRng};
use std::cell::Cell;
use std::rc::Rc;

// The counting allocator lives in `neofog-alloc-probe` — the one crate
// allowed to hold unsafe code (the workspace forbids it everywhere
// else). It counts every allocation and reallocation; frees don't
// matter for the discipline, growth is what it forbids.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records the allocation counter at the start of `from_slot` and at
/// every later slot boundary, without allocating itself.
struct SlotAllocProbe {
    from_slot: u64,
    at_warmup: Rc<Cell<u64>>,
    at_last: Rc<Cell<u64>>,
}

impl SimObserver for SlotAllocProbe {
    fn on_event(&mut self, event: &SimEvent) {
        if let SimEvent::SlotBegan { slot } = event {
            let count = allocation_count();
            if *slot == self.from_slot {
                self.at_warmup.set(count);
            } else if *slot > self.from_slot {
                self.at_last.set(count);
            }
        }
    }
}

fn steady_state_allocs(cfg: SimConfig, warmup_slots: u64) -> u64 {
    let at_warmup = Rc::new(Cell::new(0));
    let at_last = Rc::new(Cell::new(0));
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.attach_observer(Box::new(SlotAllocProbe {
        from_slot: warmup_slots,
        at_warmup: at_warmup.clone(),
        at_last: at_last.clone(),
    }));
    let _ = sim.run();
    // Window: everything between the start of slot `warmup_slots` and
    // the start of the final slot (the probe never sees the last
    // slot's own work, which is fine — it is identical to its
    // predecessors).
    at_last.get().saturating_sub(at_warmup.get())
}

fn slot_loop_is_allocation_free_after_warmup() {
    // Both front-end families, both trace recipes: the volatile NOS
    // baseline and the full FIOS fog system, in an ample and a scarce
    // energy regime. Only the forest FIOS case keeps its default
    // (Distributed) balancer here; the scarce regime's balanced
    // classes run below over the full 1,500 slots.
    let cases = [
        (SystemKind::NosVp, Scenario::ForestIndependent, false),
        (SystemKind::FiosNeoFog, Scenario::ForestIndependent, true),
        (SystemKind::FiosNeoFog, Scenario::MountainRainy, false),
    ];
    for (system, scenario, default_balancer) in cases {
        let mut cfg = SimConfig::paper_default(system, scenario, 1);
        cfg.slots = 300;
        if !default_balancer {
            cfg.balancer = BalancerKind::None;
        }
        // The first slots grow the scratch vectors and per-node buffers
        // to working capacity; 16 slots is comfortably past that.
        let allocs = steady_state_allocs(cfg, 16);
        assert_eq!(
            allocs, 0,
            "{system:?}/{scenario:?}: steady-state slots allocated {allocs} times"
        );
    }
}

fn algorithm_1_classes_are_allocation_free_after_warmup() {
    // Every Algorithm 1 class of `paper_repro`, in a scenario its
    // figures run it in: Figure 9's NOS-NVP (without its stored-energy
    // trace, an output series that grows by design) and the
    // multiplexing sweeps. The full 1,500 slots, counted after 64: a
    // balancer whose memory tracked the task count would still reach
    // new high-water marks late in the run.
    let cases = [
        (SystemKind::NosNvp, Scenario::BridgeDependent, 1),
        (SystemKind::FiosNeoFog, Scenario::MountainSunny, 1),
        (SystemKind::FiosNeoFog, Scenario::MountainRainy, 3),
        (SystemKind::FiosNeoFog, Scenario::MountainRainy, 5),
    ];
    for (system, scenario, multiplex) in cases {
        let mut cfg = SimConfig::paper_default(system, scenario, 1);
        cfg.balancer = BalancerKind::Distributed;
        cfg.multiplex = multiplex;
        let allocs = steady_state_allocs(cfg, 64);
        assert_eq!(
            allocs, 0,
            "{system:?}/{scenario:?} x{multiplex}: steady-state slots allocated {allocs} times"
        );
    }
}

/// A ten-node chain with mixed task sizes, alive nodes with random
/// spare energy and room in every node's queue for all `ROOM` tasks.
fn roomy_chain(rng: &mut SimRng) -> ChainBalanceInput {
    const ROOM: usize = 64;
    let sizes = [6_000_000, 12_000_000, 1 + rng.range_u64(12_000_000)];
    let mut left = ROOM;
    let nodes = (0..10)
        .map(|i| {
            let count = rng.index(9).min(left);
            left -= count;
            let mut tasks = Vec::with_capacity(ROOM);
            tasks.extend((0..count).map(|k| {
                let size = sizes[rng.index(sizes.len())];
                FogTask::new(size, (i * ROOM + k) as u64)
            }));
            NodeBalanceState {
                node: NodeId::new(i as u32),
                spare_energy: Energy::from_millijoules(rng.uniform(0.0, 20.0)),
                efficiency: 1.0 / 2.508,
                throughput: 1_000_000.0 / 12.0,
                tasks,
                alive: !rng.chance(0.1),
            }
        })
        .collect();
    ChainBalanceInput { nodes }
}

fn balancers_allocate_only_on_their_first_call() {
    // The balancers' own memory, apart from the simulator's queues:
    // every node's queue has room for every task of the chain, so only
    // a balancer's working memory could grow. The first call (or
    // Algorithm 1's first idle test) sizes it; the rest must not
    // allocate.
    let balancers: [(&str, Box<dyn LoadBalancer>); 2] = [
        ("tree", Box::new(TreeBalancer::new())),
        ("distributed", Box::new(DistributedBalancer::new(12))),
    ];
    for (name, mut balancer) in balancers {
        let mut rng = SimRng::seed_from(22);
        let mut chains: Vec<ChainBalanceInput> = (0..500).map(|_| roomy_chain(&mut rng)).collect();
        let (first, rest) = chains.split_first_mut().expect("chains");
        balancer.balance(first);
        let before = allocation_count();
        for chain in rest {
            balancer.balance(chain);
        }
        let allocs = allocation_count() - before;
        assert_eq!(allocs, 0, "{name}: later calls allocated {allocs} times");
    }
    // Algorithm 1's idle test sizes the same memory as a call, so a run
    // whose first rounds are all idle allocates no later than one that
    // balances from its first slot.
    let mut rng = SimRng::seed_from(22);
    let mut chains: Vec<ChainBalanceInput> = (0..500).map(|_| roomy_chain(&mut rng)).collect();
    let summaries: Vec<NodeSummary> = chains[0].nodes.iter().map(NodeSummary::of).collect();
    let mut distributed = DistributedBalancer::new(12);
    let _ = distributed.idle_report(&summaries);
    let before = allocation_count();
    for chain in &mut chains {
        distributed.balance(chain);
    }
    let allocs = allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "distributed: calls after an idle round allocated {allocs} times"
    );
}

fn multiplexed_slot_loop_is_allocation_free_after_warmup() {
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::BridgeDependent, 1);
    cfg.slots = 300;
    cfg.multiplex = 3;
    cfg.balancer = BalancerKind::None;
    let allocs = steady_state_allocs(cfg, 16);
    assert_eq!(allocs, 0, "multiplex-3 steady state allocated {allocs}");
}

fn wide_chain_columnar_sweeps_are_allocation_free_after_warmup() {
    // A 1000-position chain: the columnar sweeps (harvest, wake,
    // compute skip, transmit relay fold, slot end) each walk
    // thousand-element columns, and `begin_slot`'s in-place fill, the
    // ledgers the harvest sweep opens in place and the transmit
    // suffix-sum must not regrow anything. The trace
    // resolution is coarsened to the slot length so building this
    // width takes fewer random draws; each node stores only its
    // per-slot incomes either way.
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = 1_000;
    cfg.slots = 60;
    cfg.trace_dt = cfg.slot_len;
    cfg.balancer = BalancerKind::None;
    let allocs = steady_state_allocs(cfg, 16);
    assert_eq!(allocs, 0, "wide-chain steady state allocated {allocs}");
}

fn mesh_slot_loop_is_allocation_free_after_warmup() {
    // A routed mesh: the transmit relay fold walks the topological
    // sweep order instead of the chain's reverse suffix-sum, and the
    // route accumulator (`SlotCtx::route_acc`) is resized once during
    // warm-up. Steady state must stay allocation-free on the general
    // path too.
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = 200;
    cfg.slots = 120;
    cfg.topology = neofog_net::TopologySpec::ErdosRenyi {
        edge_prob: 0.05,
        seed: 7,
    };
    cfg.balancer = BalancerKind::None;
    let allocs = steady_state_allocs(cfg, 16);
    assert_eq!(allocs, 0, "mesh steady state allocated {allocs}");
}

fn offload_mesh_is_allocation_free_after_warmup() {
    // The Offload balancer on a routed mesh: the balance phase prices
    // every starved position's ship-or-compute choice against the
    // route plan and records one decision per position. Its decision
    // list and the chain's task lists are sized during warm-up.
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = 200;
    cfg.slots = 400;
    cfg.topology = neofog_net::TopologySpec::ErdosRenyi {
        edge_prob: 4.0 / 200.0,
        seed: 7,
    };
    cfg.balancer = BalancerKind::Offload;
    let allocs = steady_state_allocs(cfg, 64);
    assert_eq!(allocs, 0, "offload mesh steady state allocated {allocs}");
}

fn tiered_slot_loop_is_allocation_free_after_warmup() {
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = 120;
    cfg.slots = 120;
    cfg.topology = neofog_net::TopologySpec::Tiered { gateways: 4 };
    cfg.balancer = BalancerKind::None;
    let allocs = steady_state_allocs(cfg, 16);
    assert_eq!(allocs, 0, "tiered steady state allocated {allocs}");
}

fn main() {
    let cases: [(&str, fn()); 8] = [
        (
            "slot_loop_is_allocation_free_after_warmup",
            slot_loop_is_allocation_free_after_warmup,
        ),
        (
            "algorithm_1_classes_are_allocation_free_after_warmup",
            algorithm_1_classes_are_allocation_free_after_warmup,
        ),
        (
            "balancers_allocate_only_on_their_first_call",
            balancers_allocate_only_on_their_first_call,
        ),
        (
            "multiplexed_slot_loop_is_allocation_free_after_warmup",
            multiplexed_slot_loop_is_allocation_free_after_warmup,
        ),
        (
            "wide_chain_columnar_sweeps_are_allocation_free_after_warmup",
            wide_chain_columnar_sweeps_are_allocation_free_after_warmup,
        ),
        (
            "mesh_slot_loop_is_allocation_free_after_warmup",
            mesh_slot_loop_is_allocation_free_after_warmup,
        ),
        (
            "offload_mesh_is_allocation_free_after_warmup",
            offload_mesh_is_allocation_free_after_warmup,
        ),
        (
            "tiered_slot_loop_is_allocation_free_after_warmup",
            tiered_slot_loop_is_allocation_free_after_warmup,
        ),
    ];
    println!("\nrunning {} tests", cases.len());
    for (name, case) in cases {
        case();
        println!("test {name} ... ok");
    }
    println!("\ntest result: ok. {} passed", cases.len());
}
