//! Steady-state allocation discipline for the slot loop.
//!
//! The scratch [`SlotCtx`] retains its vectors across slots, so after
//! a short warm-up (first slots grow the scratch and the per-node
//! queues to their working capacity) the phase pipeline must perform
//! **zero heap allocations per slot**. A counting global allocator
//! snapshots the allocation counter at slot boundaries through the
//! event bus and asserts the steady-state window allocates nothing.
//!
//! Scope: the paper's own configuration — FIOS on the forest chain
//! with its default Distributed balancer — runs the balance phase,
//! whose chain snapshot and queues are reused across slots. Every
//! other case runs with `BalancerKind::None`, because the balancers
//! still allocate per call: Algorithm 1's DP builds its `a`/`b` time
//! arrays, its table and its assignment, and the tree balancer its
//! segment pools (DESIGN.md §11). The forest case never reaches the
//! DP in its steady-state window.
//!
//! The counter is process-wide, so concurrently running cases would
//! count each other's allocations. This binary is therefore declared
//! `harness = false` (see `crates/core/Cargo.toml`): `main` runs the
//! cases one after another on a single thread, at any
//! `--test-threads` setting.

use neofog_alloc_probe::{allocation_count, CountingAlloc};
use neofog_core::sim::{BalancerKind, SimConfig, SimEvent, SimObserver, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;
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
    // (Distributed) balancer — see the module docs.
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
        // The first slots grow the scratch vectors and per-node queues
        // to working capacity; 16 slots is comfortably past that.
        let allocs = steady_state_allocs(cfg, 16);
        assert_eq!(
            allocs, 0,
            "{system:?}/{scenario:?}: steady-state slots allocated {allocs} times"
        );
    }
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
    // thousand-element columns, and `begin_slot`'s in-place fills plus
    // the transmit suffix-sum must not regrow anything. The trace
    // resolution is coarsened to the slot length so the per-node
    // curves stay small at this width.
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
    // path too (balance excluded, as in every case but one).
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
    let cases: [(&str, fn()); 5] = [
        (
            "slot_loop_is_allocation_free_after_warmup",
            slot_loop_is_allocation_free_after_warmup,
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
