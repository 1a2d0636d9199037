//! Fleet-scale smoke tests for the columnar slot kernel.
//!
//! Every test is `#[ignore]`d: they build chains of 10⁵–10⁶ physical
//! nodes and run in release mode. CI runs the 10⁵-node cases (a few
//! seconds) on every push and pull request, and all of them in the
//! nightly job:
//!
//! ```text
//! cargo test --release -p neofog-core --test million_node -- --ignored hundred_thousand
//! cargo test --release -p neofog-core --test million_node -- --ignored
//! ```
//!
//! The configuration mirrors the `slot_kernel` bench: the trace
//! resolution is coarsened to the slot length (each node stores only
//! its `slots` per-slot incomes, so this cuts set-up's random draws,
//! not memory) and the balancer is `None`, so the chain measures the
//! column sweeps alone (`alloc_discipline` covers the balancers).
//!
//! The allocation counter is process-global, so the tests hold
//! [`SERIAL`] for their whole run: the 10⁶-node build must not allocate
//! inside a 10⁵-node test's measured window at any `--test-threads`.

use neofog_alloc_probe::{allocation_count, CountingAlloc};
use neofog_core::sim::{BalancerKind, SimConfig, SimEvent, SimObserver, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Slot window the steady-state driver cycles through.
const WINDOW_SLOTS: u64 = 32;

/// Held by each test for its whole run (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Waits for the other test to finish. The mutex guards no data, so a
/// panic in the other test leaves nothing to repair.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn chain_cfg(nodes: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = nodes;
    cfg.slots = WINDOW_SLOTS;
    cfg.trace_dt = cfg.slot_len;
    cfg.balancer = BalancerKind::None;
    cfg
}

/// Counts wakes and deliveries without allocating.
struct Progress {
    woke: Rc<Cell<u64>>,
    delivered: Rc<Cell<u64>>,
}

impl SimObserver for Progress {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::NodeWoke { .. } => self.woke.set(self.woke.get() + 1),
            SimEvent::PackageDelivered { .. } => self.delivered.set(self.delivered.get() + 1),
            _ => {}
        }
    }
}

/// A 10⁵-node chain reaches an allocation-free steady state: after two
/// windows of warm-up (queue growth across the wrap), a further window
/// of slots performs zero heap allocations.
#[test]
#[ignore = "fleet-scale: run in release mode via the nightly job"]
fn hundred_thousand_node_chain_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let mut sim = Simulator::new(chain_cfg(100_000)).expect("valid config");
    sim.advance(2 * WINDOW_SLOTS);
    let at_warmup = allocation_count();
    sim.advance(WINDOW_SLOTS);
    let allocs = allocation_count().saturating_sub(at_warmup);
    assert_eq!(
        allocs, 0,
        "10^5-node steady-state window allocated {allocs} times"
    );
}

/// Allocations `Simulator::new` may make beyond one per node: the
/// columns, the income table and its fold block, the route plan and
/// the metric columns. It makes 35 on the 10⁵-node chain.
const BUILD_ALLOCATIONS_BEYOND_NODES: u64 = 64;

/// Building a 10⁵-node chain allocates once per node — its package
/// buffer — plus a fixed count: set-up synthesizes each node's trace
/// and folds it into the income table without a per-node allocation.
#[test]
#[ignore = "fleet-scale: run in release mode via the nightly job"]
fn hundred_thousand_node_chain_builds_with_one_allocation_per_node() {
    let _serial = serial();
    let nodes = 100_000;
    let before = allocation_count();
    let sim = Simulator::new(chain_cfg(nodes)).expect("valid config");
    let allocs = allocation_count().saturating_sub(before);
    drop(sim);
    let limit = nodes as u64 + BUILD_ALLOCATIONS_BEYOND_NODES;
    assert!(
        allocs <= limit,
        "building the 10^5-node chain allocated {allocs} times (limit {limit})"
    );
}

/// A 10⁶-node chain builds and advances a few hundred slots, making
/// real progress (nodes wake, packages arrive at the sink edge).
#[test]
#[ignore = "fleet-scale: run in release mode via the nightly job"]
fn million_node_chain_advances_hundreds_of_slots() {
    let _serial = serial();
    let woke = Rc::new(Cell::new(0));
    let delivered = Rc::new(Cell::new(0));
    let mut sim = Simulator::new(chain_cfg(1_000_000)).expect("valid config");
    sim.attach_observer(Box::new(Progress {
        woke: woke.clone(),
        delivered: delivered.clone(),
    }));
    sim.advance(200);
    assert!(woke.get() > 0, "no node ever woke");
    assert!(delivered.get() > 0, "nothing reached the sink edge");
}
