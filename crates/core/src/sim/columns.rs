//! Struct-of-arrays node state: the columnar substrate the slot
//! kernel sweeps over.
//!
//! The phase functions are linear passes over every physical node, and
//! at fleet scale (10⁵–10⁶ nodes per chain) an array-of-structs layout
//! makes each pass a pointer-chase: harvesting would touch a
//! capacitor, an RTC and a package buffer per node even though it only
//! *needs* the capacitor level and the slot's income. This module
//! splits that state by temperature and stores each piece once, at the
//! size it needs:
//!
//! * **Hot columns** — one `Vec` per field the sweeps read every slot:
//!   capacitor level, RTC level, RTC sync bit, NV FIFO depth (the
//!   split of the package buffer), the staleness horizon, the per-slot
//!   direct pool, wake flags and income powers. A phase that needs
//!   three fields walks three dense arrays; everything else stays out
//!   of cache.
//! * **The income table** — [`IncomeTable`]: every node's harvest
//!   income for every slot of the window, slot-major, folded from the
//!   nodes' power traces at construction, two nodes per pass (their
//!   RNG streams and running sums are independent, so the pass
//!   overlaps them; the incomes are bit for bit a lone node's). Slot
//!   `s` is one contiguous row of `n` values, so the harvest sweep zips
//!   a dense slice with its other columns. Only this module knows the
//!   layout: it fills the table and hands harvest each slot's row.
//! * **Cold rows** — [`NodeCold`]: the package buffer and the RNG
//!   stream, and nothing else (56 bytes). These are touched only when a
//!   node actually wakes, computes or transmits, so they stay
//!   row-oriented and are reached through [`NodeView`]. The buffer is
//!   one `Vec` holding the pending FIFO and then the outbox, split at
//!   the node's `fifo_depth`; it is reserved to [`QUEUE_RESERVE`]
//!   packages, and only the functions in `ctx.rs` add, move or remove
//!   its packages (that module's docs list them, with the headroom
//!   measured per run class).
//! * **Per-run state** — what is the same for every node is stored
//!   once. The phases read the run's `NodeConfig` (`SimConfig::node`),
//!   each position's tier (`RoutePlan::tier_slice`, whose capability
//!   row is the fixed `NodeCapabilities::for_tier`) and delivery odds
//!   (`Simulator::delivery_odds`) directly. [`NodeColumns`] holds the
//!   main capacitor and RTC designs every node carries (their capacity,
//!   efficiency, leak and draw; a node's columns hold only its levels
//!   and sync bit) and the two front-end efficiencies the budget
//!   functions take.
//!
//! [`NodeColumns::new`] fills the columns in place, position-major:
//! position `p`'s clones are physical nodes `p·m .. (p+1)·m`, where `m`
//! is the multiplex factor. Neither a node's position nor its wake
//! schedule is stored: node `i` is clone `i % m` of position `i / m`,
//! and NVD4Q puts clone `k` on duty in the slots `≡ k (mod m)` (§3.3,
//! Algorithm 2), so in slot `s` only clone `s % m` of each position
//! may wake.
//!
//! The per-slot energy budget arithmetic is the free functions
//! [`budget_available`], [`spend_budget`] and [`leftover_income`].
//! Their operation order is part of the contract:
//! `tests/columns_goldens.rs` pins the event logs bit for bit.

use super::ctx::{Package, QUEUE_RESERVE};
use super::ledger::EnergyLedger;
use super::SimConfig;
use neofog_energy::{ChainPlan, Rtc, SuperCap};
use neofog_types::{Energy, Power, Result, SimRng};

/// Rarely-touched per-node state, reached only when a node is active.
pub(crate) struct NodeCold {
    /// The node's packages: its first [`NodeColumns::fifo_depth`] are
    /// the pending FIFO (fog systems only), the rest the outbox.
    pub(crate) queue: Vec<Package>,
    /// The node's private RNG stream.
    pub(crate) rng: SimRng,
}

const _: () = assert!(
    std::mem::size_of::<NodeCold>()
        == std::mem::size_of::<Vec<Package>>() + std::mem::size_of::<SimRng>()
);

/// Every node's ambient harvest income for every slot of the window,
/// slot-major: slot `s`'s incomes are one contiguous row, in node
/// order, so the harvest sweep reads one dense slice per slot.
pub(crate) struct IncomeTable {
    /// Slot `s`'s row is `values[s·nodes .. (s+1)·nodes]`.
    values: Vec<Energy>,
    /// Physical nodes, the length of every row.
    nodes: usize,
}

/// Incomes [`IncomeTable::fold`] holds in its block of folded rows
/// (32 KiB; more only when one pair of rows is larger): small enough to
/// stay in cache while the block is written out, large enough that a
/// 32-slot window gives each slot a 1 KiB run of the table.
const FOLD_BLOCK_VALUES: usize = 4096;

impl IncomeTable {
    /// Folds the power traces of the plan's first `nodes` nodes into
    /// `cfg.window()` per-slot incomes each, so no trace outlives its
    /// fold. [`ChainPlan::slot_incomes_lanes`] folds a block of
    /// consecutive nodes two at a time into one reused row each (an odd
    /// last node alone); the block is then written out slot by slot,
    /// each slot's share one contiguous run of the table. Scattering one
    /// node's row at a time would instead write `nodes` values apart for
    /// every income; at 10⁵ nodes and a 32-slot window that made the
    /// fold about 7 % slower.
    fn fold(cfg: &SimConfig, plan: &ChainPlan, nodes: usize) -> IncomeTable {
        let window = cfg.window() as usize;
        let mut values = vec![Energy::ZERO; window * nodes];
        // An even number of nodes, at least one pair, so only the
        // table's last node can fold alone, at any window.
        let block_nodes = ((FOLD_BLOCK_VALUES / window / 2).max(1) * 2).min(nodes.max(1));
        let mut block = vec![Energy::ZERO; block_nodes * window];
        for first in (0..nodes).step_by(block_nodes) {
            let mut rows = block.chunks_exact_mut(window).zip(first..nodes);
            while let Some((a, node)) = rows.next() {
                match rows.next() {
                    Some((b, _)) => plan.slot_incomes_lanes(
                        [node, node + 1],
                        cfg.income_scale,
                        cfg.slot_len,
                        [a, b],
                    ),
                    None => plan.slot_incomes(node, cfg.income_scale, cfg.slot_len, a),
                }
            }
            // `first < nodes`, so the rows are not empty; the last block
            // may be partial, and the zip stops at the table's row end.
            for (slot, row) in values.chunks_exact_mut(nodes).enumerate() {
                let run = row.iter_mut().skip(first).zip(block.chunks_exact(window));
                for (cell, incomes) in run {
                    *cell = incomes.get(slot).copied().unwrap_or_default();
                }
            }
        }
        IncomeTable { values, nodes }
    }

    /// Every node's income over slot `slot` of the window, in node
    /// order; empty past the window.
    pub(crate) fn slot(&self, slot: u64) -> &[Energy] {
        let start = slot as usize * self.nodes;
        self.values
            .get(start..start + self.nodes)
            .unwrap_or_default()
    }
}

/// All per-node state, columnar for the hot fields, plus the per-run
/// designs the columns' levels belong to.
///
/// Indices are physical node indices, position-major and clone-minor
/// (see [`NodeColumns::new`]), so every event keeps its node id.
pub(crate) struct NodeColumns {
    // --- durable hot columns (persist across slots) ---
    /// Main capacitor level per node (the capacitor is [`Self::cap`]).
    pub(crate) stored: Vec<Energy>,
    /// RTC capacitor level per node (the clock is [`Self::rtc`]).
    pub(crate) rtc_stored: Vec<Energy>,
    /// RTC sync bit per node: `true` while the clock tracks the
    /// network's slot phase, so the node may wake on duty.
    pub(crate) synced: Vec<bool>,
    /// NV FIFO backlog per node: the split of `cold[i].queue`, whose
    /// first `fifo_depth[i]` packages are pending and the rest the
    /// outbox. Admission checks and empty-FIFO skips read it without
    /// touching a cold row. Kept, like `stale_horizon`, by the buffer
    /// functions in `ctx.rs`, the only code that adds, moves or removes
    /// queued packages.
    pub(crate) fifo_depth: Vec<u32>,
    /// Staleness horizon per node: a lower bound on the first slot at
    /// which a pending package with no fog progress turns stale
    /// ([`Package::stale_at`]); `u32::MAX` when none can. Wake lowers it
    /// on capture; a stale visit and the balance rebuild recompute it
    /// exactly; fog progress only removes candidates, so it leaves the
    /// bound alone. The compute phase's stale sweep skips a node while
    /// the slot is below it, without touching the cold row.
    pub(crate) stale_horizon: Vec<u32>,
    /// Ambient harvest income per node and slot, one dense row per
    /// slot of the window `Simulator::advance` cycles through.
    pub(crate) income: IncomeTable,
    // --- per-slot hot columns (see `begin_slot`) ---
    /// Unspent direct-channel pool (the harvest phase fills it and slot
    /// end drains it to zero).
    pub(crate) direct_left: Vec<Energy>,
    /// Wake flags (set by the wake phase; cleared by `begin_slot`).
    pub(crate) awake: Vec<bool>,
    /// Mean income power over the slot, pre-RTC (harvest rewrites it).
    pub(crate) income_power: Vec<Power>,
    // --- per-run state ---
    /// The main capacitor every node carries.
    pub(crate) cap: SuperCap,
    /// The real-time clock every node carries.
    pub(crate) rtc: Rtc,
    /// Direct-channel efficiency (0.0 on systems without one); shared
    /// by every node, so a scalar rather than a column.
    pub(crate) direct_eff: f64,
    /// Capacitor discharge-regulator efficiency (shared).
    pub(crate) discharge_eff: f64,
    // --- cold rows ---
    /// Row-oriented cold state, indexed like the columns.
    pub(crate) cold: Vec<NodeCold>,
}

/// A row lens over one node: disjoint `&mut`s into the columns plus
/// the cold row, so phase code that works a single node (compute,
/// transmit) reads as a per-node function.
///
/// The budget pieces are separate fields (not a sub-struct) on
/// purpose: the compute phase holds a borrow of the FIFO's head
/// package across `spend` calls, which is only legal because
/// `direct_left`/`stored` are sibling fields the borrow checker can
/// split (`&mut *view.direct_left` while `view.queue`'s head is
/// live).
pub(crate) struct NodeView<'a> {
    /// Main capacitor level.
    pub(crate) stored: &'a mut Energy,
    /// Package buffer: pending FIFO, then outbox.
    pub(crate) queue: &'a mut Vec<Package>,
    /// Private RNG stream.
    pub(crate) rng: &'a mut SimRng,
    /// The buffer's split (see [`NodeColumns::fifo_depth`]).
    pub(crate) fifo_depth: &'a mut u32,
    /// Unspent direct pool.
    pub(crate) direct_left: &'a mut Energy,
    /// Mean income power this slot.
    pub(crate) income_power: Power,
    /// Direct-channel efficiency (per-run scalar).
    pub(crate) direct_eff: f64,
    /// Discharge-regulator efficiency (per-run scalar).
    pub(crate) discharge_eff: f64,
}

impl NodeView<'_> {
    /// Spendable energy this slot (see [`budget_available`]).
    pub(crate) fn available(&self) -> Energy {
        budget_available(*self.direct_left, self.discharge_eff, *self.stored)
    }

    /// Spends `amount` at the load (see [`spend_budget`]).
    pub(crate) fn spend(&mut self, ledger: &mut EnergyLedger, amount: Energy) -> bool {
        spend_budget(
            &mut *self.direct_left,
            self.direct_eff,
            self.discharge_eff,
            &mut *self.stored,
            ledger,
            amount,
        )
    }
}

/// Spendable energy: the direct pool plus the capacitor level `stored`
/// behind the discharge regulator.
pub(crate) fn budget_available(direct_left: Energy, discharge_eff: f64, stored: Energy) -> Energy {
    direct_left + stored * discharge_eff
}

/// Spends `amount` (at the load), direct pool first, booking the
/// delivery and both channels' conversion losses in the ledger.
/// Returns false (spending nothing) if unaffordable.
pub(crate) fn spend_budget(
    direct_left: &mut Energy,
    direct_eff: f64,
    discharge_eff: f64,
    stored: &mut Energy,
    ledger: &mut EnergyLedger,
    amount: Energy,
) -> bool {
    if budget_available(*direct_left, discharge_eff, *stored) < amount {
        return false;
    }
    let from_direct = amount.min(*direct_left);
    *direct_left -= from_direct;
    if direct_eff > 0.0 && from_direct > Energy::ZERO {
        // The direct channel is lossy at the point of use: raw
        // income `from_direct / eff` delivered only `from_direct`.
        ledger.debit_loss(from_direct / direct_eff - from_direct);
    }
    let rest = amount - from_direct;
    if rest > Energy::ZERO {
        let gross = rest / discharge_eff;
        // Floating-point slack: available() said yes.
        let drawn = SuperCap::discharge_up_to(stored, gross);
        debug_assert!(drawn >= gross * 0.999);
        ledger.debit_loss(drawn.saturating_sub(rest));
    }
    ledger.debit_consumed(amount);
    true
}

/// Drains the direct pool, returning it converted back to raw income.
pub(crate) fn leftover_income(direct_left: &mut Energy, direct_eff: f64) -> Energy {
    let left = *direct_left;
    *direct_left = Energy::ZERO;
    if direct_eff > 0.0 {
        left / direct_eff
    } else {
        left
    }
}

impl NodeColumns {
    /// Builds the state of `cfg.positions × cfg.multiplex` physical
    /// nodes, filling each column in place and folding node `i`'s
    /// income table column from `plan`'s trace `i`. Nodes are
    /// position-major: position `p`'s clones are nodes `p·m .. (p+1)·m`
    /// (`m` = `cfg.multiplex`), and node `i` is clone `i % m` of
    /// position `i / m`. Every node starts from the run's `NodeConfig`:
    /// its capacitor at `initial_charge` of the configured capacity
    /// (65 % charge efficiency, 5 µW leak), its RTC full (5 mJ, 2 µW
    /// draw) and synchronized, an empty package buffer reserved to
    /// [`QUEUE_RESERVE`] and the RNG stream `fork(i)` of one
    /// construction RNG, forked in node order.
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`](neofog_types::NeoFogError::InvalidConfig)
    /// when `cfg.node.cap_capacity` is not positive and finite.
    pub(crate) fn new(cfg: &SimConfig, plan: &ChainPlan) -> Result<NodeColumns> {
        let node = &cfg.node;
        let cap = SuperCap::new(node.cap_capacity)?
            .with_charge_efficiency(0.65)
            .with_leak(Power::from_microwatts(5.0));
        let rtc = Rtc::new(Energy::from_millijoules(5.0), Power::from_microwatts(2.0))?;
        let n = cfg.positions * cfg.multiplex as usize;
        let mut rng = SimRng::seed_from(cfg.seed ^ 0x5EED);
        let fe = node.front_end;
        Ok(NodeColumns {
            stored: vec![cap.clamp(node.cap_capacity * node.initial_charge); n],
            rtc_stored: vec![rtc.capacity(); n],
            synced: vec![true; n],
            fifo_depth: vec![0; n],
            stale_horizon: vec![u32::MAX; n],
            income: IncomeTable::fold(cfg, plan, n),
            direct_left: vec![Energy::ZERO; n],
            awake: vec![false; n],
            income_power: vec![Power::ZERO; n],
            cap,
            rtc,
            direct_eff: if fe.has_direct_channel() {
                fe.direct_efficiency()
            } else {
                0.0
            },
            discharge_eff: fe.discharge_efficiency(),
            cold: (0..n)
                .map(|i| NodeCold {
                    queue: Vec::with_capacity(QUEUE_RESERVE),
                    rng: rng.fork(i as u64),
                })
                .collect(),
        })
    }

    /// Number of physical nodes.
    pub(crate) fn len(&self) -> usize {
        self.cold.len()
    }

    /// Opens a slot by clearing the wake flags. The other per-slot
    /// columns need no reset: slot end drains every direct pool to zero
    /// (checked here in debug builds), and harvest rewrites every
    /// income power before anything reads it.
    pub(crate) fn begin_slot(&mut self) {
        debug_assert!(
            self.direct_left.iter().all(|&e| e == Energy::ZERO),
            "a direct pool survived slot end"
        );
        self.awake.fill(false);
    }

    /// The awake clone of position `pos` this slot, if any. `multiplex`
    /// is the run's clone count per position and `duty` the clone on
    /// duty this slot ([`SlotCtx::duty`](super::ctx::SlotCtx::duty)):
    /// wake lets no other clone wake, so node `pos·multiplex + duty` is
    /// the only candidate.
    pub(crate) fn awake_clone(&self, pos: usize, multiplex: usize, duty: usize) -> Option<usize> {
        let i = pos * multiplex + duty;
        self.awake.get(i).filter(|&&awake| awake).map(|_| i)
    }

    /// A row lens over node `i` (disjoint `&mut`s; see [`NodeView`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` is a node index, and every column holds one row per node"
    )]
    pub(crate) fn view(&mut self, i: usize) -> NodeView<'_> {
        let cold = &mut self.cold[i];
        NodeView {
            stored: &mut self.stored[i],
            queue: &mut cold.queue,
            rng: &mut cold.rng,
            fifo_depth: &mut self.fifo_depth[i],
            direct_left: &mut self.direct_left[i],
            income_power: self.income_power[i],
            direct_eff: self.direct_eff,
            discharge_eff: self.discharge_eff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SystemKind;
    use neofog_energy::{Scenario, TraceGenerator};
    use neofog_types::Duration;

    #[test]
    fn income_rows_hold_every_nodes_slot_incomes() {
        // Node counts below, at and past one fold block (128 nodes at a
        // 32-slot window, 2 at 1,500 slots and past 2,048), so partial
        // blocks are met, and odd ones whose last node folds alone: 7
        // nodes in one block, a last block of 1 (129 nodes) and of 45
        // (301), and 5 or 3 nodes in blocks of 2.
        let cases = [
            (1, 0),
            (7, 3),
            (129, 32),
            (130, 32),
            (300, 32),
            (301, 32),
            (5, 1500),
            (3, 2500),
        ];
        for ((nodes, slots), scenario) in cases.into_iter().flat_map(|case| {
            [Scenario::BridgeDependent, Scenario::ForestIndependent].map(|s| (case, s))
        }) {
            let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, scenario, 3);
            cfg.positions = nodes;
            cfg.slots = slots;
            let total = Duration::from_micros(cfg.slot_len.as_micros() * slots);
            let plan =
                TraceGenerator::new(cfg.scenario, cfg.seed).chain_plan(nodes, total, cfg.trace_dt);
            let table = IncomeTable::fold(&cfg, &plan, nodes);
            let window = cfg.window() as usize;
            let mut own = vec![Energy::ZERO; window];
            for node in 0..nodes {
                plan.slot_incomes(node, cfg.income_scale, cfg.slot_len, &mut own);
                for (slot, income) in own.iter().enumerate() {
                    let row = table.slot(slot as u64);
                    assert_eq!(row.len(), nodes);
                    assert_eq!(
                        row[node].as_nanojoules().to_bits(),
                        income.as_nanojoules().to_bits(),
                        "{scenario:?}, {nodes} nodes × {slots} slots: node {node}, slot {slot}"
                    );
                }
            }
            assert!(table.slot(window as u64).is_empty());
        }
    }

    #[test]
    fn budget_math_spends_direct_pool_first() {
        // A FIOS-style budget: direct pool plus capacitor.
        let mut stored = Energy::from_millijoules(4.0);
        let mut direct = Energy::from_millijoules(2.0);
        let (d_eff, c_eff) = (0.9, 0.8);
        let mut ledger = EnergyLedger::open(stored);
        let avail = budget_available(direct, c_eff, stored);
        assert!((avail.as_millijoules() - (2.0 + 4.0 * 0.8)).abs() < 1e-9);
        // Spend beyond the direct pool: remainder is drawn through the
        // discharge regulator at 1/0.8 gross.
        assert!(spend_budget(
            &mut direct,
            d_eff,
            c_eff,
            &mut stored,
            &mut ledger,
            Energy::from_millijoules(3.0),
        ));
        assert_eq!(direct, Energy::ZERO);
        assert!((stored.as_millijoules() - (4.0 - 1.0 / 0.8)).abs() < 1e-9);
        // Unaffordable spends must not touch anything.
        let before = stored;
        assert!(!spend_budget(
            &mut direct,
            d_eff,
            c_eff,
            &mut stored,
            &mut ledger,
            Energy::from_millijoules(100.0),
        ));
        assert_eq!(stored, before);
        // NOS leftover (no direct channel) passes through unconverted.
        let mut none = Energy::ZERO;
        assert_eq!(leftover_income(&mut none, 0.0), Energy::ZERO);
        let mut left = Energy::from_millijoules(0.9);
        let raw = leftover_income(&mut left, 0.9);
        assert!((raw.as_millijoules() - 1.0).abs() < 1e-9);
        assert_eq!(left, Energy::ZERO);
    }
}
