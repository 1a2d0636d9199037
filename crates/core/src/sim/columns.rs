//! Struct-of-arrays node state: the columnar substrate the slot
//! kernel sweeps over.
//!
//! The phase functions are linear passes over every physical node, and
//! at fleet scale (10⁵–10⁶ nodes per chain) the array-of-structs
//! [`NodeSim`] layout made each pass a pointer-chase: harvesting
//! touched a capacitor, an RTC, a curve and two queues per node even
//! though it only *needed* the capacitor level and the curve. This
//! module splits that state by temperature:
//!
//! * **Hot columns** — one `Vec` per field the sweeps read every slot:
//!   capacitor, RTC, schedule, chain position, NV FIFO depth, the
//!   per-slot direct pool, wake flags, income powers and balance
//!   credits. A phase that needs three fields walks three dense
//!   arrays; everything else stays out of cache.
//! * **Cold rows** — [`NodeCold`]: the node config, the prefix-summed
//!   energy curve, the package queues and the RNG stream. These are
//!   touched only when a node actually wakes, computes or transmits,
//!   so they stay row-oriented and are reached through [`NodeView`].
//!
//! The per-slot energy budget arithmetic that used to live on
//! `SlotBudget` is preserved *verbatim* as the free functions
//! [`budget_available`], [`spend_budget`] and [`leftover_income`]
//! (identical operation order, so event logs stay bit-identical to the
//! row-oriented pipeline — `tests/columns_goldens.rs` pins that). The
//! front-end efficiencies they take are per-*run* scalars on
//! [`NodeColumns`], not per-node columns: every node shares the same
//! `NodeConfig`, so storing them per node would be n copies of two
//! constants.
//!
//! Balance credits are a column (not a scratch `Vec<usize>` of
//! participant indices, as the balance phase used to allocate) so the
//! transfer-cost charging is itself a linear sweep: mark the share on
//! every awake node, then spend marked credits in index order —
//! allocation-free and in the same order the participant list gave.

use super::ctx::{NodeSim, Package};
use super::ledger::EnergyLedger;
use crate::node::{NodeCapabilities, NodeConfig};
use neofog_energy::{EnergyCurve, FrontEnd, Rtc, SuperCap};
use neofog_net::slots::SlotSchedule;
use neofog_types::{Energy, Power, SimRng};

/// Rarely-touched per-node state, reached only when a node is active.
#[cfg_attr(test, derive(Debug, Clone, PartialEq))]
pub(crate) struct NodeCold {
    /// Node design parameters (identical across the fleet).
    pub(crate) cfg: NodeConfig,
    /// Tier-derived radio/compute capability row (varies by tier, not
    /// per node, so it is cold: read only in compute and balance).
    pub(crate) caps: NodeCapabilities,
    /// Prefix-summed income curve (O(1) per-slot integration).
    pub(crate) curve: EnergyCurve,
    /// Packages awaiting fog processing (fog systems only).
    pub(crate) pending: Vec<Package>,
    /// Packages ready for transmission.
    pub(crate) outbox: Vec<Package>,
    /// The node's private RNG stream.
    pub(crate) rng: SimRng,
}

/// All per-node state, columnar for the hot fields.
///
/// Indices are physical node indices, identical to the old
/// `Vec<NodeSim>` order (and to [`Simulator::new`]'s construction
/// order), so every event keeps its node id.
///
/// [`Simulator::new`]: super::Simulator::new
pub(crate) struct NodeColumns {
    // --- durable hot columns (persist across slots) ---
    /// Main super-capacitor per node.
    pub(crate) cap: Vec<SuperCap>,
    /// RTC capacitor per node.
    pub(crate) rtc: Vec<Rtc>,
    /// Wake schedule cursor per node.
    pub(crate) schedule: Vec<SlotSchedule>,
    /// Logical chain position per node.
    pub(crate) position: Vec<usize>,
    /// Route-plan hop count from each node's position to the sink
    /// (equals `position` on chains; the transmit sweep reads it for
    /// session/packet hop pricing).
    pub(crate) hops_to_sink: Vec<u32>,
    /// NV FIFO backlog (`cold[i].pending.len()`), mirrored here so
    /// admission checks and empty-queue skips never touch a cold row.
    pub(crate) fifo_depth: Vec<u32>,
    // --- per-slot hot columns (reset by `begin_slot`) ---
    /// Unspent direct-channel pool (the `SlotBudget::direct_left` of
    /// the row pipeline; the harvest phase fills it).
    pub(crate) direct_left: Vec<Energy>,
    /// Wake flags (set by the wake phase; absorbed from `SlotCtx`).
    pub(crate) awake: Vec<bool>,
    /// Mean income power over the slot, pre-RTC (harvest fills it).
    pub(crate) income_power: Vec<Power>,
    /// Balance-transfer shares marked on awake nodes, spent in index
    /// order by the balance phase's charging sweep.
    pub(crate) balance_credit: Vec<Energy>,
    // --- per-run scalars ---
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
/// transmit) reads like the row-oriented pipeline it replaced.
///
/// The budget pieces are separate fields (not a sub-struct) on
/// purpose: the compute phase holds a borrow of `pending`'s head
/// package across `spend` calls, which is only legal because
/// `direct_left`/`cap` are sibling fields the borrow checker can split
/// (`&mut *view.direct_left` while `view.pending`'s head is live).
pub(crate) struct NodeView<'a> {
    /// Node design parameters.
    pub(crate) cfg: &'a NodeConfig,
    /// Main super-capacitor.
    pub(crate) cap: &'a mut SuperCap,
    /// Fog-processing queue.
    pub(crate) pending: &'a mut Vec<Package>,
    /// Transmission queue.
    pub(crate) outbox: &'a mut Vec<Package>,
    /// Private RNG stream.
    pub(crate) rng: &'a mut SimRng,
    /// Mirrored `pending.len()`; keep in sync on push/pop.
    pub(crate) fifo_depth: &'a mut u32,
    /// Unspent direct pool.
    pub(crate) direct_left: &'a mut Energy,
    /// Logical chain position.
    pub(crate) position: usize,
    /// Route-plan hop count to the sink.
    pub(crate) hops_to_sink: u32,
    /// Tier-derived capability row.
    pub(crate) caps: NodeCapabilities,
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
        budget_available(*self.direct_left, self.discharge_eff, self.cap)
    }

    /// Spends `amount` at the load (see [`spend_budget`]).
    pub(crate) fn spend(&mut self, ledger: &mut EnergyLedger, amount: Energy) -> bool {
        spend_budget(
            &mut *self.direct_left,
            self.direct_eff,
            self.discharge_eff,
            &mut *self.cap,
            ledger,
            amount,
        )
    }
}

/// Spendable energy: the direct pool plus the capacitor behind the
/// discharge regulator. Identical to `SlotBudget::available`.
pub(crate) fn budget_available(direct_left: Energy, discharge_eff: f64, cap: &SuperCap) -> Energy {
    direct_left + cap.stored() * discharge_eff
}

/// Spends `amount` (at the load), direct pool first, booking the
/// delivery and both channels' conversion losses in the ledger.
/// Returns false (spending nothing) if unaffordable. Identical
/// operation order to `SlotBudget::spend`.
pub(crate) fn spend_budget(
    direct_left: &mut Energy,
    direct_eff: f64,
    discharge_eff: f64,
    cap: &mut SuperCap,
    ledger: &mut EnergyLedger,
    amount: Energy,
) -> bool {
    if budget_available(*direct_left, discharge_eff, cap) < amount {
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
        let drawn = cap.discharge_up_to(gross);
        debug_assert!(drawn >= gross * 0.999);
        ledger.debit_loss(drawn.saturating_sub(rest));
    }
    ledger.debit_consumed(amount);
    true
}

/// Drains the direct pool, returning it converted back to raw income.
/// Identical to `SlotBudget::leftover_income`.
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
    /// Splits row-oriented node state into columns. `fe` is the fleet's
    /// shared front-end (every node has the same `NodeConfig`), which
    /// fixes the per-run budget efficiencies.
    pub(crate) fn scatter(rows: Vec<NodeSim>, fe: FrontEnd) -> NodeColumns {
        let n = rows.len();
        let mut cols = NodeColumns {
            cap: Vec::with_capacity(n),
            rtc: Vec::with_capacity(n),
            schedule: Vec::with_capacity(n),
            position: Vec::with_capacity(n),
            hops_to_sink: Vec::with_capacity(n),
            fifo_depth: Vec::with_capacity(n),
            direct_left: vec![Energy::ZERO; n],
            awake: vec![false; n],
            income_power: vec![Power::ZERO; n],
            balance_credit: vec![Energy::ZERO; n],
            direct_eff: if fe.has_direct_channel() {
                fe.direct_efficiency()
            } else {
                0.0
            },
            discharge_eff: fe.discharge_efficiency(),
            cold: Vec::with_capacity(n),
        };
        for row in rows {
            cols.cap.push(row.cap);
            cols.rtc.push(row.rtc);
            cols.schedule.push(row.schedule);
            cols.position.push(row.position);
            cols.hops_to_sink.push(row.hops_to_sink);
            cols.fifo_depth.push(row.pending.len() as u32);
            cols.cold.push(NodeCold {
                cfg: row.cfg,
                caps: row.caps,
                curve: row.curve,
                pending: row.pending,
                outbox: row.outbox,
                rng: row.rng,
            });
        }
        cols
    }

    /// Rebuilds the row-oriented view — the inverse of
    /// [`scatter`](NodeColumns::scatter). Test-only: the round-trip
    /// property test asserts the split is lossless.
    #[cfg(test)]
    pub(crate) fn gather(self) -> Vec<NodeSim> {
        let NodeColumns {
            cap,
            rtc,
            schedule,
            position,
            hops_to_sink,
            cold,
            ..
        } = self;
        cap.into_iter()
            .zip(rtc)
            .zip(schedule)
            .zip(position)
            .zip(hops_to_sink)
            .zip(cold)
            .map(
                |(((((cap, rtc), schedule), position), hops_to_sink), cold)| NodeSim {
                    cfg: cold.cfg,
                    cap,
                    rtc,
                    curve: cold.curve,
                    schedule,
                    position,
                    hops_to_sink,
                    caps: cold.caps,
                    pending: cold.pending,
                    outbox: cold.outbox,
                    rng: cold.rng,
                },
            )
            .collect()
    }

    /// Number of physical nodes.
    pub(crate) fn len(&self) -> usize {
        self.cold.len()
    }

    /// Resets the per-slot columns in place (capacity survives; the
    /// steady-state loop allocates nothing here).
    pub(crate) fn begin_slot(&mut self) {
        self.direct_left.fill(Energy::ZERO);
        self.awake.fill(false);
        self.income_power.fill(Power::ZERO);
        self.balance_credit.fill(Energy::ZERO);
    }

    /// A row lens over node `i` (disjoint `&mut`s; see [`NodeView`]).
    pub(crate) fn view(&mut self, i: usize) -> NodeView<'_> {
        let cold = &mut self.cold[i];
        let fifo_depth = &mut self.fifo_depth[i];
        debug_assert_eq!(
            *fifo_depth as usize,
            cold.pending.len(),
            "node {i}: FIFO depth mirror out of sync"
        );
        NodeView {
            cfg: &cold.cfg,
            cap: &mut self.cap[i],
            pending: &mut cold.pending,
            outbox: &mut cold.outbox,
            rng: &mut cold.rng,
            fifo_depth,
            direct_left: &mut self.direct_left[i],
            position: self.position[i],
            hops_to_sink: self.hops_to_sink[i],
            caps: cold.caps,
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
    use neofog_energy::PowerTrace;
    use neofog_types::Duration;
    use proptest::prelude::*;

    /// One row with every field carrying node-distinct state, so a
    /// field dropped or cross-wired by scatter/gather shows up.
    fn row(i: usize, stored_mj: f64, pend: usize, out: usize, seed: u64, pos: usize) -> NodeSim {
        let trace = PowerTrace::constant(
            Power::from_milliwatts(0.5 + i as f64),
            Duration::from_secs(60),
            Duration::from_secs(1),
        );
        let mut rtc = Rtc::new(Energy::from_millijoules(5.0), Power::from_microwatts(2.0));
        // Vary the RTC level (and possibly its sync state) per node.
        rtc.elapse(Duration::from_secs(seed % 7));
        let mut rng = SimRng::seed_from(seed);
        let pkg = |k: usize, done: bool| Package {
            origin: i,
            created: k as u64,
            fog_remaining: if done { 0 } else { 1 + k as u64 * 17 },
            fog_done: done,
        };
        NodeSim {
            cfg: NodeConfig::paper_default(SystemKind::FiosNeoFog),
            cap: SuperCap::new(Energy::from_millijoules(100.0))
                .with_charge_efficiency(0.65)
                .with_initial(Energy::from_millijoules(stored_mj)),
            rtc,
            curve: EnergyCurve::new(trace),
            schedule: SlotSchedule::new(3, (i % 3) as u32),
            position: pos,
            hops_to_sink: pos as u32,
            caps: crate::node::TierCapabilities::paper_default().sensor,
            pending: (0..pend).map(|k| pkg(k, false)).collect(),
            outbox: (0..out).map(|k| pkg(k, k % 2 == 0)).collect(),
            rng: rng.fork(i as u64),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// scatter → gather is lossless: every field of every row
        /// survives the columnar split bit-for-bit.
        #[test]
        fn scatter_gather_round_trips(
            specs in prop::collection::vec(
                (0.0..100.0f64, 0usize..8, 0usize..6, any::<u64>(), 0usize..10),
                1..24,
            )
        ) {
            let rows: Vec<NodeSim> = specs
                .iter()
                .enumerate()
                .map(|(i, &(mj, p, o, seed, pos))| row(i, mj, p, o, seed, pos))
                .collect();
            let reference: Vec<NodeSim> = specs
                .iter()
                .enumerate()
                .map(|(i, &(mj, p, o, seed, pos))| row(i, mj, p, o, seed, pos))
                .collect();
            let fe = SystemKind::FiosNeoFog.front_end();
            let cols = NodeColumns::scatter(rows, fe);
            // The FIFO-depth mirror is established by the split itself.
            for (depth, cold) in cols.fifo_depth.iter().zip(cols.cold.iter()) {
                prop_assert_eq!(*depth as usize, cold.pending.len());
            }
            let back = cols.gather();
            prop_assert_eq!(back, reference);
        }
    }

    #[test]
    fn budget_math_matches_the_row_pipeline() {
        // A FIOS-style budget: direct pool plus capacitor.
        let mut cap = SuperCap::new(Energy::from_millijoules(10.0))
            .with_initial(Energy::from_millijoules(4.0));
        let mut direct = Energy::from_millijoules(2.0);
        let (d_eff, c_eff) = (0.9, 0.8);
        let mut ledger = EnergyLedger::open(cap.stored());
        let avail = budget_available(direct, c_eff, &cap);
        assert!((avail.as_millijoules() - (2.0 + 4.0 * 0.8)).abs() < 1e-9);
        // Spend beyond the direct pool: remainder is drawn through the
        // discharge regulator at 1/0.8 gross.
        assert!(spend_budget(
            &mut direct,
            d_eff,
            c_eff,
            &mut cap,
            &mut ledger,
            Energy::from_millijoules(3.0),
        ));
        assert_eq!(direct, Energy::ZERO);
        assert!((cap.stored().as_millijoules() - (4.0 - 1.0 / 0.8)).abs() < 1e-9);
        // Unaffordable spends must not touch anything.
        let before = cap.stored();
        assert!(!spend_budget(
            &mut direct,
            d_eff,
            c_eff,
            &mut cap,
            &mut ledger,
            Energy::from_millijoules(100.0),
        ));
        assert_eq!(cap.stored(), before);
        // NOS leftover (no direct channel) passes through unconverted.
        let mut none = Energy::ZERO;
        assert_eq!(leftover_income(&mut none, 0.0), Energy::ZERO);
        let mut left = Energy::from_millijoules(0.9);
        let raw = leftover_income(&mut left, 0.9);
        assert!((raw.as_millijoules() - 1.0).abs() < 1e-9);
        assert_eq!(left, Energy::ZERO);
    }
}
