//! Per-node, per-slot energy conservation accounting.
//!
//! Every nanojoule that moves during a slot is booked into exactly one
//! bucket of an [`EnergyLedger`]; at slot end the ledger settles in
//! place and [`EnergyLedger::settle`] asserts the slot balances:
//!
//! ```text
//! harvested + stored_before = consumed + leaked + lost + stored_after
//! ```
//!
//! * `harvested` — income after the harvester front-end.
//! * `consumed` — energy delivered to loads at the point of use (wake,
//!   compute, radio) plus the RTC's intake; the RTC is treated as a
//!   terminal load because everything it banks is spent keeping time.
//! * `leaked` — capacitor self-discharge.
//! * `lost` — conversion losses (direct channel, discharge regulator,
//!   charge path) and energy a full capacitor rejects.
//!
//! Every build compiles and checks the same ledger, and settling emits
//! no event, so debug and release runs write identical event logs. A
//! violation is a simulator bug: the run panics with the node, the
//! slot and every bucket in nJ. A debit or credit that skips the
//! ledger breaks the balance, so the first run that takes its path
//! fails.

use neofog_types::Energy;

/// One node's bookings for one slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnergyLedger {
    stored_before: Energy,
    harvested: Energy,
    consumed: Energy,
    leaked: Energy,
    lost: Energy,
}

impl EnergyLedger {
    /// Opens a slot ledger against the capacitor's current level.
    pub(crate) fn open(stored: Energy) -> Self {
        EnergyLedger {
            stored_before: stored,
            harvested: Energy::ZERO,
            consumed: Energy::ZERO,
            leaked: Energy::ZERO,
            lost: Energy::ZERO,
        }
    }

    pub(crate) fn credit_harvest(&mut self, e: Energy) {
        self.harvested += e;
    }

    pub(crate) fn debit_consumed(&mut self, e: Energy) {
        self.consumed += e;
    }

    pub(crate) fn debit_leak(&mut self, e: Energy) {
        self.leaked += e;
    }

    pub(crate) fn debit_loss(&mut self, e: Energy) {
        self.lost += e;
    }

    /// Closes `node`'s ledger for `slot` against the stored level
    /// leaving it.
    ///
    /// # Panics
    ///
    /// Panics when inflow and outflow differ by more than 1e-6 of the
    /// larger (and at least 1e-6 nJ): some phase moved energy without
    /// booking it.
    pub(crate) fn settle(&self, node: usize, slot: u64, stored_after: Energy) {
        let inflow = self.harvested.as_nanojoules() + self.stored_before.as_nanojoules();
        let outflow = self.consumed.as_nanojoules()
            + self.leaked.as_nanojoules()
            + self.lost.as_nanojoules()
            + stored_after.as_nanojoules();
        let tol = 1e-6 * inflow.abs().max(outflow.abs()).max(1.0);
        assert!(
            (inflow - outflow).abs() <= tol,
            "node {node} slot {slot}: energy not conserved (nJ): harvested {} + before {} \
             != consumed {} + leaked {} + lost {} + after {}",
            self.harvested.as_nanojoules(),
            self.stored_before.as_nanojoules(),
            self.consumed.as_nanojoules(),
            self.leaked.as_nanojoules(),
            self.lost.as_nanojoules(),
            stored_after.as_nanojoules(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_settlement_passes() {
        let mut ledger = EnergyLedger::open(Energy::from_millijoules(10.0));
        ledger.credit_harvest(Energy::from_millijoules(4.0));
        ledger.debit_consumed(Energy::from_millijoules(3.0));
        ledger.debit_leak(Energy::from_millijoules(0.5));
        ledger.debit_loss(Energy::from_millijoules(1.5));
        ledger.settle(0, 0, Energy::from_millijoules(9.0));
    }

    #[test]
    #[should_panic(expected = "node 3 slot 17: energy not conserved")]
    fn unbalanced_settlement_panics_naming_node_and_slot() {
        let ledger = EnergyLedger::open(Energy::from_millijoules(10.0));
        ledger.settle(3, 17, Energy::from_millijoules(42.0));
    }
}
