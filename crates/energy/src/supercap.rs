//! Super-capacitor energy storage.
//!
//! In a normally-off system the super-capacitor is the *only* path from
//! harvester to load, and the paper observes (§2.1, WispCam example)
//! that "more than half of the energy income is wasted" to charging
//! inefficiency and leakage, and that a full capacitor *rejects* further
//! income — the flat-topped regions of Figure 9.

use neofog_types::{Duration, Energy, NeoFogError, Power, Result};
use serde::{Deserialize, Serialize};

/// What one metered charge call did to the store: the observed
/// stored-level delta plus the share turned away. See
/// [`SuperCap::charge_metered`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChargeReceipt {
    /// Observed stored-level increase (exactly `stored_after −
    /// stored_before`, so callers booking conservation against the
    /// level never re-read the store).
    pub banked: Energy,
    /// Energy turned away because the capacitor was full (input-side).
    pub rejected: Energy,
}

/// A super-capacitor with finite capacity, charge-efficiency loss and
/// self-leakage.
///
/// # Examples
///
/// ```
/// use neofog_energy::SuperCap;
/// use neofog_types::Energy;
///
/// let mut cap = SuperCap::new(Energy::from_millijoules(10.0))
///     .with_charge_efficiency(0.8);
/// let rejected = cap.charge(Energy::from_millijoules(5.0));
/// assert_eq!(rejected, Energy::ZERO);
/// assert_eq!(cap.stored(), Energy::from_millijoules(4.0)); // 80 % banked
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuperCap {
    capacity: Energy,
    stored: Energy,
    charge_efficiency: f64,
    leak_power: Power,
}

impl SuperCap {
    /// Creates an empty capacitor with the given capacity, ideal
    /// charging (efficiency 1.0) and no leakage.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    #[must_use]
    pub fn new(capacity: Energy) -> Self {
        assert!(
            capacity > Energy::ZERO,
            "capacitor capacity must be positive"
        );
        SuperCap {
            capacity,
            stored: Energy::ZERO,
            charge_efficiency: 1.0,
            leak_power: Power::ZERO,
        }
    }

    /// Sets the charging efficiency in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `(0, 1]`.
    #[must_use]
    pub fn with_charge_efficiency(mut self, eta: f64) -> Self {
        assert!(
            eta > 0.0 && eta <= 1.0,
            "charge efficiency must be in (0, 1]"
        );
        self.charge_efficiency = eta;
        self
    }

    /// Sets the constant self-leakage power.
    #[must_use]
    pub fn with_leak(mut self, leak: Power) -> Self {
        self.leak_power = leak.max_zero();
        self
    }

    /// Sets the initial stored energy (clamped to capacity).
    #[must_use]
    pub fn with_initial(mut self, stored: Energy) -> Self {
        self.stored = stored.max_zero().min(self.capacity);
        self
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// Currently stored energy.
    #[must_use]
    pub fn stored(&self) -> Energy {
        self.stored
    }

    /// Stored energy as a fraction of capacity in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.stored / self.capacity
    }

    /// `true` when at (or within float-epsilon of) capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.stored.as_nanojoules() >= self.capacity.as_nanojoules() * (1.0 - 1e-12)
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stored <= Energy::ZERO
    }

    /// Charging efficiency.
    #[must_use]
    pub fn charge_efficiency(&self) -> f64 {
        self.charge_efficiency
    }

    /// Offers `input` energy to the capacitor; banks what fits (after
    /// conversion loss) and returns the energy **rejected** because the
    /// capacitor was full.
    pub fn charge(&mut self, input: Energy) -> Energy {
        let input = input.max_zero();
        let after_loss = input * self.charge_efficiency;
        let room = self.capacity.saturating_sub(self.stored);
        let banked = after_loss.min(room);
        self.stored += banked;
        // A full capacitor turns income away *before* conversion: only
        // the accepted share of the raw input pays conversion loss, so
        // `input = banked / efficiency + rejected`.
        let accepted_input = banked / self.charge_efficiency;
        input - accepted_input
    }

    /// Withdraws exactly `amount` for the load.
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::EnergyDepleted`] (and leaves the store
    /// untouched) if less than `amount` is available.
    pub fn try_discharge(&mut self, amount: Energy) -> Result<()> {
        let amount = amount.max_zero();
        if amount > self.stored {
            return Err(NeoFogError::EnergyDepleted {
                needed_nj: amount.as_nanojoules() as u64,
                available_nj: self.stored.as_nanojoules() as u64,
            });
        }
        self.stored -= amount;
        Ok(())
    }

    /// Withdraws up to `amount`, returning how much was actually
    /// delivered (possibly less than requested).
    pub fn discharge_up_to(&mut self, amount: Energy) -> Energy {
        let take = amount.max_zero().min(self.stored);
        self.stored -= take;
        take
    }

    /// Applies self-leakage over an elapsed interval.
    pub fn leak(&mut self, elapsed: Duration) {
        let loss = (self.leak_power * elapsed).min(self.stored);
        self.stored -= loss;
    }

    /// [`charge`](SuperCap::charge) plus the observed stored-level
    /// delta, in one call — the columnar sweeps' alternative to
    /// reading `stored()` around a `charge()`. The `banked` field is
    /// the literal level difference (not the internal post-loss
    /// figure), so ledger arithmetic built on it is bit-identical to
    /// the read–charge–read sequence it replaces.
    pub fn charge_metered(&mut self, input: Energy) -> ChargeReceipt {
        let before = self.stored;
        let rejected = self.charge(input);
        ChargeReceipt {
            banked: self.stored.saturating_sub(before),
            rejected,
        }
    }

    /// [`leak`](SuperCap::leak) plus the observed stored-level drop,
    /// in one call.
    pub fn leak_metered(&mut self, elapsed: Duration) -> Energy {
        let before = self.stored;
        self.leak(elapsed);
        before.saturating_sub(self.stored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mj(v: f64) -> Energy {
        Energy::from_millijoules(v)
    }

    #[test]
    fn charges_and_discharges() {
        let mut cap = SuperCap::new(mj(10.0));
        assert_eq!(cap.charge(mj(4.0)), Energy::ZERO);
        assert_eq!(cap.stored(), mj(4.0));
        cap.try_discharge(mj(1.5)).unwrap();
        assert_eq!(cap.stored(), mj(2.5));
    }

    #[test]
    fn rejects_when_full() {
        let mut cap = SuperCap::new(mj(1.0));
        let receipt = cap.charge_metered(mj(3.0));
        assert!(cap.is_full());
        assert!((receipt.rejected.as_millijoules() - 2.0).abs() < 1e-9);
        // What was not rejected was banked (ideal charging).
        assert!((receipt.banked.as_millijoules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn charge_efficiency_takes_its_cut() {
        let mut cap = SuperCap::new(mj(100.0)).with_charge_efficiency(0.5);
        let receipt = cap.charge_metered(mj(10.0));
        assert_eq!(cap.stored(), mj(5.0));
        assert_eq!(receipt.rejected, Energy::ZERO);
        // The conversion loss is what neither banked nor bounced.
        assert_eq!(mj(10.0) - receipt.rejected - receipt.banked, mj(5.0));
    }

    #[test]
    fn rejection_accounts_for_efficiency() {
        // 0.5 efficiency, capacity 1 mJ, offer 4 mJ: 2 mJ post-loss,
        // 1 mJ banked, 1 mJ internal reject = 2 mJ at the input side.
        let mut cap = SuperCap::new(mj(1.0)).with_charge_efficiency(0.5);
        let rejected = cap.charge(mj(4.0));
        assert!((rejected.as_millijoules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn discharge_fails_cleanly_when_depleted() {
        let mut cap = SuperCap::new(mj(1.0)).with_initial(mj(0.2));
        let err = cap.try_discharge(mj(0.5)).unwrap_err();
        assert!(matches!(err, NeoFogError::EnergyDepleted { .. }));
        assert_eq!(cap.stored(), mj(0.2), "failed discharge must not drain");
        assert_eq!(cap.discharge_up_to(mj(0.5)), mj(0.2));
        assert!(cap.is_empty());
    }

    #[test]
    fn leakage_drains_over_time() {
        let mut cap = SuperCap::new(mj(1.0))
            .with_initial(mj(1.0))
            .with_leak(Power::from_microwatts(10.0)); // 0.01 mW
        let leaked = cap.leak_metered(Duration::from_secs(10)); // 0.01 mW * 10 s = 0.1 mJ
        assert!((cap.stored().as_millijoules() - 0.9).abs() < 1e-9);
        assert!((leaked.as_millijoules() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn leak_never_goes_negative() {
        let mut cap = SuperCap::new(mj(1.0))
            .with_initial(mj(0.001))
            .with_leak(Power::from_milliwatts(100.0));
        cap.leak(Duration::from_secs(100));
        assert_eq!(cap.stored(), Energy::ZERO);
    }

    #[test]
    fn fraction_and_initial_clamp() {
        let cap = SuperCap::new(mj(2.0)).with_initial(mj(50.0));
        assert_eq!(cap.stored(), mj(2.0));
        assert!((cap.fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_balances() {
        let mut cap = SuperCap::new(mj(5.0))
            .with_charge_efficiency(0.8)
            .with_leak(Power::from_microwatts(10.0));
        let mut banked = Energy::ZERO;
        for input in [mj(4.0), mj(4.0)] {
            let receipt = cap.charge_metered(input);
            // Only the accepted share of the input pays conversion loss.
            let expected = (input - receipt.rejected) * 0.8;
            assert!((receipt.banked - expected).as_nanojoules().abs() < 1e-6);
            banked += receipt.banked;
        }
        let delivered = cap.discharge_up_to(mj(2.0));
        let leaked = cap.leak_metered(Duration::from_secs(1));
        assert!(leaked > Energy::ZERO);
        let accounted = banked - delivered - leaked;
        assert!((accounted.as_nanojoules() - cap.stored().as_nanojoules()).abs() < 1e-6);
    }
}
