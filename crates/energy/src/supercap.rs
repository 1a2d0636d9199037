//! Super-capacitor energy storage.
//!
//! In a normally-off system the super-capacitor is the *only* path from
//! harvester to load, and the paper observes (§2.1, WispCam example)
//! that "more than half of the energy income is wasted" to charging
//! inefficiency and leakage, and that a full capacitor *rejects* further
//! income — the flat-topped regions of Figure 9.
//!
//! Every node of a run carries the same capacitor, which differs from
//! node to node only in its charge (§2.1). A [`SuperCap`] is therefore
//! the design alone — capacity, charge efficiency and leak — and a
//! node's charge is a plain [`Energy`] level that each operation takes
//! by `&mut`.

use neofog_types::{Duration, Energy, NeoFogError, Power, Result};
use serde::{Deserialize, Serialize};

/// What one charge call did to a stored level: the observed
/// stored-level delta plus the share turned away. See
/// [`SuperCap::charge`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChargeReceipt {
    /// Observed stored-level increase (exactly `stored_after −
    /// stored_before`, so callers booking conservation against the
    /// level never re-read it).
    pub banked: Energy,
    /// Energy turned away because the capacitor was full (input-side).
    pub rejected: Energy,
}

/// A super-capacitor design with finite capacity, charge-efficiency
/// loss and self-leakage. It holds no charge: the operations act on a
/// stored level the caller keeps.
///
/// # Examples
///
/// ```
/// use neofog_energy::SuperCap;
/// use neofog_types::Energy;
///
/// let cap = SuperCap::new(Energy::from_millijoules(10.0))?.with_charge_efficiency(0.8);
/// let mut stored = Energy::ZERO;
/// let receipt = cap.charge(&mut stored, Energy::from_millijoules(5.0));
/// assert_eq!(receipt.rejected, Energy::ZERO);
/// assert_eq!(stored, Energy::from_millijoules(4.0)); // 80 % banked
/// # Ok::<(), neofog_types::NeoFogError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuperCap {
    capacity: Energy,
    charge_efficiency: f64,
    leak_power: Power,
}

impl SuperCap {
    /// A capacitor of the given capacity with ideal charging
    /// (efficiency 1.0) and no leakage.
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] unless `capacity` is
    /// positive and finite.
    pub fn new(capacity: Energy) -> Result<Self> {
        let nj = capacity.as_nanojoules();
        if !(nj > 0.0 && nj.is_finite()) {
            return Err(NeoFogError::invalid_config(format!(
                "capacitor capacity must be positive and finite (got {nj} nJ)"
            )));
        }
        Ok(SuperCap {
            capacity,
            charge_efficiency: 1.0,
            leak_power: Power::ZERO,
        })
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

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// `level` clamped into `[0, capacity]`: a stored level this
    /// capacitor can hold, such as a node's initial charge.
    #[must_use]
    pub fn clamp(&self, level: Energy) -> Energy {
        level.max_zero().min(self.capacity)
    }

    /// `stored` as a fraction of capacity.
    #[must_use]
    pub fn fraction(&self, stored: Energy) -> f64 {
        stored / self.capacity
    }

    /// Offers `input` energy to a capacitor holding `stored`; banks
    /// what fits (after conversion loss) and returns the observed
    /// level increase and the energy **rejected** because the
    /// capacitor was full.
    pub fn charge(&self, stored: &mut Energy, input: Energy) -> ChargeReceipt {
        let before = *stored;
        let input = input.max_zero();
        let after_loss = input * self.charge_efficiency;
        let room = self.capacity.saturating_sub(*stored);
        let banked = after_loss.min(room);
        *stored += banked;
        // A full capacitor turns income away *before* conversion: only
        // the accepted share of the raw input pays conversion loss, so
        // `input = banked / efficiency + rejected`.
        let accepted_input = banked / self.charge_efficiency;
        ChargeReceipt {
            banked: stored.saturating_sub(before),
            rejected: input - accepted_input,
        }
    }

    /// Withdraws up to `amount` from `stored`, returning how much was
    /// actually delivered (possibly less than requested). The design
    /// plays no part: any level can be drawn down.
    pub fn discharge_up_to(stored: &mut Energy, amount: Energy) -> Energy {
        let take = amount.max_zero().min(*stored);
        *stored -= take;
        take
    }

    /// Applies self-leakage over an elapsed interval, returning the
    /// observed drop of `stored`.
    pub fn leak(&self, stored: &mut Energy, elapsed: Duration) -> Energy {
        let before = *stored;
        let loss = (self.leak_power * elapsed).min(*stored);
        *stored -= loss;
        before.saturating_sub(*stored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mj(v: f64) -> Energy {
        Energy::from_millijoules(v)
    }

    fn cap(capacity_mj: f64) -> SuperCap {
        SuperCap::new(mj(capacity_mj)).unwrap()
    }

    #[test]
    fn charges_and_discharges() {
        let cap = cap(10.0);
        let mut stored = Energy::ZERO;
        assert_eq!(cap.charge(&mut stored, mj(4.0)).rejected, Energy::ZERO);
        assert_eq!(stored, mj(4.0));
        assert_eq!(SuperCap::discharge_up_to(&mut stored, mj(1.5)), mj(1.5));
        assert_eq!(stored, mj(2.5));
    }

    #[test]
    fn rejects_when_full() {
        let cap = cap(1.0);
        let mut stored = Energy::ZERO;
        let receipt = cap.charge(&mut stored, mj(3.0));
        assert_eq!(stored, cap.capacity());
        assert!((receipt.rejected.as_millijoules() - 2.0).abs() < 1e-9);
        // What was not rejected was banked (ideal charging).
        assert!((receipt.banked.as_millijoules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn charge_efficiency_takes_its_cut() {
        let cap = cap(100.0).with_charge_efficiency(0.5);
        let mut stored = Energy::ZERO;
        let receipt = cap.charge(&mut stored, mj(10.0));
        assert_eq!(stored, mj(5.0));
        assert_eq!(receipt.rejected, Energy::ZERO);
        // The conversion loss is what neither banked nor bounced.
        assert_eq!(mj(10.0) - receipt.rejected - receipt.banked, mj(5.0));
    }

    #[test]
    fn rejection_accounts_for_efficiency() {
        // 0.5 efficiency, capacity 1 mJ, offer 4 mJ: 2 mJ post-loss,
        // 1 mJ banked, 1 mJ internal reject = 2 mJ at the input side.
        let cap = cap(1.0).with_charge_efficiency(0.5);
        let mut stored = Energy::ZERO;
        let rejected = cap.charge(&mut stored, mj(4.0)).rejected;
        assert!((rejected.as_millijoules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn discharge_delivers_at_most_the_level() {
        let mut stored = cap(1.0).clamp(mj(0.2));
        assert_eq!(SuperCap::discharge_up_to(&mut stored, mj(0.5)), mj(0.2));
        assert_eq!(stored, Energy::ZERO);
    }

    #[test]
    fn leakage_drains_over_time() {
        let cap = cap(1.0).with_leak(Power::from_microwatts(10.0)); // 0.01 mW
        let mut stored = cap.capacity();
        let leaked = cap.leak(&mut stored, Duration::from_secs(10)); // 0.01 mW * 10 s = 0.1 mJ
        assert!((stored.as_millijoules() - 0.9).abs() < 1e-9);
        assert!((leaked.as_millijoules() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn leak_never_goes_negative() {
        let cap = cap(1.0).with_leak(Power::from_milliwatts(100.0));
        let mut stored = mj(0.001);
        cap.leak(&mut stored, Duration::from_secs(100));
        assert_eq!(stored, Energy::ZERO);
    }

    #[test]
    fn fraction_and_clamp() {
        let cap = cap(2.0);
        assert_eq!(cap.clamp(mj(50.0)), mj(2.0));
        assert_eq!(cap.clamp(mj(-1.0)), Energy::ZERO);
        assert!((cap.fraction(mj(2.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_must_be_positive_and_finite() {
        for bad in [
            Energy::ZERO,
            mj(-1.0),
            mj(f64::INFINITY),
            mj(1.0) * f64::NAN,
        ] {
            assert!(
                matches!(SuperCap::new(bad), Err(NeoFogError::InvalidConfig { .. })),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn ledger_balances() {
        let cap = cap(5.0)
            .with_charge_efficiency(0.8)
            .with_leak(Power::from_microwatts(10.0));
        let mut stored = Energy::ZERO;
        let mut banked = Energy::ZERO;
        for input in [mj(4.0), mj(4.0)] {
            let receipt = cap.charge(&mut stored, input);
            // Only the accepted share of the input pays conversion loss.
            let expected = (input - receipt.rejected) * 0.8;
            assert!((receipt.banked - expected).as_nanojoules().abs() < 1e-6);
            banked += receipt.banked;
        }
        let delivered = SuperCap::discharge_up_to(&mut stored, mj(2.0));
        let leaked = cap.leak(&mut stored, Duration::from_secs(1));
        assert!(leaked > Energy::ZERO);
        let accounted = banked - delivered - leaked;
        assert!((accounted.as_nanojoules() - stored.as_nanojoules()).abs() < 1e-6);
    }
}
