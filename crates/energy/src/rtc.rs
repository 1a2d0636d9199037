//! The real-time-clock super-capacitor (paper §2.1, §2.3).
//!
//! Each node carries **two** super-capacitors: one for the node and one
//! dedicated to the real-time clock that keeps the node synchronized
//! with the network's wake-up slots. The RTC capacitor "has a higher
//! charging priority because if it loses power entirely ...
//! resynchronizing with the logical time slots imposes large overheads
//! compared to normal state restoration."
//!
//! Like [`SuperCap`], an [`Rtc`] is the design every node shares — the
//! clock capacitor's capacity and the clock's draw. A node's clock is
//! its RTC level and its sync bit (`true` while the clock tracks the
//! network's slot phase), which each operation takes by `&mut`. A node
//! starts full ([`Rtc::capacity`]) and synchronized.

use crate::supercap::SuperCap;
use neofog_types::{Duration, Energy, Power, Result};
use serde::{Deserialize, Serialize};

/// A real-time-clock design: the clock's own super-capacitor (ideal
/// charging, no leak) and its continuous draw.
///
/// # Examples
///
/// ```
/// use neofog_energy::Rtc;
/// use neofog_types::{Duration, Energy, Power};
///
/// let rtc = Rtc::new(Energy::from_millijoules(5.0), Power::from_microwatts(2.0))?;
/// let (mut stored, mut synced) = (Energy::from_millijoules(4.0), true);
/// let leftover = rtc.charge_with_priority(&mut stored, Energy::from_millijoules(10.0));
/// assert!(leftover > Energy::ZERO); // the RTC takes only what it needs
/// rtc.elapse(&mut stored, &mut synced, Duration::from_secs(60));
/// assert!(synced);
/// # Ok::<(), neofog_types::NeoFogError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rtc {
    cap: SuperCap,
    draw: Power,
}

impl Rtc {
    /// An RTC design.
    ///
    /// * `capacity` — RTC super-capacitor size.
    /// * `draw` — continuous RTC power draw (typically a few µW).
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`](neofog_types::NeoFogError::InvalidConfig)
    /// unless `capacity` is positive and finite.
    pub fn new(capacity: Energy, draw: Power) -> Result<Self> {
        Ok(Rtc {
            cap: SuperCap::new(capacity)?,
            draw: draw.max_zero(),
        })
    }

    /// Capacity of the clock capacitor: the level a node starts at.
    #[must_use]
    pub fn capacity(&self) -> Energy {
        self.cap.capacity()
    }

    /// Charges the RTC level `stored` first (priority), returning the
    /// energy left over for the node's main capacitor.
    pub fn charge_with_priority(&self, stored: &mut Energy, income: Energy) -> Energy {
        let room = self.cap.capacity().saturating_sub(*stored);
        let take = income.max_zero().min(room);
        let rejected = self.cap.charge(stored, take).rejected;
        income.max_zero() - take + rejected
    }

    /// Advances simulated time, draining the RTC level; if it runs dry
    /// the node desynchronizes.
    pub fn elapse(&self, stored: &mut Energy, synced: &mut bool, elapsed: Duration) {
        let needed = self.draw * elapsed;
        let got = SuperCap::discharge_up_to(stored, needed);
        if got < needed {
            *synced = false;
        }
    }

    /// [`charge_with_priority`](Rtc::charge_with_priority) followed by
    /// [`elapse`](Rtc::elapse), in one call — one RTC touch per
    /// element in the harvest sweep. Returns the income left over for
    /// the node's main capacitor.
    pub fn tick(
        &self,
        stored: &mut Energy,
        synced: &mut bool,
        income: Energy,
        elapsed: Duration,
    ) -> Energy {
        let leftover = self.charge_with_priority(stored, income);
        self.elapse(stored, synced, elapsed);
        leftover
    }

    /// Attempts resynchronization; succeeds only if the RTC level holds
    /// at least `cost` (the network-rejoin energy), which is consumed.
    /// A failed attempt leaves the level untouched: the draw is all or
    /// nothing.
    ///
    /// Returns `true` on success, and at once when already
    /// synchronized.
    pub fn resynchronize(&self, stored: &mut Energy, synced: &mut bool, cost: Energy) -> bool {
        if *synced {
            return true;
        }
        let cost = cost.max_zero();
        if cost > *stored {
            return false;
        }
        *stored -= cost;
        *synced = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mj(v: f64) -> Energy {
        Energy::from_millijoules(v)
    }

    /// A design of `capacity_mj` drawing `draw`, and a node starting
    /// full and synchronized.
    fn rtc(capacity_mj: f64, draw: Power) -> (Rtc, Energy, bool) {
        let rtc = Rtc::new(mj(capacity_mj), draw).unwrap();
        (rtc, rtc.capacity(), true)
    }

    #[test]
    fn stays_synchronized_while_powered() {
        let (rtc, mut stored, mut synced) = rtc(1.0, Power::from_microwatts(1.0));
        rtc.elapse(&mut stored, &mut synced, Duration::from_secs(100)); // 0.1 mJ of 1 mJ
        assert!(synced);
        assert!((stored.as_millijoules() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn desynchronizes_when_drained() {
        let (rtc, mut stored, mut synced) = rtc(0.001, Power::from_milliwatts(1.0));
        rtc.elapse(&mut stored, &mut synced, Duration::from_secs(10));
        assert!(!synced);
    }

    #[test]
    fn priority_charging_takes_only_what_fits() {
        let (rtc, mut stored, _) = rtc(1.0, Power::ZERO);
        // Drain half, then offer 10 mJ: RTC absorbs 0.5, rest passes through.
        SuperCap::discharge_up_to(&mut stored, mj(0.5));
        let leftover = rtc.charge_with_priority(&mut stored, mj(10.0));
        assert!((leftover.as_millijoules() - 9.5).abs() < 1e-9);
        assert!((stored.as_millijoules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resync_costs_energy() {
        let (rtc, mut stored, mut synced) = rtc(1.0, Power::from_milliwatts(10.0));
        rtc.elapse(&mut stored, &mut synced, Duration::from_secs(10)); // dead
        assert!(!synced);
        // Recharge, then resync.
        rtc.charge_with_priority(&mut stored, mj(1.0));
        assert!(rtc.resynchronize(&mut stored, &mut synced, mj(0.3)));
        assert!(synced);
        assert!((stored.as_millijoules() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn resync_fails_without_energy() {
        let (rtc, mut stored, mut synced) = rtc(0.1, Power::from_milliwatts(10.0));
        rtc.elapse(&mut stored, &mut synced, Duration::from_secs(10));
        assert!(!rtc.resynchronize(&mut stored, &mut synced, mj(0.5)));
        assert!(!synced);
    }

    #[test]
    fn resync_when_already_synced_is_free() {
        let (rtc, mut stored, mut synced) = rtc(1.0, Power::ZERO);
        assert!(rtc.resynchronize(&mut stored, &mut synced, mj(100.0)));
        assert_eq!(stored, mj(1.0));
    }
}
