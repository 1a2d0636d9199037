//! The real-time-clock super-capacitor (paper §2.1, §2.3).
//!
//! Each node carries **two** super-capacitors: one for the node and one
//! dedicated to the real-time clock that keeps the node synchronized
//! with the network's wake-up slots. The RTC capacitor "has a higher
//! charging priority because if it loses power entirely ...
//! resynchronizing with the logical time slots imposes large overheads
//! compared to normal state restoration."

use crate::supercap::SuperCap;
use neofog_types::{Duration, Energy, Power};
use serde::{Deserialize, Serialize};

/// Synchronization state of a node's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncState {
    /// The RTC is alive and the node knows the network's slot phase.
    Synchronized,
    /// The RTC died; the node must perform a costly resynchronization
    /// the next time it has power (it "will wake up whenever it has
    /// sufficient power in order to attempt to re-connect").
    Desynchronized,
}

/// A real-time clock backed by its own super-capacitor.
///
/// # Examples
///
/// ```
/// use neofog_energy::Rtc;
/// use neofog_types::{Duration, Energy, Power};
///
/// let mut rtc = Rtc::new(Energy::from_millijoules(5.0), Power::from_microwatts(2.0));
/// let leftover = rtc.charge_with_priority(Energy::from_millijoules(10.0));
/// assert!(leftover > Energy::ZERO); // RTC takes only what it needs
/// rtc.elapse(Duration::from_secs(60));
/// assert!(rtc.is_synchronized());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rtc {
    cap: SuperCap,
    draw: Power,
    state: SyncState,
}

impl Rtc {
    /// Creates a synchronized RTC with a full capacitor.
    ///
    /// * `capacity` — RTC super-capacitor size.
    /// * `draw` — continuous RTC power draw (typically a few µW).
    #[must_use]
    pub fn new(capacity: Energy, draw: Power) -> Self {
        Rtc {
            cap: SuperCap::new(capacity).with_initial(capacity),
            draw: draw.max_zero(),
            state: SyncState::Synchronized,
        }
    }

    /// Current synchronization state.
    #[must_use]
    pub fn state(&self) -> SyncState {
        self.state
    }

    /// `true` while the RTC tracks the network slots.
    #[must_use]
    pub fn is_synchronized(&self) -> bool {
        self.state == SyncState::Synchronized
    }

    /// Stored energy in the RTC capacitor.
    #[must_use]
    pub fn stored(&self) -> Energy {
        self.cap.stored()
    }

    /// Continuous power draw of the clock.
    #[must_use]
    pub fn draw(&self) -> Power {
        self.draw
    }

    /// Charges the RTC first (priority), returning the energy left over
    /// for the node's main capacitor.
    pub fn charge_with_priority(&mut self, income: Energy) -> Energy {
        let room = self.cap.capacity().saturating_sub(self.cap.stored());
        let take = income.max_zero().min(room);
        let rejected = self.cap.charge(take);
        income.max_zero() - take + rejected
    }

    /// Advances simulated time, draining the RTC; if it runs dry the
    /// node desynchronizes.
    pub fn elapse(&mut self, elapsed: Duration) {
        let needed = self.draw * elapsed;
        let got = self.cap.discharge_up_to(needed);
        if got < needed {
            self.state = SyncState::Desynchronized;
        }
    }

    /// [`charge_with_priority`](Rtc::charge_with_priority) followed by
    /// [`elapse`](Rtc::elapse), in one call — one RTC touch per
    /// element in the harvest sweep. Returns the income left over for
    /// the node's main capacitor.
    pub fn tick(&mut self, income: Energy, elapsed: Duration) -> Energy {
        let leftover = self.charge_with_priority(income);
        self.elapse(elapsed);
        leftover
    }

    /// Attempts resynchronization; succeeds only if the RTC capacitor
    /// holds at least `cost` (the network-rejoin energy), which is
    /// consumed.
    ///
    /// Returns `true` on success.
    pub fn resynchronize(&mut self, cost: Energy) -> bool {
        if self.state == SyncState::Synchronized {
            return true;
        }
        if self.cap.try_discharge(cost).is_ok() {
            self.state = SyncState::Synchronized;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mj(v: f64) -> Energy {
        Energy::from_millijoules(v)
    }

    #[test]
    fn stays_synchronized_while_powered() {
        let mut rtc = Rtc::new(mj(1.0), Power::from_microwatts(1.0));
        rtc.elapse(Duration::from_secs(100)); // 0.1 mJ of 1 mJ
        assert!(rtc.is_synchronized());
        assert!((rtc.stored().as_millijoules() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn desynchronizes_when_drained() {
        let mut rtc = Rtc::new(mj(0.001), Power::from_milliwatts(1.0));
        rtc.elapse(Duration::from_secs(10));
        assert!(!rtc.is_synchronized());
    }

    #[test]
    fn priority_charging_takes_only_what_fits() {
        let mut rtc = Rtc::new(mj(1.0), Power::ZERO);
        rtc.elapse(Duration::ZERO);
        // Drain half, then offer 10 mJ: RTC absorbs 0.5, rest passes through.
        rtc.cap.discharge_up_to(mj(0.5));
        let leftover = rtc.charge_with_priority(mj(10.0));
        assert!((leftover.as_millijoules() - 9.5).abs() < 1e-9);
        assert!((rtc.stored().as_millijoules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resync_costs_energy() {
        let mut rtc = Rtc::new(mj(1.0), Power::from_milliwatts(10.0));
        rtc.elapse(Duration::from_secs(10)); // dead
        assert!(!rtc.is_synchronized());
        // Recharge, then resync.
        rtc.charge_with_priority(mj(1.0));
        assert!(rtc.resynchronize(mj(0.3)));
        assert!(rtc.is_synchronized());
        assert!((rtc.stored().as_millijoules() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn resync_fails_without_energy() {
        let mut rtc = Rtc::new(mj(0.1), Power::from_milliwatts(10.0));
        rtc.elapse(Duration::from_secs(10));
        assert!(!rtc.resynchronize(mj(0.5)));
        assert!(!rtc.is_synchronized());
    }

    #[test]
    fn resync_when_already_synced_is_free() {
        let mut rtc = Rtc::new(mj(1.0), Power::ZERO);
        assert!(rtc.resynchronize(mj(100.0)));
        assert_eq!(rtc.stored(), mj(1.0));
    }
}
