//! RTC-synchronized wake-up slots (paper §2.3).
//!
//! "The RTC wakes up once in every predefined interval, and as a
//! result, once synchronized, all the nodes in the network with
//! sufficient energy would wake up at the same time." NVD4Q
//! additionally gives each clone a phase offset so the members of a
//! clone set take turns (Algorithm 2).

use serde::{Deserialize, Serialize};

/// A node's slot schedule: wake every `interval` slots at offset
/// `phase` (Algorithm 2's "pre-set tick count between activations" and
/// "initial (phase) offset in ticks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotSchedule {
    interval: u32,
    /// Below `interval`, which `new` checks.
    phase: u32,
}

impl SlotSchedule {
    /// The default schedule: wake every slot.
    #[must_use]
    pub fn every_slot() -> Self {
        SlotSchedule {
            interval: 1,
            phase: 0,
        }
    }

    /// Creates a schedule waking every `interval` slots at `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `phase >= interval`.
    #[must_use]
    pub fn new(interval: u32, phase: u32) -> Self {
        assert!(interval > 0, "interval must be positive");
        assert!(phase < interval, "phase must be below interval");
        SlotSchedule { interval, phase }
    }

    /// Wake period in slots.
    #[must_use]
    pub fn interval(&self) -> u32 {
        self.interval
    }

    /// Phase offset in slots.
    #[must_use]
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Should a synchronized node wake at absolute slot `slot`?
    #[must_use]
    pub fn wakes_at(&self, slot: u64) -> bool {
        slot % u64::from(self.interval) == u64::from(self.phase)
    }
}

impl Default for SlotSchedule {
    fn default() -> Self {
        Self::every_slot()
    }
}

/// Assigns clone-set schedules: `n` clones of one logical node share
/// the logical `interval`, each with a distinct phase (Algorithm 2's
/// "initial (phase) offset in ticks (unique among the clones of the
/// same node)").
#[must_use]
pub fn clone_schedules(n: u32) -> Vec<SlotSchedule> {
    let n = n.max(1);
    (0..n).map(|k| SlotSchedule::new(n, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slot_always_wakes() {
        let s = SlotSchedule::every_slot();
        for slot in 0..10 {
            assert!(s.wakes_at(slot));
        }
    }

    #[test]
    fn phase_offsets_partition_slots() {
        // Exactly one clone of a 3-clone set wakes at every slot.
        let schedules = clone_schedules(3);
        for slot in 0..30u64 {
            let awake: Vec<_> = schedules.iter().filter(|s| s.wakes_at(slot)).collect();
            assert_eq!(awake.len(), 1, "slot {slot}");
        }
    }

    #[test]
    fn clone_wake_rate_is_one_over_n() {
        for n in [1u32, 2, 3, 5] {
            let schedules = clone_schedules(n);
            let total = u64::from(n) * 100;
            for s in &schedules {
                let wakes = (0..total).filter(|&k| s.wakes_at(k)).count();
                assert_eq!(wakes, 100, "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "phase must be below interval")]
    fn bad_phase_rejected() {
        let _ = SlotSchedule::new(2, 2);
    }
}
