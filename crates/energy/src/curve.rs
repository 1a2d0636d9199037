//! Prefix-summed cumulative-energy curves: exact O(1) interval
//! integration over a [`PowerTrace`].
//!
//! [`PowerTrace::energy_between`] walks every sample the interval
//! covers, so a 12 s slot over a 1 s-resolution trace costs twelve
//! sample visits — per node, per slot, for the whole simulation. An
//! [`EnergyCurve`] pays that walk once at construction: it stores the
//! running integral at every sample boundary, after which any
//! `energy_between` is two cumulative lookups (each one prefix read
//! plus an interpolation inside the boundary sample) regardless of the
//! interval length.
//!
//! The prefix sums reassociate the floating-point additions the walk
//! performs, so a curve integral can differ from the walk by a few
//! ULPs of the *cumulative* total — never more than the accumulated
//! rounding of one pass over the trace. The property tests in
//! `tests/prop_curve.rs` pin that bound.
//!
//! The simulator stores no curves: [`ChainPlan::slot_incomes`] folds
//! each synthesized trace straight into per-slot incomes, bit-identical
//! to this type's `energy_between` over each slot.
//!
//! [`ChainPlan::slot_incomes`]: crate::ChainPlan::slot_incomes
//!
//! # Examples
//!
//! ```
//! use neofog_energy::{EnergyCurve, PowerTrace};
//! use neofog_types::{Duration, Power};
//!
//! let trace = PowerTrace::constant(
//!     Power::from_milliwatts(2.0),
//!     Duration::from_secs(60),
//!     Duration::from_secs(1),
//! );
//! let walk = trace.energy_between(Duration::from_secs(12), Duration::from_secs(24));
//! let curve = EnergyCurve::new(trace);
//! let fast = curve.energy_between(Duration::from_secs(12), Duration::from_secs(24));
//! assert!((walk.as_nanojoules() - fast.as_nanojoules()).abs() < 1e-6);
//! ```

use crate::trace::PowerTrace;
use neofog_types::{Duration, Energy, Power};
use serde::{Deserialize, Serialize};

/// A [`PowerTrace`] together with its prefix-summed integral.
///
/// `cum[i]` is the energy delivered over `[0, i·dt)`, so the integral
/// over any `[t0, t1)` is `cumulative_at(t1) − cumulative_at(t0)` —
/// two O(1) lookups instead of an O(samples) walk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyCurve {
    trace: PowerTrace,
    /// `cum.len() == trace.len() + 1`; `cum[0] == 0`.
    cum: Vec<Energy>,
}

impl EnergyCurve {
    /// Builds the prefix sums for `trace` (one O(samples) pass).
    #[must_use]
    pub fn new(trace: PowerTrace) -> Self {
        // Accumulate in raw nanojoules with the conversion factor
        // hoisted: the multiply-then-add order per sample is exactly
        // what `Power * Duration` followed by `+=` performs, so the
        // prefix values are bit-identical to the naive loop — just
        // without a unit conversion and capacity check per sample.
        let dt_us = trace.dt().as_micros() as f64;
        let mut cum = vec![Energy::ZERO; trace.len() + 1];
        let mut total = 0.0_f64;
        for (out, p) in cum.iter_mut().skip(1).zip(trace.samples()) {
            total += p.as_milliwatts() * dt_us;
            *out = Energy::from_nanojoules(total);
        }
        EnergyCurve { trace, cum }
    }

    /// The underlying power trace.
    #[must_use]
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// The sampling interval.
    #[must_use]
    pub fn dt(&self) -> Duration {
        self.trace.dt()
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// `true` if the curve covers no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Total covered duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.trace.duration()
    }

    /// Integral over the whole trace.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.cum.last().copied().unwrap_or(Energy::ZERO)
    }

    /// Cumulative energy over `[0, t)`, clamped to the trace end
    /// (beyond it the power is zero, so the integral is flat).
    #[must_use]
    pub fn cumulative_at(&self, t: Duration) -> Energy {
        let dt_us = self.trace.dt().as_micros();
        let idx = (t.as_micros() / dt_us) as usize;
        if idx >= self.trace.len() {
            return self.total_energy();
        }
        // Interpolate inside the boundary sample: the trace is
        // piecewise constant, so the partial sample contributes its
        // power times the covered span.
        let within = Duration::from_micros(t.as_micros() - idx as u64 * dt_us);
        let base = self.cum.get(idx).copied().unwrap_or(Energy::ZERO);
        let power = self
            .trace
            .samples()
            .get(idx)
            .copied()
            .unwrap_or(Power::ZERO);
        base + power * within
    }

    /// Integral of the trace over `[t0, t1)`, in energy: the
    /// prefix-sum equivalent of [`PowerTrace::energy_between`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t0 > t1`.
    #[must_use]
    pub fn energy_between(&self, t0: Duration, t1: Duration) -> Energy {
        debug_assert!(t0 <= t1, "interval must be ordered");
        // The cumulative curve is monotone; saturate so a same-point
        // difference can never produce a negative zero artefact.
        self.cumulative_at(t1)
            .saturating_sub(self.cumulative_at(t0))
    }
}

impl From<PowerTrace> for EnergyCurve {
    fn from(trace: PowerTrace) -> Self {
        EnergyCurve::new(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mw(v: f64) -> Power {
        Power::from_milliwatts(v)
    }

    fn ramp() -> PowerTrace {
        PowerTrace::from_samples(
            Duration::from_millis(10),
            (1..=8).map(|i| mw(f64::from(i))).collect(),
        )
    }

    #[test]
    fn matches_walk_on_aligned_intervals() {
        let trace = ramp();
        let curve = EnergyCurve::new(trace.clone());
        for a in 0..=8u64 {
            for b in a..=8 {
                let t0 = Duration::from_millis(a * 10);
                let t1 = Duration::from_millis(b * 10);
                let walk = trace.energy_between(t0, t1).as_nanojoules();
                let fast = curve.energy_between(t0, t1).as_nanojoules();
                assert!(
                    (walk - fast).abs() <= 1e-9 * walk.abs().max(1.0),
                    "[{a}, {b}): walk {walk} vs curve {fast}"
                );
            }
        }
    }

    #[test]
    fn empty_interval_is_zero() {
        let curve = EnergyCurve::new(ramp());
        let t = Duration::from_micros(12_345);
        assert_eq!(curve.energy_between(t, t), Energy::ZERO);
    }

    #[test]
    fn interval_beyond_end_is_clamped() {
        let trace = ramp();
        let total = trace.energy_between(Duration::ZERO, trace.duration());
        let curve = EnergyCurve::new(trace);
        assert_eq!(
            curve.energy_between(Duration::ZERO, Duration::from_secs(100)),
            curve.total_energy()
        );
        assert!((curve.total_energy().as_nanojoules() - total.as_nanojoules()).abs() < 1e-9);
        // Both endpoints beyond the end: flat region, zero energy.
        assert_eq!(
            curve.energy_between(Duration::from_secs(10), Duration::from_secs(20)),
            Energy::ZERO
        );
    }

    #[test]
    fn unaligned_endpoints_interpolate() {
        let trace =
            PowerTrace::from_samples(Duration::from_millis(1), vec![mw(1.0), mw(2.0), mw(3.0)]);
        let curve = EnergyCurve::new(trace.clone());
        // [0.5ms, 2.5ms) = 0.5ms@1mW + 1ms@2mW + 0.5ms@3mW = 4000 nJ.
        let e = curve.energy_between(Duration::from_micros(500), Duration::from_micros(2500));
        assert!((e.as_nanojoules() - 4000.0).abs() < 1e-9, "{e:?}");
        // Sub-sample interval entirely inside one sample.
        let inside = curve.energy_between(Duration::from_micros(1200), Duration::from_micros(1700));
        assert!((inside.as_nanojoules() - 1000.0).abs() < 1e-9, "{inside:?}");
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let curve = EnergyCurve::new(PowerTrace::from_samples(Duration::from_secs(1), vec![]));
        assert!(curve.is_empty());
        assert_eq!(curve.total_energy(), Energy::ZERO);
        assert_eq!(
            curve.energy_between(Duration::ZERO, Duration::from_secs(5)),
            Energy::ZERO
        );
    }
}
