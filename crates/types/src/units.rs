//! Strongly typed physical quantities.
//!
//! The NEOFog paper reports every timing constant in milliseconds with at
//! most three decimal places and every power in milliwatts, so the
//! microsecond / milliwatt / nanojoule triple is closed under the
//! arithmetic the simulator performs: `mW × µs = nJ` exactly.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An amount of energy, stored in nanojoules.
///
/// `Energy` is a simple `f64` newtype: cheap to copy, totally ordered in
/// practice (construction from NaN is rejected by [`Energy::from_nanojoules`]
/// in debug builds) and closed under addition/subtraction and scalar
/// multiplication.
///
/// # Examples
///
/// ```
/// use neofog_types::Energy;
///
/// let per_inst = Energy::from_nanojoules(2.508);
/// let task = per_inst * 545.0; // Bridge-health naive task (Table 2)
/// assert!((task.as_nanojoules() - 1366.86).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from nanojoules.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `nj` is NaN.
    #[must_use]
    pub fn from_nanojoules(nj: f64) -> Self {
        debug_assert!(!nj.is_nan(), "energy must not be NaN");
        Energy(nj)
    }

    /// Creates an energy from microjoules.
    #[must_use]
    pub fn from_microjoules(uj: f64) -> Self {
        Self::from_nanojoules(uj * 1e3)
    }

    /// Creates an energy from millijoules.
    #[must_use]
    pub fn from_millijoules(mj: f64) -> Self {
        Self::from_nanojoules(mj * 1e6)
    }

    /// Returns the energy in nanojoules.
    #[must_use]
    pub fn as_nanojoules(self) -> f64 {
        self.0
    }

    /// Returns the energy in microjoules.
    #[must_use]
    pub fn as_microjoules(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the energy in millijoules.
    #[must_use]
    pub fn as_millijoules(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the energy in joules.
    #[must_use]
    pub fn as_joules(self) -> f64 {
        self.0 * 1e-9
    }

    /// Returns `true` if this energy is negative.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Clamps negative values to zero.
    #[must_use]
    pub fn max_zero(self) -> Self {
        Energy(self.0.max(0.0))
    }

    /// Returns the smaller of two energies.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Energy(self.0.min(other.0))
    }

    /// Returns the larger of two energies.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Energy(self.0.max(other.0))
    }

    /// Saturating subtraction: never goes below zero.
    #[must_use]
    pub fn saturating_sub(self, other: Self) -> Self {
        Energy((self.0 - other.0).max(0.0))
    }

    /// How long this energy can sustain the given power draw.
    ///
    /// Returns [`Duration::MAX`] when `power` is zero or negative.
    #[must_use]
    pub fn sustains(self, power: Power) -> Duration {
        if power.as_milliwatts() <= 0.0 {
            return Duration::MAX;
        }
        let us = (self.0 / power.as_milliwatts()).max(0.0);
        if us >= Duration::MAX.as_micros() as f64 {
            Duration::MAX
        } else {
            Duration::from_micros(us.floor() as u64)
        }
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nj = self.0.abs();
        if nj >= 1e9 {
            write!(f, "{:.3} J", self.as_joules())
        } else if nj >= 1e6 {
            write!(f, "{:.3} mJ", self.as_millijoules())
        } else if nj >= 1e3 {
            write!(f, "{:.3} uJ", self.as_microjoules())
        } else {
            write!(f, "{:.3} nJ", self.0)
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    /// Dimensionless ratio of two energies.
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

/// A power draw or income, stored in milliwatts.
///
/// # Examples
///
/// ```
/// use neofog_types::{Power, Duration};
///
/// let nvp = Power::from_milliwatts(0.209); // NVP core @ 1 MHz
/// let e = nvp * Duration::from_millis(10);
/// assert!((e.as_microjoules() - 2.09).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from milliwatts.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `mw` is NaN.
    #[must_use]
    pub fn from_milliwatts(mw: f64) -> Self {
        debug_assert!(!mw.is_nan(), "power must not be NaN");
        Power(mw)
    }

    /// Creates a power from microwatts.
    #[must_use]
    pub fn from_microwatts(uw: f64) -> Self {
        Self::from_milliwatts(uw * 1e-3)
    }

    /// Creates a power from watts.
    #[must_use]
    pub fn from_watts(w: f64) -> Self {
        Self::from_milliwatts(w * 1e3)
    }

    /// Returns the power in milliwatts.
    #[must_use]
    pub fn as_milliwatts(self) -> f64 {
        self.0
    }

    /// Returns the power in microwatts.
    #[must_use]
    pub fn as_microwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the power in watts.
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.0 * 1e-3
    }

    /// Clamps negative values to zero.
    #[must_use]
    pub fn max_zero(self) -> Self {
        Power(self.0.max(0.0))
    }

    /// Returns the smaller of two powers.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Power(self.0.min(other.0))
    }

    /// Returns the larger of two powers.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Power(self.0.max(other.0))
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mw = self.0.abs();
        if mw >= 1e3 {
            write!(f, "{:.3} W", self.as_watts())
        } else if mw >= 1.0 {
            write!(f, "{:.3} mW", self.0)
        } else {
            write!(f, "{:.3} uW", self.as_microwatts())
        }
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl SubAssign for Power {
    fn sub_assign(&mut self, rhs: Power) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<Power> for f64 {
    type Output = Power;
    fn mul(self, rhs: Power) -> Power {
        Power(self * rhs.0)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}

impl Div<Power> for Power {
    /// Dimensionless ratio of two powers.
    type Output = f64;
    fn div(self, rhs: Power) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<Duration> for Power {
    type Output = Energy;
    /// Integrates a constant power over a duration: `mW × µs = nJ`.
    fn mul(self, rhs: Duration) -> Energy {
        Energy(self.0 * rhs.as_micros() as f64)
    }
}

impl Mul<Power> for Duration {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

/// A span of simulated time, stored in whole microseconds.
///
/// Every timing constant in the paper (531 ms RF init, 1.74 ms NVRF
/// start, 0.032 ms/byte on air, ...) is an exact number of microseconds,
/// so `u64` microseconds lose nothing.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Duration(u64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The maximum representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Creates a duration from whole minutes.
    #[must_use]
    pub const fn from_mins(m: u64) -> Self {
        Duration(m * 60_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    #[must_use]
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be finite and non-negative"
        );
        Duration((ms * 1_000.0).round() as u64)
    }

    /// Returns the duration in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration in fractional minutes.
    #[must_use]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000_000.0
    }

    /// Returns `true` for the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Duration(v)),
            None => None,
        }
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Duration(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Duration(self.0.max(other.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 60_000_000 {
            write!(f, "{:.2} min", self.as_mins_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else {
            write!(f, "{} us", self.0)
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics in debug builds on underflow, like integer subtraction.
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<Duration> for u64 {
    type Output = Duration;
    fn mul(self, rhs: Duration) -> Duration {
        rhs * self
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    /// Dimensionless ratio (truncating) of two durations.
    type Output = u64;
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

/// An absolute point on the simulation clock, in microseconds since the
/// start of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const START: SimTime = SimTime(0);

    /// Creates a time stamp from microseconds since the epoch.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Duration {
        debug_assert!(earlier.0 <= self.0, "`earlier` must not be after `self`");
        Duration(self.0 - earlier.0)
    }

    /// Saturating elapsed time since another instant (zero if `earlier`
    /// is actually later).
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_duration_is_energy() {
        let e = Power::from_milliwatts(89.1) * Duration::from_micros(32);
        assert!((e.as_nanojoules() - 2851.2).abs() < 1e-9);
    }

    #[test]
    fn energy_unit_conversions_round_trip() {
        let e = Energy::from_millijoules(81.7);
        assert!((e.as_nanojoules() - 81.7e6).abs() < 1e-3);
        assert!((e.as_microjoules() - 81.7e3).abs() < 1e-6);
        assert!((e.as_joules() - 81.7e-3).abs() < 1e-12);
    }

    #[test]
    fn energy_saturating_sub_clamps() {
        let a = Energy::from_nanojoules(5.0);
        let b = Energy::from_nanojoules(7.0);
        assert_eq!(a.saturating_sub(b), Energy::ZERO);
        assert_eq!(b.saturating_sub(a), Energy::from_nanojoules(2.0));
    }

    #[test]
    fn energy_sustains_power() {
        let e = Energy::from_microjoules(1.0); // 1000 nJ
        let p = Power::from_milliwatts(2.0);
        assert_eq!(e.sustains(p), Duration::from_micros(500));
        assert_eq!(e.sustains(Power::ZERO), Duration::MAX);
    }

    #[test]
    fn duration_conversions_are_exact() {
        assert_eq!(Duration::from_millis_f64(1.74).as_micros(), 1740);
        assert_eq!(Duration::from_millis_f64(0.032).as_micros(), 32);
        assert_eq!(Duration::from_millis(531).as_micros(), 531_000);
        assert_eq!(Duration::from_mins(5).as_micros(), 300_000_000);
    }

    #[test]
    fn duration_ordering_and_arithmetic() {
        let a = Duration::from_millis(3);
        let b = Duration::from_millis(5);
        assert!(a < b);
        assert_eq!(a + b, Duration::from_millis(8));
        assert_eq!(b - a, Duration::from_millis(2));
        assert_eq!(b.saturating_sub(a + b), Duration::ZERO);
        assert_eq!(b / a, 1);
        assert_eq!((b * 4) / 2, Duration::from_millis(10));
    }

    #[test]
    fn simtime_advances() {
        let t0 = SimTime::START;
        let t1 = t0 + Duration::from_secs(2);
        assert_eq!(t1.since(t0), Duration::from_secs(2));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
    }

    #[test]
    fn display_picks_sane_scales() {
        assert_eq!(format!("{}", Energy::from_nanojoules(42.0)), "42.000 nJ");
        assert_eq!(format!("{}", Energy::from_millijoules(1.5)), "1.500 mJ");
        assert_eq!(format!("{}", Power::from_milliwatts(89.1)), "89.100 mW");
        assert_eq!(format!("{}", Power::from_microwatts(209.0)), "209.000 uW");
        assert_eq!(format!("{}", Duration::from_millis(531)), "531.000 ms");
        assert_eq!(format!("{}", Duration::from_mins(15)), "15.00 min");
    }

    #[test]
    fn sums_work() {
        let total: Energy = (0..4).map(|i| Energy::from_nanojoules(f64::from(i))).sum();
        assert_eq!(total, Energy::from_nanojoules(6.0));
        let d: Duration = (1..=3).map(Duration::from_micros).sum();
        assert_eq!(d, Duration::from_micros(6));
    }
}
