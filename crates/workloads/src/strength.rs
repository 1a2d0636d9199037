//! Bridge-cable structural strength models.
//!
//! The fog-offloaded bridge pipeline (§3.1) computes cable strength "in
//! three different bridge structure-specialized models" from the
//! vibration spectrum, then applies "temperature and humidity
//! compensation of each model's results" and averages. Cable tension
//! relates to vibration through the taut-string law
//! `T = 4·m·L²·f₁²` (fundamental frequency method, cf. Cerda et al.;
//! Yao & Pakzad), which all three models estimate differently:
//!
//! 1. [`fundamental_frequency_model`] — tension from the dominant
//!    spectral peak.
//! 2. [`harmonic_ratio_model`] — tension from the spacing of the first
//!    harmonics (robust when the fundamental is buried).
//! 3. [`spectral_energy_model`] — RMS-band-energy health index
//!    (detects loosening as energy migrating to low frequencies).

#![expect(
    clippy::indexing_slicing,
    reason = "structural-model kernel; stencil indices bounded by the mesh size"
)]

use crate::fft::{dominant_bin, magnitude_spectrum};
use serde::{Deserialize, Serialize};

/// Physical description of one monitored cable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CableSpec {
    /// Cable length in meters.
    pub length_m: f64,
    /// Linear mass density in kg/m.
    pub mass_kg_per_m: f64,
    /// Vibration sampling rate in Hz.
    pub sample_rate_hz: f64,
}

impl CableSpec {
    /// A mid-span stay cable typical of the instrumented bridges.
    #[must_use]
    pub fn typical() -> Self {
        CableSpec {
            length_m: 100.0,
            mass_kg_per_m: 60.0,
            sample_rate_hz: 64.0,
        }
    }

    /// Tension (newtons) implied by a fundamental frequency via the
    /// taut-string law `T = 4·m·L²·f₁²`.
    #[must_use]
    pub fn tension_from_fundamental(&self, f1_hz: f64) -> f64 {
        4.0 * self.mass_kg_per_m * self.length_m.powi(2) * f1_hz.powi(2)
    }
}

/// Environmental reading used for model compensation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Ambient temperature in °C.
    pub temperature_c: f64,
    /// Relative humidity in `[0, 1]`.
    pub humidity: f64,
}

impl Environment {
    /// Reference conditions (20 °C, 50 % RH): compensation factor 1.
    #[must_use]
    pub fn reference() -> Self {
        Environment {
            temperature_c: 20.0,
            humidity: 0.5,
        }
    }

    /// Multiplicative compensation: steel modulus drops ~0.02 %/°C and
    /// apparent frequency shifts slightly with humidity-loaded mass.
    #[must_use]
    pub fn compensation(&self) -> f64 {
        let temp = 1.0 + 2e-4 * (self.temperature_c - 20.0);
        let hum = 1.0 - 0.01 * (self.humidity - 0.5);
        temp * hum
    }
}

/// Model 1: tension from the dominant spectral peak.
#[must_use]
pub fn fundamental_frequency_model(vibration: &[f64], cable: &CableSpec) -> f64 {
    let spec = magnitude_spectrum(vibration);
    let bin = dominant_bin(&spec);
    let f1 = bin as f64 * cable.sample_rate_hz / vibration.len() as f64;
    cable.tension_from_fundamental(f1)
}

/// Model 2: tension from harmonic spacing. Finds the strongest two
/// spectral peaks and uses their spacing as the fundamental (harmonics
/// of a taut string are integer multiples of `f₁`).
#[must_use]
pub fn harmonic_ratio_model(vibration: &[f64], cable: &CableSpec) -> f64 {
    let spec = magnitude_spectrum(vibration);
    // Local maxima above the mean, skipping DC.
    let mean = spec.iter().sum::<f64>() / spec.len().max(1) as f64;
    let mut peaks: Vec<(usize, f64)> = (1..spec.len().saturating_sub(1))
        .filter(|&i| spec[i] > spec[i - 1] && spec[i] >= spec[i + 1] && spec[i] > mean)
        .map(|i| (i, spec[i]))
        .collect();
    peaks.sort_by(|a, b| b.1.total_cmp(&a.1));
    let f1_bins = match (peaks.first(), peaks.get(1)) {
        (Some(&(a, _)), Some(&(b, _))) => a.abs_diff(b).max(1),
        (Some(&(a, _)), None) => a,
        _ => return 0.0,
    };
    let f1 = f1_bins as f64 * cable.sample_rate_hz / vibration.len() as f64;
    cable.tension_from_fundamental(f1)
}

/// Model 3: spectral-energy health index in `[0, 1]`: share of signal
/// energy above one quarter of the Nyquist band. A taut cable vibrates
/// fast; migration of energy to low bins signals loosening.
#[must_use]
pub fn spectral_energy_model(vibration: &[f64]) -> f64 {
    let spec = magnitude_spectrum(vibration);
    if spec.len() < 4 {
        return 0.0;
    }
    let split = spec.len() / 4;
    let total: f64 = spec.iter().skip(1).map(|m| m * m).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let high: f64 = spec.iter().skip(split).map(|m| m * m).sum();
    high / total
}

/// The combined assessment the node transmits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrengthReport {
    /// Model 1 tension (N), compensated.
    pub tension_fundamental: f64,
    /// Model 2 tension (N), compensated.
    pub tension_harmonic: f64,
    /// Model 3 health index in `[0, 1]`.
    pub energy_index: f64,
    /// Average of the two tension estimates (N).
    pub mean_tension: f64,
}

/// Runs all three models with environmental compensation and averages
/// — the full §3.1 strength step on one vibration batch.
#[must_use]
pub fn assess_strength(vibration: &[f64], cable: &CableSpec, env: &Environment) -> StrengthReport {
    let comp = env.compensation();
    let t1 = fundamental_frequency_model(vibration, cable) * comp;
    let t2 = harmonic_ratio_model(vibration, cable) * comp;
    let idx = spectral_energy_model(vibration);
    StrengthReport {
        tension_fundamental: t1,
        tension_harmonic: t2,
        energy_index: idx,
        mean_tension: 0.5 * (t1 + t2),
    }
}

/// Combines 3-axis acceleration into the cable-vertical direction
/// (§3.1 "combination of 3-direction acceleration into one
/// cable-vertical direction vibration") given a unit direction vector.
#[must_use]
pub fn combine_axes(samples: &[[f64; 3]], direction: [f64; 3]) -> Vec<f64> {
    let norm = (direction[0].powi(2) + direction[1].powi(2) + direction[2].powi(2)).sqrt();
    let d = if norm > 0.0 {
        [
            direction[0] / norm,
            direction[1] / norm,
            direction[2] / norm,
        ]
    } else {
        [0.0, 0.0, 1.0]
    };
    samples
        .iter()
        .map(|s| s[0] * d[0] + s[1] * d[1] + s[2] * d[2])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, k: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * k as f64 * i as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn fundamental_model_recovers_known_tension() {
        let cable = CableSpec::typical();
        let n = 512;
        // Bin 16 at 64 Hz over 512 samples = 2 Hz fundamental.
        let v = sine(n, 16);
        let t = fundamental_frequency_model(&v, &cable);
        let expect = cable.tension_from_fundamental(2.0);
        assert!((t - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn harmonic_model_uses_peak_spacing() {
        let cable = CableSpec::typical();
        let n = 512;
        // Harmonics at bins 16 and 32 (f1 and 2*f1).
        let v: Vec<f64> = sine(n, 16)
            .iter()
            .zip(sine(n, 32))
            .map(|(a, b)| a + 0.8 * b)
            .collect();
        let t = harmonic_ratio_model(&v, &cable);
        let expect = cable.tension_from_fundamental(2.0);
        assert!((t - expect).abs() / expect < 1e-6, "t={t} expect={expect}");
    }

    #[test]
    fn tighter_cable_reads_higher_tension() {
        let cable = CableSpec::typical();
        let slack = fundamental_frequency_model(&sine(512, 8), &cable);
        let taut = fundamental_frequency_model(&sine(512, 24), &cable);
        assert!(taut > slack * 5.0);
    }

    #[test]
    fn energy_index_tracks_band_migration() {
        let low = spectral_energy_model(&sine(512, 4)); // low-frequency
        let high = spectral_energy_model(&sine(512, 200)); // high-frequency
        assert!(low < 0.1, "low {low}");
        assert!(high > 0.9, "high {high}");
    }

    #[test]
    fn compensation_shifts_results() {
        let cable = CableSpec::typical();
        let v = sine(512, 16);
        let cold = assess_strength(
            &v,
            &cable,
            &Environment {
                temperature_c: -10.0,
                humidity: 0.5,
            },
        );
        let hot = assess_strength(
            &v,
            &cable,
            &Environment {
                temperature_c: 45.0,
                humidity: 0.5,
            },
        );
        assert!(hot.mean_tension > cold.mean_tension);
        let reference = assess_strength(&v, &cable, &Environment::reference());
        assert!(
            (reference.mean_tension
                - 0.5 * (reference.tension_fundamental + reference.tension_harmonic))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn reference_compensation_is_unity() {
        assert!((Environment::reference().compensation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn combine_axes_projects() {
        let samples = vec![[1.0, 2.0, 3.0], [0.0, 0.0, 5.0]];
        let v = combine_axes(&samples, [0.0, 0.0, 2.0]); // normalized to z
        assert_eq!(v, vec![3.0, 5.0]);
        // Degenerate direction falls back to z.
        let w = combine_axes(&samples, [0.0, 0.0, 0.0]);
        assert_eq!(w, vec![3.0, 5.0]);
    }

    #[test]
    fn silent_cable_yields_zero_index() {
        let v = vec![0.0; 256];
        assert_eq!(spectral_energy_model(&v), 0.0);
    }
}
