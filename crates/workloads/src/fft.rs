//! Radix-2 fast Fourier transform.
//!
//! The bridge-health fog pipeline performs an FFT on the buffered
//! vibration batch before applying the structural strength models
//! (§3.1). This is a dependency-free iterative radix-2 implementation
//! adequate for the power-of-two batch sizes the NV buffer produces.

#![expect(
    clippy::indexing_slicing,
    reason = "radix-2 FFT butterflies; indices bounded by the power-of-two length"
)]

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Sub};

/// A complex number (f64 re/im).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The magnitude `|z|`.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

/// In-place iterative radix-2 FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT (includes the 1/N normalization).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for z in data.iter_mut() {
        z.re /= n;
        z.im /= n;
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// FFT of a real signal, returning complex spectrum of the same length.
#[must_use]
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft(&mut data);
    data
}

/// One-sided magnitude spectrum of a real signal (bins `0..=n/2`).
#[must_use]
pub fn magnitude_spectrum(signal: &[f64]) -> Vec<f64> {
    let spec = fft_real(signal);
    let n = spec.len();
    spec.iter().take(n / 2 + 1).map(|z| z.abs()).collect()
}

/// Index of the dominant non-DC bin in a one-sided spectrum.
#[must_use]
pub fn dominant_bin(spectrum: &[f64]) -> usize {
    spectrum
        .iter()
        .enumerate()
        .skip(1)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut d = vec![Complex::default(); 8];
        d[0] = Complex::new(1.0, 0.0);
        fft(&mut d);
        for z in &d {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sine_concentrates_in_one_bin() {
        let n = 256;
        let k = 10;
        let signal: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * k as f64 * i as f64 / n as f64).sin())
            .collect();
        let spec = magnitude_spectrum(&signal);
        assert_eq!(dominant_bin(&spec), k);
        assert!((spec[k] - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn fft_ifft_round_trips() {
        let n = 128;
        let orig: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut d = orig.clone();
        fft(&mut d);
        ifft(&mut d);
        for (a, b) in orig.iter().zip(&d) {
            assert!((a.re - b.re).abs() < 1e-10);
            assert!((a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 64;
        let signal: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal);
        let freq_energy: f64 = spec.iter().map(|z| z.abs().powi(2)).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fa = fft_real(&a);
        let fb = fft_real(&b);
        let fs = fft_real(&sum);
        for i in 0..n {
            let expect = fa[i] + fb[i];
            assert!((fs[i].re - expect.re).abs() < 1e-10);
            assert!((fs[i].im - expect.im).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut d = vec![Complex::default(); 12];
        fft(&mut d);
    }

    #[test]
    fn tiny_inputs_are_fine() {
        let mut one = vec![Complex::new(3.0, 0.0)];
        fft(&mut one);
        assert_eq!(one[0], Complex::new(3.0, 0.0));
        let mut two = vec![Complex::new(1.0, 0.0), Complex::new(2.0, 0.0)];
        fft(&mut two);
        assert!((two[0].re - 3.0).abs() < 1e-12);
        assert!((two[1].re + 1.0).abs() < 1e-12);
    }
}
