//! Noise-removal filters for the in-fog pipelines.
//!
//! The bridge-health pipeline performs "noise removal" before the FFT
//! and "temperature and humidity noise removal" on the model outputs
//! (§3.1). Three standard small-footprint filters are provided.

#![expect(
    clippy::indexing_slicing,
    reason = "spectral-band kernel over self-allocated series"
)]

/// Centered moving-average filter of odd `window` size.
///
/// Edges use a shrunken window so the output has the input's length.
///
/// # Panics
///
/// Panics if `window` is even or zero.
#[must_use]
pub fn moving_average(signal: &[f64], window: usize) -> Vec<f64> {
    assert!(window % 2 == 1, "window must be odd");
    let half = window / 2;
    (0..signal.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(signal.len());
            signal[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Centered median filter of odd `window` size (robust to impulse
/// noise/outliers).
///
/// # Panics
///
/// Panics if `window` is even or zero.
#[must_use]
pub fn median_filter(signal: &[f64], window: usize) -> Vec<f64> {
    assert!(window % 2 == 1, "window must be odd");
    let half = window / 2;
    (0..signal.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(signal.len());
            let mut w: Vec<f64> = signal[lo..hi].to_vec();
            w.sort_by(f64::total_cmp);
            w[w.len() / 2]
        })
        .collect()
}

/// First-order exponential smoothing with factor `alpha` in `(0, 1]`.
///
/// # Panics
///
/// Panics if `alpha` is outside `(0, 1]`.
#[must_use]
pub fn exponential_smooth(signal: &[f64], alpha: f64) -> Vec<f64> {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    let mut out = Vec::with_capacity(signal.len());
    let Some(&first) = signal.first() else {
        return out;
    };
    let mut state = first;
    for &x in signal {
        state = alpha * x + (1.0 - alpha) * state;
        out.push(state);
    }
    out
}

/// Removes a linear environmental trend (temperature/humidity drift)
/// estimated by least squares, returning the detrended signal.
#[must_use]
pub fn detrend(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    if n < 2 {
        return signal.to_vec();
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = signal.iter().sum::<f64>() / nf;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in signal.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    let slope = if den.abs() < f64::EPSILON {
        0.0
    } else {
        num / den
    };
    signal
        .iter()
        .enumerate()
        .map(|(i, &y)| y - (mean_y + slope * (i as f64 - mean_x)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variance(s: &[f64]) -> f64 {
        let m = s.iter().sum::<f64>() / s.len() as f64;
        s.iter().map(|x| (x - m).powi(2)).sum::<f64>() / s.len() as f64
    }

    #[test]
    fn moving_average_reduces_noise_variance() {
        let noisy: Vec<f64> = (0..500)
            .map(|i| ((i * 2654435761u64 as usize) % 97) as f64 / 97.0 - 0.5)
            .collect();
        let smooth = moving_average(&noisy, 9);
        assert!(variance(&smooth) < variance(&noisy) / 3.0);
        assert_eq!(smooth.len(), noisy.len());
    }

    #[test]
    fn moving_average_preserves_constant() {
        let s = vec![4.2; 20];
        let out = moving_average(&s, 5);
        for v in out {
            assert!((v - 4.2).abs() < 1e-12);
        }
    }

    #[test]
    fn median_kills_impulses() {
        let mut s = vec![1.0; 50];
        s[20] = 1000.0; // impulse
        let out = median_filter(&s, 5);
        assert!((out[20] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_preserves_steps_better_than_mean() {
        let mut s = vec![0.0; 20];
        for v in s.iter_mut().skip(10) {
            *v = 10.0;
        }
        let med = median_filter(&s, 5);
        // The step edge stays sharp under the median.
        assert_eq!(med[9], 0.0);
        assert_eq!(med[11], 10.0);
    }

    #[test]
    fn exponential_smooth_tracks_mean() {
        let s = vec![2.0; 100];
        let out = exponential_smooth(&s, 0.3);
        assert!((out[99] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn detrend_removes_linear_ramp() {
        let s: Vec<f64> = (0..100).map(|i| 3.0 + 0.5 * i as f64).collect();
        let out = detrend(&s);
        for v in &out {
            assert!(v.abs() < 1e-9, "residual {v}");
        }
    }

    #[test]
    fn detrend_keeps_oscillation() {
        let s: Vec<f64> = (0..128)
            .map(|i| 0.1 * i as f64 + (i as f64 * 0.7).sin())
            .collect();
        let out = detrend(&s);
        // Trend gone, sine variance retained.
        assert!(variance(&out) > 0.3);
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        assert!(mean.abs() < 1e-9);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(moving_average(&[], 3).is_empty());
        assert!(median_filter(&[], 3).is_empty());
        assert!(exponential_smooth(&[], 0.5).is_empty());
        assert_eq!(detrend(&[7.0]), vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "window must be odd")]
    fn even_window_rejected() {
        let _ = moving_average(&[1.0, 2.0], 4);
    }
}
