//! Heartbeat pattern matching.
//!
//! The pattern-matching application (Table 2's most compute-heavy row,
//! 59.5 % compute share even under the naive strategy) scans buffered
//! ECG samples for a template beat. We implement normalized
//! cross-correlation (NCC), the standard template matcher: robust to
//! gain and offset differences between the stored template and the
//! live signal.

#![expect(
    clippy::indexing_slicing,
    reason = "sliding-window matcher; window bounded by input length"
)]

use serde::{Deserialize, Serialize};

/// One detected template occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Match {
    /// Start index of the match in the signal.
    pub index: usize,
    /// NCC score in `[-1, 1]`.
    pub score: f64,
}

/// Normalized cross-correlation of `template` against `signal` at
/// every offset. Output length is `signal.len() - template.len() + 1`
/// (empty when the template is longer than the signal or empty).
#[must_use]
pub fn ncc(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let m = template.len();
    if m == 0 || signal.len() < m {
        return Vec::new();
    }
    let t_mean = template.iter().sum::<f64>() / m as f64;
    let t_dev: Vec<f64> = template.iter().map(|x| x - t_mean).collect();
    let t_norm = t_dev.iter().map(|x| x * x).sum::<f64>().sqrt();
    (0..=signal.len() - m)
        .map(|i| {
            let window = &signal[i..i + m];
            let w_mean = window.iter().sum::<f64>() / m as f64;
            let mut dot = 0.0;
            let mut w_sq = 0.0;
            for (w, t) in window.iter().zip(&t_dev) {
                let wd = w - w_mean;
                dot += wd * t;
                w_sq += wd * wd;
            }
            let denom = t_norm * w_sq.sqrt();
            if denom < f64::EPSILON {
                0.0
            } else {
                dot / denom
            }
        })
        .collect()
}

/// Finds non-overlapping template matches with NCC score ≥ `threshold`,
/// greedily keeping the best-scoring candidates first.
#[must_use]
pub fn find_matches(signal: &[f64], template: &[f64], threshold: f64) -> Vec<Match> {
    let scores = ncc(signal, template);
    let mut candidates: Vec<Match> = scores
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s >= threshold)
        .map(|(index, &score)| Match { index, score })
        .collect();
    candidates.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut taken: Vec<Match> = Vec::new();
    let m = template.len();
    for c in candidates {
        if taken
            .iter()
            .all(|t| c.index + m <= t.index || t.index + m <= c.index)
        {
            taken.push(c);
        }
    }
    taken.sort_by_key(|m| m.index);
    taken
}

/// Converts raw `u8` sensor bytes to centered `f64` samples.
#[must_use]
pub fn bytes_to_signal(bytes: &[u8]) -> Vec<f64> {
    bytes.iter().map(|&b| f64::from(b) - 128.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> Vec<f64> {
        // A QRS-like up-down spike.
        vec![0.0, 2.0, 6.0, 9.0, 6.0, 2.0, 0.0, -2.0, -1.0, 0.0]
    }

    fn signal_with_beats(at: &[usize], len: usize) -> Vec<f64> {
        let mut s = vec![0.0; len];
        for &start in at {
            for (i, &v) in template().iter().enumerate() {
                s[start + i] += v;
            }
        }
        s
    }

    #[test]
    fn perfect_match_scores_one() {
        let t = template();
        let scores = ncc(&t, &t);
        assert_eq!(scores.len(), 1);
        assert!((scores[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invariant_to_gain_and_offset() {
        let t = template();
        let scaled: Vec<f64> = t.iter().map(|x| 3.0 * x + 50.0).collect();
        let scores = ncc(&scaled, &t);
        assert!((scores[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finds_all_planted_beats() {
        let beats = [5, 40, 120, 300];
        let s = signal_with_beats(&beats, 400);
        let found = find_matches(&s, &template(), 0.95);
        let idx: Vec<usize> = found.iter().map(|m| m.index).collect();
        assert_eq!(idx, beats.to_vec());
    }

    #[test]
    fn matches_do_not_overlap() {
        let s = signal_with_beats(&[50], 100);
        let found = find_matches(&s, &template(), 0.5);
        for w in found.windows(2) {
            assert!(w[1].index >= w[0].index + template().len());
        }
    }

    #[test]
    fn noise_does_not_fake_matches() {
        // Structured pseudo-noise with no QRS shape.
        let s: Vec<f64> = (0..500)
            .map(|i| ((i * 2654435761usize) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let found = find_matches(&s, &template(), 0.97);
        assert!(found.is_empty(), "found {found:?}");
    }

    #[test]
    fn flat_window_scores_zero() {
        let s = vec![5.0; 30];
        let scores = ncc(&s, &template());
        for v in scores {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(ncc(&[1.0, 2.0], &[1.0, 2.0, 3.0]).is_empty());
        assert!(ncc(&[], &[1.0]).is_empty());
        assert!(ncc(&[1.0], &[]).is_empty());
        assert!(find_matches(&[], &template(), 0.9).is_empty());
    }

    #[test]
    fn bytes_conversion_centers() {
        let s = bytes_to_signal(&[128, 138, 118]);
        assert_eq!(s, vec![0.0, 10.0, -10.0]);
    }

    #[test]
    fn works_on_synthetic_ecg() {
        use neofog_sensors::{SensorKind, SignalGenerator};
        let mut gen = SignalGenerator::new(SensorKind::EcgFrontend, 2);
        let raw = gen.generate(2000);
        let signal = bytes_to_signal(&raw);
        // Template: the beat shape the generator embeds every 200
        // samples — QRS spike, T wave, then baseline. A long template
        // is needed because NCC is gain-invariant, so a bare half-sine
        // would also match the (smaller) T wave.
        let template: Vec<f64> = (0..60)
            .map(|t| {
                let t = t as f64;
                if t < 6.0 {
                    100.0 * (std::f64::consts::PI * t / 6.0).sin()
                } else if t < 40.0 {
                    15.0 * (std::f64::consts::PI * (t - 6.0) / 34.0).sin()
                } else {
                    0.0
                }
            })
            .collect();
        let found = find_matches(&signal, &template, 0.8);
        // 2000 samples at one beat per 200 → about 10 beats.
        assert!(
            (8..=12).contains(&found.len()),
            "found {} beats",
            found.len()
        );
    }
}
