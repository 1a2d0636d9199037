//! Small statistics and hashing helpers.

/// Median of `values` (mean of the middle two for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `values`, reported only
/// when at least [`MIN_BEYOND`] samples lie beyond it; with fewer the
/// tail is too thin to mean anything and `None` is returned.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Streaming 64-bit FNV-1a, the hash the simulator's goldens use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes the `Debug` rendering of `value`: Rust prints floats in
    /// their shortest round-trip form, so equal renderings mean
    /// bit-equal values.
    pub fn debug<T: std::fmt::Debug + ?Sized>(&mut self, value: &T) {
        self.bytes(format!("{value:?}").as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // 90 of 100: exactly ten samples (91..=100) lie beyond.
        assert_eq!(percentile(&values, 0.9), Some(90.0));
        // 95 of 100: only five beyond, so the tail is too thin.
        assert_eq!(percentile(&values, 0.95), None);
        // 99 samples: p90 is rank 90 with nine beyond.
        assert_eq!(percentile(&values[..99], 0.9), None);
        // The median of 21 samples has ten beyond it.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.5), Some(11.0));
        assert_eq!(percentile(&small[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
