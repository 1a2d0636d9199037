//! A small deterministic PRNG for reproducible simulations.
//!
//! The system simulator spawns thousands of node models, each of which
//! needs an independent stream of randomness (power variance, packet
//! loss, trace segment shuffling). [`SimRng`] is an xoshiro256++ engine
//! seeded through SplitMix64, the standard recipe; it is *not*
//! cryptographically secure and must never be used for secrets.
//!
//! # Examples
//!
//! ```
//! use neofog_types::SimRng;
//!
//! let mut rng = SimRng::seed_from(42);
//! let a = rng.next_f64();
//! assert!((0.0..1.0).contains(&a));
//!
//! // Forked streams are independent but reproducible.
//! let mut fork = rng.fork(7);
//! let _ = fork.range_u64(10);
//! ```

/// Deterministic xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        // Avoid the all-zero state, which xoshiro cannot escape.
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        SimRng { state }
    }

    /// Derives an independent child generator. Calling `fork` with
    /// different `stream` values on clones of the same parent yields
    /// decorrelated streams; the parent is advanced once.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from(base ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Returns the next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.state;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(bound);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(bound);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform index in `[0, len)`, convenient for slices.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.range_u64(len as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform range must be ordered");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Returns a standard normal sample (Box–Muller transform).
    pub fn gaussian(&mut self) -> f64 {
        // Reject u1 == 0 so ln is finite.
        let mut u1 = self.next_f64();
        while u1 <= f64::EPSILON {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns a normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a slice.
    ///
    /// Returns `None` for an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            items.get(self.index(items.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bound() {
        let mut rng = SimRng::seed_from(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.range_u64(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn uniform_mean_is_centred() {
        let mut rng = SimRng::seed_from(99);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.uniform(-1.0, 1.0)).sum::<f64>() / f64::from(n);
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = SimRng::seed_from(31);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(4);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut parent = SimRng::seed_from(5);
        let mut f1 = parent.fork(1);
        let mut f2 = parent.fork(2);
        let equal = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn pick_and_chance_edge_cases() {
        let mut rng = SimRng::seed_from(8);
        let empty: [u8; 0] = [];
        assert!(rng.pick(&empty).is_none());
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
