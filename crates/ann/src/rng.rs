//! Deterministic PRNG (SplitMix64), so that weight initialisation,
//! shuffling, and bootstrap resampling are bit-reproducible without an
//! external generator dependency.

/// The crate's generator, public so the reference engine in `hetero-oracles` draws the same stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[-limit, limit]`.
    pub fn next_symmetric(&mut self, limit: f64) -> f64 {
        (self.next_f64() * 2.0 - 1.0) * limit
    }

    /// Fisher–Yates shuffle of index vector `0..n`.
    #[inline]
    pub fn shuffled_indices(&mut self, n: usize) -> Vec<usize> {
        let mut indices = Vec::new();
        self.shuffled_indices_into(n, &mut indices);
        indices
    }

    /// [`shuffled_indices`](Self::shuffled_indices) into a reused buffer —
    /// identical RNG draws, identical permutation, no allocation once the
    /// buffer has grown to `n`.
    pub fn shuffled_indices_into(&mut self, n: usize, indices: &mut Vec<usize>) {
        indices.clear();
        indices.extend(0..n);
        for i in (1..n).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            indices.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(3);
        let mut shuffled = rng.shuffled_indices(100);
        shuffled.sort_unstable();
        assert_eq!(shuffled, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_into_matches_allocating_shuffle() {
        let mut a = SplitMix64::new(17);
        let mut b = SplitMix64::new(17);
        let mut buf = vec![999; 3]; // stale contents must not leak through
        for n in [0, 1, 2, 7, 64] {
            b.shuffled_indices_into(n, &mut buf);
            assert_eq!(a.shuffled_indices(n), buf, "n={n}");
        }
    }

    #[test]
    fn symmetric_values_within_limit() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = rng.next_symmetric(0.5);
            assert!(v.abs() <= 0.5);
        }
    }
}
