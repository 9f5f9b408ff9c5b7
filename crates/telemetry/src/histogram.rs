//! Log-linear histogram with bounded relative error.
//!
//! The bucket layout is the HDR-histogram scheme: values below
//! `2 * SUB_BUCKETS` land in unit-width buckets (exact); every further
//! power-of-two magnitude range is split into [`SUB_BUCKETS`] linear
//! sub-buckets, so the width of any bucket never exceeds `1/SUB_BUCKETS`
//! of the values it holds. Quantile queries return the *upper bound* of
//! the bucket containing the requested rank, which yields the two-sided
//! guarantee
//!
//! ```text
//! true_quantile <= quantile(q) <= true_quantile * (1 + 1/SUB_BUCKETS)
//! ```
//!
//! property-tested in `tests/properties.rs`. The bucket array is a fixed
//! 1 920-slot table covering the full `u64` range, allocated once at
//! construction — recording and merging never allocate, and merge is a
//! plain element-wise add (associative and commutative by construction).

/// log2 of the sub-bucket count: 32 linear sub-buckets per power of two.
const SUB_BITS: u32 = 5;

/// Linear sub-buckets per power-of-two range; the relative-error bound is
/// `1 / SUB_BUCKETS` (~3.1 %).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Unit-width buckets covering `[0, 2 * SUB_BUCKETS)` exactly.
const EXACT: u64 = 2 * SUB_BUCKETS;

/// Total table size: 64 exact slots plus 32 slots for each of the 57
/// remaining power-of-two ranges of a `u64`.
const NUM_BUCKETS: usize = (EXACT + (63 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// Bucket index for a value (monotone in the value).
#[inline]
fn index_for(value: u64) -> usize {
    if value < EXACT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (value >> shift) - SUB_BUCKETS;
    (EXACT + u64::from(shift - 1) * SUB_BUCKETS + sub) as usize
}

/// Largest value mapping to bucket `index` (the quantile estimate).
#[inline]
fn upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < EXACT {
        return index;
    }
    let shift = ((index - EXACT) / SUB_BUCKETS + 1) as u32;
    let sub = (index - EXACT) % SUB_BUCKETS;
    ((SUB_BUCKETS + sub + 1) << shift).wrapping_sub(1)
}

/// A mergeable log-linear histogram of `u64` observations.
///
/// ```
/// use hetero_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [3, 5, 5, 900, 40_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 3);
/// assert_eq!(h.quantile(0.5), 5);
/// // Estimates never undershoot and overshoot by at most ~3.1 %.
/// let p99 = h.quantile(0.99);
/// assert!(p99 >= 40_000 && p99 <= 40_000 + 40_000 / 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. The only allocation this type ever performs.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; NUM_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Forget every observation (the bucket table is reused in place).
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[index_for(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a non-negative float rounded to the nearest integer
    /// (negative and non-finite values clamp to zero). Used for energy
    /// observations in nanojoules, where sub-nJ resolution is noise.
    #[inline]
    pub fn record_f64(&mut self, value: f64) {
        let rounded = if value.is_finite() && value > 0.0 {
            // u64::MAX as f64 rounds up; anything at or above saturates.
            if value >= u64::MAX as f64 {
                u64::MAX
            } else {
                value.round() as u64
            }
        } else {
            0
        };
        self.record(rounded);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q * count)` observation; 0 when empty.
    ///
    /// Never undershoots the true quantile and overshoots by at most
    /// `1/SUB_BUCKETS` of it (values below `2 * SUB_BUCKETS` are exact).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The max is exact; never report past it.
                return upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one (element-wise bucket add;
    /// associative and commutative, no precision loss).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs, in
    /// increasing value order — the shape Prometheus histogram exposition
    /// wants (`le` buckets are cumulative).
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .scan(0u64, |acc, (index, &n)| {
                *acc += n;
                Some((upper_bound(index), *acc))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_monotone_and_self_consistent() {
        let mut last = 0usize;
        for value in 0..100_000u64 {
            let index = index_for(value);
            assert!(index >= last, "{value}: monotone");
            last = index;
            assert!(upper_bound(index) >= value, "{value}: upper bound");
        }
        for value in [1u64 << 40, u64::MAX / 2, u64::MAX] {
            let index = index_for(value);
            assert!(index < NUM_BUCKETS, "{value}: in table");
            assert!(upper_bound(index) >= value, "{value}: upper bound");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..EXACT {
            h.record(v);
        }
        for v in 0..EXACT {
            let q = (v + 1) as f64 / EXACT as f64;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn quantile_bounds_hold_on_a_known_stream() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| i * i + 7).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = h.quantile(q);
            assert!(est >= truth, "q={q}: {est} < {truth}");
            assert!(
                (est - truth).saturating_mul(SUB_BUCKETS) <= truth,
                "q={q}: {est} overshoots {truth}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 50, 50, 4_000, 123_456, 1 << 50] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 2, 99, 7_777_777] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn record_f64_clamps_and_rounds() {
        let mut h = Histogram::new();
        h.record_f64(-3.0);
        h.record_f64(f64::NAN);
        h.record_f64(2.6);
        h.record_f64(1e300);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.75), 3);
    }

    #[test]
    fn reset_restores_the_empty_state() {
        let mut h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h, Histogram::new());
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn cumulative_buckets_end_at_the_total_count() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 80, 80, 80, 100_000] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.cumulative_buckets().collect();
        assert_eq!(buckets.first().unwrap(), &(5, 2));
        assert_eq!(buckets.last().unwrap().1, h.count());
        assert!(buckets
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
    }
}
