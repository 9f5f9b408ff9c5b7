//! Order statistics over run and rep samples.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive", which
/// the benchmark's acceptance rule uses). A single sample is its own
/// quartiles; no samples give zeros.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => (0.0, 0.0),
        1 => (values[0], values[0]),
        _ => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The `q`-quantile as the rank-`ceil(q * n)` sample (nearest rank);
/// 0 for no samples.
pub fn nearest_rank(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let mut values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&mut [5.0, 1.0]), (0.0, 6.0));
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [2.0, 9.0, 1.0]), 2.0);
        let mut values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&mut values, 0.5), 100.0);
        assert_eq!(nearest_rank(&mut values, 0.99), 198.0);
    }
}
