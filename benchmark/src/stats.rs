//! Order statistics: exact percentiles over kept samples, the
//! tail-percentile rule, and the quartiles the A/A study reports.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, nearest-rank:
/// the smallest sample with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p90, p99, p99.9, … that still has at least ten samples
/// beyond it among `n`; `None` below 100 samples, where only the median is
/// reported.
pub fn tail_quantile(n: usize) -> Option<f64> {
    let mut best = None;
    let mut beyond = 0.1;
    while n as f64 * beyond >= 10.0 {
        best = Some(1.0 - beyond);
        beyond /= 10.0;
    }
    best
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        let q = tail_quantile(10_000).unwrap();
        assert!((q - 0.999).abs() < 1e-12);
        let q = tail_quantile(560_000).unwrap();
        assert!((q - 0.9999).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
    }
}
