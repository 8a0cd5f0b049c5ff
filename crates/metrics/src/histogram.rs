//! Fixed-bucket histograms for response-time distributions.
//!
//! A histogram keeps the whole distribution at O(buckets) memory — the
//! right shape for experiment summaries like "p95 response time per
//! policy".

use serde::{Deserialize, Serialize};

/// A histogram over `[0, +∞)` with exponentially growing bucket bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing; a final
    /// implicit bucket catches everything larger.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with exponential bounds `first · growth^i`,
    /// e.g. `exponential(0.001, 2.0, 24)` spans 1 ms to ~4.6 h.
    ///
    /// # Panics
    ///
    /// Panics when `first ≤ 0`, `growth ≤ 1`, or `buckets == 0`.
    pub fn exponential(first: f64, growth: f64, buckets: usize) -> Self {
        assert!(first > 0.0, "first bound must be positive");
        assert!(growth > 1.0, "growth must exceed 1");
        assert!(buckets > 0, "need at least one bucket");
        let mut bounds = Vec::with_capacity(buckets);
        let mut b = first;
        for _ in 0..buckets {
            bounds.push(b);
            b *= growth;
        }
        let n = bounds.len() + 1; // + overflow bucket
        Histogram { bounds, counts: vec![0; n], total: 0, sum: 0.0, max: 0.0 }
    }

    /// A default layout for seconds-scale response times: 1 ms … ~17 min.
    pub fn for_response_times() -> Self {
        Self::exponential(0.001, 2.0, 20)
    }

    /// Records one observation (negative values clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of all observations.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum / self.total as f64)
        }
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// The `q`-quantile's bucket upper bound (an upper estimate of the
    /// true quantile; the overflow bucket reports the observed max).
    pub fn quantile_bound(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i < self.bounds.len() { self.bounds[i] } else { self.max });
            }
        }
        Some(self.max)
    }

    /// `(upper_bound, count)` pairs for the non-empty buckets, the last
    /// entry using the observed max for the overflow bucket.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i < self.bounds.len() { self.bounds[i] } else { self.max }, c))
            .collect()
    }

    /// Merges another histogram with identical bounds.
    ///
    /// # Panics
    ///
    /// Panics when the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "bucket layouts must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::exponential(1.0, 2.0, 8); // 1,2,4,...,128
        for v in [0.5, 1.5, 3.0, 3.5, 100.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
        assert_eq!(h.mean(), Some(21.7));
        assert_eq!(h.max(), Some(100.0));
    }

    #[test]
    fn quantile_bounds_bracket_the_distribution() {
        let mut h = Histogram::for_response_times();
        for i in 1..=100 {
            h.record(i as f64 / 100.0); // 0.01 … 1.00
        }
        let p50 = h.quantile_bound(0.5).unwrap();
        let p95 = h.quantile_bound(0.95).unwrap();
        assert!((0.5..=1.024).contains(&p50), "p50 bound {p50}");
        assert!((0.95..=2.048).contains(&p95), "p95 bound {p95}");
        assert!(p50 <= p95);
        assert_eq!(Histogram::for_response_times().quantile_bound(0.5), None);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let mut h = Histogram::exponential(1.0, 2.0, 2); // 1, 2, overflow
        h.record(50.0);
        assert_eq!(h.quantile_bound(1.0), Some(50.0));
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets, vec![(50.0, 1)]);
    }

    #[test]
    fn negative_values_clamp() {
        let mut h = Histogram::exponential(1.0, 2.0, 4);
        h.record(-3.0);
        assert_eq!(h.mean(), Some(0.0));
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::exponential(1.0, 2.0, 4);
        let mut b = Histogram::exponential(1.0, 2.0, 4);
        a.record(1.0);
        b.record(8.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), Some(8.0));
        assert_eq!(a.mean(), Some(4.5));
    }

    #[test]
    #[should_panic(expected = "bucket layouts must match")]
    fn merge_rejects_mismatched_layouts() {
        let mut a = Histogram::exponential(1.0, 2.0, 4);
        let b = Histogram::exponential(1.0, 3.0, 4);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "growth must exceed 1")]
    fn bad_growth_panics() {
        let _ = Histogram::exponential(1.0, 1.0, 4);
    }
}
