//! Windowed time series.
//!
//! The metric interface "provides a unified way to gather data about the
//! performance of applications and their execution environment" (§2). A
//! [`TimeSeries`] is a bounded buffer of timestamped samples with
//! windowed statistics over them.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// One timestamped sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Time in seconds (simulation or wall clock — the producer decides).
    pub time: f64,
    /// The sampled value.
    pub value: f64,
}

/// A bounded, append-only series of [`Sample`]s.
///
/// # Examples
///
/// ```
/// use harmony_metrics::TimeSeries;
///
/// let mut s = TimeSeries::with_capacity(128);
/// s.record(0.0, 10.0);
/// s.record(1.0, 20.0);
/// assert_eq!(s.mean(), Some(15.0));
/// assert_eq!(s.last().map(|x| x.value), Some(20.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: VecDeque<Sample>,
    capacity: usize,
    total_count: u64,
}

impl TimeSeries {
    /// Default bound on retained samples.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a series retaining at most [`Self::DEFAULT_CAPACITY`]
    /// samples.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a series retaining at most `capacity` samples (older
    /// samples are evicted).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "time series capacity must be positive");
        TimeSeries { samples: VecDeque::with_capacity(capacity), capacity, total_count: 0 }
    }

    /// Appends a sample, evicting the oldest if at capacity.
    pub fn record(&mut self, time: f64, value: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample { time, value });
        self.total_count += 1;
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total samples ever recorded (including evicted ones).
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<Sample> {
        self.samples.back().copied()
    }

    /// Iterates over retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Mean of all retained values.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.value).sum::<f64>() / self.samples.len() as f64)
    }

    /// Minimum retained value.
    pub fn min(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum retained value.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of retained values by
    /// nearest-rank on the sorted sample set.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut values: Vec<f64> = self.samples.iter().map(|s| s.value).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = q.clamp(0.0, 1.0);
        let idx = ((values.len() as f64 - 1.0) * q).round() as usize;
        Some(values[idx])
    }

    /// Mean of samples with `time >= since`.
    pub fn mean_since(&self, since: f64) -> Option<f64> {
        let (sum, n) = self
            .samples
            .iter()
            .filter(|s| s.time >= since)
            .fold((0.0, 0usize), |(sum, n), s| (sum + s.value, n + 1));
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

impl Default for TimeSeries {
    /// [`TimeSeries::new`]: a derived default would have capacity 0, which
    /// `record` never reaches and so never evicts at.
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        for (t, v) in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)] {
            s.record(t, v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.last().unwrap().value, 5.0);
        assert_eq!(s.total_count(), 3);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = TimeSeries::with_capacity(2);
        s.record(0.0, 1.0);
        s.record(1.0, 2.0);
        s.record(2.0, 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.min(), Some(2.0)); // 1.0 evicted
        assert_eq!(s.total_count(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TimeSeries::with_capacity(0);
    }

    #[test]
    fn quantiles() {
        let mut s = TimeSeries::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(0.0, v);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(3.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(TimeSeries::new().quantile(0.5), None);
    }

    #[test]
    fn mean_since_windows_by_time() {
        let mut s = TimeSeries::new();
        s.record(0.0, 10.0);
        s.record(10.0, 20.0);
        s.record(20.0, 30.0);
        assert_eq!(s.mean_since(10.0), Some(25.0));
        assert_eq!(s.mean_since(100.0), None);
        assert_eq!(s.mean_since(0.0), Some(20.0));
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut s = TimeSeries::new();
        s.record(0.0, 1.0);
        s.record(1.0, 2.0);
        let vals: Vec<f64> = s.iter().map(|x| x.value).collect();
        assert_eq!(vals, vec![1.0, 2.0]);
    }
}
