//! The metric registry: named counters, gauges and histograms.
//!
//! "Data about system conditions and application resource requirements flow
//! into the metric interface, and on to both the adaptation controller and
//! individual applications" (§2). Producers record under dotted metric
//! names (`DBclient.66.response_time`); consumers read snapshots.
//!
//! Counters and histograms each live in a cell of their own, shared between
//! the name table and any [`CounterHandle`] / [`HistogramHandle`] resolved
//! from it: a producer on a hot path resolves its handle once and from then
//! on touches only that cell — no table lock, no map walk, no allocation —
//! while the string-keyed calls, the exposition and snapshots read the very
//! same cells through the table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::histogram::Histogram;

/// A shared, thread-safe registry of metrics.
///
/// Cloning is cheap (the state is behind an [`Arc`]); clones observe the
/// same metrics.
///
/// # Examples
///
/// ```
/// use harmony_metrics::MetricRegistry;
///
/// let reg = MetricRegistry::new();
/// reg.record("DBclient.1.response_time", 12.5, 9.8);
/// reg.inc_counter("DBclient.1.queries");
/// assert_eq!(reg.counter("DBclient.1.queries"), 1);
/// assert_eq!(reg.histogram("DBclient.1.response_time").unwrap().mean(), Some(9.8));
///
/// // A handle is the same counter, without the lookup.
/// let queries = reg.counter_handle("DBclient.1.queries");
/// queries.inc();
/// assert_eq!(reg.counter("DBclient.1.queries"), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    inner: Arc<RwLock<Inner>>,
}

/// The name table. Its lock guards membership (and the gauges, which are
/// stored in place); counter and histogram *values* change under the
/// shared side or with no table lock at all.
#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, CounterHandle>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// One counter of a [`MetricRegistry`], resolved once with
/// [`MetricRegistry::counter_handle`]: the cell the registry reads under
/// the counter's name, incremented with one atomic add.
///
/// A handle outlives [`MetricRegistry::remove_prefix`] of its name, but
/// what it counts from then on is no longer listed.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Increments by 1, returning the new value.
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Adds `delta`, returning the new value.
    pub fn add(&self, delta: u64) -> u64 {
        // A statistic: it publishes no other data.
        self.0.fetch_add(delta, Ordering::Relaxed).wrapping_add(delta)
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One histogram of a [`MetricRegistry`], resolved once with
/// [`MetricRegistry::histogram_handle`]: the cell the registry reads under
/// the histogram's name, behind a lock of its own.
///
/// A handle outlives [`MetricRegistry::remove_prefix`] of its name, but
/// what it observes from then on is no longer listed.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl Default for HistogramHandle {
    /// An empty histogram with the response-time bucket layout.
    fn default() -> Self {
        HistogramHandle(Arc::new(Mutex::new(Histogram::for_response_times())))
    }
}

impl HistogramHandle {
    /// Records one observation. Non-finite observations are rejected; the
    /// return value reports whether the observation was accepted.
    pub fn observe(&self, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        self.0.lock().record(value);
        true
    }

    /// A snapshot (clone) of the histogram.
    pub fn snapshot(&self) -> Histogram {
        self.0.lock().clone()
    }
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a producer's timestamped report under `name`: a
    /// `*.response_time` value is [observed](MetricRegistry::observe) into
    /// the histogram of that name, which `status` and the exposition read.
    /// Any other name is validated and kept nowhere, since nothing reads
    /// it back.
    ///
    /// Non-finite times and values (`NaN`, `±inf`) are rejected: one bad
    /// sample would poison the histogram's mean. Returns whether the
    /// report was accepted.
    pub fn record(&self, name: &str, time: f64, value: f64) -> bool {
        if !time.is_finite() || !value.is_finite() {
            return false;
        }
        if name.ends_with(".response_time") {
            self.observe(name, value);
        }
        true
    }

    /// Increments the counter under `name` by 1, returning the new value.
    pub fn inc_counter(&self, name: &str) -> u64 {
        self.add_counter(name, 1)
    }

    /// Adds `delta` to the counter under `name`, returning the new value.
    pub fn add_counter(&self, name: &str, delta: u64) -> u64 {
        if let Some(counter) = self.inner.read().counters.get(name) {
            return counter.add(delta);
        }
        self.counter_handle(name).add(delta)
    }

    /// The counter under `name`, created (at 0, and listed from then on)
    /// on first use.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        if let Some(counter) = self.inner.read().counters.get(name) {
            return counter.clone();
        }
        self.inner.write().counters.entry(name.to_owned()).or_default().clone()
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.read().counters.get(name).map_or(0, CounterHandle::get)
    }

    /// Sets the gauge under `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.write();
        match inner.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                inner.gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.read().gauges.get(name).copied()
    }

    /// Records one observation into the histogram under `name`, creating
    /// it (with the response-time bucket layout) on first use.
    ///
    /// Non-finite observations are rejected; the return value reports
    /// whether the observation was accepted.
    pub fn observe(&self, name: &str, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        if let Some(histogram) = self.inner.read().histograms.get(name) {
            return histogram.observe(value);
        }
        self.histogram_handle(name).observe(value)
    }

    /// The histogram under `name`, created (empty, with the response-time
    /// bucket layout, and listed from then on) on first use.
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        if let Some(histogram) = self.inner.read().histograms.get(name) {
            return histogram.clone();
        }
        self.inner.write().histograms.entry(name.to_owned()).or_default().clone()
    }

    /// Returns a snapshot (clone) of the histogram under `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.read().histograms.get(name).map(HistogramHandle::snapshot)
    }

    /// Hands every histogram to `visit` with its name, in name order,
    /// under one read of the name table and without a copy: what a
    /// snapshot and the exposition walk. `visit` runs under the table's
    /// read lock and the histogram's own, so it must not call back into
    /// the registry.
    pub fn for_each_histogram(&self, mut visit: impl FnMut(&str, &Histogram)) {
        for (name, h) in &self.inner.read().histograms {
            visit(name, &h.0.lock());
        }
    }

    /// Renders every counter, gauge, and histogram as a plain-text
    /// exposition: one `name value` line per counter/gauge, and per
    /// histogram a `count`/`mean`/`max` line plus `p50`/`p95` bucket
    /// bounds. The format is line-oriented and stable, meant for
    /// `harmonyctl export` and CI assertions rather than humans.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        {
            let inner = self.inner.read();
            for (name, c) in &inner.counters {
                let _ = writeln!(out, "counter {name} {}", c.get());
            }
            for (name, g) in &inner.gauges {
                let _ = writeln!(out, "gauge {name} {g}");
            }
        }
        self.for_each_histogram(|name, h| {
            let _ = writeln!(out, "histogram {name} count {}", h.len());
            if let (Some(mean), Some(max)) = (h.mean(), h.max()) {
                let _ = writeln!(out, "histogram {name} mean {mean}");
                let _ = writeln!(out, "histogram {name} max {max}");
            }
            for (q, label) in [(0.5, "p50"), (0.95, "p95")] {
                if let Some(bound) = h.quantile_bound(q) {
                    let _ = writeln!(out, "histogram {name} {label} {bound}");
                }
            }
        });
        out
    }

    /// Removes every metric named `prefix` or below it — `prefix` followed
    /// by `.` and further components — as when an application instance
    /// departs. Components are matched whole: `bag.1` covers
    /// `bag.1.response_time` and leaves `bag.10.response_time` alone.
    pub fn remove_prefix(&self, prefix: &str) {
        let under = |name: &String| {
            name.strip_prefix(prefix).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        };
        let mut inner = self.inner.write();
        inner.counters.retain(|k, _| !under(k));
        inner.gauges.retain(|k, _| !under(k));
        inner.histograms.retain(|k, _| !under(k));
    }

    /// Number of distinct metric names (counters + gauges + histograms).
    pub fn len(&self) -> usize {
        let inner = self.inner.read();
        inner.counters.len() + inner.gauges.len() + inner.histograms.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_counters_gauges() {
        let reg = MetricRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.record("a.response_time", 0.0, 1.0));
        assert!(reg.record("a.response_time", 1.0, 3.0));
        assert_eq!(reg.histogram("a.response_time").unwrap().mean(), Some(2.0));
        assert!(reg.record("a.rt", 0.0, 1.0), "another name is accepted …");
        assert!(reg.histogram("a.rt").is_none(), "… and kept nowhere");

        assert_eq!(reg.inc_counter("a.n"), 1);
        assert_eq!(reg.add_counter("a.n", 4), 5);
        assert_eq!(reg.counter("a.n"), 5);
        assert_eq!(reg.counter("never"), 0);

        reg.set_gauge("a.load", 0.7);
        assert_eq!(reg.gauge("a.load"), Some(0.7));
        assert_eq!(reg.gauge("never"), None);

        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricRegistry::new();
        let clone = reg.clone();
        clone.inc_counter("x");
        assert_eq!(reg.counter("x"), 1);
    }

    #[test]
    fn remove_prefix_drops_departed_instances() {
        let reg = MetricRegistry::new();
        reg.record("DBclient.1.response_time", 0.0, 1.0);
        reg.inc_counter("DBclient.1.queries");
        reg.set_gauge("DBclient.1.load", 0.5);
        reg.observe("DBclient.1.verb", 0.01);
        reg.record("DBclient.2.response_time", 0.0, 1.0);
        // Siblings whose id merely extends the departed one's digits.
        reg.record("DBclient.10.response_time", 0.0, 1.0);
        reg.observe("DBclient.19.response_time", 0.01);
        reg.inc_counter("DBclient.1x");
        reg.set_gauge("DBclient.1", 1.0);
        reg.remove_prefix("DBclient.1");
        let sibling = reg.histogram("DBclient.10.response_time");
        assert!(sibling.is_some(), "a live sibling keeps its histogram");
        assert!(reg.histogram("DBclient.19.response_time").is_some());
        assert_eq!(reg.counter("DBclient.1x"), 1, "`1x` is another component, not below `1`");
        assert_eq!(reg.gauge("DBclient.1"), None, "the prefix itself is covered");
        assert!(reg.histogram("DBclient.1.response_time").is_none());
        assert_eq!(reg.counter("DBclient.1.queries"), 0);
        assert_eq!(reg.gauge("DBclient.1.load"), None);
        assert!(reg.histogram("DBclient.1.verb").is_none());
        assert!(reg.histogram("DBclient.2.response_time").is_some());
    }

    #[test]
    fn non_finite_samples_are_rejected() {
        let reg = MetricRegistry::new();
        let rt = "a.response_time";
        assert!(!reg.record(rt, 0.0, f64::NAN));
        assert!(!reg.record(rt, 0.0, f64::INFINITY));
        assert!(!reg.record(rt, 0.0, f64::NEG_INFINITY));
        assert!(!reg.record(rt, f64::NAN, 1.0));
        assert!(!reg.record("a.rt", f64::INFINITY, 1.0), "every name is validated");
        assert!(reg.histogram(rt).is_none(), "rejected samples leave no histogram behind");

        assert!(reg.record(rt, 0.0, 1.0));
        assert!(!reg.record(rt, 1.0, f64::NAN));
        let h = reg.histogram(rt).unwrap();
        assert_eq!(h.len(), 1, "rejected sample not observed");
        assert_eq!(h.mean(), Some(1.0), "aggregates stay finite");

        assert!(!reg.observe("lat", f64::NAN));
        assert!(reg.histogram("lat").is_none());
    }

    #[test]
    fn histograms_accumulate_and_snapshot() {
        let reg = MetricRegistry::new();
        assert!(reg.histogram("lat").is_none());
        for v in [0.01, 0.02, 0.04, 10.0] {
            assert!(reg.observe("lat", v));
        }
        let h = reg.histogram("lat").unwrap();
        assert_eq!(h.len(), 4);
        assert_eq!(h.max(), Some(10.0));
        let mut seen = Vec::new();
        reg.for_each_histogram(|name, h| seen.push((name.to_owned(), h.len())));
        assert_eq!(seen, vec![("lat".to_owned(), 4)]);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn exposition_lists_every_kind() {
        let reg = MetricRegistry::new();
        reg.inc_counter("c.decisions");
        reg.set_gauge("g.load", 0.5);
        reg.observe("h.lat", 0.01);
        reg.observe("h.lat", 0.02);
        let text = reg.expose();
        assert!(text.contains("counter c.decisions 1"), "{text}");
        assert!(text.contains("gauge g.load 0.5"), "{text}");
        assert!(text.contains("histogram h.lat count 2"), "{text}");
        assert!(text.contains("histogram h.lat p50 "), "{text}");
        assert!(text.contains("histogram h.lat p95 "), "{text}");
        // Every line parses as `kind name field(s)...`.
        for line in text.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            assert!(words.len() >= 3, "short line: {line}");
            assert!(matches!(words[0], "counter" | "gauge" | "histogram"), "{line}");
        }
    }

    #[test]
    fn handles_and_names_reach_the_same_storage() {
        let reg = MetricRegistry::new();
        reg.observe("server.verb.poll", 0.01);
        reg.inc_counter("server.accept_errors");
        let poll = reg.histogram_handle("server.verb.poll");
        let errors = reg.counter_handle("server.accept_errors");
        assert_eq!(reg.len(), 2, "resolving an existing name creates nothing");
        assert!(poll.observe(0.02));
        assert!(!poll.observe(f64::NAN), "handles reject what names reject");
        assert_eq!(errors.inc(), 2);
        assert_eq!(errors.add(3), 5);
        // Written through the handle, read through the name …
        assert_eq!(reg.histogram("server.verb.poll").unwrap().len(), 2);
        assert_eq!(reg.counter("server.accept_errors"), 5);
        assert!(reg.expose().contains("histogram server.verb.poll count 2"));
        assert!(reg.expose().contains("counter server.accept_errors 5"));
        // … and the other way round, from a clone of the registry too.
        reg.clone().observe("server.verb.poll", 0.04);
        reg.clone().add_counter("server.accept_errors", 1);
        assert_eq!(poll.snapshot(), reg.histogram("server.verb.poll").unwrap());
        assert_eq!(poll.snapshot().len(), 3);
        assert_eq!(errors.get(), 6);
        // A handle creates its name, empty, the way a first observation would.
        let fresh = reg.histogram_handle("server.verb.expo");
        let mut seen = Vec::new();
        reg.for_each_histogram(|name, h| seen.push((name.to_owned(), h.clone())));
        assert_eq!(
            seen,
            vec![
                ("server.verb.expo".to_owned(), fresh.snapshot()),
                ("server.verb.poll".to_owned(), poll.snapshot()),
            ],
            "in name order, each the very histogram its handle reaches"
        );
        assert!(fresh.snapshot().is_empty());
        assert_eq!(reg.counter_handle("fresh").get(), 0);
        assert!(reg.expose().contains("counter fresh 0"));
    }

    #[test]
    fn concurrent_handles_lose_nothing() {
        let reg = MetricRegistry::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (h, c) = (reg.histogram_handle("lat"), reg.counter_handle("n"));
                let by_name = reg.clone();
                std::thread::spawn(move || {
                    for j in 0..250 {
                        h.observe(j as f64 * 1e-3);
                        c.inc();
                        by_name.observe("lat", 1.0);
                        by_name.inc_counter("n");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.histogram("lat").unwrap().len(), 2000);
        assert_eq!(reg.counter("n"), 2000);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let reg = MetricRegistry::new();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        reg.record("shared.response_time", j as f64, (i * 100 + j) as f64);
                        reg.inc_counter("count");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("count"), 400);
        assert_eq!(reg.histogram("shared.response_time").unwrap().len(), 400);
    }
}
