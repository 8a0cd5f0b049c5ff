//! Parser for the daemon's `expo` text exposition, and the differencing
//! that turns two scrapes into per-window counts and means.

use std::collections::BTreeMap;

/// Count and mean of one histogram (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Hist {
    /// Observations.
    pub count: u64,
    /// Mean observed value.
    pub mean: f64,
}

/// One parsed exposition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expo {
    /// `counter <name> <n>` lines.
    pub counters: BTreeMap<String, u64>,
    /// `histogram <name> count|mean <v>` lines.
    pub histograms: BTreeMap<String, Hist>,
}

impl Expo {
    /// Parses an exposition; lines of an unknown shape are skipped, so a
    /// new metric kind in the program does not break the benchmark.
    pub fn parse(text: &str) -> Expo {
        let mut expo = Expo::default();
        for line in text.lines() {
            let words: Vec<&str> = line.split_ascii_whitespace().collect();
            match words.as_slice() {
                ["counter", name, v] => {
                    if let Ok(v) = v.parse() {
                        expo.counters.insert((*name).to_owned(), v);
                    }
                }
                ["histogram", name, "count", v] => {
                    if let Ok(v) = v.parse() {
                        expo.histograms.entry((*name).to_owned()).or_default().count = v;
                    }
                }
                ["histogram", name, "mean", v] => {
                    if let Ok(v) = v.parse() {
                        expo.histograms.entry((*name).to_owned()).or_default().mean = v;
                    }
                }
                _ => {}
            }
        }
        expo
    }

    /// A counter's value, 0 when absent (counters appear on first use).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// How far `name` advanced since `earlier`.
    pub fn counter_since(&self, earlier: &Expo, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// Count and mean of the observations histogram `name` received since
    /// `earlier` (the sums are differenced, so the mean is the window's).
    pub fn hist_since(&self, earlier: &Expo, name: &str) -> Hist {
        let now = self.histograms.get(name).copied().unwrap_or_default();
        let was = earlier.histograms.get(name).copied().unwrap_or_default();
        let count = now.count.saturating_sub(was.count);
        if count == 0 {
            return Hist::default();
        }
        let sum = now.mean * now.count as f64 - was.mean * was.count as f64;
        Hist { count, mean: sum / count as f64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a seed-commit `harmonyd` after three registrations.
    const CAPTURED: &str = "\
counter controller.decisions 7
counter controller.optimizer.cache_hits 17
counter controller.optimizer.cache_misses 3
gauge controller.objective 526.6666666666666
gauge controller.sessions.active 3
histogram bag.1.response_time count 1
histogram bag.1.response_time mean 1.25
histogram bag.1.response_time max 1.25
histogram bag.1.response_time p50 2.048
histogram server.verb.heartbeat count 4
histogram server.verb.heartbeat mean 0.000002
histogram server.verb.heartbeat max 0.000007687
histogram server.verb.heartbeat p50 0.001
histogram empty.one count 0
";

    #[test]
    fn captured_exposition_parses() {
        let e = Expo::parse(CAPTURED);
        assert_eq!(e.counter("controller.decisions"), 7);
        assert_eq!(e.counter("controller.optimizer.cache_hits"), 17);
        assert_eq!(e.counter("never.seen"), 0);
        assert_eq!(e.histograms["bag.1.response_time"], Hist { count: 1, mean: 1.25 });
        assert_eq!(e.histograms["empty.one"], Hist { count: 0, mean: 0.0 });
        assert_eq!(e.histograms.len(), 3);
    }

    #[test]
    fn windows_are_differenced() {
        let before = Expo::parse(CAPTURED);
        let after = Expo::parse(
            "counter controller.decisions 10\n\
             histogram server.verb.heartbeat count 10\n\
             histogram server.verb.heartbeat mean 0.000005\n",
        );
        assert_eq!(after.counter_since(&before, "controller.decisions"), 3);
        let h = after.hist_since(&before, "server.verb.heartbeat");
        assert_eq!(h.count, 6);
        // (10 × 5 µs − 4 × 2 µs) / 6 = 7 µs
        assert!((h.mean - 7e-6).abs() < 1e-12, "{h:?}");
        assert_eq!(after.hist_since(&before, "absent"), Hist::default());
    }
}
