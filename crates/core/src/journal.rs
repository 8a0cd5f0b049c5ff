//! The controller's bounded event journal: decision provenance.
//!
//! Every externally visible occurrence — a [`HarmonyEvent`] arriving, a
//! lease retirement, a coalescing-scheduler fire, an applied decision —
//! appends one [`JournalEntry`] to a fixed-capacity ring with monotone
//! sequence numbers. Decisions record the seq numbers of the events they
//! settle (their *provenance*), so an operator can ask "why did `bag.3`
//! move to four workers?" and walk back to the burst of arrivals that
//! triggered the window.
//!
//! The ring is bounded: old entries are evicted, never the counters.
//! Readers tail it cursor-style ([`EventJournal::tail`]) and learn via
//! [`JournalTail::truncated`] when eviction outran them.
//!
//! [`HarmonyEvent`]: crate::HarmonyEvent

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Default ring capacity: enough for minutes of heavy event traffic
/// without unbounded growth.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Appends to a history (decisions, retirements), first dropping its older
/// half once it holds a journal's capacity.
pub(crate) fn push_bounded<T>(history: &mut Vec<T>, record: T) {
    if history.len() >= DEFAULT_JOURNAL_CAPACITY {
        history.drain(..DEFAULT_JOURNAL_CAPACITY / 2);
    }
    history.push(record);
}

/// The entries of a bounded `history`, the newest of `total` ever pushed,
/// after the first `since`: the whole window once `since` predates it,
/// none when `since` exceeds `total` (a reading from a rebuilt controller).
pub(crate) fn retained_since<T>(history: &[T], total: u64, since: u64) -> &[T] {
    let oldest = total.saturating_sub(history.len() as u64);
    &history[(since.saturating_sub(oldest) as usize).min(history.len())..]
}

/// What kind of occurrence a journal entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum JournalKind {
    /// A Harmony event: startup, bundle setup, metric report, reattach,
    /// periodic tick, cluster membership change.
    Event,
    /// A session retirement (explicit end, lease expiry, disconnect).
    Retirement,
    /// A coalescing-scheduler window firing.
    SchedulerFire,
    /// An applied reconfiguration decision.
    Decision,
}

impl std::fmt::Display for JournalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JournalKind::Event => "event",
            JournalKind::Retirement => "retirement",
            JournalKind::SchedulerFire => "scheduler-fire",
            JournalKind::Decision => "decision",
        };
        f.write_str(s)
    }
}

/// One entry in the bounded event journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Monotone sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Controller-clock time of the occurrence.
    pub time: f64,
    /// The kind of occurrence.
    pub kind: JournalKind,
    /// Human-readable description (`"bundle-setup bag.3 config"`).
    pub detail: String,
}

/// The result of tailing the journal from a cursor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalTail {
    /// Entries with `seq >= cursor`, oldest first, at most `max`.
    pub entries: Vec<JournalEntry>,
    /// Pass this as the next call's cursor to continue where this tail
    /// stopped.
    pub next_cursor: u64,
    /// True when entries between the cursor and the oldest retained entry
    /// were evicted before the reader got to them.
    pub truncated: bool,
}

impl JournalTail {
    /// Serializes to JSON for the wire.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("journal tail serializes")
    }

    /// Parses the JSON produced by [`JournalTail::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Per-phase wall timings (milliseconds) of the optimization pass that
/// produced a decision. Phases that did not run in a given pass stay at
/// zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Candidate enumeration (or memo-cache lookup).
    #[serde(default)]
    pub candidates_ms: f64,
    /// Prediction and hypothetical-environment construction: the summed
    /// per-candidate evaluation time.
    #[serde(default)]
    pub prediction_ms: f64,
    /// The search loop around the evaluations (scoring, comparison,
    /// best-tracking) — total search wall minus `prediction_ms`.
    #[serde(default)]
    pub optimization_ms: f64,
    /// Committing the winner: allocation swap, namespace writes, record
    /// bookkeeping.
    #[serde(default)]
    pub commit_ms: f64,
}

/// A bounded ring of journal entries with monotone sequence numbers.
#[derive(Debug)]
pub struct EventJournal {
    entries: VecDeque<JournalEntry>,
    capacity: usize,
    next_seq: u64,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// Creates an empty journal retaining at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        EventJournal { entries: VecDeque::with_capacity(capacity.min(1024)), capacity, next_seq: 0 }
    }

    /// Appends one entry, evicting the oldest when full. Returns the
    /// entry's sequence number.
    pub fn push(&mut self, time: f64, kind: JournalKind, detail: String) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(JournalEntry { seq, time, kind, detail });
        seq
    }

    /// Starts an empty ring whose next push gets `next_seq`: a recovered
    /// controller numbers on from where the crashed one stopped, and a
    /// cursor from before the crash reads a `truncated` tail, since the
    /// entries were a report of the life that ended.
    pub fn resume(next_seq: u64) -> Self {
        EventJournal { next_seq, ..Self::default() }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been appended (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sequence number of the oldest retained entry; equals
    /// [`EventJournal::next_seq`] when the ring is empty.
    pub fn first_seq(&self) -> u64 {
        self.entries.front().map_or(self.next_seq, |e| e.seq)
    }

    /// The sequence number the next push will get (= total entries ever
    /// appended).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Looks up a retained entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&JournalEntry> {
        let first = self.first_seq();
        if seq < first || seq >= self.next_seq {
            return None;
        }
        self.entries.get((seq - first) as usize)
    }

    /// Returns up to `max` entries with `seq >= cursor`, oldest first,
    /// with the cursor to continue from and whether eviction skipped
    /// entries the reader never saw.
    pub fn tail(&self, cursor: u64, max: usize) -> JournalTail {
        // A zero-size page is a pure no-op probe: it must not advance the
        // cursor past entries the reader never received, and an empty page
        // cannot meaningfully claim truncation (the reader learns about
        // eviction on the first page that actually skips entries).
        if max == 0 {
            return JournalTail { entries: Vec::new(), next_cursor: cursor, truncated: false };
        }
        let first = self.first_seq();
        let truncated = cursor < first;
        let start = cursor.max(first);
        let skip = (start - first) as usize;
        let entries: Vec<JournalEntry> =
            self.entries.iter().skip(skip).take(max).cloned().collect();
        // An empty tail continues from wherever the journal currently ends
        // (or from the caller's cursor if it is already ahead).
        let next_cursor = entries.last().map_or(self.next_seq.max(cursor), |e| e.seq + 1);
        JournalTail { entries, next_cursor, truncated }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_monotone_and_survive_eviction() {
        let mut j = EventJournal::new(3);
        for i in 0..5 {
            let seq = j.push(i as f64, JournalKind::Event, format!("e{i}"));
            assert_eq!(seq, i);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.first_seq(), 2);
        assert_eq!(j.next_seq(), 5);
        assert!(j.get(1).is_none(), "evicted");
        assert_eq!(j.get(2).unwrap().detail, "e2");
        assert_eq!(j.get(4).unwrap().detail, "e4");
        assert!(j.get(5).is_none(), "not yet written");
    }

    #[test]
    fn tail_pages_with_a_cursor() {
        let mut j = EventJournal::new(10);
        for i in 0..6 {
            j.push(i as f64, JournalKind::Event, format!("e{i}"));
        }
        let t1 = j.tail(0, 4);
        assert_eq!(t1.entries.len(), 4);
        assert!(!t1.truncated);
        assert_eq!(t1.next_cursor, 4);
        let t2 = j.tail(t1.next_cursor, 4);
        assert_eq!(t2.entries.len(), 2);
        assert_eq!(t2.next_cursor, 6);
        let t3 = j.tail(t2.next_cursor, 4);
        assert!(t3.entries.is_empty());
        assert_eq!(t3.next_cursor, 6, "idle cursor stays put");
    }

    #[test]
    fn tail_reports_truncation_after_wraparound() {
        let mut j = EventJournal::new(4);
        for i in 0..10 {
            j.push(i as f64, JournalKind::Event, format!("e{i}"));
        }
        // A reader parked at seq 0 lost entries 0..6 to eviction.
        let t = j.tail(0, 100);
        assert!(t.truncated);
        assert_eq!(t.entries.first().unwrap().seq, 6);
        assert_eq!(t.entries.len(), 4);
        // A reader already past the eviction horizon is not truncated.
        let t = j.tail(7, 100);
        assert!(!t.truncated);
        assert_eq!(t.entries.len(), 3);
    }

    #[test]
    fn zero_size_page_is_a_no_op_probe() {
        let mut j = EventJournal::new(4);
        for i in 0..10 {
            j.push(i as f64, JournalKind::Event, format!("e{i}"));
        }
        // Entries 0..6 are evicted. A max=0 probe from a stale cursor must
        // neither skip the unread entries (next_cursor jumps) nor claim
        // truncation on a page that delivered nothing.
        for cursor in [0u64, 3, 6, 9, 10, 25] {
            let t = j.tail(cursor, 0);
            assert!(t.entries.is_empty(), "cursor {cursor}");
            assert_eq!(t.next_cursor, cursor, "max=0 must not advance the cursor");
            assert!(!t.truncated, "empty page from cursor {cursor} claims truncation");
        }
        // The very next real page still reports the loss and delivers the
        // retained suffix — the probe lost no information.
        let t = j.tail(0, 100);
        assert!(t.truncated);
        assert_eq!(t.entries.first().unwrap().seq, 6);
    }

    #[test]
    fn cursor_at_the_eviction_horizon_reports_truncation_consistently() {
        let mut j = EventJournal::new(4);
        for i in 0..10 {
            j.push(i as f64, JournalKind::Event, format!("e{i}"));
        }
        // Retained: 6..=9. A cursor exactly at the oldest *evicted* seq
        // (5) lost entry 5 and must say so; a cursor exactly at the
        // oldest *retained* seq (6) lost nothing.
        let at_newest_evicted = j.tail(5, 100);
        assert!(at_newest_evicted.truncated, "cursor 5 never saw entry 5");
        assert_eq!(at_newest_evicted.entries.first().unwrap().seq, 6);
        let at_oldest_evicted = j.tail(0, 100);
        assert!(at_oldest_evicted.truncated);
        let at_first_retained = j.tail(6, 100);
        assert!(!at_first_retained.truncated, "cursor 6 missed nothing");
        assert_eq!(at_first_retained.entries.len(), 4);
        // The same cursors through a bounded page agree on the flag.
        assert!(j.tail(5, 1).truncated);
        assert!(!j.tail(6, 1).truncated);
    }

    #[test]
    fn empty_journal_tails_cleanly() {
        let j = EventJournal::new(4);
        let t = j.tail(0, 10);
        assert!(t.entries.is_empty());
        assert!(!t.truncated);
        assert_eq!(t.next_cursor, 0);
    }

    #[test]
    fn tail_json_round_trips() {
        let mut j = EventJournal::new(4);
        j.push(1.0, JournalKind::Decision, "decision bag.1 config -> run".into());
        let t = j.tail(0, 10);
        let back = JournalTail::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }
}
