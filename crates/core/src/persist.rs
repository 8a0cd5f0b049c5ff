//! Crash-consistent controller persistence: WAL events, lossless state
//! snapshots, and the [`StateStore`] that ties them to a state directory.
//!
//! ## What gets logged
//!
//! The WAL records *external inputs*, not derived state: every
//! state-changing verb the embedding can invoke (startup, bundle setup,
//! end, lease renewals and touches, disconnects, polls, reaps, scheduler
//! ticks, node membership events) is one [`WalEvent`] command carrying the
//! controller-clock time it executes at. [`Controller::execute`], the
//! write path's only entry, logs the command and then applies it; the two
//! `&self` read-path verbs that change durable state log their own, each
//! only when it does (a touch that raises its stamp, a non-empty drain).
//! A metric report changes no durable state and logs nothing: its lease
//! renewal is the touch, and its sample is measurement state. WALs written
//! while reports were still logged replay their [`WalEvent::Metric`]
//! records into the in-memory response-time histograms.
//! Decisions, retirements, and journal entries are deliberately *not*
//! logged — the optimizer is deterministic (bit-identical across thread
//! counts), so replaying the inputs re-derives them exactly.
//!
//! ## Recovery sequence
//!
//! [`StateStore::open`] scans the directory for `harmony-<gen>.snap` /
//! `harmony-<gen>.wal` pairs, loads the newest snapshot that parses and
//! validates (falling back to older generations on damage), and replays
//! every WAL from that generation on, oldest first, through
//! [`Controller::replay_wal`]. A missing WAL reads as empty. The last WAL
//! may end in a torn record, which is discarded; a torn earlier WAL or a
//! corrupted middle record refuses recovery. Then it keeps appending to
//! the last generation's WAL — cut back to its last whole record, or
//! created if missing — and writes no snapshot: the files it loaded
//! already hold the recovered state. A fresh directory starts with
//! snapshot 1 and WAL 1.
//!
//! ## Durability window
//!
//! Appends ride `harmony-wal`'s group commit: the hot decision path never
//! blocks on fsync, at the cost of up to one flush interval (~5 ms) of
//! acknowledged events being lost to a crash. [`StateStore::sync`] forces
//! a flush for embeddings that want a hard barrier (shutdown, tests).
//!
//! ## What is rebuilt
//!
//! Metric counters, gauges, and histograms restart empty after recovery —
//! they are measurement state, not control state. So do the decision and
//! retirement histories and their totals (`controller.decisions`,
//! `controller.ends`), which no decision reads, and the journal's entries:
//! the journal resumes empty at its persisted sequence number, so cursors
//! stay valid and a cursor from before the restart reads a truncated tail.
//! The namespace is not in the image: [`Controller::namespace`] derives
//! it from the applied configurations. Nor are candidate memos, but they
//! are a pure function of what is: [`Controller::from_persisted`]
//! attaches every loaded bundle, which enumerates it, so the first pass
//! after a restart reads them like any other.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use harmony_ns::{HPath, InstanceRegistry};
use harmony_resources::Cluster;
use harmony_rsl::schema::BundleSpec;
use harmony_rsl::Value;
use harmony_wal::{decode_records, StateDir, WalConfig, WalTail, WalWriter};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::app::{AppInstance, InstanceId};
use crate::controller::{Controller, ControllerConfig};
use crate::error::CoreError;
use crate::events::HarmonyEvent;
use crate::instances::Instance;
use crate::journal::EventJournal;
use crate::leases::{Lease, SessionState};
use crate::scheduler::{DecisionScheduler, SchedulerState};

/// Version stamp of [`PersistedState`]; a mismatch refuses recovery
/// rather than misinterpreting fields.
pub const PERSIST_VERSION: u32 = 1;

/// Default number of WAL records between automatic compacting snapshots,
/// counted across restarts (see [`StateStore::maybe_checkpoint`]).
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 4096;

/// One state-changing command: what [`Controller::execute`] takes, and —
/// serialized — one WAL record.
///
/// Every variant carries `now`, the controller clock the command executes
/// at: `execute` and replay both move the clock there before applying, so
/// clock advances that produced no command of their own (quiet scheduler
/// ticks) are reproduced lazily by the next logged one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalEvent {
    /// A [`HarmonyEvent`] delivered through
    /// [`Controller::handle_event`] — the whole event, so bundle scripts
    /// and node declarations replay verbatim.
    Event {
        /// Controller clock at execution.
        now: f64,
        /// The delivered event.
        event: HarmonyEvent,
    },
    /// A direct [`Controller::startup`] call.
    Startup {
        /// Controller clock at execution.
        now: f64,
        /// Application name.
        app: String,
    },
    /// A direct [`Controller::add_bundle`] call (already-parsed spec).
    Bundle {
        /// Controller clock at execution.
        now: f64,
        /// The receiving instance.
        id: InstanceId,
        /// The bundle specification.
        spec: BundleSpec,
    },
    /// A direct [`Controller::end`] call.
    End {
        /// Controller clock at execution.
        now: f64,
        /// The departing instance.
        id: InstanceId,
    },
    /// A write-path lease renewal ([`Controller::renew_lease`]).
    Renew {
        /// Controller clock at execution.
        now: f64,
        /// The renewing instance.
        id: InstanceId,
    },
    /// A session reattach ([`Controller::reattach`]).
    Reattach {
        /// Controller clock at execution.
        now: f64,
        /// The reattaching instance.
        id: InstanceId,
    },
    /// A connection-drop mark ([`Controller::mark_disconnected`]).
    Disconnect {
        /// Controller clock at execution.
        now: f64,
        /// The disconnected instance.
        id: InstanceId,
    },
    /// A read-path lease touch ([`Controller::touch`]) that raised the
    /// instance's stamp; one that finds the stamp already at `now` is a
    /// no-op and is not logged.
    Touch {
        /// Controller clock at execution.
        now: f64,
        /// The touched instance.
        id: InstanceId,
    },
    /// A non-empty pending-variable drain
    /// ([`Controller::take_pending_vars`]); empty drains are no-ops and
    /// are not logged.
    Poll {
        /// Controller clock at execution.
        now: f64,
        /// The polling instance.
        id: InstanceId,
    },
    /// A read-path metric report, as WALs written before reports stopped
    /// being logged hold it. Nothing writes one any more; replay records
    /// its sample as [`Controller::record_metric`] does.
    Metric {
        /// Controller clock at execution.
        now: f64,
        /// Dotted metric name.
        name: String,
        /// Sample timestamp.
        time: f64,
        /// Sample value.
        value: f64,
    },
    /// A lease sweep ([`Controller::reap_expired`]).
    Reap {
        /// The sweep time (also advances the clock).
        now: f64,
    },
    /// A scheduler tick that fired a coalescing window
    /// ([`Controller::service_scheduler`]); non-firing ticks only advance
    /// the clock and are not logged.
    Tick {
        /// The tick time (also advances the clock).
        now: f64,
    },
    /// A forced window flush ([`Controller::flush_scheduler`]) with marks
    /// pending; no-op flushes are not logged.
    Flush {
        /// Controller clock at execution.
        now: f64,
    },
    /// A full re-evaluation ([`Controller::reevaluate`]).
    Reevaluate {
        /// Controller clock at execution.
        now: f64,
    },
}

impl WalEvent {
    /// Every variant name, in declaration order. The WAL-coverage guard
    /// test diffs this against the variants a full-verb run actually
    /// produces and replays (all but the read-only `metric`), so a new
    /// verb cannot silently skip persistence. Keep in sync with
    /// [`WalEvent::variant`] (the compiler enforces the match there is
    /// exhaustive; the guard test enforces this list matches it).
    pub const VARIANTS: [&'static str; 14] = [
        "event",
        "startup",
        "bundle",
        "end",
        "renew",
        "reattach",
        "disconnect",
        "touch",
        "poll",
        "metric",
        "reap",
        "tick",
        "flush",
        "reevaluate",
    ];

    /// The variant's name (see [`WalEvent::VARIANTS`]). The match is
    /// deliberately exhaustive — adding a variant without extending
    /// `VARIANTS` fails to compile here or fails the coverage guard.
    pub fn variant(&self) -> &'static str {
        match self {
            WalEvent::Event { .. } => "event",
            WalEvent::Startup { .. } => "startup",
            WalEvent::Bundle { .. } => "bundle",
            WalEvent::End { .. } => "end",
            WalEvent::Renew { .. } => "renew",
            WalEvent::Reattach { .. } => "reattach",
            WalEvent::Disconnect { .. } => "disconnect",
            WalEvent::Touch { .. } => "touch",
            WalEvent::Poll { .. } => "poll",
            WalEvent::Metric { .. } => "metric",
            WalEvent::Reap { .. } => "reap",
            WalEvent::Tick { .. } => "tick",
            WalEvent::Flush { .. } => "flush",
            WalEvent::Reevaluate { .. } => "reevaluate",
        }
    }

    /// Parses one WAL record's payload: the inverse of what
    /// [`Controller::execute`] and the read-path verbs append.
    ///
    /// # Errors
    ///
    /// [`CoreError::Persistence`] for a payload that is not a `WalEvent`
    /// of this build's format.
    pub fn decode(payload: &[u8]) -> Result<WalEvent, CoreError> {
        let text =
            std::str::from_utf8(payload).map_err(|e| persistence_err("wal record utf8", e))?;
        serde_json::from_str(text).map_err(|e| persistence_err("parse wal record", e))
    }

    /// The controller clock at the moment the logged verb executed.
    pub fn now(&self) -> f64 {
        match self {
            WalEvent::Event { now, .. }
            | WalEvent::Startup { now, .. }
            | WalEvent::Bundle { now, .. }
            | WalEvent::End { now, .. }
            | WalEvent::Renew { now, .. }
            | WalEvent::Reattach { now, .. }
            | WalEvent::Disconnect { now, .. }
            | WalEvent::Touch { now, .. }
            | WalEvent::Poll { now, .. }
            | WalEvent::Metric { now, .. }
            | WalEvent::Reap { now }
            | WalEvent::Tick { now }
            | WalEvent::Flush { now }
            | WalEvent::Reevaluate { now } => *now,
        }
    }
}

/// The controller's complete control-plane state, as written into a
/// snapshot file. Lossless for everything decisions depend on; candidate
/// memos are re-derived on load; metrics, histories and the journal's
/// entries restart empty.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersistedState {
    /// Format version ([`PERSIST_VERSION`]).
    pub version: u32,
    /// Controller clock.
    pub now: f64,
    /// Full configuration (optimizer, lease, coalescing, pruning...).
    pub config: ControllerConfig,
    /// Cluster state including live allocations.
    pub cluster: Cluster,
    /// Instance-id allocator (so recovered ids never collide).
    pub registry: InstanceRegistry,
    /// Registered applications with their bundles and applied configs.
    pub apps: Vec<(InstanceId, AppInstance)>,
    /// Arrival order (drives re-evaluation order).
    pub arrival_order: Vec<InstanceId>,
    /// Buffered variable updates awaiting each instance's next poll.
    pub pending_vars: Vec<(InstanceId, Vec<(HPath, Value)>)>,
    /// Session lease state per instance.
    pub sessions: Vec<(InstanceId, SessionState)>,
    /// Unfolded read-path touch stamps (raw non-zero `f64::to_bits`).
    pub touches: Vec<(InstanceId, u64)>,
    /// The journal's next sequence number: the scheduler's pending window
    /// and clients' cursors cite journal seqs, so numbering continues.
    pub journal_next_seq: u64,
    /// The coalescing scheduler's pending window.
    pub scheduler: SchedulerState,
}

impl PersistedState {
    /// The canonical JSON image fingerprints are computed over. One
    /// serialization, shared by the harness's recovery oracle and the
    /// model checker's visited set, so their fingerprints stay comparable.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("persisted state serializes")
    }

    /// FNV-1a 64 over the canonical JSON, clock included — the model
    /// checker's exploration fingerprint, where two states differing only
    /// in the clock are genuinely different (a later reap behaves
    /// differently). The image holds no measurement to normalize out.
    pub fn canonical_fingerprint(&self) -> u64 {
        harmony_rng::fnv::fnv1a_64(self.canonical_json().as_bytes())
    }

    /// FNV-1a 64 with the clock zeroed — the crash-equivalence fingerprint
    /// the recovery oracles compare. `set_time` is deliberately not
    /// WAL-logged (every event carries its own timestamp and a restarted
    /// daemon re-anchors to wall time), so a clock advance followed by no
    /// loggable event is legitimately lost to a crash and must not
    /// distinguish states.
    pub fn recovery_fingerprint(&self) -> u64 {
        PersistedState { now: 0.0, ..self.clone() }.canonical_fingerprint()
    }
}

/// How a recovered controller came to be. Surfaced in
/// [`SystemSnapshot`](crate::SystemSnapshot) so `harmonyctl status` shows
/// operators that (and from what) the daemon recovered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryInfo {
    /// The generation this run writes to.
    pub generation: u64,
    /// The generation whose snapshot seeded recovery (`None` on a fresh
    /// start with no prior state).
    pub snapshot_loaded: Option<u64>,
    /// WAL records replayed on top of the snapshot, summed over every WAL
    /// from the loaded generation on.
    pub replayed: u64,
    /// True when the last replayed WAL ended in a torn record (crash
    /// mid-write; the tail was discarded).
    pub torn_tail: bool,
}

/// The controller's side of persistence: logging commands, and the
/// mapping between its live state and [`PersistedState`]. Here, not in
/// `controller.rs`, so the snapshot format is known by the module that
/// owns it.
impl Controller {
    /// Appends one event to the attached WAL; a no-op without one. Errors
    /// are counted (`controller.persistence.append_errors`), never
    /// propagated — a failing disk must not take the serving path down
    /// with it.
    pub(crate) fn wal_log(&self, ev: &WalEvent) {
        let Some(wal) = &self.wal else { return };
        let payload = serde_json::to_string(ev).expect("wal events serialize");
        if wal.append(payload.as_bytes()).is_ok() {
            self.metrics.inc_counter("controller.persistence.appends");
        } else {
            self.metrics.inc_counter("controller.persistence.append_errors");
        }
    }

    /// [`Controller::wal_log`] for the `&self` read-path verbs (touch and
    /// poll): the event is built only when there is a WAL to append it to.
    pub(crate) fn wal_log_with(&self, build: impl FnOnce() -> WalEvent) {
        if self.wal.is_some() {
            self.wal_log(&build());
        }
    }

    /// Attaches a write-ahead log: every state-changing verb from here on
    /// is logged. Called by [`StateStore::open`] after replay.
    pub fn attach_wal(&mut self, wal: Arc<WalWriter>) {
        self.wal = Some(wal);
    }

    /// True when a WAL is attached (persistence on).
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// The attached WAL writer, if any (the embedding uses it for
    /// shutdown flushes).
    pub fn wal_handle(&self) -> Option<Arc<WalWriter>> {
        self.wal.clone()
    }

    /// How this controller came to be, when recovered from a state
    /// directory (set by [`StateStore::open`]).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// Captures the complete control-plane state for a snapshot. Lossless
    /// for everything decisions depend on: sessions keep their ids and
    /// deadlines, the journal keeps its next sequence number. Candidate
    /// memos (re-derived on load), the namespace (derived from the applied
    /// configurations), and metrics, the decision and retirement histories
    /// and the journal's entries (restart empty) are deliberately excluded.
    ///
    /// One [`Instance`] record fans out into the five per-instance fields
    /// of the format, each in id order as the format has always had them.
    pub fn persisted_state(&self) -> PersistedState {
        let by_id = || self.instances.in_id_order().map(|inst| (inst.app.id.clone(), inst));
        let unfolded = |inst: &Instance| Some((inst.app.id.clone(), inst.lease.unfolded()?));
        PersistedState {
            version: PERSIST_VERSION,
            now: self.now,
            config: self.config.clone(),
            cluster: self.cluster.clone(),
            registry: self.registry.clone(),
            apps: by_id().map(|(id, inst)| (id, inst.app.clone())).collect(),
            arrival_order: self.instances.arrival().to_vec(),
            pending_vars: by_id().map(|(id, inst)| (id, inst.pending.lock().clone())).collect(),
            sessions: by_id().map(|(id, inst)| (id, inst.lease.session().clone())).collect(),
            touches: self.instances.in_id_order().filter_map(unfolded).collect(),
            journal_next_seq: self.journal_seq(),
            scheduler: self.scheduler.dump(),
        }
    }

    /// Rebuilds a controller from a persisted snapshot. The result has no
    /// WAL attached yet (replay runs first); every loaded bundle is
    /// attached, so its candidate memo is filled, and the journal resumes
    /// empty at the persisted sequence number.
    ///
    /// # Errors
    ///
    /// [`CoreError::Persistence`] on a version mismatch, or when the
    /// per-instance fields disagree: every `arrival_order` entry must have
    /// exactly one app (filed under its own id) and one session, and no
    /// app, session, pending buffer or touch stamp may name an instance
    /// `arrival_order` does not. The caller falls back to an older
    /// generation.
    pub fn from_persisted(state: PersistedState) -> Result<Controller, CoreError> {
        let refuse = |detail: String| Err(CoreError::Persistence { detail });
        if state.version != PERSIST_VERSION {
            let theirs = state.version;
            return refuse(format!(
                "snapshot version {theirs} does not match this build's {PERSIST_VERSION}"
            ));
        }
        let mut ctl = Controller::new(state.cluster, state.config);
        let mut apps: BTreeMap<_, _> = state.apps.into_iter().collect();
        let mut sessions: BTreeMap<_, _> = state.sessions.into_iter().collect();
        let mut pending: BTreeMap<_, _> = state.pending_vars.into_iter().collect();
        let mut touches: BTreeMap<_, _> = state.touches.into_iter().collect();
        for id in state.arrival_order {
            let app = apps.remove(&id).filter(|app| app.id == id);
            let Some((app, session)) = app.zip(sessions.remove(&id)) else {
                return refuse(format!(
                    "arrival_order names `{id}`, which has no app and session of its own"
                ));
            };
            // Absent means none: only unfolded stamps are written.
            let lease = Lease::restore(session, touches.remove(&id));
            let mut instance = Instance::new(app, lease);
            *instance.pending.get_mut() = pending.remove(&id).unwrap_or_default();
            ctl.instances.insert(instance);
        }
        let orphan =
            apps.keys().chain(sessions.keys()).chain(pending.keys()).chain(touches.keys()).next();
        if let Some(id) = orphan {
            return refuse(format!(
                "snapshot holds state for `{id}`, which arrival_order never names"
            ));
        }

        ctl.now = state.now;
        ctl.registry = state.registry;
        ctl.journal = Mutex::new(EventJournal::resume(state.journal_next_seq));
        ctl.scheduler = DecisionScheduler::restore(state.scheduler);
        ctl.metrics.set_gauge("controller.sessions.active", ctl.instances.len() as f64);
        let loaded = ctl.candidate_cache_len() as u64;
        ctl.metrics.add_counter("controller.optimizer.cache_misses", loaded);
        ctl.gauge_cache_size();
        Ok(ctl)
    }

    /// Re-applies one WAL event during recovery: [`Controller::execute`]
    /// minus the log. Errors are discarded: an operation that failed live
    /// fails identically on replay (the controller is deterministic), and
    /// that failure may still have mutated state that must be reproduced.
    pub fn apply_wal_event(&mut self, ev: WalEvent) {
        self.set_time(ev.now());
        let _ = self.apply(ev);
    }

    /// Replays one WAL image onto this controller: the one replay body,
    /// run by [`StateStore::open`] and by the model checker's crash cuts.
    /// Every valid record is applied through
    /// [`Controller::apply_wal_event`]; a torn final record is discarded
    /// and reported in the returned tail. Returns the records applied.
    ///
    /// # Errors
    ///
    /// [`CoreError::Persistence`] when a record *before* the end of the
    /// image fails its CRC (nothing is applied), or when a CRC-valid
    /// record fails to parse.
    pub fn replay_wal(&mut self, image: &[u8]) -> Result<(u64, WalTail), CoreError> {
        let read = decode_records(image);
        if let WalTail::Corrupted { record, offset } = read.tail {
            return Err(CoreError::Persistence {
                detail: format!(
                    "corrupted at record {record} (offset {offset}) with valid data after \
                     it — not a torn write; refusing replay"
                ),
            });
        }
        for payload in &read.records {
            self.apply_wal_event(WalEvent::decode(payload)?);
        }
        Ok((read.records.len() as u64, read.tail))
    }
}

/// A controller's durable home: a directory of generation-numbered
/// snapshot + WAL pairs, the attached group-commit writer, and the
/// checkpoint policy.
#[derive(Debug)]
pub struct StateStore {
    dir: StateDir,
    generation: u64,
    /// The newest snapshot loaded or written: what recovery now starts
    /// from, so the next checkpoint keeps it as the fallback.
    snapshot: u64,
    writer: Arc<WalWriter>,
    /// Records replayed at open that no checkpoint has compacted yet: a
    /// restart carries the count toward the next checkpoint.
    replayed: u64,
    snapshot_every: u64,
}

fn persistence_err(context: &str, e: impl std::fmt::Display) -> CoreError {
    CoreError::Persistence { detail: format!("{context}: {e}") }
}

/// The one snapshot writer: captures `ctl`, serializes it, and durably
/// writes it as generation `gen`'s snapshot.
fn write_snapshot(dir: &StateDir, gen: u64, ctl: &Controller) -> Result<(), CoreError> {
    let bytes = serde_json::to_string(&ctl.persisted_state())
        .map_err(|e| persistence_err("serialize snapshot", e))?;
    dir.write_snapshot(gen, bytes.as_bytes()).map_err(|e| persistence_err("write snapshot", e))
}

impl StateStore {
    /// Opens (or creates) the state directory at `path`, recovering the
    /// controller it holds — or building a fresh one with `fresh` when the
    /// directory has no prior state. The returned controller has the WAL
    /// attached and its [`Controller::recovery_info`] set.
    ///
    /// A fresh directory gets snapshot 1 and WAL 1. Recovery writes no
    /// snapshot and starts no generation: it appends to the last
    /// generation's WAL, cut back to its last whole record when it ends
    /// torn (the cut is fsynced at once), or created when it is missing.
    /// The first group commit fsyncs the replayed bytes. Snapshot temp
    /// files a crash left are removed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Persistence`] when the directory is unreadable, no
    /// present generation yields a valid snapshot (prior state exists but
    /// cannot be trusted — never silently discarded), a WAL record
    /// *before* the tail is corrupted, a WAL ends torn with a later
    /// generation after it, or a CRC-valid record fails to parse
    /// (format/version mismatch).
    pub fn open(
        path: &Path,
        fresh: impl FnOnce() -> Controller,
    ) -> Result<(Controller, StateStore), CoreError> {
        let dir = StateDir::open(path).map_err(|e| persistence_err("open state dir", e))?;
        dir.remove_snapshot_temps().map_err(|e| persistence_err("list state dir", e))?;
        let gens = dir.generations().map_err(|e| persistence_err("list state dir", e))?;

        let mut last_err = String::from("no snapshot found");
        let loaded = gens.iter().rev().find_map(|&gen| {
            let ctl = Self::load_snapshot(&dir, gen).map_err(|e| last_err = e.to_string()).ok()?;
            Some((ctl, gen))
        });
        let (mut ctl, base_gen) = match loaded {
            Some((ctl, gen)) => (ctl, Some(gen)),
            None if gens.is_empty() => (fresh(), None),
            None => {
                return Err(CoreError::Persistence {
                    detail: format!(
                        "state dir {} has {} generation(s) but no loadable snapshot \
                         (refusing to discard prior state): {last_err}",
                        path.display(),
                        gens.len()
                    ),
                })
            }
        };

        // Replay every WAL from the loaded generation on, oldest first. A
        // missing WAL reads as empty. Only the last may end torn: a torn
        // record with a later generation after it is a command lost from
        // the middle of the history.
        let (mut replayed, mut torn_tail, mut last_wal_len) = (0, false, None);
        for &gen in gens.iter().skip_while(|&&gen| Some(gen) != base_gen) {
            let wal_path = dir.wal_path(gen);
            let wal_err = |detail| persistence_err(&format!("wal {}", wal_path.display()), detail);
            if !wal_path.exists() {
                continue;
            }
            let image = std::fs::read(&wal_path).map_err(|e| persistence_err("read wal", e))?;
            let (n, tail) = ctl.replay_wal(&image).map_err(|e| match e {
                CoreError::Persistence { detail } => wal_err(detail),
                other => other,
            })?;
            replayed += n;
            torn_tail = matches!(tail, WalTail::Torn { .. });
            if torn_tail && Some(&gen) != gens.last() {
                let detail = "ends torn but a later generation follows it; refusing replay";
                return Err(wal_err(detail.into()));
            }
            if Some(&gen) == gens.last() {
                let whole =
                    if let WalTail::Torn { offset } = tail { offset } else { image.len() as u64 };
                last_wal_len = Some(whole);
            }
        }

        // Append where the history ends: the last generation's WAL, cut
        // back to its last whole record, or a new one when it is missing.
        // Only a fresh directory writes a snapshot.
        let (generation, snapshot) = match base_gen {
            Some(base) => (*gens.last().expect("a snapshot loaded"), base),
            None => {
                write_snapshot(&dir, 1, &ctl)?;
                (1, 1)
            }
        };
        let wal_path = dir.wal_path(generation);
        let writer = match last_wal_len {
            Some(len) => WalWriter::resume(&wal_path, len, WalConfig::default()),
            None => WalWriter::create(&wal_path, WalConfig::default()),
        };
        let writer = Arc::new(writer.map_err(|e| persistence_err("open wal", e))?);
        ctl.attach_wal(Arc::clone(&writer));
        ctl.recovery =
            Some(RecoveryInfo { generation, snapshot_loaded: base_gen, replayed, torn_tail });

        let store = StateStore {
            dir,
            generation,
            snapshot,
            writer,
            replayed,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        };
        Ok((ctl, store))
    }

    fn load_snapshot(dir: &StateDir, gen: u64) -> Result<Controller, CoreError> {
        let bytes = dir.read_snapshot(gen).map_err(|e| persistence_err("read snapshot", e))?;
        let text = String::from_utf8(bytes).map_err(|e| persistence_err("snapshot utf8", e))?;
        let state: PersistedState =
            serde_json::from_str(&text).map_err(|e| persistence_err("parse snapshot", e))?;
        Controller::from_persisted(state)
    }

    /// The generation this store is currently writing to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The state directory path.
    pub fn path(&self) -> &Path {
        self.dir.path()
    }

    /// Sets how many WAL records accumulate before
    /// [`StateStore::maybe_checkpoint`] compacts (`0` disables automatic
    /// checkpoints).
    pub fn set_snapshot_every(&mut self, every: u64) {
        self.snapshot_every = every;
    }

    /// Forces the group-commit buffer to disk — a hard durability barrier
    /// for shutdown paths and tests.
    ///
    /// # Errors
    ///
    /// [`CoreError::Persistence`] on flush failure.
    pub fn sync(&self) -> Result<(), CoreError> {
        self.writer.sync().map_err(|e| persistence_err("sync wal", e))
    }

    /// Writes a compacting snapshot of the controller's current state and
    /// rotates the WAL to a fresh generation, then purges the generations
    /// below the snapshot recovery started from until now (the last one
    /// loaded or written), which stays as the fallback. The caller must
    /// hold the controller exclusively (`&mut`), which quiesces concurrent
    /// read-path appends for the duration.
    ///
    /// # Errors
    ///
    /// [`CoreError::Persistence`] on serialization or I/O failure; the
    /// store keeps writing to the old generation on error. A snapshot
    /// write or rotation that fails removes the new snapshot, which would
    /// otherwise hide the appends that still go to the old WAL.
    pub fn checkpoint(&mut self, ctl: &mut Controller) -> Result<(), CoreError> {
        let new = self.generation + 1;
        let written = write_snapshot(&self.dir, new, ctl).and_then(|()| {
            self.writer
                .rotate(&self.dir.wal_path(new))
                .map_err(|e| persistence_err("rotate wal", e))
        });
        if let Err(e) = written {
            let _ = self.dir.remove_snapshot(new);
            return Err(e);
        }
        self.generation = new;
        let _ = self.dir.purge_below(self.snapshot);
        self.snapshot = new;
        self.replayed = 0;
        ctl.metrics().inc_counter("controller.persistence.checkpoints");
        Ok(())
    }

    /// Checkpoints when enough WAL records accumulated since the last
    /// snapshot — replayed at open plus appended since (the periodic
    /// compaction driver). Returns whether a checkpoint ran.
    ///
    /// # Errors
    ///
    /// Same as [`StateStore::checkpoint`].
    pub fn maybe_checkpoint(&mut self, ctl: &mut Controller) -> Result<bool, CoreError> {
        let uncompacted = self.replayed + self.writer.appended_since_rotate();
        if self.snapshot_every > 0 && uncompacted >= self.snapshot_every {
            self.checkpoint(ctl)?;
            return Ok(true);
        }
        Ok(false)
    }
}
