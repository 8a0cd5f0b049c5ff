//! Crash-recovery scenarios on the virtual clock.
//!
//! The same seeded schedules the [`World`](crate::World) runs, but driven
//! against a **durable** controller (a [`StateStore`] under a scratch
//! directory): the run is cut short at an arbitrary op — transports
//! killed mid-burst, no shutdown checkpoint, exactly what `kill -9` at a
//! bad moment leaves behind — and recovery must rebuild a controller
//! whose persisted image is bit-identical to the pre-crash one (modulo
//! per-decision wall timings, which no two runs share).
//!
//! The fingerprint here is deliberately the *whole* [`PersistedState`] —
//! sessions, lease deadlines, journal cursor, pending coalescing windows,
//! applied configurations — not just the journal/decision stream, so a
//! recovery that loses any control-plane field fails loudly.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use harmony_client::{HarmonyClient, UpdateDelivery};
use harmony_core::{Controller, CoreError, InstanceId, PersistedState, RecoveryInfo, StateStore};
use harmony_proto::{ChaosTransport, LocalTransport, SharedController};
use harmony_rsl::schema::NodeDecl;
use parking_lot::RwLock;

use crate::config_for_seed;
use crate::schedule::{generate, OpKind, CLIENT_SLOTS};

/// FNV-1a 64 over the canonical JSON of the persisted image, with two
/// ephemeral fields normalized out: per-decision wall timings (no two
/// runs share them) and the controller clock (`set_time` is deliberately
/// not WAL-logged — every event carries its own timestamp and a restarted
/// daemon re-anchors to wall time — so a `set_time` followed by no
/// loggable event is legitimately lost to a crash).
///
/// This is [`PersistedState::recovery_fingerprint`] — the normalization
/// and fold now live in `harmony-core`/`harmony-rng` so `harmony-mc`'s
/// crash-point enumeration compares the identical fingerprint.
pub fn state_fingerprint(state: PersistedState) -> u64 {
    state.recovery_fingerprint()
}

/// What the crashed run looked like the instant before it died.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashedRun {
    /// The seed behind the schedule and configuration.
    pub seed: u64,
    /// Ops executed before the crash.
    pub crash_at: usize,
    /// Ops the full schedule holds.
    pub ops_total: usize,
    /// Fingerprint of the pre-crash persisted image.
    pub fingerprint: u64,
    /// WAL appends logged over the run (current generation only —
    /// checkpoints rotate the counter along with the file).
    pub wal_records: u64,
    /// Sessions live at the crash.
    pub live_sessions: usize,
    /// Pending coalesced re-evaluations at the crash.
    pub pending_decisions: usize,
}

/// What recovery rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRun {
    /// Fingerprint of the recovered persisted image.
    pub fingerprint: u64,
    /// The store's recovery report.
    pub info: RecoveryInfo,
    /// Sessions live after recovery.
    pub live_sessions: usize,
    /// Pending coalesced re-evaluations after recovery.
    pub pending_decisions: usize,
}

struct Slot {
    app: &'static str,
    script: &'static str,
    client: Option<HarmonyClient<ChaosTransport<LocalTransport>>>,
    bundled: bool,
    instance: Option<InstanceId>,
}

/// Runs the first `crash_at` ops of seed's schedule against a durable
/// controller in `dir`, then dies hard: every live transport is killed
/// (so not even drop-time best-effort `end`s escape), the WAL is synced
/// (the group-commit flusher's interval is bounded, so a real crash loses
/// at most that much — the tests pin the boundary exactly), and nothing
/// is checkpointed. `crash_at = None` cuts at the schedule midpoint;
/// `snapshot_every > 0` enables automatic compaction, so recovery
/// exercises snapshot-plus-tail replay rather than pure WAL replay.
pub fn crash_run(
    seed: u64,
    crash_at: Option<usize>,
    snapshot_every: u64,
    dir: &Path,
) -> CrashedRun {
    let schedule = generate(seed);
    let cut = crash_at.unwrap_or(schedule.ops.len() / 2).min(schedule.ops.len());

    let fresh = move || {
        let cluster = harmony_resources::Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(
            usize::from(crate::schedule::NODE_COUNT),
        ))
        .expect("sp2 cluster parses");
        Controller::new(cluster, config_for_seed(seed))
    };
    let (ctl, mut store) = StateStore::open(dir, fresh).expect("open scratch state dir");
    store.set_snapshot_every(snapshot_every);
    let ctl: SharedController = Arc::new(RwLock::new(ctl));

    let mut slots: Vec<Slot> = (0..usize::from(CLIENT_SLOTS))
        .map(|i| {
            let (app, script) = if i.is_multiple_of(2) {
                ("bag", harmony_rsl::listings::FIG2B_BAG)
            } else {
                ("simple", harmony_rsl::listings::FIG2A_SIMPLE)
            };
            Slot { app, script, client: None, bundled: false, instance: None }
        })
        .collect();
    let mut evicted: std::collections::BTreeMap<String, NodeDecl> = Default::default();

    for op in &schedule.ops[..cut] {
        let now = op.at_ms as f64 / 1000.0;
        ctl.write().set_time(now);
        match &op.kind {
            OpKind::Start { client } => {
                let slot = &mut slots[usize::from(*client)];
                if slot.client.is_none() {
                    let t = ChaosTransport::new(LocalTransport::new(Arc::clone(&ctl)));
                    if let Ok(cl) = HarmonyClient::startup(t, slot.app, UpdateDelivery::Polling) {
                        slot.instance = Some(InstanceId::new(cl.app(), cl.instance_id()));
                        slot.client = Some(cl);
                    }
                    slot.bundled = false;
                }
            }
            OpKind::AddBundle { client } => {
                let slot = &mut slots[usize::from(*client)];
                if !slot.bundled {
                    if let Some(cl) = slot.client.as_mut() {
                        if cl.bundle_setup(slot.script).is_ok() {
                            slot.bundled = true;
                        }
                    }
                }
            }
            OpKind::Poll { client } => {
                if let Some(cl) = slots[usize::from(*client)].client.as_mut() {
                    let _ = cl.poll();
                }
            }
            OpKind::Heartbeat { client } => {
                if let Some(cl) = slots[usize::from(*client)].client.as_mut() {
                    let _ = cl.heartbeat();
                }
            }
            OpKind::Metric { client, millis } => {
                if let Some(cl) = slots[usize::from(*client)].client.as_mut() {
                    let _ = cl.report_metric("response_time", now, f64::from(*millis) / 1000.0);
                }
            }
            OpKind::FaultedPoll { client, fault } => {
                if let Some(cl) = slots[usize::from(*client)].client.as_mut() {
                    cl.transport_mut().inject((*fault).into());
                    let _ = cl.poll();
                }
            }
            OpKind::End { client } => {
                let slot = &mut slots[usize::from(*client)];
                if let Some(cl) = slot.client.take() {
                    let _ = cl.end();
                    slot.bundled = false;
                }
            }
            OpKind::Crash { client } => {
                let slot = &mut slots[usize::from(*client)];
                if let Some(mut cl) = slot.client.take() {
                    cl.transport_mut().kill();
                    drop(cl);
                    slot.bundled = false;
                }
            }
            OpKind::MarkDisconnected { client } => {
                if let Some(id) = slots[usize::from(*client)].instance.clone() {
                    ctl.write().mark_disconnected(&id);
                }
            }
            OpKind::Reap => {
                let _ = ctl.write().reap_expired(now);
            }
            OpKind::Tick => {
                let _ = ctl.write().service_scheduler(now);
            }
            // A durable run has exactly one server death — the crash this
            // driver is about — so the schedule's soft-restart op is a
            // no-op here (subsequences stay valid either way).
            OpKind::Restart => {}
            OpKind::Flush => {
                let _ = ctl.write().flush_scheduler();
            }
            OpKind::NodeLeft { node } => {
                let name = format!("node{node:02}");
                let decl = {
                    let g = ctl.read();
                    if g.cluster().len() <= 4 {
                        None
                    } else {
                        g.cluster().node(&name).map(|state| state.decl.clone())
                    }
                };
                if let Some(decl) = decl {
                    if ctl
                        .write()
                        .handle_event(harmony_core::HarmonyEvent::NodeLeft { name: name.clone() })
                        .is_ok()
                    {
                        evicted.insert(name, decl);
                    }
                }
            }
            OpKind::NodeRejoin { node } => {
                let name = format!("node{node:02}");
                if let Some(decl) = evicted.remove(&name) {
                    let _ = ctl.write().handle_event(harmony_core::HarmonyEvent::NodeJoined(decl));
                }
            }
        }
        // The production daemon checkpoints on its periodic pass; one
        // check per op is the virtual-clock equivalent.
        let mut guard = ctl.write();
        let _ = store.maybe_checkpoint(&mut guard);
    }

    // The crash: transports die first, so the clients' drop-time
    // best-effort `end`s hit dead sockets instead of mutating the state
    // we are about to fingerprint.
    for slot in &mut slots {
        if let Some(mut cl) = slot.client.take() {
            cl.transport_mut().kill();
            drop(cl);
        }
    }
    let guard = ctl.read();
    let run = CrashedRun {
        seed,
        crash_at: cut,
        ops_total: schedule.ops.len(),
        fingerprint: state_fingerprint(guard.persisted_state()),
        wal_records: guard.metrics().counter("controller.persistence.appends"),
        live_sessions: guard.sessions().count(),
        pending_decisions: guard.pending_decisions(),
    };
    drop(guard);
    store.sync().expect("sync wal before dying");
    run
}

/// Reopens `dir` and reports what recovery rebuilt. Fails (rather than
/// silently starting fresh) when the directory holds no trustworthy
/// state.
///
/// # Errors
///
/// [`CoreError::Persistence`] exactly when [`StateStore::open`] refuses:
/// corrupted non-tail WAL records, no loadable snapshot, unreadable
/// directory.
pub fn recover(dir: &Path) -> Result<RecoveredRun, CoreError> {
    let (ctl, store) =
        StateStore::open(dir, || panic!("recovery must find prior state, not start fresh"))?;
    drop(store);
    Ok(RecoveredRun {
        fingerprint: state_fingerprint(ctl.persisted_state()),
        info: ctl.recovery_info().expect("state store sets recovery info"),
        live_sessions: ctl.sessions().count(),
        pending_decisions: ctl.pending_decisions(),
    })
}

/// The newest-generation WAL file in `dir` — the one recovery will
/// replay, and the one the corruption tests mutilate.
pub fn newest_wal(dir: &Path) -> Option<PathBuf> {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    wals.sort();
    wals.pop()
}
