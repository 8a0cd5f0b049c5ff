//! Crash-recovery scenarios on the virtual clock.
//!
//! The same seeded schedules the [`World`] runs, executed by the same
//! `World` and held to the same per-op oracles, but over a **durable**
//! controller (a [`StateStore`] under a scratch directory): the run is
//! cut short at an arbitrary op — transports
//! killed mid-burst, no shutdown checkpoint, exactly what `kill -9` at a
//! bad moment leaves behind — and recovery must rebuild a controller
//! whose persisted image is bit-identical to the pre-crash one (modulo
//! the controller clock, which `recovery_fingerprint` zeroes).
//!
//! The fingerprint here is deliberately the *whole* `PersistedState` —
//! sessions, lease deadlines, journal cursor, pending coalescing windows,
//! applied configurations — not just the journal/decision stream, so a
//! recovery that loses any control-plane field fails loudly.

use std::path::Path;

use harmony_core::{CoreError, RecoveryInfo, StateStore};

use crate::schedule::generate;
use crate::{config_for_seed, PlantedBug, World};

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

    let fresh = || World::fresh_controller(&config_for_seed(seed));
    let (ctl, mut store) = StateStore::open(dir, fresh).expect("open scratch state dir");
    store.set_snapshot_every(snapshot_every);
    let mut world = World::over(ctl, PlantedBug::None, true);
    for (i, op) in schedule.ops[..cut].iter().enumerate() {
        if let Err(v) = world.step(i, op) {
            panic!("seed {seed}: the durable run violates an oracle: {v:?}");
        }
        // The production daemon checkpoints on its periodic pass; one
        // check per op is the virtual-clock equivalent.
        let _ = store.maybe_checkpoint(&mut world.controller().write());
    }

    // The crash: transports die first, so the clients' drop-time
    // best-effort `end`s hit dead sockets instead of mutating the state
    // we are about to fingerprint.
    world.kill_clients();
    let guard = world.controller().read();
    let run = CrashedRun {
        seed,
        crash_at: cut,
        ops_total: schedule.ops.len(),
        fingerprint: guard.persisted_state().recovery_fingerprint(),
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
        fingerprint: ctl.persisted_state().recovery_fingerprint(),
        info: ctl.recovery_info().expect("state store sets recovery info"),
        live_sessions: ctl.sessions().count(),
        pending_decisions: ctl.pending_decisions(),
    })
}
