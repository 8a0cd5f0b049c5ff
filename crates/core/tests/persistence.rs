//! Crash-consistent persistence: WAL replay and snapshot+tail recovery
//! must reproduce the crashed controller's control-plane state exactly —
//! same session ids, same lease deadlines, same journal sequence numbers,
//! same decisions — and persistence-off behavior must be bit-for-bit
//! identical to the seed.

use std::path::PathBuf;
use std::sync::Arc;

use harmony_core::persist::DEFAULT_SNAPSHOT_EVERY;
use harmony_core::{
    CoalescePolicy, Controller, ControllerConfig, CoreError, HarmonyEvent, InstanceId,
    PersistedState, StateStore, WalEvent,
};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2A_SIMPLE, FIG2B_BAG};
use harmony_rsl::schema::{parse_bundle_script, NodeDecl};
use harmony_wal::{read_wal, WalConfig, WalTail, WalWriter};
use proptest::prelude::*;

/// A unique scratch directory under the OS temp dir (no tempfile crate in
/// the workspace). Cleaned up on a best-effort basis at the start of each
/// run so repeated test invocations stay independent.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fresh_controller() -> Controller {
    Controller::new(Cluster::from_rsl(&sp2_cluster(8)).unwrap(), ControllerConfig::default())
}

fn coalescing_controller() -> Controller {
    let config = ControllerConfig {
        coalesce: CoalescePolicy { window: 0.5, max_delay: 5.0, max_pending: 64 },
        ..Default::default()
    };
    Controller::new(Cluster::from_rsl(&sp2_cluster(8)).unwrap(), config)
}

/// Drives a representative mix of state-changing verbs: registrations,
/// bundle setup, metric traffic, heartbeats, a disconnect + reattach, an
/// explicit end, and a lease sweep.
fn drive(c: &mut Controller) {
    c.set_time(1.0);
    let (a, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    c.set_time(2.0);
    let b = c.startup("bag");
    c.handle_event(HarmonyEvent::BundleSetup { instance: b.clone(), script: FIG2B_BAG.into() })
        .unwrap();
    c.set_time(3.0);
    for i in 0..4 {
        c.record_metric(&format!("{a}.response_time"), 3.0 + i as f64 * 0.1, 12.0 + i as f64);
    }
    assert!(c.renew_lease(&a));
    c.set_time(4.0);
    c.mark_disconnected(&b);
    c.reattach(&b).unwrap();
    let _ = c.take_pending_vars(&b);
    c.set_time(5.0);
    c.touch(&a);
    c.end(&b).unwrap();
    c.handle_event(HarmonyEvent::Periodic).unwrap();
}

/// The state fingerprint used for replay-equivalence assertions: the full
/// persisted image, which holds no wall-clock measurement.
fn fingerprint(state: PersistedState) -> String {
    serde_json::to_string(&state).unwrap()
}

#[test]
fn fresh_start_attaches_wal_and_reports_recovery() {
    let dir = scratch("fresh");
    let (ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    assert!(ctl.wal_attached());
    let info = ctl.recovery_info().unwrap();
    assert_eq!(info.generation, 1);
    assert_eq!(info.snapshot_loaded, None);
    assert_eq!(info.replayed, 0);
    assert!(!info.torn_tail);
    assert_eq!(store.generation(), 1);
    assert!(dir.join("harmony-00000001.snap").exists());
    assert!(dir.join("harmony-00000001.wal").exists());
}

#[test]
fn wal_replay_reproduces_crashed_state() {
    let dir = scratch("replay");
    let (mut ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    let before = fingerprint(ctl.persisted_state());
    let appends = ctl.metrics().counter("controller.persistence.appends");
    assert!(appends > 0, "driving must log WAL events");
    assert_eq!(
        ctl.metrics().counter("controller.persistence.append_errors"),
        0,
        "no append may fail"
    );
    store.sync().unwrap();
    drop((ctl, store));

    let (recovered, _store) =
        StateStore::open(&dir, || panic!("prior state exists; fresh() must not run")).unwrap();
    let info = recovered.recovery_info().unwrap();
    assert_eq!(info.snapshot_loaded, Some(1));
    assert_eq!(info.replayed, appends, "every logged event replays");
    assert!(!info.torn_tail);
    assert_eq!(fingerprint(recovered.persisted_state()), before);
}

#[test]
fn sessions_journal_and_registry_survive_recovery() {
    let dir = scratch("sessions");
    let (mut ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    let sessions: Vec<_> = ctl.sessions().map(|(id, s)| (id.clone(), s.clone())).collect();
    let next_seq = ctl.journal_seq();
    assert!(!sessions.is_empty());
    store.sync().unwrap();
    drop((ctl, store));

    let (mut recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let got: Vec<_> = recovered.sessions().map(|(id, s)| (id.clone(), s.clone())).collect();
    assert_eq!(got, sessions, "session ids, deadlines, and renewal counts survive");
    assert_eq!(recovered.journal_seq(), next_seq, "journal numbering continues, not restarts");
    // The id allocator recovered too: a new registration must not collide
    // with `bag.1` / `bag.2` from before the crash.
    let fresh_id = recovered.startup("bag");
    assert_eq!(fresh_id.to_string(), "bag.3");
}

#[test]
fn snapshot_plus_tail_replay_is_lossless() {
    let dir = scratch("snaptail");
    let (mut ctl, mut store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    store.checkpoint(&mut ctl).unwrap();
    assert_eq!(store.generation(), 2);
    // Post-checkpoint traffic lands in the new generation's WAL tail.
    ctl.set_time(6.0);
    let (c, _) = ctl.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    ctl.record_metric(&format!("{c}.response_time"), 6.5, 9.0);
    assert!(ctl.renew_lease(&c));
    let before = fingerprint(ctl.persisted_state());
    store.sync().unwrap();
    drop((ctl, store));

    let (recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let info = recovered.recovery_info().unwrap();
    assert_eq!(info.snapshot_loaded, Some(2), "recovery starts from the checkpoint");
    assert!(info.replayed >= 3, "the tail after the checkpoint replays");
    assert_eq!(fingerprint(recovered.persisted_state()), before);
}

#[test]
fn torn_final_record_is_tolerated() {
    let dir = scratch("torn");
    let (mut ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    let before = fingerprint(ctl.persisted_state());
    store.sync().unwrap();
    drop((ctl, store));

    // Simulate a crash mid-append: a partial record (header promising more
    // bytes than exist) at the end of the live WAL.
    let wal = dir.join("harmony-00000001.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&64u32.to_le_bytes()); // len: 64 payload bytes...
    bytes.extend_from_slice(&0u32.to_le_bytes()); // bogus crc
    bytes.extend_from_slice(b"partial"); // ...but only 7 present
    std::fs::write(&wal, bytes).unwrap();

    let (recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let info = recovered.recovery_info().unwrap();
    assert!(info.torn_tail, "the discarded tail is reported");
    assert_eq!(fingerprint(recovered.persisted_state()), before, "complete records all replay");
}

#[test]
fn corrupt_middle_record_refuses_recovery() {
    let dir = scratch("corrupt");
    let (mut ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    store.sync().unwrap();
    drop((ctl, store));

    // Flip a payload byte of the FIRST record: valid records follow, so
    // this is silent corruption, not a torn write — recovery must refuse
    // rather than replay a prefix and silently lose the suffix.
    let wal = dir.join("harmony-00000001.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[8] ^= 0xff;
    std::fs::write(&wal, bytes).unwrap();

    let err = StateStore::open(&dir, fresh_controller).unwrap_err();
    match err {
        CoreError::Persistence { detail } => {
            assert!(detail.contains("corrupted"), "unexpected detail: {detail}");
        }
        other => panic!("expected Persistence error, got {other:?}"),
    }
}

#[test]
fn unreadable_snapshot_falls_back_to_previous_generation() {
    let dir = scratch("fallback");
    let (mut ctl, mut store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    store.checkpoint(&mut ctl).unwrap();
    let before = fingerprint(ctl.persisted_state());
    store.sync().unwrap();
    drop((ctl, store));

    // Generation 2's snapshot is damaged; generation 1's snapshot + WAL
    // still reconstruct the same state (the checkpoint was lossless, so
    // both roads lead to the same place).
    std::fs::write(dir.join("harmony-00000002.snap"), b"{ not json").unwrap();
    let (recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let info = recovered.recovery_info().unwrap();
    assert_eq!(info.snapshot_loaded, Some(1), "fell back past the damaged snapshot");
    assert_eq!(fingerprint(recovered.persisted_state()), before);
}

/// Checkpoints after [`drive`], registers one more instance into the new
/// generation's WAL, syncs, and damages the new snapshot. Returns the live
/// image: recovery must fall back to generation 1 and still reach it.
fn checkpoint_then_damage_the_new_snapshot(dir: &std::path::Path) -> String {
    let (mut ctl, mut store) = StateStore::open(dir, fresh_controller).unwrap();
    drive(&mut ctl);
    store.checkpoint(&mut ctl).unwrap();
    ctl.set_time(6.0);
    ctl.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    assert_eq!(ctl.sessions().count(), 2);
    let live = fingerprint(ctl.persisted_state());
    store.sync().unwrap();
    drop((ctl, store));
    std::fs::write(dir.join("harmony-00000002.snap"), b"{ not json").unwrap();
    live
}

#[test]
fn fallback_past_a_damaged_snapshot_keeps_the_newer_wal() {
    let dir = scratch("fallback-chain");
    let live = checkpoint_then_damage_the_new_snapshot(&dir);
    let (recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let info = recovered.recovery_info().unwrap();
    assert_eq!(info.snapshot_loaded, Some(1), "fell back past the damaged snapshot");
    assert_eq!(recovered.sessions().count(), 2, "the command logged in WAL 2 replays");
    assert_eq!(fingerprint(recovered.persisted_state()), live);
}

#[test]
fn a_torn_wal_before_a_later_generation_refuses_recovery() {
    let dir = scratch("torn-chain");
    checkpoint_then_damage_the_new_snapshot(&dir);
    // WAL 1 ends torn, yet WAL 2 follows it: a record in mid-history is
    // lost, and replaying WAL 2 on top would skip it silently.
    let wal = dir.join("harmony-00000001.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&64u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(b"partial");
    std::fs::write(&wal, bytes).unwrap();

    match StateStore::open(&dir, fresh_controller) {
        Err(CoreError::Persistence { detail }) => {
            assert!(detail.contains("ends torn"), "unexpected detail: {detail}");
        }
        Err(other) => panic!("expected a Persistence error, got {other:?}"),
        Ok((ctl, _)) => panic!("recovery must refuse, got {:?}", ctl.recovery_info()),
    }
}

/// A two-instance image with something in every per-instance field: an
/// unfolded touch on `bag.1`, an undrained poll buffer on both.
fn two_instance_image() -> PersistedState {
    let mut c = fresh_controller();
    let (a, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    c.set_time(1.0);
    c.touch(&a);
    let state = c.persisted_state();
    assert_eq!((state.apps.len(), state.touches.len(), state.pending_vars.len()), (2, 1, 2));
    state
}

/// Ways the five per-instance fields of a snapshot can disagree, each a
/// mutation of a real image. `from_persisted` is the one place that
/// decides, and it refuses every one of them.
type Disagreement = (&'static str, fn(&mut PersistedState));
const DISAGREEMENTS: [Disagreement; 7] = [
    ("an app without a session", |s| drop(s.sessions.remove(0))),
    ("a session without an app", |s| {
        s.sessions.push((InstanceId::new("ghost", 9), s.sessions[0].1.clone()))
    }),
    ("an arrival entry without an app", |s| s.arrival_order.push(InstanceId::new("ghost", 9))),
    ("an app missing from arrival order", |s| drop(s.arrival_order.remove(1))),
    ("an instance arriving twice", |s| s.arrival_order.push(s.arrival_order[0].clone())),
    ("a pending buffer for an unknown id", |s| {
        s.pending_vars.push((InstanceId::new("ghost", 9), Vec::new()))
    }),
    ("a touch stamp for an unknown id", |s| {
        s.touches.push((InstanceId::new("ghost", 9), 1.0f64.to_bits()))
    }),
];

#[test]
fn from_persisted_rejects_snapshots_whose_instance_fields_disagree() {
    let image = two_instance_image();
    let reloaded = Controller::from_persisted(image.clone()).expect("the real image loads");
    assert_eq!(fingerprint(reloaded.persisted_state()), fingerprint(image.clone()));
    for (what, mutate) in DISAGREEMENTS {
        let mut state = image.clone();
        mutate(&mut state);
        match Controller::from_persisted(state) {
            Err(CoreError::Persistence { .. }) => {}
            other => panic!("{what}: expected a Persistence error, got {other:?}"),
        }
    }
}

#[test]
fn inconsistent_newest_snapshot_falls_back_to_previous_generation() {
    let dir = scratch("fallback-inconsistent");
    let (mut ctl, mut store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    store.checkpoint(&mut ctl).unwrap();
    let before = fingerprint(ctl.persisted_state());
    let mut state = ctl.persisted_state();
    store.sync().unwrap();
    drop((ctl, store));

    // Generation 2 parses, but an app lost its session: an instance the
    // reaper could never see. Generation 1 + its WAL lead to the same place.
    state.sessions.clear();
    let bytes = serde_json::to_string(&state).unwrap();
    harmony_wal::StateDir::open(&dir).unwrap().write_snapshot(2, bytes.as_bytes()).unwrap();
    let (recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    assert_eq!(recovered.recovery_info().unwrap().snapshot_loaded, Some(1));
    assert_eq!(fingerprint(recovered.persisted_state()), before);
}

/// Keys this build no longer writes (`respect_granularity`, `pruning_ms`)
/// still load from snapshots and WALs written before they went.
#[test]
fn retired_keys_in_old_snapshots_and_wals_are_ignored() {
    let config = serde_json::to_string(&ControllerConfig::default()).unwrap();
    let old = config.replacen('{', r#"{"respect_granularity":true,"#, 1);
    assert_eq!(
        serde_json::from_str::<ControllerConfig>(&old).unwrap(),
        ControllerConfig::default()
    );
    let phases: harmony_core::PhaseTimings =
        serde_json::from_str(r#"{"candidates_ms":1.0,"pruning_ms":0.0,"commit_ms":2.0}"#).unwrap();
    assert_eq!((phases.candidates_ms, phases.commit_ms), (1.0, 2.0));
}

#[test]
fn all_snapshots_damaged_refuses_fresh_start() {
    let dir = scratch("refuse");
    let (mut ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    store.sync().unwrap();
    drop((ctl, store));

    std::fs::write(dir.join("harmony-00000001.snap"), b"{ not json").unwrap();
    let err = StateStore::open(&dir, fresh_controller).unwrap_err();
    match err {
        CoreError::Persistence { detail } => {
            assert!(detail.contains("refusing to discard prior state"), "got: {detail}");
        }
        other => panic!("expected Persistence error, got {other:?}"),
    }
}

#[test]
fn automatic_checkpoints_rotate_and_purge() {
    let dir = scratch("rotate");
    let (mut ctl, mut store) = StateStore::open(&dir, fresh_controller).unwrap();
    store.set_snapshot_every(5);
    drive(&mut ctl); // well over 5 appends
    assert!(store.maybe_checkpoint(&mut ctl).unwrap());
    assert_eq!(store.generation(), 2);
    // The previous pair is kept as a fallback; nothing older exists yet.
    assert!(dir.join("harmony-00000001.snap").exists());
    assert!(dir.join("harmony-00000002.snap").exists());
    // Below the threshold nothing rotates.
    assert!(!store.maybe_checkpoint(&mut ctl).unwrap());
    // Another busy window rotates again and generation 1 ages out.
    drive_more(&mut ctl);
    assert!(store.maybe_checkpoint(&mut ctl).unwrap());
    assert_eq!(store.generation(), 3);
    assert!(!dir.join("harmony-00000001.snap").exists(), "two-generation retention");
    assert!(dir.join("harmony-00000002.snap").exists());
    store.sync().unwrap();
    drop((ctl, store));
    StateStore::open(&dir, fresh_controller).unwrap();
}

#[test]
fn a_failed_rotation_loses_no_acknowledged_command() {
    let dir = scratch("failed-rotation");
    let (mut ctl, mut store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    // Generation 2's WAL cannot be created: a directory holds its name.
    let blocked = dir.join("harmony-00000002.wal");
    std::fs::create_dir(&blocked).unwrap();
    assert!(store.checkpoint(&mut ctl).is_err(), "the rotation must fail");
    std::fs::remove_dir(&blocked).unwrap();
    assert_eq!(store.generation(), 1, "the store keeps writing generation 1");
    // Acknowledged after the failed checkpoint, so it lands in WAL 1.
    ctl.set_time(6.0);
    ctl.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    assert_eq!(ctl.sessions().count(), 2);
    let live = fingerprint(ctl.persisted_state());
    store.sync().unwrap();
    drop((ctl, store));

    let (recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let info = recovered.recovery_info().unwrap();
    assert_eq!(info.snapshot_loaded, Some(1), "no snapshot of generation 2 is left");
    assert_eq!(recovered.sessions().count(), 2);
    assert_eq!(fingerprint(recovered.persisted_state()), live);
}

/// The names of the files in `dir`, sorted.
fn files_in(dir: &std::path::Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap();
    let mut names: Vec<String> =
        entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    names.sort();
    names
}

/// One life of a daemon on `dir`: open, `startups` startups (one record
/// each), each a second after the last, sync, drop. Returns the recovery
/// report and the live image at the end.
fn startup_life(dir: &std::path::Path, startups: u64) -> (harmony_core::RecoveryInfo, String) {
    let (mut ctl, store) = StateStore::open(dir, fresh_controller).unwrap();
    let info = ctl.recovery_info().unwrap();
    for _ in 0..startups {
        ctl.set_time(ctl.now() + 1.0);
        ctl.startup("bag");
    }
    assert_eq!(ctl.metrics().counter("controller.persistence.appends"), startups);
    let live = fingerprint(ctl.persisted_state());
    store.sync().unwrap();
    (info, live)
}

#[test]
fn restarts_continue_the_last_wal_and_write_no_snapshot() {
    let dir = scratch("lives");
    let (_, mut live) = startup_life(&dir, 3);
    let first = files_in(&dir);
    assert_eq!(first, ["harmony-00000001.snap", "harmony-00000001.wal"]);
    for life in 1..5u64 {
        let (mut ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
        let info = ctl.recovery_info().unwrap();
        assert_eq!(fingerprint(ctl.persisted_state()), live, "life {life} recovers the last");
        assert_eq!((info.snapshot_loaded, info.generation, store.generation()), (Some(1), 1, 1));
        assert_eq!(info.replayed, 3 + 2 * (life - 1), "life {life} replays every record");
        ctl.set_time(ctl.now() + 1.0);
        ctl.startup("bag");
        ctl.startup("simple");
        live = fingerprint(ctl.persisted_state());
        store.sync().unwrap();
        drop((ctl, store));
        assert_eq!(files_in(&dir), first, "life {life} writes no snapshot or generation");
    }
}

#[test]
fn a_torn_tail_is_cut_before_the_next_life_appends() {
    let dir = scratch("torn-lives");
    let (mut ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    let first = ctl.metrics().counter("controller.persistence.appends");
    store.sync().unwrap();
    drop((ctl, store));
    let wal = dir.join("harmony-00000001.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&64u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(b"partial");
    std::fs::write(&wal, bytes).unwrap();

    let (info, live) = startup_life(&dir, 2);
    assert!(info.torn_tail);
    let (mut ctl, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let info = ctl.recovery_info().unwrap();
    assert!(!info.torn_tail, "the torn record was cut, not buried under new ones");
    assert_eq!(info.replayed, first + 2);
    assert_eq!(fingerprint(ctl.persisted_state()), live);
    assert_eq!(ctl.startup("bag").to_string(), "bag.5", "the ids go on where they stopped");
}

#[test]
fn the_checkpoint_counter_carries_across_restarts() {
    let dir = scratch("carried");
    for life in 0..2 {
        let (mut ctl, mut store) = StateStore::open(&dir, fresh_controller).unwrap();
        store.set_snapshot_every(10);
        for _ in 0..6 {
            ctl.set_time(ctl.now() + 1.0);
            ctl.startup("bag");
        }
        let checkpointed = store.maybe_checkpoint(&mut ctl).unwrap();
        assert_eq!(checkpointed, life == 1, "6 replayed + 6 appended reach 10 in life {life}");
        store.sync().unwrap();
    }
    let (ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    let info = ctl.recovery_info().unwrap();
    assert_eq!((info.snapshot_loaded, info.replayed, store.generation()), (Some(2), 0, 2));
    assert_eq!(ctl.sessions().count(), 12);
}

#[test]
fn a_checkpoint_after_a_fallback_keeps_the_snapshot_it_fell_back_to() {
    let dir = scratch("fallback-checkpoint");
    checkpoint_then_damage_the_new_snapshot(&dir);
    let (mut ctl, mut store) = StateStore::open(&dir, fresh_controller).unwrap();
    assert_eq!(ctl.recovery_info().unwrap().snapshot_loaded, Some(1));
    assert_eq!(store.generation(), 2, "appends continue in WAL 2");
    store.checkpoint(&mut ctl).unwrap();
    ctl.set_time(7.0);
    ctl.startup("simple");
    let live = fingerprint(ctl.persisted_state());
    store.sync().unwrap();
    drop((ctl, store));

    // Snapshot 2 is damaged and now snapshot 3 too: only generation 1's
    // snapshot, with WALs 1 to 3, still holds the history.
    std::fs::write(dir.join("harmony-00000003.snap"), b"{ not json").unwrap();
    let (recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    assert_eq!(recovered.recovery_info().unwrap().snapshot_loaded, Some(1));
    assert_eq!(fingerprint(recovered.persisted_state()), live);
}

#[test]
fn a_snapshot_temp_left_by_a_crash_is_removed() {
    let dir = scratch("snap-tmp");
    let (mut ctl, store) = StateStore::open(&dir, fresh_controller).unwrap();
    drive(&mut ctl);
    let live = fingerprint(ctl.persisted_state());
    store.sync().unwrap();
    drop((ctl, store));
    // A checkpoint died between writing its temp file and the rename.
    let tmp = dir.join("harmony-00000002.snap.tmp");
    std::fs::write(&tmp, b"{ half a snapshot").unwrap();

    let (recovered, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    assert!(!tmp.exists(), "open removes the temp file");
    assert_eq!(files_in(&dir), ["harmony-00000001.snap", "harmony-00000001.wal"]);
    assert_eq!(recovered.recovery_info().unwrap().snapshot_loaded, Some(1));
    assert_eq!(fingerprint(recovered.persisted_state()), live);
}

fn drive_more(c: &mut Controller) {
    c.set_time(c.now() + 1.0);
    let (id, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    for _ in 0..6 {
        c.set_time(c.now() + 0.1);
        c.touch(&id);
    }
}

#[test]
fn persistence_off_is_bit_identical() {
    // The same verb sequence through a WAL-attached controller and a plain
    // one must produce identical control-plane state: the hooks only
    // observe, never steer.
    let dir = scratch("identical");
    let (mut with_wal, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let mut plain = fresh_controller();
    drive(&mut with_wal);
    drive(&mut plain);
    assert_eq!(fingerprint(with_wal.persisted_state()), fingerprint(plain.persisted_state()));
}

#[test]
fn pending_coalescing_window_survives_a_crash() {
    let dir = scratch("window");
    let (mut ctl, store) = StateStore::open(&dir, coalescing_controller).unwrap();
    ctl.set_time(1.0);
    // A burst of arrivals inside one coalescing window: marks accumulate,
    // no decision fires yet.
    let (a, _) = ctl.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    ctl.startup("bag");
    assert!(ctl.pending_decisions() > 0, "window still open");
    assert!(a.to_string().starts_with("bag."));
    store.sync().unwrap();
    drop((ctl, store));

    // kill -9 mid-window: the recovered controller still owes the flush.
    let (mut recovered, _store) = StateStore::open(&dir, coalescing_controller).unwrap();
    assert!(recovered.pending_decisions() > 0, "pending window survives recovery");
    let seq_before = recovered.journal_seq();
    recovered.service_scheduler(100.0).unwrap();
    assert_eq!(recovered.pending_decisions(), 0, "the recovered window fired");
    assert_eq!(recovered.metrics().counter("controller.scheduler.windows_fired"), 1);
    assert!(recovered.journal_seq() > seq_before, "the fire was journaled");
}

// Checkpoints must not thrash the hot path.
const _: () = assert!(DEFAULT_SNAPSHOT_EVERY >= 1024);

/// The instances generated commands address — the ids the registry hands
/// out on each app's first startups — with their listings-palette bundle.
const SLOTS: [(&str, u64, &str); 3] =
    [("bag", 1, FIG2B_BAG), ("simple", 1, FIG2A_SIMPLE), ("bag", 2, FIG2B_BAG)];

/// One generated command. Startups and bundles are over-weighted so the
/// other verbs usually find their instance; the rest land on unknown,
/// ended, or reaped ids often enough to cover the error paths too.
fn command(kind: usize, slot: usize, sample: usize, now: f64) -> WalEvent {
    let (app, n, script) = SLOTS[slot];
    let id = InstanceId::new(app, n);
    let node = |event| WalEvent::Event { now, event };
    match kind {
        0..=2 => WalEvent::Startup { now, app: app.to_string() },
        3 | 4 => WalEvent::Bundle { now, id, spec: parse_bundle_script(script).unwrap() },
        5 => WalEvent::Renew { now, id },
        6 => WalEvent::Touch { now, id },
        7 => WalEvent::Poll { now, id },
        8 => WalEvent::Metric {
            now,
            name: format!("{id}.response_time"),
            time: now,
            value: [0.25, 12.0, f64::NAN, f64::INFINITY][sample],
        },
        9 => WalEvent::Disconnect { now, id },
        10 => WalEvent::Reattach { now, id },
        11 => WalEvent::End { now, id },
        12 => WalEvent::Reap { now },
        13 => WalEvent::Reevaluate { now },
        14 => node(HarmonyEvent::NodeLeft { name: "node07".into() }),
        _ => node(HarmonyEvent::NodeJoined(NodeDecl::new("node07", 1.0, 256.0))),
    }
}

/// The unfolded touch stamp of `id` as a snapshot would carry it.
fn unfolded_stamp(c: &Controller, id: &InstanceId) -> Option<u64> {
    c.persisted_state().touches.into_iter().find(|(touched, _)| touched == id).map(|(_, bits)| bits)
}

/// Command sequences with a monotone clock: steps of 0 – 11 s against a
/// 30 s lease, so sessions expire under some sequences and not others.
fn commands() -> impl Strategy<Value = Vec<WalEvent>> {
    prop::collection::vec((0usize..16, 0usize..3, 0usize..4, 0usize..5), 1..40).prop_map(|sketch| {
        let mut now = 0.0;
        sketch
            .into_iter()
            .map(|(kind, slot, sample, step)| {
                now += [0.0, 0.25, 1.0, 4.0, 11.0][step];
                command(kind, slot, sample, now)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Commands are data: any sequence, run live against a WAL, leaves a
    /// log that replays onto a fresh controller to the same durable state,
    /// with exactly one record per command that was not a no-op. Write-path
    /// commands enter through `execute` (always logged); the read-path trio
    /// enters through its own `&self` verbs: touch and poll log when they
    /// change durable state, a metric report never does.
    #[test]
    fn any_command_sequence_replays_to_the_live_state(cmds in commands()) {
        let dir = scratch("commands");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("commands.wal");
        let writer = Arc::new(WalWriter::create(&path, WalConfig::default()).unwrap());
        let mut live = fresh_controller();
        live.attach_wal(Arc::clone(&writer));

        let mut logged = Vec::new();
        for cmd in cmds {
            let variant = cmd.variant();
            live.set_time(cmd.now());
            let was_logged = match cmd {
                // Logged iff it changed durable state: the stamp rose.
                WalEvent::Touch { id, .. } => {
                    let before = unfolded_stamp(&live, &id);
                    live.touch(&id);
                    unfolded_stamp(&live, &id) != before
                }
                WalEvent::Poll { id, .. } => !live.take_pending_vars(&id).is_empty(),
                WalEvent::Metric { name, time, value, .. } => {
                    live.record_metric(&name, time, value);
                    false
                }
                cmd => {
                    let _ = live.execute(cmd);
                    true
                }
            };
            if was_logged {
                logged.push(variant);
            }
        }

        writer.sync().unwrap();
        let read = read_wal(&path).unwrap();
        prop_assert_eq!(read.tail, WalTail::Clean);
        let events: Vec<WalEvent> = read
            .records
            .iter()
            .map(|r| WalEvent::decode(r).unwrap())
            .collect();
        let replayed_variants: Vec<&str> = events.iter().map(WalEvent::variant).collect();
        prop_assert_eq!(replayed_variants, logged);

        let mut replayed = fresh_controller();
        for ev in events {
            replayed.apply_wal_event(ev);
        }
        prop_assert_eq!(
            replayed.persisted_state().recovery_fingerprint(),
            live.persisted_state().recovery_fingerprint()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One step of a read-mostly session, as the wire server issues it:
/// `heartbeat` is a touch, `poll` a touch then a drain, `metric` a touch
/// then a report; the clock moves only on `Advance`.
#[derive(Debug, Clone, Copy)]
enum SessionOp {
    Advance(f64),
    Heartbeat(usize),
    Poll(usize),
    Metric(usize),
    Renew(usize),
    Reap,
    End(usize),
}

/// Mostly read-path verbs, several per clock value, with enough advances
/// (up to 11 s against the 30 s lease), reaps and ends that stamps get
/// folded, sessions expire and later touches land on unknown ids.
fn session_ops() -> impl Strategy<Value = Vec<SessionOp>> {
    prop::collection::vec((0usize..12, 0usize..3, 0usize..4), 1..60).prop_map(|sketch| {
        sketch
            .into_iter()
            .map(|(kind, slot, step)| match kind {
                0 | 1 => SessionOp::Advance([0.25, 1.0, 4.0, 11.0][step]),
                2..=4 => SessionOp::Heartbeat(slot),
                5 | 6 => SessionOp::Poll(slot),
                7 | 8 => SessionOp::Metric(slot),
                9 => SessionOp::Renew(slot),
                10 => SessionOp::Reap,
                _ => SessionOp::End(slot),
            })
            .collect()
    })
}

fn replay(events: &[WalEvent]) -> u64 {
    let mut ctl = fresh_controller();
    for ev in events {
        ctl.apply_wal_event(ev.clone());
    }
    ctl.persisted_state().recovery_fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Elided log ≡ verbose log ≡ live. The records a live run captures
    /// (a `Touch` only where the stamp rose, no metric report) and the log
    /// a build that logged *every* touch and report would have written for
    /// the same run both replay to the live durable state — so eliding is
    /// invisible to recovery, and a WAL written before the elision still
    /// loads.
    #[test]
    fn elided_and_verbose_touch_logs_replay_to_the_live_state(ops in session_ops()) {
        let dir = scratch("elision");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("elision.wal");
        let writer = Arc::new(WalWriter::create(&path, WalConfig::default()).unwrap());
        let mut live = fresh_controller();
        live.attach_wal(Arc::clone(&writer));

        // `verbose` is the log an older build wrote for the same run, built
        // alongside: one record per touch, and one per metric report.
        let mut verbose = Vec::new();
        let execute = |live: &mut Controller, verbose: &mut Vec<WalEvent>, ev: WalEvent| {
            verbose.push(ev.clone());
            let _ = live.execute(ev);
        };
        let touch = |live: &Controller, verbose: &mut Vec<WalEvent>, id: &InstanceId| {
            if live.touch(id) {
                verbose.push(WalEvent::Touch { now: live.now(), id: id.clone() });
            }
        };
        for (app, n, script) in SLOTS {
            execute(&mut live, &mut verbose, WalEvent::Startup { now: 0.0, app: app.into() });
            let spec = parse_bundle_script(script).unwrap();
            let id = InstanceId::new(app, n);
            execute(&mut live, &mut verbose, WalEvent::Bundle { now: 0.0, id, spec });
        }
        for op in ops {
            let now = live.now();
            let id = |slot: usize| InstanceId::new(SLOTS[slot].0, SLOTS[slot].1);
            match op {
                SessionOp::Advance(step) => live.set_time(now + step),
                SessionOp::Heartbeat(slot) => touch(&live, &mut verbose, &id(slot)),
                SessionOp::Poll(slot) => {
                    touch(&live, &mut verbose, &id(slot));
                    if !live.take_pending_vars(&id(slot)).is_empty() {
                        verbose.push(WalEvent::Poll { now, id: id(slot) });
                    }
                }
                SessionOp::Metric(slot) => {
                    let name = format!("{}.response_time", id(slot));
                    touch(&live, &mut verbose, &id(slot));
                    live.record_metric(&name, now, 0.25);
                    verbose.push(WalEvent::Metric { now, name, time: now, value: 0.25 });
                }
                SessionOp::Renew(slot) => {
                    execute(&mut live, &mut verbose, WalEvent::Renew { now, id: id(slot) });
                }
                SessionOp::Reap => execute(&mut live, &mut verbose, WalEvent::Reap { now }),
                SessionOp::End(slot) => {
                    execute(&mut live, &mut verbose, WalEvent::End { now, id: id(slot) });
                }
            }
        }

        writer.sync().unwrap();
        let read = read_wal(&path).unwrap();
        prop_assert_eq!(read.tail, WalTail::Clean);
        let elided: Vec<WalEvent> = read
            .records
            .iter()
            .map(|r| WalEvent::decode(r).unwrap())
            .collect();

        // The captured log is the verbose one minus touches and metric
        // reports, nothing else.
        let mut rest = verbose.iter();
        for ev in &elided {
            prop_assert!(rest.any(|v| v == ev), "captured {:?} is not in the verbose log", ev);
        }
        let untouched = |log: &[WalEvent]| {
            log.iter().filter(|ev| !matches!(ev.variant(), "touch" | "metric")).count()
        };
        prop_assert_eq!(untouched(&elided), untouched(&verbose));

        let live_fp = live.persisted_state().recovery_fingerprint();
        prop_assert_eq!(replay(&elided), live_fp, "the elided log diverges");
        prop_assert_eq!(replay(&verbose), live_fp, "the older build's log diverges");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
