//! Crash-recovery oracles on the virtual clock.
//!
//! Seeded schedules run against a durable controller, die mid-burst, and
//! recover; the persisted image (sessions, lease deadlines, journal
//! cursor, pending coalescing windows, applied configurations) must come
//! back bit-identical. The WAL damage cases pin the recovery contract:
//! a torn final record is what a crash legitimately leaves and is
//! discarded; a corrupted record with valid data *after* it is not a
//! crash artifact and recovery must refuse rather than replay around it.

use std::path::{Path, PathBuf};

use harmony_harness::{crash_run, recover};
use harmony_wal::StateDir;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harness-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The newest generation's WAL — the one recovery replays last, and the
/// one the damage cases mutilate.
fn newest_wal(dir: &Path) -> PathBuf {
    let state = StateDir::open(dir).unwrap();
    state.wal_path(*state.generations().unwrap().last().expect("the run left a generation"))
}

#[test]
fn kill_mid_burst_recovers_the_exact_pre_crash_state() {
    for seed in 0..6 {
        let dir = scratch(&format!("burst-{seed}"));
        let crashed = crash_run(seed, None, 0, &dir);
        let recovered = recover(&dir).unwrap();
        assert_eq!(
            recovered.fingerprint, crashed.fingerprint,
            "seed {seed}: recovered state diverges from the crash point"
        );
        assert_eq!(recovered.live_sessions, crashed.live_sessions, "seed {seed}");
        assert_eq!(recovered.pending_decisions, crashed.pending_decisions, "seed {seed}");
        // With compaction off, everything since the (empty) initial
        // snapshot lives in the WAL: replay must consume every record.
        assert_eq!(recovered.info.replayed, crashed.wal_records, "seed {seed}");
        assert!(!recovered.info.torn_tail, "seed {seed}: clean sync left no torn tail");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn snapshot_plus_tail_replay_matches_pure_wal_replay() {
    // Same seed, same crash point; one run compacts every 24 appends, the
    // other never. Recovery must land on the same state either way —
    // checkpoints are an optimization, not a semantic.
    let plain = scratch("plain");
    let compacted = scratch("compacted");
    let a = crash_run(11, Some(70), 0, &plain);
    let b = crash_run(11, Some(70), 24, &compacted);
    assert_eq!(a.fingerprint, b.fingerprint, "compaction changed live state");
    let ra = recover(&plain).unwrap();
    let rb = recover(&compacted).unwrap();
    assert_eq!(ra.fingerprint, a.fingerprint);
    assert_eq!(rb.fingerprint, b.fingerprint);
    assert_eq!(ra.fingerprint, rb.fingerprint);
    assert_eq!(rb.info.snapshot_loaded.map(|g| g > 1), Some(true), "compaction rotated");
    assert!(rb.info.replayed <= ra.info.replayed, "the snapshot absorbed replay work");
    let _ = std::fs::remove_dir_all(&plain);
    let _ = std::fs::remove_dir_all(&compacted);
}

#[test]
fn torn_final_record_is_discarded_and_recovery_proceeds() {
    let dir = scratch("torn");
    let crashed = crash_run(5, None, 0, &dir);
    // A torn write: the length header promises 100 bytes, the crash left
    // four. Exactly what a power cut mid-append produces.
    let wal = newest_wal(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&100u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(b"torn");
    std::fs::write(&wal, bytes).unwrap();

    let recovered = recover(&dir).unwrap();
    assert!(recovered.info.torn_tail, "the torn tail must be reported");
    assert_eq!(recovered.fingerprint, crashed.fingerprint, "every record before the tear replays");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_middle_record_refuses_recovery() {
    let dir = scratch("corrupt");
    let crashed = crash_run(5, None, 0, &dir);
    assert!(crashed.wal_records >= 2, "need a non-final record to corrupt");
    // Flip one byte in the first record's payload: the CRC catches it,
    // and because valid records follow, this is damage, not a torn write.
    let wal = newest_wal(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[8] ^= 0xff;
    std::fs::write(&wal, bytes).unwrap();

    let err = recover(&dir).expect_err("corrupted middle record must refuse recovery");
    let msg = err.to_string();
    assert!(msg.contains("corrupted"), "unexpected error: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}
