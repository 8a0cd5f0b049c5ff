//! The WAL's damage classification and the command log's replay, with
//! real `WalEvent` records: a torn or overwritten final record is
//! discarded and reported as torn, a damaged middle one is refused, and
//! every complete record decodes back into the event that was appended.
//! Any command sequence run live against a WAL replays onto a fresh
//! controller to the same durable state, and a state directory written
//! when metric reports were still logged and snapshotted opens today.
//!
//! Mirrors of `harmony-wal`'s and `harmony-core`'s own suites, so the root
//! test run holds the record codec to them too.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use harmony_core::{
    Controller, ControllerConfig, HarmonyEvent, InstanceId, PersistedState, StateStore, WalEvent,
};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2A_SIMPLE, FIG2B_BAG};
use harmony_rsl::schema::{parse_bundle_script, NodeDecl};
use harmony_wal::{read_wal, StateDir, WalConfig, WalTail, WalWriter, RECORD_HEADER};
use proptest::prelude::*;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("harmony-wal-records-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn payload(ev: &WalEvent) -> Vec<u8> {
    serde_json::to_string(ev).unwrap().into_bytes()
}

/// Three records of different shapes, the last the longest.
fn events() -> [WalEvent; 3] {
    let id = InstanceId::new("bag", 1);
    [
        WalEvent::Startup { now: 0.0, app: "bag".into() },
        WalEvent::Metric { now: 1.5, name: "bag.1.response_time".into(), time: 1.5, value: 12.0 },
        WalEvent::Bundle { now: 2.0, id, spec: parse_bundle_script(FIG2B_BAG).unwrap() },
    ]
}

/// Writes `events` to `tag`'s WAL and returns its path and bytes.
fn written(tag: &str, events: &[WalEvent]) -> (PathBuf, Vec<u8>) {
    let path = scratch(tag).join("a.wal");
    let w = WalWriter::create(&path, WalConfig::default()).unwrap();
    for ev in events {
        w.append(&payload(ev)).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

fn decoded(path: &Path) -> (Vec<WalEvent>, WalTail) {
    let read = read_wal(path).unwrap();
    let events = read.records.iter().map(|r| WalEvent::decode(r).unwrap()).collect();
    (events, read.tail)
}

#[test]
fn torn_final_record_is_tolerated() {
    let evs = events();
    let (path, bytes) = written("torn", &evs);
    // Chop the file mid-way through the last record's payload.
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let (got, tail) = decoded(&path);
    assert_eq!(got, evs[..2]);
    assert!(matches!(tail, WalTail::Torn { .. }), "got {tail:?}");
    // Chop into the last record's header.
    let last = payload(&evs[2]).len();
    std::fs::write(&path, &bytes[..bytes.len() - last - 2]).unwrap();
    let (got, tail) = decoded(&path);
    assert_eq!(got, evs[..2]);
    assert!(matches!(tail, WalTail::Torn { .. }), "got {tail:?}");
}

#[test]
fn corrupt_final_record_reads_as_torn() {
    // A crash can also overwrite the tail with garbage of the right
    // length; a CRC failure at exactly EOF is still a torn write.
    let evs = events();
    let (path, mut bytes) = written("corrupt-tail", &evs);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let (got, tail) = decoded(&path);
    assert_eq!(got, evs[..2]);
    assert!(matches!(tail, WalTail::Torn { .. }), "got {tail:?}");
}

#[test]
fn corrupt_middle_record_is_reported() {
    let evs = events();
    let (path, mut bytes) = written("corrupt-mid", &evs);
    // Flip a payload byte of the middle record: valid data follows it.
    let second = RECORD_HEADER + payload(&evs[0]).len();
    bytes[second + RECORD_HEADER] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let (got, tail) = decoded(&path);
    assert_eq!(got, evs[..1]);
    assert_eq!(tail, WalTail::Corrupted { record: 1, offset: second as u64 });
}

fn fresh_controller() -> Controller {
    Controller::new(Cluster::from_rsl(&sp2_cluster(8)).unwrap(), ControllerConfig::default())
}

/// The instances generated commands address, with their bundle.
const SLOTS: [(&str, u64, &str); 3] =
    [("bag", 1, FIG2B_BAG), ("simple", 1, FIG2A_SIMPLE), ("bag", 2, FIG2B_BAG)];

/// One generated command; startups and bundles over-weighted so the other
/// verbs usually find their instance.
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

fn unfolded_stamp(c: &Controller, id: &InstanceId) -> Option<u64> {
    c.persisted_state().touches.into_iter().find(|(touched, _)| touched == id).map(|(_, bits)| bits)
}

/// Command sequences with a monotone clock: steps of 0 – 11 s against a
/// 30 s lease.
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
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Any sequence, run live against a WAL, leaves one record per command
    /// that was not a no-op, and the log replays onto a fresh controller to
    /// the live durable state.
    #[test]
    fn any_command_sequence_replays_to_the_live_state(cmds in commands()) {
        let dir = scratch("commands");
        let path = dir.join("commands.wal");
        let writer = Arc::new(WalWriter::create(&path, WalConfig::default()).unwrap());
        let mut live = fresh_controller();
        live.attach_wal(Arc::clone(&writer));

        let mut logged = Vec::new();
        for cmd in cmds {
            let variant = cmd.variant();
            live.set_time(cmd.now());
            let was_logged = match cmd {
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
        let events: Vec<WalEvent> =
            read.records.iter().map(|r| WalEvent::decode(r).unwrap()).collect();
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

const COMPAT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/compat");

/// A state directory from before metric reports stopped being durable: a
/// snapshot with a `feedback` setting, a `metric_series` section and a
/// stored `namespace`, and a WAL of `Metric` records (one of them a
/// rejected NaN) and a `Touch`.
/// The snapshot is the bytes that build wrote, the WAL payloads are in its
/// record format. It opens; the old keys are skipped, the records replay,
/// and the samples land in memory only.
#[test]
fn a_state_dir_with_metric_records_and_series_still_opens() {
    let snapshot =
        std::fs::read_to_string(format!("{COMPAT}/snapshot_with_metric_series.json")).unwrap();
    let wal = std::fs::read_to_string(format!("{COMPAT}/wal_with_metric_records.jsonl")).unwrap();
    assert!(snapshot.contains("\"feedback\":null") && snapshot.contains("\"metric_series\":[["));
    assert!(snapshot.contains("\"namespace\":"));
    // The image predates the four policy settings becoming constants: the
    // reader skips their keys.
    for key in ["matcher", "objective", "elastic_steps", "reevaluate_on_arrival"] {
        assert!(snapshot.contains(&format!("\"{key}\":")), "{key}");
    }
    let dir = scratch("compat");
    let state_dir = StateDir::open(&dir).unwrap();
    state_dir.write_snapshot(1, snapshot.as_bytes()).unwrap();
    let writer = WalWriter::create(&state_dir.wal_path(1), WalConfig::default()).unwrap();
    for line in wal.lines() {
        writer.append(line.as_bytes()).unwrap();
    }
    writer.sync().unwrap();
    drop(writer);

    let (ctl, _store) = StateStore::open(&dir, fresh_controller).unwrap();
    let image: PersistedState = serde_json::from_str(&snapshot).unwrap();
    assert_eq!(ctl.recovery_info().unwrap().replayed, wal.lines().count() as u64);

    let state = ctl.persisted_state();
    assert_eq!(state.sessions, image.sessions);
    for (id, app) in &image.apps {
        for bundle in &app.bundles {
            assert_eq!(ctl.choice(id, &bundle.spec.name), bundle.current.as_ref(), "{id}");
        }
    }
    let bag2 = InstanceId::new("bag", 2);
    assert_eq!(state.touches, vec![(bag2, 7.0f64.to_bits())], "the Touch replayed");

    // The snapshot's series are not restored; the replayed samples are
    // recorded, the rejected one is not.
    let h = ctl.metrics().histogram("bag.1.response_time").unwrap();
    assert_eq!((h.len(), h.mean()), (2, Some(16.5)));

    // Replay journals nothing for a metric, and the image's 25 old journal
    // entries are not read back: the journal resumes empty at the image's
    // sequence number, so a cursor from before the restart is truncated.
    assert!(snapshot.contains("\"journal_entries\":[{"));
    assert_eq!(ctl.journal_seq(), image.journal_next_seq);
    let tail = ctl.journal_tail(0, 100);
    assert!(tail.entries.is_empty() && tail.truncated, "{tail:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
