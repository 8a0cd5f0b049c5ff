//! The journal is a report, not durable state: a recovered controller's
//! journal starts empty at the persisted sequence number. Numbering
//! continues where the crashed controller stopped, a cursor taken before
//! the crash pages on (told that it missed entries) without reading a seq
//! twice, and a coalescing window that was pending at the crash fires
//! decisions whose provenance the journal has issued.

use std::path::{Path, PathBuf};

use harmony_core::{CoalescePolicy, Controller, ControllerConfig, JournalKind, StateStore};
use harmony_harness::oracle::check_provenance;
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony_rsl::schema::parse_bundle_script;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("harmony-journal-restart-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A controller whose coalescing window outlasts the test, so the second
/// arrival's re-evaluation is still pending at the crash.
fn durable_controller(dir: &Path) -> (Controller, StateStore) {
    let fresh = || {
        let config = ControllerConfig {
            coalesce: CoalescePolicy { window: 300.0, max_delay: 3600.0, max_pending: 64 },
            ..Default::default()
        };
        Controller::new(Cluster::from_rsl(&sp2_cluster(8)).unwrap(), config)
    };
    StateStore::open(dir, fresh).unwrap()
}

#[test]
fn a_recovered_journal_numbers_on_from_the_persisted_seq() {
    let dir = scratch("cursor");
    let spec = parse_bundle_script(FIG2B_BAG).unwrap();

    // First life: two arrivals, a reader part-way through the journal, a
    // checkpoint, then one more journaled command in the WAL tail.
    let (mut ctl, mut store) = durable_controller(&dir);
    ctl.set_time(1.0);
    ctl.register(spec.clone()).unwrap();
    let page = ctl.journal_tail(0, 1);
    let mut read: Vec<u64> = page.entries.iter().map(|e| e.seq).collect();
    let mut cursor = page.next_cursor;
    ctl.set_time(2.0);
    ctl.register(spec).unwrap();
    assert!(ctl.pending_decisions() > 0, "a coalescing window is open");
    store.checkpoint(&mut ctl).unwrap();
    ctl.set_time(3.0);
    ctl.startup("bag");
    let persisted = ctl.persisted_state().journal_next_seq;
    assert!(persisted > cursor + 1, "the crash leaves entries the reader never saw");
    store.sync().unwrap();
    drop((ctl, store));

    // Second life.
    let (mut ctl, _store) =
        StateStore::open(&dir, || panic!("recovery must find the first life's state")).unwrap();
    assert_eq!(ctl.persisted_state().journal_next_seq, persisted);
    let probe = ctl.journal_append(JournalKind::Event, "probe".into());
    assert_eq!(probe, persisted, "the next append gets the persisted seq");

    // The reader pages on: told once that entries are gone, never handed a
    // seq twice, and it ends at the probe.
    let mut truncations = 0;
    loop {
        let page = ctl.journal_tail(cursor, 1);
        truncations += usize::from(page.truncated);
        if page.entries.is_empty() {
            break;
        }
        read.extend(page.entries.iter().map(|e| e.seq));
        cursor = page.next_cursor;
    }
    assert_eq!(truncations, 1, "{read:?}");
    assert!(read.windows(2).all(|w| w[0] < w[1]), "a seq read twice or out of order: {read:?}");
    assert_eq!(read.last(), Some(&probe));

    // The window pending at the crash fires, citing seqs of the first life
    // that the journal issued.
    let decisions = ctl.service_scheduler(400.0).unwrap();
    assert!(!decisions.is_empty(), "the recovered window fires a decision");
    check_provenance(&decisions, ctl.journal_seq(), 0).unwrap();
    assert!(decisions.iter().any(|d| d.provenance.iter().any(|&seq| seq < persisted)));
    let _ = std::fs::remove_dir_all(&dir);
}
