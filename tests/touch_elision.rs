//! A read logs what it changes: exact WAL record counts for the read path.
//!
//! `heartbeat`, `poll` and `metric` renew a lease by raising the
//! instance's touch stamp to the controller clock. A touch that finds the
//! stamp already there changes nothing durable and must append nothing;
//! one that raises it must append exactly one `Touch`. The counts below
//! are exact, and every run ends by reopening the state directory and
//! comparing the whole durable image — clock included — with the live one.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use harmony::core::{Controller, ControllerConfig, InstanceId, StateStore, WalEvent};
use harmony::proto::{handle_request, Request, Response, SharedController};
use harmony::resources::Cluster;
use harmony::rsl::listings;
use harmony::wal::{read_wal, StateDir, WalConfig, WalTail, WalWriter};
use parking_lot::RwLock;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-elision-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fresh() -> Controller {
    let cluster = Cluster::from_rsl(&listings::sp2_cluster(8)).unwrap();
    Controller::new(cluster, ControllerConfig::default())
}

/// A durable controller behind the wire server's dispatch.
struct Daemon {
    shared: SharedController,
    store: StateStore,
    /// Records the WAL held when this daemon opened it: a restart keeps
    /// appending to the last WAL, after the records it replayed.
    opened_with: usize,
}

impl Daemon {
    fn open(dir: &Path) -> Daemon {
        let (ctl, store) = StateStore::open(dir, fresh).unwrap();
        let opened_with = ctl.recovery_info().unwrap().replayed as usize;
        Daemon { shared: Arc::new(RwLock::new(ctl)), store, opened_with }
    }

    fn call(&self, req: Request) -> Response {
        handle_request(&self.shared, &req)
    }

    /// `startup` plus the FIG2B bag bundle.
    fn register(&self) -> InstanceId {
        let Response::Registered { app, id } = self.call(Request::Startup { app: "bag".into() })
        else {
            panic!("startup must register")
        };
        let script = listings::FIG2B_BAG.to_string();
        assert_eq!(self.call(Request::Bundle { app: app.clone(), id, script }), Response::Ok);
        InstanceId::new(app, id)
    }

    fn heartbeat(&self, id: &InstanceId) -> Response {
        self.call(Request::Heartbeat { app: id.app.clone(), id: id.id })
    }

    fn poll(&self, id: &InstanceId) {
        let reply = self.call(Request::Poll { app: id.app.clone(), id: id.id });
        assert!(matches!(reply, Response::Update { .. }), "poll answered {reply:?}");
    }

    fn metric(&self, id: &InstanceId) -> Response {
        let name = format!("{id}.response_time");
        self.call(Request::Metric { name, time: 0.5, value: 0.25 })
    }

    fn set_time(&self, now: f64) {
        self.shared.write().set_time(now);
    }

    /// How many records of `variant` (naming `id`, if given) this daemon
    /// added to the current generation's WAL since it opened.
    fn logged(&self, variant: &str, id: Option<&InstanceId>) -> usize {
        self.store.sync().unwrap();
        let dir = StateDir::open(self.store.path()).unwrap();
        let read = read_wal(&dir.wal_path(self.store.generation())).unwrap();
        assert_eq!(read.tail, WalTail::Clean);
        read.records[self.opened_with..]
            .iter()
            .map(|r| WalEvent::decode(r).expect("wal record parses"))
            .filter(|ev| ev.variant() == variant)
            .filter(|ev| match (ev, id) {
                (WalEvent::Touch { id: touched, .. }, Some(id)) => touched == id,
                _ => true,
            })
            .count()
    }

    /// Syncs, drops the daemon, reopens its directory and requires the
    /// recovered durable image to equal the live one, clock included.
    fn reopen(self) -> Daemon {
        let live = self.shared.read().persisted_state().canonical_fingerprint();
        self.store.sync().unwrap();
        let dir = self.store.path().to_path_buf();
        drop(self);
        let reopened = Daemon::open(&dir);
        let recovered = reopened.shared.read().persisted_state().canonical_fingerprint();
        assert_eq!(recovered, live, "the recovered image differs from the live one");
        reopened
    }
}

#[test]
fn a_touch_reaches_the_wal_only_when_it_raises_the_stamp() {
    let d = Daemon::open(&scratch("counts"));
    let (a, b) = (d.register(), d.register());

    // A fresh daemon's clock reads 0.0 until its first periodic pass, and
    // a stamp of 0 *is* "never touched": there is nothing to raise.
    for _ in 0..3 {
        assert_eq!(d.heartbeat(&a), Response::Ok);
    }
    assert_eq!(d.logged("touch", None), 0);

    // k requests of every read-path verb at one clock value: one Touch.
    // A metric report logs nothing of its own, and only the first poll
    // finds the bundle's chosen values waiting.
    d.set_time(1.0);
    for _ in 0..5 {
        assert_eq!(d.heartbeat(&a), Response::Ok);
        d.poll(&a);
        assert_eq!(d.metric(&a), Response::Ok);
    }
    assert_eq!(d.logged("touch", Some(&a)), 1);
    assert_eq!(d.logged("touch", Some(&b)), 0);
    assert_eq!(d.logged("metric", None), 0);
    assert_eq!(d.logged("poll", None), 1);
    assert_eq!(d.heartbeat(&b), Response::Ok);
    assert_eq!(d.logged("touch", Some(&b)), 1);

    // An advance re-arms exactly the instances touched after it.
    d.set_time(2.0);
    assert_eq!(d.heartbeat(&a), Response::Ok);
    d.poll(&a);
    assert_eq!(d.heartbeat(&a), Response::Ok);
    assert_eq!(d.logged("touch", Some(&a)), 2);
    assert_eq!(d.logged("touch", Some(&b)), 1);

    // A reap folds the stamps away (one renewal per fold, however many
    // touches fed it); the next touch, at the same clock, is news again.
    let renewals = |id| d.shared.read().session(id).unwrap().renewals;
    let (before_a, before_b) = (renewals(&a), renewals(&b));
    d.shared.write().reap_expired(2.0).unwrap();
    assert_eq!((renewals(&a), renewals(&b)), (before_a + 1, before_b + 1));
    for _ in 0..2 {
        assert_eq!(d.heartbeat(&a), Response::Ok);
    }
    assert_eq!(d.logged("touch", Some(&a)), 3);
    assert_eq!(d.logged("touch", Some(&b)), 1);

    // An unknown instance is refused and logs no touch; its metric report
    // is still a sample, in memory.
    let ghost = InstanceId::new("ghost", 9);
    assert!(matches!(d.heartbeat(&ghost), Response::Error { .. }));
    assert_eq!(d.metric(&ghost), Response::Ok);
    assert_eq!(d.logged("touch", None), 4);
    assert_eq!(d.logged("metric", None), 0);
    let appended = d.shared.read().metrics().counter("controller.persistence.appends");
    assert_eq!(appended, d.shared.read().wal_handle().unwrap().appended());

    // Recovery replays exactly those records to the live image. The
    // replayed WAL carries `a`'s stamp, so a heartbeat at the recovered
    // clock is already durable and logs nothing — and the image still
    // survives another restart.
    let d = d.reopen();
    assert_eq!(d.shared.read().recovery_info().unwrap().replayed, appended);
    assert_eq!(d.heartbeat(&a), Response::Ok);
    assert_eq!(d.shared.read().wal_handle().unwrap().appended(), 0);
    assert_eq!(d.heartbeat(&b), Response::Ok);
    assert_eq!(d.logged("touch", Some(&b)), 1);
    d.reopen();
}

/// A clock `fetch_max` cannot order (negative: only a hand-edited
/// snapshot gets one past `set_time`) stamps nothing and logs nothing;
/// the session is still there.
#[test]
fn a_touch_under_a_non_stampable_clock_logs_nothing() {
    let mut ctl = fresh();
    let id = ctl.startup("bag");
    let mut image = ctl.persisted_state();
    image.now = -4.0;
    let mut ctl = Controller::from_persisted(image).unwrap();
    let dir = scratch("clock");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = Arc::new(WalWriter::create(&dir.join("clock.wal"), WalConfig::default()).unwrap());
    ctl.attach_wal(Arc::clone(&wal));
    assert!(ctl.touch(&id), "a dropped touch still reports the instance as registered");
    assert_eq!(wal.appended(), 0);
    assert!(ctl.persisted_state().touches.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
