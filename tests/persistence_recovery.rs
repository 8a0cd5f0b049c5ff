//! Crash → restart → reattach, end to end over TCP.
//!
//! The acceptance path for crash-consistent persistence: a daemon serving
//! live clients dies mid-coalescing-window (no shutdown checkpoint — the
//! WAL is all that survives), a new daemon recovers from the same state
//! directory, rebinds the same port, and every client reattaches to its
//! prior instance id, applied configuration, and lease deadline without
//! re-registering bundles.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harmony::client::{HarmonyClient, UpdateDelivery};
use harmony::core::{CoalescePolicy, Controller, ControllerConfig, InstanceId, StateStore};
use harmony::proto::{TcpServer, TcpTransport};
use harmony::resources::Cluster;
use harmony::rsl::listings;
use harmony::rsl::Value;
use parking_lot::RwLock;

type Shared = Arc<RwLock<Controller>>;

/// A unique scratch directory under the OS temp dir (no tempfile crate in
/// the workspace), cleared at the start of each run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-recover-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A controller with a coalescing window far longer than the test, so the
/// re-evaluation scheduled by the second arrival is still pending when the
/// server is killed — the crash lands mid-window, as in the issue.
fn durable_controller(dir: &Path) -> (Controller, StateStore) {
    let fresh = || {
        let cluster = Cluster::from_rsl(&listings::sp2_cluster(8)).unwrap();
        let config = ControllerConfig {
            coalesce: CoalescePolicy { window: 300.0, max_delay: 3600.0, max_pending: 64 },
            ..Default::default()
        };
        Controller::new(cluster, config)
    };
    StateStore::open(dir, fresh).unwrap()
}

fn tcp_client(addr: &std::net::SocketAddr, app: &str) -> HarmonyClient<TcpTransport> {
    HarmonyClient::startup(TcpTransport::connect(*addr).unwrap(), app, UpdateDelivery::Polling)
        .unwrap()
}

/// Polls `cond` until it holds or `timeout` elapses.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Rebinds `addr` with retries: the dying server's listener may linger for
/// a few scheduler quanta after `stop()` returns.
fn rebind(addr: &std::net::SocketAddr, ctl: &Shared) -> TcpServer {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpServer::start(&addr.to_string(), Arc::clone(ctl)) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("rebind failed: {e}"),
        }
    }
}

/// The headline acceptance test: kill the daemon during an active
/// coalescing window, restart it from `--state-dir`, and verify every live
/// session reattaches with its prior id, applied configuration, and lease
/// deadline — over real TCP, with the real client recovery path.
#[test]
fn killed_server_recovers_and_clients_reattach_with_prior_state() {
    let dir = scratch("tcp");

    // --- First life: durable daemon, two live clients. -------------------
    let (ctl, store) = durable_controller(&dir);
    let shared: Shared = Arc::new(RwLock::new(ctl));
    let mut server = TcpServer::start("127.0.0.1:0", Arc::clone(&shared)).unwrap();
    let addr = server.addr();

    let mut c1 = tcp_client(&addr, "bag");
    let workers = c1.add_variable("config.run.workerNodes", Value::Int(0));
    c1.bundle_setup(listings::FIG2B_BAG).unwrap();
    c1.poll().unwrap();
    assert_eq!(workers.get(), Value::Int(8), "alone, the bag gets all eight workers");

    // A second arrival: its own placement is synchronous, but the
    // re-evaluation of the first client is deferred into the (long)
    // coalescing window — that pending window is what must survive.
    let mut c2 = tcp_client(&addr, "bag");
    c2.bundle_setup(listings::FIG2B_BAG).unwrap();
    c2.report_metric("response_time", 3.0, 12.5).unwrap();
    c1.heartbeat().unwrap();
    assert!(shared.read().pending_decisions() > 0, "a coalescing window is open");

    let id1 = InstanceId::new(c1.app(), c1.instance_id());
    let id2 = InstanceId::new(c2.app(), c2.instance_id());

    // --- Crash. ----------------------------------------------------------
    // Stop the server first (serving threads mark their sessions
    // disconnected as they exit — those WAL records are part of the
    // crashed state), then capture the state the recovery must reproduce.
    server.stop();
    drop(server);
    assert!(
        wait_until(Duration::from_secs(5), || {
            let g = shared.read();
            [&id1, &id2].iter().all(|id| g.session(id).is_some_and(|s| s.disconnected))
        }),
        "dying connections mark their sessions disconnected"
    );
    let (sessions, journal_seq, pending, choice1) = {
        let g = shared.read();
        (
            g.persisted_state().sessions,
            g.journal_seq(),
            g.pending_decisions(),
            g.choice(&id1, "config").unwrap().vars.clone(),
        )
    };
    assert_eq!(sessions.len(), 2);
    // No shutdown checkpoint: sync the WAL (the group-commit flusher would
    // have done so within its interval) and drop everything, as kill -9
    // would.
    store.sync().unwrap();
    drop(store);
    drop(shared);

    // --- Second life: recover from the state dir, rebind the same port. --
    let (recovered, _store) = {
        let fresh = || panic!("prior state exists; recovery must not start fresh");
        StateStore::open(&dir, fresh).unwrap()
    };
    let info = recovered.recovery_info().unwrap();
    assert!(info.replayed > 0, "the crashed run left WAL records to replay");
    assert!(!info.torn_tail);
    assert_eq!(
        recovered.persisted_state().sessions,
        sessions,
        "ids + deadlines + renewals survive"
    );
    assert_eq!(recovered.journal_seq(), journal_seq, "journal cursor continues, not resets");
    assert_eq!(recovered.pending_decisions(), pending, "the open window survives the crash");
    assert_eq!(
        recovered.choice(&id1, "config").unwrap().vars,
        choice1,
        "applied configuration survives"
    );

    let shared2: Shared = Arc::new(RwLock::new(recovered));
    let server2 = rebind(&addr, &shared2);

    // --- Reattach. -------------------------------------------------------
    // The clients never learned the server died. Their next call runs the
    // resilient path: reconnect, reattach — and because the recovered
    // controller knows their instance ids, reattach succeeds (no fresh
    // startup, no bundle replay needed on the wire).
    let id1_before = c1.instance_id();
    let id2_before = c2.instance_id();
    c1.heartbeat().unwrap();
    c2.heartbeat().unwrap();
    assert_eq!(c1.instance_id(), id1_before, "reattach preserves the instance id");
    assert_eq!(c2.instance_id(), id2_before, "reattach preserves the instance id");
    let applied = c1.poll().unwrap();
    assert!(applied >= 1, "reattach replays the chosen values ({applied} applied)");
    assert_eq!(workers.get(), Value::Int(8), "pre-crash applied config replayed");
    {
        let g = shared2.read();
        assert_eq!(g.instances().len(), 2, "no duplicate registrations after recovery");
        assert_eq!(g.metrics().counter("controller.sessions.reattached"), 2);
        assert!(
            g.session(&id1).is_some_and(|s| !s.disconnected),
            "reattach clears the disconnect flag"
        );
    }
    c1.end().unwrap();
    c2.end().unwrap();
    drop(server2);
}

/// Recovery without clients: the persisted image opened read-only-style
/// (no server) matches what a second open reproduces — the store is
/// idempotent across successive generations.
#[test]
fn successive_recoveries_are_stable() {
    let dir = scratch("stable");
    let (ctl, store) = durable_controller(&dir);
    let shared: Shared = Arc::new(RwLock::new(ctl));
    let mut server = TcpServer::start("127.0.0.1:0", Arc::clone(&shared)).unwrap();
    let mut c = tcp_client(&server.addr(), "bag");
    c.bundle_setup(listings::FIG2B_BAG).unwrap();
    server.stop();
    drop(server);
    let id = InstanceId::new(c.app(), c.instance_id());
    std::mem::forget(c); // crash the client too: no End on drop
    assert!(wait_until(Duration::from_secs(5), || {
        shared.read().session(&id).is_some_and(|s| s.disconnected)
    }));
    store.sync().unwrap();
    drop(store);
    drop(shared);

    // Open twice in a row; each open replays the same generation and
    // keeps appending to its WAL, and the controller state must not drift.
    let (first, store1) = StateStore::open(&dir, || panic!("state exists")).unwrap();
    let gen1 = store1.generation();
    let sessions = first.persisted_state().sessions;
    let seq = first.journal_seq();
    drop(store1);
    drop(first);
    let snapshots = snapshot_files(&dir);
    let (second, store2) = StateStore::open(&dir, || panic!("state exists")).unwrap();
    assert_eq!(store2.generation(), gen1, "a restart continues the last generation");
    assert_eq!(snapshot_files(&dir), snapshots, "a restart writes no snapshot");
    assert_eq!(second.persisted_state().sessions, sessions);
    assert_eq!(second.journal_seq(), seq);
}

/// The snapshot files in `dir`, sorted.
fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "snap"))
        .collect();
    snapshots.sort();
    snapshots
}
