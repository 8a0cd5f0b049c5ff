//! Fault injection: the long-lived Harmony process must survive misbehaving
//! clients, abrupt disconnects, and a changing metacomputer.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use harmony::client::{HarmonyClient, UpdateDelivery};
use harmony::core::{Controller, ControllerConfig, HarmonyEvent};
use harmony::proto::frame::{read_frame, write_frame};
use harmony::proto::{Request, Response, TcpServer, TcpTransport};
use harmony::resources::Cluster;
use harmony::rsl::listings;
use parking_lot::RwLock;

type Shared = Arc<RwLock<Controller>>;

fn shared(nodes: usize) -> Shared {
    let cluster = Cluster::from_rsl(&listings::sp2_cluster(nodes)).unwrap();
    Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())))
}

#[test]
fn garbage_bytes_do_not_kill_the_server() {
    let ctl = shared(4);
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();

    // A client that writes raw garbage (not even a frame) and vanishes.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"\xff\xff\xff\xff totally not a frame").unwrap();
    } // dropped: connection reset mid-parse

    // A client that sends a framed but malformed request.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut s, "this is not a verb").unwrap();
        let resp = Response::parse(&read_frame(&mut s).unwrap().unwrap()).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
        // The same connection still works for a valid request afterwards.
        write_frame(&mut s, &Request::Startup { app: "ok".into() }.to_text()).unwrap();
        let resp = Response::parse(&read_frame(&mut s).unwrap().unwrap()).unwrap();
        assert!(matches!(resp, Response::Registered { .. }));
    }

    // And a well-behaved client is unaffected throughout.
    let mut good = HarmonyClient::startup(
        TcpTransport::connect(server.addr()).unwrap(),
        "bag",
        UpdateDelivery::Polling,
    )
    .unwrap();
    let workers = good.add_variable("config.run.workerNodes", harmony::rsl::Value::Int(0));
    good.bundle_setup(listings::FIG2B_BAG).unwrap();
    assert!(good.wait_for_update(Duration::from_secs(2)).unwrap());
    assert_eq!(workers.get(), harmony::rsl::Value::Int(4));
    good.end().unwrap();
}

#[test]
fn well_framed_garbage_gets_an_answer_and_the_connection_goes_on() {
    let ctl = shared(4);
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    // A correct header over a payload that is not UTF-8: framing is
    // intact, so this is a bad *message*, answered like any other.
    s.write_all(&5u32.to_be_bytes()).unwrap();
    s.write_all(b"po\xff\xfel").unwrap();
    let resp = Response::parse(&read_frame(&mut s).unwrap().unwrap()).unwrap();
    let Response::Error { message } = resp else { panic!("expected an error, got {resp:?}") };
    assert!(message.starts_with("malformed message: ") && message.contains("utf-8"), "{message}");
    // The same connection serves the next request.
    write_frame(&mut s, &Request::Startup { app: "ok".into() }.to_text()).unwrap();
    let resp = Response::parse(&read_frame(&mut s).unwrap().unwrap()).unwrap();
    assert!(matches!(resp, Response::Registered { .. }));
    // So do frames sent back to back: one reply each, in order.
    let mut two = harmony::proto::frame::encode("heartbeat ok.1").unwrap().to_vec();
    two.extend_from_slice(&harmony::proto::frame::encode("poll ok.1").unwrap());
    s.write_all(&two).unwrap();
    assert_eq!(read_frame(&mut s).unwrap().as_deref(), Some("ok"));
    assert_eq!(read_frame(&mut s).unwrap().as_deref(), Some("update ok.1"));
}

#[test]
fn client_vanishing_mid_session_leaks_only_its_own_allocation() {
    let ctl = shared(8);
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();

    // Client A registers and then crashes: no harmony_end, and not even
    // the drop-time best-effort end (mem::forget skips Drop, the way a
    // SIGKILL would).
    let mut a = HarmonyClient::startup(
        TcpTransport::connect(server.addr()).unwrap(),
        "bag",
        UpdateDelivery::Polling,
    )
    .unwrap();
    a.bundle_setup(listings::FIG2B_BAG).unwrap();
    std::mem::forget(a);

    // The controller still holds A's allocation until its lease expires
    // (see tests/session_resilience.rs for the reaper path); an operator
    // can also reap it immediately through the status/end path.
    assert_eq!(ctl.read().instances().len(), 1);
    let id = ctl.read().instances()[0].clone();
    ctl.write().end(&id).unwrap();
    assert_eq!(ctl.read().cluster().total_tasks(), 0);
}

#[test]
fn stopped_server_yields_clean_client_errors() {
    let ctl = shared(2);
    let mut server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
    let mut client = HarmonyClient::startup(
        TcpTransport::connect(server.addr()).unwrap(),
        "x",
        UpdateDelivery::Polling,
    )
    .unwrap();
    server.stop();
    drop(server);
    // The next call fails with an I/O error, not a panic or a hang.
    let err = client.poll().unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
        ),
        "unexpected error kind: {err:?}"
    );
}

#[test]
fn cascade_of_node_failures_degrades_gracefully() {
    let cluster = Cluster::from_rsl(&listings::sp2_cluster(8)).unwrap();
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    let spec = harmony::rsl::schema::parse_bundle_script(listings::FIG2B_BAG).unwrap();
    let (id, _) = ctl.register(spec).unwrap();
    assert_eq!(ctl.choice(&id, "config").unwrap().vars[0].1, 8);

    // Nodes fail one by one; the app shrinks through its choices and keeps
    // a consistent cluster at every step.
    let mut last_workers = 8i64;
    for i in 0..7 {
        ctl.handle_event(HarmonyEvent::NodeLeft { name: format!("node{i:02}") }).unwrap();
        let choice = ctl.choice(&id, "config");
        if let Some(c) = choice {
            let w = c.vars[0].1;
            assert!(w <= last_workers, "never grows under failures");
            assert!(
                c.alloc.nodes.iter().all(|n| ctl.cluster().node(&n.node).is_some()),
                "allocation references only live nodes"
            );
            last_workers = w;
        }
        let tasks: u32 = ctl.cluster().total_tasks();
        assert_eq!(
            tasks,
            ctl.choice(&id, "config").map(|c| c.alloc.nodes.len() as u32).unwrap_or(0),
            "capacity accounting stays exact after eviction {i}"
        );
    }
    // One node left: the app runs single-worker.
    assert_eq!(ctl.choice(&id, "config").unwrap().vars[0].1, 1);
}

#[test]
fn unplaceable_after_total_failure_is_not_fatal() {
    let cluster = Cluster::from_rsl(&listings::sp2_cluster(2)).unwrap();
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    let spec = harmony::rsl::schema::parse_bundle_script(listings::FIG2B_BAG).unwrap();
    let (id, _) = ctl.register(spec).unwrap();
    // Both nodes die.
    ctl.handle_event(HarmonyEvent::NodeLeft { name: "node00".into() }).unwrap();
    ctl.handle_event(HarmonyEvent::NodeLeft { name: "node01".into() }).unwrap();
    // The instance survives, unconfigured, and can be re-placed when
    // capacity returns.
    assert!(ctl.choice(&id, "config").is_none());
    ctl.handle_event(HarmonyEvent::NodeJoined(harmony::rsl::schema::NodeDecl::new(
        "fresh", 1.0, 256.0,
    )))
    .unwrap();
    assert_eq!(ctl.choice(&id, "config").unwrap().vars[0].1, 1);
}

#[test]
fn oversize_frame_is_rejected_without_memory_blowup() {
    let ctl = shared(2);
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    // Claim a 512 MB frame; the server must refuse rather than allocate.
    s.write_all(&(512u32 * 1024 * 1024).to_be_bytes()).unwrap();
    s.write_all(b"tiny").unwrap();
    // The server says why in-band, then closes the connection (the next
    // read returns EOF or reset): past an oversize header there is no frame
    // boundary to resume from.
    let resp = Response::parse(&read_frame(&mut s).unwrap().unwrap()).unwrap();
    let Response::Error { message } = resp else { panic!("expected an error, got {resp:?}") };
    assert!(message.contains("exceeds limit"), "{message}");
    let got = read_frame(&mut s);
    assert!(matches!(got, Ok(None) | Err(_)), "server should drop the connection, got {got:?}");
    // The server is still alive for the next client.
    let mut t = TcpTransport::connect(server.addr()).unwrap();
    let resp =
        harmony::proto::Transport::call(&mut t, &Request::Startup { app: "ok".into() }).unwrap();
    assert!(matches!(resp, Response::Registered { .. }));
}
