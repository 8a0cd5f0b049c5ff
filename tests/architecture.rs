//! Figures 1 & 6: the full architecture wired together — metric interface,
//! tuning interface, adaptation controller, TCP server, client library.

use std::sync::Arc;
use std::time::Duration;

use harmony::client::{HarmonyClient, UpdateDelivery};
use harmony::core::{Controller, ControllerConfig, HarmonyEvent};
use harmony::proto::{LocalTransport, TcpServer, TcpTransport};
use harmony::resources::Cluster;
use harmony::rsl::{listings, Value};
use parking_lot::RwLock;

type Shared = Arc<RwLock<Controller>>;

fn shared(nodes: usize) -> Shared {
    let cluster = Cluster::from_rsl(&listings::sp2_cluster(nodes)).unwrap();
    Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())))
}

#[test]
fn two_tcp_clients_share_one_cluster() {
    let ctl = shared(8);
    let mut server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
    let addr = server.addr();

    let mut a = HarmonyClient::startup(
        TcpTransport::connect(addr).unwrap(),
        "bag",
        UpdateDelivery::Polling,
    )
    .unwrap();
    let wa = a.add_variable("config.run.workerNodes", Value::Int(0));
    a.bundle_setup(listings::FIG2B_BAG).unwrap();
    assert!(a.wait_for_update(Duration::from_secs(2)).unwrap());
    assert_eq!(wa.get(), Value::Int(8));

    let mut b = HarmonyClient::startup(
        TcpTransport::connect(addr).unwrap(),
        "bag",
        UpdateDelivery::Polling,
    )
    .unwrap();
    let wb = b.add_variable("config.run.workerNodes", Value::Int(0));
    b.bundle_setup(listings::FIG2B_BAG).unwrap();
    assert!(b.wait_for_update(Duration::from_secs(2)).unwrap());

    // Coordinated reconfiguration: the incumbent was shrunk to admit the
    // newcomer, visible to the incumbent through its polled variable.
    assert!(a.wait_for_update(Duration::from_secs(2)).unwrap());
    assert_eq!(wa.get(), Value::Int(4));
    assert_eq!(wb.get(), Value::Int(4));

    // Metrics flow through the metric interface into the registry.
    a.report_metric("response_time", 10.0, 345.0).unwrap();
    assert!(ctl.read().metrics().histogram("bag.1.response_time").is_some());

    b.end().unwrap();
    assert!(a.wait_for_update(Duration::from_secs(2)).unwrap());
    assert_eq!(wa.get(), Value::Int(8), "re-expanded after departure");
    a.end().unwrap();
    server.stop();
    assert_eq!(ctl.read().cluster().total_tasks(), 0);
}

#[test]
fn environment_events_retune_running_applications() {
    let ctl = shared(4);
    let mut client = HarmonyClient::startup(
        LocalTransport::new(Arc::clone(&ctl)),
        "bag",
        UpdateDelivery::Polling,
    )
    .unwrap();
    let workers = client.add_variable("config.run.workerNodes", Value::Int(0));
    client.bundle_setup(listings::FIG2B_BAG).unwrap();
    client.poll().unwrap();
    assert_eq!(workers.get(), Value::Int(4));

    // Four more nodes join the metacomputer (with links into the mesh).
    {
        let mut ctl = ctl.write();
        for i in 4..8 {
            let name = format!("node{i:02}");
            ctl.handle_event(HarmonyEvent::NodeJoined(harmony::rsl::schema::NodeDecl::new(
                name.clone(),
                1.0,
                256.0,
            )))
            .unwrap();
            for j in 0..i {
                ctl.handle_event(HarmonyEvent::LinkJoined(harmony::rsl::schema::LinkDecl::new(
                    format!("node{j:02}"),
                    name.clone(),
                    320.0,
                )))
                .unwrap();
            }
        }
    }
    client.poll().unwrap();
    assert_eq!(workers.get(), Value::Int(8), "expanded onto new capacity");

    // A node leaves; the application is displaced and re-placed.
    ctl.write().handle_event(HarmonyEvent::NodeLeft { name: "node00".into() }).unwrap();
    client.poll().unwrap();
    assert_eq!(workers.get(), Value::Int(4), "re-placed after eviction");
    client.end().unwrap();
}

#[test]
fn local_and_tcp_transports_agree() {
    // The same session against both transports produces the same
    // controller state.
    let run = |use_tcp: bool| -> (u64, Vec<String>) {
        let ctl = shared(8);
        let mut server = None;
        let transport: Box<dyn harmony::proto::Transport> = if use_tcp {
            let s = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
            let t = TcpTransport::connect(s.addr()).unwrap();
            server = Some(s);
            Box::new(t)
        } else {
            Box::new(LocalTransport::new(Arc::clone(&ctl)))
        };
        let mut client = HarmonyClient::startup(transport, "bag", UpdateDelivery::Polling).unwrap();
        client.bundle_setup(listings::FIG2B_BAG).unwrap();
        client.poll().unwrap();
        let id = client.instance_id();
        let decisions: Vec<String> = ctl
            .read()
            .decisions()
            .iter()
            .map(|d| format!("{} {} -> {}", d.instance, d.bundle, d.to))
            .collect();
        client.end().unwrap();
        if let Some(mut s) = server {
            s.stop();
        }
        (id, decisions)
    };
    assert_eq!(run(false), run(true));
}
