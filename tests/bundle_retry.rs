//! `bundle` is idempotent per `(instance, bundle name)`: a client that
//! lost the reply and sends the same bundle again must end up with one
//! bundle and one allocation, and a different specification under a name
//! the instance already has is refused in-band.

use std::sync::Arc;

use harmony::client::{HarmonyClient, UpdateDelivery};
use harmony::core::{Controller, ControllerConfig, CoreError};
use harmony::proto::{ChaosTransport, Fault, LocalTransport, Request};
use harmony::resources::Cluster;
use harmony::rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony::rsl::schema::parse_bundle_script;
use parking_lot::RwLock;

fn controller() -> Controller {
    Controller::new(Cluster::from_rsl(&sp2_cluster(8)).unwrap(), ControllerConfig::default())
}

/// `FIG2B_BAG` under the same bundle name with different work per node.
fn different_bag() -> String {
    FIG2B_BAG.replace("1200", "2400")
}

#[test]
fn the_same_bundle_twice_attaches_once_and_a_different_one_is_refused() {
    let mut c = controller();
    let id = c.startup("bag");
    c.add_bundle(&id, parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    let (tasks, choice) = (c.cluster().total_tasks(), c.choice(&id, "config").cloned());

    c.add_bundle(&id, parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    assert_eq!(c.app(&id).unwrap().bundles.len(), 1);
    assert_eq!(c.cluster().total_tasks(), tasks);
    assert_eq!(c.choice(&id, "config").cloned(), choice);

    let err = c.add_bundle(&id, parse_bundle_script(&different_bag()).unwrap()).unwrap_err();
    assert!(matches!(err, CoreError::BundleConflict { .. }), "{err:?}");
    assert_eq!(c.app(&id).unwrap().bundles.len(), 1, "nothing is attached");
    assert_eq!(c.choice(&id, "config").cloned(), choice);
}

#[test]
fn a_bundle_retried_after_a_lost_reply_attaches_once() {
    let ctl = Arc::new(RwLock::new(controller()));
    let transport = ChaosTransport::new(LocalTransport::new(Arc::clone(&ctl)));
    let log = transport.log();
    let mut client = HarmonyClient::startup(transport, "bag", UpdateDelivery::Polling).unwrap();
    let id = ctl.read().instances()[0].clone();

    // The server applies the bundle, the reply is lost, the client
    // reconnects, reattaches and sends it again.
    client.transport_mut().inject(Fault::DropResponse);
    client.bundle_setup(FIG2B_BAG).unwrap();
    let delivered = log
        .lock()
        .iter()
        .filter(|r| r.delivered && matches!(r.request, Request::Bundle { .. }))
        .count();
    assert_eq!(delivered, 2, "the server saw the bundle twice");
    assert_eq!(ctl.read().app(&id).unwrap().bundles.len(), 1);
    assert_eq!(ctl.read().cluster().total_tasks(), 8);

    // A different specification under the same name: an in-band error.
    let err = client.bundle_setup(&different_bag()).unwrap_err();
    assert!(err.to_string().contains("different specification"), "{err}");
    assert_eq!(ctl.read().app(&id).unwrap().bundles.len(), 1);
    assert_eq!(ctl.read().cluster().total_tasks(), 8);
}
