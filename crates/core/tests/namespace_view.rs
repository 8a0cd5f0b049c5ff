//! The namespace is a view of the applied configurations (§3.2): it names
//! exactly what the clients were told, and a released allocation leaves
//! no path behind.

use std::collections::BTreeMap;

use harmony_core::{Controller, ControllerConfig, InstanceId};
use harmony_ns::HPath;
use harmony_resources::Cluster;
use harmony_rsl::schema::parse_bundle_script;
use harmony_rsl::Value;

/// Figure 7's shape: query shipping loads the one server, data shipping
/// loads the client, so the server's contention decides between them.
const WHERE: &str = "harmonyBundle DBclient:1 where {
  {QS
    {node server {hostname db} {seconds 4} {memory 20}}
    {node client * {seconds 1} {memory 2}}
    {link client server 2}}
  {DS
    {node server {hostname db} {seconds 1} {memory 20}}
    {node client * {memory >=17} {seconds 9}}
    {link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}}
}";

fn controller(clients: usize) -> Controller {
    let mut rsl = String::from("harmonyNode server {speed 1.0} {memory 256} {hostname db}\n");
    for i in 0..clients {
        rsl.push_str(&format!("harmonyNode client{i} {{speed 1.0}} {{memory 64}}\n"));
        rsl.push_str(&format!("harmonyLink server client{i} {{bandwidth 320}}\n"));
    }
    Controller::new(Cluster::from_rsl(&rsl).unwrap(), ControllerConfig::default())
}

/// The view's paths under `id`, with their values.
fn paths_of(ctl: &Controller, id: &InstanceId) -> BTreeMap<String, Value> {
    let prefix = format!("{id}.");
    ctl.namespace()
        .iter()
        .map(|(p, v)| (p.to_string(), v))
        .filter(|(p, _)| p.starts_with(&prefix))
        .collect()
}

#[test]
fn the_view_names_the_current_option_only_and_nothing_after_end() {
    const CLIENTS: usize = 6;
    let mut ctl = controller(CLIENTS);
    let spec = parse_bundle_script(WHERE).unwrap();
    let (first, _) = ctl.register(spec.clone()).unwrap();
    assert_eq!(ctl.choice(&first, "where").unwrap().option, "QS", "a lone client ships queries");

    // Before the switch: every path the client was sent resolves in the
    // view to the value it received, and the view names nothing else.
    let sent = ctl.take_pending_vars(&first);
    assert!(sent.iter().any(|(p, _)| p.to_string() == "DBclient.1.where.QS.server.seconds"));
    for (path, value) in &sent {
        assert_eq!(ctl.namespace().get(path).as_ref(), Some(value), "{path}");
    }
    let sent: BTreeMap<String, Value> = sent.into_iter().map(|(p, v)| (p.to_string(), v)).collect();
    assert_eq!(paths_of(&ctl, &first), sent);

    // Clients arrive until the server's contention moves the first one to
    // data shipping.
    let mut others = Vec::new();
    while ctl.choice(&first, "where").unwrap().option == "QS" {
        assert!(others.len() + 1 < CLIENTS, "no QS -> DS switch with {CLIENTS} clients");
        others.push(ctl.register(spec.clone()).unwrap().0);
    }
    let switch = ctl.decisions().iter().rev().find(|d| d.instance == first).unwrap();
    assert_eq!((switch.from.as_deref(), switch.to.as_str()), (Some("QS"), "DS"));

    // After the switch: the released QS allocation names nothing.
    let after = paths_of(&ctl, &first);
    assert!(after.keys().all(|p| !p.contains(".QS")), "stale QS path in {after:?}");
    assert_eq!(after.get("DBclient.1.where"), Some(&Value::Str("DS".into())));
    assert!(after.contains_key("DBclient.1.where.DS.client.memory"));
    let stale: HPath = "DBclient.1.where.QS.server.seconds".parse().unwrap();
    assert_eq!(ctl.namespace().get(&stale), None);
    // The reattach replay is the same derivation.
    ctl.take_pending_vars(&first);
    ctl.reattach(&first).unwrap();
    let replayed: BTreeMap<String, Value> =
        ctl.take_pending_vars(&first).into_iter().map(|(p, v)| (p.to_string(), v)).collect();
    assert_eq!(replayed, after);

    // After `end`: the instance has no path left; the others keep theirs.
    ctl.end(&first).unwrap();
    assert!(paths_of(&ctl, &first).is_empty());
    assert!(others.iter().all(|id| !paths_of(&ctl, id).is_empty()));
    for id in others {
        ctl.end(&id).unwrap();
    }
    assert!(ctl.namespace().is_empty());
}

/// A poll carries the view, not the history: a client that takes no poll
/// while its bundle moves QS -> DS is sent the current DS values only,
/// never the QS writes the switch replaced.
#[test]
fn a_poll_after_missed_decisions_carries_the_view() {
    const CLIENTS: usize = 6;
    let mut ctl = controller(CLIENTS);
    let spec = parse_bundle_script(WHERE).unwrap();
    let (first, _) = ctl.register(spec.clone()).unwrap();
    assert_eq!(ctl.choice(&first, "where").unwrap().option, "QS");
    let mut arrivals = 0;
    while ctl.choice(&first, "where").unwrap().option == "QS" {
        arrivals += 1;
        assert!(arrivals < CLIENTS, "no QS -> DS switch with {CLIENTS} clients");
        ctl.register(spec.clone()).unwrap();
    }
    let polled: BTreeMap<String, Value> =
        ctl.take_pending_vars(&first).into_iter().map(|(p, v)| (p.to_string(), v)).collect();
    assert!(polled.keys().all(|p| !p.contains(".QS")), "superseded QS write in {polled:?}");
    assert_eq!(polled, paths_of(&ctl, &first));
}
