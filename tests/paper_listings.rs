//! Integration tests for the paper's own listings (Figures 2 and 3):
//! every listing parses, and the semantic properties the prose asserts
//! hold end-to-end through the matcher and the controller.

use harmony::core::{Controller, ControllerConfig};
use harmony::resources::{Cluster, Matcher};
use harmony::rsl::expr::MapEnv;
use harmony::rsl::listings::{sp2_cluster, FIG2A_SIMPLE, FIG2B_BAG, FIG3_DBCLIENT};
use harmony::rsl::schema::parse_bundle_script;
use harmony::rsl::Value;

#[test]
fn fig2a_simple_matches_four_distinct_nodes() {
    let cluster = Cluster::from_rsl(&sp2_cluster(8)).unwrap();
    let bundle = parse_bundle_script(FIG2A_SIMPLE).unwrap();
    let alloc =
        Matcher::default().match_option(&cluster, &bundle.options[0], &MapEnv::new()).unwrap();
    // "The replicate tag specifies that this node definition should be
    // used to match four distinct nodes, all meeting the same
    // requirements."
    assert_eq!(alloc.nodes.len(), 4);
    assert_eq!(alloc.distinct_nodes(), 4);
    for n in &alloc.nodes {
        assert_eq!(n.memory, 32.0);
        assert_eq!(n.seconds, 300.0);
    }
}

#[test]
fn fig2b_total_cycles_constant_across_worker_counts() {
    // "Assuming that the total amount of computation performed by all
    // processors is always the same, the total number of cycles in the
    // system should be constant across different numbers of workers."
    let cluster = Cluster::from_rsl(&sp2_cluster(8)).unwrap();
    let bundle = parse_bundle_script(FIG2B_BAG).unwrap();
    let mut totals = Vec::new();
    for workers in [1i64, 2, 4, 8] {
        let mut vars = MapEnv::new();
        vars.set("workerNodes", Value::Int(workers));
        let alloc = Matcher::default().match_option(&cluster, &bundle.options[0], &vars).unwrap();
        totals.push(alloc.total_seconds());
    }
    for t in &totals {
        assert!((t - 1200.0).abs() < 1e-6, "total cycles {t}");
    }
}

#[test]
fn fig2b_communication_grows_quadratically() {
    // "The bandwidth specified by the communication tag defines that
    // bandwidth grows as the square of the number of worker processes."
    let bundle = parse_bundle_script(FIG2B_BAG).unwrap();
    let comm = bundle.options[0].communication.as_ref().unwrap();
    let at = |w: i64| {
        let mut env = MapEnv::new();
        env.set("workerNodes", Value::Int(w));
        comm.amount(&env).unwrap()
    };
    assert_eq!(at(2) / at(1), 4.0);
    assert_eq!(at(4) / at(2), 4.0);
    assert_eq!(at(8) / at(4), 4.0);
}

#[test]
fn fig2b_performance_interpolates_piecewise_linearly() {
    // "Harmony will interpolate using a piecewise linear curve based on
    // the supplied values."
    let bundle = parse_bundle_script(FIG2B_BAG).unwrap();
    let perf = bundle.options[0].performance.as_ref().unwrap();
    let env = MapEnv::new();
    assert_eq!(perf.predict(1.0, &env).unwrap(), 1200.0);
    assert_eq!(perf.predict(3.0, &env).unwrap(), 480.0); // midpoint of (2,620)-(4,340)
    assert_eq!(perf.predict(6.0, &env).unwrap(), 285.0); // midpoint of (4,340)-(8,230)
}

#[test]
fn fig3_qs_loads_server_ds_loads_client() {
    // "The distinction is that QS consumes more resources at the server,
    // and DS consumes more at the client."
    let bundle = parse_bundle_script(FIG3_DBCLIENT).unwrap();
    let env = MapEnv::new();
    let secs = |opt: &str, node: &str| {
        bundle.option(opt).unwrap().node(node).unwrap().seconds().unwrap().amount(&env).unwrap()
    };
    assert!(secs("QS", "server") > secs("DS", "server"));
    assert!(secs("DS", "client") > secs("QS", "client"));
}

#[test]
fn fig3_elastic_memory_reduces_to_bandwidth_tradeoff() {
    // "The memory tag tells Harmony the minimal amount of memory the
    // application requires, but that additional memory can be used
    // profitably as well… the amount of required bandwidth is dependent on
    // the amount of memory allocated on the client machine."
    let bundle = parse_bundle_script(FIG3_DBCLIENT).unwrap();
    let ds = bundle.option("DS").unwrap();
    assert!(ds.node("client").unwrap().memory().unwrap().is_elastic());
    let bw = &ds.links[0].bandwidth;
    assert_eq!(bw.free_names(), vec!["client.memory".to_string()]);
    // Saturates at the 24 MB cap.
    let at = |mem: i64| {
        let mut env = MapEnv::new();
        env.set("client.memory", Value::Int(mem));
        bw.amount(&env).unwrap()
    };
    assert_eq!(at(17), 44.0);
    assert_eq!(at(24), 51.0);
    assert_eq!(at(64), 51.0);
}

#[test]
fn fig3_different_clients_may_get_different_options() {
    // "The specification does not require the same option to be chosen for
    // all clients, so the system could use data-shipping for some clients
    // and query-shipping for others." Verify mixed assignments are at
    // least representable and committed independently.
    let mut rsl = String::from(
        "harmonyNode server {speed 1.0} {memory 256} {hostname harmony.cs.umd.edu}\n\
         harmonyNode c1 {speed 1.0} {memory 64}\n\
         harmonyNode c2 {speed 1.0} {memory 64}\n\
         harmonyLink server c1 {bandwidth 320}\n\
         harmonyLink server c2 {bandwidth 320}\n",
    );
    rsl.push('\n');
    let cluster = Cluster::from_rsl(&rsl).unwrap();
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    let spec = parse_bundle_script(FIG3_DBCLIENT).unwrap();
    let (a, _) = ctl.register(spec.clone()).unwrap();
    let (b, _) = ctl.register(spec).unwrap();
    let ca = ctl.choice(&a, "where").unwrap().option.clone();
    let cb = ctl.choice(&b, "where").unwrap().option.clone();
    // Both placed; each independently chosen.
    assert!(ca == "QS" || ca == "DS");
    assert!(cb == "QS" || cb == "DS");
    // Server bindings pinned to the named host in both cases.
    assert_eq!(ctl.choice(&a, "where").unwrap().alloc.binding("server").unwrap().node, "server");
    assert_eq!(ctl.choice(&b, "where").unwrap().alloc.binding("server").unwrap().node, "server");
}

#[test]
fn fig3_namespace_name_from_the_paper_resolves() {
    // "The tag describing the memory resources allocated to the client of
    // the data-shipping option would be: DBclient.66.where.DS.client.memory"
    let mut rsl = String::from(
        "harmonyNode server {speed 1.0} {memory 4096} {hostname harmony.cs.umd.edu}\n",
    );
    for i in 0..66 {
        rsl.push_str(&format!("harmonyNode c{i} {{speed 1.0}} {{memory 64}}\n"));
        rsl.push_str(&format!("harmonyLink server c{i} {{bandwidth 320}}\n"));
    }
    let cluster = Cluster::from_rsl(&rsl).unwrap();
    // This test only exercises naming; skip the O(n²) pairwise coordination
    // passes that 66 concurrent instances would otherwise trigger. Each
    // arrival still re-evaluates the clients already placed (§4.3).
    let config = ControllerConfig { coordinated_moves: false, ..Default::default() };
    let mut ctl = Controller::new(cluster, config);
    let spec = parse_bundle_script(FIG3_DBCLIENT).unwrap();
    // Register 66 instances so the 66th gets the paper's instance id.
    let mut last = None;
    for _ in 0..66 {
        let (id, _) = ctl.register(spec.clone()).unwrap();
        last = Some(id);
    }
    let id = last.unwrap();
    assert_eq!(id.to_string(), "DBclient.66");
    let option = ctl.choice(&id, "where").unwrap().option.clone();
    let path: harmony::ns::HPath =
        format!("DBclient.66.where.{option}.client.memory").parse().unwrap();
    let value = ctl.namespace().get(&path).expect("paper's dotted name resolves");
    assert!(value.as_f64().unwrap() >= 2.0);
}
