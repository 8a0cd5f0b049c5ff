//! Controller edge cases beyond the paper's experiments: multi-bundle
//! applications, elastic memory search, and population stress.

use harmony_core::optimizer::EvalCtx;
use harmony_core::{Controller, ControllerConfig, CoreError, LintMode};
use harmony_resources::Cluster;
use harmony_rsl::listings::sp2_cluster;
use harmony_rsl::schema::parse_bundle_script;

fn cluster(n: usize) -> Cluster {
    Cluster::from_rsl(&sp2_cluster(n)).unwrap()
}

#[test]
fn one_application_with_two_bundles() {
    // An application may export several orthogonal bundles (§3: options
    // "locate an individual application in n-dimensional space").
    let mut ctl = Controller::new(cluster(8), ControllerConfig::default());
    let id = ctl.startup("multi");
    let compute = parse_bundle_script(
        "harmonyBundle multi:1 compute { {run {variable w {1 2 4}} \
         {node worker {replicate w} {seconds {600 / w}} {memory 16}} \
         {performance {1 600} {2 320} {4 180}}} }",
    )
    .unwrap();
    let cache = parse_bundle_script(
        "harmonyBundle multi:1 cache { {small {node c {seconds 5} {memory 8}}} \
         {large {node c {seconds 2} {memory 128}}} }",
    )
    .unwrap();
    ctl.add_bundle(&id, compute).unwrap();
    ctl.add_bundle(&id, cache).unwrap();
    let app = ctl.app(&id).unwrap();
    assert_eq!(app.bundles.len(), 2);
    assert!(ctl.choice(&id, "compute").is_some());
    assert!(ctl.choice(&id, "cache").is_some());
    // Response time is the max across bundles.
    let rts = ctl.predicted_response_times();
    assert_eq!(rts.len(), 1);
    assert!(rts[0].1 >= 180.0);
    // Ending releases every bundle's allocation.
    ctl.end(&id).unwrap();
    assert_eq!(ctl.cluster().total_tasks(), 0);
    assert_eq!(ctl.cluster().total_free_memory(), ctl.cluster().total_memory());
}

#[test]
fn elastic_memory_is_granted_when_it_pays() {
    // More client memory reduces the communication volume (as in §3.5's
    // memory-for-bandwidth trade), so the controller should pick a
    // non-zero elastic grant.
    let spec = parse_bundle_script(
        "harmonyBundle trade:1 b { {o \
           {node client {memory >=10} {seconds 10}} \
           {node server {seconds 1} {memory 4}} \
           {communication {120 - (client.memory > 50 ? 50 : client.memory)}} \
           {link client server 100}} }",
    )
    .unwrap();
    let mut ctl = Controller::new(cluster(4), ControllerConfig::default());
    let (id, _) = ctl.register(spec).unwrap();
    let choice = ctl.choice(&id, "b").unwrap().clone();
    assert_eq!(choice.elastic_extra, 30.0, "chose the largest elastic grant");
    assert_eq!(choice.alloc.binding("client").unwrap().memory, 40.0);
    // And it genuinely predicted faster than the minimal grant would be:
    // the 0 MB candidate, evaluated on the same cluster.
    let cands = ctl.cached_candidates(&id, "b").unwrap();
    let extras: Vec<f64> = cands.iter().map(|c| c.elastic_extra).collect();
    assert_eq!(extras, [0.0, 7.0, 15.0, 30.0]);
    let ctx = EvalCtx::build(&mut ctl).unwrap();
    let predicted = |at: usize| ctx.eval_fresh(&[at]).unwrap().unwrap().rts[0];
    assert_eq!(predicted(3), choice.predicted);
    assert!(choice.predicted < predicted(0));
}

#[test]
fn twenty_applications_place_and_drain_cleanly() {
    let spec =
        parse_bundle_script("harmonyBundle small:1 b { {o {node n {seconds 10} {memory 12}}} }")
            .unwrap();
    let mut ctl = Controller::new(cluster(8), ControllerConfig::default());
    let mut ids = Vec::new();
    for _ in 0..20 {
        let (id, _) = ctl.register(spec.clone()).unwrap();
        ids.push(id);
    }
    assert_eq!(ctl.cluster().total_tasks(), 20);
    // Load is spread: no node hosts more than ceil(20/8) + 1 tasks.
    for n in ctl.cluster().nodes() {
        assert!(n.tasks <= 4, "{}: {} tasks", n.decl.name, n.tasks);
    }
    // Everything drains.
    for id in ids {
        ctl.end(&id).unwrap();
    }
    assert_eq!(ctl.cluster().total_tasks(), 0);
    assert_eq!(ctl.instances().len(), 0);
    assert!(ctl.namespace().is_empty());
}

#[test]
fn bundle_names_can_collide_across_applications() {
    // Two different applications using the same bundle name must not
    // interfere (the namespace is rooted at app.instance).
    let a =
        parse_bundle_script("harmonyBundle alpha:1 config { {o {node n {seconds 1} {memory 1}}} }")
            .unwrap();
    let b =
        parse_bundle_script("harmonyBundle beta:1 config { {o {node n {seconds 2} {memory 2}}} }")
            .unwrap();
    let mut ctl = Controller::new(cluster(4), ControllerConfig::default());
    let (ia, _) = ctl.register(a).unwrap();
    let (ib, _) = ctl.register(b).unwrap();
    let ca = ctl.choice(&ia, "config").unwrap();
    let cb = ctl.choice(&ib, "config").unwrap();
    assert_eq!(ca.alloc.nodes[0].seconds, 1.0);
    assert_eq!(cb.alloc.nodes[0].seconds, 2.0);
}

#[test]
fn unknown_bundle_lookup_is_none_not_panic() {
    let mut ctl = Controller::new(cluster(2), ControllerConfig::default());
    let id = ctl.startup("x");
    assert!(ctl.choice(&id, "ghost").is_none());
    let ghost = harmony_core::InstanceId::new("nope", 1);
    assert!(ctl.choice(&ghost, "config").is_none());
    assert!(ctl.app(&ghost).is_none());
}

/// A bundle that cannot be *evaluated* (as opposed to merely placed) must
/// not stay attached: it would fail every later pass the same way and
/// starve the instances behind it in arrival order. The strict lint gate
/// rejects such bundles up front; the permissive modes reach placement.
#[test]
fn a_bundle_rejected_with_a_hard_error_is_detached() {
    let broken = [
        "harmonyBundle bad:1 config { {run {node worker {replicate nosuchvar} \
         {seconds 10} {memory 32}}} }",
        "harmonyBundle bad:1 config { {run {node a {seconds 10} {memory 32}} \
         {node b {seconds 10} {memory 32}} {link a b {nosuch.memory + 1}}} }",
    ];
    for (script, lint) in broken.into_iter().zip([LintMode::Advisory, LintMode::Off]) {
        let mut ctl = Controller::new(cluster(8), ControllerConfig { lint, ..Default::default() });
        let bag = parse_bundle_script(harmony_rsl::listings::FIG2B_BAG).unwrap();
        let (first, _) = ctl.register(bag.clone()).unwrap();
        let (second, _) = ctl.register(bag).unwrap();
        let bad = ctl.startup("bad");
        let err = ctl.add_bundle(&bad, parse_bundle_script(script).unwrap()).unwrap_err();
        assert!(!matches!(err, CoreError::Unplaceable { .. }), "{lint:?}: {err}");

        assert!(ctl.app(&bad).unwrap().bundles.is_empty(), "{lint:?}: bundle still attached");
        assert!(ctl.cached_candidates(&bad, "config").is_none());
        ctl.end(&first).unwrap();
        assert_eq!(ctl.choice(&second, "config").unwrap().label(), "run[workerNodes=8]");
        ctl.reevaluate().unwrap();
    }
}
