//! Candidate-cache lifecycle: the controller memoizes per-bundle candidate
//! enumerations inside each instance's record, and every mutation around
//! them (adding or retrying bundles, ending instances, lease-reaping) must
//! leave the memo consistent with a fresh `enumerate()`.

use harmony_core::optimizer::{annealing, exhaustive};
use harmony_core::{enumerate_candidates, Controller, ControllerConfig, InstanceId};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony_rsl::schema::parse_bundle_script;

fn controller(nodes: usize, config: ControllerConfig) -> Controller {
    Controller::new(Cluster::from_rsl(&sp2_cluster(nodes)).unwrap(), config)
}

/// Asserts that every cached entry for `id`'s bundles matches a fresh
/// enumeration of the current spec.
fn assert_cache_fresh(c: &mut Controller, id: &InstanceId) {
    let names: Vec<String> = {
        let app = c.app(id).expect("instance exists");
        app.bundles.iter().map(|b| b.spec.name.clone()).collect()
    };
    for name in names {
        let fresh = {
            let spec = &c.app(id).unwrap().bundle(&name).unwrap().spec;
            enumerate_candidates(spec, &c.config().elastic_steps.clone())
        };
        let cached = c.cached_candidates(id, &name).expect("cacheable");
        assert_eq!(*cached, fresh, "cache for {id}/{name} diverged from enumerate()");
    }
}

#[test]
fn registration_populates_and_matches_fresh_enumeration() {
    let mut c = controller(8, ControllerConfig::default());
    let (id, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    // Greedy arrival placement already enumerated (and memoized) once.
    assert_eq!(c.candidate_cache_len(), 1);
    let misses_before = c.metrics().counter("controller.optimizer.cache_misses");
    assert_cache_fresh(&mut c, &id);
    // The verification hit the cache, it did not re-enumerate.
    assert_eq!(c.metrics().counter("controller.optimizer.cache_misses"), misses_before);
    assert!(c.metrics().counter("controller.optimizer.cache_hits") >= 1);
}

#[test]
fn a_retried_bundle_keeps_its_memo() {
    let mut c = controller(8, ControllerConfig::default());
    let id = c.startup("bag");
    c.add_bundle(&id, parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    let first = c.cached_candidates(&id, "config").unwrap();
    // A spec never changes once attached (a differing re-add is refused),
    // so a retry has nothing to invalidate and re-enumerates nothing.
    let misses_before = c.metrics().counter("controller.optimizer.cache_misses");
    c.add_bundle(&id, parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    assert_eq!(c.metrics().counter("controller.optimizer.cache_misses"), misses_before);
    let second = c.cached_candidates(&id, "config").unwrap();
    assert!(std::sync::Arc::ptr_eq(&first, &second));
    assert_eq!(c.candidate_cache_len(), 1);
    assert_cache_fresh(&mut c, &id);
}

#[test]
fn end_drops_the_instances_cache_entries() {
    let mut c = controller(8, ControllerConfig::default());
    let (a, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    let (b, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    assert_eq!(c.candidate_cache_len(), 2);
    c.end(&a).unwrap();
    assert_eq!(c.candidate_cache_len(), 1, "ended instance's entries must go");
    assert!(c.cached_candidates(&a, "config").is_none(), "no resurrection for retired ids");
    assert_cache_fresh(&mut c, &b);
}

#[test]
fn reap_driven_retirement_drops_cache_entries() {
    let mut c = controller(8, ControllerConfig::default());
    let (id, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    assert_eq!(c.candidate_cache_len(), 1);
    c.mark_disconnected(&id);
    c.set_time(1_000.0);
    let records = c.reap_expired(1_000.0).unwrap();
    assert!(c.app(&id).is_none(), "instance reaped: {records:?}");
    assert_eq!(c.candidate_cache_len(), 0, "reaped instance's entries must go");
}

#[test]
fn churn_keeps_cache_consistent_under_every_optimizer() {
    type Search = fn(&mut Controller);
    let searches: [(&str, Search); 3] = [
        ("greedy", |c| drop(c.reevaluate().unwrap())),
        ("exhaustive", |c| drop(exhaustive(c, 1_000_000).unwrap())),
        ("annealing", |c| drop(annealing(c, 80, 40.0, 5, 2).unwrap())),
    ];
    for (kind, search) in searches {
        let mut c = controller(8, ControllerConfig::default());
        let mut live: Vec<InstanceId> = Vec::new();
        for round in 0..6 {
            let (id, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
            live.push(id);
            search(&mut c);
            if round % 2 == 1 {
                let gone = live.remove(0);
                c.end(&gone).unwrap();
                assert!(c.cached_candidates(&gone, "config").is_none());
                search(&mut c);
            }
            // One cache entry per live bundle, each matching enumerate().
            assert_eq!(c.candidate_cache_len(), live.len(), "round {round} under {kind}");
            for id in live.clone() {
                assert_cache_fresh(&mut c, &id);
            }
        }
    }
}
