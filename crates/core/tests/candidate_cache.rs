//! Candidate-cache lifecycle: a bundle's candidate enumeration is memoized
//! in its instance's record when the bundle is attached (or loaded) and
//! dropped when it is detached or the instance retires, so every pass reads
//! it under `&Controller` and it always equals a fresh `enumerate()`.

use harmony_core::optimizer::{annealing, exhaustive};
use harmony_core::{enumerate_candidates, Controller, ControllerConfig, InstanceId};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony_rsl::schema::parse_bundle_script;

fn controller(nodes: usize, config: ControllerConfig) -> Controller {
    Controller::new(Cluster::from_rsl(&sp2_cluster(nodes)).unwrap(), config)
}

/// Asserts that every bundle of `id` has a memo equal to a fresh
/// enumeration of its spec. A shared borrow is all it takes: a lookup
/// reads the memo, it never fills it.
fn assert_cache_fresh(c: &Controller, id: &InstanceId) {
    for bundle in &c.app(id).expect("instance exists").bundles {
        let name = &bundle.spec.name;
        let fresh = enumerate_candidates(&bundle.spec);
        let cached = c.cached_candidates(id, name).expect("attached bundles are memoized");
        assert_eq!(*cached, fresh, "cache for {id}/{name} diverged from enumerate()");
    }
}

#[test]
fn registration_populates_and_matches_fresh_enumeration() {
    let mut c = controller(8, ControllerConfig::default());
    let (id, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    // The one miss is the attach; the arrival's own pass already hit.
    assert_eq!(c.candidate_cache_len(), 1);
    assert_eq!(c.metrics().counter("controller.optimizer.cache_misses"), 1);
    let hits_before = c.metrics().counter("controller.optimizer.cache_hits");
    assert!(hits_before >= 1);
    assert_cache_fresh(&c, &id);
    // The verification hit the cache, it did not re-enumerate.
    assert_eq!(c.metrics().counter("controller.optimizer.cache_misses"), 1);
    assert_eq!(c.metrics().counter("controller.optimizer.cache_hits"), hits_before + 1);
}

#[test]
fn a_loaded_bundle_is_memoized_before_any_pass_runs() {
    let mut c = controller(8, ControllerConfig::default());
    let (a, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    let (b, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    let loaded = Controller::from_persisted(c.persisted_state()).unwrap();
    // Nothing has planned on the loaded controller, yet every bundle's memo
    // is there: the load enumerated them (two misses, no hit).
    assert_eq!(loaded.metrics().counter("controller.planner.scans"), 0);
    assert_eq!(loaded.candidate_cache_len(), 2);
    assert_eq!(loaded.metrics().counter("controller.optimizer.cache_misses"), 2);
    assert_eq!(loaded.metrics().counter("controller.optimizer.cache_hits"), 0);
    assert_cache_fresh(&loaded, &a);
    assert_cache_fresh(&loaded, &b);
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
    assert_cache_fresh(&c, &id);
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
    assert_cache_fresh(&c, &b);
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
            for id in &live {
                assert_cache_fresh(&c, id);
            }
        }
    }
}
