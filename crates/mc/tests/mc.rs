//! End-to-end model-checker tests: exploration is exhaustive and
//! deterministic, crash enumeration passes on the real controller, and
//! every planted canary comes back as a shrunk, replayable counterexample.

use harmony_harness::{artifact, run_schedule, OpKind, PlantedBug};
use harmony_mc::{counterexample, explore, Engine, Scope, LEAVE_NODE};

fn scope() -> Scope {
    Scope::default()
}

/// Two clients to depth 4: the state counts are pinned exactly. These
/// move only when the controller's observable behavior changes (a new
/// journal entry, a different canonical field) — which is precisely what
/// a reviewer should see in the diff.
#[test]
fn two_client_depth_four_exploration_is_exhaustive() {
    let ex = explore(&Scope { depth: 4, ..scope() });
    assert!(ex.counterexample.is_none(), "unplanted exploration must be clean");
    assert_eq!(ex.stats.distinct_states, 1084);
    assert_eq!(ex.stats.transitions, 1669);
    assert_eq!(ex.stats.revisits, 586);
    assert_eq!(ex.stats.per_depth[0], 1, "genesis is the only depth-0 state");
    assert_eq!(
        ex.stats.per_depth.iter().sum::<usize>(),
        ex.stats.distinct_states,
        "per-depth counts partition the distinct states"
    );
}

/// A node that leaves and rejoins takes the harness's transition: it comes
/// back with its declaration and a link to every live peer, so the
/// cluster is the genesis cluster again. (A rejoin that re-added the node
/// without its links would leave it unreachable, and a counterexample
/// through it would replay in the harness as a different transition.)
#[test]
fn a_node_that_leaves_and_rejoins_restores_the_genesis_cluster() {
    let engine = Engine::new(scope());
    let genesis = engine.genesis(None);
    let left = engine
        .step(&genesis, 0, Some(&OpKind::NodeLeft { node: LEAVE_NODE }), 0, None)
        .expect("node-left is clean");
    assert_ne!(left.state.cluster, genesis.state.cluster, "the node actually left");
    let rejoined = engine
        .step(&left, 0, Some(&OpKind::NodeRejoin { node: LEAVE_NODE }), 1, None)
        .expect("node-rejoin is clean");
    assert_eq!(rejoined.state.cluster, genesis.state.cluster);
}

/// The same exploration twice gives bit-identical counters: exploration
/// order, canonicalization, and fingerprinting are all deterministic, so
/// a counterexample found in CI is reproducible locally by rerunning.
#[test]
fn exploration_is_deterministic() {
    let scope = Scope { depth: 4, ..scope() };
    let first = explore(&scope);
    let second = explore(&scope);
    assert_eq!(first.stats, second.stats);
}

/// Crash enumeration over a one-client scope: every record-boundary and
/// torn-tail cut of every path's WAL stream recovers a consistent state.
#[test]
fn crash_enumeration_is_clean() {
    let ex = explore(&Scope { clients: 1, depth: 4, crashes: true, ..scope() });
    assert!(
        ex.counterexample.is_none(),
        "crash recovery must be clean at every cut: {:?}",
        ex.counterexample.map(|c| c.violation)
    );
    assert!(ex.stats.crash_cuts > 0, "crash mode actually enumerated cuts");
}

/// The sleep-set reduction fires (beyond what fingerprint dedup already
/// collapses) once paths are deep enough to chain read-only ops.
#[test]
fn partial_order_reduction_skips_commuting_orders() {
    let ex = explore(&Scope { depth: 5, ..scope() });
    assert!(ex.counterexample.is_none());
    assert!(ex.stats.por_skips > 0, "sleep-set rule never fired at depth 5");
}

/// The harness-visible canary: a reaper that skips the touch-fold is
/// caught by the lease-agreement oracle, and the counterexample shrinks
/// to a harness-confirmed artifact of at most 10 ops that `harness
/// replay` reproduces.
#[test]
fn reaper_canary_shrinks_to_a_harness_replayable_artifact() {
    let scope =
        Scope { clients: 1, depth: 5, planted: PlantedBug::ReaperSkipsTouchFold, ..scope() };
    let ex = explore(&scope);
    let ce = ex.counterexample.expect("the planted reaper bug must be found");
    assert_eq!(ce.violation.oracle, "lease");

    let dir = std::env::temp_dir().join(format!("harmony-mc-canary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let processed = counterexample::process(&ce, &scope, Some(&dir));
    assert!(processed.harness_confirmed, "the full-stack harness must see this bug");
    assert!(
        processed.shrunk_to <= 10,
        "canary must shrink to <= 10 ops, got {}",
        processed.shrunk_to
    );

    // The saved artifact round-trips and replays through the production
    // harness to the same oracle.
    let path = processed.path.expect("artifact was saved");
    let loaded = artifact::load(&path).expect("artifact loads");
    assert_eq!(loaded.schedule.ops.len(), processed.shrunk_to);
    let report = run_schedule(&loaded.schedule, loaded.planted);
    let violation = report.violation.expect("harness replay reproduces the violation");
    assert_eq!(violation.oracle, loaded.violation.oracle);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-only canaries: a renewal, or a stamp-raising touch, applied
/// but never logged is invisible to every in-memory oracle, and only the
/// recovery comparison catches it. The counterexample is minimized by the
/// harness's shrinker with the MC engine as its failure predicate, and
/// replays through the engine.
#[test]
fn unlogged_verb_canaries_are_caught_by_crash_enumeration_only() {
    for (variant, caught_by) in [
        ("renew", "full-stream recovery diverges"),
        // `touch` is what eliding one touch too many would look like: the
        // heartbeat's only record is gone, so nothing was logged at all.
        ("touch", "verb logged nothing but changed durable state"),
    ] {
        let scope =
            Scope { clients: 1, depth: 3, crashes: true, unlogged: Some(variant), ..scope() };
        let ex = explore(&scope);
        let ce = ex.counterexample.unwrap_or_else(|| panic!("unlogged {variant} must be found"));
        assert_eq!(ce.violation.oracle, "crash");
        assert!(ce.violation.detail.contains(caught_by), "{variant}: {}", ce.violation.detail);

        let processed = counterexample::process(&ce, &scope, None);
        assert!(!processed.harness_confirmed, "a crash-only bug must not be harness-confirmable");
        assert!(processed.shrunk_to <= 3, "{variant} shrank to {} ops", processed.shrunk_to);

        // The engine (crash cuts on) reproduces the artifact.
        let engine = Engine::new(scope);
        let outcome = engine.run_ops(&processed.artifact.schedule.ops);
        let violation = outcome.violation.expect("engine replay reproduces the violation");
        assert_eq!(violation.oracle, "crash");

        // And without the planted bug, the very same ops are clean — the
        // violation is the bug's, not the checker's.
        let clean = Engine::new(Scope { unlogged: None, ..scope });
        assert!(clean.run_ops(&processed.artifact.schedule.ops).violation.is_none());
    }
}
