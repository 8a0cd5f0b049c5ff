//! Canonicalization properties behind the sleep-set reduction and the
//! visited-set dedup.
//!
//! The checker's two load-bearing claims about fingerprints:
//!
//! - **Commuting orders collapse.** Read-only verbs (heartbeats, polls
//!   with nothing pending) executed at one clock commute bit-for-bit, so
//!   any permutation of a read-only batch must land on the same
//!   canonical fingerprint — this is what licenses both the sleep-set
//!   skip and treating the visited set as a state *graph*.
//! - **Observable differences separate.** Anything an oracle or a client
//!   could distinguish — a drained bundle variable, a moved clock — must
//!   change the fingerprint, or dedup would merge states the checker still
//!   needs to tell apart. A metric report is not such a difference: it
//!   renews the lease as a heartbeat does, and its sample is measurement
//!   state, outside the durable image.

use harmony_mc::{Engine, Node, Scope, Verb};
use proptest::prelude::*;

/// Genesis, one advance, both clients started, client 0's bundle placed
/// and its pending variables drained: from here every heartbeat and poll
/// is read-only.
fn quiescent_base(engine: &Engine) -> Node {
    let path = [Verb::Advance, Verb::Start(0), Verb::Start(1), Verb::AddBundle(0), Verb::Poll(0)];
    let mut node = engine.genesis(None);
    for (i, verb) in path.into_iter().enumerate() {
        let (at_ms, _) = Engine::verb_time(&node, verb);
        node = engine.step(&node, verb, at_ms, i, None).expect("base path is clean");
    }
    node
}

fn apply(engine: &Engine, mut node: Node, verbs: &[Verb]) -> Node {
    for (i, verb) in verbs.iter().enumerate() {
        let (at_ms, _) = Engine::verb_time(&node, *verb);
        node = engine.step(&node, *verb, at_ms, 100 + i, None).expect("verb applies");
    }
    node
}

/// The read-only alphabet at the quiescent base.
const READ_ONLY: [Verb; 4] = [Verb::Heartbeat(0), Verb::Heartbeat(1), Verb::Poll(0), Verb::Poll(1)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any permutation of a batch of read-only verbs reaches the same
    /// canonical fingerprint: applied as generated, reversed, and
    /// sorted, the three orders agree.
    #[test]
    fn permuted_read_only_batches_share_a_fingerprint(
        picks in prop::collection::vec(0usize..READ_ONLY.len(), 1..7),
    ) {
        let engine = Engine::new(Scope::default());
        let base = quiescent_base(&engine);
        let batch: Vec<Verb> = picks.iter().map(|&i| READ_ONLY[i]).collect();
        let mut reversed = batch.clone();
        reversed.reverse();
        let mut sorted = batch.clone();
        sorted.sort_by_key(|v| v.ord());

        let forward = apply(&engine, base.clone(), &batch).fingerprint;
        let backward = apply(&engine, base.clone(), &reversed).fingerprint;
        let canonical = apply(&engine, base, &sorted).fingerprint;
        prop_assert_eq!(forward, backward);
        prop_assert_eq!(forward, canonical);
    }

    /// Appending an observable difference to a read-only batch separates
    /// the fingerprints: a clock step (canonical time) must produce a state
    /// dedup may not merge with the quiescent one. A metric report leaves
    /// exactly the state a heartbeat from the same client leaves.
    #[test]
    fn observable_differences_separate_fingerprints(
        picks in prop::collection::vec(0usize..READ_ONLY.len(), 0..5),
    ) {
        let engine = Engine::new(Scope::default());
        let base = quiescent_base(&engine);
        let batch: Vec<Verb> = picks.iter().map(|&i| READ_ONLY[i]).collect();
        let quiet = apply(&engine, base, &batch);

        let advanced = apply(&engine, quiet.clone(), &[Verb::Advance]);
        prop_assert_ne!(quiet.fingerprint, advanced.fingerprint);

        let with_metric = apply(&engine, quiet.clone(), &[Verb::Metric(0)]);
        let with_heartbeat = apply(&engine, quiet, &[Verb::Heartbeat(0)]);
        prop_assert_eq!(with_metric.fingerprint, with_heartbeat.fingerprint);
    }
}
