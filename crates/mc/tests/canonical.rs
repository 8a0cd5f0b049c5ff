//! Canonicalization properties behind the sleep-set reduction and the
//! visited-set dedup.
//!
//! The checker's two load-bearing claims about fingerprints:
//!
//! - **Commuting orders collapse.** Read-only ops (heartbeats, polls
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

use harmony_harness::OpKind;
use harmony_mc::{Engine, Move, Node, Scope, METRIC_MS};
use proptest::prelude::*;

/// Genesis, one advance, both clients started, client 0's bundle placed
/// and its pending variables drained: from here every heartbeat and poll
/// is read-only.
fn quiescent_base(engine: &Engine) -> Node {
    let path = [
        Move::Advance,
        Move::Op(OpKind::Start { client: 0 }),
        Move::Op(OpKind::Start { client: 1 }),
        Move::Op(OpKind::AddBundle { client: 0 }),
        Move::Op(OpKind::Poll { client: 0 }),
    ];
    apply(engine, engine.genesis(None), &path)
}

fn apply(engine: &Engine, mut node: Node, moves: &[Move]) -> Node {
    for (i, mv) in moves.iter().enumerate() {
        let at_ms = mv.time(node.at_ms);
        node = engine.step(&node, at_ms, mv.op(), 100 + i, None).expect("move applies");
    }
    node
}

/// The read-only alphabet at the quiescent base.
const READ_ONLY: [OpKind; 4] = [
    OpKind::Heartbeat { client: 0 },
    OpKind::Heartbeat { client: 1 },
    OpKind::Poll { client: 0 },
    OpKind::Poll { client: 1 },
];

fn read_only(pick: usize) -> Move {
    Move::Op(READ_ONLY[pick].clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any permutation of a batch of read-only ops reaches the same
    /// canonical fingerprint: applied as generated, reversed, and
    /// sorted, the three orders agree.
    #[test]
    fn permuted_read_only_batches_share_a_fingerprint(
        picks in prop::collection::vec(0usize..READ_ONLY.len(), 1..7),
    ) {
        let engine = Engine::new(Scope::default());
        let base = quiescent_base(&engine);
        let batch: Vec<Move> = picks.iter().map(|&i| read_only(i)).collect();
        let mut reversed = batch.clone();
        reversed.reverse();
        let mut sorted_picks = picks.clone();
        sorted_picks.sort_unstable();
        let sorted: Vec<Move> = sorted_picks.into_iter().map(read_only).collect();

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
        let batch: Vec<Move> = picks.iter().map(|&i| read_only(i)).collect();
        let quiet = apply(&engine, base, &batch);

        let advanced = apply(&engine, quiet.clone(), &[Move::Advance]);
        prop_assert_ne!(quiet.fingerprint, advanced.fingerprint);

        let metric = Move::Op(OpKind::Metric { client: 0, millis: METRIC_MS });
        let with_metric = apply(&engine, quiet.clone(), &[metric]);
        let with_heartbeat = apply(&engine, quiet, &[read_only(0)]);
        prop_assert_eq!(with_metric.fingerprint, with_heartbeat.fingerprint);
    }
}
