//! WAL-coverage exhaustiveness guard.
//!
//! Two layers keep the WAL vocabulary honest as the controller grows:
//!
//! 1. **Every written [`WalEvent`] variant is producible and
//!    replayable.** One live controller executes one command of each
//!    kind, so the log contains all of [`WalEvent::VARIANTS`] but
//!    `metric`; replaying that log onto a genesis controller must land on
//!    the identical durable state. Adding a `WalEvent` variant without a
//!    producer fails the set comparison here (and `WalEvent::variant`'s
//!    exhaustive match fails to compile without a name for it). `Metric`
//!    is read-only: old logs hold it and replay it, nothing writes it,
//!    and replaying one changes no durable state.
//!
//! 2. **Every state-mutating MC verb logs before it applies.** Each verb
//!    in the model checker's alphabet is stepped once with crash
//!    enumeration on; the engine's full-stream recovery comparison is
//!    exactly the log-before-apply guard (an applied-but-unlogged
//!    mutation diverges the recovered fingerprint), so a clean step *is*
//!    the assertion. The byte-growth checks pin which verbs are durable —
//!    and which are not: a touch that finds its stamp already at the
//!    clock changes nothing and logs nothing.

use std::collections::BTreeSet;
use std::sync::Arc;

use harmony_core::{Controller, HarmonyEvent, InstanceId, WalEvent};
use harmony_harness::{config_for_seed, PlantedBug};
use harmony_mc::{CrashCtx, Engine, Scope, Verb};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2A_SIMPLE, FIG2B_BAG};
use harmony_rsl::schema::parse_bundle_script;
use harmony_wal::{read_wal, WalConfig, WalTail, WalWriter};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-mc-walcov-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Executes every kind of command on one WAL-attached controller and
/// asserts (a) the log's variant set is exactly `WalEvent::VARIANTS`
/// without the read-only `metric`, (b) replaying the log reproduces the
/// live durable state, and (c) an old `Metric` record replayed on top
/// changes none of it.
#[test]
fn every_written_wal_variant_is_produced_and_replays_to_the_live_state() {
    // Seed 10: coalescing is on, so Tick and Flush can fire.
    let config = config_for_seed(10);
    let cluster = Cluster::from_rsl(&sp2_cluster(8)).expect("sp2 cluster parses");
    let dir = scratch_dir("produce");
    let path = dir.join("coverage.wal");
    let writer =
        Arc::new(WalWriter::create(&path, WalConfig::default()).expect("create coverage wal"));

    let mut live = Controller::new(cluster.clone(), config.clone());
    live.attach_wal(Arc::clone(&writer));

    // One command per variant, each at a moment it does real work.
    let (a, b) = (InstanceId::new("bag", 1), InstanceId::new("simple", 1));
    let bag_script = HarmonyEvent::BundleSetup { instance: a.clone(), script: FIG2B_BAG.into() };
    let simple_spec = parse_bundle_script(FIG2A_SIMPLE).expect("listing parses");
    let commands = [
        WalEvent::Startup { now: 1.0, app: "bag".into() },
        // Coalescing: the placement leaves a dirty mark for the scheduler.
        WalEvent::Event { now: 1.0, event: bag_script },
        // Quiet for longer than the 0.5 s coalesce window.
        WalEvent::Tick { now: 2.5 },
        WalEvent::Startup { now: 2.5, app: "simple".into() },
        WalEvent::Bundle { now: 2.5, id: b.clone(), spec: simple_spec },
        WalEvent::Flush { now: 2.5 },
        WalEvent::Renew { now: 2.5, id: a.clone() },
        WalEvent::Touch { now: 2.5, id: a.clone() },
        WalEvent::Disconnect { now: 2.5, id: a.clone() },
        WalEvent::Reattach { now: 2.5, id: a.clone() },
        WalEvent::Poll { now: 2.5, id: a.clone() },
        WalEvent::End { now: 2.5, id: b },
        WalEvent::Reevaluate { now: 2.5 },
        WalEvent::Reap { now: 2.5 },
    ];
    for command in commands {
        let variant = command.variant();
        live.execute(command).unwrap_or_else(|e| panic!("{variant} command failed: {e}"));
    }
    assert!(live.session(&a).is_some_and(|s| s.renewals >= 2), "renew and reattach both landed");
    assert!(live.metrics().counter("controller.scheduler.windows_fired") >= 2, "tick and flush");

    writer.sync().expect("sync coverage wal");
    let read = read_wal(&path).expect("read coverage wal");
    assert_eq!(read.tail, WalTail::Clean, "a synced log decodes clean");

    let events: Vec<WalEvent> =
        read.records.iter().map(|r| WalEvent::decode(r).expect("wal record parses")).collect();
    let produced: BTreeSet<&'static str> = events.iter().map(WalEvent::variant).collect();
    let expected: BTreeSet<&'static str> =
        WalEvent::VARIANTS.into_iter().filter(|v| *v != "metric").collect();
    assert_eq!(
        produced,
        expected,
        "every written WalEvent variant must be logged by `execute` \
         (missing: {:?}, unexpected: {:?})",
        expected.difference(&produced).collect::<Vec<_>>(),
        produced.difference(&expected).collect::<Vec<_>>()
    );

    // The log is not just complete, it is sufficient: pure replay onto a
    // genesis controller reconstructs the live durable state.
    let mut replayed = Controller::new(cluster, config);
    for ev in events {
        replayed.apply_wal_event(ev);
    }
    let durable = live.persisted_state().recovery_fingerprint();
    assert_eq!(
        replayed.persisted_state().recovery_fingerprint(),
        durable,
        "replaying the full log must reproduce the live durable state"
    );
    let name = format!("{a}.response_time");
    replayed.apply_wal_event(WalEvent::Metric {
        now: 2.5,
        name: name.clone(),
        time: 2.5,
        value: 0.25,
    });
    assert_eq!(
        replayed.metrics().histogram(&name).map(|h| (h.len(), h.mean())),
        Some((1, Some(0.25))),
        "the sample is recorded"
    );
    assert_eq!(
        replayed.persisted_state().recovery_fingerprint(),
        durable,
        "a replayed Metric record is measurement state only"
    );

    drop(live);
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Steps every verb in the MC alphabet once with crash enumeration on.
/// The engine's full-stream recovery comparison runs at each step, so a
/// clean pass proves each verb logged everything it applied; the
/// byte-growth assertions pin which verbs are durable (clock verbs log
/// nothing, every other verb logs at least one record here).
#[test]
fn every_mc_verb_logs_before_apply_under_crash_enumeration() {
    // Seed 10 again so the Tick verb is in the alphabet.
    let scope = Scope {
        clients: 2,
        depth: 18,
        seed: 10,
        max_jumps: 2,
        crashes: true,
        planted: PlantedBug::None,
        unlogged: None,
    };
    let engine = Engine::new(scope);
    let mut ctx = CrashCtx::default();
    let mut node = engine.genesis(Some(&mut ctx));

    // Every alphabet verb appears at a moment it actually fires: the
    // bundle is placed before the poll (so the drain is non-empty), two
    // advances separate the dirty mark from the tick (so the coalesce
    // window has elapsed), an advance precedes the heartbeat and the
    // metric (a touch is logged only when it raises the stamp, and the
    // poll before them already stamped this instant; the touch is all a
    // metric logs), and the final jump+reap expires the leases.
    let path = [
        Verb::Advance,
        Verb::Start(0),
        Verb::AddBundle(0),
        Verb::Advance,
        Verb::Advance,
        Verb::Tick,
        Verb::Poll(0),
        Verb::Advance,
        Verb::Heartbeat(0),
        Verb::Advance,
        Verb::Metric(0),
        Verb::Start(1),
        Verb::End(1),
        Verb::Reap,
        Verb::NodeLeft,
        Verb::NodeRejoin,
        Verb::Jump,
        Verb::Reap,
    ];
    for (i, verb) in path.into_iter().enumerate() {
        let (at_ms, _) = Engine::verb_time(&node, verb);
        let before = ctx.bytes.len();
        node = engine
            .step(&node, verb, at_ms, i, Some(&mut ctx))
            .unwrap_or_else(|v| panic!("step {i} ({verb}) violated: {v}"));
        let grew = ctx.bytes.len() > before;
        match verb {
            Verb::Advance | Verb::Jump => {
                assert!(!grew, "clock verb {verb} must not log WAL records");
            }
            _ => assert!(grew, "state verb {verb} logged no WAL record"),
        }
        if verb == Verb::Heartbeat(0) {
            // The converse: a second heartbeat at the same instant finds
            // the stamp where the first left it — zero bytes, same state.
            let logged = ctx.bytes.len();
            let again = engine
                .step(&node, verb, at_ms, i, Some(&mut ctx))
                .unwrap_or_else(|v| panic!("repeated {verb} violated: {v}"));
            assert_eq!(ctx.bytes.len(), logged, "a no-op touch must not grow the stream");
            assert_eq!(
                again.state.recovery_fingerprint(),
                node.state.recovery_fingerprint(),
                "a no-op touch must leave durable state alone"
            );
        }
    }
    assert!(ctx.cuts > 0, "crash enumeration checked at least one cut");

    // The MC alphabet maps onto a fixed subset of the WAL vocabulary
    // (direct bundle adds, disconnect/reattach, flush, and explicit
    // reevaluation are the wire server's other entry points, covered by
    // the live-controller test above; nothing writes `metric`). Pin that
    // subset so a verb whose logging silently changes shape is caught.
    let read = harmony_wal::decode_records(&ctx.bytes);
    assert_eq!(read.tail, WalTail::Clean);
    let produced: BTreeSet<&'static str> = read
        .records
        .iter()
        .map(|r| WalEvent::decode(r).expect("wal record parses").variant())
        .collect();
    let expected: BTreeSet<&'static str> =
        ["event", "startup", "renew", "touch", "poll", "end", "reap", "tick"].into_iter().collect();
    assert_eq!(produced, expected, "the MC verb alphabet's WAL footprint changed");
}
