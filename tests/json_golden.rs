//! The JSON the workspace writes, pinned byte for byte: status snapshots,
//! every WAL record shape, a snapshot image with non-string-keyed maps, a
//! journal page, lint and facts payloads and a harness artifact, each in
//! compact and pretty form under `tests/fixtures/json/`.
//!
//! Every fixture must also parse back into its type and re-serialize to
//! the same bytes, so a reader that drops or alters a value fails here
//! even where the writer is right. Nothing here reads a wall clock.

use harmony_analyze::facts::{script_facts, ScriptFacts};
use harmony_analyze::json::JsonDiagnostic;
use harmony_core::{
    AppSnapshot, Controller, ControllerConfig, HarmonyEvent, HistogramSnapshot, InstanceId,
    JournalTail, NodeSnapshot, OptimizerSnapshot, PersistedState, PersistenceSnapshot,
    RecoveryInfo, RetireReason, RetirementRecord, SchedulerSnapshot, SessionSnapshot,
    SystemSnapshot, WalEvent,
};
use harmony_harness::artifact::Artifact;
use harmony_harness::{generate, PlantedBug, Violation};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2A_SIMPLE, FIG2B_BAG};
use harmony_rsl::schema::{parse_bundle_script, LinkDecl, NodeDecl};
use serde::{Deserialize, Serialize};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/json");

/// `actual` equals the committed fixture `name`, byte for byte.
fn check(name: &str, actual: &str) {
    let path = format!("{FIXTURES}/{name}");
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(actual == pinned, "{name}: the bytes moved\n  now: {actual}\npinned: {pinned}");
}

/// `value` writes exactly the two pinned fixtures, and each fixture reads
/// back into a value that writes it again.
fn pin<T: Serialize + Deserialize>(name: &str, value: &T) {
    let compact = serde_json::to_string(value).unwrap();
    let pretty = serde_json::to_string_pretty(value).unwrap();
    check(&format!("{name}.json"), &compact);
    check(&format!("{name}.pretty.json"), &pretty);
    let back: T = serde_json::from_str(&compact).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), compact, "{name}: compact re-read");
    let back: T = serde_json::from_str(&pretty).unwrap();
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), pretty, "{name}: pretty re-read");
}

/// Quotes, a backslash and control characters, named and numeric escapes.
const AWKWARD_NAME: &str = "node \"7\" \\ tab\t nl\n cr\r bell\u{7} us\u{1f} del\u{7f} é ∞";

fn hand_built_snapshot() -> SystemSnapshot {
    let bag = InstanceId::new("bag", 3);
    SystemSnapshot {
        time: 12.5,
        objective: 0.1 + 0.2,
        objective_name: "min-avg-completion".into(),
        apps: vec![AppSnapshot {
            instance: "bag.3".into(),
            arrived_at: -0.0,
            bundles: vec![
                ("run".into(), "run[workerNodes=8]".into(), 230.0, 2),
                ("idle".into(), "-".into(), f64::INFINITY, 0),
                ("big".into(), "big[n=1]".into(), 1e15, u32::MAX),
                ("bigger".into(), "big[n=2]".into(), 9_007_199_254_740_992.0, 1),
            ],
        }],
        nodes: vec![
            NodeSnapshot {
                name: AWKWARD_NAME.into(),
                speed: 1.5e-7,
                free_memory: 999_999_999_999_999.0,
                total_memory: 1e300,
                tasks: 0,
                exclusive: 1,
            },
            NodeSnapshot {
                name: "node01".into(),
                speed: -2.0,
                free_memory: 0.0,
                total_memory: 256.0,
                tasks: 3,
                exclusive: 0,
            },
        ],
        decisions: 7,
        sessions: vec![SessionSnapshot {
            instance: "bag.3".into(),
            lease_deadline: 42.25,
            disconnected: true,
            renewals: u64::MAX,
        }],
        retired: vec![
            RetirementRecord {
                time: 3.0,
                instance: InstanceId::new("simple", 1),
                reason: RetireReason::Ended,
            },
            RetirementRecord { time: 31.5, instance: bag, reason: RetireReason::LeaseExpired },
            RetirementRecord {
                time: f64::NEG_INFINITY,
                instance: InstanceId::new("db", u64::MAX),
                reason: RetireReason::Disconnected,
            },
        ],
        optimizer: OptimizerSnapshot {
            searches: 1,
            evals: 2,
            infeasible: 3,
            cache_hits: 4,
            cache_misses: 5,
            cache_size: 6,
            last_wall_ms: 0.125,
            pruning_dominated: 7,
            pruning_infeasible: 8,
            pruning_nodes_pruned: 9,
            planner_scans: 10,
            planner_trials: 11,
            planner_matches: 12,
        },
        scheduler: SchedulerSnapshot {
            pending: 1,
            windows_fired: 2,
            coalesced_arrivals: 3,
            decisions_saved: 4,
        },
        histograms: vec![
            HistogramSnapshot {
                name: "controller.phase.commit".into(),
                count: 3,
                mean: 1.0 / 3.0,
                max: 1e-300,
                p50: 0.5,
                p95: 2.0,
            },
            HistogramSnapshot {
                name: "bag.3.response_time".into(),
                count: 0,
                mean: f64::NAN,
                max: -1e15,
                p50: -123_456.0,
                p95: 1e16,
            },
        ],
        journal_seq: 9_007_199_254_740_993,
        persistence: Some(PersistenceSnapshot {
            recovery: Some(RecoveryInfo {
                generation: 4,
                snapshot_loaded: None,
                replayed: 17,
                torn_tail: true,
            }),
            appends: 1,
            append_errors: 0,
            checkpoints: 2,
        }),
    }
}

/// One event of each of the fourteen variants, the `Event` arm once per
/// shape of delivered event, and edge floats in the `Metric` ones.
fn wal_events() -> Vec<WalEvent> {
    let id = InstanceId::new("bag", 1);
    let event = |now, event| WalEvent::Event { now, event };
    vec![
        event(0.5, HarmonyEvent::BundleSetup { instance: id.clone(), script: FIG2B_BAG.into() }),
        event(1.0, HarmonyEvent::Reattach { instance: id.clone() }),
        event(2.0, HarmonyEvent::Periodic),
        event(3.0, HarmonyEvent::NodeJoined(NodeDecl::new("node08", 1.25, 512.0))),
        event(4.0, HarmonyEvent::LinkJoined(LinkDecl::new("node00", "node08", 100.0))),
        event(5.0, HarmonyEvent::NodeLeft { name: AWKWARD_NAME.into() }),
        WalEvent::Startup { now: 0.0, app: "bag".into() },
        WalEvent::Bundle {
            now: 0.25,
            id: id.clone(),
            spec: parse_bundle_script(FIG2A_SIMPLE).unwrap(),
        },
        WalEvent::End { now: 6.0, id: id.clone() },
        WalEvent::Renew { now: 7.0, id: id.clone() },
        WalEvent::Reattach { now: 8.0, id: id.clone() },
        WalEvent::Disconnect { now: 9.0, id: id.clone() },
        WalEvent::Touch { now: 10.0, id: id.clone() },
        WalEvent::Poll { now: 11.0, id: id.clone() },
        WalEvent::Metric { now: 12.0, name: "bag.1.response_time".into(), time: 12.0, value: 0.25 },
        WalEvent::Metric { now: -0.0, name: "bag.1.x".into(), time: 1e15, value: f64::NAN },
        WalEvent::Metric {
            now: 9_007_199_254_740_992.0,
            name: "bag.1.y".into(),
            time: f64::NEG_INFINITY,
            value: f64::INFINITY,
        },
        WalEvent::Reap { now: 13.0 },
        WalEvent::Tick { now: 14.0 },
        WalEvent::Flush { now: 15.0 },
        WalEvent::Reevaluate { now: 16.5 },
    ]
}

/// A scripted run touching every part of the image: two bags and a
/// `simple`, metrics, a renew, a disconnect and reattach, an undrained
/// poll buffer, an unfolded touch, an end, a node leaving and a link.
fn scripted_controller() -> Controller {
    let mut c =
        Controller::new(Cluster::from_rsl(&sp2_cluster(8)).unwrap(), ControllerConfig::default());
    c.set_time(1.0);
    let (a, _) = c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
    c.set_time(2.0);
    let b = c.startup("bag");
    c.handle_event(HarmonyEvent::BundleSetup { instance: b.clone(), script: FIG2B_BAG.into() })
        .unwrap();
    let s = c.startup("simple");
    c.handle_event(HarmonyEvent::BundleSetup { instance: s.clone(), script: FIG2A_SIMPLE.into() })
        .unwrap();
    c.set_time(3.0);
    for i in 0..4 {
        c.record_metric(&format!("{a}.response_time"), 3.0 + i as f64 * 0.1, 12.0 + i as f64);
    }
    assert!(c.renew_lease(&a));
    c.set_time(4.0);
    c.mark_disconnected(&b);
    c.reattach(&b).unwrap();
    c.set_time(5.0);
    c.touch(&a);
    c.end(&s).unwrap();
    c.handle_event(HarmonyEvent::LinkJoined(LinkDecl::new("node00", "node01", 622.0))).unwrap();
    c.handle_event(HarmonyEvent::NodeLeft { name: "node07".into() }).unwrap();
    c.handle_event(HarmonyEvent::Periodic).unwrap();
    c
}

fn scripted_image() -> PersistedState {
    scripted_controller().persisted_state()
}

#[test]
fn a_status_snapshot_writes_its_pinned_bytes() {
    pin("system_snapshot", &hand_built_snapshot());
}

#[test]
fn every_wal_record_shape_writes_its_pinned_bytes() {
    let events = wal_events();
    let mut seen: Vec<&str> = events.iter().map(WalEvent::variant).collect();
    seen.dedup();
    assert_eq!(seen, WalEvent::VARIANTS);
    // One compact record per line: exactly what the WAL stores.
    let lines: Vec<String> = events.iter().map(|ev| serde_json::to_string(ev).unwrap()).collect();
    check("wal_events.jsonl", &(lines.join("\n") + "\n"));
    for line in &lines {
        let back: WalEvent = serde_json::from_str(line).unwrap();
        assert_eq!(&serde_json::to_string(&back).unwrap(), line);
    }
    pin("wal_events", &events);
}

#[test]
fn a_snapshot_image_writes_its_pinned_bytes() {
    let image = scripted_image();
    let json = image.canonical_json();
    assert!(json.contains("[[{"), "the image holds a map whose keys are not strings");
    pin("persisted_state", &image);
}

#[test]
fn a_journal_page_writes_its_pinned_bytes() {
    let tail: JournalTail = scripted_controller().journal_tail(0, 1000);
    check("journal_tail.json", &tail.to_json());
    pin("journal_tail", &tail);
}

/// An undeclared replica count and a division by a domain holding zero:
/// findings with labels, line/column and a counterexample note.
const BROKEN_BUNDLE: &str =
    "harmonyBundle a b {\n  {o {variable z {0 1 2}} {node n {replicate w} {seconds {1200 / z}}}}\n}\n";

fn lint_views(src: &str) -> Vec<JsonDiagnostic> {
    let diags = harmony_analyze::analyze_script(src).unwrap();
    diags.iter().map(|d| JsonDiagnostic::from_diagnostic(d, src)).collect()
}

#[test]
fn lint_and_facts_payloads_write_their_pinned_bytes() {
    let diags = harmony_analyze::analyze_script(FIG2B_BAG).unwrap();
    check("lint_fig2b.json", &harmony_analyze::to_json(&diags, FIG2B_BAG));
    pin("lint_fig2b", &lint_views(FIG2B_BAG));
    pin("lint_broken", &lint_views(BROKEN_BUNDLE));
    let facts: ScriptFacts = script_facts(FIG2B_BAG).unwrap();
    check("facts_fig2b.json", &harmony_analyze::facts::facts_to_json(&facts));
    pin("facts_fig2b", &facts);
}

#[test]
fn a_harness_artifact_writes_its_pinned_bytes() {
    let artifact = Artifact {
        schedule: generate(3),
        planted: PlantedBug::ReaperSkipsTouchFold,
        violation: Violation {
            op_index: usize::MAX,
            oracle: "lease".into(),
            detail: AWKWARD_NAME.into(),
        },
        fingerprint: "00ff00ff00ff00ff".into(),
    };
    pin("harness_artifact", &artifact);
}
