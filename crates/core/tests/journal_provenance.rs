//! Decision provenance: every applied decision names the journal entries
//! of the events that caused it — synchronously, across coalesced windows,
//! and not at all when nothing caused it.

use harmony_core::optimizer::exhaustive;
use harmony_core::{
    CoalescePolicy, Controller, ControllerConfig, DecisionRecord, HarmonyEvent, JournalKind,
    LeaseConfig, LintMode,
};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony_rsl::schema::{parse_bundle_script, BundleSpec};

fn controller_with(config: ControllerConfig) -> Controller {
    Controller::new(Cluster::from_rsl(&sp2_cluster(8)).unwrap(), config)
}

fn controller(nodes: usize) -> Controller {
    Controller::new(Cluster::from_rsl(&sp2_cluster(nodes)).unwrap(), ControllerConfig::default())
}

fn bag() -> BundleSpec {
    parse_bundle_script(FIG2B_BAG).unwrap()
}

/// One kind of pass: how to set it off, and what every decision it commits
/// must carry.
struct Case {
    name: &'static str,
    /// Sets the pass off on a controller of its own and returns it with the
    /// decisions that pass committed.
    pass: fn() -> (Controller, Vec<DecisionRecord>),
    /// How many journal entries each decision names, their kind, and what
    /// their details start with.
    triggers: (usize, JournalKind, &'static str),
    cause: Option<&'static str>,
}

fn bundle_setup() -> (Controller, Vec<DecisionRecord>) {
    let mut ctl = controller(8);
    let (_, records) = ctl.register(bag()).unwrap();
    (ctl, records)
}

fn explicit_end() -> (Controller, Vec<DecisionRecord>) {
    let mut ctl = controller(8);
    let (first, _) = ctl.register(bag()).unwrap();
    ctl.register(bag()).unwrap();
    let records = ctl.end(&first).unwrap();
    (ctl, records)
}

fn lease_expiry() -> (Controller, Vec<DecisionRecord>) {
    let mut ctl = controller(8);
    let (kept, _) = ctl.register(bag()).unwrap();
    ctl.register(bag()).unwrap();
    ctl.set_time(20.0);
    assert!(ctl.renew_lease(&kept));
    let records = ctl.reap_expired(40.0).unwrap();
    (ctl, records)
}

fn coalesced_window() -> (Controller, Vec<DecisionRecord>) {
    let coalesce = CoalescePolicy { window: 0.5, max_delay: 10.0, max_pending: 64 };
    let mut ctl = controller_with(ControllerConfig { coalesce, ..Default::default() });
    // A burst of four arrivals inside one window.
    for _ in 0..4 {
        ctl.register(bag()).unwrap();
    }
    assert_eq!(ctl.pending_decisions(), 4);
    let records = ctl.service_scheduler(1.0).unwrap();
    // The fire itself is journaled too.
    let fired = |e: &harmony_core::JournalEntry| {
        e.kind == JournalKind::SchedulerFire && e.detail == "coalesced-arrivals: 4"
    };
    assert!(ctl.journal_tail(0, 1000).entries.iter().any(fired));
    (ctl, records)
}

fn node_left() -> (Controller, Vec<DecisionRecord>) {
    let mut ctl = controller(8);
    ctl.register(bag()).unwrap();
    let records = ctl.evict_node("node00").unwrap();
    (ctl, records)
}

fn periodic() -> (Controller, Vec<DecisionRecord>) {
    // The first bag's granularity blocks the shrink that would admit the
    // second; the periodic pass after the window rebalances them.
    let script = "harmonyBundle bag:1 config { {run {variable workerNodes {1 2 4 8}} \
        {node worker {replicate workerNodes} {seconds {1200 / workerNodes}} {memory 32}} \
        {performance {1 1200} {2 620} {4 340} {8 230}} {granularity 100}} }";
    let lease = LeaseConfig { duration: 1e6, ..Default::default() };
    let mut ctl = controller_with(ControllerConfig { lease, ..Default::default() });
    ctl.register(parse_bundle_script(script).unwrap()).unwrap();
    ctl.set_time(10.0);
    ctl.register(parse_bundle_script(script).unwrap()).unwrap();
    ctl.set_time(200.0);
    let records = ctl.handle_event(HarmonyEvent::Periodic).unwrap();
    let harmony_core::EventOutcome::Decisions(records) = records else { panic!("{records:?}") };
    (ctl, records)
}

/// A decision forced outside the event paths names no trigger — not even
/// the one a discarded bundle left behind just before.
fn forced_after_a_rejected_bundle() -> (Controller, Vec<DecisionRecord>) {
    let mut ctl = controller_with(ControllerConfig {
        coordinated_moves: false,
        lint: LintMode::Off,
        ..Default::default()
    });
    // Greedy alone stacks both bags on all eight nodes.
    ctl.register(bag()).unwrap();
    ctl.register(bag()).unwrap();
    // A bundle that cannot even be evaluated is journaled, then discarded.
    let broken = "harmonyBundle broken:1 config { {o {node n {seconds {10 / missing}}}} }";
    let id = ctl.startup("broken");
    let err = ctl.add_bundle(&id, parse_bundle_script(broken).unwrap()).unwrap_err();
    assert!(!matches!(err, harmony_core::CoreError::Unplaceable { .. }), "hard error: {err:?}");
    assert!(ctl.app(&id).unwrap().bundles.is_empty(), "discarded");
    let records = exhaustive(&mut ctl, 1_000_000).unwrap();
    (ctl, records)
}

#[test]
fn every_pass_stamps_its_own_trigger_on_its_decisions() {
    let cases = [
        Case {
            name: "bundle-setup",
            pass: bundle_setup,
            triggers: (1, JournalKind::Event, "bundle-setup bag.1"),
            cause: None,
        },
        Case {
            name: "retirement by end",
            pass: explicit_end,
            triggers: (1, JournalKind::Retirement, "end: bag.1"),
            cause: None,
        },
        Case {
            name: "retirement with cause",
            pass: lease_expiry,
            triggers: (1, JournalKind::Retirement, "lease-expired: bag.2"),
            cause: Some("lease-expired: bag.2"),
        },
        Case {
            name: "coalesced window",
            pass: coalesced_window,
            triggers: (4, JournalKind::Event, "bundle-setup"),
            cause: Some("coalesced-arrivals: 4"),
        },
        Case {
            name: "node-left",
            pass: node_left,
            triggers: (1, JournalKind::Event, "node-left node00"),
            cause: None,
        },
        Case {
            name: "periodic",
            pass: periodic,
            triggers: (1, JournalKind::Event, "periodic"),
            cause: None,
        },
        Case {
            name: "forced",
            pass: forced_after_a_rejected_bundle,
            triggers: (0, JournalKind::Event, ""),
            cause: None,
        },
    ];
    for Case { name, pass, triggers: (batch, kind, detail), cause } in cases {
        let (ctl, records) = pass();
        assert!(!records.is_empty(), "{name}: the pass must decide something");
        let tail = ctl.journal_tail(0, 1000);
        for record in &records {
            assert_eq!(record.cause.as_deref(), cause, "{name}");
            assert_eq!(record.provenance.len(), batch, "{name}: {:?}", record.provenance);
            for &seq in &record.provenance {
                let entry = tail.entries.iter().find(|e| e.seq == seq).unwrap();
                assert_eq!(entry.kind, kind, "{name}");
                assert!(entry.detail.starts_with(detail), "{name}: got {:?}", entry.detail);
            }
        }
    }
}

#[test]
fn decisions_append_journal_entries() {
    let mut ctl = controller(8);
    ctl.register(bag()).unwrap();
    let tail = ctl.journal_tail(0, 1000);
    let kinds: Vec<JournalKind> = tail.entries.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&JournalKind::Decision), "got {kinds:?}");
    let decision = tail.entries.iter().find(|e| e.kind == JournalKind::Decision).unwrap();
    assert!(decision.detail.starts_with("decision bag.1.config ->"), "{:?}", decision.detail);
}

#[test]
fn metric_reports_are_not_journaled_and_non_finite_rejected() {
    let ctl = controller(2);
    assert!(ctl.record_metric("x.1.response_time", 1.0, 5.0));
    assert!(!ctl.record_metric("x.1.response_time", 2.0, f64::NAN));
    assert!(!ctl.record_metric("x.1.response_time", f64::INFINITY, 5.0));
    // A report is measurement state: neither the accepted sample nor the
    // rejected ones leave a journal entry.
    assert_eq!(ctl.journal_seq(), 0);
    assert!(ctl.journal_tail(0, 1000).entries.is_empty());
    // The rejected samples never reached the histogram.
    let h = ctl.metrics().histogram("x.1.response_time").unwrap();
    assert_eq!((h.len(), h.mean()), (1, Some(5.0)));
}

#[test]
fn journal_cursor_pages_across_activity() {
    let mut ctl = controller(8);
    ctl.register(bag()).unwrap();
    let first = ctl.journal_tail(0, 2);
    assert_eq!(first.entries.len(), 2);
    let rest = ctl.journal_tail(first.next_cursor, 1000);
    assert!(!rest.truncated);
    let total = ctl.journal_tail(0, 1000).entries.len();
    assert_eq!(first.entries.len() + rest.entries.len(), total);
    assert_eq!(ctl.journal_seq(), total as u64);
}
