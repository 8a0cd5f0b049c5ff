//! What `status` reads: [`SystemSnapshot::capture`] on a churned
//! controller equals the snapshot rebuilt from the controller's per-id and
//! per-name public lookups, field by field, and it makes a pinned number
//! of allocations.
//!
//! The capture walks the instance table once in arrival order and the
//! histogram table once under one read lock. It formats no floats, so its
//! allocation count repeats exactly. (While it cloned every id to look
//! each instance up again, and copied every histogram's buckets out under
//! a lookup per name, the controller below cost 87 allocations; while the
//! objective's table kept one vector of bundles per application, 48.)

use harmony_bench::request_path::{allocations, CountingAllocator};
use harmony_core::{
    AppSnapshot, Controller, ControllerConfig, HistogramSnapshot, InstanceId, NodeSnapshot,
    OptimizerSnapshot, PersistenceSnapshot, SchedulerSnapshot, SessionSnapshot, SystemSnapshot,
};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony_rsl::schema::parse_bundle_script;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A bundle with two variables, so a label carries two bindings.
const TWO_VARIABLES: &str = "harmonyBundle opt:1 config { {grid \
     {variable a {1 2}} {variable b {1 3}} \
     {node n {replicate a} {seconds {240 / a + b}} {memory 16}}} }";

/// Arrivals, two `end`s, one instance reaped after its lease ran out,
/// read-path touches and recorded metrics, on a six-node SP-2.
fn churned() -> Controller {
    let cluster = Cluster::from_rsl(&sp2_cluster(6)).expect("sp2 cluster parses");
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    let bag = |ctl: &mut Controller| {
        let id = ctl.register(parse_bundle_script(FIG2B_BAG).expect("listing parses"));
        id.expect("a bag fits").0
    };
    // The first arrival never renews its lease: the reaper retires it.
    let stale = bag(&mut ctl);
    ctl.set_time(20.0);
    let mut live: Vec<InstanceId> = (0..4).map(|_| bag(&mut ctl)).collect();
    let opt = ctl.register(parse_bundle_script(TWO_VARIABLES).expect("bundle parses"));
    live.push(opt.expect("the two-variable bundle fits").0);
    // An instance with no bundle yet reports none.
    live.push(ctl.startup("idle"));
    ctl.set_time(25.0);
    ctl.end(&live.remove(1)).expect("a live instance ends");
    ctl.end(&live.remove(2)).expect("a live instance ends");
    for (i, id) in live.iter().enumerate() {
        assert!(ctl.touch(id), "{id} is registered");
        let name = format!("{id}.response_time");
        assert!(ctl.record_metric(&name, 25.0, 10.0 + i as f64));
        assert!(ctl.record_metric(&name, 26.0, 4.5 * i as f64));
    }
    ctl.reap_expired(31.0).expect("reaping re-evaluates");
    assert!(ctl.app(&stale).is_none(), "{stale} was reaped");
    assert_eq!(ctl.retirements().len(), 3, "two ends and one reap");
    ctl
}

/// The snapshot as `capture` built it before it walked the tables itself:
/// every instance looked up by id, every histogram by name.
fn rebuilt(ctl: &Controller) -> SystemSnapshot {
    let m = ctl.metrics();
    let apps = ctl
        .instances()
        .into_iter()
        .filter_map(|id| {
            let app = ctl.app(&id)?;
            let bundles = app
                .bundles
                .iter()
                .map(|b| match &b.current {
                    Some(c) => (b.spec.name.clone(), c.label(), c.predicted, b.reconfig_count),
                    None => (b.spec.name.clone(), "-".into(), f64::INFINITY, b.reconfig_count),
                })
                .collect();
            Some(AppSnapshot { instance: id.to_string(), arrived_at: app.arrived_at, bundles })
        })
        .collect();
    let nodes = ctl
        .cluster()
        .nodes()
        .map(|n| NodeSnapshot {
            name: n.decl.name.clone(),
            speed: n.decl.speed,
            free_memory: n.free_memory,
            total_memory: n.decl.memory,
            tasks: n.tasks,
            exclusive: n.exclusive,
        })
        .collect();
    let sessions = ctl
        .sessions()
        .map(|(id, s)| SessionSnapshot {
            instance: id.to_string(),
            lease_deadline: ctl.effective_deadline(id).unwrap_or(s.deadline),
            disconnected: s.disconnected,
            renewals: s.renewals,
        })
        .collect();
    let mut names = Vec::new();
    m.for_each_histogram(|name, _| names.push(name.to_owned()));
    let histograms = names
        .into_iter()
        .filter_map(|name| {
            let h = m.histogram(&name)?;
            (!h.is_empty()).then(|| HistogramSnapshot {
                count: h.len(),
                mean: h.mean().unwrap_or(0.0),
                max: h.max().unwrap_or(0.0),
                p50: h.quantile_bound(0.5).unwrap_or(0.0),
                p95: h.quantile_bound(0.95).unwrap_or(0.0),
                name,
            })
        })
        .collect();
    SystemSnapshot {
        time: ctl.now(),
        objective: ctl.objective_score(),
        objective_name: "min-avg-completion".into(),
        apps,
        nodes,
        decisions: m.counter("controller.decisions") as usize,
        sessions,
        retired: ctl.retirements().to_vec(),
        optimizer: OptimizerSnapshot {
            searches: m.counter("controller.optimizer.searches"),
            evals: m.counter("controller.optimizer.evals"),
            infeasible: m.counter("controller.optimizer.infeasible"),
            cache_hits: m.counter("controller.optimizer.cache_hits"),
            cache_misses: m.counter("controller.optimizer.cache_misses"),
            cache_size: ctl.candidate_cache_len() as u64,
            last_wall_ms: m.gauge("controller.optimizer.last_wall_ms").unwrap_or(0.0),
            pruning_dominated: m.counter("controller.pruning.dominated_dropped"),
            pruning_infeasible: m.counter("controller.pruning.infeasible_dropped"),
            pruning_nodes_pruned: m.counter("controller.pruning.nodes_pruned"),
            planner_scans: m.counter("controller.planner.scans"),
            planner_trials: m.counter("controller.planner.trials"),
            planner_matches: m.counter("controller.planner.matches"),
        },
        scheduler: SchedulerSnapshot {
            pending: ctl.pending_decisions() as u64,
            windows_fired: m.counter("controller.scheduler.windows_fired"),
            coalesced_arrivals: m.counter("controller.scheduler.coalesced_arrivals"),
            decisions_saved: m.counter("controller.scheduler.decisions_saved"),
        },
        histograms,
        journal_seq: ctl.journal_seq(),
        persistence: ctl.wal_attached().then(|| PersistenceSnapshot {
            recovery: ctl.recovery_info(),
            appends: m.counter("controller.persistence.appends"),
            append_errors: m.counter("controller.persistence.append_errors"),
            checkpoints: m.counter("controller.persistence.checkpoints"),
        }),
    }
}

#[test]
fn capture_equals_the_per_id_and_per_name_rebuild_on_a_churned_controller() {
    let ctl = churned();
    let (new, old) = (SystemSnapshot::capture(&ctl), rebuilt(&ctl));
    assert_eq!(new.time, old.time);
    assert_eq!(new.objective.to_bits(), old.objective.to_bits());
    assert_eq!(new.objective_name, old.objective_name);
    assert_eq!(new.apps, old.apps);
    assert_eq!(new.nodes, old.nodes);
    assert_eq!(new.decisions, old.decisions);
    assert_eq!(new.sessions, old.sessions);
    assert_eq!(new.retired, old.retired);
    assert_eq!(new.optimizer, old.optimizer);
    assert_eq!(new.scheduler, old.scheduler);
    assert_eq!(new.histograms, old.histograms);
    assert_eq!(new.journal_seq, old.journal_seq);
    assert_eq!(new.persistence, old.persistence);
    assert_eq!(new.to_json().unwrap(), old.to_json().unwrap());

    // The churn reached every shape the capture reports.
    let labels: Vec<&str> =
        new.apps.iter().flat_map(|a| a.bundles.iter().map(|b| b.1.as_str())).collect();
    assert!(labels.iter().any(|l| l.starts_with("grid[a=") && l.contains(",b=")), "{labels:?}");
    assert!(new.apps.iter().any(|a| a.bundles.is_empty()), "an instance with no bundle");
    let order: Vec<&str> = new.apps.iter().map(|a| a.instance.as_str()).collect();
    assert_eq!(order, ["bag.2", "bag.4", "opt.1", "idle.1"], "arrival order");
    assert!(new.histograms.iter().any(|h| h.name.ends_with(".response_time")));
    assert!(new.histograms.iter().any(|h| h.name.starts_with("controller.phase.")));
}

#[test]
fn capture_makes_a_pinned_number_of_allocations() {
    let ctl = churned();
    let warm = SystemSnapshot::capture(&ctl);
    let before = allocations();
    let snapshot = SystemSnapshot::capture(&ctl);
    let made = allocations() - before;
    assert_eq!(snapshot, warm, "nothing moved between the two captures");
    assert_eq!(made, 47, "allocations of one capture");
}
