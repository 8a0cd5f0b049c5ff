//! System snapshots: a serializable summary of the controller's state.
//!
//! The adaptation controller "accumulates detailed performance and resource
//! information into a single place" (§1); a [`SystemSnapshot`] is that
//! place, frozen — used by the `status` protocol verb, the experiment
//! binaries, and operators debugging a live Harmony process.

use serde::{Deserialize, Serialize};

use crate::controller::Controller;
use crate::leases::RetirementRecord;
use crate::persist::RecoveryInfo;

/// One application's summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSnapshot {
    /// Instance name (`DBclient.66`).
    pub instance: String,
    /// Arrival time (controller clock).
    pub arrived_at: f64,
    /// Per-bundle state: `(bundle, configuration label, predicted seconds,
    /// reconfiguration count)`. Unplaced bundles report `"-"` and
    /// infinity.
    pub bundles: Vec<(String, String, f64, u32)>,
}

/// One node's summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// Node name.
    pub name: String,
    /// Speed relative to the reference machine.
    pub speed: f64,
    /// Free / total memory (MB).
    pub free_memory: f64,
    /// Total memory (MB).
    pub total_memory: f64,
    /// Assigned tasks.
    pub tasks: u32,
    /// Exclusive (dedicated) holds.
    pub exclusive: u32,
}

/// One instance's session-lease summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Instance name (`DBclient.66`).
    pub instance: String,
    /// Controller-clock time the lease expires.
    pub lease_deadline: f64,
    /// The server observed a disconnect without a reattach since.
    pub disconnected: bool,
    /// Lease renewals so far.
    pub renewals: u64,
}

/// Decision-engine counters, from the `controller.optimizer.*` metrics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OptimizerSnapshot {
    /// Joint searches run so far.
    pub searches: u64,
    /// Joint assignments evaluated across all searches.
    pub evals: u64,
    /// Evaluations rejected as infeasible (unplaceable or non-finite
    /// score).
    pub infeasible: u64,
    /// Candidate-cache hits.
    pub cache_hits: u64,
    /// Candidate-cache misses (fresh enumerations).
    pub cache_misses: u64,
    /// Entries currently memoized in the candidate cache.
    pub cache_size: u64,
    /// Wall time of the most recent joint search, in milliseconds (0 when
    /// none has run).
    pub last_wall_ms: f64,
    /// Facts-pruning: candidates dropped by dominance proofs.
    #[serde(default)]
    pub pruning_dominated: u64,
    /// Facts-pruning: candidates dropped by capacity certificates.
    #[serde(default)]
    pub pruning_infeasible: u64,
    /// Facts-pruning: joint assignments skipped by bounds or component
    /// recombination instead of being evaluated.
    #[serde(default)]
    pub pruning_nodes_pruned: u64,
    /// Planner scans run (the exact `controller.planner.*` counters).
    #[serde(default)]
    pub planner_scans: u64,
    /// Move sets those scans decided, feasible or not.
    #[serde(default)]
    pub planner_trials: u64,
    /// Matcher calls those scans made.
    #[serde(default)]
    pub planner_matches: u64,
}

/// One histogram's summary, from the registry's latency histograms
/// (`controller.phase.*`, `server.verb.*`, per-instance response times).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Mean observed value (seconds).
    pub mean: f64,
    /// Maximum observed value (seconds).
    pub max: f64,
    /// Upper bound on the median (bucket upper edge).
    pub p50: f64,
    /// Upper bound on the 95th percentile.
    pub p95: f64,
}

/// Decision-coalescing counters, from the `controller.scheduler.*`
/// metrics. All zero when coalescing is disabled (`window: 0`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SchedulerSnapshot {
    /// Dirty marks awaiting the next coalesced re-evaluation.
    pub pending: u64,
    /// Coalescing windows fired so far.
    pub windows_fired: u64,
    /// Total dirty marks covered by fired windows.
    pub coalesced_arrivals: u64,
    /// Per-event re-evaluations avoided by coalescing (marks minus
    /// windows).
    pub decisions_saved: u64,
}

/// Persistence state: whether a WAL is attached, how the controller was
/// recovered, and the durability counters.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PersistenceSnapshot {
    /// How this controller was recovered (`None` when it never went
    /// through a state store).
    pub recovery: Option<RecoveryInfo>,
    /// WAL appends since startup.
    pub appends: u64,
    /// WAL appends that failed (a failing disk; the controller keeps
    /// serving).
    pub append_errors: u64,
    /// Compacting checkpoints taken since startup.
    pub checkpoints: u64,
}

/// A frozen summary of the whole system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSnapshot {
    /// Controller clock at snapshot time.
    pub time: f64,
    /// Current objective score (lower is better).
    pub objective: f64,
    /// The objective function's name.
    pub objective_name: String,
    /// Applications in arrival order.
    pub apps: Vec<AppSnapshot>,
    /// Cluster nodes in name order.
    pub nodes: Vec<NodeSnapshot>,
    /// Decisions applied since this process started, replay included.
    pub decisions: usize,
    /// Session-lease state per registered instance.
    #[serde(default)]
    pub sessions: Vec<SessionSnapshot>,
    /// The retained retirements, oldest first: [`Controller::retirements`].
    #[serde(default)]
    pub retired: Vec<RetirementRecord>,
    /// Decision-engine counters (searches, evaluations, candidate cache).
    #[serde(default)]
    pub optimizer: OptimizerSnapshot,
    /// Decision-coalescing counters (pending marks, windows fired).
    #[serde(default)]
    pub scheduler: SchedulerSnapshot,
    /// Latency-histogram summaries in name order (controller phases,
    /// per-verb service times, per-instance response times).
    #[serde(default)]
    pub histograms: Vec<HistogramSnapshot>,
    /// Journal entries ever appended (the next tail cursor's upper bound).
    #[serde(default)]
    pub journal_seq: u64,
    /// Persistence state: `None` when the daemon runs without a state
    /// directory, `Some` with recovery provenance and durability counters
    /// when it does.
    #[serde(default)]
    pub persistence: Option<PersistenceSnapshot>,
}

impl SystemSnapshot {
    /// Captures the controller's current state.
    pub fn capture(ctl: &Controller) -> Self {
        let apps = ctl
            .instances()
            .into_iter()
            .filter_map(|id| {
                let app = ctl.app(&id)?;
                Some(AppSnapshot {
                    instance: id.to_string(),
                    arrived_at: app.arrived_at,
                    bundles: app
                        .bundles
                        .iter()
                        .map(|b| match &b.current {
                            Some(c) => {
                                (b.spec.name.clone(), c.label(), c.predicted, b.reconfig_count)
                            }
                            None => (
                                b.spec.name.clone(),
                                "-".to_string(),
                                f64::INFINITY,
                                b.reconfig_count,
                            ),
                        })
                        .collect(),
                })
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
                // The stored deadline extended by any not-yet-folded
                // read-path touch, i.e. what the reaper will honor.
                lease_deadline: ctl.effective_deadline(id).unwrap_or(s.deadline),
                disconnected: s.disconnected,
                renewals: s.renewals,
            })
            .collect();
        SystemSnapshot {
            time: ctl.now(),
            objective: ctl.objective_score(),
            objective_name: crate::objective::NAME.to_string(),
            apps,
            nodes,
            decisions: ctl.metrics().counter("controller.decisions") as usize,
            sessions,
            retired: ctl.retirements().to_vec(),
            optimizer: OptimizerSnapshot {
                searches: ctl.metrics().counter("controller.optimizer.searches"),
                evals: ctl.metrics().counter("controller.optimizer.evals"),
                infeasible: ctl.metrics().counter("controller.optimizer.infeasible"),
                cache_hits: ctl.metrics().counter("controller.optimizer.cache_hits"),
                cache_misses: ctl.metrics().counter("controller.optimizer.cache_misses"),
                cache_size: ctl.candidate_cache_len() as u64,
                last_wall_ms: ctl
                    .metrics()
                    .gauge("controller.optimizer.last_wall_ms")
                    .unwrap_or(0.0),
                pruning_dominated: ctl.metrics().counter("controller.pruning.dominated_dropped"),
                pruning_infeasible: ctl.metrics().counter("controller.pruning.infeasible_dropped"),
                pruning_nodes_pruned: ctl.metrics().counter("controller.pruning.nodes_pruned"),
                planner_scans: ctl.metrics().counter("controller.planner.scans"),
                planner_trials: ctl.metrics().counter("controller.planner.trials"),
                planner_matches: ctl.metrics().counter("controller.planner.matches"),
            },
            scheduler: SchedulerSnapshot {
                pending: ctl.pending_decisions() as u64,
                windows_fired: ctl.metrics().counter("controller.scheduler.windows_fired"),
                coalesced_arrivals: ctl
                    .metrics()
                    .counter("controller.scheduler.coalesced_arrivals"),
                decisions_saved: ctl.metrics().counter("controller.scheduler.decisions_saved"),
            },
            histograms: ctl
                .metrics()
                .histogram_names()
                .into_iter()
                .filter_map(|name| {
                    let h = ctl.metrics().histogram(&name)?;
                    if h.is_empty() {
                        return None;
                    }
                    Some(HistogramSnapshot {
                        name,
                        count: h.len(),
                        mean: h.mean().unwrap_or(0.0),
                        max: h.max().unwrap_or(0.0),
                        p50: h.quantile_bound(0.5).unwrap_or(0.0),
                        p95: h.quantile_bound(0.95).unwrap_or(0.0),
                    })
                })
                .collect(),
            journal_seq: ctl.journal_seq(),
            persistence: ctl.wal_attached().then(|| PersistenceSnapshot {
                recovery: ctl.recovery_info(),
                appends: ctl.metrics().counter("controller.persistence.appends"),
                append_errors: ctl.metrics().counter("controller.persistence.append_errors"),
                checkpoints: ctl.metrics().counter("controller.persistence.checkpoints"),
            }),
        }
    }

    /// Serializes to JSON (used by the `status` wire verb).
    ///
    /// # Errors
    ///
    /// Serialization errors from `serde_json` (practically unreachable for
    /// this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Deserialization errors on malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Total tasks across nodes.
    pub fn total_tasks(&self) -> u32 {
        self.nodes.iter().map(|n| n.tasks).sum()
    }

    /// Overall memory utilization in `[0, 1]`.
    pub fn memory_utilization(&self) -> f64 {
        let total: f64 = self.nodes.iter().map(|n| n.total_memory).sum();
        let free: f64 = self.nodes.iter().map(|n| n.free_memory).sum();
        if total <= 0.0 {
            0.0
        } else {
            (total - free) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use harmony_resources::Cluster;
    use harmony_rsl::schema::parse_bundle_script;

    fn controller() -> Controller {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(8)).unwrap();
        let mut ctl = Controller::new(cluster, ControllerConfig::default());
        ctl.set_time(12.5);
        ctl.register(parse_bundle_script(harmony_rsl::listings::FIG2B_BAG).unwrap()).unwrap();
        ctl
    }

    #[test]
    fn capture_reflects_controller_state() {
        let ctl = controller();
        let snap = SystemSnapshot::capture(&ctl);
        assert_eq!(snap.time, 12.5);
        assert_eq!(snap.objective, 230.0);
        assert_eq!(snap.objective_name, "min-avg-completion");
        assert_eq!(snap.apps.len(), 1);
        assert_eq!(snap.apps[0].instance, "bag.1");
        assert_eq!(snap.apps[0].bundles[0].1, "run[workerNodes=8]");
        assert_eq!(snap.nodes.len(), 8);
        assert_eq!(snap.total_tasks(), 8);
        assert!(snap.memory_utilization() > 0.0);
        assert_eq!(snap.decisions, ctl.decisions().len());
    }

    #[test]
    fn json_round_trip() {
        let snap = SystemSnapshot::capture(&controller());
        let json = snap.to_json().unwrap();
        let back = SystemSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        assert!(SystemSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn unplaced_bundles_show_dash_and_infinity() {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(2)).unwrap();
        let mut ctl = Controller::new(cluster, ControllerConfig::default());
        // A 4-node bundle on a 2-node cluster cannot place.
        let _ = ctl.register(parse_bundle_script(harmony_rsl::listings::FIG2A_SIMPLE).unwrap());
        let snap = SystemSnapshot::capture(&ctl);
        assert_eq!(snap.apps.len(), 1);
        assert_eq!(snap.apps[0].bundles[0].1, "-");
        assert!(snap.apps[0].bundles[0].2.is_infinite());
    }

    #[test]
    fn optimizer_counters_appear_in_snapshot() {
        let mut ctl = controller();
        crate::optimizer::exhaustive(&mut ctl, 10_000).unwrap();
        let snap = SystemSnapshot::capture(&ctl);
        assert!(snap.optimizer.searches >= 1);
        assert!(snap.optimizer.evals > 0);
        assert!(snap.optimizer.cache_misses >= 1);
        assert_eq!(snap.optimizer.cache_size, ctl.candidate_cache_len() as u64);
        assert!(snap.optimizer.last_wall_ms >= 0.0);
    }

    #[test]
    fn histograms_and_journal_appear_in_snapshot() {
        let ctl = controller();
        // A decision already happened in controller(); phase histograms and
        // journal entries must be visible in the capture.
        ctl.record_metric("bag.1.response_time", 13.0, 42.0);
        let snap = SystemSnapshot::capture(&ctl);
        assert!(snap.journal_seq > 0, "registration journaled");
        let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert!(names.contains(&"controller.phase.commit"), "got {names:?}");
        assert!(names.contains(&"bag.1.response_time"), "got {names:?}");
        let rt = snap.histograms.iter().find(|h| h.name == "bag.1.response_time").unwrap();
        assert_eq!(rt.count, 1);
        assert!(rt.p50 >= 42.0 && rt.max >= 42.0);
    }

    #[test]
    fn snapshot_json_without_optimizer_field_still_parses() {
        // Wire compatibility: a status payload from a build predating the
        // optimizer counters must deserialize with defaults.
        let json = r#"{"time":1.0,"objective":230.0,"objective_name":"min-avg-completion","apps":[],"nodes":[],"decisions":0}"#;
        let snap = SystemSnapshot::from_json(json).unwrap();
        assert_eq!(snap.optimizer, OptimizerSnapshot::default());
    }

    #[test]
    fn empty_system_snapshot() {
        let cluster = Cluster::new();
        let ctl = Controller::new(cluster, ControllerConfig::default());
        let snap = SystemSnapshot::capture(&ctl);
        assert_eq!(snap.objective, 0.0);
        assert!(snap.apps.is_empty());
        assert!(snap.nodes.is_empty());
        assert_eq!(snap.memory_utilization(), 0.0);
    }
}
