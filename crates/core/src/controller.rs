//! The Harmony adaptation controller.
//!
//! "The adaptation controller is the heart of the system. The controller
//! must gather relevant information about both the applications and the
//! environment, project the effects of proposed changes on the system, and
//! weigh competing costs and expected benefits of making various changes"
//! (§2).
//!
//! The controller keeps the cluster state, the registered application
//! instances with their bundles and applied configurations (from which the
//! shared namespace is derived), and the metric registry. Its optimization
//! policy (§4.3) is greedy: one bundle at a time, in the order bundles
//! were defined, evaluating every candidate configuration against the
//! objective function; after placing a new application it re-evaluates
//! the options of existing applications. In addition, *coordinated
//! pairwise moves* implement the paper's motivating §1 scenario — "a
//! centralized decision-maker could infer that reconfiguring the first
//! application to only six nodes will improve overall efficiency and
//! throughput" — by jointly re-choosing two bundles when no single-bundle
//! move helps (e.g. shrinking a running job to admit a newcomer).
//! Deciding what to move is [`crate::planner`]'s job and reads only; this
//! file interleaves plan → commit and owns every write.

use std::time::Instant;

use harmony_metrics::{CounterHandle, HistogramHandle, MetricRegistry};
use harmony_ns::{HPath, InstanceRegistry};
use harmony_resources::Cluster;
use harmony_rsl::schema::BundleSpec;
use harmony_rsl::Value;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::app::{AppInstance, BundleState, ChosenConfig, InstanceId, InstanceRef};
use crate::candidates::{Candidate, Memo};
use crate::error::CoreError;
use crate::events::EventOutcome;
use crate::instances::{Instance, Instances};
use crate::journal::{
    push_bounded, retained_since, EventJournal, JournalKind, JournalTail, PhaseTimings,
};
use crate::leases::{Lease, LeaseConfig, RetireReason, RetirementRecord};
use crate::namespace::{applied_writes, buffer_writes, config_writes, NamespaceView};
use crate::persist::{RecoveryInfo, WalEvent};
use crate::planner::{elapsed_ms, same_point, Plan, PlanWorkspace, PlannedMove, Scan};
use crate::scheduler::{CoalescePolicy, DecisionScheduler};

/// How [`Controller::add_bundle`] treats static-analysis findings from
/// `harmony-analyze` (run before any placement work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum LintMode {
    /// Reject bundles with error-severity diagnostics
    /// ([`CoreError::LintRejected`]). Warnings are counted but allowed.
    #[default]
    Strict,
    /// Accept every parseable bundle; findings only feed the
    /// `controller.lint.*` metric counters.
    Advisory,
    /// Skip analysis entirely.
    Off,
}

/// Controller configuration: only what a deployment or an ablation
/// chooses. The paper's policy is not configurable: the objective is the
/// average completion time ([`crate::mean_completion`], §4.2), the matcher
/// is first-fit at each candidate's own elastic grant, elastic options fan
/// out over a fixed set of memory steps ([`crate::enumerate_candidates`]),
/// and an arrival always re-evaluates the existing applications (§4.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Static-analysis gate for arriving bundles.
    #[serde(default)]
    pub lint: LintMode,
    /// Weight on frictional switching costs: the new option's `friction`
    /// seconds are added to the switching application's predicted response
    /// time, scaled by this weight. `0.0` ignores friction (ablation).
    pub friction_weight: f64,
    /// Enable coordinated pairwise moves (jointly re-choosing two bundles
    /// when single moves are stuck) — the §1 admission scenario.
    pub coordinated_moves: bool,
    /// Ablation: each application optimizes only its own response time
    /// (the AppLes contrast from §7) instead of the system objective.
    /// Selfish applications never shrink for others, so coordinated moves
    /// are disabled too.
    pub selfish: bool,
    /// Session-lease parameters: how long an instance may stay silent
    /// before [`Controller::reap_expired`] retires it as if it had called
    /// `end`.
    #[serde(default)]
    pub lease: LeaseConfig,
    /// Decision-coalescing policy: with a positive `window`, arrivals and
    /// departures only mark the system dirty and one joint optimization
    /// per window covers them all (see [`CoalescePolicy`]). The default
    /// (`window: 0`) re-evaluates inline on every event, exactly as
    /// before.
    #[serde(default)]
    pub coalesce: CoalescePolicy,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            lint: LintMode::Strict,
            friction_weight: 1.0,
            coordinated_moves: true,
            selfish: false,
            lease: LeaseConfig::default(),
            coalesce: CoalescePolicy::default(),
        }
    }
}

/// A record of one applied reconfiguration decision.
///
/// Equality ignores [`DecisionRecord::phases`]: wall-clock timings are
/// measurement metadata, and two semantically identical decisions (same
/// switch, same objective, same provenance) compare equal even though no
/// two passes take exactly the same microseconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Controller-clock time of the decision.
    pub time: f64,
    /// The application instance affected.
    pub instance: InstanceId,
    /// The bundle affected.
    pub bundle: String,
    /// Label of the previous configuration (`None` for the initial
    /// placement).
    pub from: Option<String>,
    /// Label of the new configuration.
    pub to: String,
    /// Objective score before the change.
    pub objective_before: f64,
    /// Objective score after the change.
    pub objective_after: f64,
    /// What prompted the decision, when it was not an ordinary
    /// re-evaluation — e.g. `"lease-expired: bag.2"` for decisions applied
    /// while reaping a dead client.
    #[serde(default)]
    pub cause: Option<String>,
    /// Journal seqs of the triggering events this decision settles: one
    /// seq for a synchronous trigger, the whole batch for a coalesced
    /// window. Empty exactly for decisions forced outside the event paths
    /// (e.g. a joint-optimizer replay).
    #[serde(default)]
    pub provenance: Vec<u64>,
    /// Per-phase wall timings of the pass that produced this decision.
    #[serde(default)]
    pub phases: PhaseTimings,
}

impl PartialEq for DecisionRecord {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.instance == other.instance
            && self.bundle == other.bundle
            && self.from == other.from
            && self.to == other.to
            && self.objective_before == other.objective_before
            && self.objective_after == other.objective_after
            && self.cause == other.cause
            && self.provenance == other.provenance
    }
}

/// What set a pass off. Built where the event is journaled and handed
/// down to every decision the pass commits, so a decision can only carry
/// its own pass's trigger; `default()` is "nothing did" (a forced choice).
#[derive(Debug, Default)]
pub(crate) struct Trigger {
    /// [`DecisionRecord::cause`] of the pass's decisions.
    cause: Option<String>,
    /// [`DecisionRecord::provenance`] of the pass's decisions.
    provenance: Vec<u64>,
}

/// What a scan adds to: the `controller.planner.*` counters.
#[derive(Debug)]
struct ScanCounters {
    scans: CounterHandle,
    trials: CounterHandle,
    matches: CounterHandle,
}

/// What a committed decision records into: the `controller.phase.*`
/// histograms and the `controller.decisions` counter.
#[derive(Debug)]
struct CommitMetrics {
    phases: [HistogramHandle; 4],
    decisions: CounterHandle,
}

/// The planning path's metrics, each group resolved where it is first
/// recorded — so a fresh registry lists them exactly when it did while
/// they were looked up by name — and then counted without a lookup.
#[derive(Debug, Default)]
struct PlanningMetrics {
    scan: Option<ScanCounters>,
    commit: Option<CommitMetrics>,
}

impl PlanningMetrics {
    fn scan(&mut self, metrics: &MetricRegistry) -> &ScanCounters {
        self.scan.get_or_insert_with(|| ScanCounters {
            scans: metrics.counter_handle("controller.planner.scans"),
            trials: metrics.counter_handle("controller.planner.trials"),
            matches: metrics.counter_handle("controller.planner.matches"),
        })
    }

    fn commit(&mut self, metrics: &MetricRegistry) -> &CommitMetrics {
        self.commit.get_or_insert_with(|| CommitMetrics {
            phases: [
                "controller.phase.candidates",
                "controller.phase.prediction",
                "controller.phase.optimization",
                "controller.phase.commit",
            ]
            .map(|name| metrics.histogram_handle(name)),
            decisions: metrics.counter_handle("controller.decisions"),
        })
    }
}

/// The adaptation controller.
#[derive(Debug)]
pub struct Controller {
    pub(crate) config: ControllerConfig,
    pub(crate) cluster: Cluster,
    /// Every registered instance, one record each: bundles, lease, poll
    /// buffer and candidate memo, plus the arrival order.
    pub(crate) instances: Instances,
    pub(crate) registry: InstanceRegistry,
    pub(crate) metrics: MetricRegistry,
    pub(crate) now: f64,
    /// Bounded reports for the embedding: no decision reads them and no
    /// snapshot keeps them.
    pub(crate) decisions: Vec<DecisionRecord>,
    pub(crate) retirements: Vec<RetirementRecord>,
    /// Dirty-mark bookkeeping for coalesced re-evaluation (only consulted
    /// when `config.coalesce` is enabled).
    pub(crate) scheduler: DecisionScheduler,
    /// The bounded provenance journal. Behind its own mutex (not the
    /// controller lock) so the concurrent read path — journal tailing,
    /// snapshots — can read it under a shared controller borrow.
    pub(crate) journal: Mutex<EventJournal>,
    /// The attached write-ahead log, when this controller is persistent
    /// (opened through [`crate::persist::StateStore`]). `Arc` + interior
    /// buffering in the writer let the concurrent read path (touches,
    /// polls) append under a shared borrow. `None` (the
    /// default) makes every logging point a no-op — behavior is
    /// bit-for-bit the non-persistent controller.
    pub(crate) wal: Option<std::sync::Arc<harmony_wal::WalWriter>>,
    /// How this controller came to be, when recovered from a state
    /// directory (surfaced in [`crate::SystemSnapshot`]).
    pub(crate) recovery: Option<RecoveryInfo>,
    /// The buffers planning works in, lent to each scan and each objective
    /// on the write path; no decision reads what a scan leaves in them.
    workspace: PlanWorkspace,
    /// The planning path's metrics, resolved once.
    planning_metrics: PlanningMetrics,
}

impl Controller {
    /// Creates a controller over a cluster.
    pub fn new(cluster: Cluster, config: ControllerConfig) -> Self {
        Controller {
            config,
            cluster,
            instances: Instances::default(),
            registry: InstanceRegistry::new(),
            metrics: MetricRegistry::new(),
            now: 0.0,
            decisions: Vec::new(),
            retirements: Vec::new(),
            scheduler: DecisionScheduler::new(),
            journal: Mutex::new(EventJournal::default()),
            wal: None,
            recovery: None,
            workspace: PlanWorkspace::default(),
            planning_metrics: PlanningMetrics::default(),
        }
    }

    /// The controller clock (seconds). The embedding (simulation or wall
    /// clock) advances it with [`Controller::set_time`].
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the controller clock. Time never moves backwards; earlier
    /// values are ignored, and so are non-finite ones — a `+inf` clock
    /// would freeze every later comparison (nothing exceeds it) and poison
    /// lease deadlines, and `NaN` compares false everywhere.
    pub fn set_time(&mut self, now: f64) {
        if now.is_finite() && now > self.now {
            self.now = now;
        }
    }

    /// The cluster (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The shared namespace, derived from the applied configurations.
    pub fn namespace(&self) -> NamespaceView<'_> {
        NamespaceView::new(&self.instances)
    }

    /// The metric registry (clonable handle).
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // The provenance journal.
    // ------------------------------------------------------------------

    /// Appends one entry to the provenance journal from any path (the
    /// journal sits behind its own mutex, so `&self` suffices). Returns the
    /// entry's sequence number.
    pub fn journal_append(&self, kind: JournalKind, detail: String) -> u64 {
        self.journal.lock().push(self.now, kind, detail)
    }

    /// Journals a decision-triggering event; its seq is the provenance of
    /// whatever decisions the pass it sets off commits.
    fn journal_trigger(&self, kind: JournalKind, detail: String) -> Trigger {
        Trigger { cause: None, provenance: vec![self.journal_append(kind, detail)] }
    }

    /// Tails the journal: up to `max` entries with `seq >= cursor`,
    /// oldest first (see [`JournalTail`]). Pure read path.
    pub fn journal_tail(&self, cursor: u64, max: usize) -> JournalTail {
        self.journal.lock().tail(cursor, max)
    }

    /// Number of journal entries ever appended (retained or evicted).
    pub fn journal_seq(&self) -> u64 {
        self.journal.lock().next_seq()
    }

    /// Records a client metric report through [`MetricRegistry::record`]:
    /// a `response_time` value feeds the per-instance response-time
    /// histogram, and any other name is kept nowhere. Measurement state
    /// only: nothing is logged or journaled, and no decision reads it. Also
    /// the replay of `Metric` records written before reports stopped being
    /// logged. Returns `false` when the sample is non-finite and was
    /// rejected.
    pub fn record_metric(&self, name: &str, time: f64, value: f64) -> bool {
        self.metrics.record(name, time, value)
    }

    /// The newest decisions this controller applied, oldest first (a
    /// bounded window).
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// The retained decisions after the first `total`, a reading of the
    /// `controller.decisions` counter: clamped to the window, and empty
    /// for a reading past the count (one from a rebuilt controller).
    pub fn decisions_since(&self, total: u64) -> &[DecisionRecord] {
        retained_since(&self.decisions, self.metrics.counter("controller.decisions"), total)
    }

    /// Registered instances in arrival order.
    pub fn instances(&self) -> Vec<InstanceId> {
        self.instances.arrival().to_vec()
    }

    /// Looks up an application instance.
    pub fn app(&self, id: &InstanceId) -> Option<&AppInstance> {
        self.instances.get(id).map(|inst| &inst.app)
    }

    /// The current configuration of a bundle, if one has been applied.
    pub fn choice(&self, id: &InstanceId, bundle: &str) -> Option<&ChosenConfig> {
        self.app(id)?.bundle(bundle)?.current.as_ref()
    }

    /// The memoized candidate set of `(id, bundle)`: enumerated when the
    /// bundle was attached (or loaded), shared as the same `Arc` until it
    /// is detached or the instance retires. `None` exactly when the
    /// instance has no such bundle. Each lookup counts one
    /// `controller.optimizer.cache_hits`.
    pub fn cached_candidates(
        &self,
        id: &InstanceId,
        bundle: &str,
    ) -> Option<std::sync::Arc<Vec<Candidate>>> {
        Some(std::sync::Arc::clone(&self.memo(id, bundle)?.list))
    }

    /// [`Controller::cached_candidates`], compiled and borrowed.
    pub(crate) fn memo(&self, id: &InstanceId, bundle: &str) -> Option<&Memo> {
        let memo = self.instances.get(id)?.candidates.get(bundle)?;
        self.metrics.inc_counter("controller.optimizer.cache_hits");
        Some(memo)
    }

    /// Number of memoized candidate sets currently held.
    pub fn candidate_cache_len(&self) -> usize {
        self.instances.in_id_order().map(|inst| inst.candidates.len()).sum()
    }

    pub(crate) fn gauge_cache_size(&self) {
        self.metrics
            .set_gauge("controller.optimizer.cache_size", self.candidate_cache_len() as f64);
    }

    // ------------------------------------------------------------------
    // The write path: one command vocabulary, one entry.
    // ------------------------------------------------------------------

    /// Executes one write-path command: moves the clock to its time, logs
    /// it, then applies it. Every mutating verb — the typed methods below,
    /// the wire server, the harness, the model checker — enters here and
    /// nothing else on the write path logs, so log-before-apply holds by
    /// construction. Recovery is this function minus the log.
    ///
    /// # Errors
    ///
    /// Whatever the command's verb reports. The command is logged
    /// regardless: a failing verb may still have mutated state, and it
    /// fails identically on replay.
    pub fn execute(&mut self, ev: WalEvent) -> Result<EventOutcome, CoreError> {
        self.set_time(ev.now());
        self.wal_log(&ev);
        self.apply(ev)
    }

    /// Applies one command without logging it: the single dispatch from
    /// the command vocabulary to each verb's one body. `Tick` and `Flush`
    /// fire unconditionally — whether a window is due is decided before
    /// the command is built, and replay only ever sees fired ones.
    pub(crate) fn apply(&mut self, ev: WalEvent) -> Result<EventOutcome, CoreError> {
        match ev {
            WalEvent::Event { event, .. } => self.apply_event(event),
            WalEvent::Startup { app, .. } => {
                Ok(EventOutcome::Registered(self.register_instance(&app)))
            }
            WalEvent::Bundle { id, spec, .. } => {
                self.place_bundle(&id, spec).map(EventOutcome::Decisions)
            }
            WalEvent::End { id, .. } => {
                self.retire(&id, RetireReason::Ended).map(EventOutcome::Decisions)
            }
            WalEvent::Renew { id, .. } => self.renew(&id).map(|()| EventOutcome::Quiet),
            WalEvent::Reattach { id, .. } => self.resume_session(&id).map(|()| EventOutcome::Quiet),
            WalEvent::Disconnect { id, .. } => {
                self.disconnect(&id);
                Ok(EventOutcome::Quiet)
            }
            WalEvent::Touch { id, .. } => {
                if let Some(inst) = self.instances.get(&id) {
                    inst.lease.touch(self.now, || ());
                }
                Ok(EventOutcome::Quiet)
            }
            WalEvent::Poll { id, .. } => {
                self.drain_pending(InstanceRef::from(&id));
                Ok(EventOutcome::Quiet)
            }
            WalEvent::Metric { name, time, value, .. } => {
                self.record_metric(&name, time, value);
                Ok(EventOutcome::Quiet)
            }
            WalEvent::Reap { now } => self.reap(now).map(EventOutcome::Decisions),
            WalEvent::Tick { .. } | WalEvent::Flush { .. } => {
                self.fire_scheduler().map(EventOutcome::Decisions)
            }
            WalEvent::Reevaluate { .. } => self
                .reevaluate_triggered(JournalKind::Event, "reevaluate".to_string())
                .map(EventOutcome::Decisions),
        }
    }

    /// Registers a new application instance with a system-chosen id
    /// (`harmony_startup`).
    pub fn startup(&mut self, app: &str) -> InstanceId {
        match self.execute(WalEvent::Startup { now: self.now, app: app.to_string() }) {
            Ok(EventOutcome::Registered(id)) => id,
            other => unreachable!("a startup command always registers, got {other:?}"),
        }
    }

    fn register_instance(&mut self, app: &str) -> InstanceId {
        let id = InstanceId::new(app, self.registry.allocate(app));
        let lease = Lease::new(self.now, &self.config.lease);
        let app = AppInstance::new(id.clone(), self.now);
        self.instances.insert(Instance::new(app, lease));
        self.metrics.inc_counter("controller.startups");
        self.metrics.set_gauge("controller.sessions.active", self.instances.len() as f64);
        self.journal_append(JournalKind::Event, format!("startup {id}"));
        id
    }

    /// Adds a bundle to a registered instance (`harmony_bundle_setup`),
    /// chooses its initial configuration, and — per §4.3 — re-evaluates
    /// the options of existing applications. When the bundle cannot be
    /// placed directly and coordinated moves are enabled, the controller
    /// tries shrinking one existing application to make room (§1).
    ///
    /// Idempotent per `(instance, bundle name)`: sending a specification
    /// the instance already has attaches nothing and re-runs the pass (a
    /// client retrying after a lost reply).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownInstance`] for unregistered ids,
    /// [`CoreError::BundleConflict`] when the instance has a *different*
    /// specification under that name, and [`CoreError::Unplaceable`] when
    /// no candidate fits even after coordinated admission.
    pub fn add_bundle(
        &mut self,
        id: &InstanceId,
        spec: BundleSpec,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        self.execute(WalEvent::Bundle { now: self.now, id: id.clone(), spec })
            .map(EventOutcome::into_decisions)
    }

    fn place_bundle(
        &mut self,
        id: &InstanceId,
        spec: BundleSpec,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        let inst = self
            .instances
            .get(id)
            .ok_or_else(|| CoreError::UnknownInstance { name: id.to_string() })?;
        let bundle_name = spec.name.clone();
        // Idempotent per `(instance, name)`: a client that lost the reply
        // and retries must not attach a second state `bundle()` can never
        // reach. An equal spec re-runs the pass over the one it has. Only
        // a bundle that attaches is linted: a retry's spec passed the gate
        // when it attached.
        let attached = match inst.app.bundle(&bundle_name) {
            None => {
                self.lint_gate(&spec)?;
                let inst = self.instances.get_mut(id).expect("looked up above");
                inst.attach(BundleState::new(spec));
                // A miss is an enumeration: an attach or a load.
                self.metrics.inc_counter("controller.optimizer.cache_misses");
                self.gauge_cache_size();
                true
            }
            Some(existing) if existing.spec == spec => false,
            Some(_) => return Err(CoreError::BundleConflict { bundle: bundle_name }),
        };
        let trigger =
            self.journal_trigger(JournalKind::Event, format!("bundle-setup {id} {bundle_name}"));
        let mut records = Vec::new();

        // A retry of a bundle that is already placed is an ordinary
        // re-evaluation of it; only an unplaced one is placed afresh.
        let initial = self.choice(id, &bundle_name).is_none();
        let mut unplaced_reason = None;
        match self.optimize_bundle(id, &bundle_name, initial, &trigger) {
            Ok(rs) => records.extend(rs),
            Err(CoreError::Unplaceable { reason, .. })
                if self.config.coordinated_moves && !self.config.selfish =>
            {
                unplaced_reason = Some(reason);
            }
            // An unplaceable bundle stays attached to retry on a later
            // pass; one that cannot even be evaluated would fail every
            // later pass too, so it goes.
            Err(e @ CoreError::Unplaceable { .. }) => return Err(e),
            Err(e) => {
                if let (true, Some(inst)) = (attached, self.instances.get_mut(id)) {
                    inst.detach(&bundle_name);
                    self.gauge_cache_size();
                }
                return Err(e);
            }
        }

        // Coordinated admission must stay synchronous even when decisions
        // coalesce: if the bundle could not be placed directly, only a
        // pairwise shrink of an incumbent can admit it, and deferring that
        // would turn a placeable arrival into `Unplaceable`. When the
        // direct placement succeeded and coalescing is on, the pairwise
        // round is deferred to the coalesced re-evaluation instead.
        if (self.config.coordinated_moves && !self.config.selfish)
            && (!self.coalescing() || self.choice(id, &bundle_name).is_none())
        {
            let newcomer = (id.clone(), bundle_name.clone());
            for other in self.all_pairs_excluding(Some((id, &bundle_name))) {
                records.extend(self.pairwise_step(&other, &newcomer, &trigger)?);
            }
        }

        if self.choice(id, &bundle_name).is_none() {
            if let Some(reason) = unplaced_reason {
                return Err(CoreError::Unplaceable { bundle: bundle_name, reason });
            }
        }

        if self.coalescing() {
            self.mark_dirty(&trigger.provenance);
        } else {
            records.extend(self.reevaluate_excluding(Some(id), &trigger)?);
        }
        Ok(records)
    }

    /// One-call registration: startup plus bundle setup.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Controller::add_bundle`]. On
    /// [`CoreError::Unplaceable`] the instance remains registered with no
    /// configuration (it can retry on a later re-evaluation).
    ///
    /// # Examples
    ///
    /// ```
    /// use harmony_core::{Controller, ControllerConfig};
    /// use harmony_resources::Cluster;
    /// use harmony_rsl::schema::parse_bundle_script;
    ///
    /// let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(8))?;
    /// let mut controller = Controller::new(cluster, ControllerConfig::default());
    /// let spec = parse_bundle_script(harmony_rsl::listings::FIG2B_BAG)?;
    /// let (id, decisions) = controller.register(spec)?;
    /// assert_eq!(id.to_string(), "bag.1");
    /// assert!(!decisions.is_empty());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn register(
        &mut self,
        spec: BundleSpec,
    ) -> Result<(InstanceId, Vec<DecisionRecord>), CoreError> {
        let id = self.startup(&spec.app.clone());
        let records = self.add_bundle(&id, spec)?;
        Ok((id, records))
    }

    /// Removes an application (`harmony_end`), releases its resources, and
    /// re-evaluates the remaining applications.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownInstance`] for unregistered ids.
    pub fn end(&mut self, id: &InstanceId) -> Result<Vec<DecisionRecord>, CoreError> {
        self.execute(WalEvent::End { now: self.now, id: id.clone() })
            .map(EventOutcome::into_decisions)
    }

    /// Retires an instance for `reason`: releases its resources, records
    /// the retirement, and re-evaluates the survivors. `end` and the lease
    /// reaper share this path so a reaped instance leaves exactly the
    /// state an explicit `end` would have left.
    pub(crate) fn retire(
        &mut self,
        id: &InstanceId,
        reason: RetireReason,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        let retired = self
            .instances
            .remove(id)
            .ok_or_else(|| CoreError::UnknownInstance { name: id.to_string() })?;
        for alloc in retired.app.allocations() {
            self.cluster.release(alloc)?;
        }
        self.gauge_cache_size();
        self.metrics.remove_prefix(&id.to_string());
        self.metrics.inc_counter("controller.ends");
        self.metrics.set_gauge("controller.sessions.active", self.instances.len() as f64);
        let record = RetirementRecord { time: self.now, instance: id.clone(), reason };
        push_bounded(&mut self.retirements, record);
        let detail = format!("{reason}: {id}");
        let mut trigger = self.journal_trigger(JournalKind::Retirement, detail.clone());
        // Decisions applied while retiring an instance for a non-`end`
        // reason (lease expiry, disconnect) say so.
        trigger.cause = (reason != RetireReason::Ended).then_some(detail);
        if self.coalescing() {
            self.mark_dirty(&trigger.provenance);
            return Ok(Vec::new());
        }
        self.reevaluate_excluding(None, &trigger)
    }

    /// Re-establishes a session after a reconnect: renews the lease,
    /// clears the disconnect mark, and marks every placed bundle changed,
    /// so the next poll carries the instance's current chosen values and
    /// converges the client without re-sending bundles.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownInstance`] when the id is no longer registered
    /// (expired and reaped, or never known) — the client should fall back
    /// to a fresh `startup` plus bundle re-registration.
    pub fn reattach(&mut self, id: &InstanceId) -> Result<(), CoreError> {
        self.execute(WalEvent::Reattach { now: self.now, id: id.clone() }).map(|_| ())
    }

    /// The `Reattach` body: buffers each placed bundle's current writes
    /// through [`buffer_writes`], the rule a commit follows.
    fn resume_session(&mut self, id: &InstanceId) -> Result<(), CoreError> {
        self.renew(id)?;
        self.metrics.inc_counter("controller.sessions.reattached");
        let inst = self.instances.get_mut(id).expect("renewed above");
        applied_writes(&inst.app).for_each(|writes| buffer_writes(inst.pending.get_mut(), writes));
        self.journal_append(JournalKind::Event, format!("reattach {id}"));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Decision coalescing.
    // ------------------------------------------------------------------

    /// True when decisions are deferred and coalesced (see
    /// [`CoalescePolicy`]).
    pub fn coalescing(&self) -> bool {
        self.config.coalesce.enabled()
    }

    /// Dirty marks accumulated since the last coalesced re-evaluation.
    pub fn pending_decisions(&self) -> usize {
        self.scheduler.pending()
    }

    /// Records that system state changed and a re-evaluation is owed. The
    /// deferred trigger's `seqs` move into the scheduler: the window's
    /// decisions will carry them.
    fn mark_dirty(&mut self, seqs: &[u64]) {
        self.scheduler.mark(self.now, seqs);
        self.metrics.set_gauge("controller.scheduler.pending", self.scheduler.pending() as f64);
    }

    /// Advances the clock to `now` and runs the coalesced re-evaluation if
    /// one is due under the configured [`CoalescePolicy`]. This is the
    /// scheduler's heartbeat: the embedding calls it from its periodic
    /// pass or ticker thread.
    ///
    /// # Errors
    ///
    /// Propagates re-evaluation errors.
    pub fn service_scheduler(&mut self, now: f64) -> Result<Vec<DecisionRecord>, CoreError> {
        self.set_time(now);
        // Only *firing* ticks become commands: a quiet tick merely advances
        // the clock, which the next logged command's `now` reproduces.
        if !self.scheduler.due(&self.config.coalesce, self.now) {
            return Ok(Vec::new());
        }
        self.execute(WalEvent::Tick { now: self.now }).map(EventOutcome::into_decisions)
    }

    /// Runs the coalesced re-evaluation immediately if any marks are
    /// pending, regardless of the window (used by the coarse periodic
    /// pass and at shutdown so no dirty state is left behind).
    ///
    /// # Errors
    ///
    /// Propagates re-evaluation errors.
    pub fn flush_scheduler(&mut self) -> Result<Vec<DecisionRecord>, CoreError> {
        if self.scheduler.pending() == 0 {
            return Ok(Vec::new());
        }
        self.execute(WalEvent::Flush { now: self.now }).map(EventOutcome::into_decisions)
    }

    /// One coalesced re-evaluation covering every pending mark: the single
    /// joint optimization that replaces N per-event passes. A no-op with
    /// nothing pending.
    fn fire_scheduler(&mut self) -> Result<Vec<DecisionRecord>, CoreError> {
        let (n, provenance) = self.scheduler.take();
        if n == 0 {
            return Ok(Vec::new());
        }
        let fired = format!("coalesced-arrivals: {n}");
        self.journal_append(JournalKind::SchedulerFire, fired.clone());
        let trigger = Trigger { cause: Some(fired), provenance };
        self.metrics.inc_counter("controller.scheduler.windows_fired");
        self.metrics.add_counter("controller.scheduler.coalesced_arrivals", n as u64);
        self.metrics.add_counter("controller.scheduler.decisions_saved", (n - 1) as u64);
        self.metrics.set_gauge("controller.scheduler.pending", 0.0);
        // One window = one *converged* joint optimization. A single greedy
        // pass from the deferred state can stop at an intermediate local
        // optimum that the per-arrival path would have walked past, so
        // iterate to the fixed point. Each productive pass strictly
        // improves the objective, which bounds the loop; the cap is a
        // safety net against a (buggy) oscillating objective.
        self.metrics.inc_counter("controller.reevals");
        let mut records = Vec::new();
        for _ in 0..64 {
            let rs = self.reevaluate_pass(None, &trigger)?;
            let quiet = rs.is_empty();
            records.extend(rs);
            if quiet {
                break;
            }
        }
        Ok(records)
    }

    /// Re-evaluates every bundle of every application in arrival order,
    /// applying improving switches (the periodic pass of §4.3), followed by
    /// a round of coordinated pairwise moves.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; placement failures of *candidates*
    /// are not errors (the candidate is skipped).
    pub fn reevaluate(&mut self) -> Result<Vec<DecisionRecord>, CoreError> {
        self.execute(WalEvent::Reevaluate { now: self.now }).map(EventOutcome::into_decisions)
    }

    /// A full re-evaluation whose decisions carry `detail` as provenance —
    /// used by event arms (node joins, departures) that want the *event*,
    /// not the generic "reevaluate", on the record.
    pub(crate) fn reevaluate_triggered(
        &mut self,
        kind: JournalKind,
        detail: String,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        let trigger = self.journal_trigger(kind, detail);
        self.reevaluate_excluding(None, &trigger)
    }

    /// Every `(instance, bundle)` pair in arrival order, minus `skip`.
    pub(crate) fn all_pairs_excluding(
        &self,
        skip: Option<(&InstanceId, &str)>,
    ) -> Vec<(InstanceId, String)> {
        let apps = || self.instances.in_arrival_order().map(|inst| &inst.app);
        let mut out = Vec::with_capacity(apps().map(|app| app.bundles.len()).sum());
        for app in apps() {
            for b in &app.bundles {
                if skip == Some((&app.id, b.spec.name.as_str())) {
                    continue;
                }
                out.push((app.id.clone(), b.spec.name.clone()));
            }
        }
        out
    }

    fn reevaluate_excluding(
        &mut self,
        skip: Option<&InstanceId>,
        trigger: &Trigger,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        self.metrics.inc_counter("controller.reevals");
        self.reevaluate_pass(skip, trigger)
    }

    /// One greedy pass (improving switches, then one pairwise round)
    /// without touching the `controller.reevals` counter — the building
    /// block both for a counted [`Controller::reevaluate`] and for the
    /// converged multi-pass run of a coalesced window.
    fn reevaluate_pass(
        &mut self,
        skip: Option<&InstanceId>,
        trigger: &Trigger,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        let mut records = Vec::new();
        let pairs = self.all_pairs_excluding(None);
        for (id, bundle) in pairs.iter().filter(|(id, _)| Some(id) != skip) {
            records.extend(self.optimize_bundle(id, bundle, false, trigger)?);
        }
        if self.config.coordinated_moves && !self.config.selfish {
            // One round of pairwise moves over all ordered pairs.
            for i in 0..pairs.len() {
                for j in (i + 1)..pairs.len() {
                    records.extend(self.pairwise_step(&pairs[i], &pairs[j], trigger)?);
                }
            }
        }
        let objective = self.objective_now();
        self.metrics.set_gauge("controller.objective", objective);
        Ok(records)
    }

    /// Drains the buffered variable updates for one instance (the polling
    /// path of §5: the application receives the current writes of each
    /// bundle changed since its last poll). Takes `&self` — each instance's
    /// buffer is behind its own mutex — so polls run on the read path.
    pub fn take_pending_vars<'a>(&self, id: impl Into<InstanceRef<'a>>) -> Vec<(HPath, Value)> {
        let id = id.into();
        let drained = self.drain_pending(id);
        // Only non-empty drains change state; logging empty polls would
        // bloat the WAL with every idle fetch. Emptiness is known only
        // under the buffer lock, so this one record follows its apply.
        if !drained.is_empty() {
            self.wal_log_with(|| WalEvent::Poll { now: self.now, id: id.to_owned() });
        }
        drained
    }

    /// The one poll body, shared by [`Controller::take_pending_vars`] and
    /// the `Poll` command.
    fn drain_pending(&self, id: InstanceRef<'_>) -> Vec<(HPath, Value)> {
        self.instances
            .get(id)
            .map(|inst| std::mem::take(&mut *inst.pending.lock()))
            .unwrap_or_default()
    }

    /// Runs `harmony-analyze` over an arriving bundle per the configured
    /// [`LintMode`]: counts findings into the `controller.lint.*` metrics
    /// and, in strict mode, rejects bundles with error diagnostics.
    fn lint_gate(&self, spec: &BundleSpec) -> Result<(), CoreError> {
        if self.config.lint == LintMode::Off {
            return Ok(());
        }
        let diags = harmony_analyze::analyze_bundle(spec);
        for d in &diags {
            self.metrics.inc_counter(match d.severity {
                harmony_analyze::Severity::Error => "controller.lint.errors",
                harmony_analyze::Severity::Warning => "controller.lint.warnings",
                harmony_analyze::Severity::Note => "controller.lint.notes",
            });
        }
        if self.config.lint == LintMode::Strict && harmony_analyze::has_errors(&diags) {
            let errors: Vec<String> = diags
                .iter()
                .filter(|d| d.severity == harmony_analyze::Severity::Error)
                .map(|d| format!("{}: {}", d.code, d.message))
                .collect();
            return Err(CoreError::LintRejected { bundle: spec.name.clone(), errors });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internal: plan → commit.
    // ------------------------------------------------------------------

    /// One greedy step for one bundle: blocked? → plan → count → commit,
    /// reading only until the commit. `initial` marks the first placement
    /// of a new bundle: granularity does not apply, and failing to place
    /// anything is [`CoreError::Unplaceable`].
    fn optimize_bundle(
        &mut self,
        id: &InstanceId,
        bundle: &str,
        initial: bool,
        trigger: &Trigger,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        // Asked even for an initial placement: the lookup is what rejects
        // an unknown instance or bundle.
        if self.switch_blocked(id, bundle)? && !initial {
            return Ok(Vec::new());
        }
        let scan = self.with_workspace(|c, ws| c.plan_bundle(ws, id, bundle))?;
        let plan = self.count_scan(scan);
        if initial && plan.is_none() && self.choice(id, bundle).is_none() {
            let cands = self.cached_candidates(id, bundle);
            let reason = match cands.as_deref().and_then(|cands| cands.last()) {
                Some(cand) => format!("candidate `{}` does not fit", cand.label()),
                None => String::from("no candidates"),
            };
            return Err(CoreError::Unplaceable { bundle: bundle.to_string(), reason });
        }
        self.commit_plan(plan, trigger)
    }

    /// One coordinated move over bundles `a` and `b`; granularity on
    /// either side vetoes it.
    fn pairwise_step(
        &mut self,
        a: &(InstanceId, String),
        b: &(InstanceId, String),
        trigger: &Trigger,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        if self.switch_blocked(&a.0, &a.1)? || self.switch_blocked(&b.0, &b.1)? {
            return Ok(Vec::new());
        }
        let scan = self.with_workspace(|c, ws| c.plan_pair(ws, (&a.0, &a.1), (&b.0, &b.1)))?;
        let plan = self.count_scan(scan);
        self.commit_plan(plan, trigger)
    }

    /// Runs `plan` with the planning workspace lent out of the controller:
    /// how the write path plans, and computes the objective, without
    /// allocating buffers of its own.
    fn with_workspace<T>(&mut self, plan: impl FnOnce(&Self, &mut PlanWorkspace) -> T) -> T {
        let mut ws = std::mem::take(&mut self.workspace);
        let out = plan(self, &mut ws);
        self.workspace = ws;
        out
    }

    /// [`Controller::objective_score`] on the write path.
    fn objective_now(&mut self) -> f64 {
        self.with_workspace(|c, ws| c.objective_in(ws))
    }

    /// Adds what one scan did, exactly, to the `controller.planner.*`
    /// counters — once per scan, never per trial — and hands its plan on.
    fn count_scan(&mut self, scan: Scan) -> Option<Plan> {
        let counters = self.planning_metrics.scan(&self.metrics);
        counters.scans.inc();
        counters.trials.add(scan.trials);
        counters.matches.add(scan.matches);
        scan.plan
    }

    /// Commits every move of a plan, in order, each against the score the
    /// plan was judged by and on behalf of the pass's `trigger`.
    fn commit_plan(
        &mut self,
        plan: Option<Plan>,
        trigger: &Trigger,
    ) -> Result<Vec<DecisionRecord>, CoreError> {
        let Some(Plan { moves, objective_before, timings, .. }) = plan else {
            return Ok(Vec::new());
        };
        moves
            .into_iter()
            .map(|m| self.commit_choice(m, objective_before, timings, trigger))
            .collect()
    }

    /// Releases the incumbent (if any), commits the new allocation, updates
    /// app state and the poll buffer, and records the decision as `trigger`'s.
    /// `phases` is what planning the move cost; the commit time is added
    /// here.
    fn commit_choice(
        &mut self,
        m: PlannedMove,
        objective_before: f64,
        mut phases: PhaseTimings,
        trigger: &Trigger,
    ) -> Result<DecisionRecord, CoreError> {
        let t_commit = Instant::now();
        let current = self.choice(&m.id, &m.bundle).cloned();
        if let Some(cur) = &current {
            self.cluster.release(&cur.alloc)?;
        }
        self.cluster.commit(&m.alloc)?;
        let cfg = ChosenConfig {
            option: m.candidate.option,
            vars: m.candidate.vars,
            elastic_extra: m.candidate.elastic_extra,
            alloc: m.alloc,
            predicted: m.predicted,
            chosen_at: self.now,
        };
        let mut record = DecisionRecord {
            time: self.now,
            instance: m.id,
            bundle: m.bundle,
            from: current.as_ref().map(ChosenConfig::label),
            to: cfg.label(),
            objective_before,
            objective_after: 0.0,
            cause: trigger.cause.clone(),
            provenance: trigger.provenance.clone(),
            phases: PhaseTimings::default(),
        };
        self.apply_choice(&record.instance, &record.bundle, cfg, current.is_some());
        record.objective_after = self.objective_now();
        phases.commit_ms = elapsed_ms(t_commit);
        record.phases = phases;
        let recorded = self.planning_metrics.commit(&self.metrics);
        let PhaseTimings { candidates_ms, prediction_ms, optimization_ms, commit_ms } = phases;
        let times = [candidates_ms, prediction_ms, optimization_ms, commit_ms];
        for (histogram, ms) in recorded.phases.iter().zip(times) {
            histogram.observe(ms / 1e3);
        }
        recorded.decisions.inc();
        self.journal_append(
            JournalKind::Decision,
            format!("decision {}.{} -> {}", record.instance, record.bundle, record.to),
        );
        push_bounded(&mut self.decisions, record.clone());
        Ok(record)
    }

    /// Writes a new configuration into the app state, buffering its
    /// namespace writes to poll in place of the bundle's older ones.
    fn apply_choice(
        &mut self,
        id: &InstanceId,
        bundle_name: &str,
        cfg: ChosenConfig,
        is_switch: bool,
    ) {
        let writes = config_writes(id, bundle_name, &cfg);
        let inst = self.instances.get_mut(id).expect("caller validated instance");
        buffer_writes(inst.pending.get_mut(), writes);
        let bundle = inst.app.bundle_mut(bundle_name).expect("caller validated bundle");
        if is_switch {
            bundle.reconfig_count += 1;
        }
        bundle.current = Some(cfg);
    }

    pub(crate) fn force_choice(
        &mut self,
        m: PlannedMove,
    ) -> Result<Option<DecisionRecord>, CoreError> {
        if let Some(cur) = &self.bundle_state(&m.id, &m.bundle)?.current {
            // Skip only when both the configuration point AND the concrete
            // allocation are unchanged; the same point on different nodes
            // is still a re-placement that must be committed.
            if same_point(cur, &m.candidate) && cur.alloc == m.alloc {
                return Ok(None);
            }
        }
        let before = self.objective_now();
        // Forced outside the event paths: nothing triggered it.
        Ok(Some(self.commit_choice(m, before, PhaseTimings::default(), &Trigger::default())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_rsl::listings::{sp2_cluster, FIG2A_SIMPLE, FIG2B_BAG};
    use harmony_rsl::schema::parse_bundle_script;

    fn sp2(n: usize) -> Cluster {
        Cluster::from_rsl(&sp2_cluster(n)).unwrap()
    }

    fn bag_spec() -> BundleSpec {
        parse_bundle_script(FIG2B_BAG).unwrap()
    }

    #[test]
    fn startup_assigns_instance_ids() {
        let mut c = Controller::new(sp2(4), ControllerConfig::default());
        let a = c.startup("DBclient");
        let b = c.startup("DBclient");
        assert_eq!(a, InstanceId::new("DBclient", 1));
        assert_eq!(b, InstanceId::new("DBclient", 2));
        assert_eq!(c.instances(), vec![a, b]);
    }

    #[test]
    fn registering_bag_on_idle_cluster_takes_all_eight_workers() {
        // With no competition, the explicit performance model says 8
        // workers is fastest (230 s).
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (id, records) = c.register(bag_spec()).unwrap();
        assert!(!records.is_empty());
        let choice = c.choice(&id, "config").unwrap();
        assert_eq!(choice.vars, vec![("workerNodes".to_string(), 8)]);
        assert_eq!(choice.predicted, 230.0);
        assert_eq!(c.cluster().total_tasks(), 8);
    }

    #[test]
    fn second_bag_forces_equal_partitions() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        let (b, _) = c.register(bag_spec()).unwrap();
        let wa = c.choice(&a, "config").unwrap().vars[0].1;
        let wb = c.choice(&b, "config").unwrap().vars[0].1;
        // Equal partitions as in Figure 4b, on distinct node sets.
        assert_eq!((wa, wb), (4, 4), "got {wa}+{wb}");
        assert_eq!(c.objective_score(), 340.0);
        let na = &c.choice(&a, "config").unwrap().alloc;
        let nb = &c.choice(&b, "config").unwrap().alloc;
        for n in &na.nodes {
            assert!(nb.nodes.iter().all(|m| m.node != n.node), "disjoint node sets");
        }
    }

    #[test]
    fn unplaceable_initial_bundle_errors() {
        let mut c = Controller::new(sp2(2), ControllerConfig::default());
        let spec = parse_bundle_script(FIG2A_SIMPLE).unwrap(); // needs 4 nodes
        let err = c.register(spec).unwrap_err();
        assert!(matches!(err, CoreError::Unplaceable { .. }));
    }

    #[test]
    fn end_releases_resources_and_reexpands_survivors() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        let (b, _) = c.register(bag_spec()).unwrap();
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 4);
        let records = c.end(&b).unwrap();
        // The survivor should re-expand to 8 workers.
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 8);
        assert!(records.iter().any(|r| r.instance == a));
        assert_eq!(c.cluster().total_tasks(), 8);
        assert!(c.app(&b).is_none());
        assert!(matches!(c.end(&b), Err(CoreError::UnknownInstance { .. })));
    }

    #[test]
    fn granularity_delays_reconfiguration() {
        let spec = parse_bundle_script(
            "harmonyBundle bag:1 config {\n\
               {run\n\
                 {variable workerNodes {1 2 4 8}}\n\
                 {node worker {replicate workerNodes} {seconds {1200 / workerNodes}} {memory 32}}\n\
                 {performance {1 1200} {2 620} {4 340} {8 230}}\n\
                 {granularity 100}}\n\
             }",
        )
        .unwrap();
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(spec.clone()).unwrap();
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 8);
        // A second app arrives shortly after: the first app's granularity
        // (100 s) blocks the coordinated shrink.
        c.set_time(10.0);
        let (b, _) = c.register(spec.clone()).unwrap();
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 8, "blocked by granularity");
        // After the granularity window, a re-evaluation rebalances.
        c.set_time(200.0);
        c.reevaluate().unwrap();
        let wa = c.choice(&a, "config").unwrap().vars[0].1;
        let wb = c.choice(&b, "config").unwrap().vars[0].1;
        assert!(wa + wb <= 8, "rebalanced to {wa}+{wb}");
        assert!(wa >= 2 && wb >= 2, "rebalanced to {wa}+{wb}");
    }

    #[test]
    fn namespace_records_choices() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (id, _) = c.register(bag_spec()).unwrap();
        let ns = c.namespace();
        let opt_path: HPath = format!("bag.{}.config", id.id).parse().unwrap();
        assert_eq!(ns.get(&opt_path), Some(Value::Str("run".into())));
        let var_path: HPath = format!("bag.{}.config.run.workerNodes", id.id).parse().unwrap();
        assert_eq!(ns.get(&var_path), Some(Value::Int(8)));
        let mem_path: HPath = format!("bag.{}.config.run.worker.memory", id.id).parse().unwrap();
        assert_eq!(ns.get(&mem_path), Some(Value::Float(32.0)));
    }

    #[test]
    fn pending_vars_drain_once() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (id, _) = c.register(bag_spec()).unwrap();
        assert!(!c.take_pending_vars(&id).is_empty());
        assert!(c.take_pending_vars(&id).is_empty(), "second poll is empty");
    }

    #[test]
    fn selfish_mode_overallocates() {
        // Selfish: each bag takes as many workers as fit, ignoring the
        // other's slowdown (the AppLes contrast).
        let cfg = ControllerConfig { selfish: true, ..Default::default() };
        let mut c = Controller::new(sp2(8), cfg);
        let (a, _) = c.register(bag_spec()).unwrap();
        let (_b, _) = c.register(bag_spec()).unwrap();
        let wa = c.choice(&a, "config").unwrap().vars[0].1;
        assert_eq!(wa, 8, "selfish first app grabs everything");
        // Centralized (default) does better on the system objective.
        let mut c2 = Controller::new(sp2(8), ControllerConfig::default());
        c2.register(bag_spec()).unwrap();
        c2.register(bag_spec()).unwrap();
        assert!(c2.objective_score() <= c.objective_score());
    }

    #[test]
    fn decisions_are_recorded() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (id, _) = c.register(bag_spec()).unwrap();
        assert!(!c.decisions().is_empty());
        let d = &c.decisions()[0];
        assert_eq!(d.instance, id);
        assert_eq!(d.bundle, "config");
        assert_eq!(d.from, None);
        assert_eq!(d.to, "run[workerNodes=8]");
        assert!(d.objective_after > 0.0);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut c = Controller::new(sp2(2), ControllerConfig::default());
        c.set_time(10.0);
        c.set_time(5.0);
        assert_eq!(c.now(), 10.0);
    }

    #[test]
    fn dedicated_bag_space_shares() {
        // The same bag with a dedicated tag: workers refuse co-residency,
        // so two bags partition the cluster 4+4 with zero contention.
        let spec = parse_bundle_script(
            "harmonyBundle bag:1 config {\n\
               {run\n\
                 {variable workerNodes {1 2 4 8}}\n\
                 {node worker {replicate workerNodes} {dedicated 1} {seconds {1200 / workerNodes}} {memory 32}}\n\
                 {performance {1 1200} {2 620} {4 340} {8 230}}}\n\
             }",
        )
        .unwrap();
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(spec.clone()).unwrap();
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 8);
        let (b, _) = c.register(spec).unwrap();
        let wa = c.choice(&a, "config").unwrap().vars[0].1;
        let wb = c.choice(&b, "config").unwrap().vars[0].1;
        assert_eq!((wa, wb), (4, 4), "got {wa}+{wb}");
        // Every node hosts at most one task.
        for n in c.cluster().nodes() {
            assert!(n.tasks <= 1);
            assert_eq!(n.exclusive, n.tasks);
        }
    }

    #[test]
    fn strict_lint_rejects_broken_bundles_advisory_accepts() {
        // Undeclared variable `w` + reachable division by zero via `z`.
        let broken = parse_bundle_script(
            "harmonyBundle bag:1 config {\n\
               {run\n\
                 {variable z {0 1 2}}\n\
                 {node worker {replicate w} {seconds {1200 / z}} {memory 32}}}\n\
             }",
        )
        .unwrap();

        let mut strict = Controller::new(sp2(8), ControllerConfig::default());
        let err = strict.register(broken.clone()).unwrap_err();
        let CoreError::LintRejected { bundle, errors } = &err else {
            panic!("expected LintRejected, got {err:?}");
        };
        assert_eq!(bundle, "config");
        assert!(errors.iter().any(|e| e.starts_with("HA0004")), "{errors:?}");
        assert!(errors.iter().any(|e| e.starts_with("HA0020")), "{errors:?}");
        assert!(strict.metrics().counter("controller.lint.errors") >= 2);

        // Advisory mode lets the same bundle through to placement (which
        // then fails for its own reasons — `w` is unbound — but that is a
        // placement error, not a lint rejection).
        let cfg = ControllerConfig { lint: LintMode::Advisory, ..Default::default() };
        let mut advisory = Controller::new(sp2(8), cfg);
        let err = advisory.register(broken).unwrap_err();
        assert!(
            !matches!(err, CoreError::LintRejected { .. }),
            "advisory mode must not lint-reject: {err:?}"
        );
        assert!(advisory.metrics().counter("controller.lint.errors") >= 2);
    }

    /// The gate lints only a bundle that attaches: a lint-broken bundle
    /// for an unknown instance is unknown, not rejected, and an idempotent
    /// retry counts no finding twice.
    #[test]
    fn the_lint_gate_runs_only_where_a_bundle_attaches() {
        let broken = parse_bundle_script(
            "harmonyBundle bag:1 config { {run {node worker {replicate w} {seconds 1}}} }",
        )
        .unwrap();
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let ghost = InstanceId::new("bag", 99);
        let err = c.add_bundle(&ghost, broken.clone()).unwrap_err();
        assert!(matches!(err, CoreError::UnknownInstance { .. }), "{err:?}");
        let lint = |c: &Controller| {
            ["errors", "warnings", "notes"]
                .map(|sev| c.metrics().counter(&format!("controller.lint.{sev}")))
        };
        assert_eq!(lint(&c), [0, 0, 0], "nothing attached, nothing linted");

        // A spec with a warning (a variable nothing reads), sent twice as a
        // client retrying after a lost reply: one set of findings.
        let spec = parse_bundle_script(
            "harmonyBundle bag:1 config { {run {variable idle {1 2}} {node worker {seconds 10}}} }",
        )
        .unwrap();
        let id = c.startup("bag");
        c.add_bundle(&id, spec.clone()).unwrap();
        let once = lint(&c);
        assert_ne!(once, [0, 0, 0], "the bag has findings to count: {once:?}");
        c.add_bundle(&id, spec).unwrap();
        assert_eq!(lint(&c), once, "a retry is not linted again");

        // A different, broken spec under the taken name conflicts before the
        // gate could reject it.
        let err = c.add_bundle(&id, broken).unwrap_err();
        assert!(matches!(err, CoreError::BundleConflict { .. }), "{err:?}");
        assert_eq!(lint(&c), once);
    }

    #[test]
    fn lint_off_skips_analysis_counters() {
        let cfg = ControllerConfig { lint: LintMode::Off, ..Default::default() };
        let mut c = Controller::new(sp2(8), cfg);
        c.register(bag_spec()).unwrap();
        assert_eq!(c.metrics().counter("controller.lint.errors"), 0);
        assert_eq!(c.metrics().counter("controller.lint.warnings"), 0);
    }

    #[test]
    fn leases_renew_and_expire() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        let (b, _) = c.register(bag_spec()).unwrap();
        assert_eq!(c.sessions().count(), 2);
        assert_eq!(c.session(&a).unwrap().deadline, 30.0);
        // `a` stays active; `b` goes silent.
        c.set_time(20.0);
        assert!(c.renew_lease(&a));
        assert_eq!(c.session(&a).unwrap().deadline, 50.0);
        assert_eq!(c.session(&a).unwrap().renewals, 1);
        // At t=40 only b's lease has run out.
        let records = c.reap_expired(40.0).unwrap();
        assert!(c.app(&b).is_none(), "b reaped");
        assert!(c.app(&a).is_some(), "a survives");
        assert_eq!(c.metrics().counter("controller.sessions.expired"), 1);
        // The survivor re-expanded to the full cluster, and the decision
        // carries the retirement cause.
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 8);
        assert!(records.iter().any(|r| r.cause.as_deref() == Some("lease-expired: bag.2")));
        let retirement = c.retirements().last().unwrap();
        assert_eq!(retirement.instance, b);
        assert_eq!(retirement.reason, RetireReason::LeaseExpired);
    }

    #[test]
    fn reaped_state_matches_explicit_end() {
        // A reaped instance must leave exactly the state an `end` would.
        let mut reaped = Controller::new(sp2(8), ControllerConfig::default());
        let (ra, _) = reaped.register(bag_spec()).unwrap();
        let (_rb, _) = reaped.register(bag_spec()).unwrap();
        reaped.set_time(20.0);
        reaped.renew_lease(&ra);
        reaped.reap_expired(40.0).unwrap();

        let mut ended = Controller::new(sp2(8), ControllerConfig::default());
        let (ea, _) = ended.register(bag_spec()).unwrap();
        let (eb, _) = ended.register(bag_spec()).unwrap();
        ended.end(&eb).unwrap();

        assert_eq!(reaped.instances(), ended.instances());
        assert_eq!(
            reaped.choice(&ra, "config").unwrap().label(),
            ended.choice(&ea, "config").unwrap().label()
        );
        assert_eq!(reaped.objective_score(), ended.objective_score());
        assert_eq!(reaped.cluster().total_tasks(), ended.cluster().total_tasks());
    }

    #[test]
    fn disconnect_shortens_lease_and_reattach_restores_it() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        c.mark_disconnected(&a);
        let s = c.session(&a).unwrap();
        assert!(s.disconnected);
        assert_eq!(s.deadline, 5.0, "capped to the disconnect grace");
        // A reattach inside the grace revives the session and replays the
        // chosen values as pending vars.
        c.take_pending_vars(&a); // drain the original placement writes
        c.reattach(&a).unwrap();
        let s = c.session(&a).unwrap();
        assert!(!s.disconnected);
        assert_eq!(s.deadline, 30.0);
        let replayed = c.take_pending_vars(&a);
        assert!(replayed.iter().any(|(p, v)| {
            p.to_string() == format!("bag.{}.config.run.workerNodes", a.id) && *v == Value::Int(8)
        }));
        // Reattaching an unknown instance is an error.
        let ghost = InstanceId::new("bag", 99);
        assert!(matches!(c.reattach(&ghost), Err(CoreError::UnknownInstance { .. })));
    }

    #[test]
    fn disconnected_instance_reaps_with_disconnect_reason() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        c.mark_disconnected(&a);
        // Marking twice does not double-count.
        c.mark_disconnected(&a);
        assert_eq!(c.metrics().counter("controller.sessions.disconnects"), 1);
        c.reap_expired(6.0).unwrap();
        assert!(c.app(&a).is_none());
        assert_eq!(c.retirements()[0].reason, RetireReason::Disconnected);
        assert_eq!(c.cluster().total_tasks(), 0);
    }

    #[test]
    fn coordinated_moves_can_be_disabled() {
        let cfg = ControllerConfig { coordinated_moves: false, ..Default::default() };
        let mut c = Controller::new(sp2(8), cfg);
        let (a, _) = c.register(bag_spec()).unwrap();
        let (b, _) = c.register(bag_spec()).unwrap();
        let wa = c.choice(&a, "config").unwrap().vars[0].1;
        let wb = c.choice(&b, "config").unwrap().vars[0].1;
        // Without coordination, greedy gets stuck stacking both at 8.
        assert_eq!((wa, wb), (8, 8));
        assert!(c.objective_score() > 340.0);
    }

    fn coalescing_config(window: f64) -> ControllerConfig {
        ControllerConfig {
            coalesce: crate::scheduler::CoalescePolicy { window, max_delay: 10.0, max_pending: 0 },
            ..Default::default()
        }
    }

    #[test]
    fn default_config_leaves_scheduler_idle() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        c.register(bag_spec()).unwrap();
        c.register(bag_spec()).unwrap();
        assert!(!c.coalescing());
        assert_eq!(c.pending_decisions(), 0);
        assert_eq!(c.metrics().counter("controller.scheduler.windows_fired"), 0);
    }

    #[test]
    fn coalesced_arrivals_defer_to_one_window() {
        let mut c = Controller::new(sp2(8), coalescing_config(0.5));
        let (a, _) = c.register(bag_spec()).unwrap();
        let (b, _) = c.register(bag_spec()).unwrap();
        assert_eq!(c.pending_decisions(), 2);
        // Inside the window nothing fires.
        assert!(c.service_scheduler(0.3).unwrap().is_empty());
        // Past the quiet window, one re-evaluation covers both arrivals.
        let reevals_before = c.metrics().counter("controller.reevals");
        let records = c.service_scheduler(0.6).unwrap();
        assert_eq!(c.metrics().counter("controller.reevals"), reevals_before + 1);
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.cause.as_deref() == Some("coalesced-arrivals: 2")));
        // Same end state as the synchronous policy: equal partitions.
        let wa = c.choice(&a, "config").unwrap().vars[0].1;
        let wb = c.choice(&b, "config").unwrap().vars[0].1;
        assert_eq!((wa, wb), (4, 4), "got {wa}+{wb}");
        assert_eq!(c.objective_score(), 340.0);
        assert_eq!(c.pending_decisions(), 0);
        assert_eq!(c.metrics().counter("controller.scheduler.windows_fired"), 1);
        assert_eq!(c.metrics().counter("controller.scheduler.coalesced_arrivals"), 2);
        assert_eq!(c.metrics().counter("controller.scheduler.decisions_saved"), 1);
        // The coalesced state is a fixed point: re-evaluating again moves
        // nothing.
        assert!(c.reevaluate().unwrap().is_empty());
    }

    #[test]
    fn coalesced_admission_still_shrinks_incumbents_synchronously() {
        // Dedicated workers: the second bag cannot place at all until the
        // first shrinks, so the pairwise admission must not be deferred.
        let spec = parse_bundle_script(
            "harmonyBundle bag:1 config {\n\
               {run\n\
                 {variable workerNodes {1 2 4 8}}\n\
                 {node worker {replicate workerNodes} {dedicated 1} {seconds {1200 / workerNodes}} {memory 32}}\n\
                 {performance {1 1200} {2 620} {4 340} {8 230}}}\n\
             }",
        )
        .unwrap();
        let mut c = Controller::new(sp2(8), coalescing_config(0.5));
        let (a, _) = c.register(spec.clone()).unwrap();
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 8);
        let (b, _) = c.register(spec).unwrap();
        assert!(c.choice(&b, "config").is_some(), "admission happened inline");
        let wa = c.choice(&a, "config").unwrap().vars[0].1;
        let wb = c.choice(&b, "config").unwrap().vars[0].1;
        assert_eq!((wa, wb), (4, 4), "got {wa}+{wb}");
    }

    #[test]
    fn coalesced_retire_defers_survivor_reexpansion() {
        let mut c = Controller::new(sp2(8), coalescing_config(0.5));
        let (a, _) = c.register(bag_spec()).unwrap();
        let (b, _) = c.register(bag_spec()).unwrap();
        c.flush_scheduler().unwrap();
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 4);
        // Ending `b` marks dirty instead of re-evaluating inline.
        let records = c.end(&b).unwrap();
        assert!(records.is_empty());
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 4, "not yet re-expanded");
        assert_eq!(c.pending_decisions(), 1);
        let records = c.flush_scheduler().unwrap();
        assert!(records.iter().any(|r| r.instance == a));
        assert_eq!(c.choice(&a, "config").unwrap().vars[0].1, 8, "re-expanded at the window");
    }

    #[test]
    fn max_pending_fires_without_waiting_for_the_window() {
        let mut c = Controller::new(
            sp2(8),
            ControllerConfig {
                coalesce: crate::scheduler::CoalescePolicy {
                    window: 100.0,
                    max_delay: 1000.0,
                    max_pending: 2,
                },
                ..Default::default()
            },
        );
        c.register(bag_spec()).unwrap();
        c.register(bag_spec()).unwrap();
        // Two marks hit max_pending: due immediately, no quiet time needed.
        let records = c.service_scheduler(0.0).unwrap();
        assert!(!records.is_empty());
        assert_eq!(c.metrics().counter("controller.scheduler.windows_fired"), 1);
    }

    #[test]
    fn touch_extends_lease_via_fold() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        assert_eq!(c.session(&a).unwrap().deadline, 30.0);
        c.set_time(20.0);
        assert!(c.touch(&a));
        // The stored deadline is untouched until a write-path fold, but
        // the effective deadline already reflects the renewal.
        assert_eq!(c.session(&a).unwrap().deadline, 30.0);
        assert_eq!(c.effective_deadline(&a), Some(50.0));
        // The reaper folds the touch before judging expiry: at t=40 the
        // touched lease (deadline 50) survives.
        c.reap_expired(40.0).unwrap();
        assert!(c.app(&a).is_some(), "touched instance survives");
        assert_eq!(c.session(&a).unwrap().deadline, 50.0);
        assert_eq!(c.session(&a).unwrap().renewals, 1);
        // An un-renewed instance is unknown to touch.
        assert!(!c.touch(&InstanceId::new("ghost", 9)));
    }

    #[test]
    fn touch_before_disconnect_is_honored() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        c.set_time(20.0);
        c.touch(&a);
        c.mark_disconnected(&a);
        let s = c.session(&a).unwrap();
        assert!(s.disconnected);
        // Folded renewal (deadline 50) first, then capped to now + grace.
        assert_eq!(s.deadline, 25.0);
        assert_eq!(s.renewals, 1);
    }

    #[test]
    fn touch_for_metric_parses_instance_names() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        c.set_time(25.0);
        c.touch_for_metric(&format!("bag.{}.response_time", a.id));
        assert_eq!(c.effective_deadline(&a), Some(55.0));
        // Non-conforming names are ignored without panicking.
        c.touch_for_metric("nodots");
        c.touch_for_metric("ghost.77.rt");
    }

    #[test]
    fn retiring_an_instance_keeps_the_history_of_siblings_whose_id_extends_its_digits() {
        // Twelve instances of one application: ids 1 … 12, so `bag.1` is a
        // textual prefix of `bag.10`, `bag.11` and `bag.12`.
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let ids: Vec<InstanceId> = (0..12).map(|_| c.startup("bag")).collect();
        for id in &ids {
            assert!(c.record_metric(&format!("{id}.response_time"), 1.0, 2.5));
        }
        c.end(&ids[0]).unwrap();
        assert!(
            c.metrics().histogram("bag.1.response_time").is_none(),
            "the retired one's is gone"
        );
        for id in &ids[1..] {
            let name = format!("{id}.response_time");
            let h = c.metrics().histogram(&name);
            assert_eq!(h.map(|h| (h.len(), h.mean())), Some((1, Some(2.5))), "{name} lost");
        }
    }

    #[test]
    fn set_time_rejects_non_finite_and_backward_clocks() {
        let mut c = Controller::new(sp2(2), ControllerConfig::default());
        c.set_time(7.0);
        c.set_time(f64::NAN);
        c.set_time(f64::INFINITY);
        c.set_time(f64::NEG_INFINITY);
        c.set_time(3.0);
        assert_eq!(c.now(), 7.0, "bad clocks are ignored, not applied");
    }

    /// `fetch_max` on raw f64 bits is only a max for non-negative finite
    /// values: a NaN stamp (all-ones exponent) would win every later
    /// comparison and freeze the lease forever, and a negative stamp's
    /// sign bit ranks it above every legitimate timestamp. The touch site
    /// must clamp even if an adversarial clock sneaks past `set_time`.
    #[test]
    fn touch_never_stores_a_poisonous_stamp() {
        let mut c = Controller::new(sp2(8), ControllerConfig::default());
        let (a, _) = c.register(bag_spec()).unwrap();
        let lease = c.config().lease.duration;

        // Adversarial clocks (written directly: set_time refuses them).
        for bad in [f64::NAN, f64::INFINITY, -4.0] {
            c.now = bad;
            assert!(c.touch(&a), "a rejected stamp drops the touch, not the session");
            assert_eq!(
                c.instances.get(&a).unwrap().lease.unfolded(),
                None,
                "no stamp may be stored for now = {bad}"
            );
        }

        // A sane clock touches normally...
        c.now = 10.0;
        assert!(c.touch(&a));
        assert_eq!(c.effective_deadline(&a), Some(10.0 + lease));
        // ...and later poison attempts cannot regress or corrupt it.
        c.now = f64::NAN;
        c.touch(&a);
        c.now = -1.0e300;
        c.touch(&a);
        assert_eq!(c.effective_deadline(&a), Some(10.0 + lease), "stamp survived the attack");
        // An earlier (but valid) clock loses fetch_max without wedging.
        c.now = 5.0;
        c.touch(&a);
        assert_eq!(c.effective_deadline(&a), Some(10.0 + lease));
        // Folding the stamp yields a finite deadline.
        c.now = 10.5;
        let _ = c.reap_expired(10.5).unwrap();
        let s = c.session(&a).unwrap();
        assert!(s.deadline.is_finite());
        assert_eq!(s.deadline, 10.0 + lease);
    }
}
