//! The simulated world: the whole stack wired together on a virtual
//! clock, plus the shadow lease model the lease oracle compares against.
//!
//! A [`World`] owns a real [`Controller`] behind the same
//! [`SharedController`] handle production uses, and drives real
//! [`HarmonyClient`]s over fault-injectable in-process transports
//! ([`ChaosTransport`] around [`LocalTransport`]). No thread ever sleeps
//! and no wall clock is read: every op carries its own virtual timestamp,
//! so a schedule replays bit-for-bit.
//!
//! ## The shadow lease model
//!
//! Lease state is the invariant hardest to eyeball: renewals arrive on
//! two paths (write-path verbs renew [`SessionState::deadline`] directly;
//! read-path verbs stamp an atomic that a later write-path pass folds in)
//! and recovery traffic (reattach, fresh-startup fallback) renews as a
//! side effect. The world therefore feeds the ground truth of delivered
//! messages to the *correct* lease semantics ([`ShadowLeases::observe`])
//! — each [`ChaosTransport`]'s call log says exactly which requests the
//! server observed, fault-confusion included — and the lease oracle
//! demands the controller agree with the shadow after every op, exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_client::{HarmonyClient, UpdateDelivery};
use harmony_core::{
    Controller, ControllerConfig, CoreError, DecisionRecord, HarmonyEvent, InstanceId,
    JournalEntry, LeaseConfig,
};
use harmony_proto::{CallRecord, ChaosTransport, LocalTransport, SharedController};
use harmony_resources::Cluster;
use harmony_rng::fnv::{Fnv64, FNV_OFFSET};
use harmony_rsl::listings;
use harmony_rsl::schema::{LinkDecl, NodeDecl};
use parking_lot::RwLock;

use crate::oracle::{self, Violation};
use crate::schedule::{Op, OpKind, Schedule, CLIENT_SLOTS, NODE_COUNT};
use crate::shadow::ShadowLeases;
use crate::{PlantedBug, RunReport};

/// The `(app, bundle script)` palette a client slot is pinned to. Public
/// so `harmony-mc` drives the exact sessions a replayed counterexample
/// schedule will re-create.
pub fn palette(slot: usize) -> (&'static str, &'static str) {
    if slot.is_multiple_of(2) {
        ("bag", listings::FIG2B_BAG)
    } else {
        ("simple", listings::FIG2A_SIMPLE)
    }
}

/// Node `node` (an index into the `sp2_cluster` declaration order)
/// leaves the cluster, unless it is already gone or only four nodes
/// remain, so the palette's fixed replicate-4 bundle stays placeable
/// somewhere. Returns the departed node's declaration. `harmony-mc`
/// takes the same transition.
pub fn node_left(ctl: &mut Controller, node: u8) -> Result<Option<NodeDecl>, CoreError> {
    let name = format!("node{node:02}");
    let decl = match ctl.cluster().node(&name) {
        Some(state) if ctl.cluster().len() > 4 => NodeDecl::clone(&state.decl),
        _ => return Ok(None),
    };
    ctl.handle_event(HarmonyEvent::NodeLeft { name })?;
    Ok(Some(decl))
}

/// A departed node rejoins with its declaration `decl`, and the switch
/// mesh its departure removed is restored: one 320 Mbit/s link to every
/// live peer. `harmony-mc` takes the same transition.
pub fn node_rejoin(ctl: &mut Controller, decl: NodeDecl) -> Result<(), CoreError> {
    let name = decl.name.clone();
    ctl.handle_event(HarmonyEvent::NodeJoined(decl))?;
    let peers: Vec<String> =
        ctl.cluster().nodes().map(|n| n.decl.name.clone()).filter(|n| *n != name).collect();
    for peer in peers {
        // Duplicate/unknown-endpoint errors are impossible here, but stay
        // tolerant: link wiring is not what a rejoin tests.
        let _ =
            ctl.handle_event(HarmonyEvent::LinkJoined(LinkDecl::new(peer, name.clone(), 320.0)));
    }
    Ok(())
}

// The observable-sequence fingerprint folds with `harmony_rng::fnv` (the
// field conventions — LE integers, bit-pattern floats, 0xff string
// terminator — originated here and are pinned by that module's tests).

fn fold_str(h: &mut u64, s: &str) {
    let mut f = Fnv64::resume(*h);
    f.write_str(s);
    *h = f.finish();
}

fn fold_entry(h: &mut u64, e: &JournalEntry) {
    let mut f = Fnv64::resume(*h);
    f.write_u64(e.seq);
    f.write_f64(e.time);
    f.write_str(&e.kind.to_string());
    f.write_str(&e.detail);
    *h = f.finish();
}

fn fold_decision(h: &mut u64, d: &DecisionRecord) {
    let mut f = Fnv64::resume(*h);
    f.write_f64(d.time);
    f.write_str(&d.instance.to_string());
    f.write_str(&d.bundle);
    f.write_str(d.from.as_deref().unwrap_or("-"));
    f.write_str(&d.to);
    f.write_f64(d.objective_before);
    f.write_f64(d.objective_after);
    f.write_str(d.cause.as_deref().unwrap_or("-"));
    for &seq in &d.provenance {
        f.write_u64(seq);
    }
    f.write_bytes(&[0xfe]);
    *h = f.finish();
}

/// One client slot: a real client over a chaos transport, plus the
/// bookkeeping the generator's no-op rules rely on.
struct Slot {
    app: &'static str,
    script: &'static str,
    client: Option<HarmonyClient<ChaosTransport<LocalTransport>>>,
    log: Option<harmony_proto::CallLog>,
    /// The bundle was successfully registered for the current client.
    bundled: bool,
    /// Last instance id the server registered for this slot (survives a
    /// crash, so `MarkDisconnected` can name the session the server still
    /// holds).
    instance: Option<InstanceId>,
}

impl Slot {
    /// Drops the client with its transport killed first, so not even the
    /// drop-time best-effort `end` escapes — a SIGKILL, not a close.
    fn kill(&mut self) {
        if let Some(mut cl) = self.client.take() {
            cl.transport_mut().kill();
            self.bundled = false;
        }
    }
}

/// The whole simulated stack plus oracles' bookkeeping.
pub struct World {
    ctl: SharedController,
    config: ControllerConfig,
    lease: LeaseConfig,
    planted: PlantedBug,
    /// The controller is a state store's: it dies once, at the end of the
    /// run, so the schedule's soft `Restart` is a no-op (subsequences stay
    /// valid either way).
    durable: bool,
    slots: Vec<Slot>,
    shadow: ShadowLeases,
    /// Departed nodes and their original declarations, for rejoins.
    evicted: BTreeMap<String, NodeDecl>,
    time_ms: u64,
    cursor: u64,
    decisions_seen: u64,
    fingerprint: u64,
    journal_appended: u64,
    decisions_total: usize,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("time_ms", &self.time_ms)
            .field("shadow", &self.shadow.len())
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .finish()
    }
}

impl World {
    /// Builds the stack for one run: a fresh controller over an
    /// `NODE_COUNT`-node cluster and `CLIENT_SLOTS` empty client slots.
    pub fn new(config: ControllerConfig, planted: PlantedBug) -> Self {
        Self::over(Self::fresh_controller(&config), planted, false)
    }

    /// Builds the stack over a given controller — a [`StateStore`]'s, when
    /// `durable` — so durable runs execute ops, and are held to the
    /// oracles, exactly as in-memory ones are.
    ///
    /// [`StateStore`]: harmony_core::StateStore
    pub(crate) fn over(ctl: Controller, planted: PlantedBug, durable: bool) -> Self {
        let config = ctl.config().clone();
        let lease = config.lease;
        let ctl = Arc::new(RwLock::new(ctl));
        let slots = (0..CLIENT_SLOTS as usize)
            .map(|i| {
                let (app, script) = palette(i);
                Slot { app, script, client: None, log: None, bundled: false, instance: None }
            })
            .collect();
        World {
            ctl,
            config,
            lease,
            planted,
            durable,
            slots,
            shadow: ShadowLeases::new(lease),
            evicted: BTreeMap::new(),
            time_ms: 0,
            cursor: 0,
            decisions_seen: 0,
            fingerprint: FNV_OFFSET,
            journal_appended: 0,
            decisions_total: 0,
        }
    }

    pub(crate) fn fresh_controller(config: &ControllerConfig) -> Controller {
        let cluster = Cluster::from_rsl(&listings::sp2_cluster(NODE_COUNT as usize))
            .expect("sp2 cluster parses");
        Controller::new(cluster, config.clone())
    }

    /// The virtual clock in controller seconds.
    fn now(&self) -> f64 {
        self.time_ms as f64 / 1000.0
    }

    /// Runs a whole schedule: every op, the end-of-run convergence sweep,
    /// and the oracles after each step.
    pub fn run(schedule: &Schedule, planted: PlantedBug) -> RunReport {
        let mut world = World::new(crate::config_for_seed(schedule.seed), planted);
        let mut violation = None;
        let mut executed = 0;
        for (i, op) in schedule.ops.iter().enumerate() {
            if let Err(v) = world.step(i, op) {
                violation = Some(v);
                break;
            }
            executed = i + 1;
        }
        if violation.is_none() {
            if let Err(v) = world.finish(schedule.ops.len()) {
                violation = Some(v);
            }
        }
        RunReport {
            seed: schedule.seed,
            planted,
            fingerprint: world.fingerprint,
            ops_executed: executed,
            ops_total: schedule.ops.len(),
            journal_appended: world.journal_appended,
            decisions: world.decisions_total,
            violation,
        }
    }

    /// The controller the world drives.
    pub(crate) fn controller(&self) -> &SharedController {
        &self.ctl
    }

    /// Kills every live client the way `Crash` kills one: what the
    /// server's own death leaves behind.
    pub(crate) fn kill_clients(&mut self) {
        self.slots.iter_mut().for_each(Slot::kill);
    }

    /// Executes one op and re-checks every oracle.
    pub(crate) fn step(&mut self, i: usize, op: &Op) -> Result<(), Violation> {
        self.time_ms = self.time_ms.max(op.at_ms);
        self.ctl.write().set_time(self.now());
        self.exec(i, &op.kind)?;
        self.post_op(i, op.kind.client())
    }

    /// The end-of-run convergence sweep: long after the last op, one reap
    /// must retire every remaining session and return the cluster to
    /// completely free.
    fn finish(&mut self, n_ops: usize) -> Result<(), Violation> {
        self.time_ms += (self.lease.duration * 1000.0) as u64 * 2 + 1000;
        self.ctl.write().set_time(self.now());
        self.exec_reap(n_ops)?;
        self.post_op(n_ops, None)?;
        let ctl = self.ctl.read();
        if !ctl.instances().is_empty() {
            return Err(Violation::new(
                n_ops,
                "convergence",
                format!("instances survive the final reap: {:?}", ctl.instances()),
            ));
        }
        if ctl.cluster().total_tasks() != 0 {
            return Err(Violation::new(
                n_ops,
                "convergence",
                format!(
                    "{} tasks still allocated after every session retired",
                    ctl.cluster().total_tasks()
                ),
            ));
        }
        let free = ctl.cluster().total_free_memory();
        let total = ctl.cluster().total_memory();
        if (free - total).abs() > 1e-6 {
            return Err(Violation::new(
                n_ops,
                "convergence",
                format!("memory not fully released: {free} of {total} MB free"),
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Op execution.
    // ------------------------------------------------------------------

    fn exec(&mut self, i: usize, kind: &OpKind) -> Result<(), Violation> {
        match kind {
            OpKind::Start { client } => self.exec_start(*client as usize),
            OpKind::AddBundle { client } => {
                let slot = &mut self.slots[*client as usize];
                if !slot.bundled {
                    if let Some(cl) = slot.client.as_mut() {
                        if cl.bundle_setup(slot.script).is_ok() {
                            slot.bundled = true;
                        }
                    }
                }
                Ok(())
            }
            OpKind::Poll { client } => {
                if let Some(cl) = self.slots[*client as usize].client.as_mut() {
                    let _ = cl.poll();
                }
                Ok(())
            }
            OpKind::Heartbeat { client } => {
                if let Some(cl) = self.slots[*client as usize].client.as_mut() {
                    let _ = cl.heartbeat();
                }
                Ok(())
            }
            OpKind::Metric { client, millis } => {
                let now = self.now();
                if let Some(cl) = self.slots[*client as usize].client.as_mut() {
                    let _ = cl.report_metric("response_time", now, f64::from(*millis) / 1000.0);
                }
                Ok(())
            }
            OpKind::FaultedPoll { client, fault } => {
                if let Some(cl) = self.slots[*client as usize].client.as_mut() {
                    cl.transport_mut().inject(*fault);
                    let _ = cl.poll();
                }
                Ok(())
            }
            OpKind::End { client } => {
                let slot = &mut self.slots[*client as usize];
                if let Some(cl) = slot.client.take() {
                    let _ = cl.end();
                    slot.bundled = false;
                }
                Ok(())
            }
            OpKind::Crash { client } => {
                self.slots[*client as usize].kill();
                Ok(())
            }
            OpKind::MarkDisconnected { client } => {
                if let Some(id) = self.slots[*client as usize].instance.clone() {
                    self.ctl.write().mark_disconnected(&id);
                    let now = self.now();
                    self.shadow.mark_disconnected(&id, now);
                }
                Ok(())
            }
            OpKind::Reap => self.exec_reap(i),
            OpKind::Tick => {
                let now = self.now();
                self.ctl
                    .write()
                    .service_scheduler(now)
                    .map(|_| ())
                    .map_err(|e| Violation::new(i, "controller-error", e.to_string()))
            }
            OpKind::Flush => self
                .ctl
                .write()
                .flush_scheduler()
                .map(|_| ())
                .map_err(|e| Violation::new(i, "controller-error", e.to_string())),
            OpKind::Restart if self.durable => Ok(()),
            OpKind::Restart => self.exec_restart(),
            OpKind::NodeLeft { node } => self.exec_node_left(i, *node),
            OpKind::NodeRejoin { node } => self.exec_node_rejoin(i, *node),
        }
    }

    fn exec_start(&mut self, idx: usize) -> Result<(), Violation> {
        let slot = &mut self.slots[idx];
        if slot.client.is_some() {
            return Ok(());
        }
        let transport = ChaosTransport::new(LocalTransport::new(Arc::clone(&self.ctl)));
        let log = transport.log();
        slot.log = Some(log);
        if let Ok(cl) = HarmonyClient::startup(transport, slot.app, UpdateDelivery::Polling) {
            slot.client = Some(cl);
        }
        slot.bundled = false;
        Ok(())
    }

    fn exec_restart(&mut self) -> Result<(), Violation> {
        // Break every live connection the way a dying server would; the
        // clients' next calls walk the reconnect → reattach → fresh
        // startup recovery path against the new controller.
        for slot in &mut self.slots {
            if let Some(cl) = slot.client.as_mut() {
                cl.transport_mut().break_connection();
            }
        }
        let fresh = Self::fresh_controller(&self.config);
        *self.ctl.write() = fresh;
        self.ctl.write().set_time(self.now());
        // All server-side state is gone: shadow sessions, journal cursor,
        // decision bookkeeping, and cluster membership all start over.
        self.shadow.clear();
        self.evicted.clear();
        self.cursor = 0;
        self.decisions_seen = 0;
        fold_str(&mut self.fingerprint, "server-restart");
        Ok(())
    }

    fn exec_node_left(&mut self, i: usize, node: u8) -> Result<(), Violation> {
        let left = node_left(&mut self.ctl.write(), node)
            .map_err(|e| Violation::new(i, "controller-error", e.to_string()))?;
        if let Some(decl) = left {
            self.evicted.insert(decl.name.clone(), decl);
        }
        Ok(())
    }

    fn exec_node_rejoin(&mut self, i: usize, node: u8) -> Result<(), Violation> {
        let Some(decl) = self.evicted.remove(&format!("node{node:02}")) else { return Ok(()) };
        node_rejoin(&mut self.ctl.write(), decl)
            .map_err(|e| Violation::new(i, "controller-error", e.to_string()))
    }

    fn exec_reap(&mut self, i: usize) -> Result<(), Violation> {
        let now = self.now();
        if self.planted == PlantedBug::ReaperSkipsTouchFold {
            // Planted from outside: reload the controller's own image with
            // the unfolded read-path touches dropped, so this reap judges
            // expiry without them. The rebuilt controller counts its
            // decisions from zero.
            let mut ctl = self.ctl.write();
            let mut image = ctl.persisted_state();
            image.touches.clear();
            *ctl = Controller::from_persisted(image).expect("a controller's own image reloads");
            self.decisions_seen = 0;
        }
        let retired_before = self.ctl.read().metrics().counter("controller.ends");
        self.ctl
            .write()
            .reap_expired(now)
            .map_err(|e| Violation::new(i, "controller-error", e.to_string()))?;
        let expected = self.shadow.expected_reap(now);
        let ctl = self.ctl.read();
        oracle::check_reap(ctl.retirements_since(retired_before), &expected, now, i)
    }

    // ------------------------------------------------------------------
    // Per-op bookkeeping and oracles.
    // ------------------------------------------------------------------

    fn post_op(&mut self, i: usize, client: Option<u8>) -> Result<(), Violation> {
        // Ground truth first: fold the op's delivered traffic into the
        // shadow model before comparing anything.
        if let Some(c) = client {
            let records: Vec<CallRecord> = match &self.slots[c as usize].log {
                Some(log) => log.lock().drain(..).collect(),
                None => Vec::new(),
            };
            let now = self.now();
            for rec in records.iter().filter(|rec| rec.delivered) {
                if let Some(id) = self.shadow.observe(&rec.request, rec.response.as_ref(), now) {
                    self.slots[c as usize].instance = Some(id);
                }
            }
        }

        // Journal: contract check, then fold the new entries.
        let (tail, appended) = {
            let ctl = self.ctl.read();
            (ctl.journal_tail(self.cursor, usize::MAX), ctl.journal_seq())
        };
        oracle::check_journal_tail(&tail, self.cursor, appended, i)?;
        for e in &tail.entries {
            fold_entry(&mut self.fingerprint, e);
        }
        self.cursor = tail.next_cursor;
        self.journal_appended = self.journal_appended.max(appended);

        // Decisions: provenance check, then fold.
        {
            let ctl = self.ctl.read();
            let new = ctl.decisions_since(self.decisions_seen);
            oracle::check_provenance(new, appended, i)?;
            for d in new {
                fold_decision(&mut self.fingerprint, d);
            }
            self.decisions_total += new.len();
            self.decisions_seen = ctl.metrics().counter("controller.decisions");
        }

        // Structural invariants.
        oracle::check_capacity(&self.ctl.read(), i)?;
        oracle::check_lease_agreement(&self.ctl.read(), &self.shadow, i)
    }
}
