//! The transition engine: executes one move against a real controller
//! rebuilt from a canonical state, runs the shared oracles, and (with
//! crashes enabled) enumerates crash points over the path's WAL stream.
//!
//! Every transition is hermetic: the parent's [`PersistedState`] is
//! rehydrated through [`Controller::from_persisted`] — the same code
//! path crash recovery uses — client ops go through
//! [`harmony_proto::handle_request`], the wire server's own dispatch, and
//! the child is canonicalized back out.
//! The controller never survives between transitions, so exploration
//! order cannot leak state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use harmony_core::{Controller, ControllerConfig, InstanceId, PersistedState, WalEvent};
use harmony_harness::world::{node_left, node_rejoin};
use harmony_harness::{config_for_seed, oracle, palette, Op, OpKind, PlantedBug};
use harmony_harness::{ShadowLeases, Violation};
use harmony_proto::{handle_request, Request, Response};
use harmony_resources::Cluster;
use harmony_wal::{
    decode_records, encode_record, record_boundaries, WalConfig, WalTail, WalWriter,
};
use parking_lot::RwLock;

use crate::Scope;

/// One client slot's view: the registered instance (if live) and whether
/// its bundle is up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slot {
    /// The live registration, if any.
    pub instance: Option<InstanceId>,
    /// Whether the palette bundle was accepted.
    pub bundled: bool,
}

/// One canonical node of the state graph: the controller image plus the
/// path bookkeeping the oracles need. Everything here is a function of
/// the controller state (slot liveness and bundles are recoverable from
/// the session table and app registry; the cursor equals the drained
/// journal seq), so deduplicating on [`Node::fingerprint`] is sound.
#[derive(Debug, Clone)]
pub struct Node {
    /// The canonical controller image.
    pub state: PersistedState,
    /// The shadow lease model, advanced request-for-request.
    pub shadow: ShadowLeases,
    /// Client slots (length = [`Scope::clients`]).
    pub slots: Vec<Slot>,
    /// Virtual clock, milliseconds.
    pub at_ms: u64,
    /// Journal tail cursor (the oracle drains after every move).
    pub cursor: u64,
    /// [`PersistedState::canonical_fingerprint`] of `state` — the
    /// visited-set key.
    pub fingerprint: u64,
}

/// The accumulated WAL byte stream of the current path, plus the
/// recovery fingerprint after each move prefix (`prefix_fps[d]` = state
/// after `d` moves). The explorer truncates both when backtracking.
#[derive(Debug, Default)]
pub struct CrashCtx {
    /// Concatenated WAL records of every move on the current path.
    pub bytes: Vec<u8>,
    /// [`PersistedState::recovery_fingerprint`] after each move prefix.
    pub prefix_fps: Vec<u64>,
    /// Crash cuts checked so far (for stats).
    pub cuts: u64,
}

impl CrashCtx {
    /// A savepoint to [`CrashCtx::rewind`] to when backtracking.
    pub fn mark(&self) -> (usize, usize) {
        (self.bytes.len(), self.prefix_fps.len())
    }

    /// Rewinds to a savepoint (cut counts are cumulative and stay).
    pub fn rewind(&mut self, mark: (usize, usize)) {
        self.bytes.truncate(mark.0);
        self.prefix_fps.truncate(mark.1);
    }
}

/// The outcome of replaying a fixed op sequence through the engine (used
/// by `harmony-mc replay` and, as the failure predicate, by the shrinker
/// for crash-only counterexamples).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The first violation, if any.
    pub violation: Option<Violation>,
    /// Canonical fingerprint of the final state reached.
    pub final_fingerprint: u64,
    /// Ops executed (stops at the violation).
    pub executed: usize,
}

static WAL_SCRATCH: AtomicU64 = AtomicU64::new(0);

struct WalCapture {
    writer: Arc<WalWriter>,
    path: PathBuf,
    dir: PathBuf,
}

/// The transition engine for one [`Scope`].
pub struct Engine {
    scope: Scope,
    config: ControllerConfig,
    cluster: Cluster,
    wal: Option<WalCapture>,
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(w) = &self.wal {
            let _ = std::fs::remove_dir_all(&w.dir);
        }
    }
}

impl Engine {
    /// Builds the engine: parses the genesis cluster, derives the
    /// configuration from the scope's seed, and (with crashes on) opens
    /// the scratch WAL the transitions log through.
    pub fn new(scope: Scope) -> Engine {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(usize::from(
            harmony_harness::schedule::NODE_COUNT,
        )))
        .expect("sp2 cluster parses");
        let config = config_for_seed(scope.seed);
        let wal = scope.crashes.then(|| {
            let dir = std::env::temp_dir().join(format!(
                "harmony-mc-{}-{}",
                std::process::id(),
                WAL_SCRATCH.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("create mc wal scratch dir");
            let path = dir.join("mc.wal");
            let writer = Arc::new(
                WalWriter::create(&path, WalConfig::default()).expect("create mc scratch wal"),
            );
            WalCapture { writer, path, dir }
        });
        Engine { scope, config, cluster, wal }
    }

    /// The scope this engine checks.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Whether the configuration coalesces re-evaluations (gates the
    /// `Tick` op: without coalescing a tick never fires).
    pub fn tick_enabled(&self) -> bool {
        self.config.coalesce.window > 0.0
    }

    /// A fresh genesis controller (no WAL).
    pub fn genesis_controller(&self) -> Controller {
        Controller::new(self.cluster.clone(), self.config.clone())
    }

    /// The root node, and (if a crash context is given) its baseline
    /// recovery fingerprint.
    pub fn genesis(&self, ctx: Option<&mut CrashCtx>) -> Node {
        let ctl = self.genesis_controller();
        let state = ctl.persisted_state();
        let fingerprint = state.canonical_fingerprint();
        if let Some(ctx) = ctx {
            ctx.prefix_fps.push(state.recovery_fingerprint());
        }
        Node {
            state,
            shadow: ShadowLeases::new(self.config.lease),
            slots: vec![Slot::default(); usize::from(self.scope.clients)],
            at_ms: 0,
            cursor: 0,
            fingerprint,
        }
    }

    /// Executes one move at `at_ms`: `kind` is the harness op to run
    /// there, `None` for a clock move. Rebuilds the controller from the
    /// parent image, sends client ops through the wire server's dispatch
    /// and feeds each request and reply to the shadow model, runs system
    /// ops through the controller as the harness does, runs every oracle,
    /// and canonicalizes the child. With a crash context, the move's WAL
    /// records are captured and every cut is checked.
    ///
    /// # Errors
    ///
    /// The first [`Violation`] any oracle (or crash cut) reports.
    pub fn step(
        &self,
        parent: &Node,
        at_ms: u64,
        kind: Option<&OpKind>,
        step_index: usize,
        crash: Option<&mut CrashCtx>,
    ) -> Result<Node, Violation> {
        let mut image = parent.state.clone();
        if kind == Some(&OpKind::Reap) && self.scope.planted == PlantedBug::ReaperSkipsTouchFold {
            // The planted reaper, as the harness plants it: the image
            // reloads without its unfolded read-path touches.
            image.touches.clear();
        }
        let mut ctl = Controller::from_persisted(image)
            .map_err(|e| Violation::new(step_index, "rehydrate", e.to_string()))?;
        if let Some(w) = &self.wal {
            w.writer.rotate(&w.path).expect("rotate mc scratch wal");
            ctl.attach_wal(Arc::clone(&w.writer));
        }

        let now = at_ms as f64 / 1000.0;
        ctl.set_time(now);
        let mut shadow = parent.shadow.clone();
        let mut slots = parent.slots.clone();

        // Dispatch. Ops addressing a slot in the wrong liveness state are
        // no-ops, exactly as in the harness — the property that keeps
        // every subsequence of a counterexample replayable.
        let shared = Arc::new(RwLock::new(ctl));
        match kind {
            None => {}
            Some(OpKind::Reap) => {
                let _ = shared.write().reap_expired(now);
                let expected = shadow.expected_reap(now);
                // The image holds no history: every retirement is this step's.
                oracle::check_reap(shared.read().retirements(), &expected, now, step_index)?;
            }
            // The shim builds a `Tick` command only when the window is due.
            Some(OpKind::Tick) => {
                let _ = shared.write().service_scheduler(now);
            }
            Some(OpKind::NodeLeft { node }) => {
                let _ = node_left(&mut shared.write(), *node);
            }
            Some(OpKind::NodeRejoin { node }) => {
                let name = format!("node{node:02}");
                let absent = shared.read().cluster().node(&name).is_none();
                if let Some(genesis) = self.cluster.node(&name).filter(|_| absent) {
                    let _ = node_rejoin(&mut shared.write(), genesis.decl.clone());
                }
            }
            // Client ops, and those outside the scope (see `in_scope`),
            // which send nothing.
            Some(kind) => {
                if let Some((c, req)) = request_for(kind, &slots, now) {
                    let slot = &mut slots[c];
                    let resp = handle_request(&shared, &req);
                    let registered = shadow.observe(&req, Some(&resp), now);
                    match kind {
                        OpKind::Start { .. } => {
                            if let Some(id) = registered {
                                *slot = Slot { instance: Some(id), bundled: false };
                            }
                        }
                        OpKind::AddBundle { .. } => slot.bundled = resp == Response::Ok,
                        OpKind::End { .. } => *slot = Slot::default(),
                        _ => {}
                    }
                }
            }
        }
        let ctl = Arc::into_inner(shared).expect("the step owns the controller").into_inner();

        // The shared oracles, identical to the harness's per-op pass.
        let tail = ctl.journal_tail(parent.cursor, usize::MAX);
        oracle::check_journal_tail(&tail, parent.cursor, ctl.journal_seq(), step_index)?;
        let cursor = tail.next_cursor;
        oracle::check_provenance(ctl.decisions(), ctl.journal_seq(), step_index)?;
        oracle::check_capacity(&ctl, step_index)?;
        oracle::check_lease_agreement(&ctl, &shadow, step_index)?;

        let state = ctl.persisted_state();
        let fingerprint = state.canonical_fingerprint();
        let node = Node { state, shadow, slots, at_ms, cursor, fingerprint };

        if let Some(ctx) = crash {
            let w = self.wal.as_ref().expect("crash context requires a crash-enabled engine");
            drop(ctl); // release the writer before reading the chunk
            w.writer.sync().expect("sync mc scratch wal");
            let mut chunk = std::fs::read(&w.path).expect("read mc scratch wal");
            if let Some(variant) = self.scope.unlogged {
                chunk = without(&chunk, variant);
            }
            self.crash_check(ctx, &chunk, &node, step_index)?;
        }
        Ok(node)
    }

    /// Checks every crash cut the verb introduced. The path stream grows
    /// by `chunk`; for the prefix ending at each *new* record boundary,
    /// the truncated stream must decode clean and replay (through
    /// [`Controller::apply_wal_event`], the recovery path) to a state
    /// that is internally consistent; the full stream must replay to
    /// exactly the in-memory state (`recovery_fingerprint` equality —
    /// this is what catches a verb mutating state it never logged); and
    /// a torn cut through the last record must be classified torn and
    /// recover exactly the last complete record's state.
    fn crash_check(
        &self,
        ctx: &mut CrashCtx,
        chunk: &[u8],
        child: &Node,
        step_index: usize,
    ) -> Result<(), Violation> {
        let crash = |detail: String| Violation::new(step_index, "crash", detail);
        let prev_len = ctx.bytes.len();
        ctx.bytes.extend_from_slice(chunk);
        let prev_fp = *ctx.prefix_fps.last().expect("crash context is seeded at genesis");
        let child_fp = child.state.recovery_fingerprint();

        if chunk.is_empty() {
            // Nothing was logged, so recovery lands on the previous
            // prefix state: the verb must not have changed durable state.
            if child_fp != prev_fp {
                return Err(crash(format!(
                    "verb logged nothing but changed durable state \
                     (recovered {prev_fp:016x} != live {child_fp:016x})"
                )));
            }
            ctx.prefix_fps.push(child_fp);
            return Ok(());
        }

        let bounds = record_boundaries(chunk);
        if *bounds.last().expect("boundaries start at 0") != chunk.len() as u64 {
            return Err(crash(format!(
                "writer emitted a damaged chunk: valid boundaries end at {} of {} bytes",
                bounds.last().expect("nonempty"),
                chunk.len()
            )));
        }

        // Every new record boundary is a crash point.
        let mut bound_fps = vec![prev_fp];
        for &b in &bounds[1..] {
            let cut = prev_len + b as usize;
            ctx.cuts += 1;
            let (ctl, tail) = self.replay(&ctx.bytes[..cut], step_index)?;
            if tail != WalTail::Clean {
                return Err(crash(format!(
                    "cut at record boundary {cut} decoded as {tail:?}, not clean"
                )));
            }
            let fp = ctl.persisted_state().recovery_fingerprint();
            if cut == ctx.bytes.len() {
                if fp != child_fp {
                    return Err(crash(format!(
                        "full-stream recovery diverges from the live state \
                         (recovered {fp:016x} != live {child_fp:016x}) — \
                         some applied mutation was never logged"
                    )));
                }
            } else {
                // A mid-verb cut recovers a state between sub-verbs; it
                // must still be internally consistent.
                oracle::check_capacity(&ctl, step_index)
                    .map_err(|v| crash(format!("recovered state at cut {cut}: {v}")))?;
            }
            bound_fps.push(fp);
        }

        // One torn cut through the final record: recovery must classify
        // the tail as torn and land exactly on the last boundary state.
        let final_start = prev_len + bounds[bounds.len() - 2] as usize;
        let mid = final_start + (ctx.bytes.len() - final_start) / 2;
        ctx.cuts += 1;
        let (ctl, tail) = self.replay(&ctx.bytes[..mid], step_index)?;
        match tail {
            WalTail::Torn { offset } if offset as usize == final_start => {}
            other => {
                return Err(crash(format!(
                    "torn cut at {mid} classified as {other:?}, expected torn at {final_start}"
                )));
            }
        }
        let fp = ctl.persisted_state().recovery_fingerprint();
        let expect = bound_fps[bound_fps.len() - 2];
        if fp != expect {
            return Err(crash(format!(
                "torn-tail recovery at {mid} reached {fp:016x}, expected the \
                 last complete record's state {expect:016x}"
            )));
        }

        ctx.prefix_fps.push(child_fp);
        Ok(())
    }

    /// Decodes a truncated WAL image and replays it onto a genesis
    /// controller — the recovery path, minus the snapshot (the MC never
    /// checkpoints, so recovery is pure replay).
    fn replay(&self, bytes: &[u8], step_index: usize) -> Result<(Controller, WalTail), Violation> {
        let read = decode_records(bytes);
        if let WalTail::Corrupted { record, offset } = read.tail {
            return Err(Violation::new(
                step_index,
                "crash",
                format!("truncated stream decodes as corrupted (record {record} at {offset})"),
            ));
        }
        let mut ctl = self.genesis_controller();
        for r in &read.records {
            let ev = parse_record(r).map_err(|e| Violation::new(step_index, "crash", e))?;
            ctl.apply_wal_event(ev);
        }
        Ok((ctl, read.tail))
    }

    /// Replays a fixed op sequence (a counterexample or a shrinker
    /// candidate) from genesis, with the same per-step oracles and crash
    /// cuts exploration uses. Ops outside the MC's scope are skipped.
    pub fn run_ops(&self, ops: &[Op]) -> RunOutcome {
        let mut ctx = self.scope.crashes.then(CrashCtx::default);
        let mut node = self.genesis(ctx.as_mut());
        let mut executed = 0;
        for (i, op) in ops.iter().enumerate().filter(|(_, op)| in_scope(&op.kind)) {
            match self.step(&node, op.at_ms, Some(&op.kind), i, ctx.as_mut()) {
                Ok(next) => node = next,
                Err(v) => {
                    return RunOutcome {
                        violation: Some(v),
                        final_fingerprint: node.fingerprint,
                        executed,
                    };
                }
            }
            executed += 1;
        }
        RunOutcome { violation: None, final_fingerprint: node.fingerprint, executed }
    }
}

/// Whether the MC models an op kind. Transport faults, client crashes,
/// disconnect marks, flushes and restarts are the harness's alone.
fn in_scope(kind: &OpKind) -> bool {
    !matches!(
        kind,
        OpKind::FaultedPoll { .. }
            | OpKind::Crash { .. }
            | OpKind::MarkDisconnected { .. }
            | OpKind::Flush
            | OpKind::Restart
    )
}

/// The slot a client op addresses and the request it sends from there:
/// the MC's one op-to-request path. `None` when the op is not a client
/// op, or its slot is in the wrong liveness state for it, which makes
/// the op a no-op.
fn request_for(kind: &OpKind, slots: &[Slot], now: f64) -> Option<(usize, Request)> {
    let c = usize::from(kind.client()?);
    let slot = &slots[c];
    let Some(id) = &slot.instance else {
        return match kind {
            OpKind::Start { .. } => Some((c, Request::Startup { app: palette(c).0.to_string() })),
            _ => None,
        };
    };
    let app = id.app.clone();
    let req = match *kind {
        OpKind::AddBundle { .. } if !slot.bundled => {
            Request::Bundle { app, id: id.id, script: palette(c).1.to_string() }
        }
        OpKind::Poll { .. } => Request::Poll { app, id: id.id },
        OpKind::Heartbeat { .. } => Request::Heartbeat { app, id: id.id },
        OpKind::Metric { millis, .. } => Request::Metric {
            name: format!("{id}.response_time"),
            time: now,
            value: f64::from(millis) / 1000.0,
        },
        OpKind::End { .. } => Request::End { app, id: id.id },
        _ => return None,
    };
    Some((c, req))
}

fn parse_record(payload: &[u8]) -> Result<WalEvent, String> {
    WalEvent::decode(payload).map_err(|e| e.to_string())
}

/// A planted `<verb>-skips-wal` bug as recovery sees it: the step's WAL
/// chunk minus its records of one variant — applied but never logged.
fn without(chunk: &[u8], variant: &str) -> Vec<u8> {
    let mut kept = Vec::new();
    for payload in decode_records(chunk).records {
        if !parse_record(&payload).is_ok_and(|ev| ev.variant() == variant) {
            encode_record(&payload, &mut kept);
        }
    }
    kept
}
