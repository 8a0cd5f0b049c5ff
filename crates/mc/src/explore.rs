//! Depth-bounded DFS over the canonical state graph, with sleep-set
//! partial-order reduction for read-only ops.
//!
//! States dedup on [`Node::fingerprint`]; a fingerprint revisited at a
//! strictly shallower depth is re-expanded (the shallower visit has more
//! remaining budget, so deeper successors may exist), which keeps the
//! bounded search exhaustive. The reduction is the classic sleep-set
//! rule restricted to ops that provably commute here: because only the
//! two clock moves move the clock, a heartbeat and an empty poll at the
//! same state execute at the same timestamp, so either order produces
//! the bit-identical state — exploring one order suffices.

use std::collections::HashMap;

use harmony_harness::{Op, OpKind, Violation};

use crate::engine::{CrashCtx, Engine, Node};
use crate::{Move, Scope, LEAVE_NODE, METRIC_MS};

/// Exploration counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Distinct canonical states discovered (including genesis).
    pub distinct_states: usize,
    /// Transitions executed (each runs the full oracle battery).
    pub transitions: u64,
    /// Transitions skipped by the sleep-set rule.
    pub por_skips: u64,
    /// Transitions that landed on an already-known fingerprint.
    pub revisits: u64,
    /// States first discovered at each depth (`per_depth[0]` = genesis).
    pub per_depth: Vec<usize>,
    /// Crash cuts checked (boundary and torn).
    pub crash_cuts: u64,
}

/// A violating path, as the harness schedule it already is.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violation the path triggers.
    pub violation: Violation,
    /// The path's ops (clock moves folded into `at_ms`).
    pub ops: Vec<Op>,
}

/// What an exploration found.
#[derive(Debug)]
pub struct Exploration {
    /// The counters.
    pub stats: Stats,
    /// The first violating path, if any (exploration stops at it).
    pub counterexample: Option<Counterexample>,
}

/// Exhaustively explores the scope to its depth bound.
pub fn explore(scope: &Scope) -> Exploration {
    let engine = Engine::new(*scope);
    let mut ex = Explorer {
        engine,
        scope: *scope,
        visited: HashMap::new(),
        stats: Stats { per_depth: vec![0; scope.depth + 1], ..Stats::default() },
        path_ops: Vec::new(),
        ctx: scope.crashes.then(CrashCtx::default),
    };
    let genesis = ex.engine.genesis(ex.ctx.as_mut());
    ex.visited.insert(genesis.fingerprint, 0);
    ex.stats.distinct_states = 1;
    ex.stats.per_depth[0] = 1;
    let counterexample = ex.dfs(&genesis, 0, 0, None).err().map(|b| *b);
    if let Some(ctx) = &ex.ctx {
        ex.stats.crash_cuts = ctx.cuts;
    }
    Exploration { stats: ex.stats, counterexample }
}

struct Explorer {
    engine: Engine,
    scope: Scope,
    /// fingerprint -> shallowest depth seen.
    visited: HashMap<u64, usize>,
    stats: Stats,
    path_ops: Vec<Op>,
    ctx: Option<CrashCtx>,
}

impl Explorer {
    /// Expands `node`, reached at `depth` with `jumps` spent; `incoming`
    /// is the sleep-set rank of the move that reached it, if read-only.
    fn dfs(
        &mut self,
        node: &Node,
        depth: usize,
        jumps: u8,
        incoming: Option<u32>,
    ) -> Result<(), Box<Counterexample>> {
        if depth >= self.scope.depth {
            return Ok(());
        }
        for mv in enabled_moves(node, jumps, &self.scope, self.engine.tick_enabled()) {
            let rank = read_only_rank(&mv, node);
            if let (Some(in_rank), Some(rank)) = (incoming, rank) {
                // Sleep set: the incoming read-only op u commutes with
                // every read-only op v ranked below it, and the v-then-u
                // order was (or will be) explored from the shared parent.
                if rank < in_rank {
                    self.stats.por_skips += 1;
                    continue;
                }
            }
            self.stats.transitions += 1;
            let at_ms = mv.time(node.at_ms);
            let step_index = self.path_ops.len();
            let mark = self.ctx.as_ref().map(CrashCtx::mark);
            if let Some(kind) = mv.op() {
                self.path_ops.push(Op { at_ms, kind: kind.clone() });
            }
            let child = match self.engine.step(node, at_ms, mv.op(), step_index, self.ctx.as_mut())
            {
                Ok(child) => child,
                Err(violation) => {
                    return Err(Box::new(Counterexample { violation, ops: self.path_ops.clone() }));
                }
            };
            let child_depth = depth + 1;
            let expand = match self.visited.get(&child.fingerprint) {
                None => {
                    self.visited.insert(child.fingerprint, child_depth);
                    self.stats.distinct_states += 1;
                    self.stats.per_depth[child_depth] += 1;
                    true
                }
                Some(&seen) => {
                    self.stats.revisits += 1;
                    if child_depth < seen {
                        self.visited.insert(child.fingerprint, child_depth);
                        true
                    } else {
                        false
                    }
                }
            };
            if expand {
                let child_jumps = jumps + u8::from(mv == Move::Jump);
                self.dfs(&child, child_depth, child_jumps, rank)?;
            }
            if mv.op().is_some() {
                self.path_ops.pop();
            }
            if let (Some(ctx), Some(mark)) = (self.ctx.as_mut(), mark) {
                ctx.rewind(mark);
            }
        }
        Ok(())
    }
}

/// The moves enabled at a node, in a fixed deterministic order. Only ops
/// that can do something are generated (a `Start` on a live slot would
/// be a no-op transition straight back to the same fingerprint).
fn enabled_moves(node: &Node, jumps: u8, scope: &Scope, tick: bool) -> Vec<Move> {
    let mut kinds = Vec::new();
    for client in 0..scope.clients {
        if node.slots[usize::from(client)].instance.is_none() {
            kinds.push(OpKind::Start { client });
            continue;
        }
        if !node.slots[usize::from(client)].bundled {
            kinds.push(OpKind::AddBundle { client });
        }
        kinds.extend([
            OpKind::Poll { client },
            OpKind::Heartbeat { client },
            OpKind::Metric { client, millis: METRIC_MS },
            OpKind::End { client },
        ]);
    }
    kinds.push(OpKind::Reap);
    if tick {
        kinds.push(OpKind::Tick);
    }
    kinds.push(if node.state.cluster.node(&format!("node{LEAVE_NODE:02}")).is_some() {
        OpKind::NodeLeft { node: LEAVE_NODE }
    } else {
        OpKind::NodeRejoin { node: LEAVE_NODE }
    });

    let mut moves = vec![Move::Advance];
    if jumps < scope.max_jumps {
        moves.push(Move::Jump);
    }
    moves.extend(kinds.into_iter().map(Move::Op));
    moves
}

/// The sleep-set rank of a move that is read-only at this node — one that
/// commutes bit-for-bit with every other read-only move executed at the
/// same clock — or `None`. Read-only are heartbeats (an idempotent
/// `fetch_max` touch) and polls whose instance has nothing pending (the
/// same touch, an empty drain). Polls rank below heartbeats, each by
/// client.
fn read_only_rank(mv: &Move, node: &Node) -> Option<u32> {
    match mv.op()? {
        OpKind::Heartbeat { client } => Some(40 + u32::from(*client)),
        OpKind::Poll { client } => {
            let pending = node.slots[usize::from(*client)].instance.as_ref().is_some_and(|id| {
                node.state.pending_vars.iter().any(|(pid, vars)| pid == id && !vars.is_empty())
            });
            (!pending).then_some(30 + u32::from(*client))
        }
        _ => None,
    }
}
