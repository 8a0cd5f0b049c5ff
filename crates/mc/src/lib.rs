//! Explicit-state bounded model checking for the Harmony controller.
//!
//! Where the harness (`harmony-harness`) samples long *random* schedules,
//! this crate exhaustively enumerates every interleaving of a small scope
//! of the harness's own [`Op`]s — a few clients issuing
//! startup/bundle/poll/heartbeat/metric/end against the *real*
//! [`Controller`], interleaved with lease sweeps, scheduler ticks and
//! membership churn — plus two clock moves of its own, to a configurable
//! depth. Exploration is a DFS over *canonicalized* states: each reached
//! controller image is serialized to its [`PersistedState`] canonical
//! JSON and FNV-1a fingerprinted, so states reached by different op
//! orders dedup into one node and the checker explores the state
//! *graph*, not the execution tree.
//!
//! Three things distinguish this from a plain tree walk:
//!
//! - **Partial-order reduction.** The clock only moves on explicit
//!   `Advance`/`Jump` moves, so all ops at one state execute at the same
//!   timestamp — which makes read-only ops (heartbeats, polls that find
//!   nothing pending) commute *exactly*, bit-for-bit. A sleep-set rule
//!   skips the redundant orders.
//! - **Crash-point enumeration.** With crashes enabled, every transition
//!   appends its WAL records to the path's byte stream, and the checker
//!   truncates that stream at every record boundary (plus a torn
//!   mid-record cut), replays the prefix onto a genesis controller, and
//!   checks the recovered image: full-stream recovery must equal the
//!   in-memory state, boundary cuts must decode clean and recover
//!   internally consistent states, and torn tails must recover exactly
//!   the last complete record's state.
//! - **Harness-replayable counterexamples.** A violating path is already
//!   a harness schedule (clock moves fold into `at_ms`). It is confirmed
//!   and shrunk by the harness's one shrinker
//!   ([`harmony_harness::shrink`]) against the full stack, or against
//!   this crate's engine for crash-only bugs the harness cannot observe,
//!   and is saved as the same `harness-seed-*.json` artifact
//!   `harness replay` consumes.
//!
//! The oracles, the lease shadow and its one transition per request
//! ([`harmony_harness::ShadowLeases::observe`]) and the membership
//! transitions ([`harmony_harness::world`]) are the harness's own: both
//! checkers enforce the identical contract, one by sampling, one by
//! exhaustion.
//!
//! [`Controller`]: harmony_core::Controller
//! [`PersistedState`]: harmony_core::PersistedState
//! [`Op`]: harmony_harness::Op

#![warn(missing_docs)]

pub mod counterexample;
pub mod engine;
pub mod explore;

use harmony_harness::{OpKind, PlantedBug};

pub use counterexample::{process, Processed};
pub use engine::{CrashCtx, Engine, Node, RunOutcome, Slot};
pub use explore::{explore, Counterexample, Exploration, Stats};

/// Milliseconds one `Advance` move moves the virtual clock. Small enough
/// that several ops fit inside a heartbeat interval, large enough that
/// bounded paths reach lease-relevant times.
pub const STEP_MS: u64 = 500;

/// Milliseconds one `Jump` move moves the virtual clock: chosen so that
/// a jump taken shortly after a touch lands *between* a session's stored
/// deadline and its touch-extended effective deadline (lease duration is
/// 30 s, so `Start@t`, `Advance`, `Heartbeat`, `Jump` reaches
/// `t + 30.3 s` — past the stored `t + 30` but inside the effective
/// `t + 30.5`), and two jumps legitimately out-live any lease.
pub const JUMP_MS: u64 = 29_800;

/// The `response_time` sample every explored `Metric` op reports,
/// milliseconds (the controller records `millis / 1000`).
pub const METRIC_MS: u32 = 250;

/// Index (into the `sp2_cluster` declaration order) of the node the
/// explored membership ops remove and re-add.
pub const LEAVE_NODE: u8 = 7;

/// One transition of the state graph. The checker's own alphabet is only
/// the two clock moves; every other transition is a harness [`OpKind`],
/// executed at the current clock through the wire server's dispatch, as
/// the harness executes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Move {
    /// Clock +[`STEP_MS`].
    Advance,
    /// Clock +[`JUMP_MS`] (bounded per path by [`Scope::max_jumps`]).
    Jump,
    /// A harness op at the current clock.
    Op(OpKind),
}

impl Move {
    /// The clock (ms) after this move from `at_ms`.
    pub fn time(&self, at_ms: u64) -> u64 {
        match self {
            Move::Advance => at_ms + STEP_MS,
            Move::Jump => at_ms + JUMP_MS,
            Move::Op(_) => at_ms,
        }
    }

    /// The harness op this move executes (`None` for a clock move).
    pub fn op(&self) -> Option<&OpKind> {
        match self {
            Move::Op(kind) => Some(kind),
            Move::Advance | Move::Jump => None,
        }
    }
}

/// What to check: the op scope, the exploration bound, and the faults
/// to plant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scope {
    /// Client slots in play (1..=3; slot palettes follow
    /// [`harmony_harness::palette`]).
    pub clients: u8,
    /// Maximum moves per path.
    pub depth: usize,
    /// Seed: derives the controller configuration
    /// ([`harmony_harness::config_for_seed`]) and names the artifact, so
    /// a counterexample replays under the identical configuration.
    pub seed: u64,
    /// Maximum `Jump` moves per path (each is a 29.8 s clock leap; two
    /// exceed any lease).
    pub max_jumps: u8,
    /// Enumerate crash points: log every transition's WAL records and
    /// check recovery at every record-boundary and torn-tail truncation.
    pub crashes: bool,
    /// Harness-visible planted bug (the oracles must catch it).
    pub planted: PlantedBug,
    /// Crash-only planted bug: one kind of command (a
    /// [`WalEvent::VARIANTS`](harmony_core::WalEvent::VARIANTS) name —
    /// `"renew"` for `renew-skips-wal`, `"touch"` for `touch-skips-wal`)
    /// is applied but never WAL-logged: the engine drops each step's
    /// records of that kind from the captured stream. Invisible to every
    /// in-memory oracle — only the crash-point recovery comparison can
    /// catch it (with [`Scope::crashes`] on).
    pub unlogged: Option<&'static str>,
}

impl Default for Scope {
    fn default() -> Self {
        Scope {
            clients: 2,
            depth: 6,
            seed: 3,
            max_jumps: 2,
            crashes: false,
            planted: PlantedBug::None,
            unlogged: None,
        }
    }
}
