//! Explicit-state bounded model checking for the Harmony controller.
//!
//! Where the harness (`harmony-harness`) samples long *random* schedules,
//! this crate exhaustively enumerates every interleaving of a small verb
//! scope — a few clients issuing startup/bundle/poll/heartbeat/metric/end
//! against the *real* [`Controller`], interleaved with lease sweeps,
//! scheduler ticks, membership churn, and explicit clock steps — to a
//! configurable depth. Exploration is a DFS over *canonicalized* states:
//! each reached controller image is serialized to its
//! [`PersistedState`] canonical JSON and FNV-1a fingerprinted, so states
//! reached by different verb orders dedup into one node and the checker
//! explores the state *graph*, not the execution tree.
//!
//! Three things distinguish this from a plain tree walk:
//!
//! - **Partial-order reduction.** The clock only moves on explicit
//!   `Advance`/`Jump` verbs, so all other verbs at one state execute at
//!   the same timestamp — which makes read-only verbs (heartbeats, polls
//!   that find nothing pending) commute *exactly*, bit-for-bit. A
//!   sleep-set rule skips the redundant orders.
//! - **Crash-point enumeration.** With crashes enabled, every transition
//!   appends its WAL records to the path's byte stream, and the checker
//!   truncates that stream at every record boundary (plus a torn
//!   mid-record cut), replays the prefix onto a genesis controller, and
//!   checks the recovered image: full-stream recovery must equal the
//!   in-memory state, boundary cuts must decode clean and recover
//!   internally consistent states, and torn tails must recover exactly
//!   the last complete record's state.
//! - **Harness-replayable counterexamples.** A violating verb path maps
//!   onto the harness's [`Op`] schema, is confirmed and ddmin-shrunk by
//!   the harness (or by an MC-local ddmin for crash-only bugs the
//!   harness cannot observe), and is saved as the same
//!   `harness-seed-*.json` artifact `harness replay` consumes.
//!
//! The oracles are the harness's own ([`harmony_harness::oracle`],
//! [`harmony_harness::ShadowLeases`]): both checkers enforce the
//! identical contract, one by sampling, one by exhaustion.
//!
//! [`Controller`]: harmony_core::Controller
//! [`PersistedState`]: harmony_core::PersistedState
//! [`Op`]: harmony_harness::Op

#![warn(missing_docs)]

pub mod counterexample;
pub mod engine;
pub mod explore;

use harmony_harness::PlantedBug;

pub use counterexample::{process, Processed};
pub use engine::{CrashCtx, Engine, Node, RunOutcome, Slot};
pub use explore::{explore, Counterexample, Exploration, Stats};

/// Milliseconds one `Advance` verb moves the virtual clock. Small enough
/// that several verbs fit inside a heartbeat interval, large enough that
/// bounded paths reach lease-relevant times.
pub const STEP_MS: u64 = 500;

/// Milliseconds one `Jump` verb moves the virtual clock: chosen so that
/// a jump taken shortly after a touch lands *between* a session's stored
/// deadline and its touch-extended effective deadline (lease duration is
/// 30 s, so `Start@t`, `Advance`, `Heartbeat`, `Jump` reaches
/// `t + 30.3 s` — past the stored `t + 30` but inside the effective
/// `t + 30.5`), and two jumps legitimately out-live any lease.
pub const JUMP_MS: u64 = 29_800;

/// The `response_time` sample every `Metric` verb reports, milliseconds
/// (the harness op carries it; the controller records `millis / 1000`).
pub const METRIC_MS: u32 = 250;

/// Index (into the `sp2_cluster` declaration order) of the node the
/// membership verbs remove and re-add.
pub const LEAVE_NODE: u8 = 7;

/// The verb alphabet. `Advance`/`Jump` move only the clock; every other
/// verb executes at the current clock, mirroring the wire server's
/// dispatch for that request verb exactly (renewal ordering included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Verb {
    /// Clock +[`STEP_MS`].
    Advance,
    /// Clock +[`JUMP_MS`] (bounded per path by [`Scope::max_jumps`]).
    Jump,
    /// `harmony_startup` on a dead slot.
    Start(u8),
    /// `harmony_bundle_setup` of the slot's palette script (renews the
    /// lease first, like the server).
    AddBundle(u8),
    /// A poll: read-path touch, then drain pending variable updates.
    Poll(u8),
    /// A heartbeat: read-path touch only.
    Heartbeat(u8),
    /// A `response_time` metric report: touch, then record.
    Metric(u8),
    /// Clean shutdown of a live slot.
    End(u8),
    /// A lease-reaper sweep, checked against the shadow lease model.
    Reap,
    /// A coalescing-scheduler heartbeat (only under a coalescing
    /// configuration).
    Tick,
    /// Node `node07` leaves the cluster.
    NodeLeft,
    /// Node `node07` rejoins with its original declaration.
    NodeRejoin,
}

impl Verb {
    /// Stable ordinal used by the sleep-set rule (and for readable,
    /// deterministic expansion order).
    pub fn ord(self) -> u32 {
        match self {
            Verb::Advance => 0,
            Verb::Jump => 1,
            Verb::Start(c) => 10 + u32::from(c),
            Verb::AddBundle(c) => 20 + u32::from(c),
            Verb::Poll(c) => 30 + u32::from(c),
            Verb::Heartbeat(c) => 40 + u32::from(c),
            Verb::Metric(c) => 50 + u32::from(c),
            Verb::End(c) => 60 + u32::from(c),
            Verb::Reap => 70,
            Verb::Tick => 71,
            Verb::NodeLeft => 72,
            Verb::NodeRejoin => 73,
        }
    }
}

impl std::fmt::Display for Verb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verb::Advance => write!(f, "advance"),
            Verb::Jump => write!(f, "jump"),
            Verb::Start(c) => write!(f, "start({c})"),
            Verb::AddBundle(c) => write!(f, "bundle({c})"),
            Verb::Poll(c) => write!(f, "poll({c})"),
            Verb::Heartbeat(c) => write!(f, "heartbeat({c})"),
            Verb::Metric(c) => write!(f, "metric({c})"),
            Verb::End(c) => write!(f, "end({c})"),
            Verb::Reap => write!(f, "reap"),
            Verb::Tick => write!(f, "tick"),
            Verb::NodeLeft => write!(f, "node-left"),
            Verb::NodeRejoin => write!(f, "node-rejoin"),
        }
    }
}

/// What to check: the verb scope, the exploration bound, and the faults
/// to plant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scope {
    /// Client slots in play (1..=3; slot palettes follow
    /// [`harmony_harness::palette`]).
    pub clients: u8,
    /// Maximum verbs per path.
    pub depth: usize,
    /// Seed: derives the controller configuration
    /// ([`harmony_harness::config_for_seed`]) and names the artifact, so
    /// a counterexample replays under the identical configuration.
    pub seed: u64,
    /// Maximum `Jump` verbs per path (each is a 29.8 s clock leap; two
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
