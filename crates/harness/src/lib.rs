//! Deterministic whole-stack simulation harness.
//!
//! The harness runs the entire Harmony stack — a real [`Controller`]
//! behind the production [`SharedController`] handle, real clients, the
//! real wire protocol over an in-process transport — on a virtual clock,
//! driven by seeded schedules of client traffic, fault injections, lease
//! sweeps, server restarts, and cluster membership churn. After every
//! step a set of oracles re-derives the system's invariants from first
//! principles and compares them with the controller's own bookkeeping.
//!
//! Three properties make failures actionable:
//!
//! - **Determinism.** A seed fully determines the schedule, the
//!   controller configuration, and (because nothing reads the wall clock
//!   or OS entropy) the entire run, down to a bit-identical
//!   journal/decision fingerprint across repeat runs.
//! - **Replayability.** A failing run serializes to a JSON artifact
//!   (schedule + violation) that `harness replay` re-executes exactly.
//! - **Shrinkability.** Ops on dead clients and absent nodes are no-ops,
//!   so every subsequence of a schedule is itself a valid schedule; the
//!   greedy shrinker exploits this to cut failing schedules down to a
//!   few ops.
//!
//! [`Controller`]: harmony_core::Controller
//! [`SharedController`]: harmony_proto::SharedController

#![warn(missing_docs)]

pub mod artifact;
pub mod oracle;
pub mod recovery;
pub mod schedule;
pub mod shadow;
pub mod shrink;
pub mod world;

use harmony_core::CoalescePolicy;
use harmony_core::ControllerConfig;
use serde::{Deserialize, Serialize};

pub use oracle::Violation;
pub use recovery::{crash_run, recover, CrashedRun, RecoveredRun};
pub use schedule::{generate, Op, OpKind, Schedule};
pub use shadow::{ShadowLeases, ShadowSession};
pub use world::{palette, World};

/// A deliberately planted controller bug, for validating that the
/// oracles actually catch regressions (and that the shrinker reduces
/// them to small schedules). `None` in normal sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum PlantedBug {
    /// No fault: the stock controller.
    #[default]
    None,
    /// The lease reaper skips folding read-path touch stamps before
    /// expiring sessions, so a client kept alive purely by polls and
    /// metric reports is reaped as if it had gone silent.
    ReaperSkipsTouchFold,
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The seed that produced the schedule and configuration.
    pub seed: u64,
    /// The planted bug the run executed with.
    pub planted: PlantedBug,
    /// FNV-1a fingerprint of the full journal/decision sequence; equal
    /// seeds must produce equal fingerprints, always.
    pub fingerprint: u64,
    /// Ops executed before the run stopped (== `ops_total` on success).
    pub ops_executed: usize,
    /// Ops in the schedule.
    pub ops_total: usize,
    /// Journal entries appended over the run (peak append counter; a
    /// mid-run server restart resets the counter).
    pub journal_appended: u64,
    /// Placement decisions committed over the run.
    pub decisions: usize,
    /// The first invariant violation, if any.
    pub violation: Option<Violation>,
}

impl RunReport {
    /// The report if the run found a violation, `None` if it was clean:
    /// the harness's failure predicate for [`shrink::shrink`].
    pub fn failed(self) -> Option<Self> {
        self.violation.is_some().then_some(self)
    }
}

/// Derives the controller configuration for a seed: every fifth seed runs
/// with decision coalescing on, so a sweep exercises both the inline and
/// the batched re-evaluation modes.
pub fn config_for_seed(seed: u64) -> ControllerConfig {
    let mut config = ControllerConfig::default();
    if seed.is_multiple_of(5) {
        config.coalesce = CoalescePolicy { window: 0.5, max_delay: 2.0, max_pending: 8 };
    }
    config
}

/// Runs one schedule against a world with the given planted bug.
pub fn run_schedule(schedule: &Schedule, planted: PlantedBug) -> RunReport {
    World::run(schedule, planted)
}

/// Generates and runs the schedule for a seed.
pub fn run_seed(seed: u64, planted: PlantedBug) -> RunReport {
    run_schedule(&generate(seed), planted)
}
