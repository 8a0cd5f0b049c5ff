//! # Harmony core — the adaptation controller
//!
//! The primary contribution of "Exposing Application Alternatives"
//! (Keleher, Hollingsworth, Perković — ICDCS 1999): a centralized resource
//! manager to which applications export *tuning options* (bundles of
//! mutually exclusive configuration alternatives), and which chooses among
//! them to optimize a system-wide objective function.
//!
//! * [`Controller`] — registers applications, matches their bundles to the
//!   cluster, predicts performance, and applies the greedy
//!   one-bundle-at-a-time policy of §4.3 (with exhaustive and
//!   simulated-annealing joint optimizers for comparison in
//!   [`optimizer`]).
//! * [`mean_completion`] — the "single variable that represents the
//!   overall behavior of the system": the average completion time (§4.2).
//! * [`HarmonyEvent`] — the event-driven interface of the prototype (§5).
//! * Frictional costs, `granularity` rate limits, and elastic (`>=`)
//!   memory grants are all honored during candidate evaluation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod candidates;
mod controller;
mod error;
mod events;
mod instances;
pub mod journal;
mod leases;
mod namespace;
mod objective;
pub mod optimizer;
pub mod persist;
mod planner;
pub mod pruning;
mod scheduler;
mod snapshot;

pub use app::{AppInstance, BundleState, ChosenConfig, InstanceId, InstanceRef};
pub use candidates::{
    enumerate as enumerate_candidates, has_elastic_memory, variable_assignments, Candidate,
};
pub use controller::{Controller, ControllerConfig, DecisionRecord, LintMode};
pub use error::CoreError;
pub use events::{EventOutcome, HarmonyEvent};
pub use journal::{EventJournal, JournalEntry, JournalKind, JournalTail, PhaseTimings};
pub use leases::{LeaseConfig, RetireReason, RetirementRecord, SessionState};
pub use namespace::NamespaceView;
pub use objective::mean_completion;
pub use optimizer::DEFAULT_EXHAUSTIVE_LIMIT;
pub use persist::{PersistedState, RecoveryInfo, StateStore, WalEvent};
pub use pruning::PruningPlan;
pub use scheduler::{CoalescePolicy, DecisionScheduler, SchedulerState};
pub use snapshot::{
    AppSnapshot, HistogramSnapshot, NodeSnapshot, OptimizerSnapshot, PersistenceSnapshot,
    SchedulerSnapshot, SessionSnapshot, SystemSnapshot,
};
