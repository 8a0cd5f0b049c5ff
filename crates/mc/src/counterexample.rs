//! Counterexample post-processing: confirm through the harness, shrink,
//! and save a replayable artifact.
//!
//! A violating path is already a harness schedule (the explorer folds
//! clock moves into `at_ms`), and both cases shrink with the harness's
//! one shrinker ([`shrink::shrink`]); only the failure predicate differs.
//! For harness-visible bugs it is [`run_schedule`] through the
//! full-stack [`World`], so the artifact is exactly what `harness replay`
//! expects. Crash-only bugs — mutations the WAL never saw — are
//! invisible to the harness's in-memory oracles, so for those it is
//! [`Engine::run_ops`] (crash cuts included), and the artifact replays
//! through `harmony-mc replay`.
//!
//! [`World`]: harmony_harness::World

use std::path::{Path, PathBuf};

use harmony_harness::shrink::{self, Shrunk};
use harmony_harness::{artifact, run_schedule, Schedule};

use crate::engine::Engine;
use crate::{Counterexample, Scope};

/// The processed (confirmed, shrunk, saved) counterexample.
#[derive(Debug)]
pub struct Processed {
    /// The artifact (shrunk schedule + violation + fingerprint).
    pub artifact: artifact::Artifact,
    /// Where it was saved, if an output directory was given.
    pub path: Option<PathBuf>,
    /// Ops before shrinking.
    pub shrunk_from: usize,
    /// Ops after shrinking.
    pub shrunk_to: usize,
    /// Candidate runs the shrink spent.
    pub runs: usize,
    /// Whether the full-stack harness reproduces the violation (false
    /// for crash-only bugs, which replay through `harmony-mc replay`).
    pub harness_confirmed: bool,
}

/// Confirms, shrinks, and (optionally) saves a counterexample.
pub fn process(ce: &Counterexample, scope: &Scope, out: Option<&Path>) -> Processed {
    let schedule = Schedule { seed: scope.seed, ops: ce.ops.clone() };

    // First choice: the harness sees the bug too — shrink against the
    // full stack.
    let harness = |s: &Schedule| {
        let report = run_schedule(s, scope.planted);
        report.violation.map(|v| (v, report.fingerprint))
    };
    let (shrunk, harness_confirmed) = match shrink::shrink(&schedule, harness) {
        Some(shrunk) => (shrunk, true),
        // Crash-only (or otherwise harness-invisible): shrink against the
        // MC engine.
        None => {
            let engine = Engine::new(*scope);
            let shrunk = shrink::shrink(&schedule, |s| {
                let outcome = engine.run_ops(&s.ops);
                outcome.violation.map(|v| (v, outcome.final_fingerprint))
            });
            // The full path fails by construction; keep it, and the
            // violation exploration saw, if a re-run somehow passes.
            let kept = || Shrunk {
                schedule: schedule.clone(),
                report: (ce.violation.clone(), engine.run_ops(&schedule.ops).final_fingerprint),
                runs: 1,
            };
            (shrunk.unwrap_or_else(kept), false)
        }
    };
    let (violation, fingerprint) = shrunk.report;
    let art = artifact::Artifact {
        schedule: shrunk.schedule,
        planted: scope.planted,
        violation,
        fingerprint: format!("{fingerprint:016x}"),
    };
    let path = out.and_then(|dir| artifact::save(dir, &art).ok());
    Processed {
        shrunk_from: schedule.ops.len(),
        shrunk_to: art.schedule.ops.len(),
        runs: shrunk.runs,
        harness_confirmed,
        artifact: art,
        path,
    }
}
