//! Greedy schedule shrinking (delta debugging).
//!
//! Because ops addressing a dead client slot or an absent node are
//! defined as no-ops, every subsequence of a schedule is itself valid,
//! and op timestamps are absolute so removing ops never shifts the
//! survivors. The shrinker exploits both: it repeatedly deletes chunks
//! (halving the chunk size down to single ops) and keeps any candidate
//! that still fails, iterating to a fixpoint.
//!
//! What "fails" means is the caller's: the harness runs a candidate
//! through [`run_schedule`](crate::run_schedule), and `harmony-mc`
//! through its own engine, crash cuts included.

use crate::schedule::{Op, Schedule};

/// The result of shrinking a failing schedule.
#[derive(Debug, Clone)]
pub struct Shrunk<R> {
    /// The minimized schedule (same seed, a subsequence of the ops).
    pub schedule: Schedule,
    /// The report of the minimized schedule's (still-failing) run.
    pub report: R,
    /// How many candidate runs the search spent.
    pub runs: usize,
}

/// Greedily minimizes a failing schedule, preserving *some* failure (not
/// necessarily the original oracle — any failure keeps a candidate).
/// `fails` runs a candidate and returns its report if it fails, `None`
/// if it passes.
///
/// Returns `None` if the schedule does not fail in the first place.
pub fn shrink<R>(
    schedule: &Schedule,
    mut fails: impl FnMut(&Schedule) -> Option<R>,
) -> Option<Shrunk<R>> {
    let mut report = fails(schedule)?;
    let mut runs = 1;
    let mut ops = schedule.ops.clone();

    let mut chunk = (ops.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < ops.len() {
            let end = (i + chunk).min(ops.len());
            let mut candidate: Vec<Op> = ops[..i].to_vec();
            candidate.extend_from_slice(&ops[end..]);
            if candidate.is_empty() {
                i = end;
                continue;
            }
            let trial = fails(&Schedule { seed: schedule.seed, ops: candidate.clone() });
            runs += 1;
            if let Some(trial) = trial {
                ops = candidate;
                report = trial;
                removed_any = true;
                // Retry the same window: the ops that slid into it are
                // new deletion candidates.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !removed_any {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }

    Some(Shrunk { schedule: Schedule { seed: schedule.seed, ops }, report, runs })
}
