//! Invariant oracles checked after every schedule step.
//!
//! Each oracle recomputes an invariant from first principles and compares
//! it against the controller's own bookkeeping; a mismatch is a
//! [`Violation`] that fails the run at the op where it first appeared.

use std::collections::BTreeMap;

use harmony_core::{
    Controller, DecisionRecord, InstanceId, JournalTail, RetireReason, RetirementRecord,
};

use crate::shadow::ShadowLeases;

/// Tolerance for recomputed floating-point resource sums (memory,
/// seconds). Lease deadlines are compared exactly: the shadow model
/// mirrors the controller's arithmetic operation-for-operation.
const EPS: f64 = 1e-6;

/// One invariant violation, anchored to the op that exposed it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Violation {
    /// Index of the schedule op after which the oracle failed (usize::MAX
    /// for the end-of-run convergence check).
    pub op_index: usize,
    /// Which oracle failed.
    pub oracle: String,
    /// What it saw.
    pub detail: String,
}

impl Violation {
    /// Builds a violation (public so `harmony-mc` reports through the
    /// same type its artifacts serialize).
    pub fn new(op_index: usize, oracle: &str, detail: String) -> Self {
        Violation { op_index, oracle: oracle.to_string(), detail }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: [{}] {}", self.op_index, self.oracle, self.detail)
    }
}

/// Per-node usage recomputed from every currently applied configuration.
#[derive(Debug, Default, Clone, PartialEq)]
struct NodeUsage {
    tasks: u32,
    memory: f64,
    seconds: f64,
    exclusive: u32,
}

/// Capacity and exclusivity: the cluster's live counters must equal the
/// sums over all committed allocations, nothing may be overdrawn, and an
/// exclusively held node must run only its exclusive bindings.
pub fn check_capacity(ctl: &Controller, op_index: usize) -> Result<(), Violation> {
    let mut usage: BTreeMap<&str, NodeUsage> = BTreeMap::new();
    for id in ctl.instances() {
        let app = ctl.app(&id).expect("a listed instance is a record, which holds its app");
        for bundle in &app.bundles {
            let Some(cfg) = &bundle.current else { continue };
            for n in &cfg.alloc.nodes {
                let u = usage.entry(n.node.as_str()).or_default();
                u.tasks += 1;
                u.memory += n.memory;
                u.seconds += n.seconds;
                if n.exclusive {
                    u.exclusive += 1;
                }
            }
        }
    }
    for node in ctl.cluster().nodes() {
        let name = node.decl.name.as_str();
        let u = usage.remove(name).unwrap_or_default();
        if node.tasks != u.tasks {
            return Err(Violation::new(
                op_index,
                "capacity",
                format!(
                    "node {name}: cluster counts {} tasks, allocations sum {}",
                    node.tasks, u.tasks
                ),
            ));
        }
        let used = node.decl.memory - node.free_memory;
        if (used - u.memory).abs() > EPS {
            return Err(Violation::new(
                op_index,
                "capacity",
                format!("node {name}: cluster has {used} MB used, allocations sum {}", u.memory),
            ));
        }
        if node.free_memory < -EPS {
            return Err(Violation::new(
                op_index,
                "capacity",
                format!("node {name}: free memory overdrawn ({})", node.free_memory),
            ));
        }
        if (node.assigned_seconds - u.seconds).abs() > EPS {
            return Err(Violation::new(
                op_index,
                "capacity",
                format!(
                    "node {name}: cluster has {} assigned seconds, allocations sum {}",
                    node.assigned_seconds, u.seconds
                ),
            ));
        }
        if node.exclusive != u.exclusive {
            return Err(Violation::new(
                op_index,
                "exclusivity",
                format!(
                    "node {name}: cluster counts {} exclusive holds, allocations sum {}",
                    node.exclusive, u.exclusive
                ),
            ));
        }
        if u.exclusive > 0 && u.tasks != u.exclusive {
            return Err(Violation::new(
                op_index,
                "exclusivity",
                format!(
                    "node {name}: {} exclusive bindings share the node with {} other tasks",
                    u.exclusive,
                    u.tasks - u.exclusive
                ),
            ));
        }
    }
    if let Some((name, u)) = usage.into_iter().next() {
        return Err(Violation::new(
            op_index,
            "capacity",
            format!("allocation references node {name} ({} tasks) not in the cluster", u.tasks),
        ));
    }
    Ok(())
}

/// The continuous lease oracle: the controller's session table must
/// equal the shadow model exactly — same instances, bit-identical stored
/// deadlines, same disconnect marks, and the same effective deadline once
/// pending read-path touches are accounted for.
pub fn check_lease_agreement(
    ctl: &Controller,
    shadow: &ShadowLeases,
    op_index: usize,
) -> Result<(), Violation> {
    let model = shadow.sessions();
    if !ctl.sessions().map(|(id, _)| id).eq(model.keys()) {
        let actual: Vec<String> = ctl.sessions().map(|(id, _)| id.to_string()).collect();
        let expected: Vec<String> = model.keys().map(ToString::to_string).collect();
        return Err(Violation::new(
            op_index,
            "lease",
            format!("sessions {actual:?}, shadow model expected {expected:?}"),
        ));
    }
    let duration = shadow.lease().duration;
    for (id, actual) in ctl.sessions() {
        let expected = &model[id];
        if actual.deadline != expected.deadline {
            return Err(Violation::new(
                op_index,
                "lease",
                format!(
                    "{id}: stored deadline {} != shadow {}",
                    actual.deadline, expected.deadline
                ),
            ));
        }
        if actual.disconnected != expected.disconnected {
            return Err(Violation::new(
                op_index,
                "lease",
                format!(
                    "{id}: disconnected={} != shadow {}",
                    actual.disconnected, expected.disconnected
                ),
            ));
        }
        let effective = ctl.effective_deadline(id).unwrap_or(f64::NAN);
        if effective != expected.effective(duration) {
            return Err(Violation::new(
                op_index,
                "lease",
                format!(
                    "{id}: effective deadline {effective} != shadow {}",
                    expected.effective(duration)
                ),
            ));
        }
    }
    Ok(())
}

/// The reap oracle: the retirements a reap appended must equal — as a
/// set with reasons — what the shadow model of a correct reap expected
/// (see [`ShadowLeases::expected_reap`]).
pub fn check_reap(
    appended: &[RetirementRecord],
    expected: &BTreeMap<InstanceId, RetireReason>,
    now: f64,
    op_index: usize,
) -> Result<(), Violation> {
    let actual: BTreeMap<InstanceId, RetireReason> =
        appended.iter().map(|r| (r.instance.clone(), r.reason)).collect();
    if actual != *expected {
        return Err(Violation::new(
            op_index,
            "lease",
            format!("reap at t={now} retired {actual:?}, shadow model expected {expected:?}"),
        ));
    }
    Ok(())
}

/// The journal truncation contract: tailing from a cursor yields
/// gap-free ascending seqs, reports truncation iff entries between the
/// cursor and the oldest retained entry were evicted, and hands back a
/// cursor that continues exactly after the last entry.
pub fn check_journal_tail(
    tail: &JournalTail,
    cursor: u64,
    appended: u64,
    op_index: usize,
) -> Result<(), Violation> {
    let fail = |detail: String| Err(Violation::new(op_index, "journal", detail));
    for w in tail.entries.windows(2) {
        if w[1].seq != w[0].seq + 1 {
            return fail(format!("seq gap: {} then {}", w[0].seq, w[1].seq));
        }
    }
    match tail.entries.first() {
        Some(first) => {
            if first.seq < cursor {
                return fail(format!("tail from {cursor} returned earlier seq {}", first.seq));
            }
            if tail.truncated != (first.seq > cursor) {
                return fail(format!(
                    "truncated={} but cursor {cursor} vs first seq {}",
                    tail.truncated, first.seq
                ));
            }
            let last = tail.entries.last().expect("nonempty");
            if tail.next_cursor != last.seq + 1 {
                return fail(format!(
                    "next_cursor {} after last seq {}",
                    tail.next_cursor, last.seq
                ));
            }
            // An unbounded tail drains to the end of the ring, so the
            // continuation cursor must equal the append counter.
            if tail.next_cursor != appended {
                return fail(format!(
                    "drained tail ends at {} but {appended} entries were ever appended",
                    tail.next_cursor
                ));
            }
        }
        None => {
            if tail.truncated {
                return fail(format!("empty tail from {cursor} claims truncation"));
            }
            let expect = appended.max(cursor);
            if tail.next_cursor != expect {
                return fail(format!(
                    "empty tail from {cursor}: next_cursor {} != {expect}",
                    tail.next_cursor
                ));
            }
        }
    }
    Ok(())
}

/// Decision provenance: every decision committed on an event path carries
/// the journal seqs of the events it settles, and those seqs point at
/// entries that were actually appended (`appended` is the journal's
/// append counter).
pub fn check_provenance(
    new: &[DecisionRecord],
    appended: u64,
    op_index: usize,
) -> Result<(), Violation> {
    for d in new {
        if d.provenance.is_empty() {
            return Err(Violation::new(
                op_index,
                "provenance",
                format!(
                    "decision {} {} -> {} at t={} has no provenance",
                    d.instance, d.bundle, d.to, d.time
                ),
            ));
        }
        let max_seq = appended;
        if d.provenance.iter().any(|&s| s >= max_seq) {
            return Err(Violation::new(
                op_index,
                "provenance",
                format!(
                    "decision {} {} cites seq beyond the journal ({:?} >= {max_seq})",
                    d.instance, d.bundle, d.provenance
                ),
            ));
        }
    }
    Ok(())
}
