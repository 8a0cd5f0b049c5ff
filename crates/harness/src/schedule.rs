//! The op model and the seeded schedule generator.
//!
//! A [`Schedule`] is a totally ordered list of [`Op`]s at absolute
//! virtual-clock timestamps (integer milliseconds, so serialization is
//! exact). Everything the harness does to the stack — client calls, fault
//! injections, reaper sweeps, scheduler ticks, server restarts, cluster
//! membership churn — is an op; the schedule plus the seed-derived
//! controller configuration fully determine a run, which is what makes
//! failing seeds replayable and shrinkable.

use harmony_proto::Fault;
use harmony_rng::SeededRng;
use serde::{Deserialize, Serialize};

/// Client slots the generator draws from. Each slot is pinned to one
/// `(app, script)` palette entry, so a `Start` after an `End`/`Crash`
/// re-registers the same application.
pub const CLIENT_SLOTS: u8 = 3;

/// Nodes in the simulated cluster (`sp2_cluster(NODE_COUNT)`).
pub const NODE_COUNT: u8 = 8;

/// Sub-stream domains for the generator's independent draws (arbitrary
/// distinct tags; see `harmony_rng::sub_seed`).
const DOM_TIME: u64 = 0x4841_524e_5f54_494d; // "HARN_TIM"
const DOM_KIND: u64 = 0x4841_524e_5f4b_4e44; // "HARN_KND"
const DOM_PARAM: u64 = 0x4841_524e_5f50_524d; // "HARN_PRM"

/// One step of a schedule.
///
/// Ops targeting a client slot with no live client are no-ops (likewise
/// membership ops naming an absent node), which keeps every subsequence
/// of a valid schedule valid — the property the shrinker relies on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "op")]
pub enum OpKind {
    /// `harmony_startup` on a slot (no-op if the slot is already live).
    Start {
        /// Client slot index.
        client: u8,
    },
    /// `harmony_bundle_setup` of the slot's palette script (once per
    /// registration; later attempts are no-ops).
    AddBundle {
        /// Client slot index.
        client: u8,
    },
    /// One poll, applying buffered variable updates.
    Poll {
        /// Client slot index.
        client: u8,
    },
    /// Lease-renewal heartbeat.
    Heartbeat {
        /// Client slot index.
        client: u8,
    },
    /// A `response_time` metric report.
    Metric {
        /// Client slot index.
        client: u8,
        /// Reported response time, milliseconds (the sample value; the
        /// controller clock is the op's `at_ms`).
        millis: u32,
    },
    /// A poll with a scripted transport fault queued first. Faults ride
    /// on the read path only. A dropped-response `bundle` would be safe
    /// too: `bundle` is idempotent per `(instance, name)`, so the retry
    /// answers `ok` and attaches nothing twice (`tests/bundle_retry.rs`
    /// covers a dropped reply). Scripting it here is ROADMAP item 11(c).
    FaultedPoll {
        /// Client slot index.
        client: u8,
        /// The fault to queue.
        fault: Fault,
    },
    /// Clean shutdown: `harmony_end`.
    End {
        /// Client slot index.
        client: u8,
    },
    /// Hard crash: the transport dies (no `End`, not even the drop-time
    /// best-effort one), leaving cleanup to the lease reaper.
    Crash {
        /// Client slot index.
        client: u8,
    },
    /// The server observes the slot's connection drop (what a serving
    /// thread's exit path does), capping the lease to the disconnect
    /// grace.
    MarkDisconnected {
        /// Client slot index.
        client: u8,
    },
    /// A lease-reaper sweep at the op's time, checked against the
    /// harness's shadow lease model.
    Reap,
    /// A coalescing-scheduler heartbeat (`service_scheduler`).
    Tick,
    /// Forces any pending coalesced re-evaluation (`flush_scheduler`).
    Flush,
    /// Server restart: a fresh controller behind the same shared handle,
    /// every live connection broken. Clients recover through the
    /// reattach-then-fresh-startup path on their next call.
    Restart,
    /// A cluster node leaves (skipped when it is already gone or fewer
    /// than three nodes would remain).
    NodeLeft {
        /// Node index into the initial cluster.
        node: u8,
    },
    /// A previously departed node rejoins with its original declaration.
    NodeRejoin {
        /// Node index into the initial cluster.
        node: u8,
    },
}

impl OpKind {
    /// The client slot this op targets, if any.
    pub fn client(&self) -> Option<u8> {
        match self {
            OpKind::Start { client }
            | OpKind::AddBundle { client }
            | OpKind::Poll { client }
            | OpKind::Heartbeat { client }
            | OpKind::Metric { client, .. }
            | OpKind::FaultedPoll { client, .. }
            | OpKind::End { client }
            | OpKind::Crash { client }
            | OpKind::MarkDisconnected { client } => Some(*client),
            _ => None,
        }
    }
}

/// One schedule step: an op at an absolute virtual time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Op {
    /// Virtual-clock timestamp, milliseconds since run start. Absolute,
    /// so removing earlier ops (shrinking) does not shift later ones.
    pub at_ms: u64,
    /// What happens.
    pub kind: OpKind,
}

/// A complete, replayable schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// The seed the schedule (and the controller configuration) was
    /// derived from.
    pub seed: u64,
    /// The steps, in time order.
    pub ops: Vec<Op>,
}

/// Generates the schedule for a seed: exponential inter-arrivals with
/// occasional long clock jumps (so leases actually expire mid-run), and
/// weighted op kinds biased toward client traffic with a steady trickle
/// of faults, sweeps, and membership churn.
pub fn generate(seed: u64) -> Schedule {
    let mut times = SeededRng::stream(seed, DOM_TIME, 0);
    let mut kinds = SeededRng::stream(seed, DOM_KIND, 0);
    let mut params = SeededRng::stream(seed, DOM_PARAM, 0);

    let n_ops = 90 + kinds.uniform_int(0, 60) as usize;
    let mut ops = Vec::with_capacity(n_ops);
    let mut at_ms: u64 = 0;
    for _ in 0..n_ops {
        at_ms += 1 + times.exponential(700.0).min(20_000.0) as u64;
        if times.chance(0.04) {
            // A quiet stretch longer than the lease duration: the next
            // reap sees genuinely expired sessions.
            at_ms += 60_000;
        }
        ops.push(Op { at_ms, kind: pick_kind(&mut kinds, &mut params) });
    }
    Schedule { seed, ops }
}

/// Op-kind weights, in the order matched by `pick_kind`.
const WEIGHTS: [u32; 15] = [
    10, // Start
    10, // AddBundle
    14, // Poll
    8,  // Heartbeat
    8,  // Metric
    6,  // FaultedPoll
    3,  // End
    3,  // Crash
    3,  // MarkDisconnected
    9,  // Reap
    5,  // Tick
    4,  // Flush
    1,  // Restart
    2,  // NodeLeft
    2,  // NodeRejoin
];

fn pick_kind(kinds: &mut SeededRng, params: &mut SeededRng) -> OpKind {
    let client = params.uniform_int(0, i64::from(CLIENT_SLOTS) - 1) as u8;
    let node = params.uniform_int(0, i64::from(NODE_COUNT) - 1) as u8;
    match kinds.weighted(&WEIGHTS) {
        0 => OpKind::Start { client },
        1 => OpKind::AddBundle { client },
        2 => OpKind::Poll { client },
        3 => OpKind::Heartbeat { client },
        4 => OpKind::Metric { client, millis: params.uniform_int(1, 5_000) as u32 },
        5 => {
            let fault = match params.uniform_int(0, 2) {
                0 => Fault::DropRequest,
                1 => Fault::DropResponse,
                _ => Fault::Duplicate,
            };
            OpKind::FaultedPoll { client, fault }
        }
        6 => OpKind::End { client },
        7 => OpKind::Crash { client },
        8 => OpKind::MarkDisconnected { client },
        9 => OpKind::Reap,
        10 => OpKind::Tick,
        11 => OpKind::Flush,
        12 => OpKind::Restart,
        13 => OpKind::NodeLeft { node },
        _ => OpKind::NodeRejoin { node },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7), generate(8));
    }

    #[test]
    fn timestamps_are_strictly_increasing() {
        for seed in 0..20 {
            let s = generate(seed);
            assert!(s.ops.windows(2).all(|w| w[0].at_ms < w[1].at_ms), "seed {seed}");
        }
    }

    #[test]
    fn every_kind_appears_across_a_small_sweep() {
        let mut seen = [false; 15];
        for seed in 0..40 {
            for op in generate(seed).ops {
                let i = match op.kind {
                    OpKind::Start { .. } => 0,
                    OpKind::AddBundle { .. } => 1,
                    OpKind::Poll { .. } => 2,
                    OpKind::Heartbeat { .. } => 3,
                    OpKind::Metric { .. } => 4,
                    OpKind::FaultedPoll { .. } => 5,
                    OpKind::End { .. } => 6,
                    OpKind::Crash { .. } => 7,
                    OpKind::MarkDisconnected { .. } => 8,
                    OpKind::Reap => 9,
                    OpKind::Tick => 10,
                    OpKind::Flush => 11,
                    OpKind::Restart => 12,
                    OpKind::NodeLeft { .. } => 13,
                    OpKind::NodeRejoin { .. } => 14,
                };
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "kinds seen: {seen:?}");
    }

    #[test]
    fn schedules_round_trip_through_json() {
        let s = generate(11);
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
