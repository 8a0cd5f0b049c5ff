//! The strongest fault-injection and session-resilience scenarios,
//! re-expressed as hand-built harness schedules.
//!
//! The originals (`fault_injection.rs`, `session_resilience.rs`) drive
//! real TCP servers and threads and stay green; these ports encode the
//! same scenarios as deterministic virtual-clock schedules, where the
//! harness's oracles — the shadow lease model, capacity/exclusivity
//! recomputation, the journal contract, decision provenance, and the
//! end-of-run convergence sweep — carry the assertions the originals
//! made by hand, after *every* op rather than at hand-picked moments.
//! A clean run therefore *is* the scenario's pass condition; the
//! explicit assertions below only pin the structural facts that prove
//! the schedule exercised what it claims (placements happened, the run
//! completed).
//!
//! The pinned generated seeds at the bottom freeze a few full
//! explorer-generated runs as regressions: they must stay clean and
//! deterministic forever.

use harmony_harness::{run_schedule, run_seed, Op, OpKind, PlantedBug, RunReport, Schedule};
use harmony_proto::Fault as FaultKind;

/// Builds a schedule from `(at_ms, kind)` pairs (seed only selects the
/// controller configuration; see `config_for_seed`).
fn schedule(seed: u64, steps: Vec<(u64, OpKind)>) -> Schedule {
    assert!(steps.windows(2).all(|w| w[0].0 < w[1].0), "timestamps must increase");
    Schedule { seed, ops: steps.into_iter().map(|(at_ms, kind)| Op { at_ms, kind }).collect() }
}

fn run_clean(schedule: &Schedule) -> RunReport {
    let report = run_schedule(schedule, PlantedBug::None);
    assert!(report.violation.is_none(), "violation: {}", report.violation.as_ref().unwrap());
    assert_eq!(report.ops_executed, report.ops_total);
    report
}

/// Port of `reaper_converges_to_survivor_only_state`: three clients
/// register and place bundles; one keeps renewing while the others go
/// silent past the lease duration. The reap must retire exactly the
/// silent two (the shadow model checks the retirement set and reasons),
/// and the survivor must keep its lease through further sweeps.
#[test]
fn reaper_converges_to_survivor_only_state() {
    use OpKind::*;
    let report = run_clean(&schedule(
        0,
        vec![
            (10, Start { client: 0 }),
            (20, Start { client: 1 }),
            (30, Start { client: 2 }),
            (40, AddBundle { client: 0 }),
            (50, AddBundle { client: 1 }),
            (60, AddBundle { client: 2 }),
            // Only client 0 stays alive: write-path and read-path
            // renewals alternate, so the reap exercises touch folding.
            (20_000, Heartbeat { client: 0 }),
            (45_000, Poll { client: 0 }),
            // Past every silent lease (startup + 30 s), inside client 0's.
            (70_000, Reap),
            (71_000, Heartbeat { client: 0 }),
            (95_000, Metric { client: 0, millis: 12 }),
            (120_000, Reap),
            (121_000, End { client: 0 }),
        ],
    ));
    assert!(report.decisions >= 3, "all three bundles should have placed");
}

/// Port of `disconnect_is_reaped_within_grace_with_its_own_reason`: a
/// marked disconnect caps the lease at the 5 s grace. A sweep inside
/// the grace must keep the session; the next one must retire it, with
/// `Disconnected` (not `LeaseExpired`) as the reason — the shadow model
/// distinguishes the two.
#[test]
fn disconnect_is_reaped_within_grace_with_its_own_reason() {
    use OpKind::*;
    run_clean(&schedule(
        1,
        vec![
            (10, Start { client: 0 }),
            (20, Start { client: 1 }),
            (30, AddBundle { client: 0 }),
            (40, AddBundle { client: 1 }),
            (1_000, Crash { client: 1 }),
            (1_100, MarkDisconnected { client: 1 }),
            // Inside the grace window: nothing may be retired yet.
            (5_000, Reap),
            // Past it: exactly client 1, reason Disconnected.
            (7_000, Reap),
            (8_000, Heartbeat { client: 0 }),
            (9_000, End { client: 0 }),
        ],
    ));
}

/// Port of the transport-fault scenarios: every fault kind fires on the
/// idempotent read path, the client reconnects and retries, and no
/// session is lost — the lease oracle sees the retry traffic exactly as
/// the server does.
#[test]
fn transport_faults_do_not_kill_sessions() {
    use OpKind::*;
    run_clean(&schedule(
        2,
        vec![
            (10, Start { client: 0 }),
            (20, AddBundle { client: 0 }),
            (1_000, FaultedPoll { client: 0, fault: FaultKind::DropRequest }),
            (2_000, FaultedPoll { client: 0, fault: FaultKind::DropResponse }),
            (3_000, FaultedPoll { client: 0, fault: FaultKind::Duplicate }),
            (4_000, Metric { client: 0, millis: 250 }),
            // Well within the lease: the faults must not have cost the
            // session its renewals.
            (10_000, Reap),
            (11_000, End { client: 0 }),
        ],
    ));
}

/// Port of `server_restart_falls_back_to_fresh_startup_with_bundle
/// _replay`: the controller is replaced wholesale, clients' next calls
/// walk reconnect → reattach (rejected) → fresh startup with bundle
/// replay, and the rebuilt world must satisfy every invariant from
/// scratch.
#[test]
fn server_restart_recovers_clients_with_bundle_replay() {
    use OpKind::*;
    let report = run_clean(&schedule(
        3,
        vec![
            (10, Start { client: 0 }),
            (20, Start { client: 1 }),
            (30, AddBundle { client: 0 }),
            (40, AddBundle { client: 1 }),
            (1_000, Restart),
            // Recovery traffic: both clients re-register and replay.
            (2_000, Poll { client: 0 }),
            (3_000, Heartbeat { client: 1 }),
            (4_000, Metric { client: 0, millis: 40 }),
            (10_000, Reap),
            (11_000, End { client: 0 }),
            (12_000, End { client: 1 }),
        ],
    ));
    // Placements from before *and* after the restart.
    assert!(report.decisions >= 2, "bundle replay should have re-placed after restart");
}

/// Port of `cascade_of_node_failures_degrades_gracefully` /
/// `unplaceable_after_total_failure_is_not_fatal`: nodes leave under
/// live placements (forcing displacement and re-placement), clients keep
/// reporting, and the cluster heals when nodes rejoin — with capacity
/// and exclusivity recomputed from scratch after every step.
#[test]
fn node_failure_cascade_degrades_gracefully() {
    use OpKind::*;
    run_clean(&schedule(
        4,
        vec![
            (10, Start { client: 0 }),
            (20, Start { client: 1 }),
            (30, AddBundle { client: 0 }),
            (40, AddBundle { client: 1 }),
            (1_000, NodeLeft { node: 0 }),
            (2_000, NodeLeft { node: 1 }),
            (3_000, NodeLeft { node: 2 }),
            // The guard holds the cluster at four nodes; this one no-ops.
            (4_000, NodeLeft { node: 3 }),
            (5_000, Poll { client: 0 }),
            (6_000, Metric { client: 1, millis: 900 }),
            (7_000, NodeRejoin { node: 1 }),
            (8_000, NodeRejoin { node: 0 }),
            (9_000, Poll { client: 1 }),
            (15_000, Reap),
            (16_000, End { client: 0 }),
            (17_000, End { client: 1 }),
        ],
    ));
}

/// Port of `client_vanishing_mid_session_leaks_only_its_own_allocation`
/// / `dropping_a_client_releases_its_allocation`: a hard crash (no
/// `End`, not even the drop-time one) leaves cleanup to the reaper; the
/// convergence sweep then proves nothing leaked.
#[test]
fn crashed_client_leaks_nothing_after_the_reaper_runs() {
    use OpKind::*;
    run_clean(&schedule(
        5,
        vec![
            (10, Start { client: 0 }),
            (20, Start { client: 1 }),
            (30, AddBundle { client: 0 }),
            (40, AddBundle { client: 1 }),
            (1_000, Crash { client: 0 }),
            // The survivor renews across the crashed client's expiry.
            (25_000, Heartbeat { client: 1 }),
            (50_000, Poll { client: 1 }),
            // Crashed lease (30 s from startup) is long gone; survivor's
            // is not.
            (60_000, Reap),
            (61_000, End { client: 1 }),
        ],
    ));
}

/// Pinned explorer seeds: full generated schedules that must stay clean,
/// bit-deterministic, and bit-identical to the commit that pinned them —
/// four with inline re-evaluation plus one with coalescing on
/// (seed % 5 == 0). The fingerprints are what `harness sweep --start S
/// --seeds 1` prints; a deliberate behaviour change updates them in the
/// same commit that explains why.
#[test]
fn pinned_generated_seeds_stay_clean_and_deterministic() {
    for (seed, fingerprint, ops, decisions) in [
        (11, 0x049cef389af0c8af_u64, 103, 6),
        (23, 0x79af0277231a26b5, 115, 3),
        (42, 0x5f55769bf85841ba, 132, 10),
        (90, 0xc7bfebb7a4c3cd2f, 135, 9),
        (157, 0x8e90c46a9c202e33, 92, 2),
    ] {
        let a = run_seed(seed, PlantedBug::None);
        assert!(a.violation.is_none(), "seed {seed}: {}", a.violation.unwrap());
        assert_eq!(
            (a.fingerprint, a.ops_executed, a.decisions),
            (fingerprint, ops, decisions),
            "seed {seed} drifted: fingerprint is now {:016x}",
            a.fingerprint
        );
        let b = run_seed(seed, PlantedBug::None);
        assert_eq!(a, b, "seed {seed} is nondeterministic");
    }
}
