//! What one arrival costs the planner, counted in heap allocations: the
//! `bundle` that places a Figure 2(b) bag (or Figure 3's database client)
//! beside standing bags on an SP-2, and the `end` that retires it, each
//! with the scans it triggers. A scan clones the cluster as two vectors of
//! counters (declarations are shared), and a trial matches into buffers
//! its scan keeps, commits, restores and predicts at the positions the
//! match handed out, builds no environment, clones no model and formats no
//! miss; only a winning move set that will be committed is matched again,
//! through the same buffers, and copied out. So a `String`, a map or a
//! boxed model that creeps back into the scratch cluster or a trial moves
//! these counts. (While every scan cloned name-keyed maps and every trial
//! kept a fresh allocation, the four-node `bundle` made 2,541 allocations
//! and its `end` 704; at 16 nodes with 12 standing, 103,377 and 76,637.
//! While the walk found its nodes by name and copied out every winner,
//! 1,190 / 289 and 12,182 / 8,583. While enumeration built a vector of
//! elastic steps per option, each `bundle` made one more allocation per
//! option and one more per elastic option: 1,048, 8,441 and 4,871. While
//! a configuration's label collected each binding into a `String` of its
//! own, a vector and a join before the final format, 1,047 / 245 and
//! 8,440 / 5,826; Figure 3's options bind no variables, so its row holds.)

use std::sync::Arc;

use harmony_bench::request_path::{allocations, CountingAllocator};
use harmony_core::{Controller, ControllerConfig};
use harmony_proto::{handle_request, Request, Response, SharedController};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG, FIG3_DBCLIENT};
use parking_lot::RwLock;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Figure 3's database client with its server pinned to a host an SP-2
/// has, as the planner's tests pin it: its hostname and `os` filters, its
/// links and its elastic memory are all on the counted path.
fn fig3() -> String {
    FIG3_DBCLIENT.replace("harmony.cs.umd.edu", "node00.sp2")
}

/// Registers one instance of `app` and returns the `bundle` and `end`
/// requests of `script`, a listing written for instance 1.
fn arrive(ctl: &SharedController, app: &str, script: &str) -> (Request, Request) {
    let Response::Registered { id, .. } =
        handle_request(ctl, &Request::Startup { app: app.into() })
    else {
        panic!("startup registers")
    };
    let script = script.replacen(&format!("{app}:1"), &format!("{app}:{id}"), 1);
    (Request::Bundle { app: app.into(), id, script }, Request::End { app: app.into(), id })
}

/// Allocations `req` makes, answered `ok`.
fn counted(ctl: &SharedController, req: &Request) -> u64 {
    let before = allocations();
    let reply = handle_request(ctl, req);
    let made = allocations() - before;
    assert_eq!(reply, Response::Ok, "{req:?}");
    made
}

/// The allocations of one arrival of `app`'s `script` — its `bundle` and
/// its `end` — on an SP-2 of `nodes` nodes with `standing` bags placed,
/// after `cycles` arrivals.
fn arrival_cost(
    nodes: usize,
    standing: usize,
    cycles: usize,
    app: &str,
    script: &str,
) -> (u64, u64) {
    let cluster = Cluster::from_rsl(&sp2_cluster(nodes)).unwrap();
    let ctl: SharedController =
        Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())));
    for _ in 0..standing {
        let (bundle, _) = arrive(&ctl, "bag", FIG2B_BAG);
        assert_eq!(handle_request(&ctl, &bundle), Response::Ok);
    }
    // Warm-up cycles create every histogram, counter and journal slot an
    // arrival touches.
    let mut costs = Vec::new();
    for _ in 0..cycles {
        let (bundle, end) = arrive(&ctl, app, script);
        costs.push((counted(&ctl, &bundle), counted(&ctl, &end)));
    }
    // The decision and retirement histories grow for the controller's
    // lifetime, so a cycle that doubles one of them makes one or two more
    // allocations: the fewest over the last three cycles is an arrival's
    // own cost.
    let last = &costs[costs.len() - 3..];
    let bundle = last.iter().map(|c| c.0).min().unwrap();
    let end = last.iter().map(|c| c.1).min().unwrap();
    eprintln!("{app} on {nodes} nodes, {standing} standing, all cycles: {costs:?}");
    (bundle, end)
}

#[test]
fn an_arrivals_bundle_and_end_make_a_pinned_number_of_allocations() {
    assert_eq!(arrival_cost(4, 2, 11, "bag", FIG2B_BAG), (1017, 233));
}

/// The same arrival beside twelve standing bags on sixteen nodes: 103
/// scans for the `bundle`, 78 for the `end`.
#[test]
fn a_crowded_arrival_makes_a_pinned_number_of_allocations() {
    assert_eq!(arrival_cost(16, 12, 5, "bag", FIG2B_BAG), (8410, 5814));
}

/// Figure 3's database client arriving beside two standing bags on four
/// nodes: two options, a pinned server, links and elastic memory steps.
#[test]
fn a_database_clients_arrival_makes_a_pinned_number_of_allocations() {
    assert_eq!(arrival_cost(4, 2, 11, "DBclient", &fig3()), (4868, 121));
}

/// A scan's scratch: cloning a 128-node full mesh (8,128 links) copies two
/// vectors and shares every declaration.
#[test]
fn cloning_a_large_cluster_copies_two_vectors() {
    let cluster = Cluster::from_rsl(&sp2_cluster(128)).unwrap();
    let before = allocations();
    let scratch = cluster.clone();
    assert_eq!(allocations() - before, 2);
    assert_eq!(scratch, cluster);
}
