//! What one arrival costs the planner, counted in heap allocations: the
//! `bundle` that places a Figure 2(b) bag beside two standing ones on a
//! four-node SP-2, and the `end` that retires it, each with the scans it
//! triggers. A trial builds no environment and clones no model — a
//! placement reads the allocation through a view — so a map, a key string
//! or a boxed model that creeps back into a trial moves these counts. (While
//! every placed candidate built its environment as a map and boxed a cloned
//! model, the same `bundle` made 4,927 allocations and the `end` 1,357.)

use std::sync::Arc;

use harmony_bench::request_path::{allocations, CountingAllocator};
use harmony_core::{Controller, ControllerConfig};
use harmony_proto::{handle_request, Request, Response, SharedController};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use parking_lot::RwLock;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const APP: &str = "bag";

/// Registers one instance and returns its `bundle` and `end` requests.
fn arrive(ctl: &SharedController) -> (Request, Request) {
    let Response::Registered { id, .. } =
        handle_request(ctl, &Request::Startup { app: APP.into() })
    else {
        panic!("startup registers")
    };
    let script = FIG2B_BAG.replacen("bag:1", &format!("{APP}:{id}"), 1);
    (Request::Bundle { app: APP.into(), id, script }, Request::End { app: APP.into(), id })
}

/// Allocations `req` makes, answered `ok`.
fn counted(ctl: &SharedController, req: &Request) -> u64 {
    let before = allocations();
    let reply = handle_request(ctl, req);
    let made = allocations() - before;
    assert_eq!(reply, Response::Ok, "{req:?}");
    made
}

#[test]
fn an_arrivals_bundle_and_end_make_a_pinned_number_of_allocations() {
    let cluster = Cluster::from_rsl(&sp2_cluster(4)).unwrap();
    let ctl: SharedController =
        Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())));
    for _ in 0..2 {
        let (bundle, _) = arrive(&ctl);
        assert_eq!(handle_request(&ctl, &bundle), Response::Ok);
    }
    // Warm-up cycles create every histogram, counter and journal slot an
    // arrival touches.
    let mut costs = Vec::new();
    for _ in 0..11 {
        let (bundle, end) = arrive(&ctl);
        costs.push((counted(&ctl, &bundle), counted(&ctl, &end)));
    }
    // The decision and retirement histories grow for the controller's
    // lifetime, so a cycle that doubles one of them makes one or two more
    // allocations: the fewest over the last three cycles is an arrival's
    // own cost.
    let last = &costs[costs.len() - 3..];
    let bundle = last.iter().map(|c| c.0).min().unwrap();
    let end = last.iter().map(|c| c.1).min().unwrap();
    assert_eq!((bundle, end), (2541, 704), "all cycles: {costs:?}");
}
