//! What a request costs the daemon, as exact counts: heap allocations,
//! `read` calls and `write` calls per request of the server-side loop
//! (`serve_stream`), for a warmed controller with eight instances.
//!
//! The counts are the property the read path's speed rests on — a request
//! is one `read`, one `write`, and the strings its `Request` and
//! `Response` own — so they are pinned exactly: a change that adds an
//! allocation or a system call to the path fails here, and one that
//! removes some lowers the pins.

use harmony_bench::request_path::{
    heartbeat, lead, metric, poll, round_robin, serve, warmed_controller, Cost, CountingAllocator,
    APP, INSTANCES,
};
use harmony_proto::{handle_request, Request, Response, SharedController};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The one cost every request of `requests` is served at.
fn steady_cost(ctl: &SharedController, requests: &[String]) -> Cost {
    let costs = serve(ctl, &lead(), requests);
    assert!(costs.iter().all(|c| *c == costs[0]), "not one steady cost: {costs:?}");
    costs[0]
}

#[test]
fn a_request_costs_one_read_one_write_and_the_strings_it_keeps() {
    let ctl = warmed_controller();
    let cost = |allocations| Cost { allocations, reads: 1, writes: 1 };

    // `heartbeat`: the application name the `Request` owns.
    assert_eq!(steady_cost(&ctl, &round_robin(400, |id, _| heartbeat(id))), cost(1));
    // Empty `poll`: the name in the `Request`, and again in the `Response`.
    assert_eq!(steady_cost(&ctl, &round_robin(400, |id, _| poll(id))), cost(2));
    // `metric`: the metric name the `Request` owns — the histogram and
    // the reply cost nothing, and nothing is journaled.
    assert_eq!(steady_cost(&ctl, &round_robin(400, metric)), cost(1));
    // (11 / 11 / 18 allocations and two reads each before buffered frames,
    // the borrowing parser and metric handles.)

    // A `poll` that carries a choice: re-attaching replays the chosen
    // values into the poll buffer.
    for id in 1..=INSTANCES {
        let reattach = handle_request(&ctl, &Request::Reattach { app: APP.into(), id });
        assert_eq!(reattach, Response::Registered { app: APP.into(), id });
    }
    let polls = round_robin(INSTANCES, |id, _| poll(id));
    // The first such reply is in the lead: it grows the connection's reply
    // buffer to the size the others then find.
    let costs = serve(&ctl, &polls[..1], &polls[1..]);
    // The two names as above and the `Vec<VarUpdate>`; then, per update, its
    // path rendered to a string that grows as it is written (the values
    // move out of the buffer, whose replacement is free).
    assert_eq!(costs, vec![cost(14); polls.len() - 1], "polls carrying a choice");
}
