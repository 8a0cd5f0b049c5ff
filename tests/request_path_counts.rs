//! The read path's three headline costs where tier-1 sees them: what the
//! daemon allocates, reads and writes per `heartbeat`, empty `poll` and
//! `metric`. `crates/proto/tests/request_allocs.rs` pins the same path in
//! full (and says what each allocation is);
//! `results/BENCH_request_path.json` is the committed row. (The test's name
//! keeps the three allocations a `metric` made while it journaled each
//! report; it now makes one.)

use harmony_bench::request_path::{
    heartbeat, lead, metric, poll, round_robin, serve, warmed_controller, Cost, CountingAllocator,
};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn heartbeat_poll_and_metric_cost_one_read_one_write_and_one_two_three_allocations() {
    let ctl = warmed_controller();
    let verbs: [(&str, Vec<String>, u64); 3] = [
        ("heartbeat", round_robin(200, |id, _| heartbeat(id)), 1),
        ("empty poll", round_robin(200, |id, _| poll(id)), 2),
        ("metric", round_robin(200, metric), 1),
    ];
    for (verb, requests, allocations) in verbs {
        let expected = Cost { allocations, reads: 1, writes: 1 };
        for cost in serve(&ctl, &lead(), &requests) {
            assert_eq!(cost, expected, "{verb}");
        }
    }
}
