//! What one read-path request costs the daemon, in-process and warm: wall
//! time, heap allocations, `read` calls and `write` calls per `heartbeat`,
//! empty `poll`, `metric`, `poll` carrying a choice and `status`.
//!
//! The server-side loop (`harmony_proto::serve_stream`) runs against an
//! in-memory peer in lockstep with it, over a controller with eight
//! standing instances (`harmony_bench::request_path`). The counts repeat
//! exactly on every machine, so `results/BENCH_request_path.json` carries
//! them for CI to pin (`--smoke` serves fewer requests; the counts are the
//! same); the times beside them do not. The `before` column is the same
//! loop measured the same way one commit before buffered frames, the
//! borrowing parser and metric handles; for `status`, before the snapshot
//! walked the instance and histogram tables once (it looked each instance
//! up by id and copied each histogram out by name).

use std::time::Instant;

use harmony_bench::request_path::{
    heartbeat, lead, metric, poll, round_robin, serve, warmed_controller, Cost, CountingAllocator,
    Peer, APP, INSTANCES,
};
use harmony_bench::{check, write_artifact, Table};
use harmony_proto::{handle_request, serve_stream, Request, SharedController};
use serde::Serialize;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What the loop cost before this path was rebuilt (ISSUE 20's table).
#[derive(Debug, Clone, Copy, Serialize)]
struct Before {
    ns: f64,
    allocations: u64,
    reads: usize,
    writes: usize,
}

#[derive(Debug, Serialize)]
struct Row {
    verb: &'static str,
    /// Wall time per request, fastest repetition (interference only ever
    /// slows one down); machine-dependent.
    /// `null` for the row that is too few requests to time.
    ns: Option<f64>,
    allocations: u64,
    reads: usize,
    writes: usize,
    before: Option<Before>,
}

#[derive(Debug, Serialize)]
struct Report {
    smoke: bool,
    instances: u64,
    requests_per_repetition: u64,
    repetitions: usize,
    rows: Vec<Row>,
}

/// The text of request `i`, addressed to instance `id`.
type Text = fn(u64, u64) -> String;

/// Wall time per request of one connection serving `requests`.
fn time_per_request(ctl: &SharedController, requests: &[String]) -> f64 {
    let mut peer = Peer::new(requests);
    let t0 = Instant::now();
    serve_stream(&mut peer, ctl);
    t0.elapsed().as_secs_f64() * 1e9 / requests.len() as f64
}

/// The one cost every request of `requests` is served at, if there is one.
fn steady_cost(ctl: &SharedController, lead: &[String], requests: &[String]) -> Option<Cost> {
    let costs = serve(ctl, lead, requests);
    costs.iter().all(|c| *c == costs[0]).then_some(costs[0])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (requests, repetitions) = if smoke { (2_000, 3) } else { (100_000, 9) };
    println!("Request path — what the daemon spends on one read-path request\n");

    let ctl = warmed_controller();
    let before = |ns, allocations| Some(Before { ns, allocations, reads: 2, writes: 1 });
    let verbs: [(&'static str, Text, Option<Before>); 3] = [
        ("heartbeat", |id, _| heartbeat(id), before(462.0, 11)),
        ("poll (empty)", |id, _| poll(id), before(529.0, 11)),
        ("metric", metric, before(917.0, 18)),
    ];
    let mut ok = true;
    let mut rows = Vec::new();
    for (verb, text, before) in verbs {
        let cost = steady_cost(&ctl, &lead(), &round_robin(400, text));
        ok &= check(&format!("every {verb} is served at one exact cost"), cost.is_some());
        let Some(cost) = cost else { continue };
        let batch = round_robin(requests, text);
        let ns = (0..repetitions).map(|_| time_per_request(&ctl, &batch)).reduce(f64::min);
        let Cost { allocations, reads, writes } = cost;
        rows.push(Row { verb, ns, allocations, reads, writes, before });
    }

    // A `poll` that carries a choice: re-attaching replays the chosen
    // values into the poll buffer. One reply per instance, so no time.
    for id in 1..=INSTANCES {
        handle_request(&ctl, &Request::Reattach { app: APP.into(), id });
    }
    let polls = round_robin(INSTANCES, |id, _| poll(id));
    if let Some(Cost { allocations, reads, writes }) = steady_cost(&ctl, &polls[..1], &polls[1..]) {
        let verb = "poll (carrying a choice)";
        rows.push(Row { verb, ns: None, allocations, reads, writes, before: None });
    }

    // A `status`: the operator's view, what `harmonyctl status` and `top`
    // send. Its reply is the controller's whole snapshot, so a batch of
    // them is a hundredth as long.
    let statuses = round_robin(400, |_, _| "status".to_string());
    let cost = steady_cost(&ctl, &statuses[..1], &statuses[1..]);
    ok &= check("every status is served at one exact cost", cost.is_some());
    if let Some(Cost { allocations, reads, writes }) = cost {
        let batch = round_robin(requests / 100, |_, _| "status".to_string());
        let ns = (0..repetitions).map(|_| time_per_request(&ctl, &batch)).reduce(f64::min);
        let before = Some(Before { ns: 16_140.0, allocations: 201, reads: 1, writes: 1 });
        rows.push(Row { verb: "status", ns, allocations, reads, writes, before });
    }

    let mut table = Table::new(vec![
        "verb",
        "ns",
        "allocations",
        "reads",
        "writes",
        "before: ns / allocations / reads",
    ]);
    for row in &rows {
        table.row(vec![
            row.verb.to_string(),
            row.ns.map_or("-".to_string(), |ns| format!("{ns:.0}")),
            row.allocations.to_string(),
            row.reads.to_string(),
            row.writes.to_string(),
            row.before.map_or("-".to_string(), |b| {
                format!("{:.0} / {} / {}", b.ns, b.allocations, b.reads)
            }),
        ]);
    }
    println!("{}", table.render());

    let allocations: Vec<u64> = rows.iter().map(|r| r.allocations).collect();
    ok &= check(
        "heartbeat ≤ 1, empty poll ≤ 2, metric ≤ 4 allocations",
        allocations.len() == 5 && allocations[0] <= 1 && allocations[1] <= 2 && allocations[2] <= 4,
    );
    ok &= check(
        "every request is one read and one write",
        rows.iter().all(|r| (r.reads, r.writes) == (1, 1)),
    );
    let report = Report {
        smoke,
        instances: INSTANCES,
        requests_per_repetition: requests,
        repetitions,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("\nwrote {}", write_artifact("BENCH_request_path.json", &json).display());
    if !ok {
        std::process::exit(1);
    }
}
