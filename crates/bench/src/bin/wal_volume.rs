//! WAL volume of the read path against how often the controller clock moves.
//!
//! A `heartbeat`/`poll`/`metric` renews its lease by raising the
//! instance's touch stamp to the controller clock, and a `Touch` reaches
//! the WAL only when it raises the stamp. So the log grows with *clock
//! advances × instances touched*, not with the request rate: `harmonyd`
//! moves its clock on the 2 s periodic pass (5–50 ms under `--coalesce`),
//! thousands of requests apart.
//!
//! This binary drives the benchmark's seeded steady mix (40 % heartbeat,
//! 40 % poll, 20 % metric over 8 standing bags) in-process through
//! `handle_request` against a `StateStore`, advancing the clock every
//! K ∈ {1, 10, 1 000, never} operations. K = 1 is the side where nothing
//! can be elided — every touch finds a newer clock, ≈ 1.2 records per
//! operation as before; K ≥ 1 000 is the side production sits on. The
//! counts repeat on every machine, so `results/BENCH_wal_volume.json`
//! carries them for CI to pin (`--smoke` runs a shorter mix); the reopen
//! times beside them do not.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use harmony_bench::{check, write_artifact, Table};
use harmony_core::{Controller, ControllerConfig, StateStore, WalEvent};
use harmony_proto::{handle_request, Request, Response, SharedController};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony_wal::{read_wal, StateDir};
use parking_lot::RwLock;
use serde::Serialize;

const SEED: u64 = 3;
const INSTANCES: usize = 8;
/// Operations between clock advances; `None` never advances.
const ADVANCE_EVERY: [Option<u64>; 4] = [Some(1), Some(10), Some(1000), None];

#[derive(Debug, Serialize)]
struct Row {
    /// Operations between two clock advances (`null`: the clock never
    /// moves after set-up).
    advance_every: Option<u64>,
    /// WAL records the mix appended (set-up excluded).
    records: u64,
    records_per_op: f64,
    bytes_per_op: f64,
    touch_records: u64,
    poll_records: u64,
    metric_records: u64,
    /// Share of the mix's touches (one per operation) that found their
    /// stamp already at the clock and logged nothing.
    touches_elided: f64,
    /// Wall time to reopen the directory: load the snapshot, replay every
    /// record, write the next snapshot. Machine-dependent.
    reopen_ms: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    smoke: bool,
    seed: u64,
    instances: usize,
    ops: u64,
    rows: Vec<Row>,
}

/// Operation `index` of the benchmark's steady mix (`benchmark/src/gen.rs`):
/// splitmix64 of `(seed, index)` picks 40 % heartbeat, 40 % poll, 20 %
/// metric and a uniform instance.
fn request_at(index: u64, population: &[(String, u64)]) -> Request {
    let mut z = SEED.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let r = z ^ (z >> 31);
    let (app, id) = population[((r >> 8) % population.len() as u64) as usize].clone();
    match r % 5 {
        0 | 1 => Request::Heartbeat { app, id },
        2 | 3 => Request::Poll { app, id },
        _ => Request::Metric {
            name: format!("{app}.{id}.response_time"),
            time: (index / 1000) as f64 * 0.01,
            value: 1.0 + ((r >> 24) % 1000) as f64 / 100.0,
        },
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-wal-volume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Records by variant, and bytes, of generation 1's WAL.
fn read_log(dir: &Path) -> (Vec<&'static str>, u64) {
    let path = StateDir::open(dir).expect("state dir opens").wal_path(1);
    let read = read_wal(&path).expect("wal reads");
    let variants = read
        .records
        .iter()
        .map(|r| WalEvent::decode(r).expect("wal record parses").variant())
        .collect();
    (variants, path.metadata().expect("wal metadata").len())
}

fn run_row(advance_every: Option<u64>, ops: u64) -> Row {
    let dir = scratch(&advance_every.map_or("never".to_string(), |k| k.to_string()));
    let fresh = || {
        let cluster = Cluster::from_rsl(&sp2_cluster(8)).expect("sp2 cluster parses");
        Controller::new(cluster, ControllerConfig::default())
    };
    let (ctl, mut store) = StateStore::open(&dir, fresh).expect("state dir opens");
    store.set_snapshot_every(0);
    let shared: SharedController = Arc::new(RwLock::new(ctl));

    let mut population = Vec::new();
    for _ in 0..INSTANCES {
        let Response::Registered { app, id } =
            handle_request(&shared, &Request::Startup { app: "bag".into() })
        else {
            panic!("startup must register")
        };
        let script = FIG2B_BAG.replacen("bag:1", &format!("bag:{id}"), 1);
        let placed = handle_request(&shared, &Request::Bundle { app: app.clone(), id, script });
        assert_eq!(placed, Response::Ok);
        population.push((app, id));
    }
    store.sync().expect("wal syncs");
    let (setup_records, setup_bytes) = read_log(&dir);

    for index in 0..ops {
        if let Some(k) = advance_every.filter(|k| index % k == 0) {
            // 10 µs of controller time per operation: the benchmark's
            // 10 ms per 1 000.
            shared.write().set_time((index / k) as f64 * (k as f64 / 1e5));
        }
        let reply = handle_request(&shared, &request_at(index, &population));
        assert!(matches!(reply, Response::Ok | Response::Update { .. }), "op {index}: {reply:?}");
    }
    store.sync().expect("wal syncs");
    let live = shared.read().persisted_state().recovery_fingerprint();
    drop((shared, store));

    let (variants, bytes) = read_log(&dir);
    let mix = &variants[setup_records.len()..];
    let count = |variant: &str| mix.iter().filter(|v| **v == variant).count() as u64;
    let t0 = Instant::now();
    let (recovered, _store) = StateStore::open(&dir, fresh).expect("state dir reopens");
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovered.recovery_info().expect("recovered").replayed, variants.len() as u64);
    assert_eq!(recovered.persisted_state().recovery_fingerprint(), live, "recovery diverged");
    let _ = std::fs::remove_dir_all(&dir);

    let touch_records = count("touch");
    Row {
        advance_every,
        records: mix.len() as u64,
        records_per_op: mix.len() as f64 / ops as f64,
        bytes_per_op: (bytes - setup_bytes) as f64 / ops as f64,
        touch_records,
        poll_records: count("poll"),
        metric_records: count("metric"),
        touches_elided: 1.0 - touch_records as f64 / ops as f64,
        reopen_ms,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ops = if smoke { 10_000 } else { 250_000 };
    println!("WAL volume — records per read-path operation vs clock-advance interval\n");
    let mut table = Table::new(vec![
        "advance every",
        "records",
        "records/op",
        "bytes/op",
        "touch",
        "poll",
        "metric",
        "touches elided",
        "reopen (ms)",
    ]);
    let rows: Vec<Row> = ADVANCE_EVERY.iter().map(|&k| run_row(k, ops)).collect();
    for row in &rows {
        table.row(vec![
            row.advance_every.map_or("never".to_string(), |k| format!("{k} ops")),
            row.records.to_string(),
            format!("{:.4}", row.records_per_op),
            format!("{:.1}", row.bytes_per_op),
            row.touch_records.to_string(),
            row.poll_records.to_string(),
            row.metric_records.to_string(),
            format!("{:.1} %", row.touches_elided * 100.0),
            format!("{:.1}", row.reopen_ms),
        ]);
    }
    println!("{}", table.render());

    let (every_op, never) = (&rows[0], &rows[3]);
    let mut ok = true;
    ok &= check(
        "a clock that moves before every operation elides nothing after the first (one touch per op)",
        every_op.touch_records == ops - 1,
    );
    ok &= check(
        "a clock that never moves logs no touch at all: the log is the samples and the drains",
        never.touch_records == 0 && never.records == never.metric_records + never.poll_records,
    );
    ok &= check(
        "samples and drains do not depend on the clock",
        rows.iter().all(|r| {
            (r.metric_records, r.poll_records) == (never.metric_records, never.poll_records)
        }),
    );
    ok &= check(
        "touch records are bounded by clock advances × instances",
        rows.iter().all(|r| {
            r.advance_every.is_none_or(|k| r.touch_records <= ops.div_ceil(k) * INSTANCES as u64)
        }),
    );
    let report = Report { smoke, seed: SEED, instances: INSTANCES, ops, rows };
    let json = serde_json::to_string_pretty(&report).unwrap();
    println!("\nwrote {}", write_artifact("BENCH_wal_volume.json", &json).display());
    if !ok {
        std::process::exit(1);
    }
}
