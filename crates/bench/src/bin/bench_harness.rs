//! Simulation-harness throughput bench.
//!
//! Measures what a harness seed costs — whole-stack runs per second and
//! schedule ops per second, with and without decision coalescing — plus
//! the price of shrinking a planted-bug failure, and writes
//! `results/BENCH_harness.json`. The numbers size CI sweeps: seeds/sec ×
//! budget = affordable sweep width.
//!
//! `--smoke` runs a narrow sweep (used by CI to keep the artifact
//! parsing honest without paying for the full measurement).

use std::time::Instant;

use harmony_bench::{check, write_artifact, Table};
use harmony_harness::{generate, run_schedule, shrink, PlantedBug};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct BenchRow {
    /// `inline` or `coalesced`: the two configurations
    /// `harmony_harness::config_for_seed` hands out.
    config: String,
    seeds: usize,
    ops: usize,
    wall_ms: f64,
    seeds_per_sec: f64,
    ops_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    smoke: bool,
    rows: Vec<BenchRow>,
    /// Every run repeated with an identical fingerprint.
    fingerprints_stable: bool,
    /// No seed in the sweep violated an oracle.
    all_clean: bool,
    /// Ops in the planted-reaper-bug schedule before and after shrinking,
    /// and the shrink cost in candidate runs.
    shrink_from_ops: usize,
    shrink_to_ops: usize,
    shrink_runs: usize,
    shrink_wall_ms: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let per_class: usize = if smoke { 6 } else { 45 };
    println!("Simulation-harness throughput — {per_class} seeds per configuration\n");

    let mut rows = Vec::new();
    let mut stable = true;
    let mut clean = true;
    // `config_for_seed` turns coalescing on for every fifth seed.
    for (config, coalesced) in [("inline", false), ("coalesced", true)] {
        let seeds: Vec<u64> = (0..).filter(|s| (s % 5 == 0) == coalesced).take(per_class).collect();
        let schedules: Vec<_> = seeds.iter().map(|&s| generate(s)).collect();
        let ops: usize = schedules.iter().map(|s| s.ops.len()).sum();
        let start = Instant::now();
        for schedule in &schedules {
            let a = run_schedule(schedule, PlantedBug::None);
            let b = run_schedule(schedule, PlantedBug::None);
            stable &= a.fingerprint == b.fingerprint;
            clean &= a.violation.is_none();
        }
        // Each seed ran twice (the determinism oracle rides along, as in
        // `harness sweep`), so throughput counts 2× the work.
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        rows.push(BenchRow {
            config: config.to_string(),
            seeds: seeds.len(),
            ops,
            wall_ms,
            seeds_per_sec: 2.0 * seeds.len() as f64 / (wall_ms / 1000.0),
            ops_per_sec: 2.0 * ops as f64 / (wall_ms / 1000.0),
        });
    }

    // Shrink cost on the first seed the planted reaper bug fails.
    let failing = (0..64)
        .map(generate)
        .find(|s| run_schedule(s, PlantedBug::ReaperSkipsTouchFold).violation.is_some())
        .expect("some seed catches the planted bug");
    let start = Instant::now();
    let shrunk = shrink::shrink(&failing, PlantedBug::ReaperSkipsTouchFold).expect("still fails");
    let shrink_wall_ms = start.elapsed().as_secs_f64() * 1000.0;

    let mut table = Table::new(vec!["config", "seeds", "ops", "wall (ms)", "seeds/s", "ops/s"]);
    for r in &rows {
        table.row(vec![
            r.config.clone(),
            r.seeds.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.1}", r.seeds_per_sec),
            format!("{:.0}", r.ops_per_sec),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nshrink: {} -> {} ops in {} runs ({:.1} ms)",
        failing.ops.len(),
        shrunk.schedule.ops.len(),
        shrunk.runs,
        shrink_wall_ms
    );

    let ok = check("fingerprints stable across reruns", stable)
        & check("all seeds clean", clean)
        & check("planted bug shrinks to <= 20 ops", shrunk.schedule.ops.len() <= 20);

    let report = BenchReport {
        smoke,
        rows,
        fingerprints_stable: stable,
        all_clean: clean,
        shrink_from_ops: failing.ops.len(),
        shrink_to_ops: shrunk.schedule.ops.len(),
        shrink_runs: shrunk.runs,
        shrink_wall_ms,
    };
    let path = write_artifact(
        "BENCH_harness.json",
        &serde_json::to_string_pretty(&report).expect("serialize report"),
    );
    println!("\nwrote {}", path.display());
    assert!(ok, "bench gates failed");
}
