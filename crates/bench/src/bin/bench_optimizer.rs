//! Joint-search bench: instance count × optimizer kind.
//!
//! Measures the exhaustive search (`optimizer::exhaustive`: facts-pruned,
//! incremental) against its reference (`exhaustive_baseline`: the seed
//! implementation's cost profile — fresh cluster clone and full re-match
//! per assignment, nothing skipped) and writes
//! `results/BENCH_optimizer.json` with wall time, assignments/second, and
//! the reached objective per configuration.
//!
//! `--smoke` runs a tiny sweep (used by CI to keep the artifact parsing
//! honest without paying for the full measurement).

use std::time::Instant;

use harmony_bench::{check, pinned_bag, write_artifact, Table};
use harmony_core::{optimizer, Controller, ControllerConfig};
use harmony_resources::Cluster;
use harmony_rsl::schema::parse_bundle_script;
use serde::Serialize;

const NODES: usize = 8;

/// Bundles in the hostname-pinned profile (each pinned to its own pair of
/// nodes, so the facts engine splits the joint search into independent
/// components).
const PINNED_BUNDLES: usize = 4;

#[derive(Debug, Serialize)]
struct BenchRow {
    bundles: usize,
    nodes: usize,
    optimizer: String,
    reps: u32,
    /// Mean wall time of one full search, milliseconds.
    wall_ms: f64,
    /// Joint assignments evaluated per second (0 for greedy, which does
    /// not enumerate the joint space).
    assignments_per_sec: f64,
    objective: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    nodes: usize,
    smoke: bool,
    rows: Vec<BenchRow>,
    /// Every `exhaustive` row reached exactly the objective of its
    /// `exhaustive-baseline` row (the pinned pair included).
    objective_identical: bool,
    /// Wall-time ratio `exhaustive-baseline / exhaustive` at the largest
    /// swept bundle count.
    speedup_vs_baseline: f64,
}

fn setup(scripts: &[String]) -> Controller {
    let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(NODES)).unwrap();
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    for script in scripts {
        ctl.register(parse_bundle_script(script).unwrap()).unwrap();
    }
    ctl
}

/// Times `reps` runs of `run` (fresh controller each), returning the mean
/// wall ms, evaluated assignments per second, and the final objective.
fn measure(scripts: &[String], reps: u32, run: fn(&mut Controller)) -> (f64, f64, f64) {
    let mut total_s = 0.0f64;
    let mut total_evals = 0u64;
    let mut objective = f64::INFINITY;
    for _ in 0..reps {
        let mut c = setup(scripts);
        let before = c.metrics().counter("controller.optimizer.evals");
        let t0 = Instant::now();
        run(&mut c);
        total_s += t0.elapsed().as_secs_f64();
        total_evals += c.metrics().counter("controller.optimizer.evals") - before;
        objective = c.objective_score();
    }
    let wall_ms = total_s * 1e3 / reps as f64;
    let aps = if total_s > 0.0 { total_evals as f64 / total_s } else { 0.0 };
    (wall_ms, aps, objective)
}

fn greedy(c: &mut Controller) {
    c.reevaluate().unwrap();
}

fn baseline(c: &mut Controller) {
    optimizer::exhaustive_baseline(c, 1_000_000).unwrap();
}

fn exhaustive(c: &mut Controller) {
    optimizer::exhaustive(c, 1_000_000).unwrap();
}

fn annealing(c: &mut Controller) {
    optimizer::annealing(c, 300, 100.0, 42, 4).unwrap();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, reps): (&[usize], u32) = if smoke { (&[2], 2) } else { (&[2, 3, 4], 12) };
    println!("Joint-search scalability — {NODES} nodes\n");

    // The FIG2B sweep, then the facts-pruning profile: bundles pinned to
    // disjoint node pairs, with dominated variable choices — the static
    // facts engine splits the joint search into independent components and
    // drops candidates.
    type Variant = (&'static str, fn(&mut Controller));
    let sweep: [Variant; 4] = [
        ("greedy", greedy),
        ("exhaustive-baseline", baseline),
        ("exhaustive", exhaustive),
        ("annealing", annealing),
    ];
    let pinned: [Variant; 2] = [("pinned-baseline", baseline), ("pinned-exhaustive", exhaustive)];
    let mut profiles: Vec<(Vec<String>, u32, &[Variant])> = sizes
        .iter()
        .map(|&n| (vec![harmony_rsl::listings::FIG2B_BAG.to_string(); n], reps, &sweep[..]))
        .collect();
    profiles.push(((0..PINNED_BUNDLES).map(pinned_bag).collect(), reps * 2, &pinned[..]));

    let mut table = Table::new(vec!["bundles", "optimizer", "wall (ms)", "asg/s", "objective (s)"]);
    let mut rows: Vec<BenchRow> = Vec::new();
    for (scripts, reps, variants) in &profiles {
        for &(name, run) in *variants {
            let (wall_ms, aps, objective) = measure(scripts, *reps, run);
            table.row(vec![
                scripts.len().to_string(),
                name.to_string(),
                format!("{wall_ms:.3}"),
                format!("{aps:.0}"),
                format!("{objective:.1}"),
            ]);
            rows.push(BenchRow {
                bundles: scripts.len(),
                nodes: NODES,
                optimizer: name.to_string(),
                reps: *reps,
                wall_ms,
                assignments_per_sec: aps,
                objective,
            });
        }
    }
    println!("{}", table.render());

    // Each search row against the reference row of the same profile.
    let pair = |slow: &str, fast: &str, bundles: usize| {
        let row = |name: &str| {
            rows.iter()
                .find(|r| r.optimizer == name && r.bundles == bundles)
                .expect("row was measured")
        };
        (row(slow), row(fast))
    };
    let swept: Vec<_> =
        sizes.iter().map(|&n| pair("exhaustive-baseline", "exhaustive", n)).collect();
    let pinned_pair = pair("pinned-baseline", "pinned-exhaustive", PINNED_BUNDLES);
    let objective_identical =
        swept.iter().chain([&pinned_pair]).all(|(slow, fast)| slow.objective == fast.objective);
    let ratio = |(slow, fast): &(&BenchRow, &BenchRow)| slow.wall_ms / fast.wall_ms;
    let speedup = ratio(swept.last().expect("at least one swept size"));
    let pinned_speedup = ratio(&pinned_pair);

    let report = BenchReport {
        nodes: NODES,
        smoke,
        rows,
        objective_identical,
        speedup_vs_baseline: speedup,
    };
    let path =
        write_artifact("BENCH_optimizer.json", &serde_json::to_string_pretty(&report).unwrap());
    println!("wrote {}", path.display());

    println!("\nShape checks");
    let mut ok = check("exhaustive and baseline objectives identical on every profile", {
        objective_identical
    });
    if !smoke {
        let napps = sizes.last().unwrap();
        println!("  exhaustive vs baseline speedup at {napps} bundles: {speedup:.2}x");
        ok &= check("exhaustive >= 3x faster than the seed path", speedup >= 3.0);
        println!("  exhaustive vs baseline speedup on the pinned profile: {pinned_speedup:.2}x");
        ok &= check("components + facts >= 3x faster than the seed path", pinned_speedup >= 3.0);
    }
    if !ok {
        std::process::exit(1);
    }
}
