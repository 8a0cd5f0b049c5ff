//! Extension experiment: controller decision latency vs system size.
//!
//! §3.1 justifies a scripting-language controller because "updates in
//! Harmony are on the order of seconds, not micro-seconds". This binary
//! measures arrival placement and full re-evaluation latency as the
//! cluster and population grow, verifying the Rust controller keeps
//! orders of magnitude of headroom under that budget.
//!
//! Beside the timings it records what the planner did, exactly: the
//! `controller.planner.{scans,trials,matches}` counters per row. Those
//! repeat on every machine, so `results/BENCH_scalability.json` carries
//! them for CI to pin (`--smoke` runs the first three rows), and the
//! fitted growth exponents of both latencies against the population.

use std::time::Instant;

use harmony_bench::{check, write_artifact, Table};
use harmony_core::{Controller, ControllerConfig};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony_rsl::schema::{parse_bundle_script, BundleSpec};
use serde::Serialize;

const ROWS: [(usize, usize); 5] = [(8, 2), (16, 4), (32, 8), (64, 12), (128, 24)];

#[derive(Debug, Serialize)]
struct Row {
    nodes: usize,
    apps: usize,
    /// Mean wall time of one arrival (placement plus the re-evaluation it
    /// triggers), ms.
    placement_ms: f64,
    /// Wall time of one full re-evaluation of the settled system, ms.
    reevaluate_ms: f64,
    decisions: usize,
    /// Planner scans over the whole row (every arrival and the
    /// re-evaluation).
    scans: u64,
    /// Move sets those scans decided.
    trials: u64,
    /// Matcher calls those scans made.
    matches: u64,
    /// The row's wall time over its trials, µs.
    us_per_trial: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    smoke: bool,
    rows: Vec<Row>,
    /// Least-squares slope of ln(placement ms) against ln(apps).
    placement_exponent: f64,
    /// Least-squares slope of ln(re-evaluate ms) against ln(apps).
    reevaluate_exponent: f64,
}

/// Least-squares slope of `ln y` against `ln x`.
fn growth_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let logs: Vec<(f64, f64)> = points.iter().map(|(x, y)| (x.ln(), y.ln())).collect();
    let (mx, my) =
        (logs.iter().map(|p| p.0).sum::<f64>() / n, logs.iter().map(|p| p.1).sum::<f64>() / n);
    let cov: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = logs.iter().map(|(x, _)| (x - mx).powi(2)).sum();
    cov / var
}

/// Registers `napps` bags on an `nodes`-node SP-2, then re-evaluates once.
fn run_row(nodes: usize, napps: usize, spec: &BundleSpec) -> Row {
    let cluster = Cluster::from_rsl(&sp2_cluster(nodes)).unwrap();
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    let t_row = Instant::now();
    for i in 0..napps {
        ctl.set_time(i as f64);
        ctl.register(spec.clone()).unwrap();
    }
    let placement_ms = t_row.elapsed().as_secs_f64() * 1e3 / napps as f64;
    let t0 = Instant::now();
    ctl.set_time(1e6);
    ctl.reevaluate().unwrap();
    let reevaluate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let row_us = t_row.elapsed().as_secs_f64() * 1e6;
    let count = |name: &str| ctl.metrics().counter(&format!("controller.planner.{name}"));
    let trials = count("trials");
    Row {
        nodes,
        apps: napps,
        placement_ms,
        reevaluate_ms,
        decisions: ctl.metrics().counter("controller.decisions") as usize,
        scans: count("scans"),
        trials,
        matches: count("matches"),
        us_per_trial: row_us / trials as f64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("Scalability — controller latency vs population and cluster size\n");
    let mut table = Table::new(vec![
        "nodes",
        "apps",
        "placement (ms)",
        "reevaluate (ms)",
        "decisions",
        "trials",
        "matches",
        "us/trial",
    ]);
    let spec = parse_bundle_script(FIG2B_BAG).unwrap();
    let mut rows = Vec::new();
    for &(nodes, napps) in &ROWS[..if smoke { 3 } else { ROWS.len() }] {
        // The fastest of three runs: the counts repeat exactly, the
        // timings do not (the first run of a process pays its warm-up).
        let row = (0..3)
            .map(|_| run_row(nodes, napps, &spec))
            .min_by(|a, b| a.us_per_trial.total_cmp(&b.us_per_trial))
            .expect("three runs");
        table.row(vec![
            nodes.to_string(),
            napps.to_string(),
            format!("{:.2}", row.placement_ms),
            format!("{:.2}", row.reevaluate_ms),
            row.decisions.to_string(),
            row.trials.to_string(),
            row.matches.to_string(),
            format!("{:.2}", row.us_per_trial),
        ]);
        rows.push(row);
    }
    println!("{}", table.render());

    let by_apps = |y: fn(&Row) -> f64| -> Vec<(f64, f64)> {
        rows.iter().map(|r| (r.apps as f64, y(r))).collect()
    };
    let report = Report {
        smoke,
        placement_exponent: growth_exponent(&by_apps(|r| r.placement_ms)),
        reevaluate_exponent: growth_exponent(&by_apps(|r| r.reevaluate_ms)),
        rows,
    };
    println!(
        "growth vs apps: placement ~ apps^{:.2}, re-evaluation ~ apps^{:.2}",
        report.placement_exponent, report.reevaluate_exponent
    );

    let worst_reeval_ms = report.rows.iter().map(|r| r.reevaluate_ms).fold(0.0, f64::max);
    let worst_ratio =
        report.rows.iter().map(|r| r.matches as f64 / r.trials as f64).fold(0.0, f64::max);
    let mut ok = true;
    ok &= check(
        &format!(
            "worst full re-evaluation ({worst_reeval_ms:.1} ms) sits under the \
             paper's seconds-scale budget"
        ),
        worst_reeval_ms < 2000.0,
    );
    ok &= check(
        &format!(
            "a pair scan shares its outer match (worst matches/trials {worst_ratio:.3} < 1.3)"
        ),
        worst_ratio < 1.3,
    );
    let json = serde_json::to_string_pretty(&report).unwrap();
    println!("\nwrote {}", write_artifact("BENCH_scalability.json", &json).display());
    if !smoke {
        println!("wrote {}", write_artifact("scalability.csv", &table.to_csv()).display());
    }
    if !ok {
        std::process::exit(1);
    }
}
