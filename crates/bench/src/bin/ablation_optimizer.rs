//! Ablation: greedy one-bundle-at-a-time vs exhaustive joint search vs
//! simulated annealing.
//!
//! §4.3: "This is a simple form of greedy optimization that will not
//! necessarily produce a globally optimal value, but it is simple and easy
//! to implement." On small systems the exhaustive optimizer gives the true
//! optimum, so the gap is measurable.

use std::time::Instant;

use harmony_bench::{check, write_artifact, Table};
use harmony_core::{optimizer, Controller, ControllerConfig};
use harmony_resources::Cluster;
use harmony_rsl::schema::parse_bundle_script;

fn setup(napps: usize, coordinated: bool) -> Controller {
    let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(8)).unwrap();
    let config = ControllerConfig { coordinated_moves: coordinated, ..Default::default() };
    let mut ctl = Controller::new(cluster, config);
    for _ in 0..napps {
        ctl.register(parse_bundle_script(harmony_rsl::listings::FIG2B_BAG).unwrap()).unwrap();
    }
    ctl
}

fn main() {
    println!("Ablation — optimizer (greedy / greedy+coordinated / exhaustive / annealing)\n");
    let mut table = Table::new(vec!["jobs", "optimizer", "objective (s)", "time (ms)"]);
    let mut ok = true;
    let mut csv_rows = Vec::new();

    for napps in [1usize, 2, 3] {
        // Plain greedy (single-bundle moves only, the paper's literal §4.3).
        let t0 = Instant::now();
        let greedy = setup(napps, false);
        let greedy_score = greedy.objective_score();
        let greedy_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Greedy with coordinated pairwise moves (the §1 scenario).
        let t0 = Instant::now();
        let coord = setup(napps, true);
        let coord_score = coord.objective_score();
        let coord_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Exhaustive joint optimum.
        let t0 = Instant::now();
        let mut exh = setup(napps, true);
        optimizer::exhaustive(&mut exh, 1_000_000).unwrap();
        let exh_score = exh.objective_score();
        let exh_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Simulated annealing.
        let t0 = Instant::now();
        let mut ann = setup(napps, true);
        optimizer::annealing(&mut ann, 400, 200.0, 42, 4).unwrap();
        let ann_score = ann.objective_score();
        let ann_ms = t0.elapsed().as_secs_f64() * 1e3;

        for (name, score, ms) in [
            ("greedy", greedy_score, greedy_ms),
            ("greedy+coordinated", coord_score, coord_ms),
            ("exhaustive", exh_score, exh_ms),
            ("annealing", ann_score, ann_ms),
        ] {
            table.row(vec![
                napps.to_string(),
                name.to_string(),
                format!("{score:.1}"),
                format!("{ms:.1}"),
            ]);
            csv_rows.push(format!("{napps},{name},{score:.3}"));
        }

        ok &= check(
            &format!("{napps} job(s): exhaustive ≤ coordinated ≤ plain greedy"),
            exh_score <= coord_score + 1e-6 && coord_score <= greedy_score + 1e-6,
        );
        ok &= check(
            &format!("{napps} job(s): annealing reaches the exhaustive optimum"),
            (ann_score - exh_score).abs() < 1e-6,
        );
        if napps == 2 {
            ok &= check(
                &format!(
                    "2 jobs: plain greedy is stuck at a local optimum \
                     ({greedy_score:.0} > optimal {exh_score:.0})"
                ),
                greedy_score > exh_score + 1.0,
            );
            ok &= check(
                "2 jobs: coordinated moves recover the optimum",
                (coord_score - exh_score).abs() < 1e-6,
            );
        }
    }
    println!("{}", table.render());
    // Wall time stays on stdout: the CSV is a figure, rerun and diffed.
    let csv = format!("jobs,optimizer,objective\n{}\n", csv_rows.join("\n"));
    let path = write_artifact("ablation_optimizer.csv", &csv);
    println!("wrote {}", path.display());
    if !ok {
        std::process::exit(1);
    }
}
