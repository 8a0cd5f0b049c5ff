//! Tier-1's view of the joint searches: `cargo test -q` at the root runs
//! no other test that calls one.
//!
//! On the shapes the committed optimizer artifacts were measured on — one
//! to three `FIG2B_BAG` on eight SP-2 nodes (`ablation_optimizer`) and the
//! four hostname-pinned bundles of `bench_optimizer` — `exhaustive` is held
//! equal to `exhaustive_baseline`, the objectives to the committed CSV, and
//! fixed-seed `annealing` runs to pinned decisions.

use harmony_bench::pinned_bag;
use harmony_core::{optimizer, Controller, ControllerConfig, DecisionRecord};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony_rsl::schema::parse_bundle_script;

fn bags(n: usize) -> Vec<String> {
    vec![FIG2B_BAG.to_string(); n]
}

fn pinned() -> Vec<String> {
    (0..4).map(pinned_bag).collect()
}

fn controller(scripts: &[String], coordinated_moves: bool) -> Controller {
    let cluster = Cluster::from_rsl(&sp2_cluster(8)).unwrap();
    let config = ControllerConfig { coordinated_moves, ..Default::default() };
    let mut ctl = Controller::new(cluster, config);
    for script in scripts {
        ctl.register(parse_bundle_script(script).unwrap()).unwrap();
    }
    ctl
}

/// The `objective` column of `results/ablation_optimizer.csv` for one
/// `(jobs, optimizer)` row, as committed.
fn committed_objective(jobs: usize, optimizer: &str) -> &'static str {
    let prefix = format!("{jobs},{optimizer},");
    include_str!("../results/ablation_optimizer.csv")
        .lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("no `{prefix}` row in the committed CSV"))
}

#[test]
fn exhaustive_equals_its_baseline_and_the_committed_objectives() {
    let shapes = [(Some(1), bags(1)), (Some(2), bags(2)), (Some(3), bags(3)), (None, pinned())];
    for (jobs, scripts) in shapes {
        let mut pruned = controller(&scripts, true);
        let mut reference = controller(&scripts, true);
        let greedy = pruned.objective_score();
        let rp = optimizer::exhaustive(&mut pruned, 1_000_000).unwrap();
        let rr = optimizer::exhaustive_baseline(&mut reference, 1_000_000).unwrap();
        assert_eq!(rp, rr, "{jobs:?}: decisions");
        for id in reference.instances() {
            assert_eq!(pruned.choice(&id, "config"), reference.choice(&id, "config"), "{id:?}");
        }
        let objective = pruned.objective_score();
        assert_eq!(objective.to_bits(), reference.objective_score().to_bits(), "{jobs:?}");
        match jobs {
            Some(jobs) => {
                // Greedy with coordinated moves already sits on the optimum.
                for (row, score) in [("exhaustive", objective), ("greedy+coordinated", greedy)] {
                    assert_eq!(format!("{score:.3}"), committed_objective(jobs, row), "{row}");
                }
            }
            None => assert_eq!(objective, 150.0),
        }
    }
}

fn rendered(records: &[DecisionRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            let from = r.from.as_deref().unwrap_or("-");
            format!(
                "{}.{} {from} -> {} = {}",
                r.instance.app, r.instance.id, r.to, r.objective_after
            )
        })
        .collect()
}

#[test]
fn fixed_seed_annealing_reproduces_its_pinned_decisions() {
    // The ablation's run (400 steps, four chains) from the coordinated
    // greedy placement: only the three-bag system has anything to move.
    for (jobs, want) in [
        (1, vec![]),
        (2, vec![]),
        (
            3,
            vec![
                "bag.2 run[workerNodes=4] -> run[workerNodes=2] = 1033.3333333333333",
                "bag.3 run[workerNodes=2] -> run[workerNodes=4] = 526.6666666666666",
            ],
        ),
    ] {
        let mut ctl = controller(&bags(jobs), true);
        let got = optimizer::annealing(&mut ctl, 400, 200.0, 42, 4).unwrap();
        assert_eq!(rendered(&got), want, "{jobs} job(s)");
        assert_eq!(format!("{:.3}", ctl.objective_score()), committed_objective(jobs, "annealing"));
    }
    assert!(optimizer::annealing(&mut controller(&pinned(), true), 400, 200.0, 42, 4)
        .unwrap()
        .is_empty());

    // Two chains of three steps from the uncoordinated placement stop well
    // short of the optimum: what they commit depends on every draw of both
    // chains and on the order the chains' bests are merged in.
    let mut ctl = controller(&bags(3), false);
    let got = optimizer::annealing(&mut ctl, 3, 200.0, 7, 2).unwrap();
    assert_eq!(
        rendered(&got),
        [
            "bag.2 run[workerNodes=8] -> run[workerNodes=2] = 1080",
            "bag.3 run[workerNodes=8] -> run[workerNodes=4] = 793.3333333333334",
        ]
    );
    let mut ctl = controller(&pinned(), false);
    let got = optimizer::annealing(&mut ctl, 3, 200.0, 7, 2).unwrap();
    assert_eq!(
        rendered(&got),
        [
            "app0.1 wide[t=4] -> wide[t=2] = 187.5",
            "app2.1 wide[t=4] -> wide[t=2] = 225",
            "app3.1 wide[t=4] -> wide[t=3] = 237.5",
        ]
    );
}
