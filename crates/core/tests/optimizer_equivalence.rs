//! Equivalence properties of the rebuilt decision engine.
//!
//! Two invariants the parallel/incremental machinery must never bend:
//!
//! 1. Parallel exhaustive search returns *identical* `DecisionRecord`s to
//!    the serial scan, for any worker count (the deterministic
//!    `(score, assignment)` tie-break makes partition merges exact).
//! 2. The incremental prefix-reuse evaluator agrees with the fresh-clone
//!    reference evaluator on every assignment, in any visit order.
//!
//! Both are checked across a seeded family of randomized systems (bundle
//! counts, variable choices, memory/seconds/communication shapes, cluster
//! sizes, matcher strategies, objectives), >= 100 cases each.

use harmony_core::optimizer::{
    annealing_with_workers, exhaustive_baseline, exhaustive_pruned, exhaustive_with_workers,
    EvalCtx, IncrementalEval,
};
use harmony_core::{Controller, ControllerConfig, Objective, PruningMode};
use harmony_resources::{Cluster, Strategy};
use harmony_rsl::listings::sp2_cluster;
use harmony_rsl::schema::parse_bundle_script;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds one randomized system: a cluster of `nodes` SP-2 nodes and
/// `napps` single-option bundles with random variable choices and demands.
/// Everything is derived from `rng`, so a case is reproducible by seed.
fn random_system(rng: &mut StdRng) -> (ControllerConfig, usize, Vec<String>) {
    let nodes = rng.gen_range(2..=10usize);
    let napps = rng.gen_range(1..=4usize);
    let strategy = match rng.gen_range(0..3u32) {
        0 => Strategy::FirstFit,
        1 => Strategy::BestFit,
        _ => Strategy::WorstFit,
    };
    let objective = match rng.gen_range(0..3u32) {
        0 => Objective::MinAvgCompletionTime,
        1 => Objective::MinMakespan,
        _ => Objective::Blend(0.5),
    };
    let mut scripts = Vec::new();
    for i in 0..napps {
        let all = [1usize, 2, 3, 4, 6, 8];
        let nchoices = rng.gen_range(1..=3usize);
        let mut choices: Vec<usize> = Vec::new();
        while choices.len() < nchoices {
            let c = all[rng.gen_range(0..all.len())];
            if !choices.contains(&c) {
                choices.push(c);
            }
        }
        choices.sort_unstable();
        let choice_list = choices.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" ");
        let seconds = rng.gen_range(100..=2000u32);
        let memory = rng.gen_range(16..=160u32);
        let comm = rng.gen_range(0..=50u32);
        scripts.push(format!(
            "harmonyBundle app{i}:1 config {{\n  {{run\n    \
             {{variable workerNodes {{{choice_list}}}}}\n    \
             {{node worker {{replicate workerNodes}} \
             {{seconds {{{seconds} / workerNodes}}}} {{memory {memory}}}}}\n    \
             {{communication {{{comm} * workerNodes}}}}}}\n}}\n"
        ));
    }
    let config = ControllerConfig {
        matcher: harmony_resources::Matcher { strategy, elastic_extra: 0.0 },
        objective,
        ..Default::default()
    };
    (config, nodes, scripts)
}

fn build_controller(config: &ControllerConfig, nodes: usize, scripts: &[String]) -> Controller {
    let cluster = Cluster::from_rsl(&sp2_cluster(nodes)).unwrap();
    let mut c = Controller::new(cluster, config.clone());
    for s in scripts {
        // Some random demands exceed the cluster; an unplaced bundle is a
        // legitimate input to the joint optimizers, not a test failure.
        let _ = c.register(parse_bundle_script(s).unwrap());
    }
    c
}

/// A randomized system that also exercises the pruning axes: sometimes a
/// pair of bundles pinned to disjoint hosts (components), sometimes a
/// bundle with provably dominated variable choices.
fn random_pruning_system(rng: &mut StdRng) -> (ControllerConfig, usize, Vec<String>) {
    let (config, nodes, mut scripts) = random_system(rng);
    if rng.gen_bool(0.5) && nodes >= 4 {
        // Two bundles pinned to disjoint node pairs: the interference
        // partition should split them into independent components.
        for (b, lo) in [(0usize, 0usize), (1, 2)] {
            let h0 = format!("node{lo:02}.sp2");
            let h1 = format!("node{:02}.sp2", lo + 1);
            let secs = rng.gen_range(100..=900u32);
            scripts.push(format!(
                "harmonyBundle pin{b}:1 config {{ \
                 {{one {{node a {{seconds {secs}}} {{memory 16}} {{hostname {h0}}}}}}} \
                 {{two {{node a {{seconds {secs}}} {{memory 16}} {{hostname {h0}}}}} \
                      {{node b {{seconds {secs}}} {{memory 16}} {{hostname {h1}}}}}}} }}"
            ));
        }
    }
    if rng.gen_bool(0.5) {
        // Monotone performance over equal demands: every t but one is
        // provably dominated.
        let base = rng.gen_range(50..=500u32);
        scripts.push(format!(
            "harmonyBundle dom:1 config {{ {{run {{variable t {{1 2 4}}}} \
             {{node n {{seconds 60}} {{memory 16}}}} \
             {{performance {{{base} * t}}}}}} }}"
        ));
    }
    (config, nodes, scripts)
}

#[test]
fn pruned_search_is_bit_identical_on_random_systems() {
    // ISSUE acceptance: Verify mode bit-identical across >= 300 randomized
    // cases. Each case compares the plain scan, the Verify-mode run (which
    // internally asserts agreement and errors on divergence), and the
    // On-mode run.
    let mut failures = Vec::new();
    for case in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0xFAC7_0000 + case);
        let (config, nodes, scripts) = random_pruning_system(&mut rng);
        let mut plain = build_controller(&config, nodes, &scripts);
        let mut verify = build_controller(&config, nodes, &scripts);
        let mut on = build_controller(&config, nodes, &scripts);
        let rp = exhaustive_with_workers(&mut plain, 1_000_000, 1);
        let rv = exhaustive_pruned(&mut verify, 1_000_000, PruningMode::Verify);
        let ro = exhaustive_pruned(&mut on, 1_000_000, PruningMode::On);
        for (mode, r) in [("verify", &rv), ("on", &ro)] {
            let same = match (&rp, r) {
                (Ok(a), Ok(b)) => a == b,
                (Err(a), Err(b)) => a.to_string() == b.to_string(),
                _ => false,
            };
            if !same {
                failures.push(format!("case {case} ({mode}): {rp:?} vs {r:?}"));
            }
        }
        if verify.metrics().counter("controller.pruning.mismatches") != 0 {
            failures.push(format!("case {case}: verify recorded a mismatch"));
        }
        if plain.objective_score() != on.objective_score() {
            failures.push(format!("case {case}: objective diverged under pruning"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn parallel_exhaustive_equals_serial_on_random_systems() {
    let mut failures = Vec::new();
    for case in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0xE0_0000 + case);
        let (config, nodes, scripts) = random_system(&mut rng);
        let mut serial = build_controller(&config, nodes, &scripts);
        let mut parallel = build_controller(&config, nodes, &scripts);
        let workers = rng.gen_range(2..=6usize);
        let rs = exhaustive_with_workers(&mut serial, 1_000_000, 1);
        let rp = exhaustive_with_workers(&mut parallel, 1_000_000, workers);
        let same = match (&rs, &rp) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        if !same || serial.objective_score() != parallel.objective_score() {
            failures.push(format!("case {case} (workers {workers}): {rs:?} vs {rp:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn baseline_scan_equals_exhaustive_on_random_systems() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xBA_0000 + case);
        let (config, nodes, scripts) = random_system(&mut rng);
        let mut fast = build_controller(&config, nodes, &scripts);
        let mut slow = build_controller(&config, nodes, &scripts);
        let rf = exhaustive_with_workers(&mut fast, 1_000_000, 4);
        let rb = exhaustive_baseline(&mut slow, 1_000_000);
        match (rf, rb) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "case {case}"),
            (a, b) => panic!("case {case}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn incremental_eval_equals_fresh_eval_on_random_systems() {
    for case in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0x1C_0000 + case);
        let (config, nodes, scripts) = random_system(&mut rng);
        let mut c = build_controller(&config, nodes, &scripts);
        let ctx = EvalCtx::build(&mut c).unwrap();
        if ctx.is_empty() {
            continue;
        }
        let shape = ctx.shape();
        let mut inc = IncrementalEval::new(&ctx);
        // Odometer order: the prefix-reuse fast path.
        let space = ctx.search_space().min(256);
        let mut asg = vec![0usize; shape.len()];
        for step in 0..space {
            assert_eq!(
                inc.eval(&asg).unwrap(),
                ctx.eval_fresh(&asg).unwrap(),
                "case {case} odometer step {step} at {asg:?}"
            );
            if !next(&mut asg, &shape) {
                break;
            }
        }
        // Random revisit order: maximal prefix unwinding.
        for probe in 0..32 {
            let asg: Vec<usize> = shape.iter().map(|&n| rng.gen_range(0..n)).collect();
            assert_eq!(
                inc.eval(&asg).unwrap(),
                ctx.eval_fresh(&asg).unwrap(),
                "case {case} probe {probe} at {asg:?}"
            );
        }
    }
}

#[test]
fn annealing_is_thread_count_invariant_on_random_systems() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xA0_0000 + case);
        let (config, nodes, scripts) = random_system(&mut rng);
        let mut one = build_controller(&config, nodes, &scripts);
        let mut many = build_controller(&config, nodes, &scripts);
        let r1 = annealing_with_workers(&mut one, 120, 60.0, case, 3, 1);
        let rn = annealing_with_workers(&mut many, 120, 60.0, case, 3, 4);
        match (r1, rn) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "case {case}"),
            (a, b) => panic!("case {case}: {a:?} vs {b:?}"),
        }
    }
}

/// Lexicographic odometer step (last index fastest), matching the
/// optimizer's enumeration order.
fn next(assignment: &mut [usize], shape: &[usize]) -> bool {
    for i in (0..assignment.len()).rev() {
        assignment[i] += 1;
        if assignment[i] < shape[i] {
            return true;
        }
        assignment[i] = 0;
    }
    false
}
