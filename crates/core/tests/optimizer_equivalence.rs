//! Equivalence properties of the joint decision engine.
//!
//! Two invariants the pruned/incremental machinery must never bend:
//!
//! 1. `exhaustive` — which consumes the facts engine's `PruningPlan`,
//!    recombining components or bounding branches — commits *identical*
//!    `DecisionRecord`s to `exhaustive_baseline`, which scans the whole
//!    space through the reference evaluator, and leaves the same winning
//!    assignment, allocations, per-pair predicted times and objective
//!    bits. The search has one path and no self-checking mode: this suite
//!    is the cross-check.
//! 2. The incremental prefix-reuse evaluator agrees with the fresh-clone
//!    reference evaluator on every assignment, in any visit order.
//!
//! Both are checked across a seeded family of randomized systems (bundle
//! counts, variable choices, memory/seconds/communication shapes, cluster
//! sizes), >= 100 cases each.

use harmony_core::optimizer::{exhaustive, exhaustive_baseline, EvalCtx, IncrementalEval};
use harmony_core::{Controller, ControllerConfig};
use harmony_resources::Cluster;
use harmony_rsl::listings::sp2_cluster;
use harmony_rsl::schema::parse_bundle_script;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds one randomized system: a cluster of `nodes` SP-2 nodes and
/// `napps` single-option bundles with random variable choices and demands.
/// Everything is derived from `rng`, so a case is reproducible by seed.
fn random_system(rng: &mut StdRng) -> (usize, Vec<String>) {
    let nodes = rng.gen_range(2..=10usize);
    let napps = rng.gen_range(1..=4usize);
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
    (nodes, scripts)
}

fn build_controller(nodes: usize, scripts: &[String]) -> Controller {
    let cluster = Cluster::from_rsl(&sp2_cluster(nodes)).unwrap();
    let mut c = Controller::new(cluster, ControllerConfig::default());
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
fn random_pruning_system(rng: &mut StdRng) -> (usize, Vec<String>) {
    let (nodes, mut scripts) = random_system(rng);
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
    (nodes, scripts)
}

/// Runs `exhaustive` and `exhaustive_baseline` on twin controllers and
/// describes the first thing they disagree on: the result (decisions, or
/// the error's text), any instance's committed choice (option and
/// variables, allocation, predicted time), or the objective's bits.
fn divergence(nodes: usize, scripts: &[String]) -> Option<String> {
    let mut pruned = build_controller(nodes, scripts);
    let mut reference = build_controller(nodes, scripts);
    let rp = exhaustive(&mut pruned, 1_000_000);
    let rr = exhaustive_baseline(&mut reference, 1_000_000);
    let same = match (&rp, &rr) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    };
    if !same {
        return Some(format!("{rp:?} vs {rr:?}"));
    }
    for id in reference.instances() {
        let (p, r) = (pruned.choice(&id, "config"), reference.choice(&id, "config"));
        if p != r {
            return Some(format!("{id:?} holds {p:?} vs {r:?}"));
        }
    }
    let (p, r) = (pruned.objective_score(), reference.objective_score());
    (p.to_bits() != r.to_bits()).then(|| format!("objective {p} vs {r}"))
}

#[test]
fn pruned_search_is_bit_identical_on_random_systems() {
    // 120 plain systems, then 300 that also exercise the pruning axes
    // (components, dominated choices).
    type Shape = fn(&mut StdRng) -> (usize, Vec<String>);
    let families: [(&str, u64, u64, Shape); 2] = [
        ("plain", 0xE0_0000, 120, random_system),
        ("pruning", 0xFAC7_0000, 300, random_pruning_system),
    ];
    let mut failures = Vec::new();
    for (family, base, cases, shape) in families {
        for case in 0..cases {
            let mut rng = StdRng::seed_from_u64(base + case);
            let (nodes, scripts) = shape(&mut rng);
            if let Some(what) = divergence(nodes, &scripts) {
                failures.push(format!("{family} case {case}: {what}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn baseline_scan_equals_exhaustive_on_random_systems() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xBA_0000 + case);
        let (nodes, scripts) = random_system(&mut rng);
        let mut fast = build_controller(nodes, &scripts);
        let mut slow = build_controller(nodes, &scripts);
        let rf = exhaustive(&mut fast, 1_000_000);
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
        let (nodes, scripts) = random_system(&mut rng);
        let mut c = build_controller(nodes, &scripts);
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
