//! Controller-level churn property: arbitrary register/end sequences with
//! mixed bundle shapes never corrupt capacity accounting, the namespace,
//! or the decision machinery.

use harmony::core::{Controller, ControllerConfig, InstanceId};
use harmony::resources::Cluster;
use harmony::rsl::listings::{sp2_cluster, FIG2B_BAG};
use harmony::rsl::schema::parse_bundle_script;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Register bundle shape `i`.
    Register(usize),
    /// End the `k`-th oldest live instance (modulo population).
    End(usize),
    /// Advance time and re-evaluate.
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![(0usize..4).prop_map(Op::Register), (0usize..8).prop_map(Op::End), Just(Op::Tick),]
}

const SHAPES: [&str; 4] = [
    // A small shared job.
    "harmonyBundle small:1 b { {o {node n {seconds 5} {memory 16}}} }",
    // A replicated pair.
    "harmonyBundle pair:1 b { {o {node w {replicate 2} {seconds 8} {memory 24}}} }",
    // Variable parallelism with a curve.
    "harmonyBundle vp:1 b { {o {variable w {1 2 4}} \
       {node n {replicate w} {seconds {120 / w}} {memory 20}} \
       {performance {1 120} {2 70} {4 45}}} }",
    // Elastic memory with a friction cost.
    "harmonyBundle el:1 b { {o {node n {memory >=10} {seconds 6}} {friction 3}} }",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn churn_preserves_all_invariants(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let cluster = Cluster::from_rsl(&sp2_cluster(6)).unwrap();
        let total_memory = cluster.total_memory();
        let mut ctl = Controller::new(cluster, ControllerConfig::default());
        let mut live: Vec<InstanceId> = Vec::new();
        let mut t = 0.0;

        for op in ops {
            t += 10.0;
            ctl.set_time(t);
            match op {
                Op::Register(i) => {
                    let spec = parse_bundle_script(SHAPES[i]).unwrap();
                    match ctl.register(spec) {
                        Ok((id, _)) => live.push(id),
                        Err(harmony::core::CoreError::Unplaceable { .. }) => {
                            // Full cluster: the unconfigured instance stays
                            // registered; drop it to keep this test's
                            // bookkeeping simple.
                            let id = ctl.instances().last().unwrap().clone();
                            ctl.end(&id).unwrap();
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                Op::End(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.remove(k % live.len());
                    ctl.end(&id).unwrap();
                }
                Op::Tick => {
                    ctl.reevaluate().unwrap();
                }
            }

            // Invariant 1: task accounting matches live configurations.
            let configured: u32 = live
                .iter()
                .filter_map(|id| ctl.choice(id, "b"))
                .map(|c| c.alloc.nodes.len() as u32)
                .sum();
            prop_assert_eq!(ctl.cluster().total_tasks(), configured);

            // Invariant 2: memory accounting is exact.
            let reserved: f64 = live
                .iter()
                .filter_map(|id| ctl.choice(id, "b"))
                .map(|c| c.alloc.total_memory())
                .sum();
            prop_assert!(
                (total_memory - ctl.cluster().total_free_memory() - reserved).abs() < 1e-6
            );
            prop_assert!(ctl.cluster().nodes().all(|n| n.free_memory >= -1e-9));

            // Invariant 3: the namespace only names live instances.
            for (path, _) in ctl.namespace().iter() {
                let head: Vec<&str> = path.components().take(2).collect();
                let named = format!("{}.{}", head[0], head[1]);
                prop_assert!(
                    live.iter().any(|id| id.to_string() == named),
                    "namespace leak: {path}"
                );
            }

            // Invariant 4: the objective is finite whenever anyone runs.
            if !live.is_empty() && live.iter().any(|id| ctl.choice(id, "b").is_some()) {
                prop_assert!(ctl.objective_score().is_finite());
            }
        }

        // Drain: ending everything restores a pristine cluster.
        for id in live {
            ctl.end(&id).unwrap();
        }
        prop_assert_eq!(ctl.cluster().total_tasks(), 0);
        prop_assert!((ctl.cluster().total_free_memory() - total_memory).abs() < 1e-9);
        prop_assert!(ctl.namespace().is_empty());
    }
}

/// Finding (ix): an instance that heartbeats but never polls, beside 1,000
/// arrival/end cycles of a second bag, holds at most one configuration's
/// writes per bundle, so neither its buffer nor the image grows with the
/// decisions it missed. The clock is held still, so no lease expires.
#[test]
fn a_silent_instance_buffers_one_configuration_per_bundle() {
    let cluster = Cluster::from_rsl(&sp2_cluster(8)).unwrap();
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    let spec = parse_bundle_script(FIG2B_BAG).unwrap();
    let (silent, _) = ctl.register(spec.clone()).unwrap();
    let image_bytes = |ctl: &Controller| ctl.persisted_state().canonical_json().len();
    let mut after_ten = 0;
    for cycle in 1..=1000 {
        assert!(ctl.touch(&silent), "the silent instance's heartbeat");
        let (other, _) = ctl.register(spec.clone()).unwrap();
        ctl.end(&other).unwrap();
        if cycle == 10 {
            after_ten = image_bytes(&ctl);
        }
    }
    let state = ctl.persisted_state();
    let (_, buffered) = state.pending_vars.iter().find(|(id, _)| *id == silent).unwrap();
    let bundle = format!("{silent}.config");
    let configurations = buffered.iter().filter(|(p, _)| p.to_string() == bundle).count();
    assert_eq!(configurations, 1, "one configuration's writes for one bundle: {buffered:?}");
    let mut paths: Vec<String> = buffered.iter().map(|(p, _)| p.to_string()).collect();
    paths.sort();
    paths.dedup();
    assert_eq!(paths.len(), buffered.len(), "no path buffered twice: {buffered:?}");
    // Three counters gain two digits each between cycle 10 and 1,000: the
    // id allocator, the silent bundle's reconfiguration count and the
    // journal's next sequence number. Nothing else may grow.
    let after_thousand = image_bytes(&ctl);
    assert!(after_thousand <= after_ten + 3 * 2, "the image grew {after_ten} -> {after_thousand}");
}
