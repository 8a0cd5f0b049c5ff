//! Tier-1 golden for the planner's decisions (ROADMAP 5(d)).
//!
//! A fixed arrival / `end` / `reevaluate` script on `sp2_cluster(8)` mixing
//! Figure 2b bags and Figure 3 `DBclient`s, with the whole decision
//! sequence — `(instance, bundle, from, to, objective_after.to_bits())` —
//! pinned as one FNV-1a hash. The crate-level equivalence suites only run
//! under `cargo test --workspace`; this one makes plain `cargo test -q`
//! catch a planner that decides differently.
//!
//! The pinned values were derived at commit `0e92e76` — the parent of the
//! PR that replaced `planner::trial` with the shared-prefix scan, *before*
//! the planner was touched. Update them only with a deliberate behaviour
//! change.

use harmony::core::{Controller, ControllerConfig, InstanceId};
use harmony::resources::Cluster;
use harmony::rsl::listings::{sp2_cluster, FIG2B_BAG, FIG3_DBCLIENT};
use harmony::rsl::schema::{parse_bundle_script, BundleSpec};
use harmony_rng::fnv::fnv1a_64;

#[derive(Clone, Copy)]
enum Step {
    Bag,
    Db,
    /// End the `k`-th oldest live instance.
    End(usize),
    Reevaluate,
}

const SCRIPT: [Step; 16] = [
    Step::Bag,
    Step::Db,
    Step::Bag,
    Step::Db,
    Step::Reevaluate,
    Step::Bag,
    Step::End(0),
    Step::Db,
    Step::Bag,
    Step::End(2),
    Step::Reevaluate,
    Step::Db,
    Step::End(0),
    Step::End(0),
    Step::Bag,
    Step::Reevaluate,
];

const GOLDEN_DECISIONS: usize = 31;
const GOLDEN_HASH: u64 = 0x24f2_a144_8570_9223;

/// The Figure 3 client with its server pinned to a host the SP-2 has.
fn db_spec() -> BundleSpec {
    parse_bundle_script(&FIG3_DBCLIENT.replace("harmony.cs.umd.edu", "node00.sp2")).unwrap()
}

#[test]
fn the_decision_sequence_is_pinned() {
    let cluster = Cluster::from_rsl(&sp2_cluster(8)).unwrap();
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    let bag = parse_bundle_script(FIG2B_BAG).unwrap();
    let db = db_spec();
    let mut live: Vec<InstanceId> = Vec::new();
    for (i, step) in SCRIPT.iter().enumerate() {
        // Past every `granularity` hold, so each step may re-choose.
        ctl.set_time(1000.0 * (i + 1) as f64);
        match step {
            Step::Bag => live.push(ctl.register(bag.clone()).unwrap().0),
            Step::Db => live.push(ctl.register(db.clone()).unwrap().0),
            Step::End(k) => {
                ctl.end(&live.remove(*k)).unwrap();
            }
            Step::Reevaluate => {
                ctl.reevaluate().unwrap();
            }
        }
    }
    let mut text = String::new();
    for d in ctl.decisions() {
        text.push_str(&format!(
            "{} {} {:?} {} {:016x}\n",
            d.instance,
            d.bundle,
            d.from,
            d.to,
            d.objective_after.to_bits()
        ));
    }
    let hash = fnv1a_64(text.as_bytes());
    assert_eq!(
        (ctl.decisions().len(), hash),
        (GOLDEN_DECISIONS, GOLDEN_HASH),
        "the planner decided differently (hash {hash:#018x}):\n{text}"
    );
}
