//! The determinism oracle: a seed fully determines the run.
//!
//! The checks rerun schedules in process and compare fingerprints.

use harmony_harness::{generate, run_schedule, run_seed, PlantedBug};

#[test]
fn same_seed_same_fingerprint() {
    for seed in 0..6 {
        let a = run_seed(seed, PlantedBug::None);
        let b = run_seed(seed, PlantedBug::None);
        assert_eq!(a, b, "seed {seed} diverged between runs");
        assert!(a.violation.is_none(), "seed {seed}: {:?}", a.violation);
    }
}

#[test]
fn different_seeds_different_fingerprints() {
    // Not a guarantee in principle, but a collision across neighboring
    // seeds would mean the fingerprint is not actually folding the run.
    let a = run_seed(1, PlantedBug::None);
    let b = run_seed(2, PlantedBug::None);
    assert_ne!(a.fingerprint, b.fingerprint);
}

#[test]
fn subsequences_still_run_clean() {
    // The shrinker's soundness precondition: dropping ops from a passing
    // schedule must leave a passing schedule.
    let schedule = generate(3);
    let mut thinned = schedule.clone();
    thinned.ops = thinned.ops.into_iter().step_by(3).collect();
    let report = run_schedule(&thinned, PlantedBug::None);
    assert!(report.violation.is_none(), "{:?}", report.violation);
}
