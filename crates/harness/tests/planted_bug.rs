//! Validates the oracles against a deliberately planted controller bug:
//! a lease reaper that skips folding read-path touch stamps. The sweep
//! must catch it quickly and the shrinker must reduce the failure to a
//! handful of ops.

use harmony_harness::{generate, run_schedule, run_seed, shrink, PlantedBug};

#[test]
fn sweep_catches_the_planted_reaper_bug_and_shrinks_it() {
    let mut caught = None;
    for seed in 0..64 {
        let report = run_seed(seed, PlantedBug::ReaperSkipsTouchFold);
        if report.violation.is_some() {
            caught = Some((seed, report));
            break;
        }
    }
    let (seed, report) = caught.expect("64 seeds never caught the planted reaper bug");
    let violation = report.violation.expect("caught run has a violation");
    assert_eq!(violation.oracle, "lease", "wrong oracle flagged it: {violation}");

    let planted = PlantedBug::ReaperSkipsTouchFold;
    let shrunk = shrink::shrink(&generate(seed), |s| run_schedule(s, planted).failed())
        .expect("still fails");
    assert!(
        shrunk.schedule.ops.len() <= 20,
        "shrinker left {} ops (wanted <= 20)",
        shrunk.schedule.ops.len()
    );
    assert!(shrunk.report.violation.is_some());
}

#[test]
fn planted_bug_does_not_fail_every_schedule() {
    // The bug needs read-path-only renewal plus an expiry-scale clock
    // jump to bite; schedules without that pattern must still pass, or
    // the oracle is flagging something other than the bug.
    let clean = (0..16)
        .filter(|&seed| run_seed(seed, PlantedBug::ReaperSkipsTouchFold).violation.is_none())
        .count();
    assert!(clean > 0, "every schedule failed: oracle is too eager");
}
