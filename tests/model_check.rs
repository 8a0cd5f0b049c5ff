//! The bounded model checker, run as part of the root test suite: the
//! exact exploration counts every lease, touch and persistence change must
//! reproduce, a crash-cut run, and the two canaries that prove the oracles
//! still bite. Nothing is written to disk.

use harmony_harness::PlantedBug;
use harmony_mc::{explore, Scope};

/// Two clients to depth 4: every interleaving, pinned to the state count.
/// A lease or touch change that alters what a verb leaves behind moves
/// these numbers.
#[test]
fn two_clients_at_depth_four_explore_the_pinned_state_space_cleanly() {
    let ex = explore(&Scope { clients: 2, depth: 4, ..Scope::default() });
    assert!(ex.counterexample.is_none(), "{:?}", ex.counterexample.map(|c| c.violation));
    assert_eq!(ex.stats.distinct_states, 529);
    assert_eq!(ex.stats.transitions, 1152);
    assert_eq!(ex.stats.revisits, 624);
}

/// One client to depth 4 with every WAL record boundary and torn tail
/// recovered and compared; the number of cuts is pinned, so a verb that
/// starts or stops logging is seen here.
#[test]
fn one_client_at_depth_four_recovers_at_every_crash_cut() {
    let ex = explore(&Scope { clients: 1, depth: 4, crashes: true, ..Scope::default() });
    assert!(ex.counterexample.is_none(), "{:?}", ex.counterexample.map(|c| c.violation));
    assert_eq!(ex.stats.crash_cuts, 699);
}

/// A reaper that judges leases without folding the touch stamps first is
/// found, and by the lease oracle.
#[test]
fn a_reaper_that_skips_the_touch_fold_is_caught_by_the_lease_oracle() {
    let scope = Scope {
        clients: 1,
        depth: 5,
        planted: PlantedBug::ReaperSkipsTouchFold,
        ..Scope::default()
    };
    let ce = explore(&scope).counterexample.expect("the planted reaper bug must be found");
    assert_eq!(ce.violation.oracle, "lease");
}

/// A touch that raises its stamp but reaches no WAL record is invisible in
/// memory; only crash recovery sees it.
#[test]
fn an_unlogged_touch_is_caught_by_crash_recovery() {
    let scope =
        Scope { clients: 1, depth: 3, crashes: true, unlogged: Some("touch"), ..Scope::default() };
    let ce = explore(&scope).counterexample.expect("an unlogged touch must be found");
    assert_eq!(ce.violation.oracle, "crash");
    assert!(
        ce.violation.detail.contains("verb logged nothing but changed durable state"),
        "{}",
        ce.violation.detail
    );
}
