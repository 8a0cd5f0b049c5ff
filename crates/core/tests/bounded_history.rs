//! The decision and retirement histories are bounded reports: each keeps
//! at most a journal's capacity, is read by the total its counter keeps,
//! stays out of the snapshot image, and restarts empty on a rebuilt
//! controller.

use harmony_core::journal::DEFAULT_JOURNAL_CAPACITY;
use harmony_core::{
    Controller, ControllerConfig, DecisionRecord, RetirementRecord, SystemSnapshot,
};
use harmony_resources::Cluster;
use harmony_rsl::listings::{sp2_cluster, FIG2A_SIMPLE};
use harmony_rsl::schema::parse_bundle_script;

/// Start/bundle/end cycles: one decision and one retirement each. Both
/// histories are trimmed to their newer half at the 4,097th, 6,145th and
/// 8,193rd push, and are full again at the last.
const CYCLES: usize = 5 * DEFAULT_JOURNAL_CAPACITY / 2;

fn totals(ctl: &Controller) -> (u64, u64) {
    let m = ctl.metrics();
    (m.counter("controller.decisions"), m.counter("controller.ends"))
}

/// The two serialized reports whose size must not grow with the history.
fn sizes(ctl: &Controller) -> (usize, usize) {
    let image = ctl.persisted_state().canonical_json().len();
    (image, SystemSnapshot::capture(ctl).to_json().unwrap().len())
}

fn within_five_percent(now: usize, then: usize) -> bool {
    now.abs_diff(then) * 20 <= then
}

#[test]
fn histories_stay_bounded_and_are_read_by_total() {
    let cluster = Cluster::from_rsl(&sp2_cluster(4)).unwrap();
    let mut ctl = Controller::new(cluster, ControllerConfig::default());
    let spec = parse_bundle_script(FIG2A_SIMPLE).unwrap();
    let mut all_decisions: Vec<DecisionRecord> = Vec::new();
    let mut all_retirements: Vec<RetirementRecord> = Vec::new();
    let mut full_window = None;

    for cycle in 0..CYCLES {
        let (decided, retired) = totals(&ctl);
        let (id, applied) = ctl.register(spec.clone()).unwrap();
        assert_eq!(applied.len(), 1, "cycle {cycle}: one placement");
        assert_eq!(ctl.decisions_since(decided), applied.as_slice(), "cycle {cycle}");
        all_decisions.extend(applied);
        ctl.end(&id).unwrap();
        let ended = ctl.retirements_since(retired);
        assert_eq!(ended.len(), 1, "cycle {cycle}: one retirement");
        assert_eq!(ended[0].instance, id);
        all_retirements.extend_from_slice(ended);

        assert!(ctl.decisions().len() <= DEFAULT_JOURNAL_CAPACITY, "cycle {cycle}");
        assert!(ctl.retirements().len() <= DEFAULT_JOURNAL_CAPACITY, "cycle {cycle}");
        assert_eq!(totals(&ctl), (all_decisions.len() as u64, all_retirements.len() as u64));
        if all_decisions.len() == DEFAULT_JOURNAL_CAPACITY {
            full_window = Some(sizes(&ctl));
        }
    }

    // Each history is the newest slice of everything pushed: three trims
    // dropped 2,048 entries each.
    let retained = CYCLES - 3 * DEFAULT_JOURNAL_CAPACITY / 2;
    assert_eq!(retained, DEFAULT_JOURNAL_CAPACITY);
    assert_eq!(ctl.decisions(), &all_decisions[CYCLES - retained..]);
    assert_eq!(ctl.retirements(), &all_retirements[CYCLES - retained..]);
    assert_eq!(SystemSnapshot::capture(&ctl).decisions, CYCLES, "status counts past the window");

    // A total inside the window reads exactly what came after it; one
    // that predates the window reads the whole window (a clamped tail).
    for since in [CYCLES - retained, CYCLES - 100, CYCLES - 1, CYCLES] {
        assert_eq!(ctl.decisions_since(since as u64), &all_decisions[since..]);
        assert_eq!(ctl.retirements_since(since as u64), &all_retirements[since..]);
    }
    for since in [0, CYCLES - retained - 1] {
        assert_eq!(ctl.decisions_since(since as u64), ctl.decisions());
        assert_eq!(ctl.retirements_since(since as u64), ctl.retirements());
    }

    // Neither report grows with the history: the image holds none of it,
    // and the status snapshot only the retained retirements, a full window
    // both times.
    let (image, status) = sizes(&ctl);
    let (image_then, status_then) = full_window.expect("the first window filled");
    assert!(within_five_percent(image, image_then), "image {image_then} -> {image} bytes");
    assert!(within_five_percent(status, status_then), "status {status_then} -> {status} bytes");

    // A rebuilt controller starts both reports, and their totals, empty;
    // a reading from the old one clamps instead of indexing past the end.
    let (decided, retired) = totals(&ctl);
    let rebuilt = Controller::from_persisted(ctl.persisted_state()).unwrap();
    assert!(rebuilt.decisions().is_empty() && rebuilt.retirements().is_empty());
    assert_eq!(totals(&rebuilt), (0, 0));
    assert!(rebuilt.decisions_since(decided).is_empty());
    assert!(rebuilt.retirements_since(retired).is_empty());
}
