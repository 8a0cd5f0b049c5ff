//! Measured-feedback integration: the controller's decisions change when
//! the metric interface reports that reality diverges from the model.

use harmony_core::{Controller, ControllerConfig, FeedbackConfig, HarmonyEvent};
use harmony_resources::Cluster;
use harmony_rsl::schema::parse_bundle_script;

fn two_node_cluster() -> Cluster {
    Cluster::from_rsl(
        "harmonyNode alpha {speed 1.0} {memory 256}\n\
         harmonyNode beta {speed 1.0} {memory 256}",
    )
    .unwrap()
}

fn pinned(app: &str, host: &str, seconds: f64) -> String {
    format!(
        "harmonyBundle {app}:1 b {{ {{o {{node w {{hostname {host}}} {{seconds {seconds}}} {{memory 8}}}}}} }}"
    )
}

/// A newcomer that may run on either machine (two explicit options).
fn either() -> String {
    "harmonyBundle newcomer:1 b {\n\
       {onAlpha {node w {hostname alpha} {seconds 10} {memory 8}}}\n\
       {onBeta {node w {hostname beta} {seconds 10} {memory 8}}}\n\
     }"
    .to_string()
}

fn run(feedback: Option<FeedbackConfig>, reported_slowdown: Option<f64>) -> String {
    let config = ControllerConfig { feedback, ..Default::default() };
    let mut ctl = Controller::new(two_node_cluster(), config);
    // Two long-running residents, one per machine.
    let (slow, _) =
        ctl.register(parse_bundle_script(&pinned("resident1", "alpha", 100.0)).unwrap()).unwrap();
    let (_fast, _) =
        ctl.register(parse_bundle_script(&pinned("resident2", "beta", 100.0)).unwrap()).unwrap();

    // The metric interface reports resident1's actual response times.
    if let Some(factor) = reported_slowdown {
        let predicted = ctl.choice(&slow, "b").unwrap().predicted;
        for i in 0..5 {
            assert!(ctl.record_metric(
                &format!("{slow}.response_time"),
                i as f64,
                predicted * factor
            ));
        }
    }

    // A newcomer arrives that could stack on either machine.
    let (id, _) = ctl.register(parse_bundle_script(&either()).unwrap()).unwrap();
    ctl.choice(&id, "b").unwrap().option.clone()
}

#[test]
fn without_feedback_the_model_sees_symmetric_machines() {
    // Both residents predicted equal: the first option order wins.
    let choice = run(None, None);
    assert_eq!(choice, "onAlpha");
}

#[test]
fn feedback_steers_the_newcomer_away_from_the_slow_machine() {
    // Measurements show resident1 (on alpha) actually runs 3× slower than
    // modeled. Stacking the newcomer there would double a job that is
    // already hurting; the calibrated controller places it on beta.
    let choice = run(Some(FeedbackConfig::default()), Some(3.0));
    assert_eq!(choice, "onBeta");
}

#[test]
fn feedback_disabled_ignores_the_same_measurements() {
    let choice = run(None, Some(3.0));
    assert_eq!(choice, "onAlpha", "reports without feedback change nothing");
}

#[test]
fn accurate_measurements_leave_decisions_unchanged() {
    // Reported == predicted: factor 1, same decision as no feedback.
    let choice = run(Some(FeedbackConfig::default()), Some(1.0));
    assert_eq!(choice, "onAlpha");
}

#[test]
fn calibration_resets_after_a_reconfiguration() {
    // Regression: samples measured under a *previous* configuration must
    // not calibrate predictions for the current one. An app starts on
    // alpha (measured 3× slower than modeled), then alpha leaves and the
    // app is re-placed on beta. The stale alpha-era samples said nothing
    // about beta; until enough post-switch samples arrive the factor must
    // fall back to 1.0 — before the fix the whole-series EWMA kept scaling
    // beta's prediction by ~3×.
    let config =
        ControllerConfig { feedback: Some(FeedbackConfig::default()), ..Default::default() };
    let mut ctl = Controller::new(two_node_cluster(), config);
    let script = "harmonyBundle mover:1 b {\n\
           {onAlpha {node w {hostname alpha} {seconds 10} {memory 8}}}\n\
           {onBeta {node w {hostname beta} {seconds 12} {memory 8}}}\n\
         }";
    let (id, _) = ctl.register(parse_bundle_script(script).unwrap()).unwrap();
    assert_eq!(ctl.choice(&id, "b").unwrap().option, "onAlpha");
    for i in 0..5 {
        // 3× the modeled 10 s.
        assert!(ctl.record_metric(&format!("{id}.response_time"), i as f64, 30.0));
    }
    assert!((ctl.predicted_response_times()[0].1 - 30.0).abs() < 1e-9, "factor active on alpha");

    // alpha departs; the app is re-placed on beta at t=10.
    ctl.set_time(10.0);
    ctl.handle_event(HarmonyEvent::NodeLeft { name: "alpha".into() }).unwrap();
    let choice = ctl.choice(&id, "b").unwrap();
    assert_eq!(choice.option, "onBeta");
    assert_eq!(choice.chosen_at, 10.0);

    // No post-switch samples yet: the prediction must be the clean model
    // value, not the stale-regime-scaled one.
    let predicted = ctl.predicted_response_times()[0].1;
    assert!((predicted - 12.0).abs() < 1e-9, "stale regime leaked: predicted {predicted}");

    // Post-switch samples re-calibrate against the new regime only.
    for i in 0..5 {
        // 1.5× the modeled 12 s.
        assert!(ctl.record_metric(&format!("{id}.response_time"), 10.0 + i as f64, 18.0));
    }
    let predicted = ctl.predicted_response_times()[0].1;
    assert!((predicted - 18.0).abs() < 1e-9, "new regime calibrates: predicted {predicted}");
}

#[test]
fn predicted_response_times_reflect_measured_reality() {
    let config =
        ControllerConfig { feedback: Some(FeedbackConfig::default()), ..Default::default() };
    let mut ctl = Controller::new(two_node_cluster(), config);
    let (id, _) =
        ctl.register(parse_bundle_script(&pinned("app", "alpha", 100.0)).unwrap()).unwrap();
    let before = ctl.predicted_response_times()[0].1;
    for i in 0..5 {
        assert!(ctl.record_metric(&format!("{id}.response_time"), i as f64, before * 2.0));
    }
    let after = ctl.predicted_response_times()[0].1;
    assert!((after / before - 2.0).abs() < 1e-9, "{before} -> {after}");
    assert!((ctl.objective_score() / before - 2.0).abs() < 1e-9);
}
