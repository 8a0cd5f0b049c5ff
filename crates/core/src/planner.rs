//! The planner: the read-only half of the controller's greedy policy.
//!
//! Planning reads, [`Controller`] commits. Every function here takes
//! `&self` and returns a value; the drivers in `controller.rs` fetch the
//! memoized candidate sets, ask for a [`Plan`], and apply it.
//!
//! There is one trial body, [`Controller::trial`]: place a set of
//! hypothetical [`Move`]s on a copy of the cluster and score the system in
//! one sweep. The paper's §4.3 pass ("optimize one bundle at a time") scans
//! a bundle's candidates with one-move trials ([`Controller::plan_bundle`]);
//! the §1 admission case — an incumbent shrinks so a newcomer fits — scans
//! the product of two candidate sets with two-move trials
//! ([`Controller::plan_pair`]). The live score
//! ([`Controller::objective_score`]) is the same sweep with no moves.
//!
//! One error policy: a move the matcher cannot place
//! ([`ResourceError::NoMatch`]) makes the trial infeasible; any other
//! error propagates.

use std::time::Instant;

use harmony_predict::{model_for_option, PredictionContext};
use harmony_resources::{Allocation, Cluster, Matcher, ResourceError};
use harmony_rsl::schema::OptionSpec;

use crate::app::{BundleState, ChosenConfig, InstanceId};
use crate::candidates::Candidate;
use crate::controller::Controller;
use crate::error::CoreError;
use crate::feedback::calibration_factor;
use crate::journal::PhaseTimings;
use crate::optimizer::SCORE_EPSILON;

/// One hypothetical re-choice: `bundle` of instance `id` moves to `cand`.
#[derive(Debug, Clone, Copy)]
struct Move<'a> {
    id: &'a InstanceId,
    bundle: &'a str,
    cand: &'a Candidate,
}

/// A hypothetical substitution of one bundle's configuration during a
/// sweep.
struct Replace<'a> {
    id: &'a InstanceId,
    bundle: &'a str,
    opt: &'a OptionSpec,
    alloc: Allocation,
    /// Extra seconds added to this app's predicted response time (friction
    /// of switching into the hypothetical configuration).
    penalty: f64,
}

/// The outcome of one feasible trial.
#[derive(Debug)]
struct Trial<'s> {
    /// Objective score of the system with the moves applied.
    score: f64,
    /// The sweep behind `score`: response time per application, in arrival
    /// order.
    times: Vec<(&'s InstanceId, f64)>,
    /// The allocation matched for each move, in move order.
    allocs: Vec<Allocation>,
}

/// One move the planner decided on, ready to commit.
#[derive(Debug)]
pub(crate) struct PlannedMove {
    pub(crate) id: InstanceId,
    pub(crate) bundle: String,
    pub(crate) candidate: Candidate,
    pub(crate) alloc: Allocation,
    /// Predicted response time of the moved application.
    pub(crate) predicted: f64,
}

/// A planning result: the moves to commit, in order, with the score they
/// reach, the live score they were judged against, and what finding them
/// cost.
#[derive(Debug)]
pub(crate) struct Plan {
    pub(crate) moves: Vec<PlannedMove>,
    score: f64,
    pub(crate) objective_before: f64,
    pub(crate) timings: PhaseTimings,
}

/// Milliseconds elapsed since `t0`.
pub(crate) fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Response time of application `id` in one sweep's `times`.
fn predicted(times: &[(&InstanceId, f64)], id: &InstanceId) -> f64 {
    times.iter().find(|(i, _)| *i == id).map_or(f64::INFINITY, |(_, rt)| *rt)
}

/// True when `cand` is the configuration point `cur` already holds.
pub(crate) fn same_point(cur: &ChosenConfig, cand: &Candidate) -> bool {
    cur.option == cand.option
        && cur.vars == cand.vars
        && (cur.elastic_extra - cand.elastic_extra).abs() < 1e-9
}

impl Controller {
    /// Predicted response time per application (max over its bundles), in
    /// arrival order. Applications with no applied configuration are
    /// omitted.
    pub fn predicted_response_times(&self) -> Vec<(InstanceId, f64)> {
        self.response_times(&self.cluster, &[], None)
            .into_iter()
            .map(|(id, rt)| (id.clone(), rt))
            .collect()
    }

    /// The current objective score over all applications.
    pub fn objective_score(&self) -> f64 {
        self.score(&self.response_times(&self.cluster, &[], None))
    }

    /// Looks up one bundle of one instance.
    pub(crate) fn bundle_state(
        &self,
        id: &InstanceId,
        bundle: &str,
    ) -> Result<&BundleState, CoreError> {
        self.apps
            .get(id)
            .ok_or_else(|| CoreError::UnknownInstance { name: id.to_string() })?
            .bundle(bundle)
            .ok_or_else(|| CoreError::UnknownBundle { name: bundle.to_string() })
    }

    /// True when the bundle's `granularity` declaration forbids re-choosing
    /// it now.
    pub(crate) fn switch_blocked(&self, id: &InstanceId, bundle: &str) -> Result<bool, CoreError> {
        let bundle = self.bundle_state(id, bundle)?;
        Ok(self.config.respect_granularity && bundle.switch_blocked_at(self.now()))
    }

    /// Greedy optimization of one bundle: try every candidate and plan the
    /// best if it beats the incumbent. `initial` marks the first placement
    /// of a new bundle, where failing to place anything is an error.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unplaceable`] when `initial` and no candidate fits;
    /// evaluation errors from [`Controller::trial`].
    pub(crate) fn plan_bundle(
        &self,
        id: &InstanceId,
        bundle: &str,
        cands: &[Candidate],
        initial: bool,
    ) -> Result<Option<Plan>, CoreError> {
        let current = self.bundle_state(id, bundle)?.current.as_ref();
        let sets = cands.iter().map(|cand| vec![Move { id, bundle, cand }]);
        let Some(plan) = self.best_of(sets, id)? else {
            if initial && current.is_none() {
                let reason = match cands.last() {
                    Some(cand) => format!("candidate `{}` does not fit", cand.label()),
                    None => String::from("no candidates"),
                };
                return Err(CoreError::Unplaceable { bundle: bundle.to_string(), reason });
            }
            return Ok(None);
        };
        // Keep the incumbent unless the best candidate is a strict
        // improvement.
        let keep_incumbent = current.is_some_and(|cur| {
            same_point(cur, &plan.moves[0].candidate)
                || plan.score >= plan.objective_before - SCORE_EPSILON
        });
        Ok((!keep_incumbent).then_some(plan))
    }

    /// One coordinated move: jointly re-choose bundles `a` and `b`,
    /// planning the best joint candidate when it strictly improves the
    /// system objective or places a bundle that had no configuration. The
    /// drivers never plan pairs in selfish mode, where a trial scores `b`'s
    /// application only.
    ///
    /// # Errors
    ///
    /// Evaluation errors from [`Controller::trial`].
    pub(crate) fn plan_pair(
        &self,
        a: (&InstanceId, &str),
        cands_a: &[Candidate],
        b: (&InstanceId, &str),
        cands_b: &[Candidate],
    ) -> Result<Option<Plan>, CoreError> {
        let sets = cands_a.iter().flat_map(|ca| {
            cands_b.iter().map(move |cb| {
                vec![
                    Move { id: a.0, bundle: a.1, cand: ca },
                    Move { id: b.0, bundle: b.1, cand: cb },
                ]
            })
        });
        let Some(mut plan) = self.best_of(sets, b.0)? else { return Ok(None) };
        // A joint move that places a previously unplaced bundle is an
        // improvement even at equal objective.
        let places_new = self.choice(a.0, a.1).is_none() || self.choice(b.0, b.1).is_none();
        let improves = plan.score < plan.objective_before - SCORE_EPSILON
            || (places_new && plan.score.is_finite());
        // Only the sides that actually change are committed.
        plan.moves.retain(|m| {
            !self.choice(&m.id, &m.bundle).is_some_and(|cur| same_point(cur, &m.candidate))
        });
        Ok((improves && !plan.moves.is_empty()).then_some(plan))
    }

    /// Tries every move set, in order, and plans the first that scores
    /// strictly better than all before it. Time inside trials is reported
    /// as `prediction_ms`, the rest of the scan as `optimization_ms`.
    fn best_of<'a>(
        &self,
        sets: impl Iterator<Item = Vec<Move<'a>>>,
        focus: &InstanceId,
    ) -> Result<Option<Plan>, CoreError> {
        let objective_before = self.objective_score();
        let t_scan = Instant::now();
        let mut prediction_ms = 0.0;
        let mut best: Option<(Vec<Move<'a>>, Trial<'_>)> = None;
        for moves in sets {
            let t_trial = Instant::now();
            let trial = self.trial(&moves, focus);
            prediction_ms += elapsed_ms(t_trial);
            if let Some(t) = trial? {
                if best.as_ref().is_none_or(|(_, b)| t.score < b.score - SCORE_EPSILON) {
                    best = Some((moves, t));
                }
            }
        }
        let optimization_ms = (elapsed_ms(t_scan) - prediction_ms).max(0.0);
        Ok(best.map(|(moves, Trial { score, times, allocs })| Plan {
            moves: moves
                .iter()
                .zip(allocs)
                .map(|(m, alloc)| PlannedMove {
                    id: m.id.clone(),
                    bundle: m.bundle.to_string(),
                    candidate: m.cand.clone(),
                    alloc,
                    predicted: predicted(&times, m.id),
                })
                .collect(),
            score,
            objective_before,
            timings: PhaseTimings { prediction_ms, optimization_ms, ..Default::default() },
        }))
    }

    /// The one trial body: on a copy of the cluster, release every moved
    /// bundle's incumbent, match and commit the moves in order, price the
    /// friction of each switch, and score the system in one sweep.
    /// `Ok(None)` when a move does not fit.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownInstance`] / [`CoreError::UnknownBundle`] for a
    /// move naming nothing registered; every resource error other than
    /// [`ResourceError::NoMatch`].
    fn trial(
        &self,
        moves: &[Move<'_>],
        focus: &InstanceId,
    ) -> Result<Option<Trial<'_>>, CoreError> {
        let mut cluster = self.cluster.clone();
        let mut targets = Vec::with_capacity(moves.len());
        for m in moves {
            let bundle = self.bundle_state(m.id, m.bundle)?;
            let opt = bundle
                .spec
                .option(&m.cand.option)
                .ok_or_else(|| CoreError::UnknownBundle { name: m.cand.option.clone() })?;
            if let Some(cur) = &bundle.current {
                cluster.release(&cur.alloc)?;
            }
            targets.push((bundle, opt));
        }
        let mut replaces = Vec::with_capacity(moves.len());
        for (m, (bundle, opt)) in moves.iter().zip(targets) {
            let matcher = Matcher {
                strategy: self.config.matcher.strategy,
                elastic_extra: m.cand.elastic_extra,
            };
            let alloc = match matcher.match_option(&cluster, opt, &m.cand.env()) {
                Ok(alloc) => alloc,
                Err(ResourceError::NoMatch { .. }) => return Ok(None),
                Err(e) => return Err(e.into()),
            };
            cluster.commit(&alloc)?;
            let penalty = self.friction_of(bundle, m.cand, opt, &alloc);
            replaces.push(Replace { id: m.id, bundle: m.bundle, opt, alloc, penalty });
        }
        let times = self.response_times(&cluster, &replaces, self.config.selfish.then_some(focus));
        let allocs = replaces.into_iter().map(|r| r.alloc).collect();
        Ok(Some(Trial { score: self.score(&times), times, allocs }))
    }

    /// The objective over one sweep's response times.
    fn score(&self, times: &[(&InstanceId, f64)]) -> f64 {
        let rts: Vec<f64> = times.iter().map(|(_, rt)| *rt).collect();
        self.config.objective.score(&rts)
    }

    /// The sweep: response time of every application (max over its
    /// bundles) on `cluster`, in arrival order, with `replaces` overriding
    /// stored choices. Applications with no configuration are omitted, as
    /// is everything but `only` when it is set (selfish mode).
    fn response_times(
        &self,
        cluster: &Cluster,
        replaces: &[Replace<'_>],
        only: Option<&InstanceId>,
    ) -> Vec<(&InstanceId, f64)> {
        let mut out = Vec::new();
        for id in &self.arrival_order {
            if only.is_some_and(|o| o != id) {
                continue;
            }
            let Some(app) = self.apps.get(id) else { continue };
            let factor = self.feedback_factor(id);
            let mut worst: Option<f64> = None;
            for bundle in &app.bundles {
                let replace = replaces.iter().find(|r| r.id == id && r.bundle == bundle.spec.name);
                let (opt, alloc, penalty) = match replace {
                    Some(r) => (r.opt, &r.alloc, r.penalty),
                    None => {
                        let Some(cfg) = &bundle.current else { continue };
                        let Some(opt) = bundle.spec.option(&cfg.option) else { continue };
                        (opt, &cfg.alloc, 0.0)
                    }
                };
                let ctx = PredictionContext::committed(cluster, alloc, opt);
                let rt = match model_for_option(opt).predict(&ctx) {
                    Ok(p) => p.response_time * factor + penalty,
                    Err(_) => f64::INFINITY,
                };
                worst = Some(worst.map_or(rt, |w| w.max(rt)));
            }
            if let Some(rt) = worst {
                out.push((id, rt));
            }
        }
        out
    }

    /// The measured-feedback factor for one application: how far reality
    /// has diverged from the prediction of its *current* configuration.
    fn feedback_factor(&self, id: &InstanceId) -> f64 {
        let Some(cfg) = &self.config.feedback else { return 1.0 };
        let Some(app) = self.apps.get(id) else { return 1.0 };
        let predicted = app
            .bundles
            .iter()
            .filter_map(|b| b.current.as_ref().map(|c| c.predicted))
            .fold(0.0f64, f64::max);
        // Calibrate against the current configuration regime only: samples
        // measured before the app's latest switch describe a different
        // configuration and must not bleed into this one's factor.
        let since = app
            .bundles
            .iter()
            .filter_map(|b| b.current.as_ref().map(|c| c.chosen_at))
            .fold(f64::NEG_INFINITY, f64::max);
        calibration_factor(&self.metrics, id, predicted, since, cfg)
    }

    /// The friction (seconds) of moving `bundle` to `cand`, zero when the
    /// candidate equals the incumbent or there is no incumbent.
    fn friction_of(
        &self,
        bundle: &BundleState,
        cand: &Candidate,
        opt: &OptionSpec,
        alloc: &Allocation,
    ) -> f64 {
        let switching = bundle.current.as_ref().is_some_and(|cur| !same_point(cur, cand));
        if !switching {
            return 0.0;
        }
        let seconds = match &opt.friction {
            Some(tag) => tag.amount(&alloc.env()).unwrap_or(0.0),
            None => 0.0,
        };
        seconds * self.config.friction_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
    use harmony_rsl::schema::parse_bundle_script;

    /// `bags` FIG2B instances on an eight-node SP-2.
    fn bags(bags: usize, config: ControllerConfig) -> Controller {
        let mut c = Controller::new(Cluster::from_rsl(&sp2_cluster(8)).unwrap(), config);
        for _ in 0..bags {
            c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        }
        c
    }

    fn owned(times: &[(&InstanceId, f64)]) -> Vec<(InstanceId, f64)> {
        times.iter().map(|(id, rt)| ((*id).clone(), *rt)).collect()
    }

    #[test]
    fn the_empty_trial_is_the_live_score() {
        let c = bags(3, ControllerConfig::default());
        let focus = &c.instances()[0];
        let trial = c.trial(&[], focus).unwrap().unwrap();
        assert_eq!(trial.score, c.objective_score());
        assert_eq!(owned(&trial.times), c.predicted_response_times());
        assert!(trial.allocs.is_empty());
    }

    /// For an initial placement there is no incumbent and so no friction:
    /// the winning trial's score and prediction are exactly what the
    /// committed decision records — including the app-level max once the
    /// application has a second bundle.
    #[test]
    fn the_winning_trial_is_what_gets_committed() {
        const FIRST: &str =
            "harmonyBundle two:1 first { {slow {node n {seconds 300} {memory 32}}} }";
        const SECOND: &str =
            "harmonyBundle two:1 second { {fast {node n {seconds 100} {memory 32}}} }";
        let config = ControllerConfig {
            reevaluate_on_arrival: false,
            coordinated_moves: false,
            ..Default::default()
        };
        let mut c = bags(1, config);
        let id = c.startup("two");
        let mut committed = Vec::new();
        for script in [FIRST, SECOND] {
            let spec = parse_bundle_script(script).unwrap();
            let name = spec.name.clone();
            // Attach by hand, as `place_bundle` does before it plans.
            c.apps.get_mut(&id).unwrap().bundles.push(BundleState::new(spec.clone()));
            let cands = c.cached_candidates(&id, &name).unwrap();
            let plan = c.plan_bundle(&id, &name, &cands, true).unwrap().unwrap();
            let cand = &plan.moves[0].candidate;
            let trial = c.trial(&[Move { id: &id, bundle: &name, cand }], &id).unwrap().unwrap();
            let (score, predicted) = (trial.score, predicted(&trial.times, &id));
            assert_eq!(plan.moves[0].predicted, predicted);
            // Detach again and let the real verb place it.
            c.apps.get_mut(&id).unwrap().bundles.pop();
            let records = c.add_bundle(&id, spec).unwrap();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].objective_after, score);
            assert_eq!(c.choice(&id, &name).unwrap().predicted, predicted);
            committed.push(predicted);
        }
        // The fast bundle's prediction is the application's: the slow one's.
        assert_eq!(committed[1], committed[0]);
    }

    #[test]
    fn planning_does_not_write() {
        let mut c = bags(3, ControllerConfig::default());
        let pairs: Vec<(InstanceId, String)> =
            c.instances().into_iter().map(|id| (id, "config".to_string())).collect();
        let cands: Vec<_> =
            pairs.iter().map(|(id, b)| c.cached_candidates(id, b).unwrap()).collect();
        let state = |c: &Controller| (c.persisted_state().canonical_fingerprint(), c.journal_seq());
        let before = state(&c);
        for (i, a) in pairs.iter().enumerate() {
            c.plan_bundle(&a.0, &a.1, &cands[i], false).unwrap();
            for (j, b) in pairs.iter().enumerate().skip(i + 1) {
                c.plan_pair((&a.0, &a.1), &cands[i], (&b.0, &b.1), &cands[j]).unwrap();
            }
        }
        assert_eq!(state(&c), before);
    }

    #[test]
    fn selfish_mode_scores_the_focus_app_only() {
        for selfish in [false, true] {
            let mut c = bags(2, ControllerConfig { selfish, ..Default::default() });
            let ids = c.instances();
            let focus = &ids[1];
            let cands = c.cached_candidates(focus, "config").unwrap();
            let m = Move { id: focus, bundle: "config", cand: &cands[0] };
            let trial = c.trial(&[m], focus).unwrap().unwrap();
            let scored: Vec<&InstanceId> = trial.times.iter().map(|(id, _)| *id).collect();
            if selfish {
                assert_eq!(scored, [focus]);
                assert_eq!(
                    trial.score,
                    c.config.objective.score(&[predicted(&trial.times, focus)])
                );
            } else {
                assert_eq!(scored, [&ids[0], &ids[1]]);
            }
        }
    }
}
