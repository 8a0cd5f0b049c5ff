//! The planner: the read-only half of the controller's greedy policy.
//!
//! Planning reads, [`Controller`] commits. Every function here takes
//! `&self` and returns a value — the memoized candidate sets included,
//! which exist from the moment a bundle is attached — so the drivers in
//! `controller.rs` write nothing before they commit: they ask for a
//! [`Scan`], count it and apply its [`Plan`].
//!
//! One scan body, [`Controller::scan`], serves the paper's §4.3 pass
//! ("optimize one bundle at a time", [`Controller::plan_bundle`]) and the
//! §1 admission case — an incumbent shrinks so a newcomer fits — over the
//! product of two candidate sets ([`Controller::plan_pair`]). A scan costs
//! what its moves change (docs/OPTIMIZER.md, "One planner"): candidates
//! are committed on one scratch cluster and undone exactly, so a pair scan
//! matches `|A| + |A|·|B|` times; what predicting the standing bundles
//! needs is in one [`Table`] built once; and a trial re-predicts only the
//! bundles whose nodes meet the nodes it released or bound.
//!
//! A trial allocates nothing once its buffers have grown: the scratch
//! cluster is two vectors of counters beside shared declarations, each
//! slot matches into one [`Allocation`] and saves into one
//! [`SavedCounters`] that all its candidates reuse, and a candidate that
//! does not fit is a [`Miss`](harmony_resources::Miss) nobody formats.
//!
//! A trial finds no node by name either. The matcher hands out where in
//! the scratch cluster it bound each node and link ([`Sites`]); the walk
//! pushes those positions onto the scan's one position stack, above the
//! standing bundles' (resolved once per scan), and saves, commits,
//! restores, marks `touched` and predicts through them. Positions never
//! outlive the scan: within it the scratch's nodes and links never change.
//!
//! The best move set is kept as candidate indices and predicted times.
//! When the walk is over the bundle's or the pair's settle rule decides
//! what to commit, and only a move set it keeps is matched once more, on
//! the state it was scored on, and copied out — that match is not counted
//! in `matches`.
//!
//! One error policy: a move the matcher cannot place
//! ([`ResourceError::NoMatch`](harmony_resources::ResourceError::NoMatch))
//! makes its move sets infeasible; any other error propagates.

use std::sync::Arc;
use std::time::Instant;

use harmony_predict::{option_model, PredictError, Prediction, PredictionContext, Predictor};
use harmony_resources::{
    Allocation, Cluster, MatchScratch, SavedCounters, SiteSpan, SiteStack, Sites,
};
use harmony_rsl::schema::OptionSpec;

use crate::app::{BundleState, ChosenConfig, InstanceId};
use crate::candidates::Candidate;
use crate::controller::Controller;
use crate::error::CoreError;
use crate::journal::PhaseTimings;
use crate::objective::mean_completion;
use crate::optimizer::SCORE_EPSILON;

/// One slot of a scan: a bundle to re-choose and, in order, the candidates
/// to try (its own: [`Controller::cached_candidates`]).
struct Target<'a> {
    id: &'a InstanceId,
    state: &'a BundleState,
    cands: &'a [Candidate],
}

/// One level of the walk: the candidate of its slot committed on the
/// scratch cluster, in buffers that every candidate of the slot reuses.
struct Placed<'a> {
    target: &'a Target<'a>,
    /// The candidate, an index into `target.cands`.
    at: usize,
    opt: &'a OptionSpec,
    alloc: Allocation,
    /// Where `alloc`'s bindings are in the table's [`SiteStack`].
    span: SiteSpan,
    /// The scratch counters `alloc`'s commit overwrote.
    saved: SavedCounters,
    /// Friction of switching into the candidate, seconds.
    penalty: f64,
}

/// One configured bundle as a scan's [`Table`] holds it.
struct Standing<'a> {
    opt: &'a OptionSpec,
    alloc: &'a Allocation,
    /// Where the allocation's published bindings are in the table's
    /// [`SiteStack`]; its nodes are its footprint.
    span: SiteSpan,
    /// True when every binding is published, so predicting it may read
    /// `span` instead of names.
    whole: bool,
    /// Response time on the live cluster.
    live: f64,
}

/// The predicted response time of `alloc`, a placement of `opt` committed
/// on `cluster` at `sites` (found by name without them), plus `penalty`.
fn time_on(
    cluster: &Cluster,
    alloc: &Allocation,
    sites: Option<Sites<'_>>,
    opt: &OptionSpec,
    penalty: f64,
) -> f64 {
    let ctx = PredictionContext { sites, ..PredictionContext::committed(cluster, alloc, opt) };
    timed(option_model(opt).predict(&ctx), penalty)
}

/// One application of the table: its bundles in order, configured or not.
struct Row<'a> {
    id: &'a InstanceId,
    bundles: Vec<(&'a BundleState, Option<Standing<'a>>)>,
}

/// Every application, in arrival order, with what predicting it needs:
/// computed once per scan, not once per trial.
struct Table<'a> {
    /// Where the standing bundles' bindings are in the cluster, and above
    /// them the placed levels', pushed on the way down the walk and popped
    /// on the way up. The scratch cluster is a clone of the live one, so
    /// both have the same nodes and links at the same positions for as
    /// long as the scan runs.
    positions: SiteStack,
    rows: Vec<Row<'a>>,
}

impl<'a> Table<'a> {
    /// The sweep: response time of every application (max over its
    /// bundles) on `cluster`, in arrival order, into `out`, with `placed`
    /// overriding stored choices and only the bundles on `touched` nodes
    /// re-predicted. Applications with no configuration are omitted, as is
    /// everything but `only` when it is set (selfish mode).
    fn times(
        &self,
        cluster: &Cluster,
        placed: &[Placed<'_>],
        touched: &[i32],
        only: Option<&InstanceId>,
        out: &mut Vec<(&'a InstanceId, f64)>,
    ) {
        out.clear();
        for row in self.rows.iter().filter(|row| only.is_none_or(|o| o == row.id)) {
            let mut worst: Option<f64> = None;
            for (bundle, standing) in &row.bundles {
                // A slot's bundle is the table's own `BundleState`: both
                // borrow it from the controller.
                let moved = placed.iter().find(|p| std::ptr::eq(p.target.state, *bundle));
                let rt = match (moved, standing) {
                    (Some(p), _) => {
                        let sites = self.positions.get(&p.span);
                        time_on(cluster, &p.alloc, Some(sites), p.opt, p.penalty)
                    }
                    (None, Some(s)) => {
                        let nodes = self.positions.get(&s.span).nodes;
                        if !nodes.iter().any(|&i| touched[i] > 0) {
                            s.live
                        } else {
                            let sites = s.whole.then(|| self.positions.get(&s.span));
                            time_on(cluster, s.alloc, sites, s.opt, 0.0)
                        }
                    }
                    (None, None) => continue,
                };
                worst = Some(worst.map_or(rt, |w| w.max(rt)));
            }
            if let Some(rt) = worst {
                out.push((row.id, rt));
            }
        }
    }

    /// The live response times: the sweep with nothing moved.
    fn live(&self, cluster: &Cluster) -> Vec<(&'a InstanceId, f64)> {
        let mut out = Vec::with_capacity(self.rows.len());
        let untouched = vec![0; cluster.len()];
        self.times(cluster, &[], &untouched, None, &mut out);
        out
    }
}

/// Marks (`+1`) or unmarks (`-1`) a footprint, node positions, in
/// `touched`.
fn mark(touched: &mut [i32], footprint: &[usize], by: i32) {
    for &i in footprint {
        touched[i] += by;
    }
}

/// A model's answer as the sweep counts it; a failed prediction is never
/// attractive.
fn timed(prediction: Result<Prediction, PredictError>, penalty: f64) -> f64 {
    prediction.map_or(f64::INFINITY, |p| p.response_time + penalty)
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
    /// Settled before the plan is built; the tests hold it to the
    /// reference's.
    #[cfg_attr(not(test), allow(dead_code))]
    score: f64,
    pub(crate) objective_before: f64,
    pub(crate) timings: PhaseTimings,
}

/// What one scan found and, exactly, what it did to find it.
#[derive(Debug)]
pub(crate) struct Scan {
    pub(crate) plan: Option<Plan>,
    /// Move sets decided, feasible or not. An outer candidate that does not
    /// fit decides its whole inner row at once.
    pub(crate) trials: u64,
    /// Calls to the matcher.
    pub(crate) matches: u64,
}

/// Milliseconds elapsed since `t0`.
pub(crate) fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Response time of application `id` in one sweep's `times`.
fn predicted(times: &[(&InstanceId, f64)], id: &InstanceId) -> f64 {
    times.iter().find(|(i, _)| *i == id).map_or(f64::INFINITY, |(_, rt)| *rt)
}

/// The objective over one sweep's response times.
fn objective(times: &[(&InstanceId, f64)]) -> f64 {
    mean_completion(times.iter().map(|(_, rt)| rt))
}

/// True when `cand` is the configuration point `cur` already holds.
pub(crate) fn same_point(cur: &ChosenConfig, cand: &Candidate) -> bool {
    cur.option == cand.option
        && cur.vars == cand.vars
        && (cur.elastic_extra - cand.elastic_extra).abs() < 1e-9
}

/// The option `cand` of `target`'s bundle chooses.
fn option_of<'a>(target: &Target<'a>, cand: &Candidate) -> Result<&'a OptionSpec, CoreError> {
    let spec = &target.state.spec;
    spec.option(&cand.option).ok_or_else(|| CoreError::UnknownBundle { name: cand.option.clone() })
}

/// The state of one scan's depth-first walk over its slots.
struct Walk<'a> {
    ctl: &'a Controller,
    table: Table<'a>,
    targets: &'a [Target<'a>],
    only: Option<&'a InstanceId>,
    scratch: Cluster,
    /// Per cluster node, by position: how many released or placed
    /// allocations name it.
    touched: Vec<i32>,
    /// One level per slot reached so far; the first `depth` hold what is
    /// placed, and the ones below are buffers.
    placed: Vec<Placed<'a>>,
    /// What the matcher keeps between matches.
    match_scratch: MatchScratch,
    /// The sweep of the move set being scored.
    times: Vec<(&'a InstanceId, f64)>,
    /// The best score so far and its move set: per slot, the candidate's
    /// index and the predicted response time of its application.
    best: Option<f64>,
    best_moves: Vec<(usize, f64)>,
    trials: u64,
    matches: u64,
}

/// Tries every candidate of slot `depth` on top of what is placed: match,
/// commit, go one slot down, undo. Past the last slot the move set is
/// complete and gets scored.
fn descend(walk: &mut Walk<'_>, depth: usize) -> Result<(), CoreError> {
    let targets = walk.targets;
    let Some(target) = targets.get(depth) else {
        score(walk);
        return Ok(());
    };
    // Move sets one candidate of this slot stands for.
    let below: u64 = targets[depth + 1..].iter().map(|t| t.cands.len() as u64).product();
    for (at, cand) in target.cands.iter().enumerate() {
        let opt = option_of(target, cand)?;
        if walk.placed.len() == depth {
            let (alloc, span, saved) = Default::default();
            walk.placed.push(Placed { target, at, opt, alloc, span, saved, penalty: 0.0 });
        }
        let matcher = cand.matcher();
        walk.matches += 1;
        let level = &mut walk.placed[depth];
        let scratch = &mut walk.match_scratch;
        if matcher.match_into(&walk.scratch, opt, &cand.vars, &mut level.alloc, scratch)?.is_err() {
            walk.trials += below;
            continue;
        }
        level.span = walk.table.positions.push(scratch.sites());
        let sites = walk.table.positions.get(&level.span);
        walk.scratch.save_at(&level.alloc, sites, &mut level.saved);
        walk.scratch.commit_at(&level.alloc, sites)?;
        mark(&mut walk.touched, sites.nodes, 1);
        (level.at, level.opt) = (at, opt);
        level.penalty = walk.ctl.friction_of(target.state, cand, opt, &level.alloc);
        descend(walk, depth + 1)?;
        let level = &walk.placed[depth];
        let sites = walk.table.positions.get(&level.span);
        mark(&mut walk.touched, sites.nodes, -1);
        walk.scratch.restore_at(&level.alloc, sites, &level.saved);
        walk.table.positions.pop(&level.span);
    }
    Ok(())
}

/// One feasible move set: sweep, score, and keep it if it is strictly
/// better than every one before it.
fn score(walk: &mut Walk<'_>) {
    walk.trials += 1;
    walk.table.times(&walk.scratch, &walk.placed, &walk.touched, walk.only, &mut walk.times);
    let score = objective(&walk.times);
    if walk.best.is_none_or(|best| score < best - SCORE_EPSILON) {
        walk.best = Some(score);
        walk.best_moves.clear();
        let moves = walk.placed.iter().map(|p| (p.at, predicted(&walk.times, p.target.id)));
        walk.best_moves.extend(moves);
    }
}

/// One move of a scan's best move set as a [`Settle`] rule reads it: the
/// bundle's incumbent, if it has one, and the candidate it would move to.
type Switch<'a> = (Option<&'a ChosenConfig>, &'a Candidate);

/// Which moves of a scan's best move set, scoring `score` against the live
/// `objective_before`, are committed: their slots in order, or none.
type Settle = fn(moves: &[Switch<'_>], score: f64, objective_before: f64) -> Option<Vec<usize>>;

/// Keeps the incumbent unless the best candidate is a strict improvement.
fn settle_bundle(moves: &[Switch<'_>], score: f64, objective_before: f64) -> Option<Vec<usize>> {
    let (current, candidate) = moves[0];
    let keep_incumbent = current
        .is_some_and(|cur| same_point(cur, candidate) || score >= objective_before - SCORE_EPSILON);
    (!keep_incumbent).then(|| vec![0])
}

/// Keeps a joint move that strictly improves the objective or places a
/// bundle that had no configuration, down to the sides that change.
fn settle_pair(moves: &[Switch<'_>], score: f64, objective_before: f64) -> Option<Vec<usize>> {
    // A joint move that places a previously unplaced bundle is an
    // improvement even at equal objective.
    let places_new = moves.iter().any(|(current, _)| current.is_none());
    let improves = score < objective_before - SCORE_EPSILON || (places_new && score.is_finite());
    if !improves {
        return None;
    }
    // Only the sides that actually change are committed.
    let changes =
        |&(current, candidate): &Switch<'_>| !current.is_some_and(|cur| same_point(cur, candidate));
    let kept: Vec<usize> = (0..moves.len()).filter(|&i| changes(&moves[i])).collect();
    (!kept.is_empty()).then_some(kept)
}

/// The moves of the walk's best move set in slots `kept` as moves to
/// commit: each candidate up to the last kept is matched again, through
/// the walk's own buffers, on the scratch state it was scored on — what the
/// walk left, with the moves before it committed — which places it as it
/// was placed then. The scratch is left as it was found.
fn planned_moves(walk: &mut Walk<'_>, kept: &[usize]) -> Result<Vec<PlannedMove>, CoreError> {
    let mut moves = Vec::with_capacity(kept.len());
    let last = kept.last().map_or(0, |&slot| slot + 1);
    for (depth, &(at, predicted)) in walk.best_moves[..last].iter().enumerate() {
        let (target, level) = (&walk.targets[depth], &mut walk.placed[depth]);
        let candidate = &target.cands[at];
        let opt = option_of(target, candidate)?;
        let matcher = candidate.matcher();
        let scratch = &mut walk.match_scratch;
        if let Err(miss) =
            matcher.match_into(&walk.scratch, opt, &candidate.vars, &mut level.alloc, scratch)?
        {
            return Err(miss.error(opt, &level.alloc).into());
        }
        level.span = walk.table.positions.push(scratch.sites());
        let sites = walk.table.positions.get(&level.span);
        walk.scratch.save_at(&level.alloc, sites, &mut level.saved);
        walk.scratch.commit_at(&level.alloc, sites)?;
        if kept.contains(&depth) {
            moves.push(PlannedMove {
                id: target.id.clone(),
                bundle: target.state.spec.name.clone(),
                candidate: candidate.clone(),
                alloc: level.alloc.clone(),
                predicted,
            });
        }
    }
    for level in walk.placed[..last].iter().rev() {
        let sites = walk.table.positions.get(&level.span);
        walk.scratch.restore_at(&level.alloc, sites, &level.saved);
        walk.table.positions.pop(&level.span);
    }
    Ok(moves)
}

impl Controller {
    /// Predicted response time per application (max over its bundles), in
    /// arrival order. Applications with no applied configuration are
    /// omitted.
    pub fn predicted_response_times(&self) -> Vec<(InstanceId, f64)> {
        let live = self.table((0, 0)).live(&self.cluster);
        live.into_iter().map(|(id, rt)| (id.clone(), rt)).collect()
    }

    /// The current objective score over all applications.
    pub fn objective_score(&self) -> f64 {
        objective(&self.table((0, 0)).live(&self.cluster))
    }

    /// Looks up one bundle of one instance.
    pub(crate) fn bundle_state(
        &self,
        id: &InstanceId,
        bundle: &str,
    ) -> Result<&BundleState, CoreError> {
        self.app(id)
            .ok_or_else(|| CoreError::UnknownInstance { name: id.to_string() })?
            .bundle(bundle)
            .ok_or_else(|| CoreError::UnknownBundle { name: bundle.to_string() })
    }

    /// True when the bundle's `granularity` declaration forbids re-choosing
    /// it now.
    pub(crate) fn switch_blocked(&self, id: &InstanceId, bundle: &str) -> Result<bool, CoreError> {
        Ok(self.bundle_state(id, bundle)?.switch_blocked_at(self.now()))
    }

    /// Greedy optimization of one bundle: try every candidate and plan the
    /// best if it beats the incumbent. No plan for a bundle with no
    /// incumbent means no candidate fits.
    ///
    /// # Errors
    ///
    /// Evaluation errors from [`Controller::scan`].
    pub(crate) fn plan_bundle(&self, id: &InstanceId, bundle: &str) -> Result<Scan, CoreError> {
        let t_cands = Instant::now();
        let (state, cands) = self.slot(id, bundle)?;
        let candidates_ms = elapsed_ms(t_cands);
        let slot = [Target { id, state, cands: &cands }];
        self.scan(&slot, id, candidates_ms, settle_bundle)
    }

    /// What a scan's slot for `(id, bundle)` is made of: the bundle and its
    /// memoized candidates.
    fn slot(
        &self,
        id: &InstanceId,
        bundle: &str,
    ) -> Result<(&BundleState, Arc<Vec<Candidate>>), CoreError> {
        let state = self.bundle_state(id, bundle)?;
        let cands = self.cached_candidates(id, bundle);
        Ok((state, cands.ok_or_else(|| CoreError::UnknownBundle { name: bundle.to_string() })?))
    }

    /// One coordinated move: jointly re-choose bundles `a` and `b`,
    /// planning the best joint candidate when it strictly improves the
    /// system objective or places a bundle that had no configuration. The
    /// drivers never plan pairs in selfish mode, where a trial scores `b`'s
    /// application only.
    ///
    /// # Errors
    ///
    /// Evaluation errors from [`Controller::scan`].
    pub(crate) fn plan_pair(
        &self,
        a: (&InstanceId, &str),
        b: (&InstanceId, &str),
    ) -> Result<Scan, CoreError> {
        let t_cands = Instant::now();
        let ((state_a, cands_a), (state_b, cands_b)) = (self.slot(a.0, a.1)?, self.slot(b.0, b.1)?);
        let candidates_ms = elapsed_ms(t_cands);
        let slots = [
            Target { id: a.0, state: state_a, cands: &cands_a },
            Target { id: b.0, state: state_b, cands: &cands_b },
        ];
        self.scan(&slots, b.0, candidates_ms, settle_pair)
    }

    /// The one scan body: on one scratch copy of the cluster, release every
    /// slot's incumbent, then walk the product of the slots' candidates
    /// depth first, scoring each complete move set with one sweep, and plan
    /// the moves `settle` keeps of the first set that scores strictly
    /// better than all before it. Time in the table and the walk is
    /// reported as `prediction_ms`, the rest as `optimization_ms`, beside
    /// the `candidates_ms` fetching the slots' candidates took.
    fn scan(
        &self,
        targets: &[Target<'_>],
        focus: &InstanceId,
        candidates_ms: f64,
        settle: Settle,
    ) -> Result<Scan, CoreError> {
        let t_scan = Instant::now();
        // Room for the walk's levels: a match binds each node at most once,
        // and no more links than its option names.
        let links = targets
            .iter()
            .map(|t| t.state.spec.options.iter().map(|o| o.links.len()).max().unwrap_or(0))
            .sum();
        let table = self.table((self.cluster.len() * targets.len(), links));
        let objective_before = objective(&table.live(&self.cluster));
        let mut prediction_ms = elapsed_ms(t_scan);
        if targets.iter().any(|t| t.cands.is_empty()) {
            return Ok(Scan { plan: None, trials: 0, matches: 0 });
        }
        let apps = table.rows.len();
        let mut walk = Walk {
            ctl: self,
            table,
            targets,
            only: self.config.selfish.then_some(focus),
            scratch: self.cluster.clone(),
            touched: vec![0; self.cluster.len()],
            placed: Vec::with_capacity(targets.len()),
            match_scratch: MatchScratch::default(),
            times: Vec::with_capacity(apps),
            best: None,
            best_moves: Vec::with_capacity(targets.len()),
            trials: 0,
            matches: 0,
        };
        let mut released = Vec::with_capacity(targets.len());
        for cur in targets.iter().filter_map(|t| t.state.current.as_ref()) {
            released.push((&cur.alloc, walk.scratch.save(&cur.alloc)));
            walk.scratch.release(&cur.alloc)?;
            for i in cur.alloc.nodes.iter().filter_map(|n| self.cluster.node_index(&n.node)) {
                walk.touched[i] += 1;
            }
        }
        let t_walk = Instant::now();
        descend(&mut walk, 0)?;
        prediction_ms += elapsed_ms(t_walk);
        let kept = walk.best.and_then(|score| {
            let best = walk.best_moves.iter().zip(targets);
            let moves: Vec<Switch<'_>> =
                best.map(|(&(at, _), t)| (t.state.current.as_ref(), &t.cands[at])).collect();
            settle(&moves, score, objective_before).map(|kept| (score, kept))
        });
        let moves = match kept {
            Some((score, kept)) => Some((score, planned_moves(&mut walk, &kept)?)),
            None => None,
        };
        if cfg!(debug_assertions) {
            // Every commit was undone exactly: with the incumbents put back
            // the scratch is the live cluster again, field for field.
            for (alloc, saved) in released.iter().rev() {
                walk.scratch.restore(alloc, saved);
            }
            assert_eq!(walk.scratch, self.cluster, "a scan must undo what it tries");
        }
        let optimization_ms = (elapsed_ms(t_scan) - prediction_ms).max(0.0);
        let plan = moves.map(|(score, moves)| Plan {
            moves,
            score,
            objective_before,
            timings: PhaseTimings { candidates_ms, prediction_ms, optimization_ms, commit_ms: 0.0 },
        });
        Ok(Scan { plan, trials: walk.trials, matches: walk.matches })
    }

    /// Builds the scan's table against the live cluster, with `room` for
    /// as many more node and link positions.
    fn table<'a>(&'a self, room: (usize, usize)) -> Table<'a> {
        let (mut nodes, mut links) = room;
        let apps = self.instances.in_arrival_order().map(|inst| &inst.app);
        for cfg in apps.flat_map(|app| &app.bundles).filter_map(|b| b.current.as_ref()) {
            (nodes, links) = (nodes + cfg.alloc.nodes.len(), links + cfg.alloc.links.len());
        }
        let positions = SiteStack::with_capacity(nodes, links);
        let rows = Vec::with_capacity(self.instances.len());
        let mut table = Table { positions, rows };
        for app in self.instances.in_arrival_order().map(|inst| &inst.app) {
            let mut bundles = Vec::with_capacity(app.bundles.len());
            for bundle in &app.bundles {
                let standing = bundle.current.as_ref().and_then(|cfg| {
                    let opt = bundle.spec.option(&cfg.option)?;
                    let (span, whole) = table.positions.push_found(&self.cluster, &cfg.alloc);
                    let sites = whole.then(|| table.positions.get(&span));
                    let live = time_on(&self.cluster, &cfg.alloc, sites, opt, 0.0);
                    Some(Standing { opt, alloc: &cfg.alloc, span, whole, live })
                });
                bundles.push((bundle, standing));
            }
            table.rows.push(Row { id: &app.id, bundles });
        }
        table
    }

    /// The friction (seconds) of moving `bundle` to `cand`, placed as
    /// `alloc`; zero when the candidate equals the incumbent or there is no
    /// incumbent.
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
    use crate::candidates::enumerate;
    use crate::controller::{ControllerConfig, LintMode};
    use harmony_predict::{model_for_option, DefaultModel, LogPParams};
    use harmony_resources::{AllocatedLink, Matcher, ResourceError};
    use harmony_rng::SeededRng;
    use harmony_rsl::expr::MapEnv;
    use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG, FIG3_DBCLIENT};
    use harmony_rsl::schema::{parse_bundle_script, BundleSpec};

    // ------------------------------------------------------------------
    // The reference: the clone-per-trial body `scan` replaced, kept as it
    // was so the scan can be held equal to it.
    // ------------------------------------------------------------------

    /// One hypothetical re-choice: `bundle` of instance `id` moves to `cand`.
    #[derive(Debug, Clone, Copy)]
    struct Move<'a> {
        id: &'a InstanceId,
        bundle: &'a str,
        cand: &'a Candidate,
    }

    struct Replace<'a> {
        id: &'a InstanceId,
        bundle: &'a str,
        opt: &'a OptionSpec,
        alloc: Allocation,
        penalty: f64,
    }

    #[derive(Debug)]
    struct Trial<'s> {
        score: f64,
        times: Vec<(&'s InstanceId, f64)>,
        allocs: Vec<Allocation>,
    }

    impl Controller {
        fn ref_plan_bundle(
            &self,
            id: &InstanceId,
            bundle: &str,
            cands: &[Candidate],
        ) -> Result<Option<Plan>, CoreError> {
            let sets = cands.iter().map(|cand| vec![Move { id, bundle, cand }]);
            Ok(self.ref_best_of(sets, id)?.and_then(|plan| self.ref_settle(plan, settle_bundle)))
        }

        fn ref_plan_pair(
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
            Ok(self.ref_best_of(sets, b.0)?.and_then(|plan| self.ref_settle(plan, settle_pair)))
        }

        /// The moves of `plan` that `settle` keeps, or none.
        fn ref_settle(&self, mut plan: Plan, settle: Settle) -> Option<Plan> {
            let moves: Vec<Switch<'_>> =
                plan.moves.iter().map(|m| (self.choice(&m.id, &m.bundle), &m.candidate)).collect();
            let kept = settle(&moves, plan.score, plan.objective_before)?;
            let mut slot = 0..;
            plan.moves.retain(|_| kept.contains(&slot.next().expect("unbounded")));
            Some(plan)
        }

        fn ref_best_of<'a>(
            &self,
            sets: impl Iterator<Item = Vec<Move<'a>>>,
            focus: &InstanceId,
        ) -> Result<Option<Plan>, CoreError> {
            let objective_before = objective(&self.ref_response_times(&self.cluster, &[], None));
            let mut best: Option<(Vec<Move<'a>>, Trial<'_>)> = None;
            for moves in sets {
                if let Some(t) = self.ref_trial(&moves, focus)? {
                    if best.as_ref().is_none_or(|(_, b)| t.score < b.score - SCORE_EPSILON) {
                        best = Some((moves, t));
                    }
                }
            }
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
                timings: PhaseTimings::default(),
            }))
        }

        fn ref_trial(
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
                let alloc = match m.cand.matcher().match_vars(&cluster, opt, &m.cand.vars) {
                    Ok(alloc) => alloc,
                    Err(ResourceError::NoMatch { .. }) => return Ok(None),
                    Err(e) => return Err(e.into()),
                };
                cluster.commit(&alloc)?;
                let switching = bundle.current.as_ref().is_some_and(|c| !same_point(c, m.cand));
                let seconds = match &opt.friction {
                    Some(tag) if switching => tag.amount(&alloc.env()).unwrap_or(0.0),
                    _ => 0.0,
                };
                let penalty = seconds * self.config.friction_weight;
                replaces.push(Replace { id: m.id, bundle: m.bundle, opt, alloc, penalty });
            }
            let only = self.config.selfish.then_some(focus);
            let times = self.ref_response_times(&cluster, &replaces, only);
            let allocs = replaces.into_iter().map(|r| r.alloc).collect();
            Ok(Some(Trial { score: objective(&times), times, allocs }))
        }

        fn ref_response_times(
            &self,
            cluster: &Cluster,
            replaces: &[Replace<'_>],
            only: Option<&InstanceId>,
        ) -> Vec<(&InstanceId, f64)> {
            let mut out = Vec::new();
            for app in self.instances.in_arrival_order().map(|inst| &inst.app) {
                let id = &app.id;
                if only.is_some_and(|o| o != id) {
                    continue;
                }
                let mut worst: Option<f64> = None;
                for bundle in &app.bundles {
                    let replace =
                        replaces.iter().find(|r| r.id == id && r.bundle == bundle.spec.name);
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
                        Ok(p) => p.response_time + penalty,
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
    }

    // ------------------------------------------------------------------
    // Fixtures.
    // ------------------------------------------------------------------

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

    /// Attaches `spec` to `id` without planning it, as `place_bundle` does
    /// before it plans.
    fn attach(c: &mut Controller, id: &InstanceId, spec: BundleSpec) {
        c.instances.get_mut(id).unwrap().attach(BundleState::new(spec));
    }

    /// Every `(instance, bundle)` with the candidates the drivers would
    /// fetch for it.
    fn all_bundles(c: &Controller) -> Vec<(InstanceId, String, Vec<Candidate>)> {
        let mut out = Vec::new();
        for id in c.instances() {
            for b in &c.app(&id).unwrap().bundles {
                let cands = enumerate(&b.spec);
                out.push((id.clone(), b.spec.name.clone(), cands));
            }
        }
        out
    }

    /// What a plan decides, down to the bit.
    fn decided(plan: Result<Option<Plan>, CoreError>) -> Result<Option<String>, String> {
        let plan = plan.map_err(|e| format!("{e:?}"))?;
        Ok(plan.map(|p| {
            let moves: Vec<String> = p
                .moves
                .iter()
                .map(|m| {
                    format!(
                        "{}.{} -> {:?} on {:?} predicted {:016x}",
                        m.id,
                        m.bundle,
                        m.candidate,
                        m.alloc,
                        m.predicted.to_bits()
                    )
                })
                .collect();
            format!(
                "{moves:?} score {:016x} before {:016x}",
                p.score.to_bits(),
                p.objective_before.to_bits()
            )
        }))
    }

    /// Holds every single-bundle and pairwise scan of the controller's
    /// present state equal to the reference. Returns how many plans moved
    /// something.
    fn assert_scans_match_the_reference(c: &Controller, what: &str) -> usize {
        let bundles = all_bundles(c);
        let mut plans = 0;
        for (i, (id, b, cands)) in bundles.iter().enumerate() {
            let scan = c.plan_bundle(id, b).map(|s| s.plan);
            plans += usize::from(matches!(scan, Ok(Some(_))));
            assert_eq!(decided(scan), decided(c.ref_plan_bundle(id, b, cands)), "{what}: {id}.{b}");
            for (jd, jb, jcands) in bundles.iter().skip(i + 1) {
                let scan = c.plan_pair((id, b), (jd, jb)).map(|s| s.plan);
                plans += usize::from(matches!(scan, Ok(Some(_))));
                let reference = c.ref_plan_pair((id, b), cands, (jd, jb), jcands);
                assert_eq!(decided(scan), decided(reference), "{what}: {id}.{b} + {jd}.{jb}");
            }
        }
        plans
    }

    // ------------------------------------------------------------------
    // Reference equivalence.
    // ------------------------------------------------------------------

    const SHAPES: [&str; 5] = [
        FIG2B_BAG,
        // Figure 3's client, its server pinned to a host the SP-2 has;
        // elastic memory steps and a default-model link.
        FIG3_DBCLIENT,
        "harmonyBundle ded:1 b { {o {variable w {1 2}} \
           {node n {replicate w} {dedicated 1} {seconds {90 / w}} {memory 16}}} }",
        "harmonyBundle fr:1 b { {o {variable w {1 2 4}} \
           {node n {replicate w} {seconds {120 / w}} {memory >=20}} \
           {performance {1 120} {2 70} {4 45}} {friction {10 * w}}} }",
        "harmonyBundle pin:1 b { \
           {near {node n {hostname node01.sp2} {seconds 20} {memory 200}}} \
           {far {node n {hostname node02.sp2} {seconds 25} {memory 8}}} }",
    ];

    fn shape(i: usize) -> BundleSpec {
        parse_bundle_script(&SHAPES[i].replace("harmony.cs.umd.edu", "node00.sp2")).unwrap()
    }

    #[test]
    fn the_scan_decides_what_the_clone_per_trial_reference_decides() {
        let mut plans = 0;
        for seed in 0..24u64 {
            let mut rng = SeededRng::seed(seed);
            let config = ControllerConfig { selfish: seed % 4 == 3, ..Default::default() };
            let nodes = 3 + (seed as usize % 4);
            let cluster = Cluster::from_rsl(&sp2_cluster(nodes)).unwrap();
            let mut c = Controller::new(cluster, config);
            let mut t = 0.0;
            for step in 0..10 {
                t += 100.0;
                c.set_time(t);
                let live = c.instances();
                if !live.is_empty() && rng.chance(0.25) {
                    c.end(&live[rng.uniform_int(0, live.len() as i64 - 1) as usize]).unwrap();
                } else {
                    let spec = shape(rng.weighted(&[4, 3, 1, 2, 1]));
                    // An arrival that does not fit stays registered and
                    // unplaced: pair scans must be able to admit it.
                    let _ = c.register(spec);
                }
                plans += assert_scans_match_the_reference(&c, &format!("seed {seed} step {step}"));
            }
        }
        assert!(plans > 50, "the populations should leave moves to plan, found {plans}");
    }

    /// A hard matcher error on the inner slot surfaces exactly when the
    /// outer candidate matched — an outer `NoMatch` skips the row, as the
    /// reference's outer `NoMatch` returned before matching the inner move.
    #[test]
    fn an_inner_hard_error_surfaces_iff_the_outer_candidate_matched() {
        let config = ControllerConfig { lint: LintMode::Off, ..Default::default() };
        let mut c = bags(1, config);
        let fits = c.startup("outer");
        attach(&mut c, &fits, parse_bundle_script(FIG2B_BAG).unwrap());
        let huge = c.startup("outer");
        let spec = "harmonyBundle outer:1 config { {o {node n {seconds 1} {memory 99999}}} }";
        attach(&mut c, &huge, parse_bundle_script(spec).unwrap());
        let broken = c.startup("inner");
        let spec = "harmonyBundle inner:1 config { {o {node n {seconds {10 / missing}}}} }";
        attach(&mut c, &broken, parse_bundle_script(spec).unwrap());
        let inner = c.cached_candidates(&broken, "config").unwrap();
        for (outer, surfaces) in [(&fits, true), (&huge, false)] {
            let cands = c.cached_candidates(outer, "config").unwrap();
            let scan = c.plan_pair((outer, "config"), (&broken, "config"));
            assert_eq!(scan.is_err(), surfaces, "{outer}");
            let reference = c.ref_plan_pair((outer, "config"), &cands, (&broken, "config"), &inner);
            assert_eq!(decided(scan.map(|s| s.plan)), decided(reference), "{outer}");
        }
    }

    /// The footprint rule rests on this: both models `model_for_option` can
    /// return — and the default model's LogP variant — read cluster state
    /// only at an allocation's own nodes and the links between them.
    #[test]
    fn a_prediction_reads_only_its_own_nodes_and_the_links_between_them() {
        let mut cluster = Cluster::from_rsl(&sp2_cluster(8)).unwrap();
        let bag = parse_bundle_script(FIG2B_BAG).unwrap();
        let db = shape(1);
        let mut vars = MapEnv::new();
        vars.set("workerNodes", harmony_rsl::Value::Int(4));
        // Own nodes: node00..node03 (the bag) and node00 + node01 (DS).
        let bag_alloc = Matcher::default().match_option(&cluster, &bag.options[0], &vars).unwrap();
        let ds = db.option("DS").unwrap();
        let ds_alloc = Matcher::default().match_option(&cluster, ds, &MapEnv::new()).unwrap();
        cluster.commit(&bag_alloc).unwrap();
        cluster.commit(&ds_alloc).unwrap();
        let own = |name: &str| bag_alloc.nodes.iter().any(|n| n.node == name);
        assert!(ds_alloc.nodes.iter().all(|n| own(&n.node)));

        let logp = DefaultModel::with_logp(LogPParams::sp2_switch());
        let predictions = |cluster: &Cluster| -> Vec<u64> {
            let models: [(Box<dyn Predictor + '_>, &OptionSpec, &Allocation); 4] = [
                (model_for_option(&bag.options[0]), &bag.options[0], &bag_alloc),
                (model_for_option(ds), ds, &ds_alloc),
                (Box::new(DefaultModel::new()), &bag.options[0], &bag_alloc),
                (Box::new(logp), &bag.options[0], &bag_alloc),
            ];
            models
                .iter()
                .map(|(model, opt, alloc)| {
                    let ctx = PredictionContext::committed(cluster, alloc, opt);
                    model.predict(&ctx).unwrap().response_time.to_bits()
                })
                .collect()
        };
        let before = predictions(&cluster);

        // Everything a trial elsewhere could change, and more: tasks,
        // memory, seconds and exclusivity on every other node, bandwidth
        // on every link with an end outside — including links that reach
        // *into* the footprint from outside.
        let names: Vec<String> = cluster.nodes().map(|n| n.decl.name.clone()).collect();
        let outside: Vec<&String> = names.iter().filter(|n| !own(n)).collect();
        let mut elsewhere = Allocation::default();
        for (i, name) in outside.iter().enumerate() {
            elsewhere.nodes.push(harmony_resources::AllocatedNode {
                req: "x".into(),
                index: i as u32,
                node: (*name).clone(),
                memory: 100.0,
                seconds: 1e4,
                exclusive: true,
            });
            for other in &names {
                if other != *name {
                    elsewhere.links.push(AllocatedLink {
                        a: (*name).clone(),
                        b: other.clone(),
                        bandwidth: 300.0,
                    });
                }
            }
        }
        for _ in 0..3 {
            cluster.commit(&elsewhere).unwrap();
        }
        assert_eq!(predictions(&cluster), before);

        // The converse, so the test cannot pass vacuously: a task on an own
        // node moves the contended predictions.
        let mut inside = Allocation::default();
        inside.nodes.push(harmony_resources::AllocatedNode {
            req: "x".into(),
            index: 0,
            node: "node00".into(),
            memory: 1.0,
            seconds: 1.0,
            exclusive: false,
        });
        cluster.commit(&inside).unwrap();
        assert_ne!(predictions(&cluster), before);
    }

    // ------------------------------------------------------------------
    // The sweep and the plan.
    // ------------------------------------------------------------------

    #[test]
    fn the_empty_trial_is_the_live_score() {
        let c = bags(3, ControllerConfig::default());
        let focus = &c.instances()[0];
        let trial = c.ref_trial(&[], focus).unwrap().unwrap();
        assert_eq!(trial.score, c.objective_score());
        assert_eq!(owned(&trial.times), c.predicted_response_times());
        assert!(trial.allocs.is_empty());
    }

    /// For an initial placement there is no incumbent and so no friction:
    /// the winning move set's score and prediction are exactly what the
    /// committed decision records — including the app-level max once the
    /// application has a second bundle.
    #[test]
    fn the_winning_trial_is_what_gets_committed() {
        const FIRST: &str =
            "harmonyBundle two:1 first { {slow {node n {seconds 300} {memory 32}}} }";
        const SECOND: &str =
            "harmonyBundle two:1 second { {fast {node n {seconds 100} {memory 32}}} }";
        // Alone on the cluster: an arrival re-evaluates no other
        // application, so each verb commits exactly the planned move.
        let mut c = bags(0, ControllerConfig::default());
        let id = c.startup("two");
        let mut committed = Vec::new();
        for script in [FIRST, SECOND] {
            let spec = parse_bundle_script(script).unwrap();
            let name = spec.name.clone();
            attach(&mut c, &id, spec.clone());
            let plan = c.plan_bundle(&id, &name).unwrap().plan.unwrap();
            let (score, predicted) = (plan.score, plan.moves[0].predicted);
            // Detach again and let the real verb place it.
            c.instances.get_mut(&id).unwrap().detach(&name);
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
        let c = bags(3, ControllerConfig::default());
        let state = |c: &Controller| (c.persisted_state().canonical_fingerprint(), c.journal_seq());
        let before = state(&c);
        assert_scans_match_the_reference(&c, "three bags");
        assert_eq!(state(&c), before);
    }

    /// A scan reports exactly what it did: one move set per element of the
    /// product, one match per outer candidate plus one per inner candidate
    /// under each outer candidate that fits.
    #[test]
    fn a_scan_counts_its_move_sets_and_matches() {
        let mut c = bags(2, ControllerConfig::default());
        let ids = c.instances();
        let single = c.plan_bundle(&ids[0], "config").unwrap();
        assert_eq!((single.trials, single.matches), (4, 4));
        let pair = c.plan_pair((&ids[0], "config"), (&ids[1], "config")).unwrap();
        assert_eq!((pair.trials, pair.matches), (16, 20));
        // An outer candidate that cannot fit decides its row with one match.
        let huge = c.startup("huge");
        let spec = "harmonyBundle huge:1 config { {o {node n {seconds 1} {memory 99999}}} }";
        attach(&mut c, &huge, parse_bundle_script(spec).unwrap());
        let pair = c.plan_pair((&huge, "config"), (&ids[1], "config")).unwrap();
        assert_eq!((pair.trials, pair.matches), (4, 1));
        assert!(pair.plan.is_none());
    }

    #[test]
    fn selfish_mode_scores_the_focus_app_only() {
        for selfish in [false, true] {
            let c = bags(2, ControllerConfig { selfish, ..Default::default() });
            let ids = c.instances();
            let focus = &ids[1];
            let cands = c.cached_candidates(focus, "config").unwrap();
            let state = c.bundle_state(focus, "config").unwrap();
            let slot = Target { id: focus, state, cands: &cands[..1] };
            let keep_all: Settle = |moves, _, _| Some((0..moves.len()).collect());
            let plan = c.scan(&[slot], focus, 0.0, keep_all).unwrap().plan.unwrap();
            let alone = mean_completion(&[plan.moves[0].predicted]);
            assert_eq!(plan.score == alone, selfish);
        }
    }
}
