//! The planner: the read-only half of the controller's greedy policy.
//!
//! Planning reads, [`Controller`] commits. Every function here takes
//! `&self` and returns a value — the memoized candidate sets included,
//! which exist from the moment a bundle is attached — so the drivers in
//! `controller.rs` write nothing before they commit: they ask for a
//! [`Scan`], count it and apply its [`Plan`]. The one thing planning
//! writes is a [`PlanWorkspace`] of buffers, which the drivers lend it as
//! an explicit `&mut`: nothing a decision depends on is in it.
//!
//! One scan body, [`Controller::scan`], serves the paper's §4.3 pass
//! ("optimize one bundle at a time", [`Controller::plan_bundle`]) and the
//! §1 admission case — an incumbent shrinks so a newcomer fits — over the
//! product of two candidate sets ([`Controller::plan_pair`]). A scan costs
//! what its moves change (docs/OPTIMIZER.md, "One planner"): candidates
//! are committed on one scratch cluster and undone exactly, so a pair scan
//! matches `|A| + |A|·|B|` times; what predicting the standing bundles
//! needs is in one [`Table`] filled once; and a trial re-predicts only the
//! bundles whose nodes meet the nodes it released or bound.
//!
//! A warm scan allocates nothing: the scratch cluster, the table, the walk's
//! levels and the sweep's buffers are the workspace's, refreshed in place
//! scan after scan; the scratch cluster is two vectors of counters beside
//! shared declarations; each level matches into one [`Allocation`] and
//! saves into one [`SavedCounters`]; and a candidate that does not fit is a
//! [`Miss`](harmony_resources::Miss) nobody formats.
//!
//! A trial evaluates only what depends on it. Each candidate comes
//! compiled ([`Memo`]): its option's position and its node requirements
//! evaluated in its own bindings, so a match evaluates only the link
//! bandwidths, which read the memory it granted. And a trial finds no node
//! by name: the matcher hands out where in the scratch cluster it bound
//! each node and link ([`Sites`]); the walk pushes those positions onto the
//! table's position stack, above the standing bundles' (resolved once per
//! scan), and saves, commits, restores, marks `touched` and predicts
//! through them. Positions never outlive the scan: within it the scratch's
//! nodes and links never change.
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

use std::ops::Range;
use std::time::Instant;

use harmony_predict::{option_model, PredictError, Prediction, PredictionContext, Predictor};
use harmony_resources::{
    Allocation, Cluster, Compiled, MatchScratch, SavedCounters, SiteSpan, SiteStack, Sites,
};
use harmony_rsl::schema::OptionSpec;

use crate::app::{BundleState, ChosenConfig, InstanceId};
use crate::candidates::{Candidate, Memo};
use crate::controller::Controller;
use crate::error::CoreError;
use crate::journal::PhaseTimings;
use crate::objective::mean_completion;
use crate::optimizer::SCORE_EPSILON;

/// The buffers planning works in, kept by the [`Controller`] from scan to
/// scan so that a warm scan allocates nothing. Nothing a decision depends
/// on lives here: each scan refreshes or overwrites what it reads before
/// reading it, so the workspace is never serialized, never fingerprinted,
/// and starts empty on recovery.
#[derive(Debug, Default)]
pub(crate) struct PlanWorkspace {
    /// The live cluster's copy the walk commits trials on, refreshed in
    /// place ([`Cluster::clone_from`]).
    scratch: Cluster,
    /// What the matcher keeps between matches.
    match_scratch: MatchScratch,
    /// One level per slot depth; during a walk the first `depth` hold what
    /// is placed.
    levels: Vec<Level>,
    /// Per cluster node, by position: how many released or placed
    /// allocations name it.
    touched: Vec<i32>,
    table: Table,
    /// The sweep of the move set being scored: per application, its row
    /// and response time.
    times: Vec<(usize, f64)>,
    /// The best move set so far: per slot, the candidate's index and the
    /// predicted response time of its application.
    best_moves: Vec<(usize, f64)>,
    /// What releasing each slot's incumbent overwrote, read back by the
    /// debug build's check that a scan undoes what it tries.
    released: Vec<SavedCounters>,
}

/// One slot of a scan: a bundle to re-choose and, in order, the candidates
/// to try, each with what its bindings decide about matching it (its
/// [`Memo`]).
struct Target<'a> {
    id: &'a InstanceId,
    state: &'a BundleState,
    cands: &'a [Candidate],
    compiled: &'a [(usize, Compiled)],
}

impl<'a> Target<'a> {
    /// The option candidate `at` chooses, and its requirements compiled in
    /// the candidate's bindings.
    fn option(&self, at: usize) -> (&'a OptionSpec, &'a Compiled) {
        let (option, compiled) = &self.compiled[at];
        (&self.state.spec.options[*option], compiled)
    }
}

/// One level of the walk: the candidate of its slot committed on the
/// scratch cluster, in buffers that every candidate tried at its depth
/// reuses, scan after scan.
#[derive(Debug, Default)]
struct Level {
    /// The candidate, an index into its slot's.
    at: usize,
    alloc: Allocation,
    /// Where `alloc`'s bindings are in the table's [`SiteStack`].
    span: SiteSpan,
    /// The scratch counters `alloc`'s commit overwrote.
    saved: SavedCounters,
    /// Friction of switching into the candidate, seconds.
    penalty: f64,
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

/// Every application, in arrival order, with what predicting it needs:
/// filled once per scan, not once per trial. It holds positions, not
/// borrows — an application by its place in arrival order, a bundle by its
/// place in the application, an option by its place in the bundle — so its
/// buffers outlive the scan in the [`PlanWorkspace`].
#[derive(Debug, Default)]
struct Table {
    /// Where the standing bundles' bindings are in the cluster, and above
    /// them the placed levels', pushed on the way down the walk and popped
    /// on the way up. The scratch cluster is a copy of the live one, so
    /// both have the same nodes and links at the same positions for as
    /// long as the scan runs.
    positions: SiteStack,
    /// Per application, in arrival order: its range of `entries`.
    rows: Vec<Range<usize>>,
    /// The bundles a sweep reads: each configured one, and each slot's.
    entries: Vec<Entry>,
    /// Per slot of the scan, the row of its application.
    slots: Vec<usize>,
}

/// One bundle of the table.
#[derive(Debug)]
struct Entry {
    /// The bundle's place in its application.
    bundle: usize,
    /// The slot of the scan that re-chooses this bundle, if one does.
    slot: Option<usize>,
    standing: Option<Standing>,
}

/// A configured bundle as the table holds it.
#[derive(Debug)]
struct Standing {
    /// The chosen option's place in the bundle.
    option: usize,
    /// Where the allocation's published bindings are in the table's
    /// [`SiteStack`]; its nodes are its footprint.
    span: SiteSpan,
    /// True when every binding is published, so predicting it may read
    /// `span` instead of names.
    whole: bool,
    /// Response time on the live cluster.
    live: f64,
}

/// Refills `table` against `ctl`'s live cluster, marking the bundles
/// `targets` re-choose.
fn fill(table: &mut Table, ctl: &Controller, targets: &[Target<'_>]) {
    table.positions.clear();
    table.rows.clear();
    table.entries.clear();
    table.slots.clear();
    table.slots.resize(targets.len(), usize::MAX);
    for (row, inst) in ctl.instances.in_arrival_order().enumerate() {
        let from = table.entries.len();
        for (b, bundle) in inst.app.bundles.iter().enumerate() {
            // A slot's bundle is the table's own `BundleState`: both borrow
            // it from the controller.
            let slot = targets.iter().position(|t| std::ptr::eq(t.state, bundle));
            if let Some(s) = slot {
                table.slots[s] = row;
            }
            let standing = bundle.current.as_ref().and_then(|cfg| {
                let options = &bundle.spec.options;
                let option = options.iter().position(|o| o.name == cfg.option)?;
                let (span, whole) = table.positions.push_found(&ctl.cluster, &cfg.alloc);
                let sites = whole.then(|| table.positions.get(&span));
                let live = time_on(&ctl.cluster, &cfg.alloc, sites, &options[option], 0.0);
                Some(Standing { option, span, whole, live })
            });
            if slot.is_some() || standing.is_some() {
                table.entries.push(Entry { bundle: b, slot, standing });
            }
        }
        table.rows.push(from..table.entries.len());
    }
}

impl Table {
    /// The sweep: response time of every application (max over its
    /// bundles) on `cluster`, in arrival order, into `out`, with the
    /// `placed` levels of `targets` overriding stored choices and only the
    /// bundles on `touched` nodes re-predicted. Applications with no
    /// configuration are omitted, as is every row but `only` when it is set
    /// (selfish mode).
    #[allow(clippy::too_many_arguments)]
    fn times(
        &self,
        ctl: &Controller,
        cluster: &Cluster,
        targets: &[Target<'_>],
        placed: &[Level],
        touched: &[i32],
        only: Option<usize>,
        out: &mut Vec<(usize, f64)>,
    ) {
        out.clear();
        for (row, entries) in self.rows.iter().enumerate() {
            if only.is_some_and(|o| o != row) {
                continue;
            }
            let mut worst: Option<f64> = None;
            for entry in &self.entries[entries.clone()] {
                let moved = entry.slot.and_then(|s| Some((&targets[s], placed.get(s)?)));
                let rt = match (moved, &entry.standing) {
                    (Some((target, level)), _) => {
                        let sites = self.positions.get(&level.span);
                        let (opt, _) = target.option(level.at);
                        time_on(cluster, &level.alloc, Some(sites), opt, level.penalty)
                    }
                    (None, Some(s)) => {
                        let nodes = self.positions.get(&s.span).nodes;
                        if !nodes.iter().any(|&i| touched[i] > 0) {
                            s.live
                        } else {
                            let bundle = &ctl.instances.by_arrival(row).app.bundles[entry.bundle];
                            let cfg = bundle.current.as_ref().expect("a standing bundle has one");
                            let sites = s.whole.then(|| self.positions.get(&s.span));
                            let opt = &bundle.spec.options[s.option];
                            time_on(cluster, &cfg.alloc, sites, opt, 0.0)
                        }
                    }
                    (None, None) => continue,
                };
                worst = Some(worst.map_or(rt, |w| w.max(rt)));
            }
            if let Some(rt) = worst {
                out.push((row, rt));
            }
        }
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

/// Response time of the application in `row` in one sweep's `times`.
fn predicted(times: &[(usize, f64)], row: usize) -> f64 {
    times.iter().find(|(r, _)| *r == row).map_or(f64::INFINITY, |(_, rt)| *rt)
}

/// The objective over one sweep's response times.
fn objective(times: &[(usize, f64)]) -> f64 {
    mean_completion(times.iter().map(|(_, rt)| rt))
}

/// True when `cand` is the configuration point `cur` already holds.
pub(crate) fn same_point(cur: &ChosenConfig, cand: &Candidate) -> bool {
    cur.option == cand.option
        && cur.vars == cand.vars
        && (cur.elastic_extra - cand.elastic_extra).abs() < 1e-9
}

/// The state of one scan's depth-first walk over its slots.
struct Walk<'w, 'a> {
    ctl: &'a Controller,
    targets: &'a [Target<'a>],
    /// The row scored alone in selfish mode.
    only: Option<usize>,
    ws: &'w mut PlanWorkspace,
    /// The best score so far; its move set is `ws.best_moves`.
    best: Option<f64>,
    trials: u64,
    matches: u64,
}

/// Tries every candidate of slot `depth` on top of what is placed: match,
/// commit, go one slot down, undo. Past the last slot the move set is
/// complete and gets scored.
fn descend(walk: &mut Walk<'_, '_>, depth: usize) -> Result<(), CoreError> {
    let targets = walk.targets;
    let Some(target) = targets.get(depth) else {
        score(walk);
        return Ok(());
    };
    // Move sets one candidate of this slot stands for.
    let below: u64 = targets[depth + 1..].iter().map(|t| t.cands.len() as u64).product();
    for (at, cand) in target.cands.iter().enumerate() {
        let (opt, compiled) = target.option(at);
        let ws = &mut *walk.ws;
        if ws.levels.len() == depth {
            ws.levels.push(Level::default());
        }
        walk.matches += 1;
        let level = &mut ws.levels[depth];
        let (out, scratch) = (&mut level.alloc, &mut ws.match_scratch);
        let found =
            cand.matcher().match_into(&ws.scratch, opt, compiled, &cand.vars, out, scratch)?;
        if found.is_err() {
            walk.trials += below;
            continue;
        }
        level.span = ws.table.positions.push(scratch.sites());
        let sites = ws.table.positions.get(&level.span);
        ws.scratch.save_at(&level.alloc, sites, &mut level.saved);
        ws.scratch.commit_at(&level.alloc, sites)?;
        mark(&mut ws.touched, sites.nodes, 1);
        level.at = at;
        level.penalty = walk.ctl.friction_of(target.state, cand, opt, &level.alloc);
        descend(walk, depth + 1)?;
        let ws = &mut *walk.ws;
        let level = &ws.levels[depth];
        let sites = ws.table.positions.get(&level.span);
        mark(&mut ws.touched, sites.nodes, -1);
        ws.scratch.restore_at(&level.alloc, sites, &level.saved);
        ws.table.positions.pop(&level.span);
    }
    Ok(())
}

/// One feasible move set: sweep, score, and keep it if it is strictly
/// better than every one before it.
fn score(walk: &mut Walk<'_, '_>) {
    walk.trials += 1;
    let ws = &mut *walk.ws;
    let placed = &ws.levels[..walk.targets.len()];
    let (ctl, targets) = (walk.ctl, walk.targets);
    ws.table.times(ctl, &ws.scratch, targets, placed, &ws.touched, walk.only, &mut ws.times);
    let score = objective(&ws.times);
    if walk.best.is_none_or(|best| score < best - SCORE_EPSILON) {
        walk.best = Some(score);
        ws.best_moves.clear();
        let rows = &ws.table.slots;
        let moves = placed.iter().zip(rows).map(|(p, &row)| (p.at, predicted(&ws.times, row)));
        ws.best_moves.extend(moves);
    }
}

/// One move of a scan's best move set as a [`Settle`] rule reads it: the
/// bundle's incumbent, if it has one, and the candidate it would move to.
type Switch<'a> = (Option<&'a ChosenConfig>, &'a Candidate);

/// The slots of a scan's best move set that are committed: bit `i` for
/// slot `i`.
type Kept = u32;

/// Which moves of a scan's best move set, scoring `score` against the live
/// `objective_before`, are committed, or none.
type Settle = fn(moves: &[Switch<'_>], score: f64, objective_before: f64) -> Option<Kept>;

/// Keeps the incumbent unless the best candidate is a strict improvement.
fn settle_bundle(moves: &[Switch<'_>], score: f64, objective_before: f64) -> Option<Kept> {
    let (current, candidate) = moves[0];
    let keep_incumbent = current
        .is_some_and(|cur| same_point(cur, candidate) || score >= objective_before - SCORE_EPSILON);
    (!keep_incumbent).then_some(1)
}

/// Keeps a joint move that strictly improves the objective or places a
/// bundle that had no configuration, down to the sides that change.
fn settle_pair(moves: &[Switch<'_>], score: f64, objective_before: f64) -> Option<Kept> {
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
    let kept = (0..moves.len()).filter(|&i| changes(&moves[i])).fold(0, |kept, i| kept | 1 << i);
    (kept != 0).then_some(kept)
}

/// The moves of the walk's best move set in slots `kept` as moves to
/// commit: each candidate up to the last kept is matched again, through
/// the walk's own buffers, on the scratch state it was scored on — what the
/// walk left, with the moves before it committed — which places it as it
/// was placed then. The scratch is left as it was found.
fn planned_moves(walk: &mut Walk<'_, '_>, kept: Kept) -> Result<Vec<PlannedMove>, CoreError> {
    let ws = &mut *walk.ws;
    let mut moves = Vec::with_capacity(kept.count_ones() as usize);
    let last = (Kept::BITS - kept.leading_zeros()) as usize;
    for (depth, &(at, predicted)) in ws.best_moves[..last].iter().enumerate() {
        let (target, level) = (&walk.targets[depth], &mut ws.levels[depth]);
        let candidate = &target.cands[at];
        let (opt, compiled) = target.option(at);
        let (vars, out, scratch) = (&candidate.vars, &mut level.alloc, &mut ws.match_scratch);
        if let Err(miss) =
            candidate.matcher().match_into(&ws.scratch, opt, compiled, vars, out, scratch)?
        {
            return Err(miss.error(opt, &level.alloc).into());
        }
        level.span = ws.table.positions.push(scratch.sites());
        let sites = ws.table.positions.get(&level.span);
        ws.scratch.save_at(&level.alloc, sites, &mut level.saved);
        ws.scratch.commit_at(&level.alloc, sites)?;
        if kept & 1 << depth != 0 {
            moves.push(PlannedMove {
                id: target.id.clone(),
                bundle: target.state.spec.name.clone(),
                candidate: candidate.clone(),
                alloc: level.alloc.clone(),
                predicted,
            });
        }
    }
    for level in ws.levels[..last].iter().rev() {
        let sites = ws.table.positions.get(&level.span);
        ws.scratch.restore_at(&level.alloc, sites, &level.saved);
        ws.table.positions.pop(&level.span);
    }
    Ok(moves)
}

impl Controller {
    /// Predicted response time per application (max over its bundles), in
    /// arrival order. Applications with no applied configuration are
    /// omitted.
    pub fn predicted_response_times(&self) -> Vec<(InstanceId, f64)> {
        let mut ws = PlanWorkspace::default();
        self.live_times(&mut ws);
        let arrival = self.instances.arrival();
        ws.times.iter().map(|&(row, rt)| (arrival[row].clone(), rt)).collect()
    }

    /// The current objective score over all applications.
    pub fn objective_score(&self) -> f64 {
        self.objective_in(&mut PlanWorkspace::default())
    }

    /// [`Controller::objective_score`], computed in `ws`.
    pub(crate) fn objective_in(&self, ws: &mut PlanWorkspace) -> f64 {
        self.live_times(ws);
        objective(&ws.times)
    }

    /// Fills `ws`'s table and its sweep with nothing moved: the live
    /// response times.
    fn live_times(&self, ws: &mut PlanWorkspace) {
        fill(&mut ws.table, self, &[]);
        ws.touched.clear();
        ws.touched.resize(self.cluster.len(), 0);
        ws.table.times(self, &self.cluster, &[], &[], &ws.touched, None, &mut ws.times);
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
    pub(crate) fn plan_bundle(
        &self,
        ws: &mut PlanWorkspace,
        id: &InstanceId,
        bundle: &str,
    ) -> Result<Scan, CoreError> {
        let t_cands = Instant::now();
        let slot = [self.slot(id, bundle)?];
        let candidates_ms = elapsed_ms(t_cands);
        self.scan(ws, &slot, 0, candidates_ms, settle_bundle)
    }

    /// The scan slot for `(id, bundle)`: the bundle and its memoized
    /// candidates.
    fn slot<'a>(&'a self, id: &'a InstanceId, bundle: &str) -> Result<Target<'a>, CoreError> {
        let state = self.bundle_state(id, bundle)?;
        let memo: &Memo = self
            .memo(id, bundle)
            .ok_or_else(|| CoreError::UnknownBundle { name: bundle.into() })?;
        Ok(Target { id, state, cands: &memo.list, compiled: &memo.compiled })
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
        ws: &mut PlanWorkspace,
        a: (&InstanceId, &str),
        b: (&InstanceId, &str),
    ) -> Result<Scan, CoreError> {
        let t_cands = Instant::now();
        let slots = [self.slot(a.0, a.1)?, self.slot(b.0, b.1)?];
        let candidates_ms = elapsed_ms(t_cands);
        self.scan(ws, &slots, 1, candidates_ms, settle_pair)
    }

    /// The one scan body: on the workspace's scratch copy of the cluster,
    /// release every slot's incumbent, then walk the product of the slots'
    /// candidates depth first, scoring each complete move set with one
    /// sweep, and plan the moves `settle` keeps of the first set that
    /// scores strictly better than all before it. Selfish mode scores only
    /// the application of slot `focus`. Time in the table and the walk is
    /// reported as `prediction_ms`, the rest as `optimization_ms`, beside
    /// the `candidates_ms` fetching the slots' candidates took.
    fn scan(
        &self,
        ws: &mut PlanWorkspace,
        targets: &[Target<'_>],
        focus: usize,
        candidates_ms: f64,
        settle: Settle,
    ) -> Result<Scan, CoreError> {
        let t_scan = Instant::now();
        fill(&mut ws.table, self, targets);
        ws.touched.clear();
        ws.touched.resize(self.cluster.len(), 0);
        ws.table.times(self, &self.cluster, targets, &[], &ws.touched, None, &mut ws.times);
        let objective_before = objective(&ws.times);
        let mut prediction_ms = elapsed_ms(t_scan);
        if targets.iter().any(|t| t.cands.is_empty()) {
            return Ok(Scan { plan: None, trials: 0, matches: 0 });
        }
        ws.scratch.clone_from(&self.cluster);
        let incumbents = || targets.iter().filter_map(|t| t.state.current.as_ref());
        for (k, cur) in incumbents().enumerate() {
            if cfg!(debug_assertions) {
                if ws.released.len() == k {
                    ws.released.push(SavedCounters::default());
                }
                ws.scratch.save_into(&cur.alloc, &mut ws.released[k]);
            }
            ws.scratch.release(&cur.alloc)?;
            for i in cur.alloc.nodes.iter().filter_map(|n| self.cluster.node_index(&n.node)) {
                ws.touched[i] += 1;
            }
        }
        let only = self.config.selfish.then(|| ws.table.slots[focus]);
        let mut walk = Walk { ctl: self, targets, only, ws, best: None, trials: 0, matches: 0 };
        let t_walk = Instant::now();
        descend(&mut walk, 0)?;
        prediction_ms += elapsed_ms(t_walk);
        let kept = walk.best.and_then(|score| {
            let best = &walk.ws.best_moves;
            let switch = |slot: usize| {
                let t = &targets[slot];
                (t.state.current.as_ref(), &t.cands[best[slot].0])
            };
            // A scan has one slot or two.
            let moves = [switch(0), switch(targets.len() - 1)];
            settle(&moves[..targets.len()], score, objective_before).map(|kept| (score, kept))
        });
        let moves = match kept {
            Some((score, kept)) => Some((score, planned_moves(&mut walk, kept)?)),
            None => None,
        };
        if cfg!(debug_assertions) {
            // Every commit was undone exactly: with the incumbents put back
            // the scratch is the live cluster again, field for field.
            let ws = &mut *walk.ws;
            let mut k = incumbents().count();
            for cur in targets.iter().rev().filter_map(|t| t.state.current.as_ref()) {
                k -= 1;
                ws.scratch.restore(&cur.alloc, &ws.released[k]);
            }
            assert_eq!(ws.scratch, self.cluster, "a scan must undo what it tries");
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
            plan.moves.retain(|_| kept & 1 << slot.next().expect("unbounded") != 0);
            Some(plan)
        }

        fn ref_best_of<'a>(
            &self,
            sets: impl Iterator<Item = Vec<Move<'a>>>,
            focus: &InstanceId,
        ) -> Result<Option<Plan>, CoreError> {
            let live = self.ref_response_times(&self.cluster, &[], None);
            let objective_before = ref_objective(&live);
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
                        predicted: ref_predicted(&times, m.id),
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
            Ok(Some(Trial { score: ref_objective(&times), times, allocs }))
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

    /// Response time of application `id` in one reference sweep.
    fn ref_predicted(times: &[(&InstanceId, f64)], id: &InstanceId) -> f64 {
        times.iter().find(|(i, _)| *i == id).map_or(f64::INFINITY, |(_, rt)| *rt)
    }

    /// The objective over one reference sweep.
    fn ref_objective(times: &[(&InstanceId, f64)]) -> f64 {
        mean_completion(times.iter().map(|(_, rt)| rt))
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
    /// present state, planned in `ws`, equal to the reference. Returns how
    /// many plans moved something.
    fn assert_scans_match_the_reference(
        c: &Controller,
        ws: &mut PlanWorkspace,
        what: &str,
    ) -> usize {
        let bundles = all_bundles(c);
        let mut plans = 0;
        for (i, (id, b, cands)) in bundles.iter().enumerate() {
            let scan = c.plan_bundle(ws, id, b).map(|s| s.plan);
            plans += usize::from(matches!(scan, Ok(Some(_))));
            assert_eq!(decided(scan), decided(c.ref_plan_bundle(id, b, cands)), "{what}: {id}.{b}");
            for (jd, jb, jcands) in bundles.iter().skip(i + 1) {
                let scan = c.plan_pair(ws, (id, b), (jd, jb)).map(|s| s.plan);
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

    /// One workspace serves every scan of every population, on clusters of
    /// three to six nodes: nothing a scan leaves in it reaches a decision.
    #[test]
    fn the_scan_decides_what_the_clone_per_trial_reference_decides() {
        let mut plans = 0;
        let mut ws = PlanWorkspace::default();
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
                let what = format!("seed {seed} step {step}");
                plans += assert_scans_match_the_reference(&c, &mut ws, &what);
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
            let scan =
                c.plan_pair(&mut PlanWorkspace::default(), (outer, "config"), (&broken, "config"));
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
            let plan = c.plan_bundle(&mut PlanWorkspace::default(), &id, &name).unwrap();
            let plan = plan.plan.unwrap();
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
        assert_scans_match_the_reference(&c, &mut PlanWorkspace::default(), "three bags");
        assert_eq!(state(&c), before);
    }

    /// A scan reports exactly what it did: one move set per element of the
    /// product, one match per outer candidate plus one per inner candidate
    /// under each outer candidate that fits.
    #[test]
    fn a_scan_counts_its_move_sets_and_matches() {
        let mut c = bags(2, ControllerConfig::default());
        let ids = c.instances();
        let ws = &mut PlanWorkspace::default();
        let single = c.plan_bundle(ws, &ids[0], "config").unwrap();
        assert_eq!((single.trials, single.matches), (4, 4));
        let pair = c.plan_pair(ws, (&ids[0], "config"), (&ids[1], "config")).unwrap();
        assert_eq!((pair.trials, pair.matches), (16, 20));
        // An outer candidate that cannot fit decides its row with one match.
        let huge = c.startup("huge");
        let spec = "harmonyBundle huge:1 config { {o {node n {seconds 1} {memory 99999}}} }";
        attach(&mut c, &huge, parse_bundle_script(spec).unwrap());
        let pair = c.plan_pair(ws, (&huge, "config"), (&ids[1], "config")).unwrap();
        assert_eq!((pair.trials, pair.matches), (4, 1));
        assert!(pair.plan.is_none());
    }

    #[test]
    fn selfish_mode_scores_the_focus_app_only() {
        for selfish in [false, true] {
            let c = bags(2, ControllerConfig { selfish, ..Default::default() });
            let ids = c.instances();
            let focus = &ids[1];
            let memo = c.memo(focus, "config").unwrap();
            let state = c.bundle_state(focus, "config").unwrap();
            let (cands, compiled) = (&memo.list[..1], &memo.compiled[..1]);
            let slot = Target { id: focus, state, cands, compiled };
            let keep_all: Settle = |moves, _, _| Some((1 << moves.len()) - 1);
            let ws = &mut PlanWorkspace::default();
            let plan = c.scan(ws, &[slot], 0, 0.0, keep_all).unwrap().plan.unwrap();
            let alone = mean_completion(&[plan.moves[0].predicted]);
            assert_eq!(plan.score == alone, selfish);
        }
    }
}
