//! Joint optimizers beyond the paper's greedy pass.
//!
//! §4.3 concedes that greedy one-bundle-at-a-time optimization "will not
//! necessarily produce a globally optimal value". [`exhaustive`] finds the
//! optimum of the full joint configuration space, and [`annealing`] is the
//! stochastic search the Active Harmony project later adopted. No verb
//! reaches either: they are the oracle the greedy planner is compared
//! against.
//!
//! The pieces:
//!
//! * [`EvalCtx`] — a self-contained snapshot of the search problem
//!   (candidate sets, option specs and the released base cluster; the
//!   first-fit matcher and the mean-completion objective are fixed)
//!   detached from the [`Controller`], so a search
//!   reads the problem while the controller stays free to be committed to.
//!   Candidate sets come from the controller's memoized cache
//!   ([`Controller::cached_candidates`]), so repeated searches stop
//!   re-enumerating.
//! * [`IncrementalEval`] — scores assignments reusing the shared prefix of
//!   already-committed allocations: only pairs from the first changed
//!   index are re-matched (commits are unwound by releasing, never by
//!   re-cloning the cluster).
//! * A deterministic total order on outcomes — epsilon-quantized score,
//!   then lowest lexicographic assignment — so every walker that visits
//!   the optimum reports the same one: [`exhaustive`] (which skips what
//!   the [`PruningPlan`] proves cannot win) returns *bit-identical*
//!   decisions to [`exhaustive_baseline`] (which skips nothing). The
//!   equivalence suites hold them to that.
//!
//! Non-finite objective scores (failed predictions) are treated as
//! infeasible by every search: a joint assignment that cannot be predicted
//! is never committed as a "best" outcome.

use std::sync::Arc;
use std::time::Instant;

use harmony_predict::{option_model, PredictionContext, Predictor};
use harmony_resources::{Allocation, Cluster};
use harmony_rsl::schema::OptionSpec;
use rand::rngs::StdRng;
use rand::Rng;

use crate::app::InstanceId;
use crate::candidates::Candidate;
use crate::controller::{Controller, DecisionRecord};
use crate::error::CoreError;
use crate::objective::mean_completion;
use crate::planner::PlannedMove;
use crate::pruning::PruningPlan;

/// Default bound on the exhaustive search's joint space: the same cap the
/// analyzer's reachability pass uses for HA0106
/// ([`harmony_analyze::passes::reach::DOMAIN_CAP`]), so "domain too large
/// to enumerate" means the same thing to the linter and to the optimizer.
pub const DEFAULT_EXHAUSTIVE_LIMIT: u64 = harmony_analyze::passes::reach::DOMAIN_CAP as u64;

/// Default number of annealing chains when the caller says `0`.
pub const DEFAULT_CHAINS: u32 = 4;

/// Scores within this distance are considered tied: the joint searches
/// break ties by lowest lexicographic assignment, the greedy planner in
/// favour of the earlier candidate and the incumbent.
pub(crate) const SCORE_EPSILON: f64 = 1e-9;

/// One optimizable unit inside an [`EvalCtx`]: an instance's bundle, its
/// memoized candidate set, and the option spec behind each candidate.
#[derive(Debug)]
pub(crate) struct PairCtx {
    id: InstanceId,
    bundle: String,
    pub(crate) candidates: Arc<Vec<Candidate>>,
    pub(crate) options: Vec<OptionSpec>,
    /// `opt_idx[i]` is the index into `options` of `candidates[i]`'s
    /// option.
    pub(crate) opt_idx: Vec<usize>,
}

impl PairCtx {
    /// The response time of `alloc`, candidate `ci` placed, on `cluster`;
    /// infinite when the prediction fails.
    fn time_on(&self, cluster: &Cluster, alloc: &Allocation, ci: usize) -> f64 {
        let opt = &self.options[self.opt_idx[ci]];
        let ctx = PredictionContext::committed(cluster, alloc, opt);
        option_model(opt).predict(&ctx).map_or(f64::INFINITY, |p| p.response_time)
    }
}

/// The outcome of one feasible joint assignment: objective score,
/// per-pair allocations, and per-pair predicted response times.
#[derive(Debug, Clone, PartialEq)]
pub struct JointOutcome {
    /// Objective score of the whole system under this assignment.
    pub score: f64,
    /// One allocation per pair, in pair order.
    pub allocs: Vec<Allocation>,
    /// Predicted response time per pair, in pair order.
    pub rts: Vec<f64>,
}

/// A self-contained joint-evaluation context: everything a search needs,
/// detached from the controller. Each candidate is matched first-fit at
/// its own elastic grant, and an assignment scores the mean of its
/// predicted response times, as the greedy planner scores a move set.
#[derive(Debug)]
pub struct EvalCtx {
    pub(crate) pairs: Vec<PairCtx>,
    pub(crate) base: Cluster,
}

impl EvalCtx {
    /// Builds the context for the controller's current system: one pair
    /// per bundle in arrival order, candidate sets from the memoized
    /// cache, and the base cluster with every current allocation released.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownBundle`] when a candidate references an option
    /// missing from its bundle; resource errors from releasing current
    /// allocations.
    pub fn build(c: &mut Controller) -> Result<EvalCtx, CoreError> {
        let mut pairs = Vec::new();
        for (id, bundle) in c.all_pairs_excluding(None) {
            let candidates = c
                .cached_candidates(&id, &bundle)
                .ok_or_else(|| CoreError::UnknownBundle { name: bundle.clone() })?;
            let spec = &c.bundle_state(&id, &bundle)?.spec;
            let options = spec.options.clone();
            let opt_idx = candidates
                .iter()
                .map(|cand| {
                    options
                        .iter()
                        .position(|o| o.name == cand.option)
                        .ok_or_else(|| CoreError::UnknownBundle { name: cand.option.clone() })
                })
                .collect::<Result<Vec<usize>, CoreError>>()?;
            pairs.push(PairCtx { id, bundle, candidates, options, opt_idx });
        }
        let base = released_cluster(c)?;
        Ok(EvalCtx { pairs, base })
    }

    /// Number of pairs (bundles) under joint optimization.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when there is nothing to optimize.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Candidate count per pair (the odometer radices).
    pub fn shape(&self) -> Vec<usize> {
        self.pairs.iter().map(|p| p.candidates.len()).collect()
    }

    /// Size of the joint space (saturating at `u64::MAX`).
    pub fn search_space(&self) -> u64 {
        self.pairs
            .iter()
            .map(|p| p.candidates.len() as u64)
            .try_fold(1u64, u64::checked_mul)
            .unwrap_or(u64::MAX)
    }

    /// Matches pair `pi`'s candidate `ci` on `cluster`. `Ok(None)` when the
    /// candidate does not fit.
    fn match_pair(
        &self,
        cluster: &Cluster,
        pi: usize,
        ci: usize,
    ) -> Result<Option<Allocation>, CoreError> {
        let pair = &self.pairs[pi];
        let cand = &pair.candidates[ci];
        let opt = &pair.options[pair.opt_idx[ci]];
        match cand.matcher().match_vars(cluster, opt, &cand.vars) {
            Ok(a) => Ok(Some(a)),
            Err(harmony_resources::ResourceError::NoMatch { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Predicts every pair on the final cluster, writing response times
    /// into `rts`, and scores the system.
    fn score_final_into(
        &self,
        cluster: &Cluster,
        assignment: &[usize],
        allocs: &[Allocation],
        rts: &mut Vec<f64>,
    ) -> f64 {
        rts.clear();
        for ((pair, &ci), alloc) in self.pairs.iter().zip(assignment).zip(allocs) {
            rts.push(pair.time_on(cluster, alloc, ci));
        }
        mean_completion(rts.iter())
    }

    /// Reference evaluation with the seed implementation's cost profile:
    /// clones the base cluster, looks each candidate's option up by name,
    /// matches every pair in order, and predicts on the final cluster.
    /// `Ok(None)` when any pair fails to place or the resulting score is
    /// non-finite (failed predictions are infeasible, not attractive).
    ///
    /// Kept deliberately un-memoized: it is both the correctness reference
    /// for [`IncrementalEval`] (the equivalence suite holds them equal)
    /// and the cost baseline the bench harness measures the rebuilt engine
    /// against.
    ///
    /// # Errors
    ///
    /// Resource errors other than a plain no-match.
    pub fn eval_fresh(&self, assignment: &[usize]) -> Result<Option<JointOutcome>, CoreError> {
        let mut cluster = self.base.clone();
        let mut allocs = Vec::with_capacity(self.pairs.len());
        for (pair, &ci) in self.pairs.iter().zip(assignment) {
            let cand = &pair.candidates[ci];
            let opt = pair
                .options
                .iter()
                .find(|o| o.name == cand.option)
                .ok_or_else(|| CoreError::UnknownBundle { name: cand.option.clone() })?;
            let alloc = match cand.matcher().match_vars(&cluster, opt, &cand.vars) {
                Ok(a) => a,
                Err(harmony_resources::ResourceError::NoMatch { .. }) => return Ok(None),
                Err(e) => return Err(e.into()),
            };
            cluster.commit(&alloc)?;
            allocs.push(alloc);
        }
        let mut rts = Vec::with_capacity(self.pairs.len());
        for ((pair, &ci), alloc) in self.pairs.iter().zip(assignment).zip(&allocs) {
            let cand = &pair.candidates[ci];
            let opt = pair.options.iter().find(|o| o.name == cand.option).expect("checked above");
            let ctx = PredictionContext::committed(&cluster, alloc, opt);
            let rt = match option_model(opt).predict(&ctx) {
                Ok(p) => p.response_time,
                Err(_) => f64::INFINITY,
            };
            rts.push(rt);
        }
        let score = mean_completion(&rts);
        if !score.is_finite() {
            return Ok(None);
        }
        Ok(Some(JointOutcome { score, allocs, rts }))
    }
}

/// Incremental joint evaluation: keeps one working cluster and the stack
/// of committed allocations; consecutive evaluations re-match only from
/// the first index whose candidate changed, unwinding deeper commits by
/// releasing them. Equivalent to [`EvalCtx::eval_fresh`] on every input
/// (the equivalence test suite holds them to that), but far cheaper when
/// assignments are visited in odometer order.
#[derive(Debug)]
pub struct IncrementalEval<'a> {
    ctx: &'a EvalCtx,
    cluster: Cluster,
    allocs: Vec<Allocation>,
    /// Candidate index per committed depth (`allocs.len()` entries).
    committed: Vec<usize>,
    /// Response times of the last successful evaluation (reusable buffer).
    rts: Vec<f64>,
}

impl<'a> IncrementalEval<'a> {
    /// A fresh evaluator positioned at the empty prefix.
    pub fn new(ctx: &'a EvalCtx) -> Self {
        IncrementalEval {
            ctx,
            cluster: ctx.base.clone(),
            allocs: Vec::with_capacity(ctx.len()),
            committed: Vec::with_capacity(ctx.len()),
            rts: Vec::with_capacity(ctx.len()),
        }
    }

    /// Scores one full assignment without materializing an outcome,
    /// reusing the committed prefix shared with the previous call.
    /// `Ok(None)` exactly when [`EvalCtx::eval_fresh`] returns `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Resource errors other than a plain no-match.
    pub fn eval_score(&mut self, assignment: &[usize]) -> Result<Option<f64>, CoreError> {
        debug_assert_eq!(assignment.len(), self.ctx.len());
        let mut keep = 0usize;
        while keep < self.committed.len() && self.committed[keep] == assignment[keep] {
            keep += 1;
        }
        while self.allocs.len() > keep {
            let alloc = self.allocs.pop().expect("stack non-empty");
            self.committed.pop();
            self.cluster.release(&alloc)?;
        }
        for (pi, &ci) in assignment.iter().enumerate().skip(keep) {
            match self.ctx.match_pair(&self.cluster, pi, ci)? {
                Some(a) => {
                    self.cluster.commit(&a)?;
                    self.allocs.push(a);
                    self.committed.push(ci);
                }
                // The partial prefix stays committed for the next call.
                None => return Ok(None),
            }
        }
        let score =
            self.ctx.score_final_into(&self.cluster, assignment, &self.allocs, &mut self.rts);
        if !score.is_finite() {
            return Ok(None);
        }
        Ok(Some(score))
    }

    /// Materializes the outcome of the assignment just scored by
    /// [`IncrementalEval::eval_score`] (clones the committed allocations).
    fn snapshot(&self, score: f64) -> JointOutcome {
        JointOutcome { score, allocs: self.allocs.clone(), rts: self.rts.clone() }
    }

    /// Evaluates one full assignment, reusing the committed prefix shared
    /// with the previous call. Same result contract as
    /// [`EvalCtx::eval_fresh`].
    ///
    /// # Errors
    ///
    /// Resource errors other than a plain no-match.
    pub fn eval(&mut self, assignment: &[usize]) -> Result<Option<JointOutcome>, CoreError> {
        Ok(self.eval_score(assignment)?.map(|score| self.snapshot(score)))
    }
}

/// Base cluster with every current allocation released.
fn released_cluster(c: &Controller) -> Result<Cluster, CoreError> {
    let mut cluster = c.cluster().clone();
    for inst in c.instances.in_arrival_order() {
        for alloc in inst.app.allocations() {
            cluster.release(alloc)?;
        }
    }
    Ok(cluster)
}

/// Epsilon-quantized score key: scores are snapped to a [`SCORE_EPSILON`]
/// grid so that "equal within epsilon" is a transitive relation. `None`
/// for non-finite (infeasible) scores.
fn score_key(score: f64) -> Option<i64> {
    if !score.is_finite() {
        return None;
    }
    Some((score.clamp(-9.0e9, 9.0e9) / SCORE_EPSILON).round() as i64)
}

/// A scored joint assignment, ordered by `(key, assignment)`.
#[derive(Debug, Clone)]
struct Best {
    key: i64,
    assignment: Vec<usize>,
    outcome: JointOutcome,
}

/// The deterministic total order: lower quantized score wins; on a tie the
/// lexicographically lowest assignment wins, whatever order the
/// assignments were visited in.
fn improves(key: i64, assignment: &[usize], incumbent: &Option<Best>) -> bool {
    match incumbent {
        None => true,
        Some(b) => key < b.key || (key == b.key && assignment < b.assignment.as_slice()),
    }
}

/// Advances to the lexicographically next assignment. `false` on wrap.
fn advance(assignment: &mut [usize], shape: &[usize]) -> bool {
    for i in (0..assignment.len()).rev() {
        assignment[i] += 1;
        if assignment[i] < shape[i] {
            return true;
        }
        assignment[i] = 0;
    }
    false
}

/// Tallies of one scan.
#[derive(Debug, Default, Clone, Copy)]
struct ScanStats {
    evals: u64,
    infeasible: u64,
}

/// What a search that found nothing to place reports.
const NO_FIT: &str = "no joint assignment fits the cluster";

/// Commits a search's winner, or reports `why_none` as
/// [`CoreError::Unplaceable`] when it has none.
fn apply_joint(
    c: &mut Controller,
    ctx: &EvalCtx,
    best: Option<Best>,
    why_none: &str,
) -> Result<Vec<DecisionRecord>, CoreError> {
    let Some(best) = best else { return Err(unplaceable(ctx, why_none)) };
    let mut records = Vec::new();
    for (((pair, &ci), alloc), &rt) in
        ctx.pairs.iter().zip(&best.assignment).zip(&best.outcome.allocs).zip(&best.outcome.rts)
    {
        let m = PlannedMove {
            id: pair.id.clone(),
            bundle: pair.bundle.clone(),
            candidate: pair.candidates[ci].clone(),
            alloc: alloc.clone(),
            predicted: rt,
        };
        records.extend(c.force_choice(m)?);
    }
    Ok(records)
}

fn record_search_metrics(c: &mut Controller, kind: &str, stats: ScanStats, t0: Instant) {
    c.metrics.inc_counter("controller.optimizer.searches");
    c.metrics.add_counter("controller.optimizer.evals", stats.evals);
    c.metrics.add_counter("controller.optimizer.infeasible", stats.infeasible);
    let wall = t0.elapsed().as_secs_f64();
    c.metrics.set_gauge("controller.optimizer.last_wall_ms", wall * 1e3);
    c.metrics.set_gauge(&format!("controller.optimizer.{kind}.last_wall_ms"), wall * 1e3);
    c.metrics.observe("controller.optimizer.wall", wall);
}

fn unplaceable(ctx: &EvalCtx, reason: &str) -> CoreError {
    let bundle = ctx.pairs.first().map(|p| p.bundle.clone()).unwrap_or_default();
    CoreError::Unplaceable { bundle, reason: reason.into() }
}

/// The exhaustive searches' shared prologue: the joint problem and its
/// size, or `None` when there is nothing to optimize.
///
/// # Errors
///
/// [`CoreError::SearchSpaceTooLarge`] past `limit`;
/// [`CoreError::Unplaceable`] when a bundle enumerates no candidates.
fn exhaustive_problem(c: &mut Controller, limit: u64) -> Result<Option<(EvalCtx, u64)>, CoreError> {
    let ctx = EvalCtx::build(c)?;
    if ctx.is_empty() {
        return Ok(None);
    }
    let size = ctx.search_space();
    if size > limit {
        return Err(CoreError::SearchSpaceTooLarge { size, limit });
    }
    if size == 0 {
        return Err(unplaceable(&ctx, "a bundle enumerates no candidates"));
    }
    Ok(Some((ctx, size)))
}

/// Tallies of a pruned search: the usual scan stats plus the number of
/// joint assignments skipped by proof rather than evaluation.
#[derive(Debug, Default, Clone, Copy)]
struct PruneStats {
    scan: ScanStats,
    nodes_pruned: u64,
}

/// Quantized key of the objective over `prefix ++ mid ++ tail`, assembled
/// in `buf`.
fn bound_key(buf: &mut Vec<f64>, prefix: &[f64], mid: Option<f64>, tail: &[f64]) -> Option<i64> {
    buf.clear();
    buf.extend_from_slice(prefix);
    if let Some(m) = mid {
        buf.push(m);
    }
    buf.extend_from_slice(tail);
    score_key(mean_completion(buf.iter()))
}

/// Branch-and-bound depth-first scan of the whole pair set, visiting kept
/// candidates in lexicographic order.
///
/// The bound below a search node is the objective over: the committed
/// prefix's partial response times (each a lower bound on its final time —
/// later commits only *add* contention, and both prediction models are
/// monotone in it), the current candidate's static lower bound, and the
/// per-pair minimum static bounds of the remaining suffix. The objective (a
/// mean) is monotone nondecreasing per coordinate, and the epsilon quantization
/// is monotone, so a bound key no better than the incumbent's (`>=`)
/// proves the subtree cannot improve: DFS order makes every assignment in
/// it lexicographically greater than the incumbent, so quantized ties lose
/// the tie-break too.
struct BbScan<'a> {
    ctx: &'a EvalCtx,
    plan: &'a PruningPlan,
    /// `suffix[d]` = number of assignments below depth `d` (kept space).
    suffix: Vec<u64>,
    cluster: Cluster,
    allocs: Vec<Allocation>,
    /// Response time of each committed pair on the prefix cluster.
    partial_rts: Vec<f64>,
    assignment: Vec<usize>,
    best: Option<Best>,
    stats: PruneStats,
    /// Scratch for bound vectors.
    bound: Vec<f64>,
    /// Scratch for leaf response times.
    rts: Vec<f64>,
}

impl BbScan<'_> {
    fn bounded_out(&self, key: Option<i64>) -> bool {
        match (key, &self.best) {
            (Some(k), Some(b)) => k >= b.key,
            // Bounds are assembled from finite non-negative parts, so a
            // `None` (non-finite) key cannot occur; keep the subtree if it
            // somehow does.
            _ => false,
        }
    }

    fn dfs(&mut self, d: usize) -> Result<(), CoreError> {
        let ctx = self.ctx;
        let plan = self.plan;
        let n = ctx.pairs.len();
        if d == n {
            self.stats.scan.evals += 1;
            let mut rts = std::mem::take(&mut self.rts);
            let score =
                ctx.score_final_into(&self.cluster, &self.assignment, &self.allocs, &mut rts);
            if score.is_finite() {
                let key = score_key(score).expect("finite score has a key");
                if improves(key, &self.assignment, &self.best) {
                    self.best = Some(Best {
                        key,
                        assignment: self.assignment.clone(),
                        outcome: JointOutcome {
                            score,
                            allocs: self.allocs.clone(),
                            rts: rts.clone(),
                        },
                    });
                }
            } else {
                self.stats.scan.infeasible += 1;
            }
            self.rts = rts;
            return Ok(());
        }
        let pair = &ctx.pairs[d];
        for (slot, &ci) in plan.kept[d].iter().enumerate() {
            if self.best.is_some() {
                let key = bound_key(
                    &mut self.bound,
                    &self.partial_rts,
                    Some(plan.lbs[d][slot]),
                    &plan.min_lb[d + 1..],
                );
                if self.bounded_out(key) {
                    self.stats.nodes_pruned += self.suffix[d + 1];
                    continue;
                }
            }
            let Some(a) = ctx.match_pair(&self.cluster, d, ci)? else {
                self.stats.scan.infeasible += self.suffix[d + 1];
                continue;
            };
            self.cluster.commit(&a)?;
            let rt = pair.time_on(&self.cluster, &a, ci);
            // Prediction errors are deterministic in the allocation and
            // its environment, and times only grow with later commits: a
            // failed, non-finite, or negative partial time is still one at
            // the leaf, where the objective maps it to infinity.
            if !(rt.is_finite() && rt >= 0.0) {
                self.stats.scan.infeasible += self.suffix[d + 1];
                self.cluster.release(&a)?;
                continue;
            }
            self.partial_rts.push(rt);
            self.allocs.push(a);
            self.assignment.push(ci);
            // Sharper re-bound now that the pair's real partial time is in.
            let mut cut = false;
            if self.best.is_some() && d + 1 < n {
                let key =
                    bound_key(&mut self.bound, &self.partial_rts, None, &plan.min_lb[d + 1..]);
                cut = self.bounded_out(key);
            }
            if cut {
                self.stats.nodes_pruned += self.suffix[d + 1];
            } else {
                self.dfs(d + 1)?;
            }
            self.assignment.pop();
            let a = self.allocs.pop().expect("stack non-empty");
            self.partial_rts.pop();
            self.cluster.release(&a)?;
        }
        Ok(())
    }
}

/// Runs the branch-and-bound scan over the plan's kept candidates.
fn bb_scan(ctx: &EvalCtx, plan: &PruningPlan) -> Result<(Option<Best>, PruneStats), CoreError> {
    let n = ctx.pairs.len();
    if plan.kept.iter().any(|k| k.is_empty()) {
        return Ok((None, PruneStats::default()));
    }
    let mut suffix = vec![1u64; n + 1];
    for d in (0..n).rev() {
        suffix[d] = suffix[d + 1].saturating_mul(plan.kept[d].len() as u64);
    }
    let mut st = BbScan {
        ctx,
        plan,
        suffix,
        cluster: ctx.base.clone(),
        allocs: Vec::with_capacity(n),
        partial_rts: Vec::with_capacity(n),
        assignment: Vec::with_capacity(n),
        best: None,
        stats: PruneStats::default(),
        bound: Vec::with_capacity(n),
        rts: Vec::with_capacity(n),
    };
    st.dfs(0)?;
    Ok((st.best, st.stats))
}

/// Enumerates the feasible sub-assignments of one interference component:
/// every combination of kept candidates for the component's pairs that
/// places (matched in ascending pair order) with all-finite non-negative
/// predicted times, on a cluster carrying *only* this component's commits.
///
/// By footprint locality — disjoint hostname pins mean disjoint node sets,
/// and the matcher and both predictors read only a pair's own nodes and
/// links — the allocations and times computed here are bit-identical to
/// the ones the full scan computes at any global assignment extending the
/// sub-assignment, and the all-finite filter coincides exactly with the
/// objective's infeasibility rule.
struct CompEnum<'a> {
    ctx: &'a EvalCtx,
    plan: &'a PruningPlan,
    comp: &'a [usize],
    cluster: Cluster,
    allocs: Vec<Allocation>,
    chosen: Vec<usize>,
    /// Feasible `(sub-assignment, response times)` rows, in sub-odometer
    /// order.
    out: Vec<(Vec<usize>, Vec<f64>)>,
    stats: ScanStats,
}

impl CompEnum<'_> {
    fn dfs(&mut self, k: usize) -> Result<(), CoreError> {
        let ctx = self.ctx;
        let comp = self.comp;
        if k == comp.len() {
            self.stats.evals += 1;
            let mut rts = Vec::with_capacity(comp.len());
            for (j, &pi) in comp.iter().enumerate() {
                let rt = ctx.pairs[pi].time_on(&self.cluster, &self.allocs[j], self.chosen[j]);
                if !(rt.is_finite() && rt >= 0.0) {
                    self.stats.infeasible += 1;
                    return Ok(());
                }
                rts.push(rt);
            }
            self.out.push((self.chosen.clone(), rts));
            return Ok(());
        }
        let pi = comp[k];
        for &ci in &self.plan.kept[pi] {
            let Some(a) = ctx.match_pair(&self.cluster, pi, ci)? else {
                self.stats.infeasible += 1;
                continue;
            };
            self.cluster.commit(&a)?;
            self.allocs.push(a);
            self.chosen.push(ci);
            self.dfs(k + 1)?;
            self.chosen.pop();
            let a = self.allocs.pop().expect("stack non-empty");
            self.cluster.release(&a)?;
        }
        Ok(())
    }
}

/// Joint search by exact component recombination: each interference
/// component is enumerated independently ([`CompEnum`]), then the
/// cross-product of feasible sub-assignments is scored by composing the
/// per-component response times into full vectors — the same `f64` values
/// the full scan feeds the objective, so scores (and the quantized total
/// order) are bit-identical. The winner is materialized through the
/// canonical incremental evaluator.
fn component_scan(
    ctx: &EvalCtx,
    plan: &PruningPlan,
) -> Result<(Option<Best>, PruneStats), CoreError> {
    let n = ctx.pairs.len();
    let mut stats = PruneStats::default();
    if plan.kept.iter().any(|k| k.is_empty()) {
        return Ok((None, stats));
    }
    let mut lists: Vec<Vec<(Vec<usize>, Vec<f64>)>> = Vec::with_capacity(plan.components.len());
    for comp in &plan.components {
        let mut e = CompEnum {
            ctx,
            plan,
            comp,
            cluster: ctx.base.clone(),
            allocs: Vec::with_capacity(comp.len()),
            chosen: Vec::with_capacity(comp.len()),
            out: Vec::new(),
            stats: ScanStats::default(),
        };
        e.dfs(0)?;
        stats.scan.evals += e.stats.evals;
        stats.scan.infeasible += e.stats.infeasible;
        if e.out.is_empty() {
            // No feasible sub-assignment for this component means no
            // feasible joint assignment at all.
            return Ok((None, stats));
        }
        lists.push(e.out);
    }
    let combos: u64 =
        lists.iter().map(|l| l.len() as u64).try_fold(1u64, u64::checked_mul).unwrap_or(u64::MAX);
    stats.nodes_pruned += plan.search_space().saturating_sub(combos);

    let lens: Vec<usize> = lists.iter().map(Vec::len).collect();
    let mut idx = vec![0usize; lists.len()];
    let mut g_asg = vec![0usize; n];
    let mut g_rts = vec![0f64; n];
    let mut pick: Option<(i64, Vec<usize>)> = None;
    loop {
        for ((comp, list), &i) in plan.components.iter().zip(&lists).zip(&idx) {
            let (asg, rts) = &list[i];
            for (slot, &pi) in comp.iter().enumerate() {
                g_asg[pi] = asg[slot];
                g_rts[pi] = rts[slot];
            }
        }
        stats.scan.evals += 1;
        match score_key(mean_completion(&g_rts)) {
            Some(key) => {
                let better = match &pick {
                    None => true,
                    Some((bk, ba)) => key < *bk || (key == *bk && g_asg < *ba),
                };
                if better {
                    pick = Some((key, g_asg.clone()));
                }
            }
            None => stats.scan.infeasible += 1,
        }
        if !advance(&mut idx, &lens) {
            break;
        }
    }
    let Some((_, asg)) = pick else {
        return Ok((None, stats));
    };
    let mut eval = IncrementalEval::new(ctx);
    match eval.eval(&asg)? {
        Some(outcome) => {
            let key = score_key(outcome.score).expect("eval returns finite scores");
            Ok((Some(Best { key, assignment: asg, outcome }), stats))
        }
        None => Ok((None, stats)),
    }
}

/// The reference walker: every assignment of the odometer space, in
/// order, through [`EvalCtx::eval_fresh`] — a fresh cluster clone and a
/// full re-match each, no prefix reuse, no proofs, nothing skipped.
fn baseline_scan(ctx: &EvalCtx, size: u64) -> Result<(Option<Best>, ScanStats), CoreError> {
    let shape = ctx.shape();
    let mut assignment = vec![0usize; shape.len()];
    let mut best: Option<Best> = None;
    let mut stats = ScanStats::default();
    for _ in 0..size {
        stats.evals += 1;
        match ctx.eval_fresh(&assignment)? {
            Some(outcome) => {
                let key = score_key(outcome.score).expect("eval returns finite scores");
                if improves(key, &assignment, &best) {
                    best = Some(Best { key, assignment: assignment.clone(), outcome });
                }
            }
            None => stats.infeasible += 1,
        }
        advance(&mut assignment, &shape);
    }
    Ok((best, stats))
}

/// Exhaustive search over the joint space, skipping only what the
/// [`PruningPlan`] proves cannot win: when the plan splits the pairs into
/// two or more interference components they are enumerated independently
/// and recombined exactly; otherwise one branch-and-bound scan covers the
/// whole pair set. Decisions are bit-identical to
/// [`exhaustive_baseline`]'s. When nothing survives, the reference walker
/// runs once more so that the error reported is the full scan's.
///
/// # Errors
///
/// [`CoreError::SearchSpaceTooLarge`] when the product of candidate counts
/// exceeds `limit`; [`CoreError::Unplaceable`] when no joint assignment
/// places every bundle with a finite predicted score.
pub fn exhaustive(c: &mut Controller, limit: u64) -> Result<Vec<DecisionRecord>, CoreError> {
    let t0 = Instant::now();
    let Some((ctx, size)) = exhaustive_problem(c, limit)? else { return Ok(Vec::new()) };
    let t_prune = Instant::now();
    let plan = PruningPlan::build(&ctx);
    c.metrics.observe("controller.phase.pruning", t_prune.elapsed().as_secs_f64());
    c.metrics.add_counter("controller.pruning.dominated_dropped", plan.dominated_dropped);
    c.metrics.add_counter("controller.pruning.infeasible_dropped", plan.infeasible_dropped);
    c.metrics.set_gauge("controller.pruning.components", plan.components.len() as f64);

    let (mut best, pstats) = if plan.components.len() >= 2 {
        component_scan(&ctx, &plan)?
    } else {
        bb_scan(&ctx, &plan)?
    };
    c.metrics.add_counter("controller.pruning.nodes_pruned", pstats.nodes_pruned);
    let mut stats = pstats.scan;
    if best.is_none() {
        // The proofs say the full scan finds nothing either — but the
        // *error* it reports is part of the contract, so let it produce it.
        (best, stats) = baseline_scan(&ctx, size)?;
    }
    record_search_metrics(c, "exhaustive", stats, t0);
    apply_joint(c, &ctx, best, NO_FIT)
}

/// The seed implementation's cost profile, retained as the reference
/// [`exhaustive`] is held equal to and measured against: a scan of the
/// whole joint space that clones the base cluster and re-matches every
/// pair for every assignment.
///
/// # Errors
///
/// Same conditions as [`exhaustive`].
pub fn exhaustive_baseline(
    c: &mut Controller,
    limit: u64,
) -> Result<Vec<DecisionRecord>, CoreError> {
    let t0 = Instant::now();
    let Some((ctx, size)) = exhaustive_problem(c, limit)? else { return Ok(Vec::new()) };
    let (best, stats) = baseline_scan(&ctx, size)?;
    record_search_metrics(c, "exhaustive-baseline", stats, t0);
    apply_joint(c, &ctx, best, NO_FIT)
}

/// Domain-separation constants for the two per-chain RNG streams.
const START_STREAM: u64 = 0x5354_4152_5453_4545; // "STARTSEE"
const WALK_STREAM: u64 = 0x5741_4c4b_5345_4544; // "WALKSEED"

/// The RNG that picks a chain's feasible starting assignment. Dedicated
/// sub-seed (`harmony_rng::sub_seed`, the shared splitmix64 composition —
/// bit-identical to the private copy that used to live here): however
/// many draws the start search burns, the walk stream is untouched, so
/// determinism tests can pin the walk independently.
fn start_rng(seed: u64, chain: u32) -> StdRng {
    harmony_rng::stream_rng(seed, START_STREAM, chain as u64)
}

/// The RNG that drives a chain's proposal walk.
fn walk_rng(seed: u64, chain: u32) -> StdRng {
    harmony_rng::stream_rng(seed, WALK_STREAM, chain as u64)
}

/// One annealing chain: feasible start from the dedicated start stream,
/// then `steps` proposals from the walk stream. Every step draws exactly
/// one proposal-index pair and one acceptance uniform, whether or not the
/// proposal is feasible, so the walk stream position is a pure function of
/// the step index.
fn run_chain(
    ctx: &EvalCtx,
    chain: u32,
    steps: u32,
    initial_temperature: f64,
    seed: u64,
) -> Result<(Option<Best>, ScanStats), CoreError> {
    let shape = ctx.shape();
    if shape.contains(&0) {
        return Ok((None, ScanStats::default()));
    }
    let mut stats = ScanStats::default();
    let mut eval = IncrementalEval::new(ctx);

    let mut start = start_rng(seed, chain);
    let mut found: Option<(f64, Vec<usize>)> = None;
    for _ in 0..200 {
        let assignment: Vec<usize> = shape.iter().map(|&n| start.gen_range(0..n)).collect();
        stats.evals += 1;
        match eval.eval_score(&assignment)? {
            Some(score) => {
                found = Some((score, assignment));
                break;
            }
            None => stats.infeasible += 1,
        }
    }
    let Some((mut cur_score, mut cur_asg)) = found else {
        return Ok((None, stats));
    };
    let mut best_key = score_key(cur_score).expect("eval returns finite scores");
    let mut best_asg = cur_asg.clone();

    let mut walk = walk_rng(seed, chain);
    let mut temperature = initial_temperature.max(1e-6);
    let cooling = 0.98f64;
    for _ in 0..steps {
        let which = walk.gen_range(0..shape.len());
        let idx = walk.gen_range(0..shape[which]);
        let accept_u: f64 = walk.gen();
        let prev = cur_asg[which];
        cur_asg[which] = idx;
        stats.evals += 1;
        match eval.eval_score(&cur_asg)? {
            Some(score) => {
                let delta = score - cur_score;
                if delta <= 0.0 || accept_u < (-delta / temperature).exp() {
                    cur_score = score;
                    let key = score_key(score).expect("eval returns finite scores");
                    if key < best_key || (key == best_key && cur_asg < best_asg) {
                        best_key = key;
                        best_asg.clone_from(&cur_asg);
                    }
                } else {
                    cur_asg[which] = prev;
                }
            }
            None => {
                stats.infeasible += 1;
                cur_asg[which] = prev;
            }
        }
        temperature *= cooling;
    }
    let outcome = eval.eval(&best_asg)?.expect("best assignment was feasible when visited");
    Ok((Some(Best { key: best_key, assignment: best_asg, outcome }), stats))
}

/// Simulated annealing over the joint space: `chains` independent chains
/// (each with its own start/walk sub-seeds derived from `seed`) run one
/// after another in chain-index order, and the best chain result is
/// applied.
///
/// # Errors
///
/// [`CoreError::Unplaceable`] when no chain finds a feasible starting
/// assignment.
pub fn annealing(
    c: &mut Controller,
    steps: u32,
    initial_temperature: f64,
    seed: u64,
    chains: u32,
) -> Result<Vec<DecisionRecord>, CoreError> {
    let t0 = Instant::now();
    let ctx = EvalCtx::build(c)?;
    if ctx.is_empty() {
        return Ok(Vec::new());
    }
    let chains = if chains == 0 { DEFAULT_CHAINS } else { chains };

    let mut best: Option<Best> = None;
    let mut stats = ScanStats::default();
    for chain in 0..chains {
        let (chain_best, chain_stats) = run_chain(&ctx, chain, steps, initial_temperature, seed)?;
        stats.evals += chain_stats.evals;
        stats.infeasible += chain_stats.infeasible;
        if let Some(b) = chain_best {
            if improves(b.key, &b.assignment, &best) {
                best = Some(b);
            }
        }
    }

    record_search_metrics(c, "annealing", stats, t0);
    apply_joint(c, &ctx, best, "no feasible starting assignment found")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControllerConfig, LintMode};
    use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};
    use harmony_rsl::schema::parse_bundle_script;

    fn setup(napps: usize, nodes: usize) -> Controller {
        let cluster = Cluster::from_rsl(&sp2_cluster(nodes)).unwrap();
        let mut c = Controller::new(cluster, ControllerConfig::default());
        for _ in 0..napps {
            c.register(parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        }
        c
    }

    #[test]
    fn exhaustive_matches_or_beats_greedy_on_two_bags() {
        let mut c = setup(2, 8);
        let greedy_score = c.objective_score();
        exhaustive(&mut c, 10_000).unwrap();
        assert!(c.objective_score() <= greedy_score + 1e-9);
        // Both bags at 4 workers is optimal: avg 340.
        assert_eq!(c.objective_score(), 340.0);
    }

    #[test]
    fn exhaustive_respects_limit() {
        let mut c = setup(3, 8);
        let err = exhaustive(&mut c, 10).unwrap_err();
        assert!(matches!(err, CoreError::SearchSpaceTooLarge { size: 64, limit: 10 }));
    }

    #[test]
    fn exhaustive_on_empty_system_is_noop() {
        let cluster = Cluster::from_rsl(&sp2_cluster(2)).unwrap();
        let mut c = Controller::new(cluster, ControllerConfig::default());
        assert!(exhaustive(&mut c, 100).unwrap().is_empty());
    }

    #[test]
    fn annealing_finds_a_good_point() {
        let mut c = setup(2, 8);
        annealing(&mut c, 300, 100.0, 42, 4).unwrap();
        // SA should find the optimum on this tiny space.
        assert_eq!(c.objective_score(), 340.0);
    }

    #[test]
    fn annealing_is_reproducible_by_seed() {
        let mut a = setup(2, 8);
        let mut b = setup(2, 8);
        let ra = annealing(&mut a, 100, 50.0, 7, 3).unwrap();
        let rb = annealing(&mut b, 100, 50.0, 7, 3).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.objective_score(), b.objective_score());
    }

    #[test]
    fn three_bags_on_eight_nodes_partition_fairly() {
        let mut c = setup(3, 8);
        exhaustive(&mut c, 100_000).unwrap();
        let mut workers: Vec<i64> =
            c.instances().iter().map(|id| c.choice(id, "config").unwrap().vars[0].1).collect();
        workers.sort_unstable();
        assert!(workers.iter().sum::<i64>() <= 8);
        // Equal-ish partitions (2+2+4 or 2+4+2 variants) beat starving one
        // app at 1 worker.
        assert!(workers[0] >= 2, "no app starved: {workers:?}");
    }

    /// Twin controllers: `exhaustive` on one, `exhaustive_baseline` on the
    /// other; decisions and the objective's bits must agree.
    fn assert_matches_baseline(
        mut fast: Controller,
        mut slow: Controller,
        what: &str,
    ) -> Controller {
        let rf = exhaustive(&mut fast, 100_000).unwrap();
        let rb = exhaustive_baseline(&mut slow, 100_000).unwrap();
        assert_eq!(rf, rb, "{what}");
        assert_eq!(fast.objective_score().to_bits(), slow.objective_score().to_bits(), "{what}");
        fast
    }

    #[test]
    fn baseline_agrees_with_exhaustive() {
        for napps in 1..=3 {
            assert_matches_baseline(setup(napps, 8), setup(napps, 8), &format!("napps={napps}"));
        }
    }

    #[test]
    fn incremental_eval_matches_fresh_over_whole_space() {
        let mut c = setup(2, 4);
        let ctx = EvalCtx::build(&mut c).unwrap();
        let shape = ctx.shape();
        let mut inc = IncrementalEval::new(&ctx);
        let mut asg = vec![0usize; shape.len()];
        loop {
            assert_eq!(inc.eval(&asg).unwrap(), ctx.eval_fresh(&asg).unwrap(), "at {asg:?}");
            if !advance(&mut asg, &shape) {
                break;
            }
        }
        // Out-of-order revisits must also agree (prefix unwinding).
        for asg in [vec![3, 1], vec![0, 3], vec![3, 1], vec![2, 0]] {
            assert_eq!(inc.eval(&asg).unwrap(), ctx.eval_fresh(&asg).unwrap(), "at {asg:?}");
        }
    }

    /// Every candidate of this bundle predicts a negative running time
    /// (a constant negative performance expression), which
    /// [`mean_completion`] maps to `INFINITY`: every joint score is
    /// non-finite while every placement succeeds.
    const NEGATIVE_BAG: &str = "\
harmonyBundle negative:1 config {
  {run
    {variable workerNodes {1 2}}
    {node worker {replicate workerNodes} {seconds 100} {memory 32}}
    {performance {0 - 100}}}
}
";

    /// A controller holding only [`NEGATIVE_BAG`].
    fn negative_system() -> Controller {
        let cluster = Cluster::from_rsl(&sp2_cluster(4)).unwrap();
        let cfg = ControllerConfig { lint: LintMode::Off, ..Default::default() };
        let mut c = Controller::new(cluster, cfg);
        // Greedy arrival placement may itself refuse the all-infeasible
        // bundle; the instance stays registered either way.
        let _ = c.register(parse_bundle_script(NEGATIVE_BAG).unwrap());
        c
    }

    /// Regression: a joint assignment whose objective is `INFINITY` used to
    /// be recorded as a viable "best"; non-finite scores are infeasible.
    #[test]
    fn non_finite_scores_are_infeasible() {
        for kind in ["exhaustive", "baseline", "annealing"] {
            let mut c = negative_system();
            let err = match kind {
                "exhaustive" => exhaustive(&mut c, 1_000).unwrap_err(),
                "baseline" => exhaustive_baseline(&mut c, 1_000).unwrap_err(),
                _ => annealing(&mut c, 50, 10.0, 3, 2).unwrap_err(),
            };
            assert!(matches!(err, CoreError::Unplaceable { .. }), "{kind}: {err}");
        }
    }

    /// Regression: the feasible-start search used to draw from the same
    /// stream as the walk, so the number of rejected starts shifted every
    /// later proposal. The two streams are now independently sub-seeded.
    #[test]
    fn walk_stream_is_independent_of_start_draws() {
        let mut pristine = walk_rng(9, 0);
        let mut start = start_rng(9, 0);
        // Burn a variable number of start draws, as a rejecting start
        // search would.
        for _ in 0..173 {
            let _: u64 = start.gen();
        }
        let mut after = walk_rng(9, 0);
        let a: Vec<u64> = (0..8).map(|_| pristine.gen()).collect();
        let b: Vec<u64> = (0..8).map(|_| after.gen()).collect();
        assert_eq!(a, b);
        // The two streams themselves must differ.
        let s: Vec<u64> = (0..8).map(|_| start_rng(9, 0).gen()).collect();
        assert_ne!(a, s);
        // And chains must not share streams.
        let other: Vec<u64> = {
            let mut r = walk_rng(9, 1);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_ne!(a, other);
    }

    /// A bundle with a dominated worker count: pruning drops it and the
    /// decision still matches the reference scan bit for bit.
    #[test]
    fn dominated_candidates_are_dropped_and_the_baseline_agrees() {
        const DOMINATED: &str = "\
harmonyBundle dom:1 config {
  {run
    {variable w {1 2 4}}
    {node worker {seconds 100} {memory 32}}
    {performance {100 * w}}}
}
";
        let mk = || {
            let mut c = setup(1, 8);
            c.register(parse_bundle_script(DOMINATED).unwrap()).unwrap();
            c
        };
        let fast = assert_matches_baseline(mk(), mk(), "dominated");
        assert!(fast.metrics().counter("controller.pruning.dominated_dropped") >= 2);
    }

    /// Hostname-pinned bundles split into components; the recombined
    /// result matches the reference scan.
    #[test]
    fn components_recombine_to_the_baseline_result() {
        fn pinned(app: &str, hosts: &[&str]) -> String {
            let nodes: Vec<String> = hosts
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    format!("{{node w{i} {{seconds 300}} {{memory 32}} {{hostname {h}}}}}")
                })
                .collect();
            format!(
                "harmonyBundle {app}:1 config {{ {{one {first}}} {{two {both}}} }}",
                first = nodes[0],
                both = nodes.join(" ")
            )
        }
        let a = pinned("appa", &["node00.sp2", "node01.sp2"]);
        let b = pinned("appb", &["node02.sp2", "node03.sp2"]);
        let mk = || {
            let mut c = setup(0, 8);
            c.register(parse_bundle_script(&a).unwrap()).unwrap();
            c.register(parse_bundle_script(&b).unwrap()).unwrap();
            c
        };
        let fast = assert_matches_baseline(mk(), mk(), "components");
        assert_eq!(fast.metrics().gauge("controller.pruning.components"), Some(2.0));
    }

    /// When nothing survives the pruned walkers the reference walker runs,
    /// so an all-infeasible system reports the baseline's error word for
    /// word.
    #[test]
    fn no_survivor_reports_the_baseline_error() {
        let fast = exhaustive(&mut negative_system(), 1_000).unwrap_err();
        let slow = exhaustive_baseline(&mut negative_system(), 1_000).unwrap_err();
        assert!(matches!(fast, CoreError::Unplaceable { .. }), "{fast}");
        assert_eq!(fast.to_string(), slow.to_string());
    }

    /// Satellite of the facts engine: the default exhaustive bound and the
    /// analyzer's HA0106 enumerability cap are one constant.
    #[test]
    fn exhaustive_limit_is_the_analyzer_domain_cap() {
        assert_eq!(DEFAULT_EXHAUSTIVE_LIMIT, harmony_analyze::passes::reach::DOMAIN_CAP as u64);
        assert_eq!(DEFAULT_EXHAUSTIVE_LIMIT, 4096);
    }

    #[test]
    fn search_metrics_are_recorded() {
        let mut c = setup(2, 8);
        exhaustive(&mut c, 10_000).unwrap();
        assert!(c.metrics().counter("controller.optimizer.searches") >= 1);
        assert!(c.metrics().counter("controller.optimizer.evals") > 0);
        assert!(c.metrics().gauge("controller.optimizer.last_wall_ms").unwrap_or(-1.0) >= 0.0);
    }
}
