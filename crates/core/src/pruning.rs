//! Facts-driven pruning of the joint optimizer.
//!
//! The abstract-interpretation facts engine in `harmony-analyze` proves
//! properties of a bundle from its declaration alone: interval bounds on
//! every expression site, assignments that can never win
//! ([`harmony_analyze::facts::dominance`]), and which bundles can ever
//! contend for the same machines
//! ([`harmony_analyze::facts::partition`]). This module turns those
//! proofs into a [`PruningPlan`] the exhaustive search consumes:
//!
//! * **dominated candidates** are dropped before enumeration;
//! * **capacity certificates** drop candidates that provably cannot match
//!   the base cluster (or any state reachable from it by committing other
//!   allocations);
//! * **static lower bounds** on each candidate's predicted response time
//!   feed the branch-and-bound scan;
//! * **interference components** split hostname-pinned bundles into
//!   independent sub-searches recombined exactly.
//!
//! Every claim is conservative: an evaluation error, an unbounded
//! interval, or an unpinned hostname forfeits the claim and the optimizer
//! falls back to the seed behavior for that candidate or pair. There is no
//! switch: [`crate::optimizer::exhaustive`] always consumes the plan, and
//! the cross-check that it changes no decision is a test — the randomized
//! suites hold it equal, bit for bit, to
//! [`crate::optimizer::exhaustive_baseline`], which consumes none of it.

use std::collections::{BTreeMap, BTreeSet};

use harmony_analyze::facts::dominance::dominated_assignments;
use harmony_analyze::facts::partition::options_footprint;
use harmony_analyze::facts::{aeval, Av, DomainEnv};
use harmony_resources::{Cluster, VarsEnv};
use harmony_rsl::schema::{piecewise_linear, NodeReq, OptionSpec, PerfSpec, TagValue};
use harmony_rsl::Value;

use crate::optimizer::{EvalCtx, PairCtx};

/// The statically derived plan for one joint search: which candidates
/// survive, their response-time lower bounds, and the independent
/// components of the pair set.
#[derive(Debug, Clone)]
pub struct PruningPlan {
    /// Per pair: surviving candidate indices, ascending. Indices refer to
    /// the pair's *original* candidate list, so assignments stay
    /// comparable with the reference scan's.
    pub kept: Vec<Vec<usize>>,
    /// Per pair: a sound response-time lower bound per kept candidate
    /// (aligned with `kept`), clamped to `[0, ∞)`.
    pub lbs: Vec<Vec<f64>>,
    /// Per pair: minimum of `lbs` (0 when no bound is claimed).
    pub min_lb: Vec<f64>,
    /// Pair indices grouped into independently optimizable components,
    /// each ascending, components ordered by first member. A single
    /// component means no partition was proven.
    pub components: Vec<Vec<usize>>,
    /// Candidates dropped because a provably better twin enumerates
    /// earlier.
    pub dominated_dropped: u64,
    /// Candidates dropped by a capacity certificate.
    pub infeasible_dropped: u64,
}

impl PruningPlan {
    /// Derives the plan for `ctx` from the facts engine. Never fails:
    /// anything unprovable is simply kept.
    pub fn build(ctx: &EvalCtx) -> PruningPlan {
        let mut kept = Vec::with_capacity(ctx.pairs.len());
        let mut lbs = Vec::with_capacity(ctx.pairs.len());
        let mut min_lb = Vec::with_capacity(ctx.pairs.len());
        let mut dominated_dropped = 0u64;
        let mut infeasible_dropped = 0u64;
        for pair in &ctx.pairs {
            let dominated = dominated_candidates(pair);
            let mut pair_kept = Vec::new();
            let mut pair_lbs = Vec::new();
            // Candidates differing only in elastic grant share a
            // certificate (feasibility never depends on the grant).
            let mut memo: BTreeMap<(usize, Vec<(String, i64)>), bool> = BTreeMap::new();
            for ci in 0..pair.candidates.len() {
                if dominated.contains(&ci) {
                    dominated_dropped += 1;
                    continue;
                }
                let oi = pair.opt_idx[ci];
                let key = (oi, pair.candidates[ci].vars.clone());
                let unplaceable = *memo.entry(key).or_insert_with(|| {
                    certified_unplaceable(
                        &ctx.base,
                        &pair.options[oi],
                        &VarsEnv(&pair.candidates[ci].vars),
                    )
                });
                if unplaceable {
                    infeasible_dropped += 1;
                    continue;
                }
                pair_lbs.push(candidate_lb(pair, ci));
                pair_kept.push(ci);
            }
            let m = pair_lbs.iter().copied().fold(f64::INFINITY, f64::min);
            min_lb.push(if m.is_finite() { m } else { 0.0 });
            kept.push(pair_kept);
            lbs.push(pair_lbs);
        }
        let components = components_of(ctx);
        PruningPlan { kept, lbs, min_lb, components, dominated_dropped, infeasible_dropped }
    }

    /// Size of the pruned joint space (saturating).
    pub fn search_space(&self) -> u64 {
        self.kept
            .iter()
            .map(|k| k.len() as u64)
            .try_fold(1u64, u64::checked_mul)
            .unwrap_or(u64::MAX)
    }

    /// Total candidates dropped.
    pub fn dropped(&self) -> u64 {
        self.dominated_dropped + self.infeasible_dropped
    }
}

/// Candidates of `pair` that can never be part of a winning joint
/// assignment, per the dominance proofs of the facts engine.
///
/// A proof alone is not enough to drop under the optimizer's quantized
/// total order: the winner must also *enumerate earlier at the same
/// elastic grant*, because a strictly-better-but-later winner can land on
/// the same epsilon-quantized score key and then lose the lexicographic
/// tie-break to the loser it was meant to replace. Concrete proofs with a
/// negative winner time are ignored too — a negative predicted time makes
/// the winner infeasible ([`crate::Objective::score`] maps it to
/// infinity) while the loser may be feasible.
fn dominated_candidates(pair: &PairCtx) -> BTreeSet<usize> {
    let mut drop = BTreeSet::new();
    for opt in &pair.options {
        for proof in dominated_assignments(opt) {
            // `t < 0.0 || t.is_nan()` rather than `!(t >= 0.0)`: NaN must
            // also forfeit the proof.
            if proof.winner_time.map(|t| t < 0.0 || t.is_nan()).unwrap_or(false) {
                continue;
            }
            let mut winner = proof.winner.clone();
            winner.sort();
            let mut loser = proof.loser.clone();
            loser.sort();
            if winner == loser {
                continue;
            }
            for li in 0..pair.candidates.len() {
                let cand = &pair.candidates[li];
                if cand.option != proof.option || cand.vars != loser {
                    continue;
                }
                let earlier_winner = pair.candidates[..li].iter().any(|c| {
                    c.option == proof.option
                        && c.vars == winner
                        && c.elastic_extra == cand.elastic_extra
                });
                if earlier_winner {
                    drop.insert(li);
                }
            }
        }
    }
    drop
}

/// Minimum megabytes `req` demands, mirroring the matcher's rule
/// (`Any`, `<=`, or no tag bind no minimum). `None` on evaluation error.
fn min_memory(req: &NodeReq, env: &VarsEnv<'_>) -> Option<f64> {
    match req.memory() {
        None | Some(TagValue::Any) | Some(TagValue::AtMost(_)) => Some(0.0),
        Some(v) => v.amount(env).ok(),
    }
}

/// Tag acceptance, `None` on evaluation error (absent tags accept all).
fn accepts(tag: Option<&TagValue>, attr: &Value, env: &VarsEnv<'_>) -> Option<bool> {
    match tag {
        None => Some(true),
        Some(t) => t.accepts(attr, env).ok(),
    }
}

/// A capacity certificate: proof that `opt` under `env` can never match —
/// not on `base`, and not on any cluster state the joint search reaches
/// from it.
///
/// Sound because commits only make nodes *less* available (tasks and
/// exclusive holds grow, free memory shrinks) while the name, hostname,
/// OS, and speed a requirement filters on are immutable: a node eligible
/// on any reachable state is eligible on `base`. If some requirement has
/// fewer base-eligible nodes than its replica count, or the union of
/// eligible nodes is smaller than the total binding count (bindings are
/// distinct nodes), the matcher must report no-match every time.
///
/// Conservative on errors: any count, memory, or tag expression that
/// fails to evaluate forfeits the certificate, so candidates whose match
/// would *error* (rather than merely miss) keep their seed behavior. The
/// skip order mirrors the matcher's (exclusive and dedicated-busy nodes
/// are skipped before any tag is evaluated), and `base` evaluates tags on
/// a superset of the nodes any reachable state does, so a certificate
/// also proves the matcher's own evaluations cannot fail.
fn certified_unplaceable(base: &Cluster, opt: &OptionSpec, env: &VarsEnv<'_>) -> bool {
    let mut union: BTreeSet<&str> = BTreeSet::new();
    let mut total: u64 = 0;
    for req in &opt.nodes {
        let Ok(count) = req.count.resolve(env) else { return false };
        let dedicated = match req.tag("dedicated") {
            None => false,
            Some(t) => match t.accepts(&Value::Int(1), env) {
                Ok(d) => d,
                Err(_) => return false,
            },
        };
        let Some(min_mem) = min_memory(req, env) else { return false };
        let mut eligible: u64 = 0;
        for state in base.nodes() {
            if state.exclusive > 0 || (dedicated && state.tasks > 0) {
                continue;
            }
            let host = Value::Str(state.decl.hostname.clone());
            let Some(h) = accepts(req.hostname(), &host, env) else { return false };
            let os = Value::Str(state.decl.os.clone());
            let Some(o) = accepts(req.os(), &os, env) else { return false };
            let speed = Value::Float(state.decl.speed);
            let Some(s) = accepts(req.tag("speed"), &speed, env) else { return false };
            if !(h && o && s) || state.free_memory < min_mem {
                continue;
            }
            eligible += 1;
            union.insert(state.decl.name.as_str());
        }
        if eligible < u64::from(count) {
            return true;
        }
        total += u64::from(count);
    }
    (union.len() as u64) < total
}

/// Total node bindings of `opt` under `env` (the `x` the points model
/// interpolates at), `None` on evaluation error.
fn total_bindings(opt: &OptionSpec, env: &VarsEnv<'_>) -> Option<u64> {
    let mut total = 0u64;
    for req in &opt.nodes {
        total += u64::from(req.count.resolve(env).ok()?);
    }
    Some(total)
}

/// A sound lower bound on the candidate's predicted response time in any
/// *feasible* joint assignment that includes it, clamped to `[0, ∞)`
/// (feasible assignments have non-negative times — the objective maps
/// negative ones to infinity).
///
/// Both prediction models multiply their base time by a contention factor
/// of at least 1, so a lower bound on the base is a lower bound on the
/// prediction. For a points table the base is exact (piecewise-linear at
/// the resolved binding count); for an expression the interval
/// interpreter evaluates it under the candidate's point bindings, leaving
/// allocation-derived names unconstrained; the default model claims
/// nothing.
fn candidate_lb(pair: &PairCtx, ci: usize) -> f64 {
    let opt = &pair.options[pair.opt_idx[ci]];
    let lb = match &opt.performance {
        None => 0.0,
        Some(PerfSpec::Points(points)) => {
            if points.is_empty() {
                0.0
            } else {
                match total_bindings(opt, &VarsEnv(&pair.candidates[ci].vars)) {
                    Some(x) => piecewise_linear(points, x as f64),
                    None => 0.0,
                }
            }
        }
        Some(PerfSpec::Expr(e)) => {
            let env = DomainEnv::from_assignment(&pair.candidates[ci].vars);
            match aeval(e, &env) {
                Av::Num(iv) => iv.lo,
                Av::Any => 0.0,
            }
        }
    };
    if lb.is_finite() {
        lb.max(0.0)
    } else {
        0.0
    }
}

/// Groups the pairs of `ctx` into independently optimizable components by
/// hostname footprint: pairs whose footprints are disjoint can never
/// contend for a machine (a node has exactly one hostname), so their
/// sub-searches compose exactly. Any unpinned pair overlaps everything.
fn components_of(ctx: &EvalCtx) -> Vec<Vec<usize>> {
    let n = ctx.pairs.len();
    let feet: Vec<Option<BTreeSet<String>>> =
        ctx.pairs.iter().map(|p| options_footprint(&p.options)).collect();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut r = i;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = i;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    for i in 0..n {
        for j in i + 1..n {
            let overlap = match (&feet[i], &feet[j]) {
                (None, _) | (_, None) => true,
                (Some(a), Some(b)) => a.intersection(b).next().is_some(),
            };
            if overlap {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut slot_of: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        let r = find(&mut parent, i);
        let slot = match slot_of[r] {
            Some(s) => s,
            None => {
                components.push(Vec::new());
                slot_of[r] = Some(components.len() - 1);
                components.len() - 1
            }
        };
        components[slot].push(i);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, ControllerConfig};
    use harmony_rsl::schema::parse_bundle_script;
    use proptest::prelude::*;

    fn controller_for(scripts: &[&str], nodes: usize) -> Controller {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(nodes)).unwrap();
        let mut c = Controller::new(cluster, ControllerConfig::default());
        for s in scripts {
            let _ = c.register(parse_bundle_script(s).unwrap());
        }
        c
    }

    fn ctx_for(scripts: &[&str], nodes: usize) -> EvalCtx {
        EvalCtx::build(&mut controller_for(scripts, nodes)).unwrap()
    }

    #[test]
    fn fig2b_plan_keeps_everything_in_one_component() {
        let ctx = ctx_for(&[harmony_rsl::listings::FIG2B_BAG], 8);
        let plan = PruningPlan::build(&ctx);
        assert_eq!(plan.kept, vec![vec![0, 1, 2, 3]]);
        assert_eq!(plan.dropped(), 0);
        assert_eq!(plan.components, vec![vec![0]]);
        // Perf-table lower bounds are the exact curve values.
        assert_eq!(plan.lbs[0], vec![1200.0, 620.0, 340.0, 230.0]);
        assert_eq!(plan.min_lb, vec![230.0]);
    }

    #[test]
    fn dominated_candidates_are_dropped() {
        // `w` changes nothing but the predicted time: w=1 wins.
        let src = "harmonyBundle a b { {o {variable w {1 2 4}} \
                   {node n {seconds 100} {memory 16}} \
                   {performance {100 * w}}} }";
        let ctx = ctx_for(&[src], 4);
        let plan = PruningPlan::build(&ctx);
        assert_eq!(plan.kept, vec![vec![0]]);
        assert_eq!(plan.dominated_dropped, 2);
    }

    #[test]
    fn capacity_certificates_drop_oversized_demands() {
        // 8 replicas can never fit a 4-node cluster; 2 replicas can.
        let src = "harmonyBundle a b { {o {variable w {2 8}} \
                   {node n {replicate w} {seconds {1200 / w}} {memory 16}}} }";
        let ctx = ctx_for(&[src], 4);
        let plan = PruningPlan::build(&ctx);
        assert_eq!(plan.kept, vec![vec![0]]);
        assert_eq!(plan.infeasible_dropped, 1);
    }

    #[test]
    fn memory_certificates_respect_base_free_memory() {
        // sp2 nodes have 256 MB: a 300 MB demand is certified away, a
        // 200 MB one is kept.
        let src = "harmonyBundle a b { \
                   {small {node n {seconds 1} {memory 200}}} \
                   {big {node n {seconds 1} {memory 300}}} }";
        let ctx = ctx_for(&[src], 2);
        let plan = PruningPlan::build(&ctx);
        assert_eq!(plan.kept, vec![vec![0]]);
        assert_eq!(plan.infeasible_dropped, 1);
    }

    #[test]
    fn pinned_bundles_split_into_components() {
        let a = "harmonyBundle a b { {o {node n {seconds 1} {memory 16} {hostname node00.sp2}}} }";
        let b = "harmonyBundle b b { {o {node n {seconds 1} {memory 16} {hostname node01.sp2}}} }";
        let ctx = ctx_for(&[a, b], 4);
        let plan = PruningPlan::build(&ctx);
        assert_eq!(plan.components, vec![vec![0], vec![1]]);
    }

    #[test]
    fn unpinned_bundles_share_one_component() {
        let ctx = ctx_for(&[harmony_rsl::listings::FIG2B_BAG, harmony_rsl::listings::FIG2B_BAG], 8);
        let plan = PruningPlan::build(&ctx);
        assert_eq!(plan.components, vec![vec![0, 1]]);
    }

    /// One randomized FIG2B-shaped bundle; half the time it carries a
    /// monotone performance expression (so dominance proofs can fire).
    fn random_script(i: usize, rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng;
        let all = [1usize, 2, 3, 4, 6, 8];
        let nchoices = rng.gen_range(1..=3usize);
        let mut choices: Vec<usize> = Vec::new();
        while choices.len() < nchoices {
            let c = all[rng.gen_range(0..all.len())];
            if !choices.contains(&c) {
                choices.push(c);
            }
        }
        choices.sort_unstable();
        let list = choices.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" ");
        let seconds = rng.gen_range(100..=2000u32);
        let memory = rng.gen_range(16..=160u32);
        let perf = if rng.gen_bool(0.5) {
            let k = rng.gen_range(10..=500u32);
            let body = if rng.gen_bool(0.5) { format!("{k} * w") } else { format!("{k} / w") };
            format!("{{performance {{{body}}}}}")
        } else {
            String::new()
        };
        format!(
            "harmonyBundle app{i}:1 config {{ {{run {{variable w {{{list}}}}} \
             {{node n {{replicate w}} {{seconds {{{seconds} / w}}}} \
             {{memory {memory}}}}} {perf}}} }}"
        )
    }

    proptest! {
        /// Interval soundness through the controller's own enumeration:
        /// every candidate `candidates::enumerate` produces evaluates each
        /// expression site to a value inside the statically proven
        /// interval for the option's whole choice domain.
        #[test]
        fn enumerated_candidates_evaluate_inside_static_intervals(seed in 0u64..120) {
            use harmony_analyze::facts::{aeval, DomainEnv};
            use harmony_rsl::expr::MapEnv;
            use harmony_rsl::schema::TagValue;
            use harmony_rsl::Value;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x0001_47E0_0000 ^ seed);
            let script = random_script(0, &mut rng);
            let spec = parse_bundle_script(&script).unwrap();
            let candidates = crate::candidates::enumerate(&spec);
            for cand in &candidates {
                let opt = spec
                    .options
                    .iter()
                    .find(|o| o.name == cand.option)
                    .expect("candidate names a declared option");
                let domain = DomainEnv::from_option(opt);
                let mut env = MapEnv::new();
                for (name, value) in &cand.vars {
                    env.set(name, Value::Int(*value));
                }
                for node in &opt.nodes {
                    for (tag, tv) in &node.tags {
                        let TagValue::Expr(e) = tv else { continue };
                        let Some(iv) = aeval(e, &domain).interval() else { continue };
                        let Ok(v) = harmony_rsl::expr::eval(e, &env) else { continue };
                        let Ok(x) = v.as_f64() else { continue };
                        prop_assert!(
                            x >= iv.lo - 1e-9 && x <= iv.hi + 1e-9,
                            "seed {seed}: `{tag}` of `{}` = {x} outside [{}, {}] \
                             for vars {:?}",
                            node.name, iv.lo, iv.hi, cand.vars
                        );
                    }
                }
            }
        }

        /// Soundness of the plan itself: the search that consumes it and the
        /// reference scan that consumes none of it commit the same decisions
        /// and reach the same objective, bit for bit — nothing the facts
        /// engine drops can be part of an optimum.
        #[test]
        fn pruned_search_equals_the_baseline(seed in 0u64..120) {
            use crate::optimizer::{exhaustive, exhaustive_baseline};
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xBE57_0000 ^ seed);
            let nodes = rng.gen_range(2..=6usize);
            let napps = rng.gen_range(1..=3usize);
            let scripts: Vec<String> =
                (0..napps).map(|i| random_script(i, &mut rng)).collect();
            let refs: Vec<&str> = scripts.iter().map(String::as_str).collect();
            let mut pruned = controller_for(&refs, nodes);
            let mut reference = controller_for(&refs, nodes);
            match (exhaustive(&mut pruned, 2_000), exhaustive_baseline(&mut reference, 2_000)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "seed {}", seed),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "seed {}", seed),
                (a, b) => prop_assert!(false, "seed {seed}: {a:?} vs {b:?}"),
            }
            prop_assert_eq!(
                pruned.objective_score().to_bits(),
                reference.objective_score().to_bits(),
                "seed {}", seed
            );
        }
    }
}
