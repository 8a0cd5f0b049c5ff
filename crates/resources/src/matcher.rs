//! Matching application requirements to available resources (§4.1).
//!
//! "We start by finding nodes that meet the minimum resource requirements
//! required by the application. When considering nodes, we also verify that
//! the network links between nodes of the application meet the requirements
//! specified in the RSL. Our current approach uses a simple first-fit
//! allocation strategy."
//!
//! [`Strategy::FirstFit`] is the paper's policy; best-fit and worst-fit are
//! provided for the fragmentation ablation the paper sketches ("in the
//! future, we plan to extend the matching to use more sophisticated
//! policies that try to avoid fragmentation").

use harmony_rsl::expr::{ChainEnv, Env, MapEnv};
use harmony_rsl::schema::{Accepts, NodeReq, OptionSpec, TagValue};
use harmony_rsl::{RslError, Value};
use serde::{Deserialize, Serialize};

use crate::alloc::{AllocatedLink, AllocatedNode, Allocation, Sites, VarsEnv};
use crate::cluster::Cluster;
use crate::error::ResourceError;

/// Node-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Strategy {
    /// Paper's policy: first (in name order) node that fits.
    #[default]
    FirstFit,
    /// Node whose free memory leaves the smallest remainder.
    BestFit,
    /// Node with the most free memory.
    WorstFit,
}

/// Configuration for the matcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Matcher {
    /// Node-selection strategy.
    pub strategy: Strategy,
    /// Extra megabytes to grant (beyond the minimum) to elastic `>=`
    /// memory requirements when the node has spare capacity. Figure 3's DS
    /// option profits from extra client memory up to a 24 MB cap; the
    /// controller searches over this knob.
    pub elastic_extra: f64,
}

impl Default for Matcher {
    fn default() -> Self {
        Matcher { strategy: Strategy::FirstFit, elastic_extra: 0.0 }
    }
}

impl Matcher {
    /// Creates a matcher with the given strategy and no elastic grants.
    pub fn new(strategy: Strategy) -> Self {
        Matcher { strategy, elastic_extra: 0.0 }
    }

    /// Sets the elastic memory grant.
    pub fn with_elastic_extra(mut self, extra: f64) -> Self {
        self.elastic_extra = extra;
        self
    }

    /// Attempts to bind every node and link requirement of `opt` against
    /// `cluster`, under the variable bindings `vars` (e.g.
    /// `workerNodes = 4`). The cluster is *not* modified; commit the
    /// returned [`Allocation`] to reserve the resources.
    ///
    /// All node bindings within one allocation are distinct cluster nodes
    /// (replicas of Figure 2a's `{replicate 4}` land on four different
    /// machines, as the paper's "four distinct nodes" requires).
    ///
    /// # Errors
    ///
    /// [`ResourceError::NoMatch`] with the first requirement that could not
    /// be satisfied; RSL evaluation errors from parameterized tags.
    ///
    /// # Examples
    ///
    /// ```
    /// use harmony_resources::Matcher;
    /// use harmony_resources::Cluster;
    /// use harmony_rsl::expr::MapEnv;
    /// use harmony_rsl::schema::parse_bundle_script;
    ///
    /// let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(8))?;
    /// let bundle = parse_bundle_script(harmony_rsl::listings::FIG2A_SIMPLE)?;
    /// let alloc = Matcher::default()
    ///     .match_option(&cluster, &bundle.options[0], &MapEnv::new())?;
    /// assert_eq!(alloc.distinct_nodes(), 4); // four distinct workers
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn match_option(
        &self,
        cluster: &Cluster,
        opt: &OptionSpec,
        vars: &MapEnv,
    ) -> Result<Allocation, ResourceError> {
        let mut variables: Vec<(String, i64)> =
            vars.iter().filter_map(|(k, v)| v.as_i64().ok().map(|i| (k.to_owned(), i))).collect();
        variables.sort();
        let mut alloc = Allocation { variables, ..Allocation::default() };
        let compiled = Compiled::new(opt, vars);
        let found =
            self.bind(cluster, opt, &compiled, vars, &mut alloc, &mut MatchScratch::default())?;
        worded(found, opt, alloc)
    }

    /// [`Matcher::match_option`] under a candidate's integer bindings,
    /// sorted by name, which builds no map.
    ///
    /// # Errors
    ///
    /// As [`Matcher::match_option`].
    pub fn match_vars(
        &self,
        cluster: &Cluster,
        opt: &OptionSpec,
        vars: &[(String, i64)],
    ) -> Result<Allocation, ResourceError> {
        let mut alloc = Allocation::default();
        let compiled = Compiled::new(opt, &VarsEnv(vars));
        let mut scratch = MatchScratch::default();
        let found = self.match_into(cluster, opt, &compiled, vars, &mut alloc, &mut scratch)?;
        worded(found, opt, alloc)
    }

    /// [`Matcher::match_vars`] of `opt` compiled under `vars` ([`Compiled`])
    /// into `out`, the planner's entry: the allocation's vectors and
    /// strings are overwritten in place, node bindings it sheds are kept in
    /// `scratch` for the next match, and so is the buffer of eligible
    /// nodes. A caller that matches into the same `out` and `scratch` again
    /// allocates only where a binding outgrows every one before it, and
    /// evaluates only the link bandwidths, which read the granted memory. A
    /// requirement nothing satisfies is an unworded [`Miss`], and `out`
    /// then holds a partial binding. After a match,
    /// [`MatchScratch::sites`] tells where in `cluster` each binding is.
    ///
    /// # Errors
    ///
    /// RSL evaluation errors from parameterized tags, raised where the
    /// match reaches the tag.
    pub fn match_into(
        &self,
        cluster: &Cluster,
        opt: &OptionSpec,
        compiled: &Compiled,
        vars: &[(String, i64)],
        out: &mut Allocation,
        scratch: &mut MatchScratch,
    ) -> Result<Result<(), Miss>, ResourceError> {
        // Not `clone_into`: a tuple's `clone_from` clones its `String`
        // afresh.
        out.variables.truncate(vars.len());
        let kept = out.variables.len();
        for ((name, value), (from, v)) in out.variables.iter_mut().zip(vars) {
            assign(name, from);
            *value = *v;
        }
        out.variables.extend_from_slice(&vars[kept..]);
        self.bind(cluster, opt, compiled, &VarsEnv(vars), out, scratch)
    }

    /// The one matcher body: the node requirements are `compiled`, `opt`'s
    /// evaluated in `vars`, and the link bandwidths evaluate in `vars` and
    /// the binding; the node and link bindings are written over `out`'s and
    /// their positions over `scratch`'s; `out`'s `variables` are the
    /// caller's.
    fn bind(
        &self,
        cluster: &Cluster,
        opt: &OptionSpec,
        compiled: &Compiled,
        vars: &impl Env,
        out: &mut Allocation,
        scratch: &mut MatchScratch,
    ) -> Result<Result<(), Miss>, ResourceError> {
        debug_assert_eq!(compiled.nodes.len(), opt.nodes.len(), "compiled from another option");
        let nodes = cluster.node_slice();
        let MatchScratch { spare, eligible, sites, link_sites } = scratch;
        // The bindings made so far are `out.nodes[..bound]`, at positions
        // `sites[..bound]` of `nodes`.
        let mut bound = 0;
        sites.clear();
        // The nodes that satisfy the requirement being bound, as indexes
        // into `nodes`, least loaded first. Nothing a match reads changes
        // while it runs, so one scan per requirement serves every replica:
        // a replica takes its pick out of the buffer, which is what keeps
        // its bindings distinct, and `sites` keeps them distinct from
        // other requirements'.
        let free = |i: usize| nodes[i].free_memory;

        for (r, (req, need)) in opt.nodes.iter().zip(&compiled.nodes).enumerate() {
            let count = *raised(&need.count)?;
            let dedicated = *raised(&need.dedicated)?;
            if count == 0 {
                continue;
            }
            let min_mem = *raised(&need.memory)?;
            eligible.clear();
            for (i, state) in nodes.iter().enumerate() {
                if sites.contains(&i) {
                    continue;
                }
                // Nodes held exclusively by a dedicated allocation are
                // off-limits to everyone, and dedicated requirements
                // only accept idle nodes (space sharing, as on the
                // paper's SP-2).
                if state.exclusive > 0 || (dedicated && state.tasks > 0) {
                    continue;
                }
                if let Some(t) = &need.hostname {
                    if !raised(t)?.word(&state.decl.hostname)? {
                        continue;
                    }
                }
                if let Some(t) = &need.os {
                    if !raised(t)?.word(&state.decl.os)? {
                        continue;
                    }
                }
                if let Some(t) = &need.speed {
                    if !raised(t)?.number(state.decl.speed) {
                        continue;
                    }
                }
                if state.free_memory < min_mem {
                    continue;
                }
                eligible.push(i);
            }
            // §4.1: "as nodes are matched, we decrease the available
            // resources" — CPU load counts, so less-loaded nodes rank
            // first under every strategy; ties stay in name order.
            eligible.sort_unstable_by_key(|&i| (nodes[i].tasks, i));
            let elastic = self.elastic_extra > 0.0 && need.elastic;
            let mut seconds = 0.0;
            for index in 0..count {
                let at = match self.strategy {
                    Strategy::FirstFit => (!eligible.is_empty()).then_some(0),
                    Strategy::BestFit => (0..eligible.len()).min_by(|&a, &b| {
                        let (a, b) = (free(eligible[a]), free(eligible[b]));
                        by_amount(a - min_mem, b - min_mem)
                    }),
                    Strategy::WorstFit => (0..eligible.len())
                        .max_by(|&a, &b| by_amount(free(eligible[a]), free(eligible[b]))),
                };
                let Some(at) = at else {
                    return Ok(Err(Miss::Node { req: r, index, memory: min_mem }));
                };
                let i = eligible.remove(at);
                let chosen = &nodes[i];
                let mut grant = min_mem;
                if elastic {
                    grant += self.elastic_extra.min((chosen.free_memory - min_mem).max(0.0));
                }
                // Evaluated once a node is found, so that a requirement
                // nothing satisfies is a miss whatever its tags say.
                if index == 0 {
                    if let Some(v) = &need.seconds {
                        seconds = *raised(v)?;
                    }
                }
                if bound == out.nodes.len() {
                    out.nodes.push(spare.pop().unwrap_or_default());
                }
                let binding = &mut out.nodes[bound];
                assign(&mut binding.req, &req.name);
                assign(&mut binding.node, &chosen.decl.name);
                (binding.index, binding.memory, binding.seconds) = (index, grant, seconds);
                binding.exclusive = dedicated;
                sites.push(i);
                bound += 1;
            }
        }
        spare.extend(out.nodes.drain(bound..));

        // The links are bound beside the nodes they join, which the
        // post-binding environment reads (parameterized link bandwidths can
        // see `<req>.memory` etc.).
        let mut bound_links = std::mem::take(&mut out.links);
        let env = out.env();
        let found = bind_links(
            cluster,
            opt,
            &ChainEnv::new(&env, vars),
            out,
            sites,
            &mut bound_links,
            link_sites,
        );
        out.links = bound_links;
        found
    }
}

/// An option's node requirements evaluated under one set of variable
/// bindings: each requirement's count, minimum memory, `seconds` and
/// `dedicated` tag, whether its memory is elastic, and its `hostname`,
/// `os` and `speed` filters reduced to values a node's attributes are
/// compared with ([`Accepts`]). A match of the option under those
/// bindings ([`Matcher::match_into`]) then evaluates only the link
/// bandwidths, which read the memory it granted. A tag that fails to
/// evaluate keeps its error, which the match raises where it reaches the
/// tag, as if it had evaluated it there.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    nodes: Vec<Needs>,
}

/// One node requirement of a [`Compiled`] option.
#[derive(Debug, Clone, PartialEq)]
struct Needs {
    count: Result<u32, RslError>,
    dedicated: Result<bool, RslError>,
    memory: Result<f64, RslError>,
    elastic: bool,
    seconds: Option<Result<f64, RslError>>,
    hostname: Option<Result<Accepts, RslError>>,
    os: Option<Result<Accepts, RslError>>,
    speed: Option<Result<Accepts, RslError>>,
}

impl Compiled {
    /// Evaluates `opt`'s node requirements in `vars`.
    pub fn new(opt: &OptionSpec, vars: &impl Env) -> Self {
        let needs = |req: &NodeReq| Needs {
            count: req.count.resolve(vars),
            dedicated: req.tag("dedicated").map_or(Ok(false), |t| t.accepts(&Value::Int(1), vars)),
            memory: min_memory(req, vars),
            elastic: req.memory().is_some_and(TagValue::is_elastic),
            seconds: req.seconds().map(|t| t.amount(vars)),
            hostname: req.hostname().map(|t| t.accepting(vars)),
            os: req.os().map(|t| t.accepting(vars)),
            speed: req.tag("speed").map(|t| t.accepting(vars)),
        };
        Compiled { nodes: opt.nodes.iter().map(needs).collect() }
    }
}

/// A compiled tag's value, or the error evaluating it raised.
fn raised<T>(compiled: &Result<T, RslError>) -> Result<&T, ResourceError> {
    compiled.as_ref().map_err(|e| e.clone().into())
}

/// Binds `opt`'s links over `out` between the nodes `partial` bound at
/// positions `sites`, with bandwidths evaluated in `env`, and writes each
/// link's position over `at`.
fn bind_links(
    cluster: &Cluster,
    opt: &OptionSpec,
    env: &impl Env,
    partial: &Allocation,
    sites: &[usize],
    out: &mut Vec<AllocatedLink>,
    at: &mut Vec<Option<usize>>,
) -> Result<Result<(), Miss>, ResourceError> {
    at.clear();
    let mut placed = 0;
    for (l, link) in opt.links.iter().enumerate() {
        // A link joins the first binding of each requirement it names.
        let end = |req: &str| partial.nodes.iter().position(|n| n.req == req);
        let (Some(x), Some(y)) = (end(&link.a), end(&link.b)) else {
            return Ok(Err(Miss::UnknownEnd { link: l }));
        };
        let bw = link.bandwidth.amount(env)?;
        let (a, b) = (&partial.nodes[x].node, &partial.nodes[y].node);
        // Traffic within one node needs no link.
        let carrier = if sites[x] != sites[y] {
            let Some(i) = cluster.link_index(a, b) else {
                return Ok(Err(Miss::NoLink { link: l }));
            };
            let already: f64 = out[..placed]
                .iter()
                .zip(&at[..])
                .filter(|(_, &j)| j == Some(i))
                .map(|(l, _)| l.bandwidth)
                .sum();
            let free = cluster.link_slice()[i].free_bandwidth - already;
            if free < bw {
                return Ok(Err(Miss::Bandwidth { link: l, free, need: bw }));
            }
            Some(i)
        } else {
            None
        };
        if placed == out.len() {
            out.push(AllocatedLink::default());
        }
        let binding = &mut out[placed];
        assign(&mut binding.a, a);
        assign(&mut binding.b, b);
        binding.bandwidth = bw;
        at.push(carrier);
        placed += 1;
    }
    out.truncate(placed);
    Ok(Ok(()))
}

/// What [`Matcher::match_into`] keeps from one match to the next: node
/// bindings an allocation shed, whose strings the next binding reuses, the
/// buffer of eligible nodes, and where the last match's bindings are.
#[derive(Debug, Default)]
pub struct MatchScratch {
    spare: Vec<AllocatedNode>,
    eligible: Vec<usize>,
    sites: Vec<usize>,
    link_sites: Vec<Option<usize>>,
}

impl MatchScratch {
    /// Where the bindings of the last match into this scratch are in the
    /// cluster it was matched against; meaningful only after a match that
    /// found a placement.
    pub fn sites(&self) -> Sites<'_> {
        Sites { nodes: &self.sites, links: &self.link_sites }
    }
}

/// Overwrites `s` with `value` in its own buffer.
fn assign(s: &mut String, value: &str) {
    s.clear();
    s.push_str(value);
}

/// Why a match found no placement, left unworded: [`Matcher::match_option`]
/// and [`Matcher::match_vars`] turn it into [`ResourceError::NoMatch`], and
/// a planner that only needs to know a candidate does not fit formats
/// nothing. Indices are into the option's `nodes` and `links`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Miss {
    /// No node satisfies replica `index` of requirement `req`, which needs
    /// `memory` MB.
    Node {
        /// The requirement.
        req: usize,
        /// The replica.
        index: u32,
        /// Megabytes it needs.
        memory: f64,
    },
    /// The link names a requirement the option does not bind.
    UnknownEnd {
        /// The link requirement.
        link: usize,
    },
    /// No cluster link joins the nodes the link's ends are bound to.
    NoLink {
        /// The link requirement.
        link: usize,
    },
    /// The cluster link has `free` Mbit/s left, and the link needs `need`.
    Bandwidth {
        /// The link requirement.
        link: usize,
        /// Mbit/s free, net of this allocation's earlier links.
        free: f64,
        /// Mbit/s needed.
        need: f64,
    },
}

impl Miss {
    /// The [`ResourceError::NoMatch`] this miss is, worded against the
    /// option and the partial binding it left.
    pub fn error(self, opt: &OptionSpec, partial: &Allocation) -> ResourceError {
        ResourceError::NoMatch { reason: self.reason(opt, partial) }
    }

    /// The reason [`ResourceError::NoMatch`] carries, worded against the
    /// option and the partial binding the miss left.
    fn reason(self, opt: &OptionSpec, partial: &Allocation) -> String {
        let ends = |link: usize| {
            let link = &opt.links[link];
            let end = |req: &str| partial.binding(req).map_or("", |n| n.node.as_str());
            (link, end(&link.a), end(&link.b))
        };
        match self {
            Miss::Node { req, index, memory } => {
                let req = &opt.nodes[req];
                format!(
                    "no node satisfies requirement `{}` replica {index} (need {memory} MB{})",
                    req.name,
                    req.hostname()
                        .map(|h| format!(", hostname {}", h.canonical()))
                        .unwrap_or_default()
                )
            }
            Miss::UnknownEnd { link } => {
                let (link, a, _) = ends(link);
                let req = if a.is_empty() { &link.a } else { &link.b };
                format!("link references unknown requirement `{req}`")
            }
            Miss::NoLink { link } => {
                let (_, a, b) = ends(link);
                format!("no link between `{a}` and `{b}`")
            }
            Miss::Bandwidth { link, free, need } => {
                let (_, a, b) = ends(link);
                format!("link `{a}`-`{b}` has {free:.1} Mbps free, need {need:.1}")
            }
        }
    }
}

/// A match's outcome as the public entries report it.
fn worded(
    found: Result<(), Miss>,
    opt: &OptionSpec,
    alloc: Allocation,
) -> Result<Allocation, ResourceError> {
    match found {
        Ok(()) => Ok(alloc),
        Err(miss) => Err(miss.error(opt, &alloc)),
    }
}

fn by_amount(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

fn min_memory(req: &NodeReq, vars: &impl Env) -> Result<f64, RslError> {
    match req.memory() {
        None => Ok(0.0),
        Some(TagValue::Any) => Ok(0.0),
        Some(TagValue::AtMost(_)) => Ok(0.0),
        Some(v) => v.amount(vars),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_rsl::listings::{FIG2A_SIMPLE, FIG2B_BAG, FIG3_DBCLIENT};
    use harmony_rsl::schema::{parse_bundle_script, LinkDecl, NodeDecl};

    fn sp2(n: usize) -> Cluster {
        Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(n)).unwrap()
    }

    #[test]
    fn matches_fig2a_on_sp2() {
        let cluster = sp2(8);
        let bundle = parse_bundle_script(FIG2A_SIMPLE).unwrap();
        let alloc =
            Matcher::default().match_option(&cluster, &bundle.options[0], &MapEnv::new()).unwrap();
        assert_eq!(alloc.nodes.len(), 4);
        assert_eq!(alloc.distinct_nodes(), 4);
        for n in &alloc.nodes {
            assert_eq!(n.memory, 32.0);
            assert_eq!(n.seconds, 300.0);
        }
    }

    #[test]
    fn fig2a_needs_four_nodes() {
        let cluster = sp2(3);
        let bundle = parse_bundle_script(FIG2A_SIMPLE).unwrap();
        let err = Matcher::default()
            .match_option(&cluster, &bundle.options[0], &MapEnv::new())
            .unwrap_err();
        assert!(matches!(err, ResourceError::NoMatch { .. }));
    }

    #[test]
    fn matches_fig2b_with_variable_binding() {
        let cluster = sp2(8);
        let bundle = parse_bundle_script(FIG2B_BAG).unwrap();
        for workers in [1i64, 2, 4, 8] {
            let mut vars = MapEnv::new();
            vars.set("workerNodes", Value::Int(workers));
            let alloc =
                Matcher::default().match_option(&cluster, &bundle.options[0], &vars).unwrap();
            assert_eq!(alloc.nodes.len(), workers as usize);
            // Total cycles constant across worker counts.
            let total: f64 = alloc.nodes.iter().map(|n| n.seconds).sum();
            assert!((total - 1200.0).abs() < 1e-6, "workers={workers} total={total}");
            assert_eq!(alloc.variables, vec![("workerNodes".to_string(), workers)]);
        }
    }

    fn db_cluster() -> Cluster {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("server", 1.0, 256.0).with_hostname("harmony.cs.umd.edu"))
            .unwrap();
        c.add_node(NodeDecl::new("c1", 1.0, 64.0)).unwrap();
        c.add_link(LinkDecl::new("server", "c1", 320.0)).unwrap();
        c
    }

    #[test]
    fn matches_fig3_qs_pinning_server_by_hostname() {
        let cluster = db_cluster();
        let bundle = parse_bundle_script(FIG3_DBCLIENT).unwrap();
        let qs = bundle.option("QS").unwrap();
        let alloc = Matcher::default().match_option(&cluster, qs, &MapEnv::new()).unwrap();
        assert_eq!(alloc.binding("server").unwrap().node, "server");
        assert_eq!(alloc.binding("client").unwrap().node, "c1");
        assert_eq!(alloc.links[0].bandwidth, 2.0);
    }

    #[test]
    fn fig3_ds_bandwidth_is_parameterized_on_granted_memory() {
        let cluster = db_cluster();
        let bundle = parse_bundle_script(FIG3_DBCLIENT).unwrap();
        let ds = bundle.option("DS").unwrap();
        // Minimum grant (17 MB): bandwidth = 44 + 17 - 17 = 44.
        let alloc = Matcher::default().match_option(&cluster, ds, &MapEnv::new()).unwrap();
        assert_eq!(alloc.binding("client").unwrap().memory, 17.0);
        assert_eq!(alloc.links[0].bandwidth, 44.0);
        // Grant 7 MB extra (24 MB): bandwidth = 44 + 24 - 17 = 51... note
        // the expression *increases* with memory up to the cap because it
        // models a one-time cache fill; past the cap extra memory is moot.
        let alloc = Matcher::new(Strategy::FirstFit)
            .with_elastic_extra(7.0)
            .match_option(&cluster, ds, &MapEnv::new())
            .unwrap();
        assert_eq!(alloc.binding("client").unwrap().memory, 24.0);
        assert_eq!(alloc.links[0].bandwidth, 51.0);
        // Past the cap the bandwidth term saturates.
        let alloc = Matcher::new(Strategy::FirstFit)
            .with_elastic_extra(30.0)
            .match_option(&cluster, ds, &MapEnv::new())
            .unwrap();
        assert_eq!(alloc.binding("client").unwrap().memory, 47.0);
        assert_eq!(alloc.links[0].bandwidth, 51.0);
    }

    #[test]
    fn elastic_grant_is_limited_by_spare_capacity() {
        let mut cluster = db_cluster();
        // Shrink the client node so only 20 MB is free.
        cluster.remove_node("c1");
        cluster.add_node(NodeDecl::new("c1", 1.0, 20.0)).unwrap();
        cluster.add_link(LinkDecl::new("server", "c1", 320.0)).unwrap();
        let bundle = parse_bundle_script(FIG3_DBCLIENT).unwrap();
        let ds = bundle.option("DS").unwrap();
        let alloc = Matcher::new(Strategy::FirstFit)
            .with_elastic_extra(30.0)
            .match_option(&cluster, ds, &MapEnv::new())
            .unwrap();
        assert_eq!(alloc.binding("client").unwrap().memory, 20.0);
    }

    #[test]
    fn strategies_differ_on_heterogeneous_memory() {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("big", 1.0, 512.0)).unwrap();
        c.add_node(NodeDecl::new("small", 1.0, 64.0)).unwrap();
        let bundle =
            parse_bundle_script("harmonyBundle a b { {o {node w {seconds 10} {memory 32}}} }")
                .unwrap();
        let opt = &bundle.options[0];
        let vars = MapEnv::new();
        let ff = Matcher::new(Strategy::FirstFit).match_option(&c, opt, &vars).unwrap();
        assert_eq!(ff.nodes[0].node, "big"); // name order
        let bf = Matcher::new(Strategy::BestFit).match_option(&c, opt, &vars).unwrap();
        assert_eq!(bf.nodes[0].node, "small");
        let wf = Matcher::new(Strategy::WorstFit).match_option(&c, opt, &vars).unwrap();
        assert_eq!(wf.nodes[0].node, "big");
    }

    #[test]
    fn os_constraint_filters() {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("aixbox", 1.0, 256.0).with_os("aix")).unwrap();
        let bundle =
            parse_bundle_script("harmonyBundle a b { {o {node w {os linux} {seconds 1}}} }")
                .unwrap();
        let err =
            Matcher::default().match_option(&c, &bundle.options[0], &MapEnv::new()).unwrap_err();
        assert!(matches!(err, ResourceError::NoMatch { .. }));
    }

    #[test]
    fn speed_constraint_filters() {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("slow", 0.5, 256.0)).unwrap();
        c.add_node(NodeDecl::new("fast", 2.0, 256.0)).unwrap();
        let bundle =
            parse_bundle_script("harmonyBundle a b { {o {node w {speed >=1.0} {seconds 1}}} }")
                .unwrap();
        let alloc =
            Matcher::default().match_option(&c, &bundle.options[0], &MapEnv::new()).unwrap();
        assert_eq!(alloc.nodes[0].node, "fast");
    }

    #[test]
    fn insufficient_link_bandwidth_fails() {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("a", 1.0, 256.0)).unwrap();
        c.add_node(NodeDecl::new("b", 1.0, 256.0)).unwrap();
        c.add_link(LinkDecl::new("a", "b", 1.0)).unwrap();
        let bundle = parse_bundle_script(
            "harmonyBundle x y { {o {node m {seconds 1}} {node n {seconds 1}} {link m n 10}} }",
        )
        .unwrap();
        let err =
            Matcher::default().match_option(&c, &bundle.options[0], &MapEnv::new()).unwrap_err();
        match err {
            ResourceError::NoMatch { reason } => assert!(reason.contains("Mbps"), "{reason}"),
            other => panic!("expected NoMatch, got {other:?}"),
        }
    }

    #[test]
    fn matcher_does_not_mutate_cluster() {
        let cluster = sp2(8);
        let bundle = parse_bundle_script(FIG2A_SIMPLE).unwrap();
        let before = cluster.total_free_memory();
        let _ = Matcher::default().match_option(&cluster, &bundle.options[0], &MapEnv::new());
        assert_eq!(cluster.total_free_memory(), before);
    }

    #[test]
    fn committed_match_never_overcommits_memory() {
        let mut cluster = sp2(4);
        let bundle = parse_bundle_script(FIG2A_SIMPLE).unwrap();
        let mut allocs = Vec::new();
        // Commit matches until the matcher refuses; free memory must stay
        // non-negative throughout.
        while let Ok(a) =
            Matcher::default().match_option(&cluster, &bundle.options[0], &MapEnv::new())
        {
            cluster.commit(&a).unwrap();
            allocs.push(a);
            for n in cluster.nodes() {
                assert!(n.free_memory >= 0.0);
            }
            assert!(allocs.len() <= 64, "matcher should eventually refuse");
        }
        assert_eq!(allocs.len(), 8); // 256 MB / 32 MB per node
    }

    /// Holds `sites` to what `alloc` binds on `cluster`: each node position
    /// names its binding's node, and each link position the cluster link
    /// between its binding's ends (none within one node). Committing at
    /// the positions does what committing by name does, and restoring at
    /// them gives back the cluster field for field.
    fn assert_sites_name_the_bindings(cluster: &Cluster, alloc: &Allocation, sites: Sites<'_>) {
        assert_eq!(sites.nodes.len(), alloc.nodes.len());
        for (n, &i) in alloc.nodes.iter().zip(sites.nodes) {
            assert_eq!(cluster.node_slice()[i].decl.name, n.node);
        }
        assert_eq!(sites.links.len(), alloc.links.len());
        for (l, &at) in alloc.links.iter().zip(sites.links) {
            match at {
                None => assert_eq!(l.a, l.b),
                Some(i) => {
                    let named = cluster.link(&l.a, &l.b).expect("a bound link is published");
                    assert!(std::ptr::eq(&cluster.link_slice()[i], named), "{l:?}");
                }
            }
        }
        let mut by_name = cluster.clone();
        by_name.commit(alloc).unwrap();
        let mut at = cluster.clone();
        let mut saved = crate::SavedCounters::default();
        at.save_at(alloc, sites, &mut saved);
        at.commit_at(alloc, sites).unwrap();
        assert_eq!(at, by_name);
        at.restore_at(alloc, sites, &saved);
        assert_eq!(&at, cluster);
    }

    /// Every position a match hands out names the node or link it bound,
    /// under all three strategies, for a dedicated requirement, a bag at
    /// every `workerNodes`, and both options of Figure 3 with their links,
    /// on loaded SP-2s of 2 to 12 nodes.
    #[test]
    fn a_matchs_positions_name_its_bindings() {
        const DEDICATED: &str = "harmonyBundle ded:1 b { {o {variable w {1 2 3}} \
           {node n {replicate w} {dedicated 1} {seconds {90 / w}} {memory 16}}} }";
        let fig3 = FIG3_DBCLIENT.replace("harmony.cs.umd.edu", "node01.sp2");
        let bundles =
            [FIG2B_BAG, &fig3, DEDICATED, FIG2A_SIMPLE].map(|s| parse_bundle_script(s).unwrap());
        let (mut out, mut scratch) = (Allocation::default(), MatchScratch::default());
        let mut checked = [0; 4];
        for n in 2..=12 {
            let mut cluster = sp2(n);
            // Load: a two-worker bag, and a dedicated node where there is
            // room for one, so the strategies and the dedicated filter
            // disagree with first fit.
            let mut vars = MapEnv::new();
            vars.set("workerNodes", Value::Int(2));
            let bag = Matcher::new(Strategy::WorstFit)
                .match_option(&cluster, &bundles[0].options[0], &vars)
                .unwrap();
            cluster.commit(&bag).unwrap();
            if n > 3 {
                let ded = Matcher::new(Strategy::BestFit)
                    .match_vars(&cluster, &bundles[2].options[0], &[("w".into(), 1)])
                    .unwrap();
                cluster.commit(&ded).unwrap();
            }
            for (b, bundle) in bundles.iter().enumerate() {
                for opt in &bundle.options {
                    for vars in assignments(opt) {
                        let compiled = Compiled::new(opt, &VarsEnv(&vars));
                        for strategy in [Strategy::FirstFit, Strategy::BestFit, Strategy::WorstFit]
                        {
                            let matcher = Matcher::new(strategy).with_elastic_extra(7.0);
                            let (c, s) = (&compiled, &mut scratch);
                            let found = matcher.match_into(&cluster, opt, c, &vars, &mut out, s);
                            if found.unwrap().is_ok() {
                                assert_sites_name_the_bindings(&cluster, &out, scratch.sites());
                                checked[b] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked.iter().all(|&c| c >= 20), "every bundle should match often: {checked:?}");
    }

    /// Holds `need`, `req` compiled in `vars`, to `req`'s tags evaluated in
    /// `vars` per use, as the matcher once evaluated them in every match:
    /// each amount and flag, and each filter against node attributes.
    fn held_to_the_tags(req: &NodeReq, need: &Needs, vars: &impl Env, what: &str) {
        assert_eq!(need.count, req.count.resolve(vars), "{what}: count");
        let dedicated = req.tag("dedicated").map(|t| t.accepts(&Value::Int(1), vars));
        assert_eq!(need.dedicated, dedicated.unwrap_or(Ok(false)), "{what}: dedicated");
        assert_eq!(need.memory, min_memory(req, vars), "{what}: memory");
        let elastic = req.memory().is_some_and(TagValue::is_elastic);
        assert_eq!(need.elastic, elastic, "{what}: elastic");
        assert_eq!(need.seconds, req.seconds().map(|t| t.amount(vars)), "{what}: seconds");
        // Hostnames and operating systems a node may carry: the SP-2's, and
        // numeric-looking ones `loose_eq` compares as numbers.
        const WORDS: [&str; 10] =
            ["node00.sp2", "node01.sp2", "linux", "aix", "100", "1e2", "100.0", "", "a b", "inf"];
        for (tag, compiled) in [("hostname", &need.hostname), ("os", &need.os)] {
            let Some(t) = req.tag(tag) else {
                assert!(compiled.is_none(), "{what}: {tag}");
                continue;
            };
            for word in WORDS {
                let accepts = t.accepts(&Value::Str(word.into()), vars);
                let reduced = compiled.as_ref().unwrap().clone().and_then(|a| a.word(word));
                assert_eq!(reduced, accepts, "{what}: {tag} against {word:?}");
            }
        }
        let Some(t) = req.tag("speed") else { return assert!(need.speed.is_none()) };
        for speed in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let accepts = t.accepts(&Value::Float(speed), vars);
            let reduced = need.speed.clone().unwrap().map(|a| a.number(speed));
            assert_eq!(reduced, accepts, "{what}: speed against {speed}");
        }
    }

    /// Compiling an option under its bindings gives what its tags evaluate
    /// to there: every listing's options over their variable grids, and
    /// requirements with numeric-looking hostnames (`"100"` against
    /// `"1e2"`), `os`, `speed` and `dedicated` expressions, and tags that
    /// fail to evaluate.
    #[test]
    fn compiled_requirements_equal_the_tags() {
        const SHAPES: [&str; 4] = [
            "harmonyBundle num:1 b { {o {variable w {1 2 4}} \
               {node n {hostname 100} {os {w > 1 ? 1e2 : 100}} {seconds {40 / w}}} \
               {node m {replicate w} {hostname {100 * w}} {speed {w / 2}} {memory <=64}}} }",
            "harmonyBundle ded:1 b { {o {variable w {0 1 2}} \
               {node n {dedicated {w}} {speed {w}} {os {w > 0 ? linux : aix}} {memory >=16}} \
               {node k {replicate w} {speed *} {hostname *} {memory *}}} }",
            "harmonyBundle bad:1 b { {o {variable w {1 2}} \
               {node n {seconds {10 / missing}} {hostname {h}} {os {1 / (w - 1)}}} \
               {node k {replicate z} {dedicated {y}} {memory {w - nowhere}}}} }",
            "harmonyBundle spd:1 b { {o {node n {speed <=1} {os aix}} {node m {speed 2.0}}} }",
        ];
        let fig3 = FIG3_DBCLIENT.replace("harmony.cs.umd.edu", "node00.sp2");
        let listings = [FIG2A_SIMPLE, FIG2B_BAG, FIG3_DBCLIENT, &fig3];
        let mut checked = 0;
        for script in listings.iter().chain(&SHAPES) {
            let bundle = parse_bundle_script(script).unwrap();
            for opt in &bundle.options {
                for vars in assignments(opt) {
                    let compiled = Compiled::new(opt, &VarsEnv(&vars));
                    let map: MapEnv =
                        vars.iter().map(|(k, v)| (k.clone(), Value::Int(*v))).collect();
                    assert_eq!(Compiled::new(opt, &map), compiled, "{vars:?}");
                    for (req, need) in opt.nodes.iter().zip(&compiled.nodes) {
                        let what = format!("{}.{} {vars:?}", opt.name, req.name);
                        held_to_the_tags(req, need, &VarsEnv(&vars), &what);
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 30, "every shape should be checked, checked {checked}");
    }

    /// A tag that fails to evaluate fails the match where the match reaches
    /// it: a requirement no node satisfies is a miss whatever its `seconds`
    /// tag says, and the same requirement on a node that fits raises the
    /// error; a filter fails once a node gets past the exclusivity check.
    #[test]
    fn an_evaluation_error_is_raised_where_the_match_reaches_it() {
        let cluster = sp2(4);
        let opt = |script: &str| parse_bundle_script(script).unwrap().options.remove(0);
        let (mut out, mut scratch) = (Allocation::default(), MatchScratch::default());
        let mut matched = |opt: &OptionSpec| {
            let compiled = Compiled::new(opt, &VarsEnv(&[]));
            let (c, s) = (&compiled, &mut scratch);
            let found = Matcher::default().match_into(&cluster, opt, c, &[], &mut out, s);
            // The public entries compile and match alike.
            let public = Matcher::default().match_vars(&cluster, opt, &[]);
            match &found {
                Ok(Err(_)) => assert!(matches!(public, Err(ResourceError::NoMatch { .. }))),
                Ok(Ok(())) => assert!(public.is_ok()),
                Err(e) => assert_eq!(public.as_ref(), Err(e)),
            }
            found
        };
        let huge =
            opt("harmonyBundle a:1 b { {o {node n {seconds {10 / missing}} {memory 9999}}} }");
        assert!(matches!(matched(&huge), Ok(Err(Miss::Node { req: 0, index: 0, .. }))));
        let fits = opt("harmonyBundle a:1 b { {o {node n {seconds {10 / missing}} {memory 1}}} }");
        assert!(matches!(matched(&fits), Err(ResourceError::Rsl(_))));
        let filter = opt("harmonyBundle a:1 b { {o {node n {hostname {missing}} {memory 1}}} }");
        assert!(matches!(matched(&filter), Err(ResourceError::Rsl(_))));
        // A hostname `>=` constraint against words that are no numbers fails
        // at the first node it reads.
        let numeric = opt("harmonyBundle a:1 b { {o {node n {hostname >=3}}} }");
        assert!(matches!(matched(&numeric), Err(ResourceError::Rsl(_))));
    }

    /// The environment an allocation induced when it was built eagerly, a
    /// map filled variables first: the reference [`Allocation::env`] is
    /// held to.
    fn reference_env(a: &Allocation) -> MapEnv {
        let mut env = MapEnv::new();
        for (name, v) in &a.variables {
            env.set(name.clone(), Value::Int(*v));
        }
        let mut seen: Vec<&str> = Vec::new();
        for n in &a.nodes {
            if seen.contains(&n.req.as_str()) {
                continue;
            }
            seen.push(&n.req);
            env.set(format!("{}.memory", n.req), Value::Float(n.memory));
            env.set(format!("{}.seconds", n.req), Value::Float(n.seconds));
            env.set(format!("{}.node", n.req), Value::Str(n.node.clone()));
            env.set(format!("{}.count", n.req), Value::Int(a.bindings(&n.req).len() as i64));
        }
        env
    }

    /// Every assignment of `opt`'s variables, each sorted by name.
    fn assignments(opt: &OptionSpec) -> Vec<Vec<(String, i64)>> {
        let mut out = vec![Vec::new()];
        for var in &opt.variables {
            let mut next = Vec::new();
            for a in &out {
                for &choice in &var.choices {
                    let mut a = a.clone();
                    a.push((var.name.clone(), choice));
                    a.sort();
                    next.push(a);
                }
            }
            out = next;
        }
        out
    }

    /// Every name the reference maps bind, and names they do not, look up
    /// alike in the views — the allocation's and the candidate bindings' —
    /// and the three matcher entries agree, for every allocation the paper's
    /// listings match on SP-2s of 1 to 16 nodes.
    #[test]
    fn the_views_look_up_what_the_reference_maps_bind() {
        const ABSENT: [&str; 6] =
            ["ghost.memory", "worker.bogus", "unbound", "client.speed", ".count", "memory"];
        let fig3 = FIG3_DBCLIENT.replace("harmony.cs.umd.edu", "node00.sp2");
        let bundles = [FIG2A_SIMPLE, FIG2B_BAG, &fig3].map(|s| parse_bundle_script(s).unwrap());
        let mut matched = 0;
        let (mut out, mut scratch) = (Allocation::default(), MatchScratch::default());
        for n in 1..=16 {
            let cluster = sp2(n);
            for opt in bundles.iter().flat_map(|b| &b.options) {
                for vars in assignments(opt) {
                    let map: MapEnv =
                        vars.iter().map(|(k, v)| (k.clone(), Value::Int(*v))).collect();
                    for name in vars.iter().map(|(k, _)| k.as_str()).chain(ABSENT) {
                        assert_eq!(VarsEnv(&vars).lookup(name), map.lookup(name), "{name}");
                    }
                    for extra in [0.0, 7.0, 15.0, 30.0] {
                        let matcher = Matcher::default().with_elastic_extra(extra);
                        let alloc = matcher.match_vars(&cluster, opt, &vars);
                        assert_eq!(alloc, matcher.match_option(&cluster, opt, &map));
                        // Matching into buffers every earlier match wrote
                        // (larger, smaller, missed) binds the same.
                        let compiled = Compiled::new(opt, &VarsEnv(&vars));
                        let (c, s) = (&compiled, &mut scratch);
                        let found = matcher.match_into(&cluster, opt, c, &vars, &mut out, s);
                        assert_eq!(found.unwrap().is_ok(), alloc.is_ok());
                        let Ok(alloc) = alloc else { continue };
                        assert_eq!(out, alloc);
                        matched += 1;
                        let reference = reference_env(&alloc);
                        for name in reference.iter().map(|(k, _)| k).chain(ABSENT) {
                            let what = format!("{name} of {} on {n} nodes", opt.name);
                            assert_eq!(alloc.env().lookup(name), reference.lookup(name), "{what}");
                        }
                    }
                }
            }
        }
        assert!(matched > 200, "the listings should match on most clusters, matched {matched}");
    }
}
