//! Allocations: the concrete resources Harmony grants to one option of one
//! application instance.
//!
//! An [`Allocation`] names which cluster nodes were bound to each node
//! requirement (with per-replica indexes), how much memory each binding
//! reserved, and which links carry the option's bandwidth. Committing an
//! allocation decrements the cluster's free counters; releasing restores
//! them.

use std::ops::Range;

use harmony_rsl::expr::Env;
use harmony_rsl::Value;
use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::error::ResourceError;

/// One node requirement instance bound to a concrete cluster node.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AllocatedNode {
    /// Local requirement name from the option (`server`, `client`,
    /// `worker`).
    pub req: String,
    /// Replica index (0-based) for replicated requirements.
    pub index: u32,
    /// The cluster node that was bound.
    pub node: String,
    /// Megabytes reserved on that node.
    pub memory: f64,
    /// Reference-machine CPU seconds this binding will consume over the
    /// job's life.
    pub seconds: f64,
    /// True when the binding holds the node exclusively (the requirement
    /// carried a `dedicated` tag): no other allocation may share the node.
    #[serde(default)]
    pub exclusive: bool,
}

/// A link binding between two allocated nodes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AllocatedLink {
    /// First endpoint (cluster node name).
    pub a: String,
    /// Second endpoint (cluster node name).
    pub b: String,
    /// Mbit/s reserved.
    pub bandwidth: f64,
}

/// The set of concrete resources granted to one option choice.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Allocation {
    /// Node bindings in requirement order (replicas consecutive).
    pub nodes: Vec<AllocatedNode>,
    /// Link bindings.
    pub links: Vec<AllocatedLink>,
    /// Variable bindings the match was computed under (e.g.
    /// `workerNodes = 4`).
    pub variables: Vec<(String, i64)>,
}

impl Allocation {
    /// All bindings for a given requirement name.
    pub fn bindings(&self, req: &str) -> Vec<&AllocatedNode> {
        self.nodes.iter().filter(|n| n.req == req).collect()
    }

    /// The first binding for a requirement name.
    pub fn binding(&self, req: &str) -> Option<&AllocatedNode> {
        self.nodes.iter().find(|n| n.req == req)
    }

    /// Total memory reserved across all bindings (MB).
    pub fn total_memory(&self) -> f64 {
        self.nodes.iter().map(|n| n.memory).sum()
    }

    /// Total reference-machine CPU seconds across all bindings.
    pub fn total_seconds(&self) -> f64 {
        self.nodes.iter().map(|n| n.seconds).sum()
    }

    /// Total bandwidth reserved across all links (Mbit/s).
    pub fn total_bandwidth(&self) -> f64 {
        self.links.iter().map(|l| l.bandwidth).sum()
    }

    /// Number of distinct cluster nodes used.
    pub fn distinct_nodes(&self) -> usize {
        let mut names: Vec<&str> = self.nodes.iter().map(|n| n.node.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// The evaluation environment this allocation induces: the option's
    /// variables plus, for each requirement's first binding,
    /// `<req>.memory`, `<req>.seconds`, `<req>.node`, and `<req>.count`.
    ///
    /// This is the environment in which parameterized tags like Figure 3's
    /// `{44 + (client.memory > 24 ? 24 : client.memory) - 17}` are
    /// evaluated after matching. It is a view: a name is resolved when it
    /// is looked up, and nothing is built.
    pub fn env(&self) -> AllocEnv<'_> {
        AllocEnv(self)
    }
}

/// The environment an [`Allocation`] induces ([`Allocation::env`]).
#[derive(Debug, Clone, Copy)]
pub struct AllocEnv<'a>(&'a Allocation);

impl Env for AllocEnv<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        let alloc = self.0;
        // A requirement's names shadow a variable of the same name.
        let bound = name.rsplit_once('.').and_then(|(req, attr)| {
            let first = alloc.binding(req)?;
            Some(match attr {
                "memory" => Value::Float(first.memory),
                "seconds" => Value::Float(first.seconds),
                "node" => Value::Str(first.node.clone()),
                "count" => Value::Int(alloc.nodes.iter().filter(|n| n.req == req).count() as i64),
                _ => return None,
            })
        });
        bound.or_else(|| VarsEnv(&alloc.variables).lookup(name))
    }
}

/// Integer variable bindings as an environment: a view of a `(name, value)`
/// list such as [`Allocation::variables`] or a candidate's bindings.
#[derive(Debug, Clone, Copy)]
pub struct VarsEnv<'a>(pub &'a [(String, i64)]);

impl Env for VarsEnv<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        // The last binding of a name wins, as in a map filled in order.
        self.0.iter().rev().find(|(k, _)| k == name).map(|&(_, v)| Value::Int(v))
    }
}

/// Where one allocation's bindings sit in the cluster value it was matched
/// against ([`MatchScratch::sites`](crate::MatchScratch::sites)): per node
/// binding, the node's index in [`Cluster::node_slice`]; per link binding,
/// the link's index in [`Cluster::link_slice`], or `None` for traffic
/// within one node. They hold while that cluster's node and link sets stay
/// as they were, so they belong to the scan that matched them and are
/// stored nowhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sites<'a> {
    /// One position per node binding.
    pub nodes: &'a [usize],
    /// One position per link binding; `None` within one node.
    pub links: &'a [Option<usize>],
}

/// [`Sites`] of several allocations in one cluster, one allocation after
/// another: a caller that places allocations as a stack — the planner's
/// walk — keeps their positions as one.
#[derive(Debug, Clone, Default)]
pub struct SiteStack {
    nodes: Vec<usize>,
    links: Vec<Option<usize>>,
}

/// Where one allocation's positions are in a [`SiteStack`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteSpan {
    nodes: Range<usize>,
    links: Range<usize>,
}

impl SiteStack {
    /// An empty stack with room for `nodes` node and `links` link
    /// positions.
    pub fn with_capacity(nodes: usize, links: usize) -> Self {
        SiteStack { nodes: Vec::with_capacity(nodes), links: Vec::with_capacity(links) }
    }

    /// Empties the stack, keeping its room.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.links.clear();
    }

    /// The positions `span` holds.
    pub fn get(&self, span: &SiteSpan) -> Sites<'_> {
        Sites { nodes: &self.nodes[span.nodes.clone()], links: &self.links[span.links.clone()] }
    }

    /// Pushes `sites`.
    pub fn push(&mut self, sites: Sites<'_>) -> SiteSpan {
        let from = self.top();
        self.nodes.extend_from_slice(sites.nodes);
        self.links.extend_from_slice(sites.links);
        self.span_from(from)
    }

    /// Pushes where `alloc`'s bindings are in `cluster`, found by name,
    /// skipping those that are not published; true when none was skipped.
    pub fn push_found(&mut self, cluster: &Cluster, alloc: &Allocation) -> (SiteSpan, bool) {
        let from = self.top();
        self.nodes.extend(alloc.nodes.iter().filter_map(|n| cluster.node_index(&n.node)));
        self.links.extend(alloc.links.iter().filter_map(|l| cluster.carrier(&l.a, &l.b)));
        let span = self.span_from(from);
        let whole = span.nodes.len() == alloc.nodes.len() && span.links.len() == alloc.links.len();
        (span, whole)
    }

    /// Pops `span` and everything pushed after it.
    pub fn pop(&mut self, span: &SiteSpan) {
        self.nodes.truncate(span.nodes.start);
        self.links.truncate(span.links.start);
    }

    fn top(&self) -> (usize, usize) {
        (self.nodes.len(), self.links.len())
    }

    fn span_from(&self, (nodes, links): (usize, usize)) -> SiteSpan {
        SiteSpan { nodes: nodes..self.nodes.len(), links: links..self.links.len() }
    }
}

/// How a counter operation finds an allocation's bindings in a cluster:
/// at the positions a match handed out, or by name.
trait Locate {
    /// The position of node binding `b`; `None` when its node is not
    /// published.
    fn node(&self, cluster: &Cluster, alloc: &Allocation, b: usize) -> Option<usize>;
    /// Where link binding `l` is charged, as [`Cluster::carrier`] answers.
    fn link(&self, cluster: &Cluster, alloc: &Allocation, l: usize) -> Option<Option<usize>>;
}

impl Locate for Sites<'_> {
    fn node(&self, _: &Cluster, _: &Allocation, b: usize) -> Option<usize> {
        Some(self.nodes[b])
    }

    fn link(&self, _: &Cluster, _: &Allocation, l: usize) -> Option<Option<usize>> {
        Some(self.links[l])
    }
}

/// Bindings found by the names they carry.
struct ByName;

impl Locate for ByName {
    fn node(&self, cluster: &Cluster, alloc: &Allocation, b: usize) -> Option<usize> {
        cluster.node_index(&alloc.nodes[b].node)
    }

    fn link(&self, cluster: &Cluster, alloc: &Allocation, l: usize) -> Option<Option<usize>> {
        let link = &alloc.links[l];
        cluster.carrier(&link.a, &link.b)
    }
}

/// The name a binding that does not resolve is reported by.
fn missing_link(link: &AllocatedLink) -> String {
    format!("link {}-{}", link.a, link.b)
}

impl Cluster {
    /// Commits an allocation: reserves memory and bandwidth, and registers
    /// one task per node binding.
    ///
    /// # Errors
    ///
    /// [`ResourceError::UnknownNode`] when a binding references an
    /// unpublished node or link. On error the cluster is left unchanged.
    pub fn commit(&mut self, alloc: &Allocation) -> Result<(), ResourceError> {
        self.commit_by(alloc, &ByName)
    }

    /// [`Cluster::commit`] at the positions the match of `alloc` on this
    /// cluster handed out: no binding is looked up by name.
    ///
    /// # Errors
    ///
    /// As [`Cluster::commit`]; positions from a match always resolve.
    pub fn commit_at(&mut self, alloc: &Allocation, at: Sites<'_>) -> Result<(), ResourceError> {
        self.commit_by(alloc, &at)
    }

    /// The one body of [`Cluster::commit`] and [`Cluster::commit_at`].
    fn commit_by(&mut self, alloc: &Allocation, at: &impl Locate) -> Result<(), ResourceError> {
        // Validate first so failure cannot leave partial state.
        for (b, n) in alloc.nodes.iter().enumerate() {
            if at.node(self, alloc, b).is_none() {
                return Err(ResourceError::UnknownNode { name: n.node.clone() });
            }
        }
        for (l, link) in alloc.links.iter().enumerate() {
            if at.link(self, alloc, l).is_none() {
                return Err(ResourceError::UnknownNode { name: missing_link(link) });
            }
        }
        for (b, n) in alloc.nodes.iter().enumerate() {
            let i = at.node(self, alloc, b).expect("validated above");
            let state = &mut self.node_slice_mut()[i];
            state.free_memory -= n.memory;
            state.tasks += 1;
            state.assigned_seconds += n.seconds;
            if n.exclusive {
                state.exclusive += 1;
            }
        }
        for (l, link) in alloc.links.iter().enumerate() {
            // Traffic within one node is free.
            if let Some(Some(i)) = at.link(self, alloc, l) {
                self.link_slice_mut()[i].free_bandwidth -= link.bandwidth;
            }
        }
        Ok(())
    }

    /// Releases a previously committed allocation, restoring capacity.
    ///
    /// # Errors
    ///
    /// [`ResourceError::UnknownNode`] when a binding references a node that
    /// has since been removed (capacity for the remaining bindings is still
    /// restored in that case — the error reports the first missing node).
    pub fn release(&mut self, alloc: &Allocation) -> Result<(), ResourceError> {
        let mut first_missing: Option<String> = None;
        for n in &alloc.nodes {
            match self.node_index(&n.node) {
                Some(i) => {
                    let state = &mut self.node_slice_mut()[i];
                    state.free_memory += n.memory;
                    state.tasks = state.tasks.saturating_sub(1);
                    state.assigned_seconds = (state.assigned_seconds - n.seconds).max(0.0);
                    if n.exclusive {
                        state.exclusive = state.exclusive.saturating_sub(1);
                    }
                }
                None => {
                    first_missing.get_or_insert_with(|| n.node.clone());
                }
            }
        }
        for link in &alloc.links {
            match self.carrier(&link.a, &link.b) {
                Some(Some(i)) => self.link_slice_mut()[i].free_bandwidth += link.bandwidth,
                Some(None) => {}
                None => {
                    first_missing.get_or_insert_with(|| missing_link(link));
                }
            }
        }
        match first_missing {
            Some(name) => Err(ResourceError::UnknownNode { name }),
            None => Ok(()),
        }
    }
}

/// What [`Cluster::save`] read: the counters of the nodes and links one
/// allocation names, in the allocation's order.
#[derive(Debug, Clone, Default)]
pub struct SavedCounters {
    /// `(free_memory, tasks, assigned_seconds, exclusive)` per binding.
    nodes: Vec<(f64, u32, f64, u32)>,
    /// `free_bandwidth` per link binding.
    links: Vec<f64>,
}

impl Cluster {
    /// Reads the counters a `commit` or `release` of `alloc` would change,
    /// for [`Cluster::restore`] to put back: the saved values are exact
    /// where the arithmetic inverse (`x - m + m`) need not be. Bindings
    /// naming unpublished nodes or links are skipped.
    pub fn save(&self, alloc: &Allocation) -> SavedCounters {
        let mut saved = SavedCounters::default();
        self.save_into(alloc, &mut saved);
        saved
    }

    /// [`Cluster::save`] into `saved`, reusing its buffers.
    pub fn save_into(&self, alloc: &Allocation, saved: &mut SavedCounters) {
        self.save_by(alloc, &ByName, saved);
    }

    /// [`Cluster::save_into`] at the positions the match of `alloc` on this
    /// cluster handed out.
    pub fn save_at(&self, alloc: &Allocation, at: Sites<'_>, saved: &mut SavedCounters) {
        self.save_by(alloc, &at, saved);
    }

    /// The one body of [`Cluster::save_into`] and [`Cluster::save_at`].
    fn save_by(&self, alloc: &Allocation, at: &impl Locate, saved: &mut SavedCounters) {
        let nodes = (0..alloc.nodes.len()).filter_map(|b| at.node(self, alloc, b));
        let links = (0..alloc.links.len()).filter_map(|l| at.link(self, alloc, l).flatten());
        saved.nodes.clear();
        saved.nodes.extend(nodes.map(|i| {
            let s = &self.node_slice()[i];
            (s.free_memory, s.tasks, s.assigned_seconds, s.exclusive)
        }));
        saved.links.clear();
        saved.links.extend(links.map(|i| self.link_slice()[i].free_bandwidth));
    }

    /// Puts back what [`Cluster::save`] read for the same `alloc`; the
    /// node and link sets must not have changed in between.
    pub fn restore(&mut self, alloc: &Allocation, saved: &SavedCounters) {
        self.restore_by(alloc, &ByName, saved);
    }

    /// [`Cluster::restore`] of what [`Cluster::save_at`] read, at the same
    /// positions.
    pub fn restore_at(&mut self, alloc: &Allocation, at: Sites<'_>, saved: &SavedCounters) {
        self.restore_by(alloc, &at, saved);
    }

    /// The one body of [`Cluster::restore`] and [`Cluster::restore_at`].
    fn restore_by(&mut self, alloc: &Allocation, at: &impl Locate, saved: &SavedCounters) {
        let mut nodes = saved.nodes.iter();
        for b in 0..alloc.nodes.len() {
            if let Some(i) = at.node(self, alloc, b) {
                let state = &mut self.node_slice_mut()[i];
                (state.free_memory, state.tasks, state.assigned_seconds, state.exclusive) =
                    *nodes.next().expect("saved from the same allocation");
            }
        }
        let mut links = saved.links.iter();
        for l in 0..alloc.links.len() {
            if let Some(Some(i)) = at.link(self, alloc, l) {
                self.link_slice_mut()[i].free_bandwidth =
                    *links.next().expect("saved from the same allocation");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_rsl::expr::Env;
    use harmony_rsl::schema::{LinkDecl, NodeDecl};

    fn cluster() -> Cluster {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("a", 1.0, 256.0)).unwrap();
        c.add_node(NodeDecl::new("b", 1.0, 128.0)).unwrap();
        c.add_link(LinkDecl::new("a", "b", 320.0)).unwrap();
        c
    }

    fn alloc() -> Allocation {
        Allocation {
            nodes: vec![
                AllocatedNode {
                    req: "server".into(),
                    index: 0,
                    node: "a".into(),
                    memory: 20.0,
                    seconds: 42.0,
                    exclusive: false,
                },
                AllocatedNode {
                    req: "client".into(),
                    index: 0,
                    node: "b".into(),
                    memory: 2.0,
                    seconds: 1.0,
                    exclusive: false,
                },
            ],
            links: vec![AllocatedLink { a: "a".into(), b: "b".into(), bandwidth: 2.0 }],
            variables: vec![("workerNodes".into(), 4)],
        }
    }

    #[test]
    fn commit_and_release_round_trip() {
        let mut c = cluster();
        let a = alloc();
        c.commit(&a).unwrap();
        assert_eq!(c.node("a").unwrap().free_memory, 236.0);
        assert_eq!(c.node("a").unwrap().tasks, 1);
        assert_eq!(c.node("a").unwrap().assigned_seconds, 42.0);
        assert_eq!(c.node("b").unwrap().free_memory, 126.0);
        assert_eq!(c.link("a", "b").unwrap().free_bandwidth, 318.0);
        c.release(&a).unwrap();
        assert_eq!(c.node("a").unwrap().free_memory, 256.0);
        assert_eq!(c.node("a").unwrap().tasks, 0);
        assert_eq!(c.link("a", "b").unwrap().free_bandwidth, 320.0);
    }

    #[test]
    fn commit_unknown_node_leaves_cluster_unchanged() {
        let mut c = cluster();
        let mut a = alloc();
        a.nodes[1].node = "ghost".into();
        let before = format!("{c:?}");
        assert!(c.commit(&a).is_err());
        assert_eq!(format!("{c:?}"), before);
    }

    #[test]
    fn intra_node_links_are_free() {
        let mut c = cluster();
        let a = Allocation {
            nodes: vec![],
            links: vec![AllocatedLink { a: "a".into(), b: "a".into(), bandwidth: 99.0 }],
            variables: vec![],
        };
        c.commit(&a).unwrap();
        assert_eq!(c.link("a", "b").unwrap().free_bandwidth, 320.0);
        c.release(&a).unwrap();
    }

    #[test]
    fn release_survives_removed_node() {
        let mut c = cluster();
        let a = alloc();
        c.commit(&a).unwrap();
        c.remove_node("b");
        let err = c.release(&a).unwrap_err();
        assert!(matches!(err, ResourceError::UnknownNode { .. }));
        // Node `a` was still restored.
        assert_eq!(c.node("a").unwrap().free_memory, 256.0);
    }

    #[test]
    fn aggregate_accessors() {
        let a = alloc();
        assert_eq!(a.total_memory(), 22.0);
        assert_eq!(a.total_seconds(), 43.0);
        assert_eq!(a.total_bandwidth(), 2.0);
        assert_eq!(a.distinct_nodes(), 2);
        assert_eq!(a.binding("server").unwrap().node, "a");
        assert_eq!(a.bindings("client").len(), 1);
        assert!(a.binding("ghost").is_none());
    }

    #[test]
    fn env_exposes_paper_names() {
        let a = alloc();
        let env = a.env();
        assert_eq!(env.lookup("client.memory"), Some(Value::Float(2.0)));
        assert_eq!(env.lookup("server.seconds"), Some(Value::Float(42.0)));
        assert_eq!(env.lookup("server.node"), Some(Value::Str("a".into())));
        assert_eq!(env.lookup("client.count"), Some(Value::Int(1)));
        assert_eq!(env.lookup("workerNodes"), Some(Value::Int(4)));
        // The Figure 3 DS bandwidth expression evaluates in this env.
        let bw = harmony_rsl::expr::eval_str(
            "44 + (client.memory > 24 ? 24 : client.memory) - 17",
            &env,
        )
        .unwrap();
        assert_eq!(bw.as_f64().unwrap(), 29.0);
    }

    #[test]
    fn tasks_saturate_at_zero_on_double_release() {
        let mut c = cluster();
        let a = alloc();
        c.commit(&a).unwrap();
        c.release(&a).unwrap();
        // A second release is a misuse but must not underflow.
        let _ = c.release(&a);
        assert_eq!(c.node("a").unwrap().tasks, 0);
        assert!(c.node("a").unwrap().assigned_seconds >= 0.0);
    }

    /// An allocation with every kind of binding the counter operations
    /// treat apart: an exclusive node, a node bound twice, a link given in
    /// reverse and a self-link; and its positions in [`cluster`].
    fn mixed() -> (Allocation, [usize; 3], [Option<usize>; 2]) {
        let mut a = alloc();
        a.nodes[1].exclusive = true;
        a.nodes.push(AllocatedNode {
            node: "a".into(),
            memory: 3.0,
            seconds: 5.0,
            ..a.nodes[0].clone()
        });
        a.links = vec![
            AllocatedLink { a: "b".into(), b: "a".into(), bandwidth: 7.5 },
            AllocatedLink { a: "b".into(), b: "b".into(), bandwidth: 99.0 },
        ];
        (a, [0, 1, 0], [Some(0), None])
    }

    /// The name-keyed operations give what they always gave: exclusive and
    /// twice-bound nodes counted, a self-link free, and a release after
    /// the node left restoring the rest and naming the missing node.
    #[test]
    fn name_keyed_commit_and_release_keep_their_results() {
        let mut c = cluster();
        let (a, _, _) = mixed();
        c.commit(&a).unwrap();
        let (na, nb) = (c.node("a").unwrap(), c.node("b").unwrap());
        assert_eq!(
            (na.free_memory, na.tasks, na.assigned_seconds, na.exclusive),
            (233.0, 2, 47.0, 0)
        );
        assert_eq!(
            (nb.free_memory, nb.tasks, nb.assigned_seconds, nb.exclusive),
            (126.0, 1, 1.0, 1)
        );
        assert_eq!(c.link("a", "b").unwrap().free_bandwidth, 312.5);
        c.release(&a).unwrap();
        assert_eq!(c, cluster());
        c.commit(&a).unwrap();
        c.remove_node("b");
        let err = c.release(&a).unwrap_err();
        assert_eq!(err, ResourceError::UnknownNode { name: "b".into() });
        let na = c.node("a").unwrap();
        assert_eq!((na.free_memory, na.tasks, na.assigned_seconds), (256.0, 0, 0.0));
        // Committing against the shrunken cluster changes nothing.
        let before = c.clone();
        assert!(c.commit(&a).is_err());
        assert_eq!(c, before);
    }

    /// Committing at positions does what committing by name does, and a
    /// restore at them — after a commit or a release — gives back the
    /// cluster field for field.
    #[test]
    fn a_positional_commit_and_restore_leave_the_cluster_as_it_was() {
        let (a, nodes, links) = mixed();
        let at = Sites { nodes: &nodes, links: &links };
        let mut c = cluster();
        c.commit(&alloc()).unwrap();
        let original = c.clone();
        let mut by_name = c.clone();
        by_name.commit(&a).unwrap();
        let mut saved = SavedCounters::default();
        c.save_at(&a, at, &mut saved);
        c.commit_at(&a, at).unwrap();
        assert_eq!(c, by_name);
        c.restore_at(&a, at, &saved);
        assert_eq!(c, original);
        c.save_at(&a, at, &mut saved);
        c.release(&alloc()).unwrap();
        c.restore_at(&a, at, &saved);
        assert_eq!(c, original);
    }

    /// A stack hands back what was pushed, finds by name what a match
    /// would hand out, and says when a binding is not published.
    #[test]
    fn a_site_stack_keeps_positions_as_a_stack() {
        let c = cluster();
        let (a, nodes, links) = mixed();
        let mut stack = SiteStack::with_capacity(4, 2);
        let (found, whole) = stack.push_found(&c, &a);
        assert!(whole);
        assert_eq!(stack.get(&found), Sites { nodes: &nodes, links: &links });
        let pushed = stack.push(Sites { nodes: &[1], links: &[] });
        assert_eq!(stack.get(&pushed).nodes, [1]);
        stack.pop(&pushed);
        let mut gone = a.clone();
        gone.nodes[1].node = "ghost".into();
        gone.links[0].b = "ghost".into();
        let (partial, whole) = stack.push_found(&c, &gone);
        assert!(!whole);
        assert_eq!(stack.get(&partial), Sites { nodes: &[0, 0], links: &[None] });
        assert_eq!(stack.get(&found), Sites { nodes: &nodes, links: &links });
    }

    #[test]
    fn restore_is_exact_where_release_is_not() {
        let mut c = cluster();
        // 0.1 and 0.2 make `x - m + m` visibly inexact.
        let mut a = alloc();
        a.nodes[0].memory = 0.1;
        a.links[0].bandwidth = 0.2;
        let mut other = alloc();
        other.nodes[0].memory = 0.2;
        other.links.push(other.links[0].clone());
        c.commit(&other).unwrap();
        let before = c.clone();
        let saved = c.save(&a);
        c.commit(&a).unwrap();
        assert_ne!(c, before);
        c.restore(&a, &saved);
        assert_eq!(c, before);
        // A repeated link restores to what it held before the first entry.
        let saved = c.save(&other);
        c.release(&other).unwrap();
        c.restore(&other, &saved);
        assert_eq!(c, before);
    }
}
