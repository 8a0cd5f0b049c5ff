//! Cluster state: published nodes and links with capacity accounting.
//!
//! When Harmony starts it collects an initial estimate of each node's
//! capabilities (available memory, normalized computing capacity) and of
//! each link's bandwidth and latency (§4.1). As allocations are committed,
//! available resources are decreased; releasing an allocation restores
//! them.
//!
//! Nodes and links sit in vectors sorted by name and by ordered endpoint
//! pair, found by binary search, and each holds its declaration behind an
//! [`Arc`]: a clone — the planner takes one per scan — copies counters and
//! reference counts, two vectors in all, and no name.

use std::collections::BTreeMap;
use std::sync::Arc;

use harmony_rsl::schema::{LinkDecl, NodeDecl, Statement};
use serde::{Deserialize, Error, Reader, Serialize, Writer};

use crate::error::ResourceError;

/// Mutable per-node state: the declaration plus what is currently free.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// The published declaration (capacity), shared by every clone.
    pub decl: Arc<NodeDecl>,
    /// Megabytes not yet reserved.
    pub free_memory: f64,
    /// Number of tasks currently assigned to this node. Under the default
    /// processor-sharing contention model, `k` tasks each run at `1/k` of
    /// the node's speed.
    pub tasks: u32,
    /// Total reference-machine CPU seconds of work currently assigned
    /// (informational; used by fragmentation metrics and benches).
    pub assigned_seconds: f64,
    /// Number of committed *exclusive* (dedicated) bindings on this node.
    /// While positive, the matcher refuses to place anything else here.
    pub exclusive: u32,
}

impl NodeState {
    fn new(decl: NodeDecl) -> Self {
        NodeState {
            free_memory: decl.memory,
            decl: Arc::new(decl),
            tasks: 0,
            assigned_seconds: 0.0,
            exclusive: 0,
        }
    }

    /// Megabytes currently reserved.
    pub fn used_memory(&self) -> f64 {
        self.decl.memory - self.free_memory
    }

    /// Fraction of memory in use, in `[0, 1]`.
    pub fn memory_utilization(&self) -> f64 {
        if self.decl.memory <= 0.0 {
            0.0
        } else {
            self.used_memory() / self.decl.memory
        }
    }
}

/// Mutable per-link state.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkState {
    /// The published declaration (capacity), shared by every clone.
    pub decl: Arc<LinkDecl>,
    /// Mbit/s not yet reserved.
    pub free_bandwidth: f64,
}

impl LinkState {
    fn new(decl: LinkDecl) -> Self {
        LinkState { free_bandwidth: decl.bandwidth, decl: Arc::new(decl) }
    }

    /// Mbit/s currently reserved.
    pub fn used_bandwidth(&self) -> f64 {
        self.decl.bandwidth - self.free_bandwidth
    }

    /// The link's endpoints in order: the key it is stored and found by.
    fn key(&self) -> (&str, &str) {
        ordered(&self.decl.a, &self.decl.b)
    }
}

fn ordered<'a>(a: &'a str, b: &'a str) -> (&'a str, &'a str) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The cluster: all published nodes and links, with live capacity counters.
///
/// # Examples
///
/// ```
/// use harmony_resources::Cluster;
/// use harmony_rsl::schema::parse_statements;
///
/// let stmts = parse_statements(
///     "harmonyNode a {speed 1.0} {memory 256}\n\
///      harmonyNode b {speed 2.0} {memory 128}\n\
///      harmonyLink a b {bandwidth 320}",
/// )?;
/// let cluster = Cluster::from_statements(&stmts)?;
/// assert_eq!(cluster.len(), 2);
/// assert!(cluster.link("a", "b").is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default, PartialEq)]
pub struct Cluster {
    /// Sorted by name.
    nodes: Vec<NodeState>,
    /// Sorted by ordered endpoint pair ([`LinkState::key`]).
    links: Vec<LinkState>,
}

/// A clone shares every declaration. `clone_from` refreshes a clone in
/// place: it copies the counters into the vectors it has, and touches a
/// declaration's reference count only where the two clusters' differ — a
/// planner that keeps one scratch cluster allocates nothing to refresh it.
impl Clone for Cluster {
    fn clone(&self) -> Self {
        Cluster { nodes: self.nodes.clone(), links: self.links.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.nodes.clone_from(&source.nodes);
        self.links.clone_from(&source.links);
    }
}

impl Clone for NodeState {
    fn clone(&self) -> Self {
        NodeState { decl: Arc::clone(&self.decl), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        share(&mut self.decl, &source.decl);
        let NodeState { decl: _, free_memory, tasks, assigned_seconds, exclusive } = *source;
        (self.free_memory, self.tasks, self.assigned_seconds, self.exclusive) =
            (free_memory, tasks, assigned_seconds, exclusive);
    }
}

impl Clone for LinkState {
    fn clone(&self) -> Self {
        LinkState { decl: Arc::clone(&self.decl), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        share(&mut self.decl, &source.decl);
        self.free_bandwidth = source.free_bandwidth;
    }
}

/// Points `decl` at `source`'s declaration, unless it already does.
fn share<T>(decl: &mut Arc<T>, source: &Arc<T>) {
    if !Arc::ptr_eq(decl, source) {
        *decl = Arc::clone(source);
    }
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a cluster from parsed RSL statements, ignoring bundles.
    ///
    /// # Errors
    ///
    /// [`ResourceError::DuplicateNode`] on repeated node names and
    /// [`ResourceError::UnknownNode`] when a link references an undeclared
    /// node.
    pub fn from_statements(stmts: &[Statement]) -> Result<Self, ResourceError> {
        let mut cluster = Cluster::new();
        for s in stmts {
            match s {
                Statement::Node(decl) => cluster.add_node(decl.clone())?,
                Statement::Link(decl) => cluster.add_link(decl.clone())?,
                Statement::Bundle(_) => {}
            }
        }
        Ok(cluster)
    }

    /// Parses RSL text and builds a cluster from it.
    ///
    /// # Errors
    ///
    /// RSL parse errors (wrapped) plus the conditions of
    /// [`Cluster::from_statements`].
    pub fn from_rsl(src: &str) -> Result<Self, ResourceError> {
        let stmts = harmony_rsl::schema::parse_statements(src)
            .map_err(|e| ResourceError::Rsl(e.to_string()))?;
        Self::from_statements(&stmts)
    }

    /// Where node `name` is, or would be inserted.
    fn node_at(&self, name: &str) -> Result<usize, usize> {
        self.nodes.binary_search_by(|n| n.decl.name.as_str().cmp(name))
    }

    /// Where the link between `a` and `b` is, or would be inserted.
    fn link_at(&self, a: &str, b: &str) -> Result<usize, usize> {
        let key = ordered(a, b);
        self.links.binary_search_by(|l| l.key().cmp(&key))
    }

    /// Publishes a node.
    ///
    /// # Errors
    ///
    /// [`ResourceError::DuplicateNode`] when the name is already taken.
    pub fn add_node(&mut self, decl: NodeDecl) -> Result<(), ResourceError> {
        match self.node_at(&decl.name) {
            Ok(_) => Err(ResourceError::DuplicateNode { name: decl.name }),
            Err(at) => {
                self.nodes.insert(at, NodeState::new(decl));
                Ok(())
            }
        }
    }

    /// Publishes a link, replacing the declaration of any link between the
    /// same two nodes. A re-declared link keeps what is reserved on it: its
    /// free bandwidth is the new bandwidth less the reservation. Both
    /// endpoints must already be published.
    ///
    /// # Errors
    ///
    /// [`ResourceError::UnknownNode`] when an endpoint is missing, and
    /// [`ResourceError::AllocationState`] when a re-declaration offers less
    /// bandwidth than is reserved (the link is then left as it was).
    pub fn add_link(&mut self, decl: LinkDecl) -> Result<(), ResourceError> {
        for end in [&decl.a, &decl.b] {
            if self.node_at(end).is_err() {
                return Err(ResourceError::UnknownNode { name: end.clone() });
            }
        }
        match self.link_at(&decl.a, &decl.b) {
            Ok(at) => {
                let reserved = self.links[at].used_bandwidth();
                if decl.bandwidth < reserved {
                    let (a, b, bw) = (&decl.a, &decl.b, decl.bandwidth);
                    let message = format!(
                        "link {a}-{b} re-declared at {bw} Mbps below its {reserved} reserved"
                    );
                    return Err(ResourceError::AllocationState { message });
                }
                let mut state = LinkState::new(decl);
                state.free_bandwidth -= reserved;
                self.links[at] = state;
            }
            Err(at) => self.links.insert(at, LinkState::new(decl)),
        }
        Ok(())
    }

    /// Removes a node (e.g. it left the metacomputer). Links touching it
    /// are removed too. Returns the removed state.
    pub fn remove_node(&mut self, name: &str) -> Option<NodeState> {
        let state = self.nodes.remove(self.node_at(name).ok()?);
        self.links.retain(|l| l.decl.a != name && l.decl.b != name);
        Some(state)
    }

    /// Number of published nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are published.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node by name.
    pub fn node(&self, name: &str) -> Option<&NodeState> {
        self.node_index(name).map(|at| &self.nodes[at])
    }

    /// The position of node `name` in [`Cluster::node_slice`].
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.node_at(name).ok()
    }

    /// Looks up the link between two nodes (order-insensitive).
    pub fn link(&self, a: &str, b: &str) -> Option<&LinkState> {
        self.link_index(a, b).map(|at| &self.links[at])
    }

    /// The position of the link between `a` and `b` in
    /// [`Cluster::link_slice`].
    pub(crate) fn link_index(&self, a: &str, b: &str) -> Option<usize> {
        self.link_at(a, b).ok()
    }

    /// Where traffic between nodes `a` and `b` is charged: `Some(None)`
    /// within one node, which is free, `Some(Some(i))` on the link at
    /// position `i`, and `None` when no link joins them.
    pub fn carrier(&self, a: &str, b: &str) -> Option<Option<usize>> {
        if a == b {
            Some(None)
        } else {
            self.link_index(a, b).map(Some)
        }
    }

    /// Iterates over nodes in name order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeState> {
        self.nodes.iter()
    }

    /// The nodes in name order: a match's node positions index it.
    pub fn node_slice(&self) -> &[NodeState] {
        &self.nodes
    }

    /// The nodes, for the counter operations to write by position.
    pub(crate) fn node_slice_mut(&mut self) -> &mut [NodeState] {
        &mut self.nodes
    }

    /// Iterates over links in ordered-endpoint order.
    pub fn links(&self) -> impl Iterator<Item = &LinkState> {
        self.links.iter()
    }

    /// The links in ordered-endpoint order: a match's link positions index
    /// it.
    pub fn link_slice(&self) -> &[LinkState] {
        &self.links
    }

    /// The links, for the counter operations to write by position.
    pub(crate) fn link_slice_mut(&mut self) -> &mut [LinkState] {
        &mut self.links
    }

    /// Finds a node by its published hostname (falls back to node name).
    pub fn node_by_hostname(&self, hostname: &str) -> Option<&NodeState> {
        self.nodes.iter().find(|n| n.decl.hostname == hostname || n.decl.name == hostname)
    }

    /// Total free memory across all nodes (MB).
    pub fn total_free_memory(&self) -> f64 {
        self.nodes.iter().map(|n| n.free_memory).sum()
    }

    /// Total published memory across all nodes (MB).
    pub fn total_memory(&self) -> f64 {
        self.nodes.iter().map(|n| n.decl.memory).sum()
    }

    /// Total tasks assigned across all nodes.
    pub fn total_tasks(&self) -> u32 {
        self.nodes.iter().map(|n| n.tasks).sum()
    }
}

/// The image is the one a map-backed cluster wrote: `nodes` an object
/// keyed by name, `links` an array of `[[a, b], link]` pairs keyed by the
/// ordered endpoints (`{}` when there are none, as an empty map wrote).
impl Serialize for Cluster {
    fn serialize(&self, w: &mut Writer) {
        w.begin('{');
        w.key("nodes");
        w.map(self.nodes.iter().map(|n| (&n.decl.name, n)));
        w.key("links");
        if self.links.is_empty() {
            w.begin('{');
            w.end('}');
        } else {
            w.begin('[');
            self.links.iter().for_each(|l| w.item(&(l.key(), l)));
            w.end(']');
        }
        w.end('}');
    }
}

impl Deserialize for Cluster {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        #[derive(Deserialize)]
        struct Image {
            nodes: BTreeMap<String, NodeState>,
            links: BTreeMap<(String, String), LinkState>,
        }
        let image = Image::deserialize(r)?;
        // Keys are redundant with the declarations; one that disagrees would
        // leave a state its key cannot find.
        for (name, state) in &image.nodes {
            if *name != state.decl.name {
                return Err(r.err(format_args!("node key `{name}` holds `{}`", state.decl.name)));
            }
        }
        for ((a, b), state) in &image.links {
            if state.key() != (a.as_str(), b.as_str()) {
                let (x, y) = (&state.decl.a, &state.decl.b);
                return Err(r.err(format_args!("link key `{a}`-`{b}` holds `{x}`-`{y}`")));
            }
        }
        Ok(Cluster {
            nodes: image.nodes.into_values().collect(),
            links: image.links.into_values().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster3() -> Cluster {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("a", 1.0, 256.0)).unwrap();
        c.add_node(NodeDecl::new("b", 2.0, 128.0)).unwrap();
        c.add_node(NodeDecl::new("c", 0.5, 64.0)).unwrap();
        c.add_link(LinkDecl::new("a", "b", 320.0)).unwrap();
        c.add_link(LinkDecl::new("b", "c", 100.0)).unwrap();
        c
    }

    /// A clone refreshed in place equals a fresh clone — after the source's
    /// counters moved, after it lost a node and its links, after it gained
    /// some — and shares the source's declarations.
    #[test]
    fn clone_from_refreshes_a_clone_in_place() {
        let mut live = cluster3();
        let mut scratch = live.clone();
        let mut check = |live: &Cluster| {
            scratch.clone_from(live);
            assert_eq!(&scratch, live);
            for (a, b) in scratch.nodes().zip(live.nodes()) {
                assert!(Arc::ptr_eq(&a.decl, &b.decl), "{}", a.decl.name);
            }
            for (a, b) in scratch.links().zip(live.links()) {
                assert!(Arc::ptr_eq(&a.decl, &b.decl), "{:?}", a.key());
            }
        };
        let mut alloc = crate::Allocation::default();
        alloc.nodes.push(crate::AllocatedNode {
            node: "b".into(),
            memory: 10.0,
            seconds: 5.0,
            exclusive: true,
            ..Default::default()
        });
        alloc.links.push(crate::AllocatedLink { a: "a".into(), b: "b".into(), bandwidth: 7.0 });
        live.commit(&alloc).unwrap();
        check(&live);
        live.remove_node("b");
        check(&live);
        live.add_node(NodeDecl::new("b", 4.0, 512.0)).unwrap();
        live.add_node(NodeDecl::new("d", 1.0, 32.0)).unwrap();
        live.add_link(LinkDecl::new("c", "d", 50.0)).unwrap();
        check(&live);
    }

    #[test]
    fn add_and_query_nodes() {
        let c = cluster3();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.node("a").unwrap().decl.speed, 1.0);
        assert_eq!(c.node("b").unwrap().free_memory, 128.0);
        assert!(c.node("zz").is_none());
        assert_eq!(c.total_memory(), 448.0);
        assert_eq!(c.total_free_memory(), 448.0);
        assert_eq!(c.total_tasks(), 0);
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut c = cluster3();
        let err = c.add_node(NodeDecl::new("a", 1.0, 1.0)).unwrap_err();
        assert!(matches!(err, ResourceError::DuplicateNode { .. }));
    }

    #[test]
    fn link_requires_endpoints() {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("a", 1.0, 1.0)).unwrap();
        let err = c.add_link(LinkDecl::new("a", "ghost", 1.0)).unwrap_err();
        assert!(matches!(err, ResourceError::UnknownNode { .. }));
    }

    #[test]
    fn links_are_order_insensitive() {
        let c = cluster3();
        assert!(c.link("a", "b").is_some());
        assert!(c.link("b", "a").is_some());
        assert!(c.link("a", "c").is_none());
    }

    /// A re-declared link keeps its reservation, so releasing the
    /// allocation that made it gives back exactly what it took; one
    /// declared below what is reserved is refused and changes nothing.
    #[test]
    fn a_redeclared_link_keeps_its_reservation() {
        let mut c = cluster3();
        let alloc = crate::Allocation {
            links: vec![crate::AllocatedLink { a: "b".into(), b: "a".into(), bandwidth: 218.0 }],
            ..Default::default()
        };
        c.commit(&alloc).unwrap();
        c.add_link(LinkDecl::new("a", "b", 300.0)).unwrap();
        let link = c.link("a", "b").unwrap();
        assert_eq!((link.decl.bandwidth, link.free_bandwidth), (300.0, 82.0));
        let before = c.clone();
        let err = c.add_link(LinkDecl::new("b", "a", 200.0)).unwrap_err();
        assert!(matches!(err, ResourceError::AllocationState { .. }), "{err:?}");
        assert_eq!(c, before);
        c.release(&alloc).unwrap();
        assert_eq!(c.link("a", "b").unwrap().free_bandwidth, 300.0);
        // With nothing reserved, a re-declaration may shrink the link.
        c.add_link(LinkDecl::new("a", "b", 100.0)).unwrap();
        assert_eq!(c.link("a", "b").unwrap().free_bandwidth, 100.0);
    }

    #[test]
    fn remove_node_drops_links() {
        let mut c = cluster3();
        assert!(c.remove_node("b").is_some());
        assert!(c.link("a", "b").is_none());
        assert!(c.link("b", "c").is_none());
        assert_eq!(c.len(), 2);
        assert!(c.remove_node("b").is_none());
    }

    #[test]
    fn hostname_lookup() {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("n1", 1.0, 64.0).with_hostname("harmony.cs.umd.edu")).unwrap();
        assert!(c.node_by_hostname("harmony.cs.umd.edu").is_some());
        assert!(c.node_by_hostname("n1").is_some());
        assert!(c.node_by_hostname("other").is_none());
    }

    #[test]
    fn from_rsl_builds_cluster() {
        let c = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(8)).unwrap();
        assert_eq!(c.len(), 8);
        assert_eq!(c.links().count(), 28);
        assert_eq!(c.node("node00").unwrap().decl.memory, 256.0);
        assert_eq!(c.link("node00", "node07").unwrap().decl.bandwidth, 320.0);
    }

    /// Writes `value` as compact JSON.
    fn image<T: Serialize>(value: &T) -> String {
        let mut w = Writer::new(false);
        value.serialize(&mut w);
        w.into_string()
    }

    /// Reads a cluster from `text`.
    fn read(text: &str) -> Result<Cluster, Error> {
        let mut r = Reader::new(text);
        let cluster = Cluster::deserialize(&mut r)?;
        r.finish()?;
        Ok(cluster)
    }

    /// The image a map-backed cluster wrote, frozen: nodes keyed by name,
    /// links as `[[a, b], link]` pairs keyed by the ordered endpoints
    /// whatever order they were declared in, a re-declared link replacing
    /// the old one, and a removed node's links gone.
    #[test]
    fn the_image_is_the_map_backed_clusters() {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("b", 2.0, 128.0).with_hostname("b.example")).unwrap();
        c.add_node(NodeDecl::new("a", 1.0, 256.0)).unwrap();
        c.add_node(NodeDecl::new("d", 1.0, 32.0)).unwrap();
        c.add_node(NodeDecl::new("c", 0.5, 64.0).with_os("aix")).unwrap();
        c.add_link(LinkDecl::new("b", "a", 100.0)).unwrap();
        c.add_link(LinkDecl::new("a", "c", 10.0)).unwrap();
        c.add_link(LinkDecl::new("c", "d", 5.0)).unwrap();
        c.add_link(LinkDecl::new("c", "a", 20.0)).unwrap();
        c.remove_node("d");
        let alloc = crate::Allocation {
            nodes: vec![crate::AllocatedNode {
                req: "w".into(),
                index: 0,
                node: "a".into(),
                memory: 16.0,
                seconds: 30.0,
                exclusive: true,
            }],
            links: vec![crate::AllocatedLink { a: "a".into(), b: "b".into(), bandwidth: 2.5 }],
            variables: vec![],
        };
        c.commit(&alloc).unwrap();
        let frozen = concat!(
            r#"{"nodes":{"#,
            r#""a":{"decl":{"name":"a","speed":1.0,"memory":256.0,"os":"linux","hostname":"a"},"#,
            r#""free_memory":240.0,"tasks":1,"assigned_seconds":30.0,"exclusive":1},"#,
            r#""b":{"decl":{"name":"b","speed":2.0,"memory":128.0,"os":"linux","#,
            r#""hostname":"b.example"},"free_memory":128.0,"tasks":0,"assigned_seconds":0.0,"#,
            r#""exclusive":0},"#,
            r#""c":{"decl":{"name":"c","speed":0.5,"memory":64.0,"os":"aix","hostname":"c"},"#,
            r#""free_memory":64.0,"tasks":0,"assigned_seconds":0.0,"exclusive":0}},"#,
            r#""links":["#,
            r#"[["a","b"],{"decl":{"a":"b","b":"a","bandwidth":100.0,"latency":0.0001},"#,
            r#""free_bandwidth":97.5}],"#,
            r#"[["a","c"],{"decl":{"a":"c","b":"a","bandwidth":20.0,"latency":0.0001},"#,
            r#""free_bandwidth":20.0}]]}"#,
        );
        assert_eq!(image(&c), frozen);
        let back = read(frozen).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.link("b", "a").unwrap().free_bandwidth, 97.5);
        assert_eq!(image(&back), frozen);
        // No links wrote an empty map.
        let empty = r#"{"nodes":{},"links":{}}"#;
        assert_eq!(image(&Cluster::new()), empty);
        assert_eq!(read(empty).unwrap(), Cluster::new());
        // A key that disagrees with its declaration is refused.
        assert!(read(&frozen.replacen(r#""b":{"decl""#, r#""z":{"decl""#, 1)).is_err());
        assert!(read(&frozen.replacen(r#"[["a","c"]"#, r#"[["a","d"]"#, 1)).is_err());
    }

    /// A clone copies counters and shares every declaration.
    #[test]
    fn a_clone_shares_declarations() {
        let c = cluster3();
        let copy = c.clone();
        for (x, y) in c.nodes().zip(copy.nodes()) {
            assert!(Arc::ptr_eq(&x.decl, &y.decl));
        }
        for (x, y) in c.links().zip(copy.links()) {
            assert!(Arc::ptr_eq(&x.decl, &y.decl));
        }
        assert_eq!(copy.links().count(), 2);
    }

    #[test]
    fn utilization_math() {
        let mut c = cluster3();
        let node = &mut c.node_slice_mut()[0];
        node.free_memory = 192.0;
        assert_eq!(node.used_memory(), 64.0);
        assert_eq!(node.memory_utilization(), 0.25);
        let zero = NodeState::new(NodeDecl::new("z", 1.0, 0.0));
        assert_eq!(zero.memory_utilization(), 0.0);
    }
}
