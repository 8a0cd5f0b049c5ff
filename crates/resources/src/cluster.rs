//! Cluster state: published nodes and links with capacity accounting.
//!
//! When Harmony starts it collects an initial estimate of each node's
//! capabilities (available memory, normalized computing capacity) and of
//! each link's bandwidth and latency (§4.1). As allocations are committed,
//! available resources are decreased; releasing an allocation restores
//! them.

use std::collections::BTreeMap;

use harmony_rsl::schema::{LinkDecl, NodeDecl, Statement};
use serde::{Deserialize, Serialize};

use crate::error::ResourceError;

/// Mutable per-node state: the declaration plus what is currently free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// The published declaration (capacity).
    pub decl: NodeDecl,
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
        NodeState { free_memory: decl.memory, decl, tasks: 0, assigned_seconds: 0.0, exclusive: 0 }
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkState {
    /// The published declaration (capacity).
    pub decl: LinkDecl,
    /// Mbit/s not yet reserved.
    pub free_bandwidth: f64,
}

impl LinkState {
    fn new(decl: LinkDecl) -> Self {
        LinkState { free_bandwidth: decl.bandwidth, decl }
    }

    /// Mbit/s currently reserved.
    pub fn used_bandwidth(&self) -> f64 {
        self.decl.bandwidth - self.free_bandwidth
    }
}

fn link_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_owned(), b.to_owned())
    } else {
        (b.to_owned(), a.to_owned())
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    nodes: BTreeMap<String, NodeState>,
    links: BTreeMap<(String, String), LinkState>,
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

    /// Publishes a node.
    ///
    /// # Errors
    ///
    /// [`ResourceError::DuplicateNode`] when the name is already taken.
    pub fn add_node(&mut self, decl: NodeDecl) -> Result<(), ResourceError> {
        if self.nodes.contains_key(&decl.name) {
            return Err(ResourceError::DuplicateNode { name: decl.name });
        }
        self.nodes.insert(decl.name.clone(), NodeState::new(decl));
        Ok(())
    }

    /// Publishes a link. Both endpoints must already be published.
    ///
    /// # Errors
    ///
    /// [`ResourceError::UnknownNode`] when an endpoint is missing.
    pub fn add_link(&mut self, decl: LinkDecl) -> Result<(), ResourceError> {
        for end in [&decl.a, &decl.b] {
            if !self.nodes.contains_key(end) {
                return Err(ResourceError::UnknownNode { name: end.clone() });
            }
        }
        self.links.insert(link_key(&decl.a, &decl.b), LinkState::new(decl));
        Ok(())
    }

    /// Removes a node (e.g. it left the metacomputer). Links touching it
    /// are removed too. Returns the removed state.
    pub fn remove_node(&mut self, name: &str) -> Option<NodeState> {
        let state = self.nodes.remove(name)?;
        self.links.retain(|(a, b), _| a != name && b != name);
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
        self.nodes.get(name)
    }

    /// Mutable access to a node (used by the allocator).
    pub(crate) fn node_mut(&mut self, name: &str) -> Option<&mut NodeState> {
        self.nodes.get_mut(name)
    }

    /// Looks up the link between two nodes (order-insensitive).
    pub fn link(&self, a: &str, b: &str) -> Option<&LinkState> {
        self.links.get(&link_key(a, b))
    }

    /// Mutable access to a link (used by the allocator).
    pub(crate) fn link_mut(&mut self, a: &str, b: &str) -> Option<&mut LinkState> {
        self.links.get_mut(&link_key(a, b))
    }

    /// Iterates over nodes in name order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeState> {
        self.nodes.values()
    }

    /// Iterates over links.
    pub fn links(&self) -> impl Iterator<Item = &LinkState> {
        self.links.values()
    }

    /// Finds a node by its published hostname (falls back to node name).
    pub fn node_by_hostname(&self, hostname: &str) -> Option<&NodeState> {
        self.nodes.values().find(|n| n.decl.hostname == hostname || n.decl.name == hostname)
    }

    /// Total free memory across all nodes (MB).
    pub fn total_free_memory(&self) -> f64 {
        self.nodes.values().map(|n| n.free_memory).sum()
    }

    /// Total published memory across all nodes (MB).
    pub fn total_memory(&self) -> f64 {
        self.nodes.values().map(|n| n.decl.memory).sum()
    }

    /// Total tasks assigned across all nodes.
    pub fn total_tasks(&self) -> u32 {
        self.nodes.values().map(|n| n.tasks).sum()
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

    #[test]
    fn utilization_math() {
        let mut c = cluster3();
        let node = c.node_mut("a").unwrap();
        node.free_memory = 192.0;
        assert_eq!(node.used_memory(), 64.0);
        assert_eq!(node.memory_utilization(), 0.25);
        let zero = NodeState::new(NodeDecl::new("z", 1.0, 0.0));
        assert_eq!(zero.memory_utilization(), 0.0);
    }
}
