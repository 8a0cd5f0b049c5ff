//! The [`Predictor`] trait and the prediction context/result types.

use harmony_resources::{Allocation, Cluster, LinkState, NodeState, Sites};
use harmony_rsl::schema::OptionSpec;
use serde::{Deserialize, Serialize};

use crate::error::PredictError;

/// Everything a model may consult when predicting one option choice.
#[derive(Debug)]
pub struct PredictionContext<'a> {
    /// The cluster, including live contention counters (committed tasks).
    pub cluster: &'a Cluster,
    /// The (hypothetical or committed) allocation being evaluated.
    pub alloc: &'a Allocation,
    /// The option the allocation instantiates.
    pub opt: &'a OptionSpec,
    /// True when `alloc` is already committed to the cluster (its tasks are
    /// included in the contention counters); false for hypothetical
    /// allocations, whose own load must be *added* to the counters.
    pub committed: bool,
    /// Where `alloc`'s bindings are in `cluster`, when the caller has
    /// them; without them every binding is found by name.
    pub sites: Option<Sites<'a>>,
}

impl<'a> PredictionContext<'a> {
    /// Builds a context for a hypothetical (not yet committed) allocation.
    pub fn hypothetical(cluster: &'a Cluster, alloc: &'a Allocation, opt: &'a OptionSpec) -> Self {
        PredictionContext { cluster, alloc, opt, committed: false, sites: None }
    }

    /// Builds a context for an allocation already committed to the cluster.
    pub fn committed(cluster: &'a Cluster, alloc: &'a Allocation, opt: &'a OptionSpec) -> Self {
        PredictionContext { cluster, alloc, opt, committed: true, sites: None }
    }

    /// The node that node binding `b` of the allocation is bound to.
    pub fn node_of(&self, b: usize) -> Option<&'a NodeState> {
        match self.sites {
            Some(sites) => Some(&self.cluster.node_slice()[sites.nodes[b]]),
            None => self.cluster.node(&self.alloc.nodes[b].node),
        }
    }

    /// The link that link binding `l` of the allocation reserves on; `None`
    /// for traffic within one node and for a link that is not published.
    pub fn link_of(&self, l: usize) -> Option<&'a LinkState> {
        match self.sites {
            Some(sites) => sites.links[l].map(|i| &self.cluster.link_slice()[i]),
            None => {
                let link = &self.alloc.links[l];
                let at = self.cluster.carrier(&link.a, &link.b).flatten();
                at.map(|i| &self.cluster.link_slice()[i])
            }
        }
    }

    /// The number of tasks that would share `node` if this allocation ran:
    /// the committed count plus this allocation's own bindings when it is
    /// hypothetical.
    pub fn tasks_on(&self, node: &str) -> u32 {
        let own = || self.alloc.nodes.iter().filter(|n| n.node == node).count();
        self.sharing(self.cluster.node(node), own)
    }

    /// [`PredictionContext::tasks_on`] the node of binding `b`.
    pub fn tasks_of(&self, b: usize) -> u32 {
        let Some(sites) = self.sites else {
            return self.tasks_on(&self.alloc.nodes[b].node);
        };
        let at = sites.nodes[b];
        let own = || sites.nodes.iter().filter(|&&i| i == at).count();
        self.sharing(Some(&self.cluster.node_slice()[at]), own)
    }

    /// The tasks sharing `node`, of which the allocation's own are `own`.
    fn sharing(&self, node: Option<&NodeState>, own: impl FnOnce() -> usize) -> u32 {
        let committed = node.map_or(0, |n| n.tasks);
        if self.committed {
            committed.max(1)
        } else {
            committed + own() as u32
        }
    }
}

/// A model's output: projected response time with its CPU/communication
/// breakdown (exposed per C-INTERMEDIATE so callers need not re-derive it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Projected response time (seconds) — what the objective function
    /// consumes.
    pub response_time: f64,
    /// The CPU component (seconds on the critical node).
    pub cpu_time: f64,
    /// The communication component (seconds).
    pub comm_time: f64,
}

impl Prediction {
    /// A prediction with only a response time (explicit models that do not
    /// break down components).
    pub fn opaque(response_time: f64) -> Self {
        Prediction { response_time, cpu_time: response_time, comm_time: 0.0 }
    }
}

/// A performance model: predicts the response time of one option choice.
///
/// The trait is object-safe; `model_for_option` returns a boxed one.
pub trait Predictor: std::fmt::Debug + Send + Sync {
    /// Predicts the response time for the context.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError`] when the model lacks data or an expression
    /// fails to evaluate.
    fn predict(&self, ctx: &PredictionContext<'_>) -> Result<Prediction, PredictError>;

    /// A short human-readable name for logs and experiment output.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_resources::{AllocatedNode, Allocation};
    use harmony_rsl::schema::{NodeDecl, OptionSpec};

    fn one_node_cluster() -> Cluster {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("a", 1.0, 256.0)).unwrap();
        c
    }

    fn alloc_on_a() -> Allocation {
        Allocation {
            nodes: vec![AllocatedNode {
                req: "w".into(),
                index: 0,
                node: "a".into(),
                memory: 1.0,
                seconds: 10.0,
                exclusive: false,
            }],
            links: vec![],
            variables: vec![],
        }
    }

    #[test]
    fn hypothetical_context_adds_own_tasks() {
        let cluster = one_node_cluster();
        let alloc = alloc_on_a();
        let opt = OptionSpec::new("o");
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, &opt);
        assert_eq!(ctx.tasks_on("a"), 1); // 0 committed + 1 own
        assert_eq!(ctx.tasks_on("ghost"), 0);
        assert!(!ctx.committed);
    }

    #[test]
    fn committed_context_uses_cluster_counters() {
        let mut cluster = one_node_cluster();
        let alloc = alloc_on_a();
        cluster.commit(&alloc).unwrap();
        let opt = OptionSpec::new("o");
        let ctx = PredictionContext::committed(&cluster, &alloc, &opt);
        assert_eq!(ctx.tasks_on("a"), 1);
        assert!(ctx.committed);
    }

    /// With positions a context reads the nodes, links and task counts
    /// that names find, committed or hypothetical.
    #[test]
    fn positions_read_what_names_find() {
        use harmony_resources::AllocatedLink;
        use harmony_rsl::schema::LinkDecl;
        let mut cluster = one_node_cluster();
        cluster.add_node(NodeDecl::new("b", 2.0, 64.0)).unwrap();
        cluster.add_link(LinkDecl::new("a", "b", 100.0)).unwrap();
        let mut alloc = alloc_on_a();
        alloc.nodes.push(AllocatedNode { node: "b".into(), ..alloc.nodes[0].clone() });
        alloc.nodes.push(alloc.nodes[0].clone());
        alloc.links = vec![
            AllocatedLink { a: "b".into(), b: "a".into(), bandwidth: 5.0 },
            AllocatedLink { a: "a".into(), b: "a".into(), bandwidth: 5.0 },
        ];
        let sites = Sites { nodes: &[0, 1, 0], links: &[Some(0), None] };
        let opt = OptionSpec::new("o");
        for committed in [false, true] {
            if committed {
                cluster.commit(&alloc).unwrap();
            }
            let named = PredictionContext {
                committed,
                ..PredictionContext::committed(&cluster, &alloc, &opt)
            };
            let at = PredictionContext { sites: Some(sites), ..named };
            let named = PredictionContext { sites: None, ..at };
            for b in 0..3 {
                assert_eq!(at.node_of(b), named.node_of(b));
                assert_eq!(at.tasks_of(b), named.tasks_of(b));
                assert_eq!(at.tasks_of(b), named.tasks_on(&alloc.nodes[b].node));
            }
            assert_eq!((at.tasks_of(0), at.tasks_of(1)), (2, 1));
            for l in 0..2 {
                assert_eq!(
                    at.link_of(l).map(|s| s as *const _),
                    named.link_of(l).map(|s| s as *const _)
                );
            }
            assert!(at.link_of(0).is_some() && at.link_of(1).is_none());
        }
    }

    #[test]
    fn opaque_prediction() {
        let p = Prediction::opaque(5.0);
        assert_eq!(p.response_time, 5.0);
        assert_eq!(p.cpu_time, 5.0);
        assert_eq!(p.comm_time, 0.0);
    }
}
