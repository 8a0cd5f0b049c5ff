//! The [`Predictor`] trait and the prediction context/result types.

use harmony_resources::{Allocation, Cluster};
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
}

impl<'a> PredictionContext<'a> {
    /// Builds a context for a hypothetical (not yet committed) allocation.
    pub fn hypothetical(cluster: &'a Cluster, alloc: &'a Allocation, opt: &'a OptionSpec) -> Self {
        PredictionContext { cluster, alloc, opt, committed: false }
    }

    /// Builds a context for an allocation already committed to the cluster.
    pub fn committed(cluster: &'a Cluster, alloc: &'a Allocation, opt: &'a OptionSpec) -> Self {
        PredictionContext { cluster, alloc, opt, committed: true }
    }

    /// The number of tasks that would share `node` if this allocation ran:
    /// the committed count plus this allocation's own bindings when it is
    /// hypothetical.
    pub fn tasks_on(&self, node: &str) -> u32 {
        let committed = self.cluster.node(node).map(|n| n.tasks).unwrap_or(0);
        if self.committed {
            committed.max(1)
        } else {
            let own = self.alloc.nodes.iter().filter(|n| n.node == node).count() as u32;
            committed + own
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

    #[test]
    fn opaque_prediction() {
        let p = Prediction::opaque(5.0);
        assert_eq!(p.response_time, 5.0);
        assert_eq!(p.cpu_time, 5.0);
        assert_eq!(p.comm_time, 0.0);
    }
}
