//! Harmony's default performance model (§4.2).
//!
//! "Response times of individual applications are computed as simple
//! combinations of CPU and network requirements, suitably scaled to reflect
//! resource contention."
//!
//! * **CPU**: each node binding needs `seconds / speed` of wall time on its
//!   node; under processor sharing with `k` co-resident tasks that
//!   stretches by `k`. The job finishes when its slowest binding finishes,
//!   so the CPU component is the max across bindings.
//! * **Communication**: the option's `communication` tag gives total
//!   megabytes moved over the job's life; it drains through the slowest
//!   link the allocation uses, de-rated when the link is oversubscribed.
//!
//! The paper notes (§3.4) that "a better way of modeling communication
//! costs is by CPU occupancy on either end, plus wire time" — the LogP
//! refinement. Passing [`LogPParams`](crate::LogPParams) switches the
//! communication term to that model.

use serde::{Deserialize, Serialize};

use crate::error::PredictError;
use crate::logp::LogPParams;
use crate::model::{Prediction, PredictionContext, Predictor};

/// How the communication term is computed.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum CommModel {
    /// Total megabytes (from the `communication` tag) over the slowest
    /// allocated link's bandwidth. This is the paper's default.
    #[default]
    Bandwidth,
    /// LogP-style: per-message overhead and latency plus per-byte gap
    /// (§3.4's suggested refinement). The occupancy term is also added to
    /// the CPU component of every binding.
    LogP(LogPParams),
}

/// The default contention model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DefaultModel {
    /// Communication sub-model.
    pub comm: CommModel,
}

impl DefaultModel {
    /// Creates the paper's default model (bandwidth communication).
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses the LogP communication refinement.
    pub fn with_logp(params: LogPParams) -> Self {
        DefaultModel { comm: CommModel::LogP(params) }
    }

    fn cpu_component(&self, ctx: &PredictionContext<'_>) -> Result<f64, PredictError> {
        let mut worst = 0.0f64;
        for (b, binding) in ctx.alloc.nodes.iter().enumerate() {
            let node = ctx
                .node_of(b)
                .ok_or_else(|| PredictError::UnknownResource { name: binding.node.clone() })?;
            let speed = node.decl.speed.max(f64::EPSILON);
            let k = ctx.tasks_of(b).max(1) as f64;
            worst = worst.max(binding.seconds / speed * k);
        }
        Ok(worst)
    }

    fn total_comm_megabytes(&self, ctx: &PredictionContext<'_>) -> Result<f64, PredictError> {
        match &ctx.opt.communication {
            Some(tag) => Ok(tag.amount(&ctx.alloc.env())?.max(0.0)),
            None => Ok(0.0),
        }
    }

    /// The effective bandwidth (Mbit/s) the allocation can count on: the
    /// slowest link among its link bindings, de-rated by oversubscription
    /// of the underlying physical link. With no link bindings, the slowest
    /// physical link between any pair of allocated nodes is used (the
    /// paper's "fully connected" assumption for endpoint-less
    /// `communication` tags).
    fn effective_bandwidth(&self, ctx: &PredictionContext<'_>) -> Option<f64> {
        let mut slowest: Option<f64> = None;
        let mut consider = |bw: f64| {
            slowest = Some(match slowest {
                None => bw,
                Some(s) => s.min(bw),
            });
        };
        if !ctx.alloc.links.is_empty() {
            for (i, l) in ctx.alloc.links.iter().enumerate() {
                // Traffic within one node is infinitely fast for our
                // purposes.
                let Some(state) = ctx.link_of(i) else {
                    continue;
                };
                let capacity = state.decl.bandwidth;
                let mut reserved = state.used_bandwidth();
                if !ctx.committed {
                    reserved += l.bandwidth;
                }
                // The app gets its requested rate, or its fair share of an
                // oversubscribed link.
                let rate = if l.bandwidth > 0.0 { l.bandwidth } else { capacity };
                let derate =
                    if reserved > capacity && reserved > 0.0 { capacity / reserved } else { 1.0 };
                consider(rate.min(capacity) * derate);
            }
        } else {
            let nodes = &ctx.alloc.nodes;
            for (i, a) in nodes.iter().enumerate() {
                for b in &nodes[i + 1..] {
                    if a.node == b.node {
                        continue;
                    }
                    if let Some(state) = ctx.cluster.link(&a.node, &b.node) {
                        consider(state.decl.bandwidth);
                    }
                }
            }
        }
        slowest
    }

    fn comm_component(
        &self,
        ctx: &PredictionContext<'_>,
        megabytes: f64,
    ) -> Result<(f64, f64), PredictError> {
        if megabytes <= 0.0 {
            return Ok((0.0, 0.0));
        }
        match &self.comm {
            CommModel::Bandwidth => {
                let Some(bw) = self.effective_bandwidth(ctx) else {
                    // Single-node allocations communicate through memory.
                    return Ok((0.0, 0.0));
                };
                if bw <= 0.0 {
                    return Err(PredictError::MissingData {
                        what: "a usable link (zero bandwidth)".into(),
                    });
                }
                Ok((megabytes * 8.0 / bw, 0.0))
            }
            CommModel::LogP(p) => {
                if ctx.alloc.distinct_nodes() <= 1 {
                    return Ok((0.0, 0.0));
                }
                let (wire, occupancy) = p.transfer_cost(megabytes);
                Ok((wire, occupancy))
            }
        }
    }
}

impl Predictor for DefaultModel {
    fn predict(&self, ctx: &PredictionContext<'_>) -> Result<Prediction, PredictError> {
        if ctx.alloc.nodes.is_empty() {
            return Err(PredictError::MissingData {
                what: "an allocation with at least one node binding".into(),
            });
        }
        let cpu = self.cpu_component(ctx)?;
        let megabytes = self.total_comm_megabytes(ctx)?;
        let (comm, occupancy) = self.comm_component(ctx, megabytes)?;
        let cpu = cpu + occupancy;
        Ok(Prediction { response_time: cpu + comm, cpu_time: cpu, comm_time: comm })
    }

    fn name(&self) -> &str {
        match self.comm {
            CommModel::Bandwidth => "default",
            CommModel::LogP(_) => "default+logp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_resources::{AllocatedLink, AllocatedNode, Allocation, Cluster};
    use harmony_rsl::schema::{parse_bundle_script, LinkDecl, NodeDecl, OptionSpec};

    fn cluster() -> Cluster {
        let mut c = Cluster::new();
        c.add_node(NodeDecl::new("a", 1.0, 256.0)).unwrap();
        c.add_node(NodeDecl::new("b", 2.0, 256.0)).unwrap();
        c.add_link(LinkDecl::new("a", "b", 80.0)).unwrap();
        c
    }

    fn binding(req: &str, node: &str, seconds: f64) -> AllocatedNode {
        AllocatedNode {
            req: req.into(),
            index: 0,
            node: node.into(),
            memory: 1.0,
            seconds,
            exclusive: false,
        }
    }

    #[test]
    fn cpu_is_max_over_bindings_scaled_by_speed() {
        let cluster = cluster();
        let alloc = Allocation {
            nodes: vec![binding("x", "a", 100.0), binding("y", "b", 100.0)],
            links: vec![],
            variables: vec![],
        };
        let opt = OptionSpec::new("o");
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, &opt);
        let p = DefaultModel::new().predict(&ctx).unwrap();
        // a: 100/1.0 = 100; b: 100/2.0 = 50 → max is 100.
        assert_eq!(p.cpu_time, 100.0);
        assert_eq!(p.comm_time, 0.0);
        assert_eq!(p.response_time, 100.0);
    }

    #[test]
    fn contention_stretches_cpu() {
        let mut cluster = cluster();
        // Commit a competing task on `a`.
        let other =
            Allocation { nodes: vec![binding("z", "a", 50.0)], links: vec![], variables: vec![] };
        cluster.commit(&other).unwrap();
        let alloc =
            Allocation { nodes: vec![binding("x", "a", 100.0)], links: vec![], variables: vec![] };
        let opt = OptionSpec::new("o");
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, &opt);
        let p = DefaultModel::new().predict(&ctx).unwrap();
        // Two tasks share node `a`: 100 s of work takes 200 s.
        assert_eq!(p.cpu_time, 200.0);
    }

    #[test]
    fn communication_tag_adds_transfer_time() {
        let cluster = cluster();
        let bundle = parse_bundle_script(
            "harmonyBundle t b { {o {node x {seconds 10}} {node y {seconds 10}} {communication 100}} }",
        )
        .unwrap();
        let opt = &bundle.options[0];
        let alloc = Allocation {
            nodes: vec![binding("x", "a", 10.0), binding("y", "b", 10.0)],
            links: vec![],
            variables: vec![],
        };
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, opt);
        let p = DefaultModel::new().predict(&ctx).unwrap();
        // 100 MB * 8 / 80 Mbps = 10 s over the physical link.
        assert_eq!(p.comm_time, 10.0);
        assert_eq!(p.response_time, p.cpu_time + 10.0);
    }

    #[test]
    fn allocated_link_rate_bounds_transfer() {
        let cluster = cluster();
        let bundle = parse_bundle_script(
            "harmonyBundle t b { {o {node x {seconds 10}} {node y {seconds 10}} {communication 100} {link x y 20}} }",
        )
        .unwrap();
        let opt = &bundle.options[0];
        let alloc = Allocation {
            nodes: vec![binding("x", "a", 10.0), binding("y", "b", 10.0)],
            links: vec![AllocatedLink { a: "a".into(), b: "b".into(), bandwidth: 20.0 }],
            variables: vec![],
        };
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, opt);
        let p = DefaultModel::new().predict(&ctx).unwrap();
        // The allocation reserved 20 Mbps: 100 MB * 8 / 20 = 40 s.
        assert_eq!(p.comm_time, 40.0);
    }

    #[test]
    fn single_node_has_no_comm_cost() {
        let cluster = cluster();
        let bundle = parse_bundle_script(
            "harmonyBundle t b { {o {node x {seconds 10}} {communication 500}} }",
        )
        .unwrap();
        let alloc =
            Allocation { nodes: vec![binding("x", "a", 10.0)], links: vec![], variables: vec![] };
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, &bundle.options[0]);
        let p = DefaultModel::new().predict(&ctx).unwrap();
        assert_eq!(p.comm_time, 0.0);
    }

    #[test]
    fn empty_allocation_is_missing_data() {
        let cluster = cluster();
        let alloc = Allocation::default();
        let opt = OptionSpec::new("o");
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, &opt);
        assert!(matches!(DefaultModel::new().predict(&ctx), Err(PredictError::MissingData { .. })));
    }

    #[test]
    fn logp_variant_adds_occupancy_to_cpu() {
        let cluster = cluster();
        let bundle = parse_bundle_script(
            "harmonyBundle t b { {o {node x {seconds 10}} {node y {seconds 10}} {communication 10}} }",
        )
        .unwrap();
        let alloc = Allocation {
            nodes: vec![binding("x", "a", 10.0), binding("y", "b", 10.0)],
            links: vec![],
            variables: vec![],
        };
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, &bundle.options[0]);
        let base = DefaultModel::new().predict(&ctx).unwrap();
        let logp = DefaultModel::with_logp(LogPParams::sp2_switch()).predict(&ctx).unwrap();
        assert!(logp.cpu_time > base.cpu_time, "occupancy charges CPU");
        assert!(logp.comm_time > 0.0);
        assert_eq!(DefaultModel::with_logp(LogPParams::sp2_switch()).name(), "default+logp");
        assert_eq!(DefaultModel::new().name(), "default");
    }
}
