//! Explicit (application-supplied) performance models (§4.2).
//!
//! "Applications with more complicated performance characteristics provide
//! simple performance prediction models" — a `performance` tag with either
//! measured `(nodes, seconds)` data points that Harmony interpolates with a
//! piecewise-linear curve, or a response-time expression over the
//! allocation environment.

use harmony_rsl::schema::{OptionSpec, PerfSpec};

use crate::default_model::DefaultModel;
use crate::error::PredictError;
use crate::model::{Prediction, PredictionContext, Predictor};

/// A model built from an option's `performance` tag, which it borrows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplicitModel<'a> {
    spec: &'a PerfSpec,
    /// Contention scaling: when true (default), the interpolated base time
    /// is stretched by the worst CPU contention factor among the
    /// allocation's nodes, mirroring how the default model treats
    /// co-resident tasks.
    pub scale_by_contention: bool,
}

impl<'a> ExplicitModel<'a> {
    /// Wraps a `performance` specification.
    pub fn new(spec: &'a PerfSpec) -> Self {
        ExplicitModel { spec, scale_by_contention: true }
    }

    /// Disables contention scaling (the raw curve is returned).
    pub fn without_contention_scaling(mut self) -> Self {
        self.scale_by_contention = false;
        self
    }

    fn contention_factor(&self, ctx: &PredictionContext<'_>) -> f64 {
        if !self.scale_by_contention {
            return 1.0;
        }
        // A node bound twice changes nothing: the factor is a maximum.
        (0..ctx.alloc.nodes.len()).map(|b| ctx.tasks_of(b).max(1) as f64).fold(1.0, f64::max)
    }
}

impl Predictor for ExplicitModel<'_> {
    fn predict(&self, ctx: &PredictionContext<'_>) -> Result<Prediction, PredictError> {
        let x = ctx.alloc.nodes.len() as f64;
        let base = self.spec.predict(x, &ctx.alloc.env())?;
        let factor = self.contention_factor(ctx);
        Ok(Prediction::opaque(base * factor))
    }

    fn name(&self) -> &str {
        match self.spec {
            PerfSpec::Points(_) => "explicit-points",
            PerfSpec::Expr(_) => "explicit-expr",
        }
    }
}

/// The model the paper's controller uses for one option
/// ([`option_model`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptionModel<'a> {
    /// The option's `performance` tag.
    Explicit(ExplicitModel<'a>),
    /// No `performance` tag: the contention model.
    Default(DefaultModel),
}

impl Predictor for OptionModel<'_> {
    fn predict(&self, ctx: &PredictionContext<'_>) -> Result<Prediction, PredictError> {
        match self {
            OptionModel::Explicit(m) => m.predict(ctx),
            OptionModel::Default(m) => m.predict(ctx),
        }
    }

    fn name(&self) -> &str {
        match self {
            OptionModel::Explicit(m) => m.name(),
            OptionModel::Default(m) => m.name(),
        }
    }
}

/// Picks the model the paper's controller would use for `opt`: the explicit
/// `performance` model when present, else [`DefaultModel`]. It borrows
/// `opt` and allocates nothing.
pub fn option_model(opt: &OptionSpec) -> OptionModel<'_> {
    match &opt.performance {
        Some(spec) => OptionModel::Explicit(ExplicitModel::new(spec)),
        None => OptionModel::Default(DefaultModel::new()),
    }
}

/// [`option_model`], boxed.
pub fn model_for_option(opt: &OptionSpec) -> Box<dyn Predictor + '_> {
    Box::new(option_model(opt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_resources::{AllocatedNode, Allocation, Cluster};
    use harmony_rsl::listings::FIG2B_BAG;
    use harmony_rsl::schema::{parse_bundle_script, NodeDecl};

    fn cluster(n: usize) -> Cluster {
        let mut c = Cluster::new();
        for i in 0..n {
            c.add_node(NodeDecl::new(format!("n{i}"), 1.0, 256.0)).unwrap();
        }
        c
    }

    fn alloc(nodes: &[&str]) -> Allocation {
        Allocation {
            nodes: nodes
                .iter()
                .enumerate()
                .map(|(i, n)| AllocatedNode {
                    req: "worker".into(),
                    index: i as u32,
                    node: (*n).into(),
                    memory: 32.0,
                    seconds: 0.0,
                    exclusive: false,
                })
                .collect(),
            links: vec![],
            variables: vec![],
        }
    }

    #[test]
    fn interpolates_the_fig2b_curve_by_node_count() {
        let cluster = cluster(8);
        let bundle = parse_bundle_script(FIG2B_BAG).unwrap();
        let opt = &bundle.options[0];
        let model = model_for_option(opt);
        assert_eq!(model.name(), "explicit-points");
        for (nodes, expect) in [(1usize, 1200.0), (2, 620.0), (4, 340.0), (8, 230.0)] {
            let names: Vec<String> = (0..nodes).map(|i| format!("n{i}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let a = alloc(&refs);
            let ctx = PredictionContext::hypothetical(&cluster, &a, opt);
            let p = model.predict(&ctx).unwrap();
            assert_eq!(p.response_time, expect, "nodes={nodes}");
        }
        // 3 nodes: interpolated midpoint of (2,620)-(4,340).
        let a = alloc(&["n0", "n1", "n2"]);
        let ctx = PredictionContext::hypothetical(&cluster, &a, opt);
        assert_eq!(model.predict(&ctx).unwrap().response_time, 480.0);
    }

    #[test]
    fn contention_scales_explicit_model() {
        let mut cluster = cluster(2);
        // Put a competing task on n0.
        cluster
            .commit(&Allocation {
                nodes: vec![AllocatedNode {
                    req: "z".into(),
                    index: 0,
                    node: "n0".into(),
                    memory: 1.0,
                    seconds: 1.0,
                    exclusive: false,
                }],
                links: vec![],
                variables: vec![],
            })
            .unwrap();
        let bundle = parse_bundle_script(FIG2B_BAG).unwrap();
        let opt = &bundle.options[0];
        let a = alloc(&["n0", "n1"]);
        let ctx = PredictionContext::hypothetical(&cluster, &a, opt);
        let scaled = ExplicitModel::new(opt.performance.as_ref().unwrap());
        assert_eq!(scaled.predict(&ctx).unwrap().response_time, 1240.0); // 620 × 2
        let raw =
            ExplicitModel::new(opt.performance.as_ref().unwrap()).without_contention_scaling();
        assert_eq!(raw.predict(&ctx).unwrap().response_time, 620.0);
    }

    #[test]
    fn expression_models_read_the_environment() {
        let cluster = cluster(1);
        let bundle = parse_bundle_script(
            "harmonyBundle a b { {o {node w {seconds 1}} {performance {600 / worker.count}}} }",
        )
        .unwrap();
        let opt = &bundle.options[0];
        let a = alloc(&["n0"]);
        let ctx = PredictionContext::hypothetical(&cluster, &a, opt);
        let model = model_for_option(opt);
        assert_eq!(model.name(), "explicit-expr");
        assert_eq!(model.predict(&ctx).unwrap().response_time, 600.0);
    }

    #[test]
    fn falls_back_to_default_without_performance_tag() {
        let bundle =
            parse_bundle_script("harmonyBundle a b { {o {node w {seconds 10}}} }").unwrap();
        let model = model_for_option(&bundle.options[0]);
        assert_eq!(model.name(), "default");
    }
}
