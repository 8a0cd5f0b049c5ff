//! Typed representation of Harmony bundles.
//!
//! A *bundle* is a set of mutually exclusive options for tuning one
//! application (paper §3.1). Each option describes the high-level resources
//! it needs (nodes, links), total communication, an optional explicit
//! performance model, the granularity at which the application can switch,
//! and the frictional cost of switching.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::error::{Result, RslError};
use crate::expr::{Env, Expr};
use crate::schema::tagvalue::TagValue;
use crate::span::Span;

/// A tuning-option bundle: `harmonyBundle app:instance name { options }`.
///
/// Spans are byte ranges into the source the bundle was parsed from (empty
/// for programmatically built specs); they never participate in equality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleSpec {
    /// Application name (`DBclient` in Figure 3).
    pub app: String,
    /// Instance hint supplied by the application (`1` in `DBclient:1`).
    /// Harmony may override this with a system-chosen instance id.
    pub instance: Option<u64>,
    /// Bundle name (`where` in Figure 3).
    pub name: String,
    /// Mutually exclusive options, in lexical (definition) order — the
    /// order in which the controller evaluates them (§4.3).
    pub options: Vec<OptionSpec>,
    /// Span of the whole `harmonyBundle ...` statement.
    #[serde(default)]
    pub span: Span,
    /// Span of the `app:instance` header token.
    #[serde(default)]
    pub app_span: Span,
    /// Span of the bundle-name token.
    #[serde(default)]
    pub name_span: Span,
}

impl BundleSpec {
    /// Creates an empty bundle with no options and empty spans.
    pub fn new(app: impl Into<String>, instance: Option<u64>, name: impl Into<String>) -> Self {
        BundleSpec {
            app: app.into(),
            instance,
            name: name.into(),
            options: Vec::new(),
            span: Span::none(),
            app_span: Span::none(),
            name_span: Span::none(),
        }
    }

    /// Finds an option by name.
    pub fn option(&self, name: &str) -> Option<&OptionSpec> {
        self.options.iter().find(|o| o.name == name)
    }

    /// Names of all options, in definition order.
    pub fn option_names(&self) -> Vec<&str> {
        self.options.iter().map(|o| o.name.as_str()).collect()
    }

    /// Renders canonical RSL text for the whole bundle.
    pub fn canonical(&self) -> String {
        let inst = self.instance.map(|i| format!(":{i}")).unwrap_or_default();
        let opts = self
            .options
            .iter()
            .map(|o| format!("  {}", o.canonical()))
            .collect::<Vec<_>>()
            .join("\n");
        format!("harmonyBundle {}{} {} {{\n{}\n}}", self.app, inst, self.name, opts)
    }
}

/// One mutually exclusive configuration alternative inside a bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptionSpec {
    /// Option name (`QS` / `DS` in Figure 3).
    pub name: String,
    /// `variable` tags: discrete choice axes Harmony may instantiate
    /// (`{variable workerNodes {1 2 4 8}}` in Figure 2b).
    pub variables: Vec<VariableSpec>,
    /// Node requirements in definition order.
    pub nodes: Vec<NodeReq>,
    /// Link requirements between named nodes.
    pub links: Vec<LinkReq>,
    /// Total communication requirement for the whole application
    /// (megabytes over the job's lifetime), possibly parameterized.
    pub communication: Option<TagValue>,
    /// Explicit performance model overriding Harmony's default prediction.
    pub performance: Option<PerfSpec>,
    /// Minimum seconds between reconfigurations of this application.
    pub granularity: Option<f64>,
    /// Frictional cost (reference-machine CPU seconds) of switching *into*
    /// this option (paper §3, requirement five).
    pub friction: Option<TagValue>,
    /// Span of the whole braced option.
    #[serde(default)]
    pub span: Span,
    /// Span of the option-name token.
    #[serde(default)]
    pub name_span: Span,
    /// Span of the `communication` tag's value, when present.
    #[serde(default)]
    pub communication_span: Span,
    /// Span of the whole `{performance ...}` tag, when present.
    #[serde(default)]
    pub performance_span: Span,
    /// Span of the `granularity` tag's value, when present.
    #[serde(default)]
    pub granularity_span: Span,
    /// Span of the `friction` tag's value, when present.
    #[serde(default)]
    pub friction_span: Span,
}

impl OptionSpec {
    /// Creates an empty option with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        OptionSpec {
            name: name.into(),
            variables: Vec::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            communication: None,
            performance: None,
            granularity: None,
            friction: None,
            span: Span::none(),
            name_span: Span::none(),
            communication_span: Span::none(),
            performance_span: Span::none(),
            granularity_span: Span::none(),
            friction_span: Span::none(),
        }
    }

    /// Finds a node requirement by local name.
    pub fn node(&self, name: &str) -> Option<&NodeReq> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Finds a variable by name.
    pub fn variable(&self, name: &str) -> Option<&VariableSpec> {
        self.variables.iter().find(|v| v.name == name)
    }

    /// All free names referenced by any parameterized tag in this option —
    /// the dependency set the controller must bind before evaluation.
    pub fn free_names(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push_all = |names: Vec<String>| {
            for n in names {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        };
        for node in &self.nodes {
            for (_, v) in &node.tags {
                push_all(v.free_names());
            }
        }
        for link in &self.links {
            push_all(link.bandwidth.free_names());
        }
        if let Some(c) = &self.communication {
            push_all(c.free_names());
        }
        if let Some(PerfSpec::Expr(e)) = &self.performance {
            push_all(e.free_names());
        }
        if let Some(f) = &self.friction {
            push_all(f.free_names());
        }
        out
    }

    /// Renders canonical RSL text for this option.
    pub fn canonical(&self) -> String {
        let mut parts = vec![self.name.clone()];
        for v in &self.variables {
            parts.push(v.canonical());
        }
        for n in &self.nodes {
            parts.push(n.canonical());
        }
        for l in &self.links {
            parts.push(l.canonical());
        }
        if let Some(c) = &self.communication {
            parts.push(format!("{{communication {}}}", c.canonical()));
        }
        if let Some(p) = &self.performance {
            parts.push(p.canonical());
        }
        if let Some(g) = self.granularity {
            parts.push(format!("{{granularity {g}}}"));
        }
        if let Some(f) = &self.friction {
            parts.push(format!("{{friction {}}}", f.canonical()));
        }
        format!("{{{}}}", parts.join(" "))
    }
}

/// A `variable` tag: a named discrete choice axis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariableSpec {
    /// Variable name (referenced by parameterized tags).
    pub name: String,
    /// The allowed values, e.g. `[1, 2, 4, 8]` worker processes.
    pub choices: Vec<i64>,
    /// Span of the whole `{variable ...}` tag.
    #[serde(default)]
    pub span: Span,
    /// Span of the variable-name token.
    #[serde(default)]
    pub name_span: Span,
    /// Span of the braced choice list.
    #[serde(default)]
    pub choices_span: Span,
}

impl VariableSpec {
    /// Creates a variable with the given choices and empty spans.
    pub fn new(name: impl Into<String>, choices: Vec<i64>) -> Self {
        VariableSpec {
            name: name.into(),
            choices,
            span: Span::none(),
            name_span: Span::none(),
            choices_span: Span::none(),
        }
    }

    /// Canonical RSL text.
    pub fn canonical(&self) -> String {
        let vals = self.choices.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" ");
        format!("{{variable {} {{{vals}}}}}", self.name)
    }
}

/// How many instances of a node requirement must be matched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountSpec {
    /// Exactly one node.
    One,
    /// `{replicate n}` — `n` distinct nodes meeting the same requirements
    /// (Figure 2a uses `{replicate 4}`).
    Replicate(u32),
    /// `{replicate var}` — the count comes from a bundle variable
    /// (Figure 2b replicates by `workerNodes`).
    Param(String),
}

impl CountSpec {
    /// Resolves the count in the given environment.
    ///
    /// # Errors
    ///
    /// [`RslError::UnboundName`] when a parameterized count's variable is
    /// not bound; [`RslError::Schema`] for non-positive counts.
    pub fn resolve<E: Env + ?Sized>(&self, env: &E) -> Result<u32> {
        let n = match self {
            CountSpec::One => 1,
            CountSpec::Replicate(n) => i64::from(*n),
            CountSpec::Param(name) => env
                .lookup(name)
                .ok_or_else(|| RslError::UnboundName { name: name.clone() })?
                .as_i64()?,
        };
        if n <= 0 {
            return Err(RslError::schema(format!("node count must be positive, got {n}")));
        }
        Ok(n as u32)
    }
}

/// A node requirement: `{node <name> [*] {tag value}...}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReq {
    /// Local name used to refer to this node from other tags
    /// (`server`, `client`, `worker`).
    pub name: String,
    /// How many instances to match.
    pub count: CountSpec,
    /// Tags in definition order (`seconds`, `memory`, `hostname`, `os`...).
    pub tags: Vec<(String, TagValue)>,
    /// Span of the whole `{node ...}` requirement.
    #[serde(default)]
    pub span: Span,
    /// Span of the node-name token.
    #[serde(default)]
    pub name_span: Span,
    /// Spans of the *values* of the entries in `tags`, index-aligned (may be
    /// empty for programmatically built requirements — use
    /// [`NodeReq::tag_span`]).
    #[serde(default)]
    pub tag_spans: Vec<Span>,
}

impl NodeReq {
    /// Creates a single-instance node requirement with no tags.
    pub fn new(name: impl Into<String>) -> Self {
        NodeReq {
            name: name.into(),
            count: CountSpec::One,
            tags: Vec::new(),
            span: Span::none(),
            name_span: Span::none(),
            tag_spans: Vec::new(),
        }
    }

    /// The span of the `i`th tag, or the whole requirement's span when tag
    /// spans were not recorded.
    pub fn tag_span(&self, i: usize) -> Span {
        self.tag_spans.get(i).copied().unwrap_or(self.span)
    }

    /// Looks up a tag value by name.
    pub fn tag(&self, name: &str) -> Option<&TagValue> {
        self.tags.iter().find(|(t, _)| t == name).map(|(_, v)| v)
    }

    /// The `seconds` tag: total reference-machine CPU seconds this node
    /// consumes over the job's life.
    pub fn seconds(&self) -> Option<&TagValue> {
        self.tag("seconds")
    }

    /// The `memory` tag (megabytes).
    pub fn memory(&self) -> Option<&TagValue> {
        self.tag("memory")
    }

    /// The `hostname` tag, if the node is pinned to a specific machine.
    pub fn hostname(&self) -> Option<&TagValue> {
        self.tag("hostname")
    }

    /// The `os` tag.
    pub fn os(&self) -> Option<&TagValue> {
        self.tag("os")
    }

    /// Canonical RSL text.
    pub fn canonical(&self) -> String {
        let mut parts = vec!["node".to_string(), self.name.clone()];
        match &self.count {
            CountSpec::One => {}
            CountSpec::Replicate(n) => parts.push(format!("{{replicate {n}}}")),
            CountSpec::Param(v) => parts.push(format!("{{replicate {v}}}")),
        }
        for (tag, value) in &self.tags {
            parts.push(format!("{{{tag} {}}}", value.canonical()));
        }
        format!("{{{}}}", parts.join(" "))
    }
}

/// A link requirement: `{link <a> <b> <bandwidth>}` — required bandwidth
/// (Mbit/s) between two named nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkReq {
    /// First endpoint's local node name.
    pub a: String,
    /// Second endpoint's local node name.
    pub b: String,
    /// Required bandwidth in Mbit/s, possibly parameterized.
    pub bandwidth: TagValue,
    /// Span of the whole `{link ...}` requirement.
    #[serde(default)]
    pub span: Span,
    /// Span of the first endpoint token.
    #[serde(default)]
    pub a_span: Span,
    /// Span of the second endpoint token.
    #[serde(default)]
    pub b_span: Span,
    /// Span of the bandwidth value.
    #[serde(default)]
    pub bandwidth_span: Span,
}

impl LinkReq {
    /// Creates a link requirement with empty spans.
    pub fn new(a: impl Into<String>, b: impl Into<String>, bandwidth: TagValue) -> Self {
        LinkReq {
            a: a.into(),
            b: b.into(),
            bandwidth,
            span: Span::none(),
            a_span: Span::none(),
            b_span: Span::none(),
            bandwidth_span: Span::none(),
        }
    }

    /// Canonical RSL text.
    pub fn canonical(&self) -> String {
        format!("{{link {} {} {}}}", self.a, self.b, self.bandwidth.canonical())
    }
}

/// An explicit performance model (`performance` tag, Table 1: "Override
/// Harmony's default prediction function").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PerfSpec {
    /// A list of `(x, seconds)` data points; Harmony interpolates with a
    /// piecewise-linear curve (paper §3.4). `x` is usually a node count.
    Points(Vec<(f64, f64)>),
    /// An arbitrary response-time expression over the allocation
    /// environment.
    Expr(Expr),
}

impl PerfSpec {
    /// Predicts the response time at `x` (for [`PerfSpec::Points`]) or by
    /// evaluating the expression (which ignores `x` and reads the
    /// environment).
    ///
    /// Interpolation is piecewise linear between the two surrounding
    /// points; outside the data range the nearest segment is extrapolated,
    /// clamped at zero.
    ///
    /// # Errors
    ///
    /// [`RslError::Schema`] when the point list is empty; expression errors
    /// for the `Expr` form.
    pub fn predict<E: Env + ?Sized>(&self, x: f64, env: &E) -> Result<f64> {
        match self {
            PerfSpec::Points(points) => {
                if points.is_empty() {
                    return Err(RslError::schema("performance tag has no data points"));
                }
                Ok(piecewise_linear(points, x))
            }
            PerfSpec::Expr(e) => crate::expr::eval(e, env)?.as_f64(),
        }
    }

    /// Canonical RSL text.
    pub fn canonical(&self) -> String {
        match self {
            PerfSpec::Points(points) => {
                let pts = points
                    .iter()
                    .map(|(x, y)| {
                        let xs = if x.fract() == 0.0 {
                            format!("{}", *x as i64)
                        } else {
                            format!("{x}")
                        };
                        let ys = if y.fract() == 0.0 {
                            format!("{}", *y as i64)
                        } else {
                            format!("{y}")
                        };
                        format!("{{{xs} {ys}}}")
                    })
                    .collect::<Vec<_>>()
                    .join(" ");
                format!("{{performance {pts}}}")
            }
            PerfSpec::Expr(e) => format!("{{performance {{{e}}}}}"),
        }
    }
}

/// Piecewise-linear interpolation through `points` (sorted by the caller or
/// not — unsorted points are sorted in a local copy), clamped below at
/// zero.
pub fn piecewise_linear(points: &[(f64, f64)], x: f64) -> f64 {
    let pts: Cow<'_, [(f64, f64)]> = if points.is_sorted_by(|a, b| a.0 <= b.0) {
        Cow::Borrowed(points)
    } else {
        let mut pts = points.to_vec();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        Cow::Owned(pts)
    };
    if pts.len() == 1 {
        return pts[0].1.max(0.0);
    }
    // Find the segment; extrapolate from the nearest one outside the range.
    let seg = if x <= pts[0].0 {
        (pts[0], pts[1])
    } else if x >= pts[pts.len() - 1].0 {
        (pts[pts.len() - 2], pts[pts.len() - 1])
    } else {
        let mut found = (pts[0], pts[1]);
        for w in pts.windows(2) {
            if x >= w[0].0 && x <= w[1].0 {
                found = (w[0], w[1]);
                break;
            }
        }
        found
    };
    let ((x0, y0), (x1, y1)) = seg;
    let y = if (x1 - x0).abs() < f64::EPSILON {
        (y0 + y1) / 2.0
    } else {
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    };
    y.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{parse_expr, MapEnv};
    use crate::value::Value;

    #[test]
    fn count_spec_resolution() {
        let env = MapEnv::new();
        assert_eq!(CountSpec::One.resolve(&env).unwrap(), 1);
        assert_eq!(CountSpec::Replicate(4).resolve(&env).unwrap(), 4);
        let mut env = MapEnv::new();
        env.set("workerNodes", Value::Int(8));
        assert_eq!(CountSpec::Param("workerNodes".into()).resolve(&env).unwrap(), 8);
        assert!(matches!(
            CountSpec::Param("missing".into()).resolve(&env),
            Err(RslError::UnboundName { .. })
        ));
        env.set("workerNodes", Value::Int(0));
        assert!(matches!(
            CountSpec::Param("workerNodes".into()).resolve(&env),
            Err(RslError::Schema { .. })
        ));
    }

    #[test]
    fn node_req_accessors() {
        let mut node = NodeReq::new("server");
        node.tags = vec![
            ("hostname".into(), TagValue::Exact(Value::Str("h".into()))),
            ("seconds".into(), TagValue::Exact(Value::Int(42))),
            ("memory".into(), TagValue::Exact(Value::Int(20))),
        ];
        assert!(node.hostname().is_some());
        assert!(node.seconds().is_some());
        assert!(node.memory().is_some());
        assert!(node.os().is_none());
        assert!(node.tag("nope").is_none());
    }

    #[test]
    fn piecewise_linear_interpolates() {
        let pts = [(1.0, 1200.0), (2.0, 620.0), (4.0, 340.0), (8.0, 230.0)];
        assert_eq!(piecewise_linear(&pts, 1.0), 1200.0);
        assert_eq!(piecewise_linear(&pts, 2.0), 620.0);
        assert_eq!(piecewise_linear(&pts, 3.0), 480.0); // midpoint of (2,620)-(4,340)
        assert_eq!(piecewise_linear(&pts, 8.0), 230.0);
        // Extrapolation beyond the range uses the outer segment.
        let beyond = piecewise_linear(&pts, 12.0);
        assert!(beyond < 230.0 && beyond > 0.0);
        // Clamped at zero far out.
        assert_eq!(piecewise_linear(&pts, 1000.0), 0.0);
    }

    #[test]
    fn piecewise_linear_handles_unsorted_and_single_point() {
        let pts = [(4.0, 340.0), (1.0, 1200.0), (2.0, 620.0)];
        assert_eq!(piecewise_linear(&pts, 2.0), 620.0);
        assert_eq!(piecewise_linear(&[(3.0, 99.0)], 7.0), 99.0);
    }

    #[test]
    fn perf_spec_predicts() {
        let spec = PerfSpec::Points(vec![(1.0, 1200.0), (2.0, 620.0)]);
        assert_eq!(spec.predict(1.5, &MapEnv::new()).unwrap(), 910.0);

        let spec = PerfSpec::Expr(parse_expr("100 / workerNodes").unwrap());
        let mut env = MapEnv::new();
        env.set("workerNodes", Value::Int(4));
        assert_eq!(spec.predict(0.0, &env).unwrap(), 25.0);

        assert!(PerfSpec::Points(vec![]).predict(1.0, &MapEnv::new()).is_err());
    }

    #[test]
    fn option_free_names_collects_dependencies() {
        let mut opt = OptionSpec::new("DS");
        let mut client = NodeReq::new("client");
        client
            .tags
            .push(("seconds".into(), TagValue::Expr(parse_expr("base / workerNodes").unwrap())));
        opt.nodes.push(client);
        opt.links.push(LinkReq::new(
            "client",
            "server",
            TagValue::Expr(
                parse_expr("44 + (client.memory > 24 ? 24 : client.memory) - 17").unwrap(),
            ),
        ));
        let names = opt.free_names();
        assert_eq!(
            names,
            vec!["base".to_string(), "workerNodes".to_string(), "client.memory".to_string()]
        );
    }

    #[test]
    fn canonical_texts_are_reparseable() {
        use crate::schema::parser::parse_statements;
        let mut bundle = BundleSpec::new("DBclient", Some(1), "where");
        bundle.options.push({
            let mut o = OptionSpec::new("QS");
            let mut server = NodeReq::new("server");
            server.tags.push(("seconds".into(), TagValue::Exact(Value::Int(42))));
            o.nodes.push(server);
            o.links.push(LinkReq::new("client", "server", TagValue::Exact(Value::Int(2))));
            o.granularity = Some(30.0);
            o.friction = Some(TagValue::Exact(Value::Int(5)));
            o
        });
        let text = bundle.canonical();
        let stmts = parse_statements(&text).unwrap();
        assert_eq!(stmts.len(), 1);
    }
}
