//! Tag values: the right-hand sides of RSL tags.
//!
//! A tag value may be a plain literal (`{seconds 300}`), a wildcard
//! (`{hostname *}`), a one-sided constraint (`{memory >=17}`), or a
//! parameterized expression (`{seconds {1200 / workerNodes}}`).

use serde::{Deserialize, Serialize};

use crate::error::{Result, RslError};
use crate::expr::{parse_expr, Env, Expr};
use crate::list::Node;
use crate::value::{parse_number, Loose, Value};

/// The parsed right-hand side of a tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TagValue {
    /// `*` — any value is acceptable.
    Any,
    /// `>=x` — the resource must provide at least `x`; more is usable
    /// (Figure 3's `{memory >=17}`).
    AtLeast(f64),
    /// `<=x` — at most `x` is acceptable.
    AtMost(f64),
    /// An exact literal value.
    Exact(Value),
    /// A parameterized expression evaluated against the allocation
    /// environment.
    Expr(Expr),
}

impl TagValue {
    /// Parses a tag value from a list node.
    ///
    /// Words are checked for `*`, `>=n`, `<=n` prefixes; braced content is
    /// parsed as an expression when it parses as one, otherwise kept as a
    /// literal list value.
    ///
    /// # Errors
    ///
    /// Returns [`RslError::Schema`] when a `>=`/`<=` prefix is not followed
    /// by a number.
    pub fn parse(node: &Node) -> Result<TagValue> {
        match node {
            Node::Word(w) => {
                if w == "*" {
                    return Ok(TagValue::Any);
                }
                if let Some(rest) = w.strip_prefix(">=") {
                    let x: f64 = rest.trim().parse().map_err(|_| {
                        RslError::schema(format!("`>=` must be followed by a number, got `{w}`"))
                    })?;
                    return Ok(TagValue::AtLeast(x));
                }
                if let Some(rest) = w.strip_prefix("<=") {
                    let x: f64 = rest.trim().parse().map_err(|_| {
                        RslError::schema(format!("`<=` must be followed by a number, got `{w}`"))
                    })?;
                    return Ok(TagValue::AtMost(x));
                }
                Ok(TagValue::Exact(Value::from_word(w)))
            }
            Node::List(items) => {
                // `{memory >= 17}` may also arrive split into two words.
                if items.len() == 2 {
                    if let (Some(op), Some(num)) = (items[0].word(), items[1].word()) {
                        if op == ">=" || op == "<=" {
                            if let Ok(x) = num.parse::<f64>() {
                                return Ok(if op == ">=" {
                                    TagValue::AtLeast(x)
                                } else {
                                    TagValue::AtMost(x)
                                });
                            }
                        }
                    }
                }
                let text = crate::list::canonicalize(items);
                match parse_expr(&text) {
                    Ok(e) => Ok(TagValue::Expr(e)),
                    Err(_) => Ok(TagValue::Exact(node_to_value(node))),
                }
            }
        }
    }

    /// Evaluates the tag value to a number in the given environment.
    ///
    /// For constraints the *minimum requirement* is returned: `AtLeast(x)`
    /// yields `x`, which is the amount a matcher must reserve before the
    /// controller decides whether to grant more.
    ///
    /// # Errors
    ///
    /// [`RslError::Schema`] for `Any` and `AtMost` (no lower bound), plus
    /// any expression-evaluation errors.
    pub fn amount<E: Env + ?Sized>(&self, env: &E) -> Result<f64> {
        match self {
            TagValue::Any => Err(RslError::schema("`*` has no numeric amount")),
            TagValue::AtLeast(x) => Ok(*x),
            TagValue::AtMost(_) => Err(RslError::schema("`<=` constraint has no minimum amount")),
            TagValue::Exact(v) => v.as_f64(),
            TagValue::Expr(e) => crate::expr::eval(e, env)?.as_f64(),
        }
    }

    /// Tests whether a concrete resource attribute satisfies this tag value.
    ///
    /// `Exact` compares loosely (numeric across int/float, string equality
    /// otherwise); `AtLeast`/`AtMost` compare numerically; `Expr` is
    /// evaluated and then compared loosely.
    ///
    /// # Errors
    ///
    /// Expression evaluation errors; numeric-conversion errors for
    /// `AtLeast`/`AtMost` against non-numeric attributes.
    pub fn accepts<E: Env + ?Sized>(&self, attr: &Value, env: &E) -> Result<bool> {
        match self {
            TagValue::Any => Ok(true),
            TagValue::AtLeast(x) => Ok(attr.as_f64()? >= *x),
            TagValue::AtMost(x) => Ok(attr.as_f64()? <= *x),
            TagValue::Exact(v) => Ok(v.loose_eq(attr)),
            TagValue::Expr(e) => {
                let v = crate::expr::eval(e, env)?;
                Ok(v.loose_eq(attr))
            }
        }
    }

    /// This value reduced, in `env`, to what testing an attribute against
    /// it needs: an expression is evaluated here, a literal's number and
    /// word worked out here, so that [`Accepts::word`] and
    /// [`Accepts::number`] answer what [`TagValue::accepts`] answers
    /// without evaluating anything or building a [`Value`].
    ///
    /// # Errors
    ///
    /// Expression evaluation errors, which [`TagValue::accepts`] would
    /// raise for every attribute.
    pub fn accepting<E: Env + ?Sized>(&self, env: &E) -> Result<Accepts> {
        Ok(Accepts(match self {
            TagValue::Any => Test::Any,
            TagValue::AtLeast(x) => Test::AtLeast(*x),
            TagValue::AtMost(x) => Test::AtMost(*x),
            TagValue::Exact(v) => Test::Equal(v.loose()),
            TagValue::Expr(e) => Test::Equal(crate::expr::eval(e, env)?.loose()),
        }))
    }

    /// True when this value can use more of a resource than its minimum
    /// (i.e. it is an `AtLeast` constraint). The paper's Figure 3 uses this
    /// to let Harmony profitably allocate extra client memory.
    pub fn is_elastic(&self) -> bool {
        matches!(self, TagValue::AtLeast(_))
    }

    /// The names of allocation/variable bindings this value depends on.
    pub fn free_names(&self) -> Vec<String> {
        match self {
            TagValue::Expr(e) => e.free_names(),
            _ => Vec::new(),
        }
    }

    /// Renders canonical RSL text for this tag value.
    pub fn canonical(&self) -> String {
        match self {
            TagValue::Any => "*".into(),
            TagValue::AtLeast(x) => format!(">={x}"),
            TagValue::AtMost(x) => format!("<={x}"),
            TagValue::Exact(v) => v.canonical(),
            TagValue::Expr(e) => format!("{{{e}}}"),
        }
    }
}

/// A [`TagValue`] reduced in one environment ([`TagValue::accepting`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Accepts(Test);

#[derive(Debug, Clone, PartialEq)]
enum Test {
    Any,
    AtLeast(f64),
    AtMost(f64),
    Equal(Loose),
}

impl Accepts {
    /// What [`TagValue::accepts`] answers for `Value::Str(attr)`.
    ///
    /// # Errors
    ///
    /// A `>=`/`<=` constraint against a word that is not a number.
    pub fn word(&self, attr: &str) -> Result<bool> {
        match &self.0 {
            Test::Any => Ok(true),
            Test::AtLeast(x) => Ok(parse_number(attr)? >= *x),
            Test::AtMost(x) => Ok(parse_number(attr)? <= *x),
            Test::Equal(v) => Ok(v.eq_word(attr)),
        }
    }

    /// What [`TagValue::accepts`] answers for `Value::Float(attr)`.
    pub fn number(&self, attr: f64) -> bool {
        match &self.0 {
            Test::Any => true,
            Test::AtLeast(x) => attr >= *x,
            Test::AtMost(x) => attr <= *x,
            Test::Equal(v) => v.eq_number(attr),
        }
    }
}

impl From<Value> for TagValue {
    fn from(v: Value) -> Self {
        TagValue::Exact(v)
    }
}

impl From<Expr> for TagValue {
    fn from(e: Expr) -> Self {
        TagValue::Expr(e)
    }
}

/// Converts a parsed list node into a [`Value`] tree.
pub fn node_to_value(node: &Node) -> Value {
    match node {
        Node::Word(w) => Value::from_word(w),
        Node::List(items) => Value::List(items.iter().map(node_to_value).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::MapEnv;
    use crate::list::parse_tree;

    fn tv(src: &str) -> TagValue {
        let nodes = parse_tree(src).unwrap();
        assert_eq!(nodes.len(), 1, "expected one node from {src}");
        TagValue::parse(&nodes[0]).unwrap()
    }

    /// The reduced form answers what the tag answers: every kind of tag
    /// value, literal or evaluated, against words (numeric-looking,
    /// braced, empty) and numbers, errors included.
    #[test]
    fn accepting_answers_what_accepts_answers() {
        let mut env = MapEnv::new();
        env.set("w", Value::Int(4));
        env.set("h", Value::Str("node01".into()));
        let tags = [
            "*",
            ">=2",
            "<=2",
            "100",
            "1e2",
            "node00.sp2",
            "{a b}",
            "{}",
            "{1 2}",
            "{w * 25}",
            "{h}",
            "2.0",
            "inf",
            "nan",
            "-0",
            "{w / 8}",
        ];
        let words = [
            "100",
            "1e2",
            "100.0",
            "node00.sp2",
            "a b",
            "",
            "inf",
            "NaN",
            "2",
            "-0",
            "0",
            "{1 2}",
            "1 2",
            "node01",
            "0.5",
            "2.0",
        ];
        let numbers = [0.0, -0.0, 0.5, 1.0, 2.0, 100.0, 1e15, 1e16, f64::NAN, f64::INFINITY];
        for src in tags {
            let tag = tv(src);
            let reduced = tag.accepting(&env).unwrap();
            for w in words {
                let attr = Value::Str(w.into());
                assert_eq!(reduced.word(w), tag.accepts(&attr, &env), "{src} against {w:?}");
            }
            for x in numbers {
                let attr = Value::Float(x);
                assert_eq!(Ok(reduced.number(x)), tag.accepts(&attr, &env), "{src} against {x}");
            }
        }
        // An expression that fails fails once, where it is reduced.
        assert!(tv("{10 / missing}").accepting(&env).is_err());
    }

    #[test]
    fn parses_wildcard() {
        assert_eq!(tv("*"), TagValue::Any);
    }

    #[test]
    fn parses_at_least_and_at_most() {
        assert_eq!(tv(">=17"), TagValue::AtLeast(17.0));
        assert_eq!(tv("<=64"), TagValue::AtMost(64.0));
        assert_eq!(tv("{>= 17}"), TagValue::AtLeast(17.0));
        assert_eq!(tv("{<= 9}"), TagValue::AtMost(9.0));
    }

    #[test]
    fn bad_constraint_is_schema_error() {
        let nodes = parse_tree(">=abc").unwrap();
        assert!(matches!(TagValue::parse(&nodes[0]), Err(RslError::Schema { .. })));
    }

    #[test]
    fn parses_literals() {
        assert_eq!(tv("300"), TagValue::Exact(Value::Int(300)));
        assert_eq!(tv("linux"), TagValue::Exact(Value::Str("linux".into())));
        assert_eq!(tv("1.5"), TagValue::Exact(Value::Float(1.5)));
    }

    #[test]
    fn parses_expressions() {
        let v = tv("{1200 / workerNodes}");
        assert!(matches!(v, TagValue::Expr(_)));
        assert_eq!(v.free_names(), vec!["workerNodes".to_string()]);
    }

    #[test]
    fn braced_non_expression_stays_literal_list() {
        let v = tv("{1 1200}");
        // "1 1200" is not a valid expression, so it is kept as a list.
        assert_eq!(v, TagValue::Exact(Value::List(vec![Value::Int(1), Value::Int(1200)])));
    }

    #[test]
    fn amount_semantics() {
        let env = MapEnv::new();
        assert_eq!(tv("300").amount(&env).unwrap(), 300.0);
        assert_eq!(tv(">=17").amount(&env).unwrap(), 17.0);
        assert!(tv("*").amount(&env).is_err());
        assert!(tv("<=9").amount(&env).is_err());

        let mut env = MapEnv::new();
        env.set("workerNodes", Value::Int(4));
        assert_eq!(tv("{1200 / workerNodes}").amount(&env).unwrap(), 300.0);
    }

    #[test]
    fn accepts_semantics() {
        let env = MapEnv::new();
        assert!(tv("*").accepts(&Value::Str("anything".into()), &env).unwrap());
        assert!(tv(">=17").accepts(&Value::Int(32), &env).unwrap());
        assert!(!tv(">=17").accepts(&Value::Int(16), &env).unwrap());
        assert!(tv("<=64").accepts(&Value::Int(32), &env).unwrap());
        assert!(tv("linux").accepts(&Value::Str("linux".into()), &env).unwrap());
        assert!(!tv("linux").accepts(&Value::Str("aix".into()), &env).unwrap());
        assert!(tv("2").accepts(&Value::Float(2.0), &env).unwrap());
    }

    #[test]
    fn elasticity() {
        assert!(tv(">=17").is_elastic());
        assert!(!tv("300").is_elastic());
        assert!(!tv("*").is_elastic());
    }

    #[test]
    fn canonical_round_trips() {
        for src in ["*", ">=17", "<=9", "300", "linux"] {
            let v = tv(src);
            assert_eq!(tv(&v.canonical()), v, "round trip {src}");
        }
        // Expressions round-trip modulo parenthesization.
        let v = tv("{1200 / workerNodes}");
        let v2 = tv(&v.canonical());
        assert_eq!(v, v2);
    }

    #[test]
    fn node_to_value_converts_trees() {
        let nodes = parse_tree("{a {1 2} b}").unwrap();
        assert_eq!(
            node_to_value(&nodes[0]),
            Value::List(vec![
                Value::Str("a".into()),
                Value::List(vec![Value::Int(1), Value::Int(2)]),
                Value::Str("b".into()),
            ])
        );
    }
}
