//! The RSL value model.
//!
//! RSL is TCL-flavoured: every value has a canonical string form, and lists
//! are whitespace-separated words with brace grouping. [`Value`] keeps the
//! *typed* view (integers, floats, strings, lists) so that the expression
//! evaluator and the schema layer do not have to re-parse strings on every
//! use, while `Display` renders the canonical TCL form for the wire.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{Result, RslError};

/// A single RSL value: integer, float, string, or list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// An uninterpreted word.
    Str(String),
    /// A list of values (TCL braced list).
    List(Vec<Value>),
}

impl Value {
    /// Parses a bare word into the most specific value kind: `Int` if it
    /// parses as an integer, `Float` if it parses as a float, else `Str`.
    ///
    /// # Examples
    ///
    /// ```
    /// use harmony_rsl::Value;
    /// assert_eq!(Value::from_word("42"), Value::Int(42));
    /// assert_eq!(Value::from_word("1.5"), Value::Float(1.5));
    /// assert_eq!(Value::from_word("linux"), Value::Str("linux".into()));
    /// ```
    pub fn from_word(word: &str) -> Value {
        if let Ok(i) = word.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(x) = word.parse::<f64>() {
            if x.is_finite() {
                return Value::Float(x);
            }
        }
        Value::Str(word.to_owned())
    }

    /// Returns the numeric interpretation of this value.
    ///
    /// # Errors
    ///
    /// Returns [`RslError::Type`] for strings that do not parse as numbers
    /// and for lists.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(x) => Ok(*x),
            Value::Str(s) => parse_number(s),
            Value::List(_) => {
                Err(RslError::Type { op: "numeric conversion".into(), value: "a list".into() })
            }
        }
    }

    /// Returns the integer interpretation, truncating floats.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Value::as_f64`].
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            _ => Ok(self.as_f64()?.trunc() as i64),
        }
    }

    /// Returns the truthiness of the value: numbers are true when nonzero;
    /// strings `true`/`yes`/`on` are true, `false`/`no`/`off` false.
    ///
    /// # Errors
    ///
    /// Returns [`RslError::Type`] for other strings and for lists.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Int(i) => Ok(*i != 0),
            Value::Float(x) => Ok(*x != 0.0),
            Value::Str(s) => match s.as_str() {
                "true" | "yes" | "on" => Ok(true),
                "false" | "no" | "off" => Ok(false),
                _ => Err(RslError::Type {
                    op: "boolean conversion".into(),
                    value: format!("string `{s}`"),
                }),
            },
            Value::List(_) => {
                Err(RslError::Type { op: "boolean conversion".into(), value: "a list".into() })
            }
        }
    }

    /// Borrows the string content if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric equality across int/float, string equality otherwise.
    ///
    /// `Value::Int(2)` equals `Value::Float(2.0)` under this comparison even
    /// though the derived `PartialEq` distinguishes them.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Ok(a), Ok(b)) => a == b,
            _ => match (self, other) {
                (Value::List(a), Value::List(b)) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.loose_eq(y))
                }
                _ => self.canonical() == other.canonical(),
            },
        }
    }

    /// Renders the canonical TCL word for this value, brace-quoting words
    /// that contain whitespace or braces.
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// What [`Value::loose_eq`] compares of this value, worked out once.
    pub(crate) fn loose(&self) -> Loose {
        Loose { number: self.as_f64().ok(), word: self.canonical() }
    }
}

/// A value as [`Value::loose_eq`] compares it: its number, if it reads as
/// one, and its canonical word. Held against a node's attributes many
/// times, it builds no [`Value`] and no word.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Loose {
    number: Option<f64>,
    word: String,
}

impl Loose {
    /// `value.loose_eq(&Value::Str(attr))`, for the value this was made of.
    pub(crate) fn eq_word(&self, attr: &str) -> bool {
        if let (Some(a), Ok(b)) = (self.number, attr.parse::<f64>()) {
            return a == b;
        }
        displays_as(Word(attr), &self.word)
    }

    /// `value.loose_eq(&Value::Float(attr))`, for the value this was made
    /// of.
    pub(crate) fn eq_number(&self, attr: f64) -> bool {
        match self.number {
            Some(a) => a == attr,
            None => displays_as(Value::Float(attr), &self.word),
        }
    }
}

/// The number a word reads as: [`Value::as_f64`] of a `Str`.
pub(crate) fn parse_number(s: &str) -> Result<f64> {
    s.parse::<f64>().map_err(|_| RslError::Type {
        op: "numeric conversion".into(),
        value: format!("string `{s}`"),
    })
}

/// A word as [`Value::Str`] displays it, borrowed.
struct Word<'a>(&'a str);

impl fmt::Display for Word<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s.is_empty() || s.contains(|c: char| c.is_whitespace() || c == '{' || c == '}') {
            write!(f, "{{{s}}}")
        } else {
            f.write_str(s)
        }
    }
}

/// True when `value` displays as exactly `text`, compared piece by piece
/// as it is written, with no buffer.
fn displays_as(value: impl fmt::Display, text: &str) -> bool {
    /// What is left of `text` to match.
    struct Rest<'a>(&'a str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, piece: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(text);
    fmt::write(&mut rest, format_args!("{value}")).is_ok() && rest.0.is_empty()
}

/// The canonical TCL word (see [`Value::canonical`]), written straight into
/// the formatter.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{x:.1}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => Word(s).fmt(f),
            Value::List(items) => {
                f.write_str("{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Int(b as i64)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::List(items)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Value::List(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_word_prefers_int_then_float_then_str() {
        assert_eq!(Value::from_word("7"), Value::Int(7));
        assert_eq!(Value::from_word("-3"), Value::Int(-3));
        assert_eq!(Value::from_word("2.5"), Value::Float(2.5));
        assert_eq!(Value::from_word("1e3"), Value::Float(1000.0));
        assert_eq!(Value::from_word("harmony.cs.umd.edu"), Value::Str("harmony.cs.umd.edu".into()));
        // Infinities stay strings: RSL has no literal for them.
        assert_eq!(Value::from_word("inf"), Value::Str("inf".into()));
    }

    #[test]
    fn numeric_conversions() {
        assert_eq!(Value::Int(4).as_f64().unwrap(), 4.0);
        assert_eq!(Value::Float(2.9).as_i64().unwrap(), 2);
        assert_eq!(Value::Str("12".into()).as_f64().unwrap(), 12.0);
        assert!(Value::Str("linux".into()).as_f64().is_err());
        assert!(Value::List(vec![]).as_f64().is_err());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).as_bool().unwrap());
        assert!(!Value::Int(0).as_bool().unwrap());
        assert!(Value::Str("yes".into()).as_bool().unwrap());
        assert!(!Value::Str("off".into()).as_bool().unwrap());
        assert!(Value::Str("maybe".into()).as_bool().is_err());
    }

    #[test]
    fn loose_eq_crosses_int_float() {
        assert!(Value::Int(2).loose_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).loose_eq(&Value::Float(2.5)));
        assert!(Value::Str("linux".into()).loose_eq(&Value::Str("linux".into())));
        let a = Value::List(vec![Value::Int(1), Value::Float(2.0)]);
        let b = Value::List(vec![Value::Float(1.0), Value::Int(2)]);
        assert!(a.loose_eq(&b));
    }

    #[test]
    fn canonical_quotes_words_with_spaces() {
        assert_eq!(Value::Str("linux".into()).canonical(), "linux");
        assert_eq!(Value::Str("a b".into()).canonical(), "{a b}");
        assert_eq!(Value::Str(String::new()).canonical(), "{}");
        let list = Value::List(vec![Value::Int(1), Value::Str("x y".into())]);
        assert_eq!(list.canonical(), "{1 {x y}}");
    }

    #[test]
    fn display_matches_canonical() {
        let v = Value::List(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(v.to_string(), v.canonical());
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(0.5f64), Value::Float(0.5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Int(1));
        let v: Value = vec![Value::Int(1)].into_iter().collect();
        assert_eq!(v, Value::List(vec![Value::Int(1)]));
    }

    #[test]
    fn float_canonical_keeps_decimal_point() {
        // Floats that happen to be integral still render with a fractional
        // part so they round-trip as floats.
        assert_eq!(Value::Float(4.0).canonical(), "4.0");
        assert_eq!(Value::from_word("4.0"), Value::Float(4.0));
    }
}
