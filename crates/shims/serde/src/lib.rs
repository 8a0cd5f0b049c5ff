//! Offline stand-in for the `serde` framework.
//!
//! The real serde is a format-agnostic visitor framework; this shim keeps
//! the same *spelling* at use sites (`#[derive(Serialize, Deserialize)]`,
//! `use serde::{Serialize, Deserialize}`) for the one format the
//! workspace uses, JSON. [`Serialize`] writes a value straight into the
//! one JSON [`Writer`] and [`Deserialize`] reads it straight from the one
//! [`Reader`]: no intermediate tree. [`Content`] is the generic JSON
//! value, for callers that inspect a document without a type for it.
//!
//! Enum representation follows serde's externally-tagged convention:
//! unit variants become strings, payload variants become single-entry
//! maps keyed by the variant name. Maps whose keys do not all write as
//! strings become arrays of `[key, value]` pairs.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

mod read;
mod write;

pub use read::Reader;
pub use write::Writer;

/// A JSON value of any shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer that fits `i64`.
    I64(i64),
    /// Integer above `i64::MAX`.
    U64(u64),
    /// Any other number (non-finite values are representable).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Content>),
    /// Object entries in document order. Read from JSON the keys are
    /// always `Str`; written, a map with any other key becomes pairs.
    Map(Vec<(Content, Content)>),
}

impl Content {
    /// Numeric view across the three number shapes.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Content::I64(i) => Some(i as f64),
            Content::U64(u) => Some(u as f64),
            Content::F64(f) => Some(f),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// Malformed JSON, or JSON that does not have the target type's shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    fn serialize(&self, w: &mut Writer);
}

/// Types that read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one JSON value as `Self`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// A required struct field's value, or the error naming it (`serde_derive`
/// support).
pub fn required<T>(slot: Option<T>, ty: &str, name: &str) -> Result<T, Error> {
    slot.ok_or_else(|| Error { msg: format!("missing field `{name}` for {ty}") })
}

fn mismatch(r: &Reader<'_>, want: &str, found: Content) -> Error {
    r.err(format_args!("expected {want}, found {}", found.kind()))
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! ints {
    ($($write:ident: $($t:ty),*;)*) => {$($(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.$write(*self as _);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let wide = match r.scalar("integer")? {
                    Content::I64(i) => i128::from(i),
                    Content::U64(u) => i128::from(u),
                    other => return Err(mismatch(r, "integer", other)),
                };
                <$t>::try_from(wide).map_err(|_| r.err("integer out of range"))
            }
        }
    )*)*};
}

ints! {
    i64: i32, i64;
    u64: u8, u32, u64, usize;
}

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let v = r.scalar("number")?;
        v.as_f64().ok_or_else(|| mismatch(r, "number", v))
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.scalar("bool")? {
            Content::Bool(b) => Ok(b),
            other => Err(mismatch(r, "bool", other)),
        }
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            None => w.null(),
            Some(v) => v.serialize(w),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.peek() == Some(b'n') {
            r.scalar("null")?;
            return Ok(None);
        }
        T::deserialize(r).map(Some)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn serialize(&self, w: &mut Writer) {
        w.begin('{');
        w.field("start", &self.start);
        w.field("end", &self.end);
        w.end('}');
    }
}

impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut start, mut end) = (None, None);
        let mut more = r.begin(b'{')?;
        while more {
            match &*r.key()? {
                "start" => r.field(&mut start)?,
                "end" => r.field(&mut end)?,
                _ => r.skip()?,
            }
            more = r.more(b'}')?;
        }
        Ok(required(start, "Range", "start")?..required(end, "Range", "end")?)
    }
}

// ---------------------------------------------------------------------------
// Sequences, tuples and maps
// ---------------------------------------------------------------------------

fn read_seq<T: Deserialize, C: Default + Extend<T>>(r: &mut Reader<'_>) -> Result<C, Error> {
    let mut out = C::default();
    let mut more = r.begin(b'[')?;
    while more {
        out.extend(Some(T::deserialize(r)?));
        more = r.more(b']')?;
    }
    Ok(out)
}

macro_rules! seqs {
    ($($c:ident),*) => {$(
        impl<T: Serialize> Serialize for $c<T> {
            fn serialize(&self, w: &mut Writer) {
                w.seq(self);
            }
        }
        impl<T: Deserialize> Deserialize for $c<T> {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                read_seq(r)
            }
        }
    )*};
}

seqs!(Vec, VecDeque);

macro_rules! tuples {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin('[');
                $(w.item(&self.$n);)+
                w.end(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let mut more = r.begin(b'[')?;
                let value = ($(r.element::<$t>(&mut more)?,)+);
                r.end_tuple(more)?;
                Ok(value)
            }
        }
    )*};
}

tuples! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Map entries from an object (each key read from its string) or from an
/// array of `[key, value]` pairs, in document order: a map type keeps a
/// repeated key's last value.
fn read_map<K, V, M>(r: &mut Reader<'_>) -> Result<M, Error>
where
    K: Deserialize,
    V: Deserialize,
    M: Default + Extend<(K, V)>,
{
    let mut out = M::default();
    if r.peek() == Some(b'[') {
        let mut more = r.begin(b'[')?;
        while more {
            let mut pair = r.begin(b'[')?;
            let entry = (r.element(&mut pair)?, r.element(&mut pair)?);
            if pair {
                return Err(r.err("expected [key, value] pair"));
            }
            out.extend(Some(entry));
            more = r.more(b']')?;
        }
        return Ok(out);
    }
    let mut more = r.begin(b'{')?;
    while more {
        if r.peek() != Some(b'"') {
            return Err(r.err("expected `\"`"));
        }
        let key = K::deserialize(r)?;
        r.eat(b':')?;
        out.extend(Some((key, V::deserialize(r)?)));
        more = r.more(b'}')?;
    }
    Ok(out)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.map(self.iter());
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_map(r)
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.map(self.iter());
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_map(r)
    }
}

impl Serialize for Content {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Content::Null => w.null(),
            Content::Bool(b) => w.bool(*b),
            Content::I64(i) => w.i64(*i),
            Content::U64(u) => w.u64(*u),
            Content::F64(x) => w.f64(*x),
            Content::Str(s) => w.str(s),
            Content::Seq(items) => w.seq(items),
            Content::Map(entries) => w.map(entries.iter().map(|(k, v)| (k, v))),
        }
    }
}

impl Deserialize for Content {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.peek() {
            Some(b'"') => Ok(Content::Str(String::deserialize(r)?)),
            Some(b'[') => read_seq(r).map(Content::Seq),
            Some(b'{') => read_map(r).map(Content::Map),
            _ => r.scalar("a value"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize>(value: &T) -> (String, T) {
        let mut w = Writer::new(false);
        value.serialize(&mut w);
        let text = w.into_string();
        let mut r = Reader::new(&text);
        let back = T::deserialize(&mut r).unwrap();
        r.finish().unwrap();
        (text, back)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(round_trip(&42i32), ("42".into(), 42));
        assert_eq!(round_trip(&u64::MAX).1, u64::MAX);
        assert_eq!(round_trip(&i64::MIN).1, i64::MIN);
        assert_eq!(round_trip(&1.5f64), ("1.5".into(), 1.5));
        assert_eq!(round_trip(&-3.0f64), ("-3.0".into(), -3.0));
        assert_eq!(round_trip(&"é".to_string()), ("\"é\"".into(), "é".into()));
        assert_eq!(round_trip(&None::<i32>), ("null".into(), None));
        assert_eq!(round_trip(&"a\u{1}".to_string()).0, r#""a\u0001""#);
    }

    #[test]
    fn cross_width_integers() {
        let read = |text: &str| u32::deserialize(&mut Reader::new(text));
        assert_eq!(read("9"), Ok(9));
        assert!(read("-1").is_err());
        assert!(read("4294967296").is_err());
        assert_eq!(f64::deserialize(&mut Reader::new("3")), Ok(3.0));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1i64, "a".to_string()), (2, "b".to_string())];
        assert_eq!(round_trip(&v), (r#"[[1,"a"],[2,"b"]]"#.into(), v));
        let m: BTreeMap<String, u32> = [("k".to_string(), 4)].into();
        assert_eq!(round_trip(&m), (r#"{"k":4}"#.into(), m));
        let pairs: BTreeMap<u32, u32> = [(1, 2)].into();
        assert_eq!(round_trip(&pairs), ("[[1,2]]".into(), pairs));
        assert_eq!(round_trip(&(0..3)), (r#"{"start":0,"end":3}"#.into(), 0..3));
    }

    #[test]
    fn pretty_layout() {
        let m: BTreeMap<u8, Vec<u8>> = [(1, vec![]), (2, vec![3])].into();
        let mut w = Writer::new(true);
        m.serialize(&mut w);
        assert_eq!(w.into_string(), "[\n  [\n    1,\n    []\n  ],\n  [\n    2,\n    [\n      3\n    ]\n  ]\n]");
    }
}
