//! Offline stand-in for `serde_json`: the entry points over the shimmed
//! `serde`'s one JSON [`Writer`] and one [`Reader`].
//!
//! Divergences from strict JSON, chosen deliberately so the workspace's
//! own values round-trip: non-finite floats are written as the bare
//! tokens `Infinity`, `-Infinity` and `NaN` (and accepted back), and
//! maps with non-string keys are rendered as arrays of `[key, value]`
//! pairs.

use serde::{Content, Deserialize, Reader, Serialize, Writer};

pub use serde::Error;

/// Convenience alias matching the real crate.
pub type Result<T> = std::result::Result<T, Error>;

fn write<T: Serialize>(value: &T, pretty: bool) -> String {
    let mut w = Writer::new(pretty);
    value.serialize(&mut w);
    w.into_string()
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    Ok(write(value, false))
}

/// Serializes `value` to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    Ok(write(value, true))
}

/// Parses JSON text into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Parses JSON text into the generic value.
pub fn from_str_content(s: &str) -> Result<Content> {
    from_str(s)
}

/// Serializes a generic value to compact JSON.
pub fn content_to_string(v: &Content) -> String {
    write(v, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42i32).unwrap(), "42");
        assert_eq!(from_str::<i32>("42").unwrap(), 42);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b".to_string()).unwrap(), r#""a\"b""#);
        assert_eq!(from_str::<String>(r#""a\"b""#).unwrap(), "a\"b");
    }

    #[test]
    fn floats_keep_fraction_marker() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(to_string(&1e15f64).unwrap(), "1000000000000000");
        assert_eq!(from_str::<f64>("1.0").unwrap(), 1.0);
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "Infinity");
        assert_eq!(from_str::<f64>("-Infinity").unwrap(), f64::NEG_INFINITY);
        assert!(from_str::<f64>("NaN").unwrap().is_nan());
    }

    #[test]
    fn nested_containers() {
        let v: Vec<(String, f64)> = vec![("a".into(), 1.5), ("b".into(), 2.0)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, r#"[["a",1.5],["b",2.0]]"#);
        assert_eq!(from_str::<Vec<(String, f64)>>(&s).unwrap(), v);
    }

    #[test]
    fn object_round_trip() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("x".to_string(), 1u32);
        m.insert("y".to_string(), 2u32);
        let s = to_string(&m).unwrap();
        assert_eq!(s, r#"{"x":1,"y":2}"#);
        assert_eq!(from_str::<std::collections::BTreeMap<String, u32>>(&s).unwrap(), m);
    }

    #[test]
    fn pretty_is_reparseable() {
        let v: Vec<Vec<u8>> = vec![vec![1, 2], vec![]];
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "[\n  [\n    1,\n    2\n  ],\n  []\n]");
        assert_eq!(from_str::<Vec<Vec<u8>>>(&s).unwrap(), v);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(from_str::<String>(r#""Abé""#).unwrap(), "Abé");
        assert!(from_str::<String>(r#""\ud800""#).is_err());
    }

    #[test]
    fn content_keeps_number_shapes_and_key_order() {
        let text = r#"{"b":[1,18446744073709551615,-2,2.5,null,true],"a":"x"}"#;
        let v = from_str_content(text).unwrap();
        let Content::Map(entries) = &v else { panic!("not a map: {v:?}") };
        assert_eq!(entries[0].0, Content::Str("b".into()));
        assert_eq!(
            entries[0].1,
            Content::Seq(vec![
                Content::I64(1),
                Content::U64(u64::MAX),
                Content::I64(-2),
                Content::F64(2.5),
                Content::Null,
                Content::Bool(true),
            ])
        );
        assert_eq!(content_to_string(&v), text);
        assert!(from_str_content("[1,]").is_err());
        assert!(from_str_content("1 2").is_err());
    }
}
