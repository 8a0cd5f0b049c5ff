//! The one JSON writer: [`Serialize`] impls write their value straight
//! into it, compact or two-space indented.

use std::fmt::Write as _;

use crate::Serialize;

/// A JSON document being written.
///
/// Containers are written as `begin`, one [`Writer::item`] or
/// [`Writer::field`] per element, then `end`; the writer places the
/// commas, and in pretty form the newlines and indentation.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Open containers around the next value.
    depth: usize,
    /// No element has been written into the innermost open container.
    first: bool,
}

impl Writer {
    /// An empty document: compact, or indented by two spaces per level.
    pub fn new(pretty: bool) -> Writer {
        Writer { out: String::with_capacity(128), pretty, depth: 0, first: true }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A signed integer.
    pub(crate) fn i64(&mut self, i: i64) {
        if i < 0 {
            self.out.push('-');
        }
        self.u64(i.unsigned_abs());
    }

    /// An unsigned integer.
    pub(crate) fn u64(&mut self, mut u: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (u % 10) as u8;
            u /= 10;
            if u == 0 {
                break;
            }
        }
        self.out.push_str(std::str::from_utf8(&digits[at..]).expect("digits are ascii"));
    }

    /// A float. Non-finite values are the bare tokens `NaN`, `Infinity`
    /// and `-Infinity`; an integer-valued float below 1e15 keeps a `.0`
    /// so it reads back as a float.
    pub(crate) fn f64(&mut self, x: f64) {
        if x.is_nan() {
            self.out.push_str("NaN");
        } else if x.is_infinite() {
            self.out.push_str(if x > 0.0 { "Infinity" } else { "-Infinity" });
        } else if x == x.trunc() && x.abs() < 1e15 {
            if x == 0.0 && x.is_sign_negative() {
                self.out.push('-');
            }
            self.i64(x as i64);
            self.out.push_str(".0");
        } else {
            let _ = write!(self.out, "{x}");
        }
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut start = 0;
        for (at, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[start..at]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            start = at + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    /// Opens an array (`[`) or an object (`{`).
    pub fn begin(&mut self, open: char) {
        self.out.push(open);
        self.depth += 1;
        self.first = true;
    }

    /// Closes the innermost container with `close`.
    pub fn end(&mut self, close: char) {
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline();
        }
        self.out.push(close);
        self.first = false;
    }

    /// Starts the next element of the innermost container.
    fn elem(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        if self.pretty {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        (0..self.depth).for_each(|_| self.out.push_str("  "));
    }

    fn colon(&mut self) {
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// One array element.
    pub fn item<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.elem();
        value.serialize(self);
    }

    /// The key of the next object entry; `name` needs no escaping (it is
    /// a field or variant identifier).
    pub fn key(&mut self, name: &str) {
        self.elem();
        self.out.push('"');
        self.out.push_str(name);
        self.out.push('"');
        self.colon();
    }

    /// One object entry.
    pub fn field<T: Serialize + ?Sized>(&mut self, name: &str, value: &T) {
        self.key(name);
        value.serialize(self);
    }

    /// An array of `items`.
    pub(crate) fn seq<'a, T: Serialize + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        self.begin('[');
        items.into_iter().for_each(|item| self.item(item));
        self.end(']');
    }

    /// A map: an object when every key writes as a string, otherwise an
    /// array of `[key, value]` pairs. Decided per map: the object is
    /// written until a key turns out not to be a string, then the map is
    /// written again as pairs over it.
    pub fn map<'a, K, V, I>(&mut self, entries: I)
    where
        K: Serialize + 'a,
        V: Serialize + 'a,
        I: Iterator<Item = (&'a K, &'a V)> + Clone,
    {
        let (mark, first) = (self.out.len(), self.first);
        self.begin('{');
        for (k, v) in entries.clone() {
            self.elem();
            let at = self.out.len();
            k.serialize(self);
            if self.out.as_bytes()[at] != b'"' {
                self.out.truncate(mark);
                (self.depth, self.first) = (self.depth - 1, first);
                self.begin('[');
                for (k, v) in entries {
                    self.elem();
                    self.begin('[');
                    self.item(k);
                    self.item(v);
                    self.end(']');
                }
                return self.end(']');
            }
            self.colon();
            v.serialize(self);
        }
        self.end('}');
    }
}
