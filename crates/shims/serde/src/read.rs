//! The one JSON reader: [`Deserialize`] impls read their value straight
//! from it, token by token.
//!
//! Beyond strict JSON it accepts the bare tokens `NaN`, `Infinity` and
//! `-Infinity` the writer emits for non-finite floats.

use std::borrow::Cow;
use std::fmt;

use crate::{Content, Deserialize, Error};

/// JSON text being read, and the byte position in it.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader { src, pos: 0 }
    }

    /// An error at the current position.
    pub fn err(&self, msg: impl fmt::Display) -> Error {
        Error { msg: format!("{msg} at byte {}", self.pos) }
    }

    /// Succeeds when only whitespace is left.
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters")),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The next byte that is not whitespace, not consumed.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    /// Consumes the next non-whitespace byte, which must be `b`.
    pub(crate) fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format_args!("expected `{}`", char::from(b))))
        }
    }

    fn keyword(&mut self, word: &str, value: Content) -> Result<Content, Error> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid token"))
        }
    }

    /// A `null`, boolean or number token; `want` names what the caller
    /// expected, for the error when the next value is none of them.
    pub(crate) fn scalar(&mut self, want: &str) -> Result<Content, Error> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.keyword("null", Content::Null),
            Some(b't') => self.keyword("true", Content::Bool(true)),
            Some(b'f') => self.keyword("false", Content::Bool(false)),
            Some(b'N') => self.keyword("NaN", Content::F64(f64::NAN)),
            Some(b'I') => self.keyword("Infinity", Content::F64(f64::INFINITY)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'"') => Err(self.err(format_args!("expected {want}, found string"))),
            Some(b'[') => Err(self.err(format_args!("expected {want}, found sequence"))),
            Some(b'{') => Err(self.err(format_args!("expected {want}, found map"))),
            Some(c) => Err(self.err(format_args!("unexpected character `{}`", char::from(c)))),
        }
    }

    /// An integer when the text has no fraction or exponent and fits one
    /// (`I64`, else `U64`), a float otherwise.
    fn number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
            if self.byte() == Some(b'I') {
                return self.keyword("Infinity", Content::F64(f64::NEG_INFINITY));
            }
        }
        let mut is_float = false;
        while let Some(b) = self.byte() {
            match b {
                b'0'..=b'9' | b'+' | b'-' => {}
                b'.' | b'e' | b'E' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse() {
                return Ok(Content::I64(i));
            }
            if let Ok(u) = text.parse() {
                return Ok(Content::U64(u));
            }
        }
        text.parse().map(Content::F64).map_err(|_| self.err("invalid number"))
    }

    /// A string: borrowed from the input when it holds no escape.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        let mut unescaped = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.byte(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // Both ends sit on an ASCII byte or the end of the input.
            let run = &self.src[start..self.pos];
            match self.byte() {
                Some(b'"') if unescaped.is_empty() => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(run));
                }
                Some(b'"') => {
                    self.pos += 1;
                    unescaped.push_str(run);
                    return Ok(Cow::Owned(unescaped));
                }
                Some(b'\\') => {
                    unescaped.push_str(run);
                    self.pos += 1;
                    let c = match self.byte() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self.src.get(self.pos + 1..self.pos + 5);
                            let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                            let c = code.and_then(char::from_u32);
                            self.pos += 4;
                            c.ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    unescaped.push(c);
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Consumes `[` or `{`; false when the container is empty (and then
    /// closed too).
    pub fn begin(&mut self, open: u8) -> Result<bool, Error> {
        self.eat(open)?;
        let close = if open == b'[' { b']' } else { b'}' };
        Ok(!self.closes(close))
    }

    /// After an element: true when a `,` announces another one, false
    /// when `close` ends the container.
    pub fn more(&mut self, close: u8) -> Result<bool, Error> {
        if self.peek() == Some(b',') {
            self.pos += 1;
            Ok(true)
        } else if self.closes(close) {
            Ok(false)
        } else {
            Err(self.err(format_args!("expected `,` or `{}`", char::from(close))))
        }
    }

    fn closes(&mut self, close: u8) -> bool {
        let closes = self.peek() == Some(close);
        self.pos += usize::from(closes);
        closes
    }

    /// An object key and its `:`.
    pub fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        let key = self.string()?;
        self.eat(b':')?;
        Ok(key)
    }

    /// Reads past one value of any shape, checking it is well formed.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(open @ (b'[' | b'{')) => {
                let close = if open == b'[' { b']' } else { b'}' };
                let mut more = self.begin(open)?;
                while more {
                    if open == b'{' {
                        self.key()?;
                    }
                    self.skip()?;
                    more = self.more(close)?;
                }
                Ok(())
            }
            _ => self.scalar("a value").map(drop),
        }
    }

    /// Reads a struct field's value into `slot`; a key seen before keeps
    /// its first value and the repeat is skipped.
    pub fn field<T: Deserialize>(&mut self, slot: &mut Option<T>) -> Result<(), Error> {
        match slot {
            Some(_) => self.skip(),
            None => {
                *slot = Some(T::deserialize(self)?);
                Ok(())
            }
        }
    }

    /// The next element of a tuple opened with `begin(b'[')`; `more` is
    /// what the last `begin` or `more` returned.
    pub fn element<T: Deserialize>(&mut self, more: &mut bool) -> Result<T, Error> {
        if !*more {
            return Err(self.err("missing tuple element"));
        }
        let value = T::deserialize(self)?;
        *more = self.more(b']')?;
        Ok(value)
    }

    /// Skips a tuple's elements past its arity and its `]`.
    pub fn end_tuple(&mut self, mut more: bool) -> Result<(), Error> {
        while more {
            self.skip()?;
            more = self.more(b']')?;
        }
        Ok(())
    }

    /// An externally tagged enum value: `"Variant"`, or a one-entry
    /// object `{"Variant": payload}` read up to its payload. The flag
    /// says whether a payload follows, to be read and then closed with
    /// [`Reader::end_variant`].
    pub fn variant(&mut self) -> Result<(Cow<'a, str>, bool), Error> {
        match self.peek() {
            Some(b'"') => Ok((self.string()?, false)),
            Some(b'{') if self.begin(b'{')? => Ok((self.key()?, true)),
            _ => Err(self.err("expected enum representation")),
        }
    }

    /// Closes the one-entry object around a variant's payload.
    pub fn end_variant(&mut self) -> Result<(), Error> {
        match self.more(b'}')? {
            true => Err(self.err("an enum object has exactly one entry")),
            false => Ok(()),
        }
    }
}
