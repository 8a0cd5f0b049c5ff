//! Byte spans attached to parsed RSL constructs.
//!
//! A [`Span`] is the half-open byte range `[start, end)` that a construct
//! occupies in the source text it was parsed from. Spans are *positional
//! metadata*, not semantics: two specs that canonicalize to the same text
//! are the same spec even if they were parsed from differently formatted
//! sources. [`Span`]'s `PartialEq` therefore always returns `true`, so
//! adding spans to spec structs does not disturb round-trip equality
//! (`parse(src) == parse(canonical(parse(src)))`).
//!
//! Use [`Span::pos`] to resolve a span's start to a line:column
//! [`Pos`] against the original source.

use serde::{Deserialize, Serialize};

use crate::error::Pos;

/// Half-open byte range `[start, end)` in the originating source text.
///
/// Compares equal to every other span (see module docs); use
/// [`Span::same_range`] when the actual byte range matters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first byte of the construct.
    #[serde(default)]
    pub start: usize,
    /// Byte offset one past the last byte of the construct.
    #[serde(default)]
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The empty span at offset 0, used for programmatically built specs.
    pub fn none() -> Self {
        Span::default()
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Resolves the span's start offset to a line:column position in `src`.
    pub fn pos(&self, src: &str) -> Pos {
        Pos::at(src, self.start)
    }

    /// The source text the span covers, if it lies within `src`.
    pub fn slice<'s>(&self, src: &'s str) -> Option<&'s str> {
        src.get(self.start..self.end)
    }

    /// Byte-range identity (unlike `==`, which is always true).
    pub fn same_range(&self, other: &Span) -> bool {
        self.start == other.start && self.end == other.end
    }

    /// Smallest span covering both `self` and `other`; an empty span is
    /// treated as absent and does not widen the result.
    pub fn merge(&self, other: &Span) -> Span {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }
}

// Spans are positional metadata: equality of parsed specs must not depend
// on where in the source a construct appeared.
impl PartialEq for Span {
    fn eq(&self, _other: &Span) -> bool {
        true
    }
}

impl Eq for Span {}

// Consistent with the all-equal `PartialEq`: every span hashes identically.
impl std::hash::Hash for Span {
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_compare_equal_regardless_of_range() {
        assert_eq!(Span::new(0, 4), Span::new(7, 19));
        assert!(!Span::new(0, 4).same_range(&Span::new(7, 19)));
        assert!(Span::new(3, 8).same_range(&Span::new(3, 8)));
    }

    #[test]
    fn pos_resolves_line_and_column() {
        let src = "abc\ndef ghi";
        let span = Span::new(8, 11);
        let pos = span.pos(src);
        assert_eq!((pos.line, pos.column), (2, 5));
        assert_eq!(span.slice(src), Some("ghi"));
    }

    #[test]
    fn merge_ignores_empty_spans() {
        let a = Span::new(4, 9);
        assert!(a.merge(&Span::none()).same_range(&a));
        assert!(Span::none().merge(&a).same_range(&a));
        assert!(a.merge(&Span::new(1, 5)).same_range(&Span::new(1, 9)));
    }
}
