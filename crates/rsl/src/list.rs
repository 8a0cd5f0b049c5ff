//! TCL-style list lexing.
//!
//! RSL rides on TCL list syntax: a list is a sequence of *words* separated
//! by whitespace, where a word is either a bare run of non-whitespace
//! characters, a brace-quoted group `{ ... }` (nesting, no substitution), or
//! a double-quoted group `" ... "`. Backslash escapes the next character in
//! bare and quoted words. `#` at the start of a line begins a comment that
//! runs to the end of the line.
//!
//! One [`Lexer`] reads the syntax, borrowing each word from the source
//! where it can; message parsers on the request path iterate it directly.
//! Three collected views are provided on top of it:
//!
//! * [`split`] produces the *shallow* word list, keeping braced content as
//!   raw text (useful for lazy/streaming handling and for expressions, which
//!   have their own grammar);
//! * [`parse_tree`] recursively parses braced words into a [`Node`] tree;
//! * [`parse_tree_spanned`] does the same but records each word's byte
//!   [`Span`] in the original source, for diagnostics that point at the
//!   offending construct.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::error::{Pos, Result, RslError};
use crate::span::Span;

/// One shallow word of a TCL list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Item {
    /// A bare (or double-quoted) word, with escapes resolved.
    Word(String),
    /// A brace-quoted group; the field holds the *raw* inner text, with the
    /// outer braces stripped and inner text untouched.
    Braced(String),
}

impl Item {
    /// The textual content of the word regardless of quoting.
    pub fn text(&self) -> &str {
        match self {
            Item::Word(s) | Item::Braced(s) => s,
        }
    }
}

/// A fully parsed TCL word tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// A leaf word.
    Word(String),
    /// A braced group parsed recursively into sub-nodes.
    List(Vec<Node>),
}

impl Node {
    /// The leaf text, if this is a [`Node::Word`].
    pub fn word(&self) -> Option<&str> {
        match self {
            Node::Word(s) => Some(s),
            Node::List(_) => None,
        }
    }

    /// The children, if this is a [`Node::List`].
    pub fn list(&self) -> Option<&[Node]> {
        match self {
            Node::List(items) => Some(items),
            Node::Word(_) => None,
        }
    }

    /// Renders the node back to canonical TCL text.
    pub fn canonical(&self) -> String {
        match self {
            Node::Word(s) => {
                if s.is_empty()
                    || s.contains(|c: char| c.is_whitespace() || c == '{' || c == '}' || c == '"')
                {
                    format!("{{{s}}}")
                } else {
                    s.clone()
                }
            }
            Node::List(items) => {
                let inner = items.iter().map(Node::canonical).collect::<Vec<_>>().join(" ");
                format!("{{{inner}}}")
            }
        }
    }
}

/// A parsed TCL word tree that remembers where each word came from.
///
/// The span of a [`SpannedNode::Word`] covers the token including any
/// quotes; the span of a [`SpannedNode::List`] covers the braces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpannedNode {
    /// A leaf word with its source span.
    Word(String, Span),
    /// A braced group parsed recursively into sub-nodes, with the span of
    /// the whole group.
    List(Vec<SpannedNode>, Span),
}

impl SpannedNode {
    /// The byte span this node covers in the original source.
    pub fn span(&self) -> Span {
        match self {
            SpannedNode::Word(_, span) | SpannedNode::List(_, span) => *span,
        }
    }

    /// The leaf text, if this is a [`SpannedNode::Word`].
    pub fn word(&self) -> Option<&str> {
        match self {
            SpannedNode::Word(s, _) => Some(s),
            SpannedNode::List(..) => None,
        }
    }

    /// The children, if this is a [`SpannedNode::List`].
    pub fn list(&self) -> Option<&[SpannedNode]> {
        match self {
            SpannedNode::List(items, _) => Some(items),
            SpannedNode::Word(..) => None,
        }
    }

    /// Drops the spans, yielding the plain [`Node`] tree.
    pub fn to_node(&self) -> Node {
        match self {
            SpannedNode::Word(s, _) => Node::Word(s.clone()),
            SpannedNode::List(items, _) => Node::List(items.iter().map(Self::to_node).collect()),
        }
    }

    /// Renders the node back to canonical TCL text (spans are not rendered).
    pub fn canonical(&self) -> String {
        self.to_node().canonical()
    }
}

/// One shallow word as the [`Lexer`] hands it out: borrowed from the source
/// wherever the word's text *is* a slice of the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// A bare (or double-quoted) word, with escapes resolved. Owned only
    /// when an escape — or a non-ASCII byte, which the byte-wise lexer
    /// widens to one `char` each — makes it differ from the source text.
    Word(Cow<'a, str>),
    /// A brace-quoted group: the raw inner text, outer braces stripped.
    Braced(&'a str),
}

impl<'a> Token<'a> {
    /// The textual content of the word regardless of quoting.
    pub fn text(&self) -> &str {
        match self {
            Token::Word(s) => s,
            Token::Braced(s) => s,
        }
    }

    /// [`Token::text`] by value: the borrow of the source, where there is one.
    pub fn into_text(self) -> Cow<'a, str> {
        match self {
            Token::Word(s) => s,
            Token::Braced(s) => Cow::Borrowed(s),
        }
    }
}

impl From<Token<'_>> for Item {
    fn from(token: Token<'_>) -> Item {
        match token {
            Token::Word(s) => Item::Word(s.into_owned()),
            Token::Braced(s) => Item::Braced(s.to_owned()),
        }
    }
}

/// Whitespace as the lexer sees it: one byte at a time, each read as the
/// `char` of the same number — so U+0085 and U+00A0 count, wherever the
/// bytes `0x85` and `0xA0` occur.
const fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ' | 0x85 | 0xA0)
}

/// The bytes a word holds verbatim wherever they occur in it: ASCII that
/// neither ends a bare word, nor closes a quoted one, nor escapes.
static VERBATIM: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x80 {
        table[b] = !is_space(b as u8) && !matches!(b as u8, b'{' | b'}' | b'"' | b'\\');
        b += 1;
    }
    table
};

/// Resolves the escapes of a bare or quoted word's raw bytes: a backslash
/// yields the byte after it, and every byte becomes one `char`.
fn unescape(raw: &[u8]) -> String {
    let mut word = String::with_capacity(raw.len());
    let mut k = 0;
    while k < raw.len() {
        if raw[k] == b'\\' && k + 1 < raw.len() {
            k += 1;
        }
        word.push(raw[k] as char);
        k += 1;
    }
    word
}

/// The offset of the first of the 8 bytes packed little-endian in `chunk`
/// that is `{`, `}` or `\`, the bytes a braced group's scan must stop at.
/// A byte equal to `b` is a zero byte of `x = chunk ^ (b * ONES)`, and
/// `(x - ONES) & !x & HIGHS` flags every zero byte of `x`. It may also
/// flag a byte above a zero byte, whose borrow it took, but never one
/// below: the lowest flag is exact.
#[inline]
fn first_brace_or_backslash(chunk: u64) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let flags = |b: u8| {
        let x = chunk ^ (ONES * u64::from(b));
        x.wrapping_sub(ONES) & !x & HIGHS
    };
    let found = flags(b'{') | flags(b'}') | flags(b'\\');
    (found != 0).then(|| found.trailing_zeros() as usize / 8)
}

/// The one TCL list lexer: an iterator over the shallow words of a source
/// range, each with its absolute byte [`Span`]. It allocates only for
/// words whose text is not a slice of the source (see [`Token::Word`]);
/// [`split`], [`split_spanned`] and the tree parsers collect from it.
///
/// After the first error the iterator is exhausted.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    full: &'a str,
    /// `full`'s bytes up to the end of the range being lexed.
    bytes: &'a [u8],
    pos: usize,
    at_line_start: bool,
}

impl<'a> Lexer<'a> {
    /// Lexes all of `src`.
    #[inline]
    pub fn new(src: &'a str) -> Self {
        Self::range(src, 0, src.len())
    }

    /// Lexes `full[lo..hi]`. Spans and error positions are resolved
    /// against `full`, so nested levels of [`parse_tree`] /
    /// [`parse_tree_spanned`] report positions in the original source
    /// rather than in the re-split inner text.
    #[inline]
    fn range(full: &'a str, lo: usize, hi: usize) -> Self {
        Lexer { full, bytes: &full.as_bytes()[..hi], pos: lo, at_line_start: true }
    }

    /// Ends the iteration with `err`.
    fn fail(&mut self, err: RslError) -> Option<Result<(Token<'a>, Span)>> {
        self.pos = self.bytes.len();
        Some(Err(err))
    }

    /// Scans a bare word (`quoted == false`, from `from` to whitespace or
    /// a brace) or the inside of a quoted one (to the closing quote).
    /// Returns where the scan stopped and whether the text scanned is the
    /// word as is — no escape pair, no byte to widen.
    #[inline]
    fn scan_word(&self, from: usize, quoted: bool) -> (usize, bool) {
        let bytes = self.bytes;
        let (mut j, mut plain) = (from, true);
        loop {
            // Most of most words: bytes that are the word as is.
            while bytes.get(j).is_some_and(|&b| VERBATIM[b as usize]) {
                j += 1;
            }
            let Some(&b) = bytes.get(j) else { break };
            let ends = if quoted { b == b'"' } else { is_space(b) || b == b'{' || b == b'}' };
            if ends {
                break;
            }
            if b == b'\\' && j + 1 < bytes.len() {
                plain = false;
                j += 2;
                continue;
            }
            plain &= b.is_ascii();
            j += 1;
        }
        (j, plain)
    }

    #[inline]
    fn word(&self, lo: usize, hi: usize, plain: bool) -> Token<'a> {
        Token::Word(if plain {
            Cow::Borrowed(&self.full[lo..hi])
        } else {
            Cow::Owned(unescape(&self.bytes[lo..hi]))
        })
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<(Token<'a>, Span)>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (full, bytes) = (self.full, self.bytes);
        let mut i = self.pos;
        // Whitespace and `#` comments that start a line.
        loop {
            let &b = bytes.get(i)?;
            if is_space(b) {
                self.at_line_start |= b == b'\n';
                i += 1;
            } else if b == b'#' && self.at_line_start {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            } else {
                break;
            }
        }
        self.at_line_start = false;
        let start = i;
        let (token, end) = match bytes[i] {
            b'{' => {
                let mut depth = 0usize;
                let mut j = i;
                loop {
                    // Most of a group: runs that hold no brace and no
                    // backslash, passed over 8 bytes at a time up to the
                    // next byte that is one.
                    while let Some(chunk) = bytes.get(j..).and_then(<[u8]>::first_chunk) {
                        if let Some(at) = first_brace_or_backslash(u64::from_le_bytes(*chunk)) {
                            j += at;
                            break;
                        }
                        j += 8;
                    }
                    match bytes.get(j) {
                        None => {
                            return self.fail(RslError::Unterminated {
                                what: "{",
                                pos: Pos::at(full, start),
                            })
                        }
                        Some(b'{') => depth += 1,
                        Some(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        // Backslash inside braces escapes the next byte
                        // (notably `\{` and `\}`).
                        Some(b'\\') => j += 1,
                        Some(_) => {}
                    }
                    j += 1;
                }
                (Token::Braced(&full[start + 1..j]), j + 1)
            }
            b'}' => {
                return self.fail(RslError::UnexpectedClose { what: '}', pos: Pos::at(full, i) });
            }
            b'"' => {
                let (j, plain) = self.scan_word(i + 1, true);
                if j >= bytes.len() {
                    return self
                        .fail(RslError::Unterminated { what: "\"", pos: Pos::at(full, start) });
                }
                (self.word(i + 1, j, plain), j + 1)
            }
            _ => {
                let (j, plain) = self.scan_word(i, false);
                (self.word(i, j, plain), j)
            }
        };
        self.pos = end;
        Some(Ok((token, Span::new(start, end))))
    }
}

/// Splits `src` into shallow [`Item`]s.
///
/// # Errors
///
/// Returns [`RslError::Unterminated`] for unclosed braces or quotes and
/// [`RslError::UnexpectedClose`] for a stray `}`.
///
/// # Examples
///
/// ```
/// use harmony_rsl::list::{split, Item};
/// let items = split("node server {seconds 42}").unwrap();
/// assert_eq!(items[0], Item::Word("node".into()));
/// assert_eq!(items[2], Item::Braced("seconds 42".into()));
/// ```
pub fn split(src: &str) -> Result<Vec<Item>> {
    Lexer::new(src).map(|token| Ok(token?.0.into())).collect()
}

/// Splits `src` into shallow [`Item`]s, each with its byte [`Span`].
pub fn split_spanned(src: &str) -> Result<Vec<(Item, Span)>> {
    Lexer::new(src).map(|token| token.map(|(token, span)| (token.into(), span))).collect()
}

fn parse_tree_spanned_range(full: &str, lo: usize, hi: usize) -> Result<Vec<SpannedNode>> {
    // A level is lexed to its end before any child is, so the first error
    // reported is the shallowest one.
    let tokens = Lexer::range(full, lo, hi).collect::<Result<Vec<_>>>()?;
    let mut nodes = Vec::with_capacity(tokens.len());
    for (token, span) in tokens {
        nodes.push(match token {
            Token::Word(w) => SpannedNode::Word(w.into_owned(), span),
            Token::Braced(_) => {
                // The raw inner text sits between the braces, so child
                // offsets stay absolute in the original source.
                let children = parse_tree_spanned_range(full, span.start + 1, span.end - 1)?;
                SpannedNode::List(children, span)
            }
        });
    }
    Ok(nodes)
}

/// Recursively parses `src` into a [`Node`] forest: every shallow braced
/// item is re-split into children.
///
/// # Errors
///
/// Propagates the same errors as [`split`] from any nesting level, with
/// positions resolved against the original `src`.
pub fn parse_tree(src: &str) -> Result<Vec<Node>> {
    Ok(parse_tree_spanned(src)?.iter().map(SpannedNode::to_node).collect())
}

/// Like [`parse_tree`], but every node carries the byte [`Span`] it covers
/// in `src`. Word spans include quotes; list spans include the braces.
pub fn parse_tree_spanned(src: &str) -> Result<Vec<SpannedNode>> {
    parse_tree_spanned_range(src, 0, src.len())
}

/// Renders a node forest back to canonical text (single spaces, canonical
/// brace quoting). `parse_tree(canonicalize(nodes))` reproduces `nodes`.
pub fn canonicalize(nodes: &[Node]) -> String {
    nodes.iter().map(Node::canonical).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_bare_words() {
        let items = split("a bb  ccc").unwrap();
        assert_eq!(
            items,
            vec![Item::Word("a".into()), Item::Word("bb".into()), Item::Word("ccc".into())]
        );
    }

    #[test]
    fn splits_braced_groups_with_nesting() {
        let items = split("{a {b c}} d").unwrap();
        assert_eq!(items, vec![Item::Braced("a {b c}".into()), Item::Word("d".into())]);
    }

    #[test]
    fn splits_quoted_words() {
        let items = split("\"hello world\" x").unwrap();
        assert_eq!(items, vec![Item::Word("hello world".into()), Item::Word("x".into())]);
    }

    #[test]
    fn backslash_escapes_in_bare_words() {
        let items = split(r"a\ b c").unwrap();
        assert_eq!(items, vec![Item::Word("a b".into()), Item::Word("c".into())]);
    }

    #[test]
    fn backslash_escapes_braces_inside_braced() {
        let items = split(r"{a \} b}").unwrap();
        assert_eq!(items, vec![Item::Braced(r"a \} b".into())]);
    }

    #[test]
    fn comments_run_to_end_of_line() {
        let items = split("# a comment\nword # not-a-comment\n# another\nend").unwrap();
        assert_eq!(
            items,
            vec![
                Item::Word("word".into()),
                Item::Word("#".into()),
                Item::Word("not-a-comment".into()),
                Item::Word("end".into()),
            ]
        );
    }

    #[test]
    fn unterminated_brace_is_error() {
        let err = split("{a b").unwrap_err();
        assert!(matches!(err, RslError::Unterminated { what: "{", .. }));
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = split("\"a b").unwrap_err();
        assert!(matches!(err, RslError::Unterminated { what: "\"", .. }));
    }

    #[test]
    fn stray_close_is_error() {
        let err = split("a } b").unwrap_err();
        assert!(matches!(err, RslError::UnexpectedClose { what: '}', .. }));
    }

    #[test]
    fn parse_tree_recurses() {
        let nodes = parse_tree("node {a {b 2}} x").unwrap();
        assert_eq!(
            nodes,
            vec![
                Node::Word("node".into()),
                Node::List(vec![
                    Node::Word("a".into()),
                    Node::List(vec![Node::Word("b".into()), Node::Word("2".into())]),
                ]),
                Node::Word("x".into()),
            ]
        );
    }

    #[test]
    fn canonical_round_trip() {
        let src = "harmonyBundle DBclient:1 where { {QS {node server}} {DS {node client *}} }";
        let nodes = parse_tree(src).unwrap();
        let canon = canonicalize(&nodes);
        let reparsed = parse_tree(&canon).unwrap();
        assert_eq!(nodes, reparsed);
    }

    #[test]
    fn empty_input_yields_no_items() {
        assert!(split("").unwrap().is_empty());
        assert!(split("   \n\t ").unwrap().is_empty());
        assert!(parse_tree("").unwrap().is_empty());
    }

    #[test]
    fn empty_braces_yield_empty_list() {
        let nodes = parse_tree("{}").unwrap();
        assert_eq!(nodes, vec![Node::List(vec![])]);
    }

    #[test]
    fn node_accessors() {
        let w = Node::Word("x".into());
        let l = Node::List(vec![w.clone()]);
        assert_eq!(w.word(), Some("x"));
        assert_eq!(w.list(), None);
        assert_eq!(l.word(), None);
        assert_eq!(l.list().unwrap().len(), 1);
    }

    #[test]
    fn canonical_quotes_special_words() {
        assert_eq!(Node::Word("a b".into()).canonical(), "{a b}");
        assert_eq!(Node::Word(String::new()).canonical(), "{}");
        assert_eq!(Node::Word("plain".into()).canonical(), "plain");
    }

    #[test]
    fn spanned_split_records_token_ranges() {
        let src = "node server {seconds 42}";
        let items = split_spanned(src).unwrap();
        let spans: Vec<&str> = items.iter().map(|(_, s)| s.slice(src).unwrap()).collect();
        assert_eq!(spans, vec!["node", "server", "{seconds 42}"]);
    }

    #[test]
    fn spanned_tree_keeps_absolute_child_offsets() {
        let src = "opt {a {b 2}} tail";
        let nodes = parse_tree_spanned(src).unwrap();
        let list = nodes[1].list().unwrap();
        assert_eq!(list[1].span().slice(src), Some("{b 2}"));
        let inner = list[1].list().unwrap();
        assert_eq!(inner[1].span().slice(src), Some("2"));
        assert_eq!(inner[1].span().pos(src).column as usize, src.find('2').unwrap() + 1);
    }

    #[test]
    fn spanned_quoted_word_span_includes_quotes() {
        let src = "x \"a b\" y";
        let items = split_spanned(src).unwrap();
        assert_eq!(items[1].0, Item::Word("a b".into()));
        assert_eq!(items[1].1.slice(src), Some("\"a b\""));
    }

    #[test]
    fn nested_errors_report_absolute_positions() {
        // The stray close is inside a quoted word inside a brace; the
        // spanned recursion should still blame the original offset.
        let src = "a {b \"unterminated} c";
        let err = parse_tree(src).unwrap_err();
        match err {
            RslError::Unterminated { what: "\"", pos } => {
                assert_eq!(pos.offset, src.find('"').unwrap());
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn spanned_tree_strips_to_plain_tree() {
        let src = "node {a {b 2}} x";
        let spanned = parse_tree_spanned(src).unwrap();
        let plain: Vec<Node> = spanned.iter().map(SpannedNode::to_node).collect();
        assert_eq!(plain, parse_tree(src).unwrap());
        assert_eq!(spanned[1].canonical(), "{a {b 2}}");
    }
    /// The lexer this module had before [`Lexer`], kept as the reference
    /// the borrowing one is compared against.
    fn reference_split(full: &str, lo: usize, hi: usize) -> Result<Vec<(Item, Span)>> {
        let bytes = &full.as_bytes()[..hi];
        let mut items = Vec::new();
        let mut i = lo;
        let mut at_line_start = true;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_whitespace() {
                if c == '\n' {
                    at_line_start = true;
                }
                i += 1;
                continue;
            }
            if c == '#' && at_line_start {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            at_line_start = false;
            match c {
                '{' => {
                    let start = i;
                    let mut depth = 0usize;
                    let mut j = i;
                    loop {
                        if j >= bytes.len() {
                            return Err(RslError::Unterminated {
                                what: "{",
                                pos: Pos::at(full, start),
                            });
                        }
                        match bytes[j] {
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            b'\\' => {
                                // Backslash inside braces escapes the next byte
                                // (notably `\{` and `\}`).
                                j += 1;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    items.push((
                        Item::Braced(full[start + 1..j].to_owned()),
                        Span::new(start, j + 1),
                    ));
                    i = j + 1;
                }
                '}' => {
                    return Err(RslError::UnexpectedClose { what: '}', pos: Pos::at(full, i) });
                }
                '"' => {
                    let start = i;
                    let mut word = String::new();
                    let mut j = i + 1;
                    loop {
                        if j >= bytes.len() {
                            return Err(RslError::Unterminated {
                                what: "\"",
                                pos: Pos::at(full, start),
                            });
                        }
                        match bytes[j] {
                            b'"' => break,
                            b'\\' if j + 1 < bytes.len() => {
                                word.push(bytes[j + 1] as char);
                                j += 2;
                                continue;
                            }
                            b => word.push(b as char),
                        }
                        j += 1;
                    }
                    items.push((Item::Word(word), Span::new(start, j + 1)));
                    i = j + 1;
                }
                _ => {
                    let start = i;
                    let mut word = String::new();
                    let mut j = i;
                    while j < bytes.len() {
                        let b = bytes[j];
                        if (b as char).is_whitespace() || b == b'{' || b == b'}' {
                            break;
                        }
                        if b == b'\\' && j + 1 < bytes.len() {
                            word.push(bytes[j + 1] as char);
                            j += 2;
                            continue;
                        }
                        word.push(b as char);
                        j += 1;
                    }
                    items.push((Item::Word(word), Span::new(start, j)));
                    i = j;
                }
            }
        }
        Ok(items)
    }

    fn lexed(src: &str) -> Result<Vec<(Item, Span)>> {
        Lexer::new(src).map(|t| t.map(|(token, span)| (token.into(), span))).collect()
    }

    #[test]
    fn words_borrow_unless_an_escape_or_a_wide_byte_forces_a_copy() {
        let src = "plain \"quoted words\" {braced {x}} esc\\aped \"q\\\"uote\" caf\u{e9} trail\\";
        let tokens: Vec<Token<'_>> = Lexer::new(src).map(|t| t.unwrap().0).collect();
        let borrowed: Vec<bool> = tokens
            .iter()
            .map(|t| matches!(t, Token::Braced(_) | Token::Word(Cow::Borrowed(_))))
            .collect();
        assert_eq!(borrowed, [true, true, true, false, false, false, true]);
        let texts: Vec<&str> = tokens.iter().map(Token::text).collect();
        assert_eq!(
            texts,
            [
                "plain",
                "quoted words",
                "braced {x}",
                "escaped",
                "q\"uote",
                "caf\u{c3}\u{a9}",
                "trail\\"
            ]
        );
        assert!(matches!(tokens[2], Token::Braced(_)) && matches!(tokens[1], Token::Word(_)));
    }

    #[test]
    fn whitespace_is_what_char_says_of_each_byte() {
        for b in 0..=u8::MAX {
            assert_eq!(is_space(b), (b as char).is_whitespace(), "byte {b:#04x}");
        }
    }

    #[test]
    fn lexer_is_exhausted_after_an_error() {
        let mut lexer = Lexer::new("a } b");
        assert!(lexer.next().unwrap().is_ok());
        assert!(lexer.next().unwrap().is_err());
        assert!(lexer.next().is_none());
    }

    /// Texts dense in the bytes the lexer gives meaning to.
    fn tcl_soup() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::{Just, Strategy};
        proptest::collection::vec(
            proptest::prop_oneof![
                "[a-z0-9.]{1,6}",
                "[ \t\n]{1,2}",
                Just("{".to_string()),
                Just("}".to_string()),
                Just("\"".to_string()),
                Just("\\".to_string()),
                Just("#".to_string()),
                Just("\u{e9}\u{a0}\u{2028}".to_string()),
            ],
            0..24,
        )
        .prop_map(|parts| parts.concat())
    }

    /// `len` bytes of which none stops a braced group's scan.
    fn filler(len: usize) -> String {
        "ab cd\"ef#gh,ij\tk".chars().cycle().take(len).collect()
    }

    #[test]
    fn split_spanned_agrees_with_the_reference_at_every_offset_mod_8() {
        // Each byte a group's scan stops at — a nested group, an escaped
        // brace, an escaped or trailing backslash, an unterminated inner
        // group — behind and ahead of filler of every length through two
        // strides, so it falls at each offset of the 8-byte chunk the scan
        // passes over, in a closed and in an unterminated group.
        let constructs = ["{x {y} z}", "\\{", "\\}", "\\\\", "{open", "\\"];
        for construct in constructs {
            for lead in 0..16 {
                for tail in 0..16 {
                    let open = format!("w {{{}{construct}{}", filler(lead), filler(tail));
                    for src in [format!("{open}}} v"), open] {
                        assert_eq!(
                            split_spanned(&src),
                            reference_split(&src, 0, src.len()),
                            "{src:?}"
                        );
                    }
                }
            }
        }
    }

    /// Braced texts whose plain runs are long enough to be passed over
    /// 8 bytes at a time, between the bytes that stop the scan.
    fn group_soup() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::{Just, Strategy};
        proptest::collection::vec(
            proptest::prop_oneof![
                "[a-z0-9 .:\"#]{1,20}",
                Just("{".to_string()),
                Just("}".to_string()),
                Just("\\{".to_string()),
                Just("\\}".to_string()),
                Just("\\".to_string()),
            ],
            0..24,
        )
        .prop_map(|parts| format!("{{{}", parts.concat()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4000))]

        #[test]
        fn split_spanned_agrees_with_the_reference_on_generated_groups(src in group_soup()) {
            // Every cut of the text ends it at each offset mod 8 as well.
            for cut in 0..=src.len() {
                let src = &src[..cut];
                proptest::prop_assert_eq!(
                    split_spanned(src), reference_split(src, 0, src.len()), "src: {:?}", src
                );
            }
        }

        #[test]
        fn lexer_agrees_with_the_reference_on_generated_texts(src in tcl_soup()) {
            proptest::prop_assert_eq!(
                lexed(&src), reference_split(&src, 0, src.len()), "src: {:?}", src
            );
        }

        #[test]
        fn lexer_agrees_with_the_reference_on_every_cut_of_a_listing(cut in 0usize..4000) {
            let src = crate::listings::FIG3_DBCLIENT;
            let cut = cut % (src.len() + 1);
            proptest::prop_assert_eq!(lexed(&src[..cut]), reference_split(src, 0, cut));
        }
    }
}
