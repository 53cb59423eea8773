//! A hand-written, dependency-free XML parser.
//!
//! Supports the subset of XML needed by the paper's datasets and archives:
//! prolog, comments, processing instructions, DOCTYPE (skipped), elements,
//! attributes (single or double quoted), CDATA sections, predefined and
//! numeric character references. Namespaces are treated lexically (a tag
//! `T:emp` is just a name containing a colon, which is how the paper's
//! timestamp namespace is handled). Whitespace-only text nodes are dropped
//! — the paper's value model ignores inter-element whitespace (§4.3 fn. 3).
//!
//! One forward pass into a [`Builder`]: text and attribute values are
//! scanned for the byte that ends them eight bytes at a time; names stay
//! slices of the input until the builder interns them through its cache; a
//! text run goes to the builder straight from the input; open elements are
//! an explicit stack, at most [`MAX_DEPTH`] deep; and only the byte offset
//! is kept — an error counts its line and column from it. Input longer
//! than [`MAX_BYTES`] is refused: the document's text could not be held.

use std::borrow::Cow;
use std::ops::Range;

use crate::error::{ParseError, Result};
use crate::escape::resolve_entity;
use crate::model::{Builder, Document, MAX_BYTES};

/// The deepest elements nest (the root is at depth 1): one bound from the
/// wire to the disk. The parser refuses deeper text, annotation and the
/// journal's encoder a deeper document built in code, and the readers of
/// stored trees a deeper tree, so the recursive walkers after them go
/// about this deep at most. The paper's corpora nest about a dozen deep.
/// The value is a format constant: every backend a server can run serves
/// documents 1536 deep on a default worker stack in a debug build (a
/// worker overflows at 2048), so 256 leaves each of them headroom.
pub const MAX_DEPTH: usize = 256;

/// Parses `input` into a [`Document`].
pub fn parse(input: &str) -> Result<Document> {
    Parser {
        src: input,
        pos: 0,
        run: 0..0,
        scratch: String::new(),
    }
    .document()
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// The text of the innermost open element not yet added to it is
    /// `scratch` then `run` — `scratch` empty unless an entity, a CDATA
    /// section or a comment split the text, so a plain run is not copied.
    run: Range<usize>,
    scratch: String,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes()[self.pos..]
    }

    /// An error at the current offset, with the line and column of it.
    fn err(&self, message: impl Into<String>) -> ParseError {
        let before = &self.bytes()[..self.pos];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let col = match before.iter().rposition(|&b| b == b'\n') {
            Some(newline) => self.pos - newline,
            // a byte-order mark counts in no column
            None if self.src.starts_with('\u{feff}') => self.pos - 2,
            None => self.pos + 1,
        };
        ParseError::new(line as u32, col as u32, message)
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() != Some(b) {
            return Err(self.err(format!("expected `{}`", char::from(b))));
        }
        self.pos += 1;
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Moves past the next `end`, or fails at the end of the input with
    /// "unterminated `what`".
    fn skip_past(&mut self, end: &str, what: &str) -> Result<()> {
        let found = self
            .rest()
            .windows(end.len())
            .position(|w| w == end.as_bytes());
        self.pos = found.map_or(self.src.len(), |at| self.pos + at + end.len());
        found
            .map(drop)
            .ok_or_else(|| self.err(format!("unterminated {what}")))
    }

    /// Skips whitespace, comments, processing instructions and a DOCTYPE
    /// (to its `>`, past one level of `[...]` internal subset).
    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.starts_with(b"<!--") {
                self.pos += 4;
                self.skip_past("-->", "comment")?;
            } else if rest.starts_with(b"<?") {
                self.pos += 2;
                self.skip_past("?>", "processing instruction")?;
            } else if rest.starts_with(b"<!DOCTYPE") {
                self.pos += 9;
                let mut depth = 0i32;
                loop {
                    let b = self
                        .peek()
                        .ok_or_else(|| self.err("unterminated DOCTYPE"))?;
                    self.pos += 1;
                    match b {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        b'>' if depth <= 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        if !self.peek().is_some_and(is_name_start) {
            return Err(self.err("expected a name"));
        }
        let len = self.rest().iter().skip(1).position(|&b| !is_name_char(b));
        self.pos = len.map_or(self.src.len(), |len| start + 1 + len);
        Ok(&self.src[start..self.pos])
    }

    /// The character a reference stands for, the `&` just behind: its name
    /// is at most 13 bytes, then `;`.
    fn entity(&mut self) -> Result<char> {
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b';') => {
                    let name = &self.src[start..self.pos];
                    self.pos += 1;
                    return resolve_entity(name)
                        .ok_or_else(|| self.err(format!("unknown entity `&{name};`")));
                }
                Some(b'<' | b'&') | None => break,
                Some(_) if self.pos - start > 12 => break,
                Some(_) => self.pos += 1,
            }
        }
        Err(self.err("malformed entity reference"))
    }

    /// A quoted attribute value, references resolved: a slice of the input
    /// unless it has one.
    fn attr_value(&mut self) -> Result<Cow<'a, str>> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let mut value = Cow::Borrowed("");
        loop {
            let start = self.pos;
            self.pos = scan(self.bytes(), start, [quote, b'&', b'<']);
            let run = &self.src[start..self.pos];
            value = match value.is_empty() {
                true => Cow::Borrowed(run),
                false => Cow::Owned(value.into_owned() + run),
            };
            match self.peek() {
                Some(b'&') => {
                    self.pos += 1;
                    let c = self.entity()?;
                    value.to_mut().push(c);
                }
                Some(b'<') => return Err(self.err("`<` not allowed in attribute value")),
                Some(_) => {
                    self.pos += 1;
                    return Ok(value);
                }
                None => return Err(self.err("unterminated attribute value")),
            }
        }
    }

    /// Reads the attributes of the element just opened in `builder` to the end of
    /// its start tag: `true` when content follows, `false` after `/>`.
    fn start_tag(&mut self, builder: &mut Builder) -> Result<bool> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    return self.expect(b'>').map(|()| false);
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(true);
                }
                Some(b) if is_name_start(b) => {
                    let name = self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    if !builder.attr(name, &value) {
                        return Err(self.err(format!("duplicate attribute `{name}`")));
                    }
                }
                _ => return Err(self.err("malformed start tag")),
            }
        }
    }

    /// Adds `range` of the input to the pending text.
    fn text(&mut self, range: Range<usize>) {
        let src = self.src;
        self.scratch
            .push_str(&src[std::mem::replace(&mut self.run, range)]);
    }

    /// Adds the pending text to the innermost open element, unless it is
    /// all whitespace.
    fn flush(&mut self, b: &mut Builder) {
        let text = if self.scratch.is_empty() {
            &self.src[self.run.clone()]
        } else {
            self.text(0..0);
            &self.scratch
        };
        if !text.chars().all(char::is_whitespace) {
            b.text(text);
        }
        self.run = 0..0;
        self.scratch.clear();
    }

    fn document(mut self) -> Result<Document> {
        if self.src.len() > MAX_BYTES {
            self.pos = MAX_BYTES;
            return Err(self.err(format!("document longer than {MAX_BYTES} bytes")));
        }
        if self.src.starts_with('\u{feff}') {
            self.pos = 3;
        }
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return Err(self.err("expected root element"));
        }
        self.pos += 1;
        let tag = self.name()?;
        let mut b = Builder::with_capacity(tag, self.src.len());
        // the names of the elements open in `b` as written, innermost last
        let mut open = Vec::new();
        if self.start_tag(&mut b)? {
            open.push(tag);
        }
        while let Some(&tag) = open.last() {
            let rest = self.rest();
            match rest.first() {
                None => return Err(self.err(format!("unexpected EOF inside <{tag}>"))),
                Some(b'&') => {
                    self.pos += 1;
                    let c = self.entity()?;
                    self.text(0..0);
                    self.scratch.push(c);
                }
                Some(b'<') if rest.starts_with(b"</") => {
                    self.flush(&mut b);
                    self.pos += 2;
                    let close = self.name()?;
                    if close != tag {
                        return Err(
                            self.err(format!("mismatched close tag </{close}> for <{tag}>"))
                        );
                    }
                    self.skip_ws();
                    self.expect(b'>')?;
                    open.pop();
                    b.close();
                }
                Some(b'<') if rest.starts_with(b"<!--") => {
                    self.pos += 4;
                    self.skip_past("-->", "comment")?;
                }
                Some(b'<') if rest.starts_with(b"<![CDATA[") => {
                    self.pos += 9;
                    let start = self.pos;
                    self.skip_past("]]>", "CDATA section")?;
                    self.text(start..self.pos - 3);
                }
                Some(b'<') if rest.starts_with(b"<?") => {
                    self.pos += 2;
                    self.skip_past("?>", "processing instruction")?;
                }
                Some(b'<') => {
                    self.flush(&mut b);
                    let at = self.pos;
                    self.pos += 1;
                    let name = self.name()?;
                    if open.len() == MAX_DEPTH {
                        self.pos = at;
                        return Err(self.err(format!("elements nest deeper than {MAX_DEPTH}")));
                    }
                    b.open(name);
                    if self.start_tag(&mut b)? {
                        open.push(name);
                    } else {
                        b.close();
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    self.pos = scan(self.bytes(), start, [b'<', b'&']);
                    self.text(start..self.pos);
                }
            }
        }
        self.skip_misc()?;
        if self.pos < self.src.len() {
            return Err(self.err("content after root element"));
        }
        Ok(b.finish())
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// The offset of the first byte at or after `from` that is one of `stops`
/// (`bytes.len()` if none is), eight bytes a step: XOR with a stop turns
/// the bytes equal to it into zero bytes, and `(x - 0x01…) & !x & 0x80…`
/// marks the lowest zero byte of a word exactly.
fn scan<const N: usize>(bytes: &[u8], from: usize, stops: [u8; N]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut at = from;
    while let Some(word) = bytes.get(at..at + 8) {
        let word = u64::from_le_bytes(word.try_into().unwrap_or_default());
        let hits = stops.iter().fold(0, |hits, &stop| {
            let x = word ^ (ONES * u64::from(stop));
            hits | (x.wrapping_sub(ONES) & !x & (ONES << 7))
        });
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = bytes[at..].iter().position(|b| stops.contains(b));
    tail.map_or(bytes.len(), |i| at + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure_1() {
        let doc = parse(
            "<genes><gene><id>6230</id><name>GRTM</name><seq>GTCG...</seq>\
             <pos>11A52</pos></gene></genes>",
        )
        .unwrap();
        let gene = doc.first_child_element(doc.root(), "gene").unwrap();
        let id = doc.first_child_element(gene, "id").unwrap();
        assert_eq!(doc.text_content(id), "6230");
    }

    #[test]
    fn ignores_interelement_whitespace() {
        let doc = parse("<db>\n  <dept>\n    <name>finance</name>\n  </dept>\n</db>").unwrap();
        let s = doc.stats();
        assert_eq!(s.elements, 3);
        assert_eq!(s.texts, 1);
    }

    #[test]
    fn attributes_and_self_close() {
        let doc = parse(r#"<site><item id="item1" featured='yes'/></site>"#).unwrap();
        let item = doc.first_child_element(doc.root(), "item").unwrap();
        assert_eq!(doc.attr(item, "id"), Some("item1"));
        assert_eq!(doc.attr(item, "featured"), Some("yes"));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let doc = parse(r#"<a k="&lt;&amp;&gt;">&quot;x&quot; &#65;&#x42;</a>"#).unwrap();
        assert_eq!(doc.attr(doc.root(), "k"), Some("<&>"));
        assert_eq!(doc.text_content(doc.root()), "\"x\" AB");
    }

    #[test]
    fn cdata_kept_verbatim() {
        let doc = parse("<a><![CDATA[<not> & parsed]]></a>").unwrap();
        assert_eq!(doc.text_content(doc.root()), "<not> & parsed");
    }

    #[test]
    fn prolog_comments_doctype() {
        let doc = parse(
            "<?xml version=\"1.0\"?><!-- hi --><!DOCTYPE db [<!ELEMENT db ANY>]><db/><!-- bye -->",
        )
        .unwrap();
        assert_eq!(doc.tag_name(doc.root()), "db");
    }

    #[test]
    fn namespaced_tags_are_plain_names() {
        let doc = parse(r#"<T t="1-4"><db/></T>"#).unwrap();
        assert_eq!(doc.tag_name(doc.root()), "T");
        assert_eq!(doc.attr(doc.root(), "t"), Some("1-4"));
    }

    #[test]
    fn error_mismatched_tags() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"));
    }

    #[test]
    fn error_duplicate_attr() {
        assert!(parse(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn error_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn error_unknown_entity() {
        assert!(parse("<a>&nope;</a>").is_err());
    }

    #[test]
    fn error_positions_reported() {
        let e = parse("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("<d>");
        }
        s.push('x');
        for _ in 0..200 {
            s.push_str("</d>");
        }
        let doc = parse(&s).unwrap();
        assert_eq!(doc.stats().height, 201);
    }

    #[test]
    fn mixed_content_preserved() {
        let doc = parse("<p>hello <b>world</b> bye</p>").unwrap();
        assert_eq!(doc.children(doc.root()).len(), 3);
        assert_eq!(doc.text_content(doc.root()), "hello world bye");
    }
}
