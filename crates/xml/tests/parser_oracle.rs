//! The parser against the one it replaced.
//!
//! `reference` is the recursive, byte-at-a-time parser `xarch_xml::parse`
//! was before it scanned a word at a time with an explicit stack, kept
//! here, test-only, as the oracle. On every input below both must return
//! the same document — compact string, arena length, symbol order — or
//! the same error, at the same line and column with the same message:
//! the datagen corpora compact and pretty-printed, hand-written edge
//! cases, and every truncation and every ASCII-byte substitution of those.

use xarch_datagen::company::company_versions;
use xarch_datagen::omim::OmimGen;
use xarch_datagen::swissprot::SwissProtGen;
use xarch_datagen::xmark::XmarkGen;
use xarch_xml::writer::{to_compact_string, to_pretty_string};
use xarch_xml::{parse, Document, ParseError, MAX_DEPTH};

/// `xarch_xml::parse` as it was, whitespace-only text dropped (the only
/// configuration it was ever called with).
mod reference {
    use xarch_xml::escape::resolve_entity;
    use xarch_xml::{Document, NodeId, ParseError};

    type Result<T> = std::result::Result<T, ParseError>;

    pub fn parse(input: &str) -> Result<Document> {
        Parser {
            src: input.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
        .parse_document()
    }

    struct Parser<'a> {
        src: &'a [u8],
        pos: usize,
        line: u32,
        col: u32,
    }

    impl Parser<'_> {
        fn err(&self, msg: impl Into<String>) -> ParseError {
            ParseError {
                line: self.line,
                col: self.col,
                message: msg.into(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.src.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            Some(b)
        }

        fn starts_with(&self, s: &str) -> bool {
            self.src[self.pos..].starts_with(s.as_bytes())
        }

        fn consume(&mut self, s: &str) -> bool {
            if self.starts_with(s) {
                for _ in 0..s.len() {
                    self.bump();
                }
                true
            } else {
                false
            }
        }

        fn expect(&mut self, s: &str) -> Result<()> {
            if self.consume(s) {
                Ok(())
            } else {
                Err(self.err(format!("expected `{s}`")))
            }
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.bump();
            }
        }

        fn skip_until(&mut self, end: &str, what: &str) -> Result<()> {
            while self.pos < self.src.len() {
                if self.consume(end) {
                    return Ok(());
                }
                self.bump();
            }
            Err(self.err(format!("unterminated {what}")))
        }

        fn skip_misc(&mut self) -> Result<()> {
            loop {
                self.skip_ws();
                if self.starts_with("<!--") {
                    self.consume("<!--");
                    self.skip_until("-->", "comment")?;
                } else if self.starts_with("<?") {
                    self.consume("<?");
                    self.skip_until("?>", "processing instruction")?;
                } else if self.starts_with("<!DOCTYPE") {
                    self.consume("<!DOCTYPE");
                    let mut depth = 0i32;
                    loop {
                        match self.bump() {
                            Some(b'[') => depth += 1,
                            Some(b']') => depth -= 1,
                            Some(b'>') if depth <= 0 => break,
                            Some(_) => {}
                            None => return Err(self.err("unterminated DOCTYPE")),
                        }
                    }
                } else {
                    return Ok(());
                }
            }
        }

        fn is_name_start(b: u8) -> bool {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
        }

        fn is_name_char(b: u8) -> bool {
            Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
        }

        fn parse_name(&mut self) -> Result<String> {
            let start = self.pos;
            match self.peek() {
                Some(b) if Self::is_name_start(b) => {
                    self.bump();
                }
                _ => return Err(self.err("expected a name")),
            }
            while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
                self.bump();
            }
            Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
        }

        fn parse_entity(&mut self) -> Result<char> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b';' {
                    let name = std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in entity"))?
                        .to_owned();
                    self.bump();
                    return resolve_entity(&name)
                        .ok_or_else(|| self.err(format!("unknown entity `&{name};`")));
                }
                if b == b'<' || b == b'&' || self.pos - start > 12 {
                    break;
                }
                self.bump();
            }
            Err(self.err("malformed entity reference"))
        }

        fn parse_attr_value(&mut self) -> Result<String> {
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => {
                    self.bump();
                    q
                }
                _ => return Err(self.err("expected quoted attribute value")),
            };
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated attribute value")),
                    Some(b) if b == quote => {
                        self.bump();
                        return Ok(out);
                    }
                    Some(b'&') => {
                        self.bump();
                        out.push(self.parse_entity()?);
                    }
                    Some(b'<') => return Err(self.err("`<` not allowed in attribute value")),
                    Some(_) => {
                        let start = self.pos;
                        while let Some(b) = self.peek() {
                            if b == quote || b == b'&' || b == b'<' {
                                break;
                            }
                            self.bump();
                        }
                        out.push_str(
                            std::str::from_utf8(&self.src[start..self.pos])
                                .map_err(|_| self.err("invalid UTF-8"))?,
                        );
                    }
                }
            }
        }

        fn parse_document(&mut self) -> Result<Document> {
            if self.src.starts_with(&[0xEF, 0xBB, 0xBF]) {
                self.pos = 3;
            }
            self.skip_misc()?;
            if self.peek() != Some(b'<') {
                return Err(self.err("expected root element"));
            }
            self.bump();
            let root_tag = self.parse_name()?;
            let mut doc = Document::new(&root_tag);
            let root = doc.root();
            self.parse_attrs_and_content(&mut doc, root, &root_tag)?;
            self.skip_misc()?;
            if self.pos < self.src.len() {
                return Err(self.err("content after root element"));
            }
            Ok(doc)
        }

        fn parse_attrs_and_content(
            &mut self,
            doc: &mut Document,
            el: NodeId,
            tag: &str,
        ) -> Result<()> {
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'/') => {
                        self.bump();
                        self.expect(">")?;
                        return Ok(());
                    }
                    Some(b'>') => {
                        self.bump();
                        break;
                    }
                    Some(b) if Self::is_name_start(b) => {
                        let name = self.parse_name()?;
                        self.skip_ws();
                        self.expect("=")?;
                        self.skip_ws();
                        let value = self.parse_attr_value()?;
                        if doc.attr(el, &name).is_some() {
                            return Err(self.err(format!("duplicate attribute `{name}`")));
                        }
                        doc.set_attr(el, &name, &value);
                    }
                    _ => return Err(self.err("malformed start tag")),
                }
            }
            let mut text = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err(format!("unexpected EOF inside <{tag}>"))),
                    Some(b'<') => {
                        if self.starts_with("</") {
                            Self::flush_text(doc, el, &mut text);
                            self.consume("</");
                            let close = self.parse_name()?;
                            if close != tag {
                                return Err(self
                                    .err(format!("mismatched close tag </{close}> for <{tag}>")));
                            }
                            self.skip_ws();
                            self.expect(">")?;
                            return Ok(());
                        } else if self.starts_with("<!--") {
                            self.consume("<!--");
                            self.skip_until("-->", "comment")?;
                        } else if self.starts_with("<![CDATA[") {
                            self.consume("<![CDATA[");
                            let start = self.pos;
                            loop {
                                if self.starts_with("]]>") {
                                    text.push_str(
                                        std::str::from_utf8(&self.src[start..self.pos])
                                            .map_err(|_| self.err("invalid UTF-8 in CDATA"))?,
                                    );
                                    self.consume("]]>");
                                    break;
                                }
                                if self.bump().is_none() {
                                    return Err(self.err("unterminated CDATA section"));
                                }
                            }
                        } else if self.starts_with("<?") {
                            self.consume("<?");
                            self.skip_until("?>", "processing instruction")?;
                        } else {
                            Self::flush_text(doc, el, &mut text);
                            self.bump();
                            let child_tag = self.parse_name()?;
                            let child = doc.add_element(el, &child_tag);
                            self.parse_attrs_and_content(doc, child, &child_tag)?;
                        }
                    }
                    Some(b'&') => {
                        self.bump();
                        text.push(self.parse_entity()?);
                    }
                    Some(_) => {
                        let start = self.pos;
                        while let Some(b) = self.peek() {
                            if b == b'<' || b == b'&' {
                                break;
                            }
                            self.bump();
                        }
                        text.push_str(
                            std::str::from_utf8(&self.src[start..self.pos])
                                .map_err(|_| self.err("invalid UTF-8 in text"))?,
                        );
                    }
                }
            }
        }

        fn flush_text(doc: &mut Document, el: NodeId, text: &mut String) {
            if !text.is_empty() && !text.chars().all(char::is_whitespace) {
                doc.add_text(el, text);
            }
            text.clear();
        }
    }
}

/// What a parse comes to, in the terms the two parsers must agree on.
#[derive(Debug, PartialEq)]
enum Outcome {
    Parsed {
        compact: String,
        len: usize,
        syms: Vec<String>,
    },
    Refused(ParseError),
}

fn outcome(parsed: Result<Document, ParseError>) -> Outcome {
    match parsed {
        Ok(doc) => Outcome::Parsed {
            compact: to_compact_string(&doc),
            len: doc.len(),
            syms: doc.syms().iter().map(|(_, n)| n.to_owned()).collect(),
        },
        Err(e) => Outcome::Refused(e),
    }
}

/// Both parsers on `input`; the answer, for a caller that wants it.
fn agree(input: &str) -> Outcome {
    let got = outcome(parse(input));
    assert_eq!(got, outcome(reference::parse(input)), "on {input:?}");
    got
}

/// Every document of a corpus, compact and pretty-printed at two widths.
fn agree_on_corpus(name: &str, docs: &[Document]) {
    assert!(!docs.is_empty(), "{name}: empty corpus");
    for doc in docs {
        for text in [
            to_compact_string(doc),
            to_pretty_string(doc, 0),
            to_pretty_string(doc, 2),
        ] {
            let Outcome::Parsed { compact, .. } = agree(&text) else {
                panic!("{name}: a generated document does not parse");
            };
            assert_eq!(compact, to_compact_string(doc), "{name}: round trip");
        }
    }
}

#[test]
fn the_datagen_corpora_parse_alike_compact_and_pretty() {
    agree_on_corpus("company", &company_versions());
    agree_on_corpus("omim", &OmimGen::new(3).sequence(40, 3));
    agree_on_corpus("swissprot", &SwissProtGen::new(7).sequence(15, 3));
    let mut xmark = XmarkGen::new(11);
    let base = xmark.generate(12);
    let changed = xmark.random_change(&base, 0.2);
    agree_on_corpus("xmark", &[base, changed]);
}

/// Short inputs that reach every construct and every refusal.
const EDGE_CASES: &[&str] = &[
    r#"<a k="&lt;&amp;&gt;">&quot;x&quot; &#65;&#x42; &apos;</a>"#,
    "<a>x &#x1F9EC; y &#10; &#160;</a>",
    "<a><![CDATA[<not> & parsed]]> and <![CDATA[]]>more</a>",
    "<a>one<!-- a comment -->two<?pi here?>three</a>",
    "<a>  <!-- c -->  <?p?>  <b/>\n\t</a>",
    "<?xml version=\"1.0\"?>\n<!-- hi -->\n<!DOCTYPE db [<!ELEMENT db ANY>]>\n<db>x</db>\n<!-- bye -->\n",
    "\u{feff}<a>\n  <b>x</b>\n</a>",
    "\u{feff}<a><b></c></a>",
    "<a>\u{a0}\u{a0}</a>",
    "<a>\u{a0}<b/>\u{2003}x\u{a0}</a>",
    "<Ünïcode attr-é='née 東京'>🧬 text 東京</Ünïcode>",
    "<a x='single' y=\"double\" z='it\"s'/>",
    "<a x = \"1\"\n   y\t=\t'2' ></a >",
    "<a><b x=\"1\"y=\"2\"/></a   \n>",
    "<db><rec id=\"1\"><v>a</v></rec><rec id=\"2\"/>tail</db>",
    "<a>&nope;</a>",
    "<a>&;</a>",
    "<a>&abcdefghijklmn;</a>",
    "<a>&abcdefghijklm;</a>",
    "<a x=\"1\" x=\"2\"/>",
    "<a x=\"a<b\"/>",
    "<a x=1/>",
    "<a><b></a></b>",
    "<a/><b/>",
    "text",
    "<a><!DOCTYPE x></a>",
    "<a>\n  <b></c>\n</a>",
];

#[test]
fn edge_cases_parse_or_fail_alike() {
    let parsed = EDGE_CASES
        .iter()
        .filter(|s| matches!(agree(s), Outcome::Parsed { .. }))
        .count();
    // both kinds of outcome are exercised
    assert!(parsed >= 12 && parsed < EDGE_CASES.len(), "{parsed}");
}

#[test]
fn every_truncation_and_ascii_substitution_fails_or_parses_alike() {
    let mut inputs = 0usize;
    for case in EDGE_CASES {
        for cut in (0..case.len()).filter(|&i| case.is_char_boundary(i)) {
            agree(&case[..cut]);
            inputs += 1;
        }
        let bytes = case.as_bytes();
        for at in 0..bytes.len() {
            let mut changed = bytes.to_vec();
            for b in 0..0x80u8 {
                changed[at] = b;
                // a substitution inside a multi-byte character is not text
                if let Ok(text) = std::str::from_utf8(&changed) {
                    agree(text);
                    inputs += 1;
                }
            }
        }
    }
    assert!(inputs > 80_000, "{inputs}");
}

/// `n` nested elements, innermost holding one text.
fn nested(n: usize) -> String {
    format!("{}x{}", "<a>".repeat(n), "</a>".repeat(n))
}

#[test]
fn nesting_is_bounded_and_refused_where_it_overflows() {
    // as deep as allowed: the same document as the reference builds
    assert!(
        matches!(agree(&nested(MAX_DEPTH)), Outcome::Parsed { len, .. } if len == MAX_DEPTH + 1)
    );
    // one deeper is refused at the start tag that overflows, however deep
    // the input goes on
    for n in [MAX_DEPTH + 1, 200_000] {
        let e = parse(&nested(n)).unwrap_err();
        assert_eq!((e.line, e.col), (1, 3 * MAX_DEPTH as u32 + 1), "{n}");
        assert_eq!(e.message, format!("elements nest deeper than {MAX_DEPTH}"));
    }
    // and an empty element counts as much as one with content
    let at_the_limit = format!(
        "{}<b/>{}",
        "<a>".repeat(MAX_DEPTH),
        "</a>".repeat(MAX_DEPTH)
    );
    assert!(parse(&at_the_limit).is_err());
}
