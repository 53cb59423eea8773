//! Serialization of documents back to XML text.
//!
//! Two forms are provided:
//!
//! * **compact** — no inserted whitespace; canonical for machine use;
//! * **pretty** — the line-oriented layout the paper's line-diff experiments
//!   assume: "each element is represented by one or more consecutive lines
//!   separate from other elements" (§5). Elements containing a single text
//!   child are written on one line; others open and close on their own lines.

use crate::escape::{escape_attr_into, escape_text_into};
use crate::model::{Document, NodeId, NodeKind};

/// Serializes the whole document compactly.
pub fn to_compact_string(doc: &Document) -> String {
    let mut out = String::with_capacity(doc.len() * 16);
    write_compact(doc, doc.root(), &mut out);
    out
}

/// Appends the compact serialization of the subtree at `id` to `out`.
pub fn write_compact(doc: &Document, id: NodeId, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Text(t) => escape_text_into(t, out),
        NodeKind::Element(sym) => {
            let tag = doc.syms().resolve(sym);
            out.push('<');
            out.push_str(tag);
            for (a, v) in doc.attrs(id) {
                out.push(' ');
                out.push_str(doc.syms().resolve(a));
                out.push_str("=\"");
                escape_attr_into(v, out);
                out.push('"');
            }
            if doc.children(id).is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for &c in doc.children(id) {
                    write_compact(doc, c, out);
                }
                out.push_str("</");
                out.push_str(tag);
                out.push('>');
            }
        }
    }
}

/// Serializes the whole document in line-oriented pretty form with the given
/// indent width.
pub fn to_pretty_string(doc: &Document, indent: usize) -> String {
    let mut out = String::with_capacity(doc.len() * 24);
    write_pretty(doc, doc.root(), indent, 0, &mut out);
    out
}

/// True if the element consists solely of text children (so it can be
/// written inline on a single line).
fn is_text_only(doc: &Document, id: NodeId) -> bool {
    doc.children(id)
        .iter()
        .all(|&c| matches!(doc.kind(c), NodeKind::Text(_)))
}

fn write_pretty(doc: &Document, id: NodeId, indent: usize, depth: usize, out: &mut String) {
    let pad = indent * depth;
    match doc.kind(id) {
        NodeKind::Text(t) => {
            for _ in 0..pad {
                out.push(' ');
            }
            escape_text_into(t, out);
            out.push('\n');
        }
        NodeKind::Element(sym) => {
            let tag = doc.syms().resolve(sym);
            for _ in 0..pad {
                out.push(' ');
            }
            out.push('<');
            out.push_str(tag);
            for (a, v) in doc.attrs(id) {
                out.push(' ');
                out.push_str(doc.syms().resolve(a));
                out.push_str("=\"");
                escape_attr_into(v, out);
                out.push('"');
            }
            if doc.children(id).is_empty() {
                out.push_str("/>\n");
            } else if is_text_only(doc, id) {
                out.push('>');
                for &c in doc.children(id) {
                    if let NodeKind::Text(t) = doc.kind(c) {
                        escape_text_into(t, out);
                    }
                }
                out.push_str("</");
                out.push_str(tag);
                out.push_str(">\n");
            } else {
                out.push_str(">\n");
                for &c in doc.children(id) {
                    write_pretty(doc, c, indent, depth + 1, out);
                }
                for _ in 0..pad {
                    out.push(' ');
                }
                out.push_str("</");
                out.push_str(tag);
                out.push_str(">\n");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compact_round_trip() {
        let src =
            r#"<db><dept><name>finance</name><emp x="1&amp;2"><fn>John</fn></emp></dept></db>"#;
        let doc = parse(src).unwrap();
        let s = to_compact_string(&doc);
        let doc2 = parse(&s).unwrap();
        assert!(crate::order::value_equal(
            &doc,
            doc.root(),
            &doc2,
            doc2.root()
        ));
        assert_eq!(s, to_compact_string(&doc2));
    }

    #[test]
    fn self_closing_for_empty() {
        let doc = parse("<a><b></b></a>").unwrap();
        assert_eq!(to_compact_string(&doc), "<a><b/></a>");
    }

    #[test]
    fn pretty_one_line_per_text_element() {
        let doc = parse("<db><dept><name>finance</name></dept></db>").unwrap();
        let s = to_pretty_string(&doc, 2);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(
            lines,
            vec![
                "<db>",
                "  <dept>",
                "    <name>finance</name>",
                "  </dept>",
                "</db>"
            ]
        );
    }

    #[test]
    fn pretty_round_trip() {
        let src = "<gene><id>6230</id><name>GRTM</name><seq>GTCG...</seq><pos>11A52</pos></gene>";
        let doc = parse(src).unwrap();
        let pretty = to_pretty_string(&doc, 2);
        let doc2 = parse(&pretty).unwrap();
        assert!(crate::order::value_equal(
            &doc,
            doc.root(),
            &doc2,
            doc2.root()
        ));
    }

    #[test]
    fn escaping_in_output() {
        let mut doc = crate::model::Document::new("a");
        doc.set_attr(doc.root(), "k", "a\"b<c");
        doc.add_text(doc.root(), "x < y & z");
        let s = to_compact_string(&doc);
        assert_eq!(s, r#"<a k="a&quot;b&lt;c">x &lt; y &amp; z</a>"#);
        let doc2 = parse(&s).unwrap();
        assert_eq!(doc2.text_content(doc2.root()), "x < y & z");
    }
}
