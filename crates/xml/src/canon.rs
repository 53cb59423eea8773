//! Canonical form of XML values (§4.3).
//!
//! The paper fingerprints key values by first putting them in *canonical
//! form*: a serialization such that two values are value-equal (`=v`) if and
//! only if their canonical forms are string-equal. Our canonical form is the
//! compact serialization with attributes sorted by (name, value) and all
//! text escaped — a deliberately small subset of W3C Canonical XML
//! sufficient for the paper's value model (which ignores inter-element
//! whitespace, comments and PIs; those never reach the tree).
//!
//! One writer, [`CanonWriter`], lays the form down an event at a time:
//! [`canonical_into`] drives it over a [`Document`]'s nodes, and the cold
//! reader drives it straight off a version payload's entries, keying a
//! record without building it. A key path that ends in an attribute has
//! the value [`attribute_into`] writes.

use crate::escape::{escape_attr_into, escape_text_into, push_attr_pair};
use crate::model::{Document, NodeId, NodeKind};

/// Returns the canonical form of the subtree rooted at `id`.
pub fn canonical(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    canonical_into(doc, id, &mut out);
    out
}

/// Appends the canonical form of the subtree rooted at `id` to `out`.
pub fn canonical_into(doc: &Document, id: NodeId, out: &mut String) {
    write_node(doc, id, &mut CanonWriter::default(), out);
}

fn write_node<'d>(doc: &'d Document, id: NodeId, w: &mut CanonWriter<'d>, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Text(t) => w.text(t, out),
        NodeKind::Element(sym) => {
            let tag = doc.syms().resolve(sym);
            w.open(tag, out);
            for (name, value) in doc.attrs(id) {
                w.attr(doc.syms().resolve(name), value);
            }
            for &c in doc.children(id) {
                write_node(doc, c, w, out);
            }
            w.close(tag, out);
        }
    }
}

/// Appends the canonical value of the attribute `name="value"` as a key
/// path ending in it reads: `@name="value"`, which no element's form can
/// equal.
pub fn attribute_into(name: &str, value: &str, out: &mut String) {
    out.push('@');
    out.push_str(name);
    out.push_str("=\"");
    escape_attr_into(value, out);
    out.push('"');
}

/// The writer of canonical form, fed one event at a time — an element
/// opens, its attributes, its content, it closes — and appending to the
/// `out` each call is handed. What a [`Document`] built of the same events
/// would fold, it folds: empty text writes nothing, and an attribute named
/// twice keeps its last value (where it stood does not matter: the
/// attributes are written sorted). An element with no content is written
/// `<a></a>`.
#[derive(Debug, Default)]
pub struct CanonWriter<'a> {
    /// The attributes of the start tag written last, held until the tag
    /// is finished and they are sorted.
    attrs: Vec<(&'a str, &'a str)>,
    /// The start tag written last still lacks its attributes and its `>`.
    open: bool,
}

impl<'a> CanonWriter<'a> {
    /// Begins an element of tag `tag`, returning the offset in `out` at
    /// which its form begins.
    pub fn open(&mut self, tag: &str, out: &mut String) -> usize {
        self.finish_start_tag(out);
        let at = out.len();
        out.push('<');
        out.push_str(tag);
        self.open = true;
        at
    }

    /// An attribute of the element just opened.
    pub fn attr(&mut self, name: &'a str, value: &'a str) {
        match self.attrs.iter_mut().find(|a| a.0 == name) {
            Some(named) => named.1 = value,
            None => self.attrs.push((name, value)),
        }
    }

    /// A text child of the innermost element open.
    pub fn text(&mut self, text: &str, out: &mut String) {
        if !text.is_empty() {
            self.finish_start_tag(out);
            escape_text_into(text, out);
        }
    }

    /// Ends the innermost element open, of tag `tag`.
    pub fn close(&mut self, tag: &str, out: &mut String) {
        self.finish_start_tag(out);
        out.push_str("</");
        out.push_str(tag);
        out.push('>');
    }

    fn finish_start_tag(&mut self, out: &mut String) {
        if std::mem::take(&mut self.open) {
            self.attrs.sort_unstable();
            for (name, value) in self.attrs.drain(..) {
                push_attr_pair(name, value, out);
            }
            out.push('>');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::value_equal;
    use crate::parser::parse;

    #[test]
    fn canonical_eq_iff_value_eq() {
        let pairs = [
            (r#"<a x="1" y="2"/>"#, r#"<a y="2" x="1"/>"#, true),
            ("<a><b/><c/></a>", "<a><c/><b/></a>", false),
            ("<a>t</a>", "<a>t</a>", true),
            ("<a>t</a>", "<a>u</a>", false),
            ("<a/>", "<a></a>", true),
        ];
        for (x, y, want_eq) in pairs {
            let dx = parse(x).unwrap();
            let dy = parse(y).unwrap();
            let ceq = canonical(&dx, dx.root()) == canonical(&dy, dy.root());
            let veq = value_equal(&dx, dx.root(), &dy, dy.root());
            assert_eq!(ceq, veq, "canonical/value mismatch for {x} vs {y}");
            assert_eq!(ceq, want_eq);
        }
    }

    #[test]
    fn canonical_escapes_so_no_collision_with_structure() {
        // text "<b/>" must not collide with an actual <b/> element
        let dx = parse("<a>&lt;b/&gt;</a>").unwrap();
        let dy = parse("<a><b/></a>").unwrap();
        assert_ne!(canonical(&dx, dx.root()), canonical(&dy, dy.root()));
    }

    #[test]
    fn canonical_empty_element_is_open_close() {
        let d = parse("<a/>").unwrap();
        assert_eq!(canonical(&d, d.root()), "<a></a>");
    }

    /// Events a document would fold — an attribute named twice, empty
    /// text, text split in two — write the form of the document built of
    /// them, after whatever `out` already holds; `open` says where each
    /// element's form begins.
    #[test]
    fn the_writer_folds_what_a_document_built_of_its_events_folds() {
        let want = parse(r#"<a z="1" b="&lt;"><c>x&amp;y</c><d/></a>"#).unwrap();
        let mut out = String::from("kept");
        let mut w = CanonWriter::default();
        assert_eq!(w.open("a", &mut out), 4);
        w.attr("z", "0");
        w.attr("b", "<");
        w.attr("z", "1");
        w.text("", &mut out);
        let c = w.open("c", &mut out);
        w.text("x&", &mut out);
        w.text("y", &mut out);
        w.close("c", &mut out);
        assert_eq!(&out[c..], "<c>x&amp;y</c>");
        w.open("d", &mut out);
        w.close("d", &mut out);
        w.close("a", &mut out);
        assert_eq!(out, format!("kept{}", canonical(&want, want.root())));
    }

    #[test]
    fn an_attribute_value_is_marked_and_escaped() {
        let mut out = String::new();
        attribute_into("id", "a\"<b", &mut out);
        assert_eq!(out, r#"@id="a&quot;&lt;b""#);
    }
}
