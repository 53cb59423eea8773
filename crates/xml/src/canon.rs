//! Canonical form of XML values (§4.3).
//!
//! The paper fingerprints key values by first putting them in *canonical
//! form*: a serialization such that two values are value-equal (`=v`) if and
//! only if their canonical forms are string-equal. Our canonical form is the
//! compact serialization with attributes sorted by (name, value) and all
//! text escaped — a deliberately small subset of W3C Canonical XML
//! sufficient for the paper's value model (which ignores inter-element
//! whitespace, comments and PIs; those never reach the tree).

use crate::escape::{escape_attr_into, escape_text_into};
use crate::model::{Document, NodeId, NodeKind};

/// Returns the canonical form of the subtree rooted at `id`.
pub fn canonical(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    canonical_into(doc, id, &mut out);
    out
}

/// Appends the canonical form of the subtree rooted at `id` to `out`.
pub fn canonical_into(doc: &Document, id: NodeId, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Text(t) => escape_text_into(t, out),
        NodeKind::Element(sym) => {
            let tag = doc.syms().resolve(sym);
            out.push('<');
            out.push_str(tag);
            let mut attrs: Vec<(&str, &str)> = doc
                .attrs(id)
                .map(|(s, v)| (doc.syms().resolve(s), v))
                .collect();
            attrs.sort_unstable();
            for (a, v) in attrs {
                out.push(' ');
                out.push_str(a);
                out.push_str("=\"");
                escape_attr_into(v, out);
                out.push('"');
            }
            out.push('>');
            for &c in doc.children(id) {
                canonical_into(doc, c, out);
            }
            out.push_str("</");
            out.push_str(tag);
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
}
