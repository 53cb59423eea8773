//! Value equality `=v` and the total value order `≤v` of Appendix A.6.
//!
//! Two nodes are *value equal* when the trees rooted at them are isomorphic
//! by an isomorphism that is the identity on strings — E/T children compare
//! as ordered lists, attributes (A-nodes) as name-sorted sets.
//!
//! The order extends equality to a total order used by Nested Merge to sort
//! sibling nodes by key value (`≤lab` is built on top of `≤v` in
//! `xarch-core`):
//!
//! 1. node type: T-node < A-node < E-node (A-nodes never surface here since
//!    they are stored inline, but the rank is kept for completeness);
//! 2. T-nodes by text;
//! 3. E-nodes by tag, then child list (`<l`: shorter first, then pointwise),
//!    then attribute set (`<s`: fewer first, then by sorted name, then value).

use std::cmp::Ordering;

use crate::model::{Document, NodeId, NodeKind};

/// Compares the XML values rooted at `a` (in `da`) and `b` (in `db`)
/// under the total order `≤v`.
pub fn cmp_nodes(da: &Document, a: NodeId, db: &Document, b: NodeId) -> Ordering {
    match (da.kind(a), db.kind(b)) {
        (NodeKind::Text(ta), NodeKind::Text(tb)) => ta.cmp(tb),
        (NodeKind::Text(_), NodeKind::Element(_)) => Ordering::Less,
        (NodeKind::Element(_), NodeKind::Text(_)) => Ordering::Greater,
        (NodeKind::Element(sa), NodeKind::Element(sb)) => {
            let ta = da.syms().resolve(sa);
            let tb = db.syms().resolve(sb);
            ta.cmp(tb)
                .then_with(|| cmp_node_lists(da, da.children(a), db, db.children(b)))
                .then_with(|| cmp_attr_sets(da, a, db, b))
        }
    }
}

/// Compares two ordered child lists under `<l`: by length first, then
/// pointwise by `≤v`.
pub fn cmp_node_lists(da: &Document, xs: &[NodeId], db: &Document, ys: &[NodeId]) -> Ordering {
    xs.len().cmp(&ys.len()).then_with(|| {
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            let o = cmp_nodes(da, x, db, y);
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    })
}

/// Compares two attribute sets under `<s`: by size, then by
/// lexicographically name-sorted (name, value) pairs.
fn cmp_attr_sets(da: &Document, a: NodeId, db: &Document, b: NodeId) -> Ordering {
    let mut xs: Vec<(&str, &str)> = da
        .attrs(a)
        .map(|(s, v)| (da.syms().resolve(s), v))
        .collect();
    let mut ys: Vec<(&str, &str)> = db
        .attrs(b)
        .map(|(s, v)| (db.syms().resolve(s), v))
        .collect();
    xs.sort_unstable();
    ys.sort_unstable();
    xs.len().cmp(&ys.len()).then_with(|| xs.cmp(&ys))
}

/// `a =v b`: value equality across (possibly distinct) documents.
pub fn value_equal(da: &Document, a: NodeId, db: &Document, b: NodeId) -> bool {
    cmp_nodes(da, a, db, b) == Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cmp_docs(a: &str, b: &str) -> Ordering {
        let da = parse(a).unwrap();
        let db = parse(b).unwrap();
        cmp_nodes(&da, da.root(), &db, db.root())
    }

    #[test]
    fn equal_ignores_attr_order() {
        assert_eq!(
            cmp_docs(r#"<a x="1" y="2"/>"#, r#"<a y="2" x="1"/>"#),
            Ordering::Equal
        );
    }

    #[test]
    fn child_order_matters() {
        assert_ne!(
            cmp_docs("<a><b/><c/></a>", "<a><c/><b/></a>"),
            Ordering::Equal
        );
    }

    #[test]
    fn shorter_list_is_less() {
        assert_eq!(cmp_docs("<a><b/></a>", "<a><b/><b/></a>"), Ordering::Less);
        // even when the single child would sort after the pair's children
        assert_eq!(cmp_docs("<a><z/></a>", "<a><b/><b/></a>"), Ordering::Less);
    }

    #[test]
    fn text_before_element() {
        let da = parse("<a>t</a>").unwrap();
        let db = parse("<a><e/></a>").unwrap();
        let x = da.children(da.root())[0];
        let y = db.children(db.root())[0];
        assert_eq!(cmp_nodes(&da, x, &db, y), Ordering::Less);
    }

    #[test]
    fn text_compares_lexicographically() {
        assert_eq!(cmp_docs("<a>abc</a>", "<a>abd</a>"), Ordering::Less);
        assert_eq!(cmp_docs("<a>abc</a>", "<a>abc</a>"), Ordering::Equal);
    }

    #[test]
    fn tag_dominates() {
        assert_eq!(cmp_docs("<a><zz/></a>", "<b/>"), Ordering::Less);
    }

    #[test]
    fn attr_sets_compare_by_size_then_content() {
        assert_eq!(
            cmp_docs(r#"<a x="1"/>"#, r#"<a x="1" y="1"/>"#),
            Ordering::Less
        );
        assert_eq!(cmp_docs(r#"<a x="1"/>"#, r#"<a x="2"/>"#), Ordering::Less);
        assert_eq!(cmp_docs(r#"<a x="1"/>"#, r#"<a y="0"/>"#), Ordering::Less);
    }

    #[test]
    fn deep_equality() {
        let a = "<db><dept><name>finance</name><emp><fn>John</fn><ln>Doe</ln></emp></dept></db>";
        assert_eq!(cmp_docs(a, a), Ordering::Equal);
        let b = "<db><dept><name>finance</name><emp><fn>John</fn><ln>Do!</ln></emp></dept></db>";
        assert_ne!(cmp_docs(a, b), Ordering::Equal);
    }

    #[test]
    fn order_is_antisymmetric_on_samples() {
        let samples = [
            "<a/>",
            "<a>t</a>",
            "<a><b/></a>",
            "<a><b/><c/></a>",
            r#"<a x="1"/>"#,
            r#"<a x="1" y="2"/>"#,
            "<b/>",
            "<a>u</a>",
        ];
        for x in &samples {
            for y in &samples {
                let xy = cmp_docs(x, y);
                let yx = cmp_docs(y, x);
                assert_eq!(xy, yx.reverse(), "antisymmetry violated for {x} vs {y}");
            }
        }
    }

    #[test]
    fn order_is_transitive_on_samples() {
        let samples = [
            "<a/>",
            "<a>t</a>",
            "<a><b/></a>",
            "<a><b/><c/></a>",
            r#"<a x="1"/>"#,
            "<b/>",
            "<a>u</a>",
            "<a><b>q</b></a>",
        ];
        for x in &samples {
            for y in &samples {
                for z in &samples {
                    if cmp_docs(x, y) != Ordering::Greater && cmp_docs(y, z) != Ordering::Greater {
                        assert_ne!(
                            cmp_docs(x, z),
                            Ordering::Greater,
                            "transitivity violated for {x} ≤ {y} ≤ {z}"
                        );
                    }
                }
            }
        }
    }
}
