//! Key-aware document equivalence.
//!
//! The archive "ignores the order among elements with keys" (§2): retrieval
//! may reorder keyed siblings relative to the original version. Two
//! documents are *equivalent modulo key order* when they are value-equal
//! after keyed siblings are aligned by key value. Beneath frontier nodes —
//! where order carries meaning — strict ordered value equality is required.
//!
//! Integration tests use this relation to state the archiver's correctness:
//! `retrieve(archive, i) ≡ version_i` for every archived version.

use std::cmp::Ordering;
use std::collections::HashMap;

use xarch_keys::{annotate, Annotations, KeySpec, KeyValue};
use xarch_xml::canon::canonical;
use xarch_xml::order::cmp_node_lists;
use xarch_xml::{Document, NodeId, NodeKind};

/// True when `a` and `b` represent the same database under `spec`,
/// tolerating reordering of keyed siblings.
pub fn equiv_modulo_key_order(a: &Document, b: &Document, spec: &KeySpec) -> bool {
    let (Ok(ann_a), Ok(ann_b)) = (annotate(a, spec), annotate(b, spec)) else {
        // If either document violates the keys, fall back to strict equality.
        return xarch_xml::value_equal(a, a.root(), b, b.root());
    };
    if a.tag_name(a.root()) != b.tag_name(b.root()) {
        return false;
    }
    equiv_nodes(a, a.root(), &ann_a, b, b.root(), &ann_b)
}

fn attrs_equal(a: &Document, x: NodeId, b: &Document, y: NodeId) -> bool {
    let mut xa: Vec<(&str, &str)> = a.attrs(x).map(|(s, v)| (a.syms().resolve(s), v)).collect();
    let mut ya: Vec<(&str, &str)> = b.attrs(y).map(|(s, v)| (b.syms().resolve(s), v)).collect();
    xa.sort_unstable();
    ya.sort_unstable();
    xa == ya
}

fn equiv_nodes(
    a: &Document,
    x: NodeId,
    ann_a: &Annotations,
    b: &Document,
    y: NodeId,
    ann_b: &Annotations,
) -> bool {
    if !attrs_equal(a, x, b, y) {
        return false;
    }
    // Frontier nodes: strict ordered equality of content.
    if ann_a.is_frontier(x) || ann_b.is_frontier(y) {
        return ann_a.is_frontier(x)
            && ann_b.is_frontier(y)
            && cmp_node_lists(a, a.children(x), b, b.children(y)) == Ordering::Equal;
    }
    // Partition children into keyed and other.
    let mut ka: Vec<(String, KeyValue, NodeId)> = Vec::new();
    let mut oa: Vec<NodeId> = Vec::new();
    for &c in a.children(x) {
        match (a.kind(c), ann_a.key(c)) {
            (NodeKind::Element(s), Some(k)) => {
                ka.push((a.syms().resolve(s).to_owned(), k.clone(), c))
            }
            _ => oa.push(c),
        }
    }
    let mut kb: Vec<(String, KeyValue, NodeId)> = Vec::new();
    let mut ob: Vec<NodeId> = Vec::new();
    for &c in b.children(y) {
        match (b.kind(c), ann_b.key(c)) {
            (NodeKind::Element(s), Some(k)) => {
                kb.push((b.syms().resolve(s).to_owned(), k.clone(), c))
            }
            _ => ob.push(c),
        }
    }
    if ka.len() != kb.len() || oa.len() != ob.len() {
        return false;
    }
    let lbl_cmp = |p: &(String, KeyValue, NodeId), q: &(String, KeyValue, NodeId)| {
        p.0.cmp(&q.0).then_with(|| p.1.cmp_parts(&q.1))
    };
    ka.sort_by(lbl_cmp);
    kb.sort_by(lbl_cmp);
    for (pa, pb) in ka.iter().zip(kb.iter()) {
        if pa.0 != pb.0 || pa.1.cmp_parts(&pb.1) != Ordering::Equal {
            return false;
        }
        if !equiv_nodes(a, pa.2, ann_a, b, pb.2, ann_b) {
            return false;
        }
    }
    // Unkeyed children: compare as multisets of canonical forms (the
    // archiver's fallback matching is order-insensitive too).
    let mut counts: HashMap<String, isize> = HashMap::new();
    for &c in &oa {
        *counts.entry(canonical(a, c)).or_insert(0) += 1;
    }
    for &c in &ob {
        *counts.entry(canonical(b, c)).or_insert(0) -= 1;
    }
    counts.values().all(|&n| n == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse(
            "(/, (db, {}))\n\
             (/db, (dept, {name}))\n\
             (/db/dept, (emp, {fn, ln}))\n\
             (/db/dept/emp, (sal, {}))\n\
             (/db/dept/emp, (tel, {.}))",
        )
        .unwrap()
    }

    #[test]
    fn reordered_keyed_siblings_are_equivalent() {
        let a = parse(
            "<db><dept><name>f</name>\
             <emp><fn>A</fn><ln>X</ln></emp><emp><fn>B</fn><ln>Y</ln></emp></dept></db>",
        )
        .unwrap();
        let b = parse(
            "<db><dept><name>f</name>\
             <emp><fn>B</fn><ln>Y</ln></emp><emp><fn>A</fn><ln>X</ln></emp></dept></db>",
        )
        .unwrap();
        assert!(equiv_modulo_key_order(&a, &b, &spec()));
        // strict equality does NOT hold
        assert!(!xarch_xml::value_equal(&a, a.root(), &b, b.root()));
    }

    #[test]
    fn different_content_is_not_equivalent() {
        let a = parse("<db><dept><name>f</name></dept></db>").unwrap();
        let b = parse("<db><dept><name>g</name></dept></db>").unwrap();
        assert!(!equiv_modulo_key_order(&a, &b, &spec()));
    }

    #[test]
    fn missing_element_is_not_equivalent() {
        let a =
            parse("<db><dept><name>f</name><emp><fn>A</fn><ln>X</ln></emp></dept></db>").unwrap();
        let b = parse("<db><dept><name>f</name></dept></db>").unwrap();
        assert!(!equiv_modulo_key_order(&a, &b, &spec()));
        assert!(!equiv_modulo_key_order(&b, &a, &spec()));
    }

    #[test]
    fn frontier_content_order_matters() {
        // tel content is a frontier value; sal's children order matters
        let a = parse(
            "<db><dept><name>f</name><emp><fn>A</fn><ln>X</ln>\
             <sal>90K</sal></emp></dept></db>",
        )
        .unwrap();
        let b = parse(
            "<db><dept><name>f</name><emp><fn>A</fn><ln>X</ln>\
             <sal>91K</sal></emp></dept></db>",
        )
        .unwrap();
        assert!(!equiv_modulo_key_order(&a, &b, &spec()));
        assert!(equiv_modulo_key_order(&a, &a, &spec()));
    }

    #[test]
    fn identical_documents_are_equivalent() {
        let a = parse(
            "<db><dept><name>f</name>\
             <emp><fn>A</fn><ln>X</ln><sal>90K</sal><tel>1</tel><tel>2</tel></emp></dept></db>",
        )
        .unwrap();
        assert!(equiv_modulo_key_order(&a, &a, &spec()));
    }

    #[test]
    fn duplicate_keys_differ_from_single() {
        let a = parse(
            "<db><dept><name>f</name><emp><fn>A</fn><ln>X</ln><tel>1</tel><tel>1</tel></emp></dept></db>",
        )
        .unwrap();
        let b = parse(
            "<db><dept><name>f</name><emp><fn>A</fn><ln>X</ln><tel>1</tel></emp></dept></db>",
        )
        .unwrap();
        assert!(!equiv_modulo_key_order(&a, &b, &spec()));
    }
}
