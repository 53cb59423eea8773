//! The temporal query model (§7): results and document-side helpers.
//!
//! The paper's point of keyed, timestamped archives is that temporal
//! questions become cheap: *as-of* ("this element at version v"),
//! *history* ("when did it exist, and what did it say"), *range* ("which
//! elements lived under this path during these versions") and *diff*
//! ("what changed between v1 and v2"). This module defines the result
//! types those queries share across every backend, plus the
//! annotate-based [`Document`] navigation the default (whole-retrieve)
//! fallbacks are built from. The fast paths live elsewhere: the arena's
//! in [`crate::kernel`] (scanned or §7-indexed; `history_values` and
//! `diff` answered from the stored change points rather than version by
//! version).

use std::cmp::Ordering;
use std::sync::Arc;

use xarch_diff::{diff_lines, split_lines};
use xarch_keys::{annotate, KeySpec};
use xarch_xml::{Document, NodeId, NodeKind};

use crate::history::{cmp_labels, KeyQuery};
use crate::timeset::TimeSet;

/// The full temporal account of one element: the versions it exists in,
/// and each distinct content it held, with the versions that held it.
///
/// Defined per version — the element as of each, equal contents folded.
/// The arena backends compute it as one emit per interval of constant
/// content, cut at the subtree's own timestamps ([`crate::kernel`]); the
/// answer is the same.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementHistory {
    /// Every version in which the element exists (§7.2's history).
    pub existence: TimeSet,
    /// Distinct contents over time, ordered by first appearance: the
    /// element serialized as compact XML, paired with the versions at
    /// which that exact content held.
    pub values: Vec<(TimeSet, String)>,
}

/// Folds "the element read `content` over the versions `lo..=hi`" into an
/// [`ElementHistory::values`] list: intervals are visited in ascending
/// order, so distinct contents stay ordered by first appearance.
pub(crate) fn record_value(
    values: &mut Vec<(TimeSet, String)>,
    (lo, hi): (u32, u32),
    content: &str,
) {
    let held = TimeSet::from_range(lo, hi);
    match values.iter_mut().find(|(_, c)| c == content) {
        Some((t, _)) => *t = t.union(&held),
        None => values.push((held, content.to_owned())),
    }
}

/// One hit of a range scan: a keyed child alive somewhere in the queried
/// version window, with its lifetime restricted to that window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeEntry {
    /// The child's label — feed it back as the next [`KeyQuery`] step.
    pub step: KeyQuery,
    /// The versions within the queried window at which the child exists.
    pub time: TimeSet,
}

/// What changed in one element between two versions, computed with the
/// Myers line diff of `xarch-diff` over the pretty-printed subtrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionDelta {
    /// The earlier version queried.
    pub v1: u32,
    /// The later version queried.
    pub v2: u32,
    /// Whether the element exists at `v1` / at `v2`.
    pub present: (bool, bool),
    /// Lines removed going from `v1` to `v2`.
    pub removed: usize,
    /// Lines added going from `v1` to `v2`.
    pub added: usize,
    /// The edit script in `diff` normal format (empty when nothing
    /// changed).
    pub script: String,
}

impl VersionDelta {
    /// True when the element is byte-identical at both versions (including
    /// "absent at both").
    pub fn is_same(&self) -> bool {
        self.removed == 0 && self.added == 0 && self.present.0 == self.present.1
    }
}

/// Builds a [`VersionDelta`] from the two materialized subtrees (either
/// side may be absent): the definition of `diff`, which the trait default
/// and the kernel (whenever a timestamp separates the two versions) both
/// end in.
pub fn delta(a: Option<&Document>, b: Option<&Document>, v1: u32, v2: u32) -> VersionDelta {
    let ta = a
        .map(|d| xarch_xml::writer::to_pretty_string(d, 2))
        .unwrap_or_default();
    let tb = b
        .map(|d| xarch_xml::writer::to_pretty_string(d, 2))
        .unwrap_or_default();
    let la = split_lines(&ta);
    let lb = split_lines(&tb);
    let script = diff_lines(&la, &lb);
    let (mut removed, mut added) = (0usize, 0usize);
    for e in &script.edits {
        removed += e.a_len;
        added += e.b_lines.len();
    }
    VersionDelta {
        v1,
        v2,
        present: (a.is_some(), b.is_some()),
        removed,
        added,
        script: script.to_normal_format(&la),
    }
}

/// Finds the node a key-query path addresses inside a plain [`Document`],
/// using the key annotations of `spec`. The first step addresses the
/// document root. Returns `None` when the path does not resolve (or the
/// document violates the spec — a retrieved version never does).
pub fn find_in_doc(doc: &Document, spec: &KeySpec, steps: &[KeyQuery]) -> Option<NodeId> {
    let ann = annotate(doc, spec).ok()?;
    find_with_ann(doc, &ann, steps)
}

/// [`find_in_doc`] against annotations already in hand — callers that
/// annotate once (per retrieved version) descend without re-annotating.
fn find_with_ann(
    doc: &Document,
    ann: &xarch_keys::Annotations,
    steps: &[KeyQuery],
) -> Option<NodeId> {
    let mut steps = steps.iter();
    let first = steps.next()?;
    let mut cur = doc.root();
    if !step_matches_doc(doc, ann, cur, first) {
        return None;
    }
    for step in steps {
        cur = doc
            .children(cur)
            .iter()
            .copied()
            .find(|&c| step_matches_doc(doc, ann, c, step))?;
    }
    Some(cur)
}

/// Enumerates the keyed element children of the node addressed by
/// `prefix` (the document root itself for an empty prefix), as query
/// steps. Used by the default `range` fallback, one retrieved version at
/// a time.
pub fn keyed_children_in_doc(doc: &Document, spec: &KeySpec, prefix: &[KeyQuery]) -> Vec<KeyQuery> {
    let Ok(ann) = annotate(doc, spec) else {
        return Vec::new();
    };
    let ids: Vec<NodeId> = if prefix.is_empty() {
        vec![doc.root()]
    } else {
        let Some(node) = find_with_ann(doc, &ann, prefix) else {
            return Vec::new();
        };
        doc.children(node).to_vec()
    };
    let mut out = Vec::new();
    for c in ids {
        if let (NodeKind::Element(s), Some(k)) = (doc.kind(c), ann.key(c)) {
            let tag = Arc::clone(doc.syms().shared(s));
            out.push(KeyQuery::labelled(tag, k.clone()));
        }
    }
    out
}

/// Copies the subtree rooted at `id` out of `doc` as a standalone
/// [`Document`] (the shape `as_of` returns).
pub fn subtree_doc(doc: &Document, id: NodeId) -> Option<Document> {
    let NodeKind::Element(_) = doc.kind(id) else {
        return None;
    };
    let mut out = Document::new(doc.tag_name(id));
    let root = out.root();
    for (name, value) in doc.attrs(id) {
        out.set_attr(root, doc.syms().resolve(name), value);
    }
    for &c in doc.children(id) {
        out.copy_subtree_from(doc, c, root);
    }
    Some(out)
}

/// True if `id` is an element with the tag and exactly the key value
/// `step` names: one level of [`find_in_doc`].
fn step_matches_doc(
    doc: &Document,
    ann: &xarch_keys::Annotations,
    id: NodeId,
    step: &KeyQuery,
) -> bool {
    let (NodeKind::Element(s), Some(k)) = (doc.kind(id), ann.key(id)) else {
        return false;
    };
    cmp_labels((doc.syms().resolve(s), k), step.label()) == Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    #[test]
    fn find_in_doc_resolves_keyed_paths() {
        let doc =
            parse("<db><rec><id>1</id><val>x</val></rec><rec><id>2</id><val>y</val></rec></db>")
                .unwrap();
        let q = vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "2"),
        ];
        let id = find_in_doc(&doc, &spec(), &q).expect("resolves");
        assert_eq!(doc.tag_name(id), "rec");
        let sub = subtree_doc(&doc, id).unwrap();
        assert!(xarch_xml::writer::to_compact_string(&sub).contains("<id>2</id>"));
        // missing key value
        let q = vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "9"),
        ];
        assert!(find_in_doc(&doc, &spec(), &q).is_none());
        // wrong root
        assert!(find_in_doc(&doc, &spec(), &[KeyQuery::new("nope")]).is_none());
    }

    #[test]
    fn keyed_children_enumerate_in_label_order() {
        let doc =
            parse("<db><rec><id>2</id><val>y</val></rec><rec><id>1</id><val>x</val></rec></db>")
                .unwrap();
        let mut kids = keyed_children_in_doc(&doc, &spec(), &[KeyQuery::new("db")]);
        kids.sort();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].key().parts()[0].canon, "<id>1</id>");
        assert_eq!(kids[1].key().parts()[0].canon, "<id>2</id>");
        // empty prefix addresses the document root itself
        let top = keyed_children_in_doc(&doc, &spec(), &[]);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].tag(), "db");
    }

    #[test]
    fn delta_counts_line_edits() {
        let a = parse("<db><rec><id>1</id><val>x</val></rec></db>").unwrap();
        let b = parse("<db><rec><id>1</id><val>y</val></rec></db>").unwrap();
        let d = delta(Some(&a), Some(&b), 1, 2);
        assert!(!d.is_same());
        assert!(d.removed >= 1 && d.added >= 1);
        assert!(d.script.contains('c') || d.script.contains('a') || d.script.contains('d'));
        let same = delta(Some(&a), Some(&a), 1, 2);
        assert!(same.is_same());
        let gone = delta(Some(&a), None, 1, 2);
        assert!(!gone.is_same());
        assert_eq!(gone.present, (true, false));
    }
}
