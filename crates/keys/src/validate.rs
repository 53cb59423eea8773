//! Validation of a document against a key specification.
//!
//! [`validate`] collects *all* violations rather than stopping at the first,
//! so data producers can fix their exports in one pass:
//!
//! * a key path that does not exist, or exists more than once, at a keyed
//!   node (uniqueness of `Pᵢ` at `n'`, Appendix A.4, condition 1);
//! * two sibling target nodes with the same key value (condition 2);
//! * an element above the frontier not covered by any key (§3's coverage
//!   assumption — the archiver tolerates these with a diff fallback, but
//!   they deserve a warning).

use std::collections::HashMap;
use std::fmt;

use xarch_xml::{Document, NodeId, NodeKind};

use crate::annotate::{annotate_lenient, NodeClass};
use crate::spec::KeySpec;

/// The kind of a validation finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A key path was missing at a keyed node.
    MissingKeyPath,
    /// A key path matched more than one node.
    DuplicateKeyPath,
    /// Two siblings share a key value.
    DuplicateKeyValue,
    /// An element above the frontier is not covered by any key.
    CoverageGap,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::MissingKeyPath => "missing key path",
            ViolationKind::DuplicateKeyPath => "duplicate key path",
            ViolationKind::DuplicateKeyValue => "duplicate key value",
            ViolationKind::CoverageGap => "coverage gap",
        };
        f.write_str(s)
    }
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Slash-joined label path of the offending node.
    pub at: String,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at /{}: {}", self.kind, self.at, self.detail)
    }
}

/// Validates `doc` against `spec`, returning all findings (empty = valid).
pub fn validate(doc: &Document, spec: &KeySpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let ann = annotate_lenient(doc, spec, &mut out);
    // sibling uniqueness + coverage
    for id in doc.preorder(doc.root()) {
        if !matches!(doc.kind(id), NodeKind::Element(_)) {
            continue;
        }
        // an element nested past `MAX_DEPTH` is reported, not descended
        match ann.annotated(id) {
            Some(NodeClass::Unkeyed)
                // Key-path nodes (e.g. `fn` under `emp`) are implicitly keyed
                // by the paper's "implied keys" convention; only flag nodes
                // that are not part of any parent's key value.
                if !is_key_path_node(doc, id, spec) => {
                    out.push(Violation {
                        kind: ViolationKind::CoverageGap,
                        at: doc.label_path(id).join("/"),
                        detail: "element above the frontier is not keyed".into(),
                    });
                }
            Some(NodeClass::Keyed | NodeClass::Frontier) => {
                check_sibling_uniqueness(doc, id, &ann, &mut out);
            }
            _ => {}
        }
    }
    out
}

/// Groups keyed children of `parent` by (tag, key value) and reports groups
/// of size > 1. Called once per keyed node but deduplicated by parent.
fn check_sibling_uniqueness(
    doc: &Document,
    id: NodeId,
    ann: &crate::annotate::Annotations,
    out: &mut Vec<Violation>,
) {
    // Only run the check from the *first* keyed child of each parent so each
    // sibling group is reported once.
    let parent = match doc.parent(id) {
        Some(p) => p,
        None => return,
    };
    let first_keyed = doc
        .children(parent)
        .iter()
        .copied()
        .find(|&c| ann.key(c).is_some());
    if first_keyed != Some(id) {
        return;
    }
    let mut groups: HashMap<String, usize> = HashMap::new();
    for &c in doc.children(parent) {
        if let Some(kv) = ann.key(c) {
            let tag = match doc.kind(c) {
                NodeKind::Element(s) => doc.syms().resolve(s),
                NodeKind::Text(_) => continue,
            };
            let label = format!("{tag}{kv}");
            *groups.entry(label).or_insert(0) += 1;
        }
    }
    for (label, count) in groups {
        if count > 1 {
            out.push(Violation {
                kind: ViolationKind::DuplicateKeyValue,
                at: doc.label_path(parent).join("/"),
                detail: format!("{count} siblings share key {label}"),
            });
        }
    }
}

/// True if `id` lies on (or beneath) some key path of its nearest keyed
/// ancestor — such nodes are part of a key value, not coverage gaps.
fn is_key_path_node(doc: &Document, id: NodeId, spec: &KeySpec) -> bool {
    let labels = doc.label_path(id);
    for key in spec.keys() {
        let kp = key.keyed_path();
        let ks = kp.steps();
        if labels.len() <= ks.len() || labels[..ks.len()] != ks[..] {
            continue;
        }
        let rest = &labels[ks.len()..];
        for p in &key.key_paths {
            let steps = p.steps();
            let n = rest.len().min(steps.len());
            if rest[..n] == steps[..n] {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_xml::parse;

    fn company_spec() -> KeySpec {
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
    fn valid_document_has_no_violations() {
        let doc = parse(
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal><tel>123-4567</tel></emp>\
             </dept></db>",
        )
        .unwrap();
        let v = validate(&doc, &company_spec());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn detects_duplicate_key_values() {
        let doc = parse(
            "<db><dept><name>f</name>\
             <emp><fn>J</fn><ln>D</ln></emp>\
             <emp><fn>J</fn><ln>D</ln></emp>\
             </dept></db>",
        )
        .unwrap();
        let v = validate(&doc, &company_spec());
        assert!(v.iter().any(|x| x.kind == ViolationKind::DuplicateKeyValue));
    }

    #[test]
    fn same_key_under_different_parents_is_fine() {
        // John Doe may exist in two distinct departments (paper §2).
        let doc = parse(
            "<db><dept><name>finance</name><emp><fn>J</fn><ln>D</ln></emp></dept>\
                 <dept><name>marketing</name><emp><fn>J</fn><ln>D</ln></emp></dept></db>",
        )
        .unwrap();
        assert!(validate(&doc, &company_spec()).is_empty());
    }

    #[test]
    fn detects_missing_key_path() {
        let doc = parse("<db><dept><emp><fn>J</fn><ln>D</ln></emp></dept></db>").unwrap();
        let v = validate(&doc, &company_spec());
        assert!(v.iter().any(|x| x.kind == ViolationKind::MissingKeyPath));
    }

    #[test]
    fn detects_duplicate_key_path() {
        let doc = parse("<db><dept><name>a</name><name>b</name></dept></db>").unwrap();
        let v = validate(&doc, &company_spec());
        assert!(v.iter().any(|x| x.kind == ViolationKind::DuplicateKeyPath));
    }

    #[test]
    fn detects_coverage_gap() {
        let doc = parse(
            "<db><dept><name>f</name><mystery/>\
             <emp><fn>J</fn><ln>D</ln></emp></dept></db>",
        )
        .unwrap();
        let v = validate(&doc, &company_spec());
        assert!(v
            .iter()
            .any(|x| x.kind == ViolationKind::CoverageGap && x.at == "db/dept/mystery"));
    }

    #[test]
    fn key_path_nodes_are_not_gaps() {
        // name/fn/ln are key-path nodes — they must not be flagged.
        let doc =
            parse("<db><dept><name>f</name><emp><fn>J</fn><ln>D</ln></emp></dept></db>").unwrap();
        let v = validate(&doc, &company_spec());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn duplicate_tel_content_flagged() {
        let doc = parse(
            "<db><dept><name>f</name>\
             <emp><fn>J</fn><ln>D</ln><tel>1</tel><tel>1</tel></emp></dept></db>",
        )
        .unwrap();
        let v = validate(&doc, &company_spec());
        assert!(v.iter().any(|x| x.kind == ViolationKind::DuplicateKeyValue));
    }
}
