//! Key-aware change descriptions.
//!
//! The motivating example of §1 (Fig 1): a minimum-edit-distance diff
//! "explains" a correction that swapped two genes' data as the genes
//! changing their ids and names — semantically nonsense. Because the
//! archive preserves the continuity of keyed elements, it can describe the
//! change between any two versions *element-wise*: which keyed elements
//! appeared, disappeared, or changed content.

use std::fmt;

use crate::archive::{AKind, ANodeId, Archive};
use crate::timeset::{TimeRef, TimeSet};

/// The kind of an element-wise change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// The element exists in `j` but not `i`.
    Added,
    /// The element exists in `i` but not `j`.
    Deleted,
    /// A frontier element exists in both but with different content.
    Modified,
}

impl fmt::Display for ChangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChangeKind::Added => "added",
            ChangeKind::Deleted => "deleted",
            ChangeKind::Modified => "modified",
        })
    }
}

/// One element-wise change between two versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    /// Key-annotated path, e.g.
    /// `/db/dept{name=<name>finance</name>}/emp{fn=<fn>John</fn>, ln=<ln>Doe</ln>}/sal`.
    pub path: String,
    /// Added, deleted, or modified.
    pub kind: ChangeKind,
    /// For `Modified`: (content at `i`, content at `j`) in canonical form.
    pub detail: Option<(String, String)>,
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.detail {
            Some((from, to)) => write!(f, "{} {}: {} -> {}", self.kind, self.path, from, to),
            None => write!(f, "{} {}", self.kind, self.path),
        }
    }
}

/// Describes the changes between archived versions `i` and `j`, grouped by
/// element (the paper's contrast with deltas, which group changes by time).
pub fn describe_changes(a: &Archive, i: u32, j: u32) -> Vec<Change> {
    let mut out = Vec::new();
    let root_time = a.effective_time(a.root());
    walk(a, a.root(), &root_time, i, j, &mut String::new(), &mut out);
    out
}

fn label_of(a: &Archive, id: ANodeId) -> String {
    let AKind::Element(s) = a.kind(id) else {
        return "#text".to_owned();
    };
    let tag = a.syms().resolve(s);
    match a.key(id) {
        Some(k) if !k.parts().is_empty() => format!("{tag}{k}"),
        _ => tag.to_owned(),
    }
}

fn walk(
    a: &Archive,
    id: ANodeId,
    inherited: &TimeSet,
    i: u32,
    j: u32,
    path: &mut String,
    out: &mut Vec<Change>,
) {
    for &c in a.children(id) {
        let eff = a.time(c).map_or_else(|| inherited.clone(), TimeRef::to_set);
        let at_i = eff.contains(i);
        let at_j = eff.contains(j);
        match a.kind(c) {
            AKind::Element(_) => {
                let lbl = label_of(a, c);
                match (at_i, at_j) {
                    (false, false) => continue,
                    (true, false) => out.push(Change {
                        path: format!("{path}/{lbl}"),
                        kind: ChangeKind::Deleted,
                        detail: None,
                    }),
                    (false, true) => out.push(Change {
                        path: format!("{path}/{lbl}"),
                        kind: ChangeKind::Added,
                        detail: None,
                    }),
                    (true, true) => {
                        let len = path.len();
                        path.push('/');
                        path.push_str(&lbl);
                        if is_frontier_like(a, c) {
                            let ci = content_at(a, c, i);
                            let cj = content_at(a, c, j);
                            if ci != cj {
                                out.push(Change {
                                    path: path.clone(),
                                    kind: ChangeKind::Modified,
                                    detail: Some((ci, cj)),
                                });
                            }
                        } else {
                            walk(a, c, &eff, i, j, path, out);
                        }
                        path.truncate(len);
                    }
                }
            }
            // Text/stamps above the frontier are handled by their parents;
            // stamps only occur beneath frontier nodes.
            _ => continue,
        }
    }
}

/// A node whose children are matched by value (stamps present, or a keyed
/// frontier node, or a node with only text/beyond-frontier children).
fn is_frontier_like(a: &Archive, id: ANodeId) -> bool {
    use xarch_keys::NodeClass;
    matches!(a.class(id), NodeClass::Frontier)
        || a.children(id)
            .iter()
            .any(|&c| matches!(a.kind(c), AKind::Stamp))
}

/// The canonical content of node `id` as of version `v`.
fn content_at(a: &Archive, id: ANodeId, v: u32) -> String {
    let mut out = String::new();
    content_at_rec(a, id, v, &mut out);
    out
}

fn content_at_rec(a: &Archive, id: ANodeId, v: u32, out: &mut String) {
    for &c in a.children(id) {
        if a.time(c).is_some_and(|t| !t.contains(v)) {
            continue;
        }
        match a.kind(c) {
            AKind::Stamp => content_at_rec(a, c, v, out),
            _ => out.push_str(&crate::merge::canonical_anode(a, c)),
        }
    }
}
