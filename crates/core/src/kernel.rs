//! The query kernel (§7): descend the keyed tree by key path, then emit
//! the children visible at `v`.
//!
//! Every query over the archive arena is that one idea. The plain archive
//! and the §7-indexed one differ only in *how one key step finds its
//! child* (sibling scan vs binary search over the history index) and *how
//! the children visible at `v` are enumerated* (timestamp filter vs
//! timestamp tree) — the [`Nav`] a caller passes in, statically
//! dispatched. The query kinds themselves are written once, here, as
//! functions over `(&Archive, &impl Nav)`; [`Archive`]'s own methods call
//! them with [`Scan`], `xarch_index::IndexedArchive` with its indexes.

use std::cmp::Ordering;
use std::ops::RangeInclusive;

use xarch_xml::{Document, NodeId};

use crate::archive::{AKind, ANodeId, Archive};
use crate::history::KeyQuery;
use crate::query::{record_value, ElementHistory, RangeEntry};
use crate::timeset::TimeSet;

/// How a query moves through the arena: one key step down, and across the
/// children alive at a version.
pub trait Nav {
    /// Whether [`Nav::keyed`] lists children in label order (`≤lab`), so
    /// [`range`] need not sort.
    const LABEL_ORDERED: bool;

    /// The child of `parent` that `step` addresses.
    fn child(&self, a: &Archive, parent: ANodeId, step: &KeyQuery) -> Option<ANodeId>;

    /// The children of `parent` visible at version `v` — at which `parent`
    /// itself must exist — in document order.
    fn visible<'a>(
        &'a self,
        a: &'a Archive,
        parent: ANodeId,
        v: u32,
    ) -> impl Iterator<Item = ANodeId> + 'a;

    /// A list holding every keyed child of `parent` (and possibly others).
    fn keyed<'a>(&'a self, a: &'a Archive, parent: ANodeId) -> &'a [ANodeId];
}

/// The index-free navigator: a sibling scan per key step ("the naive
/// lookup walks the archive level by level") and a timestamp test per
/// child (§7.1's "simple scan").
#[derive(Debug, Clone, Copy)]
pub struct Scan;

impl Nav for Scan {
    const LABEL_ORDERED: bool = false;

    fn child(&self, a: &Archive, parent: ANodeId, step: &KeyQuery) -> Option<ANodeId> {
        let addressed =
            |&c: &ANodeId| a.node(c).key.is_some() && a.query_cmp(c, step) == Ordering::Equal;
        a.children(parent).iter().copied().find(addressed)
    }

    fn visible<'a>(
        &'a self,
        a: &'a Archive,
        parent: ANodeId,
        v: u32,
    ) -> impl Iterator<Item = ANodeId> + 'a {
        a.children(parent)
            .iter()
            .copied()
            .filter(move |&c| a.visible(c, v))
    }

    fn keyed<'a>(&'a self, a: &'a Archive, parent: ANodeId) -> &'a [ANodeId] {
        a.children(parent)
    }
}

/// Resolves a key-query path to the archive node it addresses, one
/// [`Nav::child`] per step. The first step addresses the document root
/// (e.g. `db`); the empty path addresses the synthetic root.
pub fn locate(a: &Archive, nav: &impl Nav, steps: &[KeyQuery]) -> Option<ANodeId> {
    steps
        .iter()
        .try_fold(a.root(), |cur, step| nav.child(a, cur, step))
}

/// The document root of version `v`: the element child of the synthetic
/// root visible at `v`. `None` when `v` was never archived *or* the
/// database was empty at `v`.
pub fn doc_root(a: &Archive, nav: &impl Nav, v: u32) -> Option<ANodeId> {
    if !a.has_version(v) {
        return None;
    }
    nav.visible(a, a.root(), v)
        .find(|&c| matches!(a.node(c).kind, AKind::Element(_)))
}

/// Reconstructs version `v` (§7.1); `None` as for [`doc_root`].
pub fn retrieve(a: &Archive, nav: &impl Nav, v: u32) -> Option<Document> {
    emit(a, nav, doc_root(a, nav, v)?, v)
}

/// Materializes the subtree rooted at element `id` as it existed at
/// version `v`. `None` when `id` is not an element or does not exist at
/// `v`; the cost is proportional to the visible subtree, never the
/// archive.
pub fn subtree_at(a: &Archive, nav: &impl Nav, id: ANodeId, v: u32) -> Option<Document> {
    if !a.has_version(v) || !a.exists_at(id, v) {
        return None;
    }
    emit(a, nav, id, v)
}

/// The element `id`, visible at `v`, as a standalone document (`None` for
/// a text or stamp node).
fn emit(a: &Archive, nav: &impl Nav, id: ANodeId, v: u32) -> Option<Document> {
    let mut doc = Document::new(a.tag_name(id)?);
    let did = doc.root();
    copy_attrs(a, id, &mut doc, did);
    emit_children(a, nav, id, v, &mut doc, did);
    Some(doc)
}

fn copy_attrs(a: &Archive, id: ANodeId, doc: &mut Document, did: NodeId) {
    for (name, value) in &a.node(id).attrs {
        doc.set_attr(did, a.syms().resolve(*name), value);
    }
}

fn emit_children(
    a: &Archive,
    nav: &impl Nav,
    id: ANodeId,
    v: u32,
    doc: &mut Document,
    did: NodeId,
) {
    for c in nav.visible(a, id, v) {
        match &a.node(c).kind {
            // transparent: emit the alternative's content in place
            AKind::Stamp => emit_children(a, nav, c, v, doc, did),
            AKind::Element(s) => {
                let e = doc.add_element(did, a.syms().resolve(*s));
                copy_attrs(a, c, doc, e);
                emit_children(a, nav, c, v, doc, e);
            }
            AKind::Text(t) => {
                doc.add_text(did, t);
            }
        }
    }
}

/// The temporal history of the element addressed by `steps` (§7.2): the
/// set of versions in which it exists, `None` if it was never archived.
pub fn history(a: &Archive, nav: &impl Nav, steps: &[KeyQuery]) -> Option<TimeSet> {
    locate(a, nav, steps).map(|id| a.effective_time(id))
}

/// Partial retrieval (§7.1 applied below the root): the subtree addressed
/// by `steps` as it existed at version `v`, in O(path + answer). An empty
/// path addresses the whole document.
pub fn as_of(a: &Archive, nav: &impl Nav, steps: &[KeyQuery], v: u32) -> Option<Document> {
    if !a.has_version(v) {
        return None;
    }
    if steps.is_empty() {
        return retrieve(a, nav, v);
    }
    subtree_at(a, nav, locate(a, nav, steps)?, v)
}

/// Range scan (§7.2 turned sideways): every keyed element child of the
/// node addressed by `prefix` whose lifetime intersects the closed version
/// window, with the lifetime clamped to the window, in label order.
pub fn range<N: Nav>(
    a: &Archive,
    nav: &N,
    prefix: &[KeyQuery],
    versions: RangeInclusive<u32>,
) -> Vec<RangeEntry> {
    let lo = (*versions.start()).max(1);
    let hi = (*versions.end()).min(a.latest());
    let Some(node) = locate(a, nav, prefix) else {
        return Vec::new();
    };
    let inherited = a.effective_time(node);
    let mut out = Vec::new();
    for &c in nav.keyed(a, node) {
        let own = a.node(c).time.as_ref();
        let time = own.unwrap_or(&inherited).clamp_range(lo, hi);
        if time.is_empty() {
            continue;
        }
        if let Some(step) = a.step_of(c) {
            out.push(RangeEntry { step, time });
        }
    }
    if !N::LABEL_ORDERED {
        out.sort_by(|a, b| a.step.cmp(&b.step));
    }
    out
}

/// The full temporal account of one element: one descent, then one
/// subtree emit per version it exists in.
pub fn history_values(a: &Archive, nav: &impl Nav, steps: &[KeyQuery]) -> Option<ElementHistory> {
    let id = locate(a, nav, steps)?;
    let existence = a.effective_time(id);
    let mut values = Vec::new();
    for v in existence.versions() {
        // the empty path addresses the synthetic root: its "content" is
        // the whole document (absent on empty versions), same as the
        // whole-document fallback — never the synthetic <root> wrapper
        let sub = if id == a.root() {
            retrieve(a, nav, v)
        } else {
            subtree_at(a, nav, id, v)
        };
        if let Some(sub) = sub {
            record_value(&mut values, v, xarch_xml::writer::to_compact_string(&sub));
        }
    }
    Some(ElementHistory { existence, values })
}

impl Archive {
    /// Finds the archive node addressed by a key-query path ([`locate`]).
    pub fn find(&self, steps: &[KeyQuery]) -> Option<ANodeId> {
        locate(self, &Scan, steps)
    }

    /// Reconstructs version `v` with a single scan. `None` when `v` was
    /// never archived *or* the database was empty at `v` (use
    /// [`Archive::has_version`] to distinguish).
    pub fn retrieve(&self, v: u32) -> Option<Document> {
        retrieve(self, &Scan, v)
    }

    /// The versions in which the element addressed by `steps` exists;
    /// `None` if it was never archived ([`history`]).
    pub fn history(&self, steps: &[KeyQuery]) -> Option<TimeSet> {
        history(self, &Scan, steps)
    }

    /// The subtree addressed by `steps` as it existed at `v` ([`as_of`]).
    pub fn as_of(&self, steps: &[KeyQuery], v: u32) -> Option<Document> {
        as_of(self, &Scan, steps, v)
    }

    /// The keyed children of the node addressed by `prefix` alive in the
    /// version window ([`range`]).
    pub fn range(&self, prefix: &[KeyQuery], versions: RangeInclusive<u32>) -> Vec<RangeEntry> {
        range(self, &Scan, prefix, versions)
    }
}
