//! **Nested Merge** (§4.2): merging a new version into the archive.
//!
//! The algorithm recursively pairs archive nodes with version nodes that
//! have the same *label* (tag + key value), starting from the root:
//!
//! * paired nodes (`XY`) are merged — the archive node's timestamp is
//!   augmented with the new version number `i` and the recursion descends;
//! * archive-only nodes (`X′`) are *terminated*: if they were inheriting
//!   their timestamp they now get an explicit one excluding `i`;
//! * version-only nodes (`Y′`) are copied into the archive with
//!   timestamp `{i}`.
//!
//! At **frontier nodes** the key structure runs out, so matching switches
//! to value equality: contents that differ across versions are held in
//! `<T>` *stamp* alternatives (Fig 8), or woven SCCS-style under the
//! "further compaction" mode (Fig 10, implemented in [`crate::weave`]).
//!
//! Children on both sides are sorted by the label order `≤lab` (tag, then
//! key arity, then key-path names, then key-path values under `≤v`) and
//! paired by a single merge pass, giving the paper's `O(αN log N)` bound.
//!
//! Above the frontier, children not covered by any key (mixed content,
//! schema drift) fall back to whole-value matching — the "conventional diff
//! techniques" escape hatch of §3, in its simplest form.

use std::cmp::Ordering;
use std::collections::HashMap;

use xarch_keys::{annotate, Annotations, KeyValue, NodeClass};
use xarch_xml::canon::canonical;
use xarch_xml::{Document, NodeId, NodeKind};

use crate::archive::{AKind, ANode, ANodeId, Archive, Compaction, MergeError};
use crate::timeset::TimeSet;
use crate::weave::weave_frontier;

/// A child label: tag name plus key value (the paper's
/// `l{p1=v1, ..., pk=vk}`).
#[derive(Debug, Clone)]
pub(crate) struct Label {
    pub tag: String,
    pub key: KeyValue,
}

impl Label {
    pub(crate) fn cmp(&self, other: &Label) -> Ordering {
        self.tag
            .cmp(&other.tag)
            .then_with(|| self.key.cmp_parts(&other.key))
    }
}

impl Archive {
    /// Annotates `doc` against the archive's key spec and merges it as the
    /// next version. Returns the assigned version number.
    pub fn add_version(&mut self, doc: &Document) -> Result<u32, MergeError> {
        let ann = annotate(doc, self.spec())?;
        self.add_annotated(doc, &ann)
    }

    /// Merges an already-annotated version (callers that annotate once and
    /// reuse, e.g. the chunked archiver, use this entry point).
    pub fn add_annotated(&mut self, doc: &Document, ann: &Annotations) -> Result<u32, MergeError> {
        if !ann.is_keyed(doc.root()) {
            return Err(MergeError::UnkeyedRoot(doc.tag_name(doc.root()).to_owned()));
        }
        let i = self.bump_version();
        let root = self.root();
        let t = self
            .node_mut(root)
            .time
            .as_mut()
            .expect("root carries a timestamp");
        t.insert(i);
        let t_cur = t.clone();
        // The paper pairs the archive root rA with a virtual root rD whose
        // only child is the document root; equivalently, merge the child
        // lists directly.
        merge_children(self, root, doc, ann, &[doc.root()], &t_cur, i);
        Ok(i)
    }

    /// Bulk ingest (batch nested merge): merges `docs` as consecutive
    /// versions with **one pass over the archive**, returning the assigned
    /// version numbers.
    ///
    /// The result is identical — timestamps, node order, stamp structure —
    /// to merging the documents one at a time, but each archive child list
    /// is sorted and walked once per *batch* instead of once per version:
    /// the per-level walk pairs the archive's sorted labels against all
    /// `k` versions' sorted labels simultaneously, and the serial
    /// semantics (augment / terminate / insert, in version order) are
    /// recovered from each node's per-batch presence set (see
    /// `batch_merge_children` in this module).
    ///
    /// Every document is annotated and validated *before* any state is
    /// touched, so a rejected batch leaves the archive unchanged — unlike
    /// a serial replay, which stops at the first bad document with the
    /// earlier ones already merged. An empty batch is a no-op.
    pub fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, MergeError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let anns = docs
            .iter()
            .map(|d| annotate(d, self.spec()))
            .collect::<Result<Vec<_>, _>>()?;
        for (doc, ann) in docs.iter().zip(&anns) {
            if !ann.is_keyed(doc.root()) {
                return Err(MergeError::UnkeyedRoot(doc.tag_name(doc.root()).to_owned()));
            }
        }
        Ok(self.add_annotated_versions(docs, &anns))
    }

    /// Batch merge of already-annotated versions (the chunked archiver
    /// annotates per chunk sub-document and calls this). Cannot fail: the
    /// caller has validated every document against the spec.
    pub(crate) fn add_annotated_versions(
        &mut self,
        docs: &[Document],
        anns: &[Annotations],
    ) -> Vec<u32> {
        let root = self.root();
        let eff0 = self
            .node(root)
            .time
            .clone()
            .expect("root carries a timestamp");
        let mut assigned = Vec::with_capacity(docs.len());
        let mut levels: Vec<BatchLevel<'_>> = Vec::with_capacity(docs.len());
        for (doc, ann) in docs.iter().zip(anns) {
            let v = self.bump_version();
            assigned.push(v);
            // the paper's virtual root: each version contributes its
            // document root as the sole child to merge beneath `root`
            levels.push(BatchLevel {
                v,
                doc,
                ann,
                children: vec![doc.root()],
            });
        }
        {
            let t = self
                .node_mut(root)
                .time
                .as_mut()
                .expect("root carries a timestamp");
            for &v in &assigned {
                t.insert(v);
            }
        }
        batch_merge_children(self, root, &levels, &eff0);
        assigned
    }

    /// Archives an *empty* database as the next version (§2's footnote:
    /// `root` keeps `t=[1-5]` while `db` ends at `t=[1-4]`).
    pub fn add_empty_version(&mut self) -> u32 {
        let i = self.bump_version();
        let root = self.root();
        let t = self
            .node_mut(root)
            .time
            .as_mut()
            .expect("root carries a timestamp");
        t.insert(i);
        let t_cur = t.clone();
        for c in self.children(root).to_vec() {
            terminate(self, c, &t_cur, i);
        }
        i
    }
}

/// The recursive core: merge version node `y` into archive node `x`
/// (their labels are equal by construction).
fn nested_merge(
    a: &mut Archive,
    x: ANodeId,
    doc: &Document,
    ann: &Annotations,
    y: NodeId,
    inherited: &TimeSet,
    i: u32,
) {
    // "If time(x) exists, then add i to time(x), let T be time(x)."
    let t_cur = match a.augment_time(x, i) {
        Some(t) => t.clone(),
        None => inherited.clone(),
    };
    if ann.is_frontier(y) {
        frontier_merge(a, x, doc, ann, y, &t_cur, i);
    } else {
        let y_children = doc.children(y).to_vec();
        merge_children(a, x, doc, ann, &y_children, &t_cur, i);
    }
}

/// Partitions the children of archive node `x` and the version child list
/// into XY / X′ / Y′ and acts on each set.
pub(crate) fn merge_children(
    a: &mut Archive,
    x: ANodeId,
    doc: &Document,
    ann: &Annotations,
    y_children: &[NodeId],
    t_cur: &TimeSet,
    i: u32,
) {
    // Split both child lists into keyed and other nodes.
    let mut kx: Vec<(Label, ANodeId)> = Vec::new();
    let mut ox: Vec<ANodeId> = Vec::new();
    for &c in a.children(x) {
        let n = a.node(c);
        debug_assert!(
            !matches!(n.kind, AKind::Stamp),
            "stamp nodes occur only beneath frontier nodes"
        );
        match (&n.kind, &n.key) {
            (AKind::Element(s), Some(k)) => kx.push((
                Label {
                    tag: a.syms().resolve(*s).to_owned(),
                    key: k.clone(),
                },
                c,
            )),
            _ => ox.push(c),
        }
    }
    let mut ky: Vec<(Label, NodeId)> = Vec::new();
    let mut oy: Vec<NodeId> = Vec::new();
    for &c in y_children {
        match (&doc.node(c).kind, ann.key(c)) {
            (NodeKind::Element(s), Some(k)) => ky.push((
                Label {
                    tag: doc.syms().resolve(*s).to_owned(),
                    key: k.clone(),
                },
                c,
            )),
            _ => oy.push(c),
        }
    }
    kx.sort_by(|p, q| p.0.cmp(&q.0));
    ky.sort_by(|p, q| p.0.cmp(&q.0));

    // Merge pass over the two sorted lists.
    let (mut ix, mut iy) = (0usize, 0usize);
    while ix < kx.len() && iy < ky.len() {
        match kx[ix].0.cmp(&ky[iy].0) {
            Ordering::Equal => {
                // action (a): recursive merge
                nested_merge(a, kx[ix].1, doc, ann, ky[iy].1, t_cur, i);
                ix += 1;
                iy += 1;
            }
            Ordering::Less => {
                // action (b): terminate the archive-only node
                terminate(a, kx[ix].1, t_cur, i);
                ix += 1;
            }
            Ordering::Greater => {
                // action (c): new subtree
                insert_new(a, x, doc, ann, ky[iy].1, i);
                iy += 1;
            }
        }
    }
    for (_, xc) in &kx[ix..] {
        terminate(a, *xc, t_cur, i);
    }
    for (_, yc) in &ky[iy..] {
        insert_new(a, x, doc, ann, *yc, i);
    }

    match_unkeyed(a, x, &ox, doc, ann, &oy, t_cur, i);
}

/// Action (b): "If time(x′) does not exist, then let time(x′) be T − {i}."
pub(crate) fn terminate(a: &mut Archive, xc: ANodeId, t_cur: &TimeSet, i: u32) {
    if a.node(xc).time.is_none() {
        let mut t = t_cur.clone();
        t.remove(i);
        a.node_mut(xc).time = Some(t);
    }
}

/// Action (c): copy a version subtree into the archive with timestamp `{i}`.
/// Returns the id of the copied root (the batch merge recurses into it for
/// the later versions of a batch).
fn insert_new(
    a: &mut Archive,
    parent: ANodeId,
    doc: &Document,
    ann: &Annotations,
    y: NodeId,
    i: u32,
) -> ANodeId {
    let id = copy_subtree(a, doc, ann, y, parent);
    a.node_mut(id).time = Some(TimeSet::from_version(i));
    id
}

/// Deep-copies a version subtree into the archive, carrying over key values
/// and node classes so future merges need not re-annotate the archive.
pub(crate) fn copy_subtree(
    a: &mut Archive,
    doc: &Document,
    ann: &Annotations,
    y: NodeId,
    parent: ANodeId,
) -> ANodeId {
    let node = match &doc.node(y).kind {
        NodeKind::Element(s) => {
            let tag = a.intern(doc.syms().resolve(*s));
            let attrs = doc
                .attrs(y)
                .iter()
                .map(|(s, v)| (doc.syms().resolve(*s).to_owned(), v.clone()))
                .collect::<Vec<_>>();
            let attrs = attrs.into_iter().map(|(n, v)| (a.intern(&n), v)).collect();
            ANode {
                kind: AKind::Element(tag),
                parent: None,
                children: Vec::new(),
                attrs,
                time: None,
                key: ann.key(y).cloned(),
                class: ann.class(y),
            }
        }
        NodeKind::Text(t) => ANode {
            kind: AKind::Text(t.clone()),
            parent: None,
            children: Vec::new(),
            attrs: Vec::new(),
            time: None,
            key: None,
            class: ann.class(y),
        },
    };
    let id = a.push_node(parent, node);
    for &c in doc.children(y) {
        copy_subtree(a, doc, ann, c, id);
    }
    id
}

// ---------------------------------------------------------------------------
// Batch nested merge
//
// The serial algorithm pays, per version, a sort + walk of every archive
// child list it descends through — for a k-document batch that is k sorted
// walks of lists whose size tracks the whole archive. The batch merge
// below pairs the archive's sorted labels against all k versions' sorted
// labels in ONE walk, and reconstructs exactly what a serial replay would
// have done to each node from its batch presence set:
//
// * a node matched in versions P of the batch (present set S at its
//   parent) ends with time  pre ∪ P  when its timestamp was explicit,
//   stays inheriting when P = S, and becomes  eff0 ∪ P  when it was
//   inheriting but missed some version — because the serial replay
//   terminates it at the first absent version q with t_cur(q) − {q}
//   = eff0 ∪ {p ∈ P : p < q}, then inserts the later present versions;
// * an archive-only node is terminated once, at the batch's first
//   version, with t_cur(v₁) − {v₁} = its parent's pre-batch effective
//   time eff0 (later versions are no-ops once the timestamp is explicit);
// * a version-only label is inserted at its first present version and the
//   later versions' subtrees are nested-merged into the new node — the
//   exact serial sequence.
//
// t_cur(p) at any node is recovered as  eff0 ∪ {v ∈ S : v ≤ p}  where
// eff0 is the node's pre-batch effective timestamp and S its presence
// set, so no formula ever reads a timestamp the batch already mutated.
//
// Order matters for byte-identity: a serial replay appends version j's
// new keyed subtrees (in label order) and then its unkeyed insertions
// (in document order) before version j+1 touches anything, so insertions
// are deferred out of the label walk and replayed version by version.
// Frontier nodes and unkeyed (mixed-content) children are handled by the
// serial helpers per present version, in version order — their costs are
// bounded by version content, not archive size.
// ---------------------------------------------------------------------------

/// One version of a batch at the current tree level: its assigned version
/// number, source document + annotations, and the child list to merge.
/// A deferred insertion found during the k-way label walk: the level that
/// first introduces the label, its version node, and the later levels'
/// nodes to nested-merge into the fresh subtree.
type DeferredInsert = (usize, NodeId, Vec<(usize, NodeId)>);

struct BatchLevel<'a> {
    v: u32,
    doc: &'a Document,
    ann: &'a Annotations,
    children: Vec<NodeId>,
}

/// `eff0 ∪ {v ∈ versions : v ≤ upto}` — the node's effective timestamp as
/// of the serial replay of batch version `upto` (versions are ascending).
fn t_cur_at(eff0: &TimeSet, versions: &[u32], upto: u32) -> TimeSet {
    let mut t = eff0.clone();
    for &v in versions {
        if v > upto {
            break;
        }
        t.insert(v);
    }
    t
}

/// The batch counterpart of [`merge_children`]: merges every batch
/// version's child list into archive node `x` with one sorted walk of
/// `x`'s children. `levels` holds the versions in which `x` is present
/// (ascending); `eff0` is `x`'s pre-batch effective timestamp.
fn batch_merge_children(a: &mut Archive, x: ANodeId, levels: &[BatchLevel<'_>], eff0: &TimeSet) {
    // one version left at this subtree: the serial walk is the batch walk,
    // minus the batch scaffolding — common under newly inserted records
    if let [l] = levels {
        let mut t_cur = eff0.clone();
        t_cur.insert(l.v);
        merge_children(a, x, l.doc, l.ann, &l.children, &t_cur, l.v);
        return;
    }
    let present: Vec<u32> = levels.iter().map(|l| l.v).collect();

    // Partition and sort the archive's children ONCE for the whole batch.
    let mut kx: Vec<(Label, ANodeId)> = Vec::new();
    for &c in a.children(x) {
        let n = a.node(c);
        debug_assert!(
            !matches!(n.kind, AKind::Stamp),
            "stamp nodes occur only beneath frontier nodes"
        );
        if let (AKind::Element(s), Some(k)) = (&n.kind, &n.key) {
            kx.push((
                Label {
                    tag: a.syms().resolve(*s).to_owned(),
                    key: k.clone(),
                },
                c,
            ));
        }
    }
    kx.sort_by(|p, q| p.0.cmp(&q.0));

    // Per version: sorted keyed children + unkeyed children in doc order.
    // The sort is stable, so siblings that (illegally) share a label keep
    // document order and pair positionally, exactly as the serial pass.
    let mut kys: Vec<Vec<(Label, NodeId)>> = Vec::with_capacity(levels.len());
    let mut oys: Vec<Vec<NodeId>> = Vec::with_capacity(levels.len());
    for l in levels {
        let mut ky: Vec<(Label, NodeId)> = Vec::new();
        let mut oy: Vec<NodeId> = Vec::new();
        for &c in &l.children {
            match (&l.doc.node(c).kind, l.ann.key(c)) {
                (NodeKind::Element(s), Some(k)) => ky.push((
                    Label {
                        tag: l.doc.syms().resolve(*s).to_owned(),
                        key: k.clone(),
                    },
                    c,
                )),
                _ => oy.push(c),
            }
        }
        ky.sort_by(|p, q| p.0.cmp(&q.0));
        kys.push(ky);
        oys.push(oy);
    }

    // k-way label walk. Each round consumes at most one front entry per
    // list, so duplicate labels pair positionally across rounds. New
    // labels are deferred (in label order, with their first version) so
    // they append in serial order below.
    let mut ix = 0usize;
    let mut iys = vec![0usize; levels.len()];
    let mut news: Vec<DeferredInsert> = Vec::new();
    loop {
        let mut min: Option<&Label> = (ix < kx.len()).then(|| &kx[ix].0);
        for (li, ky) in kys.iter().enumerate() {
            if let Some((lab, _)) = ky.get(iys[li]) {
                min = match min {
                    Some(m) if m.cmp(lab) != Ordering::Greater => Some(m),
                    _ => Some(lab),
                };
            }
        }
        let Some(min) = min else { break };
        let min = min.clone();
        let mut parts: Vec<(usize, NodeId)> = Vec::new();
        for (li, ky) in kys.iter().enumerate() {
            if let Some((lab, y)) = ky.get(iys[li]) {
                if lab.cmp(&min) == Ordering::Equal {
                    parts.push((li, *y));
                    iys[li] += 1;
                }
            }
        }
        let x_here = (ix < kx.len() && kx[ix].0.cmp(&min) == Ordering::Equal).then(|| {
            ix += 1;
            kx[ix - 1].1
        });
        match x_here {
            // archive-only: serial terminates at the batch's first version
            // with t_cur(v₁) − {v₁} = eff0; later versions are no-ops
            Some(xc) if parts.is_empty() => {
                if a.node(xc).time.is_none() {
                    a.node_mut(xc).time = Some(eff0.clone());
                }
            }
            Some(xc) => batch_merge_node(a, xc, levels, &parts, eff0),
            None => {
                let (first_li, first_y) = parts[0];
                news.push((first_li, first_y, parts[1..].to_vec()));
            }
        }
    }
    // group the deferred insertions by first-present version; the stable
    // sort keeps label order within each version
    news.sort_by_key(|&(first_li, _, _)| first_li);
    let mut news = news.into_iter().peekable();
    let mut have_unkeyed_x = a.children(x).iter().any(|&c| {
        let n = a.node(c);
        !(matches!(n.kind, AKind::Element(_)) && n.key.is_some())
    });

    // Insertions and unkeyed matching, replayed in version order so the
    // archive's child append order is byte-identical to a serial replay:
    // version j's new keyed subtrees (label order), then its unkeyed
    // insertions (doc order), then version j+1's.
    for (li, l) in levels.iter().enumerate() {
        while let Some((_, y, followups)) = news.next_if(|&(first, _, _)| first == li) {
            let id = insert_new(a, x, l.doc, l.ann, y, l.v);
            // later versions of the batch merge into the fresh node — its
            // timestamp is explicit, so these are self-contained and do
            // not touch x's child list
            for &(fli, fy) in &followups {
                let fl = &levels[fli];
                nested_merge(
                    a,
                    id,
                    fl.doc,
                    fl.ann,
                    fy,
                    &t_cur_at(eff0, &present, fl.v),
                    fl.v,
                );
            }
        }
        // unkeyed matching only when there is anything unkeyed in play —
        // fully keyed levels (the common case) skip the child rescan.
        // Once one version inserts an unkeyed child, later versions must
        // rescan: their pools include it.
        let oy = &oys[li];
        if have_unkeyed_x || !oy.is_empty() {
            let ox: Vec<ANodeId> = a
                .children(x)
                .iter()
                .copied()
                .filter(|&c| {
                    let n = a.node(c);
                    !(matches!(n.kind, AKind::Element(_)) && n.key.is_some())
                })
                .collect();
            match_unkeyed(
                a,
                x,
                &ox,
                l.doc,
                l.ann,
                oy,
                &t_cur_at(eff0, &present, l.v),
                l.v,
            );
            have_unkeyed_x = have_unkeyed_x || !oy.is_empty();
        }
    }
}

/// Batch merge of one matched archive node: applies the serial replay's
/// final timestamp (see the module notes above), then descends — the
/// frontier sequentially per present version, everything else through
/// another one-walk [`batch_merge_children`].
fn batch_merge_node(
    a: &mut Archive,
    xc: ANodeId,
    levels: &[BatchLevel<'_>],
    parts: &[(usize, NodeId)],
    eff0_parent: &TimeSet,
) {
    let pre = a.node(xc).time.clone();
    let eff0 = pre.clone().unwrap_or_else(|| eff0_parent.clone());
    let part_versions: Vec<u32> = parts.iter().map(|&(li, _)| levels[li].v).collect();
    match pre {
        Some(mut t) => {
            for &v in &part_versions {
                t.insert(v);
            }
            a.node_mut(xc).time = Some(t);
        }
        // present wherever the parent is: keeps inheriting
        None if parts.len() == levels.len() => {}
        // terminated at its first absent version, then re-augmented
        None => {
            let mut t = eff0_parent.clone();
            for &v in &part_versions {
                t.insert(v);
            }
            a.node_mut(xc).time = Some(t);
        }
    }
    let frontier = levels[parts[0].0].ann.is_frontier(parts[0].1);
    debug_assert!(
        parts
            .iter()
            .all(|&(li, y)| levels[li].ann.is_frontier(y) == frontier),
        "frontier classification must agree across a batch"
    );
    if frontier {
        for &(li, y) in parts {
            let l = &levels[li];
            frontier_merge(
                a,
                xc,
                l.doc,
                l.ann,
                y,
                &t_cur_at(&eff0, &part_versions, l.v),
                l.v,
            );
        }
    } else {
        let sub: Vec<BatchLevel<'_>> = parts
            .iter()
            .map(|&(li, y)| BatchLevel {
                v: levels[li].v,
                doc: levels[li].doc,
                ann: levels[li].ann,
                children: levels[li].doc.children(y).to_vec(),
            })
            .collect();
        batch_merge_children(a, xc, &sub, &eff0);
    }
}

/// Frontier handling (§4.2): beneath the deepest keyed nodes, contents are
/// matched by value.
fn frontier_merge(
    a: &mut Archive,
    x: ANodeId,
    doc: &Document,
    ann: &Annotations,
    y: NodeId,
    t_cur: &TimeSet,
    i: u32,
) {
    if a.compaction() == Compaction::Weave {
        weave_frontier(a, x, doc, ann, y, t_cur, i);
        return;
    }
    let y_children = doc.children(y).to_vec();
    let has_stamps = a
        .children(x)
        .iter()
        .any(|&c| matches!(a.node(c).kind, AKind::Stamp));
    if !has_stamps {
        // "If every node in children(x) is not a timestamp node":
        if !content_equals(a, a.children(x), doc, &y_children) {
            // split into two alternatives t1 = T−{i}, t2 = {i}
            let old: Vec<ANodeId> = std::mem::take(&mut a.node_mut(x).children);
            let mut t_old = t_cur.clone();
            t_old.remove(i);
            let t1 = a.alloc_detached(ANode {
                kind: AKind::Stamp,
                parent: None,
                children: Vec::new(),
                attrs: Vec::new(),
                time: Some(t_old),
                key: None,
                class: NodeClass::BeyondFrontier,
            });
            for c in old {
                a.attach(t1, c);
            }
            a.attach(x, t1);
            push_alternative(a, x, doc, ann, &y_children, i);
        }
        // equal contents: nothing to do, children keep inheriting
    } else {
        // find an existing alternative with value-equal content
        let stamp = a.children(x).to_vec().into_iter().find(|&sc| {
            matches!(a.node(sc).kind, AKind::Stamp)
                && content_equals(a, a.children(sc), doc, &y_children)
        });
        match stamp {
            Some(sc) => {
                a.node_mut(sc)
                    .time
                    .as_mut()
                    .expect("stamps carry timestamps")
                    .insert(i);
            }
            None => push_alternative(a, x, doc, ann, &y_children, i),
        }
    }
}

/// Appends a new `<T t="i">` alternative holding a copy of `y_children`.
fn push_alternative(
    a: &mut Archive,
    x: ANodeId,
    doc: &Document,
    ann: &Annotations,
    y_children: &[NodeId],
    i: u32,
) {
    let t2 = a.alloc_detached(ANode {
        kind: AKind::Stamp,
        parent: None,
        children: Vec::new(),
        attrs: Vec::new(),
        time: Some(TimeSet::from_version(i)),
        key: None,
        class: NodeClass::BeyondFrontier,
    });
    for &c in y_children {
        copy_subtree(a, doc, ann, c, t2);
    }
    a.attach(x, t2);
}

/// Fallback matching for children not covered by keys: pair archive and
/// version children with value-equal subtrees; augment matched timestamps,
/// terminate unmatched archive children, insert unmatched version children.
#[allow(clippy::too_many_arguments)]
fn match_unkeyed(
    a: &mut Archive,
    x: ANodeId,
    ox: &[ANodeId],
    doc: &Document,
    ann: &Annotations,
    oy: &[NodeId],
    t_cur: &TimeSet,
    i: u32,
) {
    if ox.is_empty() && oy.is_empty() {
        return;
    }
    let mut by_canon: HashMap<String, Vec<ANodeId>> = HashMap::new();
    for &xc in ox {
        by_canon.entry(canonical_anode(a, xc)).or_default().push(xc);
    }
    for &yc in oy {
        let cy = canonical(doc, yc);
        let matched = by_canon.get_mut(&cy).and_then(|v| v.pop());
        match matched {
            Some(xc) => {
                // time == None: inherits, which already includes i
                a.augment_time(xc, i);
            }
            None => {
                insert_new(a, x, doc, ann, yc, i);
            }
        }
    }
    for (_, rest) in by_canon {
        for xc in rest {
            terminate(a, xc, t_cur, i);
        }
    }
}

/// Canonical form of an archive subtree (no stamps may occur inside).
pub(crate) fn canonical_anode(a: &Archive, id: ANodeId) -> String {
    let mut out = String::new();
    canonical_anode_into(a, id, &mut out);
    out
}

fn canonical_anode_into(a: &Archive, id: ANodeId, out: &mut String) {
    use xarch_xml::escape::{escape_attr_into, escape_text_into};
    match &a.node(id).kind {
        AKind::Text(t) => escape_text_into(t, out),
        AKind::Element(s) => {
            let tag = a.syms().resolve(*s).to_owned();
            out.push('<');
            out.push_str(&tag);
            let mut attrs: Vec<(&str, &str)> = a
                .node(id)
                .attrs
                .iter()
                .map(|(s, v)| (a.syms().resolve(*s), v.as_str()))
                .collect();
            attrs.sort_unstable();
            for (n, v) in attrs {
                out.push(' ');
                out.push_str(n);
                out.push_str("=\"");
                escape_attr_into(v, out);
                out.push('"');
            }
            out.push('>');
            for &c in a.children(id) {
                canonical_anode_into(a, c, out);
            }
            out.push_str("</");
            out.push_str(&tag);
            out.push('>');
        }
        AKind::Stamp => {
            debug_assert!(false, "canonical form of a stamp node is undefined");
        }
    }
}

/// Value equality between an archive child list (plain, no stamps) and a
/// version child list — the `children(x′) =v children(y)` test.
pub(crate) fn content_equals(
    a: &Archive,
    x_children: &[ANodeId],
    doc: &Document,
    y_children: &[NodeId],
) -> bool {
    if x_children.len() != y_children.len() {
        return false;
    }
    x_children
        .iter()
        .zip(y_children.iter())
        .all(|(&xc, &yc)| node_equals(a, xc, doc, yc))
}

fn node_equals(a: &Archive, xc: ANodeId, doc: &Document, yc: NodeId) -> bool {
    match (&a.node(xc).kind, &doc.node(yc).kind) {
        (AKind::Text(t1), NodeKind::Text(t2)) => t1 == t2,
        (AKind::Element(s1), NodeKind::Element(s2)) => {
            if a.syms().resolve(*s1) != doc.syms().resolve(*s2) {
                return false;
            }
            // attrs as sets
            let n1 = a.node(xc);
            if n1.attrs.len() != doc.attrs(yc).len() {
                return false;
            }
            let mut a1: Vec<(&str, &str)> = n1
                .attrs
                .iter()
                .map(|(s, v)| (a.syms().resolve(*s), v.as_str()))
                .collect();
            let mut a2: Vec<(&str, &str)> = doc
                .attrs(yc)
                .iter()
                .map(|(s, v)| (doc.syms().resolve(*s), v.as_str()))
                .collect();
            a1.sort_unstable();
            a2.sort_unstable();
            if a1 != a2 {
                return false;
            }
            content_equals(a, a.children(xc), doc, doc.children(yc))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Compaction;
    use xarch_keys::KeySpec;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse(
            "(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))\n(/db/rec, (tel, {.}))",
        )
        .unwrap()
    }

    /// A sequence that exercises every merge action across a batch:
    /// appearing / disappearing / reappearing records, frontier content
    /// changes and repeats, unkeyed mixed content, and a content-empty
    /// root.
    fn tricky_versions() -> Vec<Document> {
        [
            "<db><rec><id>2</id><val>b</val></rec><rec><id>1</id><val>a</val></rec></db>",
            "<db><rec><id>1</id><val>a2</val><tel>5</tel></rec><rec><id>3</id><val>c</val></rec></db>",
            "<db/>",
            "<db><rec><id>1</id><val>a</val></rec><extra>mixed</extra></db>",
            "<db><rec><id>1</id><val>a</val></rec><rec><id>3</id><val>c9</val><tel>5</tel><tel>6</tel></rec><extra>mixed</extra></db>",
            "<db><rec><id>4</id><val>d</val></rec><extra>other</extra><extra>mixed</extra></db>",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect()
    }

    /// Batch ingestion must leave the archive byte-identical — timestamps,
    /// node order, stamp structure, everything the Fig-5 XML form shows —
    /// to a serial one-document-at-a-time replay, for every split of the
    /// sequence into batches and both compaction modes.
    #[test]
    fn batch_merge_is_byte_identical_to_serial_replay() {
        let docs = tricky_versions();
        for compaction in [Compaction::Alternatives, Compaction::Weave] {
            let mut serial = Archive::with_compaction(spec(), compaction);
            for d in &docs {
                serial.add_version(d).unwrap();
            }
            let want = serial.to_xml_pretty();
            for split in 0..=docs.len() {
                let mut batched = Archive::with_compaction(spec(), compaction);
                let head = batched.add_versions(&docs[..split]).unwrap();
                let tail = batched.add_versions(&docs[split..]).unwrap();
                assert_eq!(head.len(), split);
                assert_eq!(tail.len(), docs.len() - split);
                batched.check_invariants().unwrap();
                assert_eq!(
                    batched.to_xml_pretty(),
                    want,
                    "{compaction:?}: batch split at {split} diverged from serial"
                );
            }
        }
    }

    /// The whole batch is validated before any state changes: one bad
    /// document rejects the batch and leaves the archive untouched.
    #[test]
    fn rejected_batch_leaves_archive_unchanged() {
        let mut a = Archive::new(spec());
        a.add_version(&parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap())
            .unwrap();
        let before = a.to_xml_pretty();
        let batch = vec![
            parse("<db><rec><id>2</id><val>b</val></rec></db>").unwrap(),
            parse("<nope><rec><id>3</id></rec></nope>").unwrap(),
        ];
        assert!(a.add_versions(&batch).is_err());
        assert_eq!(a.latest(), 1, "failed batch burned a version");
        assert_eq!(a.to_xml_pretty(), before, "failed batch mutated state");
    }

    /// `add_versions(&[])` is a no-op on the archive.
    #[test]
    fn empty_batch_is_a_noop() {
        let mut a = Archive::new(spec());
        assert_eq!(a.add_versions(&[]).unwrap(), Vec::<u32>::new());
        assert_eq!(a.latest(), 0);
        a.add_version(&parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap())
            .unwrap();
        let before = a.to_xml_pretty();
        assert_eq!(a.add_versions(&[]).unwrap(), Vec::<u32>::new());
        assert_eq!(a.latest(), 1);
        assert_eq!(a.to_xml_pretty(), before);
    }
}
