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
//! Labels are compared where they are stored — the tag through the symbol
//! table, the key value in the arena node or the [`Annotations`] — and the
//! sorts move node ids.
//!
//! **The no-op rule.** If no node beneath archive node `x` carries a
//! timestamp of its own and `children(x) =v children(y)` in order, the
//! steps above write nothing beneath `x`: every keyed child pairs with its
//! equal, every descendant inherits a timestamp that `i` has already been
//! added to higher up, every frontier content compares equal, and neither
//! `terminate` nor an insertion fires. So a merge that has brought
//! `time(x)` up to date checks exactly that (`unchanged`) and returns.
//! The precondition matters: beneath a node that *has* been written — a
//! record terminated once, a `Text` with two alternatives — the same
//! children can need `i` added to a timestamp, so such a node always takes
//! the walk. "Written beneath" is [`Archive::written_beneath`], kept by
//! `Archive::set_time`, through which every timestamp is assigned. The
//! equality asked for is positional, attributes included, so it allocates
//! nothing and hashes nothing; a subtree that is equal only after
//! reordering fails it and is merged the long way, to the same archive.
//! An accretive release — the paper's OMIM changes about one record in
//! 300 — therefore costs one read of what it did not change plus the
//! walk of what it did. [`Archive::merge_tally`] counts both.
//!
//! **Annotate against the archive.** `add_version` and `add_versions`
//! run Annotate Keys (§4.1) against the archive (each document of a batch
//! against the archive as the documents before it left it), and the
//! no-op rule's walk runs inside it: each keyed version node, once its
//! key is extracted, is paired as `merge_children` pairs it, and where
//! the rule applies its equality walk runs there and its verdict is kept.
//! A node found equal is *held*: its subtree is neither annotated nor
//! walked a second time, and the merge, which takes the verdict and
//! returns there, reads nothing beneath it. So a release pays key
//! extraction only for what changed;
//! [`MergeTally::keys_extracted`](crate::MergeTally::keys_extracted)
//! counts it.
//!
//! Above the frontier, children not covered by any key (mixed content,
//! schema drift) fall back to whole-value matching — the "conventional diff
//! techniques" escape hatch of §3, in its simplest form.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;

use xarch_keys::{annotate_holding, Annotations, KeyError, KeyValue, NodeClass};
use xarch_xml::canon::canonical;
use xarch_xml::{Document, NodeId, NodeKind, Sym};

use crate::archive::{AKind, ANodeId, Archive, Compaction, MergeError};
use crate::history::{cmp_labels, Label};
use crate::timeset::{TimeRef, TimeSet};
use crate::weave::weave_frontier;

/// One incoming version as the merge reads it: the document, its key
/// annotations, what annotating it against the archive paired, and the
/// version number it is archived as.
pub(crate) struct Version<'a> {
    pub doc: &'a Document,
    ann: &'a Annotations,
    /// Per node of `doc`, what annotation paired it with; empty when the
    /// version was annotated on its own (nothing held).
    links: &'a [Link],
    /// Archive child lists annotation sorted; the merge takes them.
    sorted: &'a Sorted,
    /// The version number being merged.
    pub i: u32,
    /// `doc`'s symbols in the archive's table as of the start of the
    /// merge, so tags and attribute names compare as `Sym`s. `None` is a
    /// name the archive did not have then ([`Names::same`]).
    syms: Vec<Option<Sym>>,
    /// The paper pairs the archive root `rA` with a virtual root `rD`
    /// whose only child is the document root: this is that child list.
    top: [NodeId; 1],
}

impl<'a> Version<'a> {
    fn new(
        a: &Archive,
        doc: &'a Document,
        (ann, links): (&'a Annotations, &'a [Link]),
        sorted: &'a Sorted,
        i: u32,
    ) -> Self {
        Version {
            doc,
            ann,
            links,
            sorted,
            i,
            syms: syms_of(a, doc),
            top: [doc.root()],
        }
    }

    fn names(&self) -> Names<'_> {
        Names {
            doc: self.doc,
            syms: &self.syms,
        }
    }

    /// `doc`'s symbol `s` in the archive's table, interned if new.
    fn intern(&self, a: &mut Archive, s: Sym) -> Sym {
        self.syms[s.index()].unwrap_or_else(|| a.intern(self.doc.syms().resolve(s)))
    }

    /// The class and key of version node `y`. The annotate walk leaves
    /// only the nodes beneath a held one unannotated, and the merge
    /// returns at a held node.
    fn annotation(&self, y: NodeId) -> (NodeClass, Option<&KeyValue>) {
        let class = self
            .ann
            .annotated(y)
            .expect("the merge reads no node beneath a held one");
        (class, self.ann.key(y))
    }

    fn is_frontier(&self, y: NodeId) -> bool {
        self.annotation(y).0 == NodeClass::Frontier
    }

    /// The no-op rule's verdict at `(x, y)`, when annotation reached it.
    fn verdict(&self, x: ANodeId, y: NodeId) -> Option<Verdict> {
        match self.links.get(y.index()) {
            Some(&Link::Paired(px, verdict)) if px == x => verdict,
            _ => None,
        }
    }
}

/// `doc`'s symbols in the archive's table (`None`: not there yet).
fn syms_of(a: &Archive, doc: &Document) -> Vec<Option<Sym>> {
    doc.syms().iter().map(|(_, n)| a.syms().get(n)).collect()
}

/// A version document and its symbols in the archive's table, as the
/// equality walk reads them.
#[derive(Clone, Copy)]
struct Names<'a> {
    doc: &'a Document,
    syms: &'a [Option<Sym>],
}

impl Names<'_> {
    /// Whether the archive's symbol `x` and `doc`'s symbol `y` are one
    /// name. A name the archive lacked when `syms` was mapped matches
    /// nothing: the equality walk reads only beneath nodes nothing has
    /// been written beneath, so it never meets a node this version's
    /// merge made, the only kind that could carry a newer name.
    fn same(&self, x: Sym, y: Sym) -> bool {
        self.syms[y.index()] == Some(x)
    }
}

/// What annotating a version against the archive found for one node.
#[derive(Clone, Copy)]
enum Link {
    /// Not paired: not keyed, beneath an unpaired node, or no archive
    /// node has its label.
    Unpaired,
    /// A keyed node and the archive node the label walk pairs it with,
    /// with the no-op rule's verdict there — `None` where the rule does
    /// not apply (the archive node has been written beneath).
    Paired(ANodeId, Option<Verdict>),
}

/// The no-op rule's answer at one pair, and the node pairs compared to
/// reach it — what `unchanged` adds to the tally when it uses it.
#[derive(Clone, Copy)]
struct Verdict {
    same: bool,
    compared: u32,
}

/// The keyed children of archive nodes, sorted by label: sorted once per
/// version, where annotation first looks a partner up, and taken by the
/// merge's walk of that node.
type Sorted = RefCell<HashMap<ANodeId, Vec<ANodeId>>>;

/// The label of version node `id`, when it is a keyed element.
fn y_label<'s>(ver: &'s Version<'_>, id: NodeId) -> Option<Label<'s>> {
    match (ver.doc.kind(id), ver.annotation(id).1) {
        (NodeKind::Element(s), Some(k)) => Some((ver.doc.syms().resolve(s), k)),
        _ => None,
    }
}

/// [`sort_keyed_x`], or the list annotation sorted for `x` — once: a
/// second walk of `x` in the same version sorts afresh.
fn sorted_keyed_x(a: &Archive, x: ANodeId, sorted: &Sorted) -> Vec<ANodeId> {
    let cached = sorted.borrow_mut().remove(&x);
    cached.unwrap_or_else(|| sort_keyed_x(a, x))
}

/// The keyed children of archive node `x`, sorted by label. The sort is
/// stable, so siblings that (illegally) share a label keep document order
/// and pair positionally.
fn sort_keyed_x(a: &Archive, x: ANodeId) -> Vec<ANodeId> {
    let mut kx: Vec<(Label<'_>, ANodeId)> = Vec::new();
    for &c in a.children(x) {
        debug_assert!(
            !matches!(a.kind(c), AKind::Stamp),
            "stamp nodes occur only beneath frontier nodes"
        );
        kx.extend(a.label(c).map(|l| (l, c)));
    }
    kx.sort_by(|p, q| cmp_labels(p.0, q.0));
    kx.into_iter().map(|p| p.1).collect()
}

/// Splits a version child list into its keyed children, sorted by label
/// (stably, as [`sorted_keyed_x`]), and the others in document order.
fn split_y(ver: &Version<'_>, y_children: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut ky: Vec<(Label<'_>, NodeId)> = Vec::new();
    let mut oy = Vec::new();
    for &c in y_children {
        match y_label(ver, c) {
            Some(l) => ky.push((l, c)),
            None => oy.push(c),
        }
    }
    ky.sort_by(|p, q| cmp_labels(p.0, q.0));
    (ky.into_iter().map(|p| p.1).collect(), oy)
}

/// The children of `x` that are not keyed elements, in document order.
fn unkeyed_x(a: &Archive, x: ANodeId) -> Vec<ANodeId> {
    let others = a.children(x).iter().copied();
    others.filter(|&c| a.label(c).is_none()).collect()
}

const KEYED: &str = "the keyed lists hold keyed elements";

impl Archive {
    /// Annotates `doc` against the archive — Annotate Keys with the no-op
    /// rule decided as the walk goes, so a subtree the archive already
    /// holds is neither annotated nor walked twice — and merges it as the
    /// next version. Returns the assigned version number.
    pub fn add_version(&mut self, doc: &Document) -> Result<u32, MergeError> {
        self.touched.0.clear();
        self.merge_against(doc)
    }

    /// Merges a version annotated in full by `xarch_keys::annotate`, with
    /// no subtree held (§5's chunked experiment annotates each chunk's
    /// sub-document itself and merges it here).
    pub fn add_annotated(&mut self, doc: &Document, ann: &Annotations) -> Result<u32, MergeError> {
        self.touched.0.clear();
        self.merge_version(doc, (ann, &[]), &Sorted::default())
    }

    /// Bulk ingest: merges `docs` as consecutive versions, one at a time,
    /// each annotated against the archive as the documents before it left
    /// it, and returns the assigned version numbers. The archive is the
    /// one a serial replay builds, tally included; [`Archive::touched`]
    /// spans the whole batch.
    ///
    /// All or nothing: the batch starts from a rollback point — a clone,
    /// the copy-on-write view a published snapshot is — and the first
    /// rejected document puts the archive back there and returns that
    /// document's error. An empty batch is a no-op.
    pub fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, MergeError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let before = self.clone();
        self.touched.0.clear();
        let merged: Result<Vec<u32>, _> = docs.iter().map(|d| self.merge_against(d)).collect();
        if merged.is_err() {
            *self = before;
        }
        merged
    }

    /// Annotates `doc` against the archive and merges it.
    fn merge_against(&mut self, doc: &Document) -> Result<u32, MergeError> {
        let sorted = Sorted::default();
        let (ann, links) = annotate_against(self, doc, &sorted)?;
        self.merge_version(doc, (&ann, &links), &sorted)
    }

    fn merge_version(
        &mut self,
        doc: &Document,
        annotated: (&Annotations, &[Link]),
        sorted: &Sorted,
    ) -> Result<u32, MergeError> {
        check_root(doc, annotated.0)?;
        self.tally.keys_extracted += annotated.0.keyed_count() as u64;
        let i = self.bump_version();
        let t_cur = self.stamp_root(i);
        let ver = Version::new(self, doc, annotated, sorted, i);
        merge_children(self, self.root(), &ver, &ver.top, &t_cur);
        Ok(i)
    }

    /// Adds version `i` to the root's timestamp and returns the result.
    fn stamp_root(&mut self, i: u32) -> TimeSet {
        let root = self.root();
        self.augment_time(root, i);
        self.time(root).expect("root carries a timestamp").to_set()
    }

    /// Archives an *empty* database as the next version (§2's footnote:
    /// `root` keeps `t=[1-5]` while `db` ends at `t=[1-4]`).
    pub fn add_empty_version(&mut self) -> u32 {
        self.touched.0.clear();
        let i = self.bump_version();
        let t_cur = self.stamp_root(i);
        for c in self.children(self.root()).to_vec() {
            terminate(self, c, &t_cur, i);
        }
        i
    }
}

/// Refuses a version whose root no root-level key covers.
fn check_root(doc: &Document, ann: &Annotations) -> Result<(), MergeError> {
    if ann.is_keyed(doc.root()) {
        return Ok(());
    }
    Err(MergeError::UnkeyedRoot(doc.tag_name(doc.root()).to_owned()))
}

/// Annotate Keys (§4.1) for `doc` against the archive as it stands, with
/// the no-op rule decided as the walk goes.
///
/// Each keyed node, once its key is extracted, is paired as
/// [`merge_children`] will pair it: under its parent's partner (the
/// archive root for the document root), the k-th sibling with its label
/// takes the k-th archive child with that label. Where the partner `x`
/// has not been written beneath, the equality walk of the no-op rule runs
/// here, and its verdict is kept for the merge. A node found equal is
/// *held*: the walk stops there. A held subtree equals content that
/// was annotated when it was merged, so the first key error in document
/// order — the one returned — is the one [`xarch_keys::annotate`] returns.
fn annotate_against(
    a: &Archive,
    doc: &Document,
    sorted: &Sorted,
) -> Result<(Annotations, Vec<Link>), KeyError> {
    #[cfg(test)]
    if a.eager_annotate {
        return Ok((xarch_keys::annotate(doc, a.spec())?, Vec::new()));
    }
    let syms = syms_of(a, doc);
    let mut pairer = Pairer {
        a,
        names: Names { doc, syms: &syms },
        links: Vec::new(),
        sorted: &mut sorted.borrow_mut(),
        claims: HashMap::new(),
    };
    let ann = annotate_holding(doc, a.spec(), &mut |y, key| pairer.hold(y, key))?;
    Ok((ann, pairer.links))
}

/// The state of one [`annotate_against`] walk.
struct Pairer<'p> {
    a: &'p Archive,
    names: Names<'p>,
    /// One per node of the document once the first keyed node pairs
    /// (empty until then: a version the archive holds nothing of costs
    /// none — an empty archive's first batch, say).
    links: Vec<Link>,
    sorted: &'p mut HashMap<ANodeId, Vec<ANodeId>>,
    /// Per archive parent, per position in its sorted list: how many
    /// version siblings with the label starting there have been paired.
    claims: HashMap<ANodeId, Vec<u32>>,
}

impl Pairer<'_> {
    /// Pairs keyed node `y` and answers whether it is held.
    fn hold(&mut self, y: NodeId, key: &KeyValue) -> bool {
        let link = self.pair(y, key);
        if !self.links.is_empty() || !matches!(link, Link::Unpaired) {
            self.links_mut()[y.index()] = link;
        }
        matches!(link, Link::Paired(_, Some(Verdict { same: true, .. })))
    }

    fn links_mut(&mut self) -> &mut [Link] {
        if self.links.is_empty() {
            self.links = vec![Link::Unpaired; self.names.doc.len()];
        }
        &mut self.links
    }

    fn pair(&mut self, y: NodeId, key: &KeyValue) -> Link {
        let (a, names) = (self.a, self.names);
        let above = match names.doc.parent(y) {
            None => a.root(),
            Some(p) => match self.links.get(p.index()) {
                Some(&Link::Paired(x, _)) => x,
                _ => return Link::Unpaired,
            },
        };
        let NodeKind::Element(tag) = names.doc.kind(y) else {
            return Link::Unpaired;
        };
        let label = (names.doc.syms().resolve(tag), key);
        let kx = (self.sorted)
            .entry(above)
            .or_insert_with(|| sort_keyed_x(a, above));
        let cmp = |c: &ANodeId| cmp_labels(a.label(*c).expect(KEYED), label);
        let first = kx.partition_point(|c| cmp(c) == Ordering::Less);
        let claims = (self.claims)
            .entry(above)
            .or_insert_with(|| vec![0; kx.len()]);
        let Some(k) = claims.get_mut(first) else {
            return Link::Unpaired;
        };
        let at = first + *k as usize;
        *k += 1;
        let Some(&x) = kx.get(at).filter(|c| cmp(c) == Ordering::Equal) else {
            return Link::Unpaired;
        };
        if rule_off(a, x) {
            return Link::Paired(x, None);
        }
        let mut compared = 0;
        let same = same_children(a, x, names, y, &mut compared);
        Link::Paired(x, Some(Verdict { same, compared }))
    }
}

/// Whether the no-op rule is off at archive node `x`: something beneath
/// it has been written (or a test asked for the full walk).
fn rule_off(a: &Archive, x: ANodeId) -> bool {
    #[cfg(test)]
    if a.full_walk {
        return true;
    }
    a.written_beneath(x)
}

/// The no-op rule: `true` when merging version node `y` into the matched
/// archive node `x` would write nothing beneath `x`, so the caller,
/// having brought `time(x)` up to date, may return.
///
/// That holds when nothing beneath `x` carries a timestamp of its own and
/// `children(x) =v children(y)` — decided by one allocation-free walk
/// that reads both sides in place, usually already run by
/// [`annotate_against`], whose verdict is then taken as it stands. The
/// walk wants children *and attributes* in the same order; a subtree that
/// is equal only up to a reordering answers `false` and takes the full
/// walk, which pairs by label and finds it equal the slow way.
fn unchanged(a: &mut Archive, x: ANodeId, ver: &Version<'_>, y: NodeId) -> bool {
    if rule_off(a, x) {
        return false;
    }
    let verdict = ver.verdict(x, y).unwrap_or_else(|| {
        let mut compared = 0;
        let same = same_children(a, x, ver.names(), y, &mut compared);
        Verdict { same, compared }
    });
    a.tally.nodes_compared += u64::from(verdict.compared);
    a.tally.subtrees_skipped += u64::from(verdict.same);
    verdict.same
}

/// `children(x) =v children(y)`, position by position, counting in `n`
/// the pairs it compares. Only asked of an `x` with no timestamp beneath
/// it, so no stamp node can turn up.
fn same_children(a: &Archive, x: ANodeId, names: Names<'_>, y: NodeId, n: &mut u32) -> bool {
    let (xs, ys) = (a.children(x), names.doc.children(y));
    xs.len() == ys.len()
        && xs
            .iter()
            .zip(ys)
            .all(|(&xc, &yc)| same_node(a, xc, names, yc, n))
}

fn same_node(a: &Archive, xc: ANodeId, names: Names<'_>, yc: NodeId, n: &mut u32) -> bool {
    *n += 1;
    match (a.kind(xc), names.doc.kind(yc)) {
        (AKind::Text(t1), NodeKind::Text(t2)) => t1 == t2,
        (AKind::Element(s1), NodeKind::Element(s2)) => {
            let (x_attrs, y_attrs) = (a.attrs(xc), names.doc.attrs(yc));
            names.same(s1, s2)
                && x_attrs.len() == y_attrs.len()
                && (x_attrs.zip(y_attrs)).all(|(p, q)| names.same(p.0, q.0) && p.1 == q.1)
                && same_children(a, xc, names, yc, n)
        }
        _ => false,
    }
}

/// The recursive core: merge version node `y` into archive node `x`
/// (their labels are equal by construction).
fn nested_merge(a: &mut Archive, x: ANodeId, ver: &Version<'_>, y: NodeId, inherited: &TimeSet) {
    // "If time(x) exists, then add i to time(x), let T be time(x)."
    a.augment_time(x, ver.i);
    if unchanged(a, x, ver, y) {
        return;
    }
    let own = a.time(x).map(TimeRef::to_set);
    let t_cur = own.as_ref().unwrap_or(inherited);
    if ver.is_frontier(y) {
        frontier_merge(a, x, ver, y, t_cur);
    } else {
        merge_children(a, x, ver, ver.doc.children(y), t_cur);
    }
}

/// Partitions the children of archive node `x` and the version child list
/// into XY / X′ / Y′ and acts on each set.
pub(crate) fn merge_children(
    a: &mut Archive,
    x: ANodeId,
    ver: &Version<'_>,
    y_children: &[NodeId],
    t_cur: &TimeSet,
) {
    let kx = sorted_keyed_x(a, x, ver.sorted);
    let ox = unkeyed_x(a, x);
    let (ky, oy) = split_y(ver, y_children);

    // Merge pass over the two sorted lists.
    let (mut ix, mut iy) = (0usize, 0usize);
    while ix < kx.len() && iy < ky.len() {
        let lx = a.label(kx[ix]).expect(KEYED);
        let ly = y_label(ver, ky[iy]).expect(KEYED);
        match cmp_labels(lx, ly) {
            Ordering::Equal => {
                // action (a): recursive merge
                nested_merge(a, kx[ix], ver, ky[iy], t_cur);
                ix += 1;
                iy += 1;
            }
            Ordering::Less => {
                // action (b): terminate the archive-only node
                terminate(a, kx[ix], t_cur, ver.i);
                ix += 1;
            }
            Ordering::Greater => {
                // action (c): new subtree
                insert_new(a, x, ver, ky[iy]);
                iy += 1;
            }
        }
    }
    for &xc in &kx[ix..] {
        terminate(a, xc, t_cur, ver.i);
    }
    for &yc in &ky[iy..] {
        insert_new(a, x, ver, yc);
    }

    match_unkeyed(a, x, &ox, ver, &oy, t_cur);
}

/// Action (b): "If time(x′) does not exist, then let time(x′) be T − {i}."
pub(crate) fn terminate(a: &mut Archive, xc: ANodeId, t_cur: &TimeSet, i: u32) {
    if a.time(xc).is_none() {
        let mut t = t_cur.clone();
        t.remove(i);
        a.set_time(xc, t);
    }
}

/// Action (c): copy a version subtree into the archive with timestamp `{i}`.
fn insert_new(a: &mut Archive, parent: ANodeId, ver: &Version<'_>, y: NodeId) {
    let id = copy_subtree(a, ver, y, parent);
    a.set_time(id, TimeSet::from_version(ver.i));
}

/// Deep-copies a version subtree into the archive, carrying over key values
/// and node classes so future merges need not re-annotate the archive.
pub(crate) fn copy_subtree(
    a: &mut Archive,
    ver: &Version<'_>,
    y: NodeId,
    parent: ANodeId,
) -> ANodeId {
    let (class, key) = ver.annotation(y);
    let id = match ver.doc.kind(y) {
        NodeKind::Element(s) => {
            let tag = ver.intern(a, s);
            let id = a.push_node(parent, AKind::Element(tag), class, key.cloned());
            for (s, v) in ver.doc.attrs(y) {
                let name = ver.intern(a, s);
                a.push_attr(id, name, v);
            }
            id
        }
        NodeKind::Text(t) => a.push_node(parent, AKind::Text(t), class, None),
    };
    for &c in ver.doc.children(y) {
        copy_subtree(a, ver, c, id);
    }
    id
}

/// Frontier handling (§4.2): beneath the deepest keyed nodes, contents are
/// matched by value.
fn frontier_merge(a: &mut Archive, x: ANodeId, ver: &Version<'_>, y: NodeId, t_cur: &TimeSet) {
    if a.compaction() == Compaction::Weave {
        weave_frontier(a, x, ver, y, t_cur);
        return;
    }
    let (doc, i) = (ver.doc, ver.i);
    let y_children = doc.children(y);
    let is_stamp = |a: &Archive, c: ANodeId| matches!(a.kind(c), AKind::Stamp);
    if !a.children(x).iter().any(|&c| is_stamp(a, c)) {
        // "If every node in children(x) is not a timestamp node":
        if !content_equals(a, a.children(x), doc, y_children) {
            // split into two alternatives t1 = T−{i}, t2 = {i}
            let mut t_old = t_cur.clone();
            t_old.remove(i);
            a.wrap_children(x, t_old);
            push_alternative(a, x, ver, y_children);
        }
        // equal contents: nothing to do, children keep inheriting
    } else {
        // find an existing alternative with value-equal content
        let stamps = a.children(x).iter().copied();
        let stamp = stamps
            .filter(|&sc| is_stamp(a, sc))
            .find(|&sc| content_equals(a, a.children(sc), doc, y_children));
        match stamp {
            Some(sc) => {
                let stamped = a.augment_time(sc, i);
                debug_assert!(stamped, "stamps carry timestamps");
            }
            None => push_alternative(a, x, ver, y_children),
        }
    }
}

/// Appends an empty `<T t="t">` alternative to frontier node `x`.
fn push_stamp(a: &mut Archive, x: ANodeId, t: TimeSet) -> ANodeId {
    let stamp = a.push_node(x, AKind::Stamp, NodeClass::BeyondFrontier, None);
    a.set_time(stamp, t);
    stamp
}

/// Appends a new `<T t="i">` alternative holding a copy of `y_children`.
fn push_alternative(a: &mut Archive, x: ANodeId, ver: &Version<'_>, y_children: &[NodeId]) {
    let t2 = push_stamp(a, x, TimeSet::from_version(ver.i));
    for &c in y_children {
        copy_subtree(a, ver, c, t2);
    }
}

/// Fallback matching for children not covered by keys: pair archive and
/// version children with value-equal subtrees; augment matched timestamps,
/// terminate unmatched archive children, insert unmatched version children.
fn match_unkeyed(
    a: &mut Archive,
    x: ANodeId,
    ox: &[ANodeId],
    ver: &Version<'_>,
    oy: &[NodeId],
    t_cur: &TimeSet,
) {
    if ox.is_empty() && oy.is_empty() {
        return;
    }
    let mut by_canon: HashMap<String, Vec<ANodeId>> = HashMap::new();
    for &xc in ox {
        by_canon.entry(canonical_anode(a, xc)).or_default().push(xc);
    }
    for &yc in oy {
        let cy = canonical(ver.doc, yc);
        let matched = by_canon.get_mut(&cy).and_then(|v| v.pop());
        match matched {
            Some(xc) => {
                // time == None: inherits, which already includes i
                a.augment_time(xc, ver.i);
            }
            None => insert_new(a, x, ver, yc),
        }
    }
    for (_, rest) in by_canon {
        for xc in rest {
            terminate(a, xc, t_cur, ver.i);
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
    match a.kind(id) {
        AKind::Text(t) => escape_text_into(t, out),
        AKind::Element(s) => {
            let tag = a.syms().resolve(s).to_owned();
            out.push('<');
            out.push_str(&tag);
            let mut attrs: Vec<(&str, &str)> = (a.attrs(id))
                .map(|(s, v)| (a.syms().resolve(s), v))
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
    match (a.kind(xc), doc.kind(yc)) {
        (AKind::Text(t1), NodeKind::Text(t2)) => t1 == t2,
        (AKind::Element(s1), NodeKind::Element(s2)) => {
            if a.syms().resolve(s1) != doc.syms().resolve(s2) {
                return false;
            }
            // attrs as sets
            if a.attrs(xc).len() != doc.attrs(yc).len() {
                return false;
            }
            let mut a1: Vec<(&str, &str)> = (a.attrs(xc))
                .map(|(s, v)| (a.syms().resolve(s), v))
                .collect();
            let mut a2: Vec<(&str, &str)> = doc
                .attrs(yc)
                .map(|(s, v)| (doc.syms().resolve(s), v))
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
mod edit_scripts;
#[cfg(test)]
mod held_tests;
#[cfg(test)]
mod skip_tests;

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
