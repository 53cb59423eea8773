//! Timestamp trees (§7.1, Fig 15).
//!
//! For each archive node with `k` children, a complete-ish binary tree is
//! built bottom-up by pairing children repeatedly; each internal node holds
//! the union of its children's timestamps. To find the children relevant to
//! version `v`, search down from the tree root, pruning subtrees whose
//! union does not contain `v`. Following the paper, the search also counts
//! probes and falls back to scanning all `k` leaves once `k` tree nodes
//! have been probed, bounding the worst case at `2k` probes.
//!
//! Timestamps are stored as the archive stores them: a child that
//! *inherits* its parent's timestamp (§2) is a leaf with no timestamp of
//! its own, relevant wherever the parent is. A tree whose leaves all
//! inherit therefore prunes nothing, and none is kept: a node has a tree
//! only when one of its children has a timestamp of its own, and the
//! children of any other node are all visible wherever it is. A build
//! finds those nodes by descending only through nodes that have been
//! written beneath ([`Archive::written_beneath`]); below any other node
//! every descendant inherits.
//!
//! A tree changes only when its node's child list or a child's own
//! timestamp does — that is, when the merge wrote the node or one of its
//! children — so a refresh re-derives just those trees (adding one where
//! a child gained a timestamp of its own, dropping one where none is left),
//! and leaves every other tree, and every table chunk that holds only such
//! trees, shared with the views published before it.

use std::sync::Arc;

use xarch_core::{ANodeId, Archive, CowVec, TimeRef, TimeSet};
use xarch_obs::Counter;

/// One node of a timestamp binary tree. `time` is `None` when a child
/// under it inherits the parent's timestamp — such a subtree is relevant
/// at every version the parent is.
#[derive(Debug, Clone, PartialEq)]
enum TsNode {
    Leaf {
        time: Option<TimeSet>,
        /// "offset to the corresponding child node in the archive"
        child: ANodeId,
    },
    Inner {
        time: Option<TimeSet>,
        left: usize,
        right: usize,
    },
}

/// The timestamp tree of one archive node's children.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TsTree {
    nodes: Vec<TsNode>,
    root: Option<usize>,
    k: usize,
}

impl TsTree {
    /// Builds the tree for `parent`'s `k > 0` children ("pairing nodes
    /// repeatedly in a bottom-up manner and taking the union of
    /// timestamps") into exactly the `2k − 1` nodes it has. `level` is
    /// scratch that each level is paired in place in, kept by the caller
    /// from one tree to the next.
    fn build(archive: &Archive, parent: ANodeId, level: &mut Vec<usize>) -> Self {
        let children = archive.children(parent);
        let k = children.len();
        let mut nodes = Vec::with_capacity(2 * k - 1);
        level.clear();
        for (i, &c) in children.iter().enumerate() {
            let time = archive.time(c).map(TimeRef::to_set);
            nodes.push(TsNode::Leaf { time, child: c });
            level.push(i);
        }
        while level.len() > 1 {
            let n = level.len();
            for at in (0..n).step_by(2) {
                level[at / 2] = match level.get(at..at + 2) {
                    Some(&[l, r]) => {
                        let time = match (nodes[l].time(), nodes[r].time()) {
                            (Some(a), Some(b)) => Some(a.union(b)),
                            _ => None,
                        };
                        nodes.push(TsNode::Inner {
                            time,
                            left: l,
                            right: r,
                        });
                        nodes.len() - 1
                    }
                    _ => level[at],
                };
            }
            level.truncate(n.div_ceil(2));
        }
        TsTree {
            root: level.first().copied(),
            nodes,
            k,
        }
    }

    /// The tree of `parent`'s children, none unless one of them has a
    /// timestamp of its own: a tree of inheriting leaves prunes nothing.
    fn of(archive: &Archive, parent: ANodeId, level: &mut Vec<usize>) -> Option<Self> {
        let own = |&c: &ANodeId| archive.time(c).is_some();
        (archive.children(parent).iter().any(own)).then(|| Self::build(archive, parent, level))
    }

    /// Children relevant to version `v` — given that the tree's own node
    /// exists at `v` — plus the number of tree nodes probed. Falls back to
    /// scanning all leaves after `k` probes.
    pub fn relevant(&self, v: u32) -> (Vec<ANodeId>, usize) {
        let Some(root) = self.root else {
            return (Vec::new(), 0);
        };
        let mut out = Vec::new();
        let mut probes = 0usize;
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            probes += 1;
            if probes > self.k {
                // cut-off: scan all leaves instead (≤ 2k total probes).
                // Leaves occupy the front of `nodes` in child-list order,
                // so iteration order *is* document order (child lists are
                // not id-sorted once the weave reorders them).
                out.clear();
                for node in &self.nodes {
                    if let TsNode::Leaf { child, .. } = node {
                        probes += 1;
                        if node.covers(v) {
                            out.push(*child);
                        }
                    }
                }
                return (out, probes);
            }
            let node = &self.nodes[n];
            if !node.covers(v) {
                continue;
            }
            match node {
                TsNode::Leaf { child, .. } => out.push(*child),
                TsNode::Inner { left, right, .. } => {
                    // push right first so left is visited first
                    stack.push(*right);
                    stack.push(*left);
                }
            }
        }
        (out, probes)
    }

    /// Number of children (`k`).
    pub fn fanout(&self) -> usize {
        self.k
    }
}

impl TsNode {
    fn time(&self) -> Option<&TimeSet> {
        match self {
            TsNode::Leaf { time, .. } | TsNode::Inner { time, .. } => time.as_ref(),
        }
    }

    fn covers(&self, v: u32) -> bool {
        self.time().is_none_or(|t| t.contains(v))
    }
}

/// The timestamp trees of the archive nodes that have a child with a
/// timestamp of its own, built with one descent or refreshed after each
/// merge from what it wrote: a slot per archive node (by arena index) up
/// to the last that has a tree, the slot of any other empty, in a
/// copy-on-write [`CowVec`], each tree behind an `Arc`, so cloning the
/// index shares everything.
///
/// The probe counter is an [`xarch_obs::Counter`] (atomic under the hood)
/// shared by every clone, so a built index can be shared across reader
/// threads (`TimestampIndex` is `Send + Sync`; lookups take `&self`) — and
/// so the same handle can be registered with an observability registry,
/// making the §7 probe accounting read from one source of truth.
#[derive(Debug, Clone, Default)]
pub struct TimestampIndex {
    trees: CowVec<Option<Arc<TsTree>>>,
    /// Total probes across all `relevant_children` calls (a monotone
    /// count; measurement windows difference it, or use
    /// [`TimestampIndex::reset_probes`] on a detached index).
    probes: Counter,
}

impl TimestampIndex {
    /// Builds the index ("the timestamp trees are created each time a new
    /// version arrives and after nested merge is applied"). Only a node
    /// written beneath can have a child with a timestamp of its own, so
    /// the descent from the root enters no other.
    pub fn build(archive: &Archive) -> Self {
        let mut trees = CowVec::new();
        let mut level = Vec::new();
        let root = archive.root();
        let mut stack = Vec::from_iter(archive.written_beneath(root).then_some(root));
        while let Some(id) = stack.pop() {
            if let Some(tree) = TsTree::of(archive, id, &mut level) {
                *trees.slot_mut(id.index()) = Some(Arc::new(tree));
            }
            let beneath = |&c: &ANodeId| archive.written_beneath(c);
            stack.extend(archive.children(id).iter().copied().filter(beneath));
        }
        Self {
            trees,
            ..Self::default()
        }
    }

    /// Replace the probe counter with `counter` (typically one registered
    /// under `index.timestamp.probes`), carrying the count so far into it.
    pub fn bind_counter(&mut self, counter: Counter) {
        counter.add(self.probes.get());
        self.probes = counter;
    }

    /// Brings the index up to `archive` after a merge that wrote `ids`
    /// (its [`Archive::touched`] log; repeats are fine): re-derives, once
    /// each, the tree of every written node — its child list may have
    /// changed — and of its parent, of whose tree the node's own timestamp
    /// is a leaf. Trees are written back only where they differ, instead
    /// of the paper's per-version full rebuild. Returns how many trees it
    /// re-derived.
    pub fn refresh(&mut self, archive: &Archive, ids: &[ANodeId]) -> usize {
        let mut ids: Vec<ANodeId> = (ids.iter())
            .flat_map(|&id| [Some(id), archive.parent(id)])
            .flatten()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut level = Vec::new();
        for &id in &ids {
            self.rederive(archive, id, &mut level);
        }
        ids.len()
    }

    /// Derives `id`'s tree (none unless a child has a timestamp of its
    /// own) and stores it if it differs.
    fn rederive(&mut self, archive: &Archive, id: ANodeId, level: &mut Vec<usize>) {
        let tree = TsTree::of(archive, id, level);
        if self.tree(id) != tree.as_ref() {
            *self.trees.slot_mut(id.index()) = tree.map(Arc::new);
        }
    }

    /// The children of `parent` relevant to version `v` (at which `parent`
    /// itself must exist), in document order: those its tree does not
    /// prune, charged to the probe counter, or — where it has no tree,
    /// every child inheriting — all of `archive`'s, with no probe.
    pub fn relevant_children<'a>(
        &'a self,
        archive: &'a Archive,
        parent: ANodeId,
        v: u32,
    ) -> impl Iterator<Item = ANodeId> + 'a {
        let (pruned, all) = match self.tree(parent) {
            Some(t) => {
                let (out, p) = t.relevant(v);
                self.probes.add(p as u64);
                (out, &[][..])
            }
            None => (Vec::new(), archive.children(parent)),
        };
        pruned.into_iter().chain(all.iter().copied())
    }

    /// Probe counter since construction (or the last reset).
    pub fn probes(&self) -> usize {
        usize::try_from(self.probes.get()).unwrap_or(usize::MAX)
    }

    /// Resets the probe counter — a measurement-window convenience for
    /// benches on a *detached* index; a registry-bound counter should be
    /// read as a monotone total and differenced.
    pub fn reset_probes(&self) {
        self.probes.reset();
    }

    /// The tree of one node (for inspection).
    pub fn tree(&self, parent: ANodeId) -> Option<&TsTree> {
        self.trees.get(parent.index())?.as_deref()
    }

    /// `(shared, total)` table chunks this index holds by pointer in
    /// common with `other` — how much a view taken before a merge still
    /// shares with the index after it.
    pub fn shared_chunks(&self, other: &Self) -> (usize, usize) {
        (
            self.trees.shared_chunks(&other.trees),
            self.trees.chunk_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_core::{equiv_modulo_key_order, kernel, Archive};
    use xarch_keys::KeySpec;
    use xarch_xml::parse;

    use crate::Indexes;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    fn doc_with(ids: &[u32]) -> xarch_xml::Document {
        let mut s = String::from("<db>");
        for i in ids {
            s.push_str(&format!("<rec><id>{i}</id><val>v{i}</val></rec>"));
        }
        s.push_str("</db>");
        parse(&s).unwrap()
    }

    /// Retrieves `v` through the timestamp trees; returns the document and
    /// the probes that one retrieval spent.
    fn retrieve(a: &Archive, idx: &Indexes, v: u32) -> (Option<xarch_xml::Document>, usize) {
        let before = idx.timestamp_index().probes();
        let doc = kernel::retrieve(a, idx, v);
        (doc, idx.timestamp_index().probes() - before)
    }

    fn sample_archive() -> (Archive, Vec<xarch_xml::Document>) {
        let mut a = Archive::new(spec());
        // growing database, one record added per version
        let versions: Vec<_> = (1..=8u32)
            .map(|v| doc_with(&(0..v).collect::<Vec<_>>()))
            .collect();
        for d in &versions {
            a.add_version(d).unwrap();
        }
        (a, versions)
    }

    #[test]
    fn indexed_retrieval_matches_scan() {
        let (a, versions) = sample_archive();
        let idx = Indexes::build(&a);
        for (i, want) in versions.iter().enumerate() {
            let v = i as u32 + 1;
            let (got, probes) = retrieve(&a, &idx, v);
            let got = got.expect("version exists");
            assert!(equiv_modulo_key_order(&got, want, a.spec()), "version {v}");
            assert!(probes > 0);
        }
    }

    #[test]
    fn early_versions_probe_fewer_nodes() {
        // Version 1 touches 1/8 of the records: pruning must show.
        let a = sample_archive().0;
        let idx = Indexes::build(&a);
        let (_, probes_v1) = retrieve(&a, &idx, 1);
        let (_, probes_v8) = retrieve(&a, &idx, 8);
        assert!(
            probes_v1 < probes_v8,
            "v1 probes {probes_v1} should be < v8 probes {probes_v8}"
        );
    }

    #[test]
    fn probe_bound_respected() {
        let (a, _) = sample_archive();
        let idx = TimestampIndex::build(&a);
        // for each node with fanout k, probes ≤ 2k + 1 on any version
        let db = a.children(a.root())[0];
        let tree = idx.tree(db).expect("db has children");
        let k = tree.fanout();
        for v in 1..=8 {
            let (_, p) = tree.relevant(v);
            assert!(p <= 2 * k + 1, "version {v}: {p} probes for k={k}");
        }
    }

    #[test]
    fn missing_version_is_none() {
        let a = sample_archive().0;
        let idx = Indexes::build(&a);
        assert!(retrieve(&a, &idx, 0).0.is_none());
        assert!(retrieve(&a, &idx, 99).0.is_none());
    }

    #[test]
    fn empty_node_has_no_tree() {
        let (a, _) = sample_archive();
        let idx = TimestampIndex::build(&a);
        // leaf text nodes have no trees, and no children to answer
        let leaf = (0..a.len() as u32)
            .map(ANodeId)
            .find(|&id| a.children(id).is_empty())
            .expect("a leaf");
        assert!(idx.tree(leaf).is_none());
        assert_eq!(idx.relevant_children(&a, leaf, 1).count(), 0);
        assert_eq!(idx.probes(), 0);
    }
}
