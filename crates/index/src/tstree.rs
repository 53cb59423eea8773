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
//! its own, relevant wherever the parent is. A tree therefore changes only
//! when its node's child list or a child's own timestamp does — that is,
//! when the merge wrote the node or one of its children — so a refresh
//! re-derives just those trees, and leaves every other tree, and every
//! table chunk that holds only such trees, shared with the views
//! published before it.

use std::sync::Arc;

use xarch_core::{ANodeId, Archive, CowVec, TimeSet};
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
    /// Builds the tree for `parent`'s children ("pairing nodes repeatedly
    /// in a bottom-up manner and taking the union of timestamps").
    fn build(archive: &Archive, parent: ANodeId) -> Self {
        let mut nodes = Vec::new();
        let mut level: Vec<usize> = Vec::new();
        for &c in archive.children(parent) {
            let time = archive.node(c).time.clone();
            nodes.push(TsNode::Leaf { time, child: c });
            level.push(nodes.len() - 1);
        }
        let k = level.len();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if let [l, r] = pair {
                    let time = match (nodes[*l].time(), nodes[*r].time()) {
                        (Some(a), Some(b)) => Some(a.union(b)),
                        _ => None,
                    };
                    nodes.push(TsNode::Inner {
                        time,
                        left: *l,
                        right: *r,
                    });
                    next.push(nodes.len() - 1);
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        TsTree {
            root: level.first().copied(),
            nodes,
            k,
        }
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

/// Timestamp trees for every internal archive node, built with one scan
/// or refreshed after each merge from what it wrote: one slot per
/// archive node (by arena index) in a copy-on-write [`CowVec`], each tree
/// behind an `Arc`, so cloning the index shares everything.
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
    /// version arrives and after nested merge is applied").
    pub fn build(archive: &Archive) -> Self {
        let mut idx = Self::default();
        for i in 0..archive.len() as u32 {
            idx.rederive(archive, ANodeId(i));
        }
        idx
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
            .flat_map(|&id| [Some(id), archive.node(id).parent])
            .flatten()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for &id in &ids {
            self.rederive(archive, id);
        }
        ids.len()
    }

    /// Derives `id`'s tree (none for a childless node) and stores it if it
    /// differs.
    fn rederive(&mut self, archive: &Archive, id: ANodeId) {
        let tree = (!archive.children(id).is_empty()).then(|| TsTree::build(archive, id));
        if self.tree(id) != tree.as_ref() {
            *self.trees.slot_mut(id.index()) = tree.map(Arc::new);
        }
    }

    /// The children of `parent` relevant to version `v` (at which `parent`
    /// itself must exist), using the tree.
    pub fn relevant_children(&self, parent: ANodeId, v: u32) -> Vec<ANodeId> {
        match self.tree(parent) {
            Some(t) => {
                let (out, p) = t.relevant(v);
                self.probes.add(p as u64);
                out
            }
            None => Vec::new(),
        }
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
        // leaf text nodes have no trees
        assert!(idx.relevant_children(ANodeId(u32::MAX - 1), 1).is_empty());
    }
}
