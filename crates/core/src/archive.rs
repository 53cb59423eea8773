//! The archive data structure (Fig 4): all versions merged into one tree.
//!
//! An [`Archive`] is an arena of [`ANode`]s. Element and text nodes mirror
//! the document model of `xarch-xml`, extended with:
//!
//! * an optional [`TimeSet`] — `None` means the timestamp is *inherited*
//!   from the parent (§1's "inheritance of timestamps");
//! * the node's key value and [`NodeClass`], so later merges can pair
//!   children without re-annotating the archive;
//! * **stamp nodes** ([`AKind::Stamp`]) — the `<T t="...">` wrappers that
//!   hold alternative contents beneath frontier nodes (Fig 4's `sal`).
//!
//! The arena root is the paper's synthetic `root` node, whose timestamp is
//! `[1..latest]`; it exists so that empty versions are representable (§2's
//! footnote about version 5 of the company database).

use std::fmt;
use std::sync::Arc;

use xarch_keys::{KeyError, KeySpec, KeyValue, NodeClass};
use xarch_xml::{Sym, SymbolTable};

use crate::cow::CowVec;
use crate::state::MAX_TREE_DEPTH;
use crate::timeset::TimeSet;

/// Index of a node in the archive arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ANodeId(pub u32);

impl ANodeId {
    /// The node's position in the arena, as a `usize` for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Node kinds of the archive tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AKind {
    /// An element node with an interned tag.
    Element(Sym),
    /// A text node.
    Text(String),
    /// A timestamp node `<T t="...">` grouping one alternative content of a
    /// frontier node. Its `time` is always `Some`.
    Stamp,
}

/// One archive node.
#[derive(Debug, Clone)]
pub struct ANode {
    /// Element / text / timestamp-alternative discriminant.
    pub kind: AKind,
    /// Parent node; `None` only for the root.
    pub parent: Option<ANodeId>,
    /// Child nodes in document order.
    pub children: Vec<ANodeId>,
    /// Attributes as interned-name / value pairs, in document order.
    pub attrs: Vec<(Sym, String)>,
    /// `None` = inherit the parent's timestamp.
    pub time: Option<TimeSet>,
    /// Key value for keyed element nodes.
    pub key: Option<KeyValue>,
    /// Classification relative to the key structure.
    pub class: NodeClass,
    /// Some node *beneath* this one carries a timestamp of its own — a
    /// merge has written there. While it is `false` every descendant
    /// inherits, which is what lets Nested Merge return at this node when
    /// the incoming subtree equals it (see `crate::merge`). Derived state:
    /// kept by `Archive::set_time`, recomputed on restore, never
    /// persisted; `true` with nothing stamped beneath is allowed (the
    /// merge then merely takes the full walk), `false` with something
    /// stamped beneath is what [`Archive::check_invariants`] refuses.
    pub written_beneath: bool,
}

impl ANode {
    /// A detached node of `kind` and `class`: no children, attributes, key
    /// or timestamp.
    pub(crate) fn new(kind: AKind, class: NodeClass) -> Self {
        ANode {
            kind,
            parent: None,
            children: Vec::new(),
            attrs: Vec::new(),
            time: None,
            key: None,
            class,
            written_beneath: false,
        }
    }
}

/// The ids [`Archive::node_mut`] handed out since the current merge
/// began. Like `written_beneath` above it is derived state, never
/// persisted; unlike it, it lives for one commit — `add_version`,
/// `add_annotated`, `add_versions` (once for the whole batch) and
/// `add_empty_version` clear it before they write — and a clone starts
/// empty, so the log never rides into a published view.
#[derive(Debug, Default)]
pub(crate) struct TouchedLog(pub(crate) Vec<ANodeId>);

impl Clone for TouchedLog {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// What the merges of an [`Archive`] have done so far, as counts that
/// repeat exactly: keyed subtrees Nested Merge returned at without
/// descending, node pairs its equality walks looked at to decide, and the
/// keys annotation extracted for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeTally {
    /// Matched subtrees found equal and never written beneath — skipped.
    pub subtrees_skipped: u64,
    /// Archive/version node pairs the equality walks compared.
    pub nodes_compared: u64,
    /// Keyed version nodes whose key was extracted: none beneath a
    /// subtree the archive already held when the version was annotated.
    pub keys_extracted: u64,
}

/// How contents beneath frontier nodes are compacted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compaction {
    /// The basic scheme of §4.2: each distinct content is one `<T>`
    /// alternative (Fig 8).
    #[default]
    Alternatives,
    /// "Further compaction" (§4.2, Fig 10): contents are woven SCCS-style,
    /// so shared sub-elements across versions are stored once.
    Weave,
}

/// Errors raised while merging a version into an archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The incoming version violates the key specification.
    Key(KeyError),
    /// The incoming version's root element is not covered by a root-level
    /// key such as `(/, (db, {}))`.
    UnkeyedRoot(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Key(e) => write!(f, "{e}"),
            MergeError::UnkeyedRoot(tag) => {
                write!(f, "document root <{tag}> has no root-level key in the spec")
            }
        }
    }
}

impl std::error::Error for MergeError {}

impl From<KeyError> for MergeError {
    fn from(e: KeyError) -> Self {
        MergeError::Key(e)
    }
}

/// Aggregate statistics of an archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Element nodes in the merged tree.
    pub elements: usize,
    /// Text nodes in the merged tree.
    pub texts: usize,
    /// `<T>` timestamp-alternative nodes.
    pub stamps: usize,
    /// Nodes carrying an explicit (non-inherited) timestamp.
    pub explicit_times: usize,
    /// Total interval count across explicit timestamps.
    pub intervals: usize,
}

/// The merged archive of all versions.
///
/// `Clone` is cheap and shares structure: the node arena is a
/// copy-on-write [`CowVec`] and the symbol table and key spec sit behind
/// [`Arc`]s, so a clone is an immutable view that costs reference-count
/// bumps to take and only the chunks later merges write to keep.
#[derive(Debug, Clone)]
pub struct Archive {
    nodes: CowVec<ANode>,
    syms: Arc<SymbolTable>,
    root: ANodeId,
    latest: u32,
    spec: Arc<KeySpec>,
    compaction: Compaction,
    pub(crate) tally: MergeTally,
    pub(crate) touched: TouchedLog,
    /// Tests switch the no-op rule off to get the full walk it must equal.
    #[cfg(test)]
    pub(crate) full_walk: bool,
    /// Tests annotate every version whole, holding nothing, to get the
    /// merge that annotating against the archive must equal.
    #[cfg(test)]
    pub(crate) eager_annotate: bool,
}

impl Archive {
    /// Creates an empty archive governed by `spec`.
    pub fn new(spec: KeySpec) -> Self {
        Self::with_compaction(spec, Compaction::default())
    }

    /// Creates an empty archive with an explicit compaction mode.
    pub fn with_compaction(spec: KeySpec, compaction: Compaction) -> Self {
        Self::with_shared_spec(Arc::new(spec), compaction)
    }

    /// Creates an empty archive over an already-shared spec (the chunked
    /// archive hands every partition the same one).
    pub(crate) fn with_shared_spec(spec: Arc<KeySpec>, compaction: Compaction) -> Self {
        let mut syms = SymbolTable::new();
        let root_tag = syms.intern("root");
        let root = ANode {
            time: Some(TimeSet::new()),
            ..ANode::new(AKind::Element(root_tag), NodeClass::Keyed)
        };
        Self {
            nodes: CowVec::from_iter([root]),
            syms: Arc::new(syms),
            root: ANodeId(0),
            latest: 0,
            spec,
            compaction,
            tally: MergeTally::default(),
            touched: TouchedLog::default(),
            #[cfg(test)]
            full_walk: false,
            #[cfg(test)]
            eager_annotate: false,
        }
    }

    /// Rebuilds an archive from a deserialized arena (checkpoint
    /// restore). The caller (`crate::state`) has checked that the nodes
    /// form one tree under `root` and runs [`Archive::check_invariants`]
    /// on the result. The `written_beneath` bits are not stored; they are
    /// derived here, one climb per timestamped node that stops at the
    /// first ancestor already marked.
    pub(crate) fn from_arena(
        spec: KeySpec,
        compaction: Compaction,
        syms: SymbolTable,
        nodes: Vec<ANode>,
        root: ANodeId,
        latest: u32,
    ) -> Self {
        let mut a = Self {
            nodes: nodes.into_iter().collect(),
            syms: Arc::new(syms),
            root,
            latest,
            spec: Arc::new(spec),
            compaction,
            tally: MergeTally::default(),
            touched: TouchedLog::default(),
            #[cfg(test)]
            full_walk: false,
            #[cfg(test)]
            eager_annotate: false,
        };
        for i in 0..a.len() {
            let id = ANodeId(i as u32);
            if a.node(id).time.is_some() {
                a.mark_written_above(id);
            }
        }
        a.touched.0.clear(); // a restore is no merge
        a
    }

    /// The synthetic root node.
    #[inline]
    pub fn root(&self) -> ANodeId {
        self.root
    }

    /// Number of versions archived so far.
    pub fn latest(&self) -> u32 {
        self.latest
    }

    /// The governing key specification.
    pub fn spec(&self) -> &KeySpec {
        &self.spec
    }

    /// The compaction mode.
    pub fn compaction(&self) -> Compaction {
        self.compaction
    }

    /// The symbol table.
    pub fn syms(&self) -> &SymbolTable {
        &self.syms
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: ANodeId) -> &ANode {
        &self.nodes[id.index()]
    }

    /// Mutably borrow a node (crate-internal; invariants are maintained by
    /// the merge algorithms). Copies the node's arena chunk if a view
    /// still shares it, so take this borrow only when a write follows.
    /// Every write to a node's timestamp or children comes through here.
    #[inline]
    pub(crate) fn node_mut(&mut self, id: ANodeId) -> &mut ANode {
        self.touched.0.push(id);
        self.nodes.get_mut(id.index())
    }

    /// The nodes the last merge wrote, in write order, an id possibly more
    /// than once. A node whose timestamp or children changed is in here,
    /// or it is new and its parent is: all an index over timestamps and
    /// child lists has to re-derive. Empty on a clone, a restored or an
    /// imported archive.
    pub fn touched(&self) -> &[ANodeId] {
        &self.touched.0
    }

    /// Adds version `i` to `id`'s own timestamp and returns it; an
    /// inheriting node is left alone — and unborrowed, so its arena chunk
    /// stays shared with every published view.
    pub(crate) fn augment_time(&mut self, id: ANodeId, i: u32) -> Option<&TimeSet> {
        self.node(id).time.as_ref()?;
        let t = self.node_mut(id).time.as_mut()?;
        t.insert(i);
        Some(t)
    }

    /// Gives `id` the timestamp `t` of its own. Every timestamp a merge or
    /// an import assigns goes through here, so this is where the
    /// ancestors learn they have been written beneath.
    pub(crate) fn set_time(&mut self, id: ANodeId, t: TimeSet) {
        self.node_mut(id).time = Some(t);
        self.mark_written_above(id);
    }

    /// Marks every ancestor of `id` written beneath; the climb stops at
    /// the first already marked (whose ancestors then are too), and takes
    /// no write borrow there, so its arena chunk stays shared.
    fn mark_written_above(&mut self, id: ANodeId) {
        let mut above = self.node(id).parent;
        while let Some(p) = above {
            if self.node(p).written_beneath {
                break;
            }
            self.node_mut(p).written_beneath = true;
            above = self.node(p).parent;
        }
    }

    /// What this archive's merges have skipped and compared so far.
    pub fn merge_tally(&self) -> MergeTally {
        self.tally
    }

    /// The node arena (read-only) — `nodes().shared_chunks(..)` measures
    /// how much structure two archives share.
    pub fn nodes(&self) -> &CowVec<ANode> {
        &self.nodes
    }

    /// Children of a node.
    #[inline]
    pub fn children(&self, id: ANodeId) -> &[ANodeId] {
        &self.nodes[id.index()].children
    }

    /// Tag name of an element node.
    pub fn tag_name(&self, id: ANodeId) -> Option<&str> {
        match self.node(id).kind {
            AKind::Element(s) => Some(self.syms.resolve(s)),
            _ => None,
        }
    }

    /// Number of arena slots.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no version has been archived.
    pub fn is_empty(&self) -> bool {
        self.latest == 0
    }

    pub(crate) fn intern(&mut self, name: &str) -> Sym {
        // a known name must not un-share the table from published views
        match self.syms.get(name) {
            Some(s) => s,
            None => Arc::make_mut(&mut self.syms).intern(name),
        }
    }

    pub(crate) fn bump_version(&mut self) -> u32 {
        self.latest += 1;
        self.latest
    }

    pub(crate) fn set_latest(&mut self, latest: u32) {
        self.latest = latest;
    }

    /// Allocates a node and links it under `parent` (append).
    pub(crate) fn push_node(&mut self, parent: ANodeId, mut node: ANode) -> ANodeId {
        let id = ANodeId(self.nodes.len() as u32);
        node.parent = Some(parent);
        self.nodes.push(node);
        self.node_mut(parent).children.push(id);
        id
    }

    /// Re-parents `child` under `parent` (append). The child must currently
    /// be detached, and neither it nor anything beneath it timestamped
    /// (nothing tells `parent`'s ancestors here).
    pub(crate) fn attach(&mut self, parent: ANodeId, child: ANodeId) {
        self.node_mut(child).parent = Some(parent);
        self.node_mut(parent).children.push(child);
    }

    /// The *effective* timestamp of a node: its own, or the nearest
    /// ancestor's ("If a node does not have a timestamp, it is assumed to
    /// inherit the timestamp of its parent", §2).
    pub fn effective_time(&self, mut id: ANodeId) -> TimeSet {
        loop {
            if let Some(t) = &self.node(id).time {
                return t.clone();
            }
            match self.node(id).parent {
                Some(p) => id = p,
                None => return TimeSet::new(),
            }
        }
    }

    /// True if node `id` exists in version `v`.
    pub fn exists_at(&self, id: ANodeId, v: u32) -> bool {
        self.effective_time(id).contains(v)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ArchiveStats {
        let mut s = ArchiveStats {
            elements: 0,
            texts: 0,
            stamps: 0,
            explicit_times: 0,
            intervals: 0,
        };
        self.stats_rec(self.root, &mut s);
        s
    }

    fn stats_rec(&self, id: ANodeId, s: &mut ArchiveStats) {
        let n = self.node(id);
        match n.kind {
            AKind::Element(_) => s.elements += 1,
            AKind::Text(_) => s.texts += 1,
            AKind::Stamp => s.stamps += 1,
        }
        if let Some(t) = &n.time {
            s.explicit_times += 1;
            s.intervals += t.run_count();
        }
        for &c in &n.children {
            self.stats_rec(c, s);
        }
    }

    /// Checks the structural invariants of the archive, returning a
    /// description of the first violation (tests call this after every
    /// merge):
    ///
    /// 1. a node's effective timestamp is a superset of every child's
    ///    effective timestamp (the paper's §2 property);
    /// 2. stamp nodes carry an explicit timestamp and appear only beneath
    ///    frontier nodes (or beneath unkeyed fallback nodes);
    /// 3. the root's timestamp is exactly `1..=latest`;
    /// 4. a node with a timestamped node beneath it is marked
    ///    [`ANode::written_beneath`] (marked with none beneath is allowed);
    /// 5. the tree nests at most [`MAX_TREE_DEPTH`] below the root.
    ///
    /// The walk keeps one frame per open node, the inherited timestamp
    /// borrowed, so it allocates nothing per node.
    pub fn check_invariants(&self) -> Result<(), String> {
        let root_time =
            (self.node(self.root).time.as_ref()).ok_or("root must carry a timestamp")?;
        if self.latest > 0 && *root_time != TimeSet::from_range(1, self.latest) {
            return Err(format!("root timestamp {root_time} != 1-{}", self.latest));
        }
        let mut open = vec![self.enter(self.root, root_time)?];
        while let Some(top) = open.last_mut() {
            if let Some(&c) = self.node(top.id).children.get(top.next) {
                top.next += 1;
                let inherited = top.time;
                if open.len() > MAX_TREE_DEPTH {
                    return Err(format!("node {c:?} nests deeper than {MAX_TREE_DEPTH}"));
                }
                open.push(self.enter(c, inherited)?);
                continue;
            }
            let (id, stamped_beneath) = (top.id, top.stamped_beneath);
            let n = self.node(id);
            if stamped_beneath && !n.written_beneath {
                return Err(format!(
                    "node {id:?} has a timestamp beneath it but is not marked written_beneath"
                ));
            }
            open.pop();
            if let Some(parent) = open.last_mut() {
                parent.stamped_beneath |= stamped_beneath || n.time.is_some();
            }
        }
        Ok(())
    }

    /// The frame of node `id` for [`Archive::check_invariants`], which
    /// checks its own timestamp against the `inherited` one.
    fn enter<'a>(&'a self, id: ANodeId, inherited: &'a TimeSet) -> Result<Checked<'a>, String> {
        let n = self.node(id);
        let time = match &n.time {
            Some(t) if !inherited.is_superset(t) => {
                return Err(format!(
                    "node {id:?}: time {t} not a subset of parent's {inherited}"
                ));
            }
            Some(t) => t,
            None if matches!(n.kind, AKind::Stamp) => {
                return Err(format!("stamp node {id:?} without explicit timestamp"));
            }
            None => inherited,
        };
        Ok(Checked {
            id,
            time,
            next: 0,
            stamped_beneath: false,
        })
    }
}

/// A node [`Archive::check_invariants`] has entered and not yet left.
struct Checked<'a> {
    id: ANodeId,
    /// Its effective timestamp.
    time: &'a TimeSet,
    /// The position of its next child to enter.
    next: usize,
    /// Some node beneath it carries a timestamp of its own.
    stamped_beneath: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))").unwrap()
    }

    #[test]
    fn new_archive_is_empty() {
        let a = Archive::new(spec());
        assert!(a.is_empty());
        assert_eq!(a.latest(), 0);
        assert_eq!(a.tag_name(a.root()), Some("root"));
        a.check_invariants().unwrap();
    }

    #[test]
    fn effective_time_inherits() {
        let mut a = Archive::new(spec());
        let root = a.root();
        a.node_mut(root).time = Some(TimeSet::from_range(1, 4));
        a.latest = 4;
        let sym = a.intern("db");
        let db = a.push_node(root, ANode::new(AKind::Element(sym), NodeClass::Keyed));
        assert_eq!(a.effective_time(db), TimeSet::from_range(1, 4));
        assert!(a.exists_at(db, 2));
        assert!(!a.exists_at(db, 5));
        a.check_invariants().unwrap();
    }

    #[test]
    fn invariant_catches_non_subset_child() {
        let mut a = Archive::new(spec());
        let root = a.root();
        a.node_mut(root).time = Some(TimeSet::from_range(1, 2));
        a.latest = 2;
        let sym = a.intern("db");
        let db = a.push_node(
            root,
            ANode {
                time: Some(TimeSet::from_range(1, 9)),
                ..ANode::new(AKind::Element(sym), NodeClass::Keyed)
            },
        );
        let _ = db;
        let err = a.check_invariants().unwrap_err();
        assert!(err.contains("not a subset of parent's 1-2"), "{err}");
    }

    /// Each refusal of the walk fires, at any depth it can reach.
    #[test]
    fn invariant_refusals_fire() {
        let checked = |build: &dyn Fn(&mut Archive, ANodeId)| {
            let mut a = Archive::new(spec());
            let root = a.root();
            a.node_mut(root).time = Some(TimeSet::from_range(1, 2));
            a.latest = 2;
            let db = a.intern("db");
            let mut at = root;
            for _ in 0..3 {
                at = a.push_node(at, ANode::new(AKind::Element(db), NodeClass::Keyed));
            }
            build(&mut a, at);
            a.check_invariants()
        };
        checked(&|_, _| {}).unwrap();
        let err = checked(&|a, at| {
            a.push_node(at, ANode::new(AKind::Stamp, NodeClass::BeyondFrontier));
        })
        .unwrap_err();
        assert!(err.contains("without explicit timestamp"), "{err}");
        let err = checked(&|a, at| {
            let text = ANode {
                time: Some(TimeSet::from_version(2)),
                ..ANode::new(AKind::Text("x".into()), NodeClass::Text)
            };
            a.push_node(at, text);
        })
        .unwrap_err();
        assert!(err.contains("not marked written_beneath"), "{err}");
        let err = checked(&|a, at| {
            let text = ANode {
                time: Some(TimeSet::from_range(1, 3)),
                ..ANode::new(AKind::Text("x".into()), NodeClass::Text)
            };
            a.push_node(at, text);
        })
        .unwrap_err();
        assert!(err.contains("not a subset of parent's 1-2"), "{err}");
        let err = checked(&|a, mut at| {
            for _ in 0..MAX_TREE_DEPTH {
                at = a.push_node(at, ANode::new(AKind::Stamp, NodeClass::BeyondFrontier));
                a.node_mut(at).time = Some(TimeSet::from_version(1));
            }
        })
        .unwrap_err();
        assert!(
            err.contains(&format!("nests deeper than {MAX_TREE_DEPTH}")),
            "{err}"
        );
    }

    #[test]
    fn stats_counts_kinds() {
        let mut a = Archive::new(spec());
        let root = a.root();
        let sym = a.intern("db");
        let db = a.push_node(
            root,
            ANode {
                time: Some(TimeSet::from_version(1)),
                ..ANode::new(AKind::Element(sym), NodeClass::Keyed)
            },
        );
        a.push_node(
            db,
            ANode::new(AKind::Text("x".into()), NodeClass::BeyondFrontier),
        );
        let s = a.stats();
        assert_eq!(s.elements, 2); // root + db
        assert_eq!(s.texts, 1);
        assert_eq!(s.explicit_times, 2); // root + db
    }
}
