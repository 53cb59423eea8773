//! The archive data structure (Fig 4): all versions merged into one tree.
//!
//! An [`Archive`] is an arena of nodes addressed by [`ANodeId`]. Element
//! and text nodes mirror the document model of `xarch-xml`, extended with:
//!
//! * an optional timestamp — `None` means the timestamp is *inherited*
//!   from the parent (§1's "inheritance of timestamps");
//! * the node's key value and [`NodeClass`], so later merges can pair
//!   children without re-annotating the archive;
//! * **stamp nodes** ([`AKind::Stamp`]) — the `<T t="...">` wrappers that
//!   hold alternative contents beneath frontier nodes (Fig 4's `sal`).
//!
//! The arena root is the paper's synthetic `root` node, whose timestamp is
//! `[1..latest]`; it exists so that empty versions are representable (§2's
//! footnote about version 5 of the company database).
//!
//! **Layout.** The archive is laid out as `xarch_xml::Document` is, in
//! flat arrays rather than a heap block per node:
//!
//! * its nodes ([`ANode`], fixed-size): a tag, a parent, a class, the
//!   runs below, and the key value — the only heap block a node owns;
//! * one child pool, in which the children of each node are one run;
//! * one attribute pool, in which the attributes of each element are one
//!   run of name and value span;
//! * one run pool, in which each timestamp of two or more runs is one run
//!   behind a header (a timestamp of one run is held in the node);
//! * one text pool, of which every text node and attribute value is a
//!   span.
//!
//! Every array is chunked and copy-on-write (`crate::cow`, `crate::pool`),
//! and no run or span straddles a chunk, so a clone — a published view —
//! costs one reference count per chunk, and the next merge copies only the
//! chunks it writes. Merges only append: a child run that must grow and
//! does not end the pool moves there with as many spare slots as it held,
//! so the slots runs leave behind stay within a constant factor of the
//! live ones ([`Archive::child_slots`]). Every write goes through a few
//! mutators — `push_node`, `push_attr`, `set_time` / `augment_time`, and
//! the frontier merge's `wrap_children` and the weave's
//! `reorder_children` — and a checkpoint restore (`crate::state`) decodes
//! straight into the pools, then derives and checks in one walk what the
//! merges keep.

use std::fmt;
use std::sync::Arc;

use xarch_keys::{KeyError, KeySpec, KeyValue, NodeClass};
use xarch_xml::{Sym, SymbolTable};

use crate::cow::{CowVec, CHUNK};
use crate::pool::{Chunk, Owned, OwnedPool, Pool, Run, TextPool};
use crate::state::MAX_TREE_DEPTH;
use crate::timeset::{TimeRef, TimeSet};

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

/// What an archive node is, borrowed from its [`Archive`]
/// ([`Archive::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AKind<'a> {
    /// An element node with an interned tag.
    Element(Sym),
    /// A text node.
    Text(&'a str),
    /// A timestamp node `<T t="...">` grouping one alternative content of a
    /// frontier node. It always carries a timestamp of its own.
    Stamp,
}

/// The tag of a text node.
const TEXT: Sym = Sym(u32::MAX);
/// The tag of a stamp node.
const STAMP: Sym = Sym(u32::MAX - 1);
/// The parent of the root.
const NO_PARENT: u32 = u32::MAX;

/// [`ANode::flags`]: the node has a key value.
const KEYED: u8 = 1;
/// [`ANode::flags`]: some node beneath this one carries a timestamp of its
/// own ([`Archive::written_beneath`]).
const WRITTEN_BENEATH: u8 = 2;
/// [`ANode::flags`]: which of four forms the node's timestamp takes.
const TIME: u8 = 0b1100;
/// No timestamp of its own: it inherits its parent's.
const INHERIT: u8 = 0;
/// One run, held in [`ANode::time`].
const ONE: u8 = 0b0100;
/// Two or more runs in the run pool, [`ANode::time`] their place there.
const POOLED: u8 = 0b1000;
/// A timestamp of its own that holds no version.
const EMPTY: u8 = 0b1100;

/// Child-pool slots per chunk (4 KiB of ids).
const CHILD_SLOTS: usize = 1024;
/// Attribute-pool slots per chunk.
const ATTR_SLOTS: usize = 256;
/// Run-pool slots per chunk.
const RUN_SLOTS: usize = 512;
/// Text-pool bytes per chunk.
const TEXT_BYTES: usize = 16 * 1024;

/// One archive node: fixed-size, its strings and lists runs of the
/// archive's pools, so the key value is the only heap block it owns.
/// Read it through [`Archive`]'s accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct ANode {
    /// The key value of a keyed element (meaningful under [`KEYED`]).
    key: KeyValue,
    /// The children in document order: a run of the child pool.
    children: Run,
    /// Slots after `children` in its chunk that the run may grow into.
    spare: u32,
    /// An element's attributes, a run of the attribute pool; a text
    /// node's text, a span of the text pool.
    own: Run,
    /// The timestamp's one run, or where its runs start in the run pool,
    /// as the [`TIME`] bits say.
    time: (u32, u32),
    /// The element's tag, or [`TEXT`] or [`STAMP`].
    tag: Sym,
    /// The parent's index, or [`NO_PARENT`].
    parent: u32,
    /// Classification relative to the key structure.
    class: NodeClass,
    /// [`KEYED`], [`WRITTEN_BENEATH`] and the [`TIME`] form.
    flags: u8,
}

impl ANode {
    /// A node of `kind` beneath `parent`, with no children, attributes,
    /// text or timestamp yet.
    fn new(kind: AKind<'_>, parent: u32, class: NodeClass, key: Option<KeyValue>) -> Self {
        let tag = match kind {
            AKind::Element(tag) => tag,
            AKind::Text(_) => TEXT,
            AKind::Stamp => STAMP,
        };
        ANode {
            flags: if key.is_some() { KEYED } else { 0 },
            key: key.unwrap_or_default(),
            children: Run::default(),
            spare: 0,
            own: Run::default(),
            time: (0, 0),
            tag,
            parent,
            class,
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
/// copy-on-write [`CowVec`], the pools are chunked and copy-on-write the
/// same way, and the symbol table and key spec sit behind [`Arc`]s, so a
/// clone is an immutable view that costs reference-count bumps to take and
/// only the chunks later merges write to keep.
#[derive(Debug, Clone)]
pub struct Archive {
    nodes: CowVec<ANode>,
    /// Every node's children, one run each.
    kids: Pool<ANodeId, CHILD_SLOTS>,
    /// Every element's attributes, one run each: a name and a span of the
    /// text pool.
    attrs: Pool<(Sym, Run), ATTR_SLOTS>,
    /// The runs of every timestamp of two or more, each behind a header
    /// `(runs, capacity)`.
    runs: Pool<(u32, u32), RUN_SLOTS>,
    /// Every text and attribute value.
    text: TextPool<TEXT_BYTES>,
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

/// A node count or pool offset as a `u32`.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("an archive holds fewer than 2^32 nodes")
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
        let mut d = Decoded::new();
        let (kind, class) = (AKind::Element(root_tag), NodeClass::Keyed);
        d.push(kind, None, Default::default(), Some(&[]), None, class);
        let config = (spec, compaction, syms, 0);
        d.finish(config, ANodeId(0)).expect("a lone root is a tree")
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

    #[inline]
    fn node(&self, id: ANodeId) -> &ANode {
        &self.nodes[id.index()]
    }

    /// What node `id` is.
    #[inline]
    pub fn kind(&self, id: ANodeId) -> AKind<'_> {
        let n = self.node(id);
        match n.tag {
            TEXT => AKind::Text(self.text.get(n.own)),
            STAMP => AKind::Stamp,
            tag => AKind::Element(tag),
        }
    }

    /// Parent of a node; `None` only for the root.
    #[inline]
    pub fn parent(&self, id: ANodeId) -> Option<ANodeId> {
        match self.node(id).parent {
            NO_PARENT => None,
            p => Some(ANodeId(p)),
        }
    }

    /// Children of a node, in document order.
    #[inline]
    pub fn children(&self, id: ANodeId) -> &[ANodeId] {
        self.kids.get(self.node(id).children)
    }

    /// An element's attributes as interned-name / value pairs, in document
    /// order (none for text or a stamp).
    #[inline]
    pub fn attrs(&self, id: ANodeId) -> impl ExactSizeIterator<Item = (Sym, &str)> + '_ {
        let n = self.node(id);
        let run = match n.tag {
            TEXT => Run::default(),
            _ => n.own,
        };
        (self.attrs.get(run).iter()).map(|&(name, value)| (name, self.text.get(value)))
    }

    /// The node's own timestamp; `None` means it inherits its parent's.
    #[inline]
    pub fn time(&self, id: ANodeId) -> Option<TimeRef<'_>> {
        self.time_of(self.node(id))
    }

    /// The own timestamp of node `n`.
    #[inline]
    fn time_of<'a>(&'a self, n: &'a ANode) -> Option<TimeRef<'a>> {
        let runs = match n.flags & TIME {
            INHERIT => return None,
            ONE => std::slice::from_ref(&n.time),
            EMPTY => &[],
            _ => self.pooled(n.time),
        };
        Some(TimeRef::new(runs))
    }

    /// The runs of a pooled timestamp that starts at `(chunk, start)`.
    fn pooled(&self, (chunk, start): (u32, u32)) -> &[(u32, u32)] {
        let (len, _) = self.runs.get(Run {
            chunk,
            start,
            len: 1,
        })[0];
        let start = start + 1;
        self.runs.get(Run { chunk, start, len })
    }

    /// The key value of a keyed element.
    #[inline]
    pub fn key(&self, id: ANodeId) -> Option<&KeyValue> {
        let n = self.node(id);
        (n.flags & KEYED != 0).then_some(&n.key)
    }

    /// Classification relative to the key structure.
    #[inline]
    pub fn class(&self, id: ANodeId) -> NodeClass {
        self.node(id).class
    }

    /// Some node *beneath* `id` carries a timestamp of its own — a merge
    /// has written there. While it is `false` every descendant inherits,
    /// which is what lets Nested Merge return at this node when the
    /// incoming subtree equals it (see `crate::merge`). Derived state:
    /// kept by `Archive::set_time`, derived by a checkpoint restore's walk,
    /// never persisted; `true` with nothing stamped beneath is allowed (the
    /// merge then merely takes the full walk), `false` with something
    /// stamped beneath is what [`Archive::check_invariants`] refuses.
    #[inline]
    pub fn written_beneath(&self, id: ANodeId) -> bool {
        self.node(id).flags & WRITTEN_BENEATH != 0
    }

    /// Mutably borrow a node, logging it as touched. Copies the node's
    /// arena chunk if a view still shares it, so take this borrow only when
    /// a write follows.
    #[inline]
    fn node_mut(&mut self, id: ANodeId) -> &mut ANode {
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

    /// Adds version `i` to `id`'s own timestamp and answers whether it has
    /// one; an inheriting node is left alone — and unborrowed, so its
    /// arena chunk stays shared with every published view. A version that
    /// extends the last run is written where the run lies.
    pub(crate) fn augment_time(&mut self, id: ANodeId, i: u32) -> bool {
        let Some(t) = self.time(id) else {
            return false;
        };
        if t.contains(i) {
            return true;
        }
        let extends = t.max().is_some_and(|hi| hi.checked_add(1) == Some(i));
        let n = self.node(id);
        match n.flags & TIME {
            ONE if extends => self.node_mut(id).time.1 = i,
            POOLED if extends => {
                let (chunk, start) = n.time;
                let start = start + t.intervals().len() as u32;
                self.runs.get_mut(Run {
                    chunk,
                    start,
                    len: 1,
                })[0]
                    .1 = i;
                self.touched.0.push(id);
            }
            _ => {
                let mut t = t.to_set();
                t.insert(i);
                self.put_time(id, t.intervals());
            }
        }
        true
    }

    /// Gives `id` the timestamp `t` of its own. Every timestamp a merge or
    /// an import assigns goes through here, so this is where the
    /// ancestors learn they have been written beneath.
    pub(crate) fn set_time(&mut self, id: ANodeId, t: TimeSet) {
        self.put_time(id, t.intervals());
        self.mark_written_above(id);
    }

    /// Stores `runs` as `id`'s own timestamp, telling no ancestor: one run
    /// in the node, more in the run pool — over the node's old runs when
    /// they have room, else laid down afresh with as many spare slots.
    pub(crate) fn put_time(&mut self, id: ANodeId, runs: &[(u32, u32)]) {
        let n = self.node(id);
        let (chunk, start) = n.time;
        let head = Run {
            chunk,
            start,
            len: 1,
        };
        let (form, word) = match n.flags & TIME == POOLED && runs.len() > 1 {
            true if self.runs.get(head)[0].1 as usize >= runs.len() => {
                let len = offset(runs.len());
                let slots = self.runs.get_mut(Run {
                    len: 1 + len,
                    ..head
                });
                slots[0].0 = len;
                slots[1..].copy_from_slice(runs);
                (POOLED, (chunk, start))
            }
            _ => lay_time(&mut self.runs, runs, runs.len()),
        };
        let n = self.node_mut(id);
        n.flags = n.flags & !TIME | form;
        n.time = word;
    }

    /// Marks every ancestor of `id` written beneath; the climb stops at
    /// the first already marked (whose ancestors then are too), and takes
    /// no write borrow there, so its arena chunk stays shared.
    fn mark_written_above(&mut self, id: ANodeId) {
        let mut above = self.parent(id);
        while let Some(p) = above {
            if self.written_beneath(p) {
                break;
            }
            self.node_mut(p).flags |= WRITTEN_BENEATH;
            above = self.parent(p);
        }
    }

    /// What this archive's merges have skipped and compared so far.
    pub fn merge_tally(&self) -> MergeTally {
        self.tally
    }

    /// Storage chunks — of the node arena and of every pool — in all.
    pub fn chunk_count(&self) -> usize {
        self.nodes.chunk_count()
            + self.kids.chunk_count()
            + self.attrs.chunk_count()
            + self.runs.chunk_count()
            + self.text.chunk_count()
    }

    /// Storage chunks `self` holds by pointer in common with `other` — how
    /// much a view taken before a merge still shares with the archive
    /// after it.
    pub fn shared_chunks(&self, other: &Archive) -> usize {
        self.nodes.shared_chunks(&other.nodes)
            + self.kids.shared_chunks(&other.kids)
            + self.attrs.shared_chunks(&other.attrs)
            + self.runs.shared_chunks(&other.runs)
            + self.text.shared_chunks(&other.text)
    }

    /// Child-pool slots as `(live, laid)`: the children of every node, and
    /// the slots laid down for them — spare slots and runs left behind by
    /// a move included.
    pub fn child_slots(&self) -> (usize, usize) {
        let live = self.nodes.iter().map(|n| n.children.len as usize).sum();
        (live, self.kids.slots())
    }

    /// Tag name of an element node.
    pub fn tag_name(&self, id: ANodeId) -> Option<&str> {
        match self.kind(id) {
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

    /// Allocates a node of `kind` and links it under `parent` (append); a
    /// text goes into the text pool.
    pub(crate) fn push_node(
        &mut self,
        parent: ANodeId,
        kind: AKind<'_>,
        class: NodeClass,
        key: Option<KeyValue>,
    ) -> ANodeId {
        let id = ANodeId(offset(self.nodes.len()));
        let mut node = ANode::new(kind, parent.0, class, key);
        if let AKind::Text(t) = kind {
            node.own = self.text.push(t);
        }
        self.nodes.push(node);
        self.push_child(parent, id);
        id
    }

    /// Appends `child` to the child run of `parent`.
    fn push_child(&mut self, parent: ANodeId, child: ANodeId) {
        self.touched.0.push(parent);
        let p = self.nodes.get_mut(parent.index());
        self.kids.push(&mut p.children, &mut p.spare, child, true);
    }

    /// Appends the attribute `name="value"` to element `id`: built right
    /// after the element, its attribute run ends the pool and grows in
    /// place.
    pub(crate) fn push_attr(&mut self, id: ANodeId, name: Sym, value: &str) {
        assert!(self.node(id).tag != TEXT, "an attribute on a text node");
        let value = self.text.push(value);
        let n = self.nodes.get_mut(id.index());
        self.attrs.push(&mut n.own, &mut 0, (name, value), false);
    }

    /// Moves the children of frontier node `x` — their run, spare slots
    /// and all, not a slot copied — beneath a new stamp timestamped `t`,
    /// which becomes `x`'s only child: the first split into alternatives
    /// (Fig 8).
    pub(crate) fn wrap_children(&mut self, x: ANodeId, t: TimeSet) -> ANodeId {
        let n = self.node_mut(x);
        let (run, spare) = (
            std::mem::take(&mut n.children),
            std::mem::take(&mut n.spare),
        );
        let stamp = self.push_node(x, AKind::Stamp, NodeClass::BeyondFrontier, None);
        self.set_time(stamp, t);
        let s = self.node_mut(stamp);
        (s.children, s.spare) = (run, spare);
        for k in 0..run.len as usize {
            let c = self.kids.get(run)[k];
            self.node_mut(c).parent = stamp.0;
        }
        stamp
    }

    /// Rewrites the child list of `x` as `order`, a permutation of it —
    /// the weave's interleaving of kept, terminated and new children.
    pub(crate) fn reorder_children(&mut self, x: ANodeId, order: &[ANodeId]) {
        debug_assert_eq!(self.children(x).len(), order.len());
        if self.children(x) != order {
            let run = self.node_mut(x).children;
            self.kids.get_mut(run).copy_from_slice(order);
        }
    }

    /// The *effective* timestamp of a node: its own, or the nearest
    /// ancestor's ("If a node does not have a timestamp, it is assumed to
    /// inherit the timestamp of its parent", §2).
    pub fn effective_time(&self, mut id: ANodeId) -> TimeSet {
        loop {
            if let Some(t) = self.time(id) {
                return t.to_set();
            }
            match self.parent(id) {
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
        match self.kind(id) {
            AKind::Element(_) => s.elements += 1,
            AKind::Text(_) => s.texts += 1,
            AKind::Stamp => s.stamps += 1,
        }
        if let Some(t) = self.time(id) {
            s.explicit_times += 1;
            s.intervals += t.intervals().len();
        }
        for &c in self.children(id) {
            self.stats_rec(c, s);
        }
    }

    /// Checks the structural invariants of the archive, returning a
    /// description of the first violation (tests call this after every
    /// merge):
    ///
    /// 1. a node's effective timestamp is a superset of every child's
    ///    effective timestamp (the paper's §2 property);
    /// 2. stamp nodes carry an explicit timestamp;
    /// 3. the root's timestamp is exactly `1..=latest`;
    /// 4. a node with a timestamped node beneath it is marked
    ///    [`Archive::written_beneath`] (marked with none beneath is
    ///    allowed);
    /// 5. the tree nests at most [`MAX_TREE_DEPTH`] below the root;
    /// 6. the nodes form one tree under the root: each reached once, by a
    ///    child edge its parent pointer agrees with.
    ///
    /// It is the walk a checkpoint restore runs, deriving rule 4's bits
    /// instead of checking them.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.walk(false).map(drop).map_err(|r| r.to_string())
    }

    /// The one iterative walk of the tree beneath the root, in the order
    /// [`Archive::check_invariants`] lists its rules. It keeps one frame
    /// per open node, the inherited timestamp borrowed. When `derive` is
    /// set it answers the nodes to mark written beneath instead of
    /// checking their bits.
    fn walk(&self, derive: bool) -> Result<Vec<ANodeId>, Refusal> {
        if self.parent(self.root).is_some() {
            return Err(Refusal::RootHasParent);
        }
        let root_time = self
            .time(self.root)
            .ok_or_else(|| Refusal::Broken("root must carry a timestamp".to_owned()))?;
        if self.latest > 0 && root_time.intervals() != [(1, self.latest)] {
            let latest = self.latest;
            return Err(Refusal::Broken(format!(
                "root timestamp {root_time} != 1-{latest}"
            )));
        }
        let mut seen = vec![false; self.len()];
        seen[self.root.index()] = true;
        let mut reached = 1;
        let mut marks = Vec::new();
        let mut open = vec![self.enter(self.root, NO_PARENT, root_time)?];
        while let Some(top) = open.last_mut() {
            if let Some((&c, rest)) = top.children.split_first() {
                top.children = rest;
                let (parent, inherited) = (top.id, top.time);
                if open.len() > MAX_TREE_DEPTH {
                    return Err(Refusal::TooDeep(c));
                }
                if std::mem::replace(&mut seen[c.index()], true) {
                    return Err(Refusal::Cycle);
                }
                reached += 1;
                open.push(self.enter(c, parent.0, inherited)?);
                continue;
            }
            let Checked {
                id,
                own,
                stamped_beneath,
                ..
            } = open.pop().expect("a frame is open");
            if stamped_beneath && derive {
                marks.push(id);
            } else if stamped_beneath && !self.written_beneath(id) {
                return Err(Refusal::Broken(format!(
                    "node {id:?} has a timestamp beneath it but is not marked written_beneath"
                )));
            }
            if let Some(parent) = open.last_mut() {
                parent.stamped_beneath |= stamped_beneath || own;
            }
        }
        if reached != self.len() {
            return Err(Refusal::Unreachable);
        }
        Ok(marks)
    }

    /// The frame of node `id` for [`Archive::walk`], which checks that its
    /// parent pointer names `parent` and its own timestamp against the
    /// `inherited` one.
    fn enter<'a>(
        &'a self,
        id: ANodeId,
        parent: u32,
        inherited: TimeRef<'a>,
    ) -> Result<Checked<'a>, Refusal> {
        let n = self.node(id);
        if n.parent != parent {
            return Err(Refusal::ParentSkew);
        }
        let own = self.time_of(n);
        let time = match own {
            Some(t) if !inherited.is_superset(t) => {
                return Err(Refusal::Broken(format!(
                    "node {id:?}: time {t} not a subset of parent's {inherited}"
                )));
            }
            Some(t) => t,
            None if n.tag == STAMP => {
                return Err(Refusal::Broken(format!(
                    "stamp node {id:?} without explicit timestamp"
                )));
            }
            None => inherited,
        };
        Ok(Checked {
            id,
            time,
            own: own.is_some(),
            children: self.kids.get(n.children),
            stamped_beneath: false,
        })
    }
}

/// A node [`Archive::walk`] has entered and not yet left.
struct Checked<'a> {
    id: ANodeId,
    /// Its effective timestamp.
    time: TimeRef<'a>,
    /// It carries a timestamp of its own.
    own: bool,
    /// Its children not yet entered.
    children: &'a [ANodeId],
    /// Some node beneath it carries a timestamp of its own.
    stamped_beneath: bool,
}

/// The stored form of a timestamp of `runs`: held in the node, or laid
/// down in the run pool behind a header `(runs, capacity)` with `spare`
/// more slots to grow into.
fn lay_time<C: Chunk<Vec<(u32, u32)>>>(
    pool: &mut Pool<(u32, u32), RUN_SLOTS, C>,
    runs: &[(u32, u32)],
    spare: usize,
) -> (u8, (u32, u32)) {
    match runs {
        [] => (EMPTY, (0, 0)),
        &[one] => (ONE, one),
        _ => {
            let len = offset(runs.len());
            let head = pool.extend(&[(len, len + offset(spare))], len as usize + spare, (0, 0));
            let slots = pool.get_mut(Run {
                len: 1 + len,
                ..head
            });
            slots[1..].copy_from_slice(runs);
            (POOLED, (head.chunk, head.start))
        }
    }
}

/// A node arena and pools as a checkpoint decoder (`crate::state`) fills
/// them, laid out as an [`Archive`] keeps them but owned outright, so
/// filling them costs no reference-count check: each node goes in as the
/// checkpoint lists it, its children and attributes laid down by the
/// decoder, its text and timestamp by [`Decoded::push`], none with a spare
/// slot. [`Decoded::finish`] makes them an archive.
pub(crate) struct Decoded {
    /// The arena, in chunks of [`crate::cow::CHUNK`].
    nodes: Vec<Vec<ANode>>,
    pub(crate) kids: OwnedPool<ANodeId, CHILD_SLOTS>,
    pub(crate) attrs: OwnedPool<(Sym, Run), ATTR_SLOTS>,
    runs: OwnedPool<(u32, u32), RUN_SLOTS>,
    pub(crate) text: TextPool<TEXT_BYTES, Owned<String>>,
}

/// What an archive is configured with besides its nodes: spec, compaction,
/// symbols and newest version.
pub(crate) type Config = (Arc<KeySpec>, Compaction, SymbolTable, u32);

impl Decoded {
    pub(crate) fn new() -> Self {
        Self {
            nodes: Vec::new(),
            kids: Pool::new(),
            attrs: Pool::new(),
            runs: Pool::new(),
            text: TextPool::new(),
        }
    }

    /// Appends a node of `kind` beneath `parent` with the runs of its
    /// `children` and `attrs`, its own timestamp's `runs` if it has one,
    /// and `key`.
    pub(crate) fn push(
        &mut self,
        kind: AKind<'_>,
        parent: Option<ANodeId>,
        (children, attrs): (Run, Run),
        time: Option<&[(u32, u32)]>,
        key: Option<KeyValue>,
        class: NodeClass,
    ) {
        let parent = parent.map_or(NO_PARENT, |p| p.0);
        let mut node = ANode::new(kind, parent, class, key);
        node.children = children;
        node.own = match kind {
            AKind::Text(t) => self.text.push(t),
            _ => attrs,
        };
        if let Some(runs) = time {
            let (form, word) = lay_time(&mut self.runs, runs, 0);
            node.flags |= form;
            node.time = word;
        }
        match self.nodes.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(node),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(node);
                self.nodes.push(chunk);
            }
        }
    }

    /// The archive of these nodes under `root`, once one walk has checked
    /// everything [`Archive::check_invariants`] does but rule 4, and
    /// derived rule 4's [`Archive::written_beneath`] bits — so a damaged
    /// checkpoint can never become an archive.
    pub(crate) fn finish(
        self,
        (spec, compaction, syms, latest): Config,
        root: ANodeId,
    ) -> Result<Archive, Refusal> {
        let mut a = Archive {
            nodes: CowVec::from_chunks(self.nodes),
            kids: self.kids.seal(),
            attrs: self.attrs.seal(),
            runs: self.runs.seal(),
            text: self.text.seal(),
            syms: Arc::new(syms),
            root,
            latest,
            spec,
            compaction,
            tally: MergeTally::default(),
            touched: TouchedLog::default(),
            #[cfg(test)]
            full_walk: false,
            #[cfg(test)]
            eager_annotate: false,
        };
        for id in a.walk(true)? {
            a.nodes.get_mut(id.index()).flags |= WRITTEN_BENEATH;
        }
        Ok(a)
    }
}

/// Why [`Archive::walk`] refused an arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The root has a parent pointer.
    RootHasParent,
    /// The node nests deeper than [`MAX_TREE_DEPTH`] below the root.
    TooDeep(ANodeId),
    /// A node is reached twice: a cycle or a shared subtree.
    Cycle,
    /// A child's parent pointer names another node.
    ParentSkew,
    /// Some node is not reached from the root.
    Unreachable,
    /// A timestamp rule of [`Archive::check_invariants`] fails.
    Broken(String),
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::RootHasParent => f.write_str("root has a parent"),
            Refusal::TooDeep(id) => write!(f, "node {id:?} nests deeper than {MAX_TREE_DEPTH}"),
            Refusal::Cycle => f.write_str("node cycle"),
            Refusal::ParentSkew => f.write_str("parent pointer skew"),
            Refusal::Unreachable => f.write_str("unreachable nodes"),
            Refusal::Broken(why) => f.write_str(why),
        }
    }
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
        a.put_time(root, &[(1, 4)]);
        a.latest = 4;
        let sym = a.intern("db");
        let db = a.push_node(root, AKind::Element(sym), NodeClass::Keyed, None);
        assert_eq!(a.effective_time(db), TimeSet::from_range(1, 4));
        assert!(a.exists_at(db, 2));
        assert!(!a.exists_at(db, 5));
        a.check_invariants().unwrap();
    }

    #[test]
    fn invariant_catches_non_subset_child() {
        let mut a = Archive::new(spec());
        let root = a.root();
        a.put_time(root, &[(1, 2)]);
        a.latest = 2;
        let sym = a.intern("db");
        let db = a.push_node(root, AKind::Element(sym), NodeClass::Keyed, None);
        a.put_time(db, &[(1, 9)]);
        let err = a.check_invariants().unwrap_err();
        assert!(err.contains("not a subset of parent's 1-2"), "{err}");
    }

    /// Each refusal of the walk fires, at any depth it can reach.
    #[test]
    fn invariant_refusals_fire() {
        let checked = |build: &dyn Fn(&mut Archive, ANodeId)| {
            let mut a = Archive::new(spec());
            let root = a.root();
            a.put_time(root, &[(1, 2)]);
            a.latest = 2;
            let db = a.intern("db");
            let mut at = root;
            for _ in 0..3 {
                at = a.push_node(at, AKind::Element(db), NodeClass::Keyed, None);
            }
            build(&mut a, at);
            a.check_invariants()
        };
        checked(&|_, _| {}).unwrap();
        let err = checked(&|a, at| {
            a.push_node(at, AKind::Stamp, NodeClass::BeyondFrontier, None);
        })
        .unwrap_err();
        assert!(err.contains("without explicit timestamp"), "{err}");
        let err = checked(&|a, at| {
            let text = a.push_node(at, AKind::Text("x"), NodeClass::Text, None);
            a.put_time(text, &[(2, 2)]);
        })
        .unwrap_err();
        assert!(err.contains("not marked written_beneath"), "{err}");
        let err = checked(&|a, at| {
            let text = a.push_node(at, AKind::Text("x"), NodeClass::Text, None);
            a.put_time(text, &[(1, 3)]);
        })
        .unwrap_err();
        assert!(err.contains("not a subset of parent's 1-2"), "{err}");
        let err = checked(&|a, mut at| {
            for _ in 0..MAX_TREE_DEPTH {
                at = a.push_node(at, AKind::Stamp, NodeClass::BeyondFrontier, None);
                a.put_time(at, &[(1, 1)]);
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
        let db = a.push_node(root, AKind::Element(sym), NodeClass::Keyed, None);
        a.put_time(db, &[(1, 1)]);
        a.push_node(db, AKind::Text("x"), NodeClass::BeyondFrontier, None);
        let s = a.stats();
        assert_eq!(s.elements, 2); // root + db
        assert_eq!(s.texts, 1);
        assert_eq!(s.explicit_times, 2); // root + db
    }

    /// Each version adds a child under one node, while the new child's
    /// own children land in the pool behind that node's run: the run keeps
    /// moving to the end of the pool, and the doubling keeps what it
    /// leaves behind within a constant factor of what lives.
    #[test]
    fn a_run_grown_a_thousand_times_leaves_dead_slots_within_a_constant_factor() {
        let spec = KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").unwrap();
        let mut a = Archive::new(spec);
        for v in 1..=1000 {
            let doc = format!("<db><rec><id>{v}</id></rec></db>");
            a.add_version(&xarch_xml::parse(&doc).unwrap()).unwrap();
        }
        let db = a.children(a.root())[0];
        assert_eq!(a.children(db).len(), 1000);
        let (live, laid) = a.child_slots();
        assert!(live > 3000, "db's records, their ids and texts: {live}");
        let dead = laid - live;
        assert!(dead > 0, "the run moved");
        assert!(dead <= live, "{dead} dead slots beside {live} live ones");
        a.check_invariants().unwrap();
    }

    /// Chunks at the same position in `a` and `b` that hold the same
    /// elements without being shared: copies no write needed.
    fn needless_copies(a: &Archive, b: &Archive) -> usize {
        a.nodes.needless_copies(&b.nodes)
            + a.kids.needless_copies(&b.kids)
            + a.attrs.needless_copies(&b.attrs)
            + a.runs.needless_copies(&b.runs)
            + a.text.needless_copies(&b.text)
    }

    /// A view taken before a merge keeps sharing every chunk — of the
    /// node arena and of every pool — that the merge did not write.
    #[test]
    fn a_view_shares_every_chunk_the_merge_did_not_write() {
        let spec =
            KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap();
        let doc = |v: u32| {
            let mut src = String::from("<db>");
            for i in 0..400 {
                let val = match i % 97 == 0 {
                    true => format!("v{v}"),
                    false => "old".to_owned(),
                };
                src.push_str(&format!(
                    "<rec n=\"{i}\"><id>{i}</id><val>{val}</val></rec>"
                ));
            }
            if v.is_multiple_of(2) {
                src.push_str(&format!("<rec><id>new{v}</id><val>x</val></rec>"));
            }
            src.push_str("</db>");
            xarch_xml::parse(&src).unwrap()
        };
        for compaction in [Compaction::Alternatives, Compaction::Weave] {
            let mut a = Archive::with_compaction(spec.clone(), compaction);
            a.add_version(&doc(1)).unwrap();
            for v in 2..=6 {
                let view = a.clone();
                assert_eq!(a.shared_chunks(&view), a.chunk_count());
                a.add_version(&doc(v)).unwrap();
                assert_eq!(needless_copies(&a, &view), 0, "{compaction:?} v{v}");
                let unshared = a.chunk_count() - a.shared_chunks(&view);
                assert!(
                    unshared * 4 < a.chunk_count(),
                    "{compaction:?} v{v}: {unshared} of {} chunks copied or new",
                    a.chunk_count()
                );
                let (mut was, mut is) = (Vec::new(), Vec::new());
                view.retrieve_into(v - 1, &mut was).unwrap();
                a.retrieve_into(v - 1, &mut is).unwrap();
                assert_eq!(was, is, "the view reads as it did");
            }
        }
    }
}
