//! The document model: a tree of elements and text in four flat arrays.
//!
//! A [`Document`] is
//!
//! * its nodes, addressed by [`NodeId`] (a `u32` index): a tag or a text
//!   span, a parent, and the runs below;
//! * one child pool, in which the children of each element are one
//!   contiguous run;
//! * one attribute pool, in which the attributes of each element are one
//!   contiguous run of name and value span;
//! * one text buffer, of which every text node and attribute value is a
//!   span;
//!
//! and a [`SymbolTable`] for tag and attribute names. Building, cloning or
//! dropping a document touches a handful of growable buffers, never a heap
//! block per node, and nodes are cheap to copy between documents.
//!
//! Documents are built front to back by a [`Builder`] (open, attr, text,
//! close): the parser, the journal decoder and the archive's emitters all
//! go through it. A node's id is assigned when it opens, so ids run in
//! preorder, and an element's children are laid down as one run when it
//! closes. The mutation methods ([`Document::add_element`],
//! [`Document::set_text`], …) edit the same arrays in place: a child run
//! that must grow and is not at the end of the pool moves there first,
//! with as many spare slots as it held, and a new text or attribute value
//! is appended to the text buffer. What that leaves behind — a moved run,
//! a replaced string — stays until the document is cloned: a clone holds
//! only what its nodes use.
//!
//! Offsets are `u32`: a document holds fewer than 2³² nodes and at most
//! [`MAX_BYTES`] bytes of text and attribute values. The parser and the
//! journal decoder refuse longer input with a positioned error; building
//! past the bound in code panics.
//!
//! The model follows Appendix A of the paper: element nodes (E-nodes) carry
//! a tag, an ordered list of E/T children, and an *unordered* set of
//! attributes (A-nodes); text nodes (T-nodes) carry a string.

use std::ops::Range;

use crate::sym::{Sym, SymbolTable};

/// The most bytes of text and attribute values a [`Document`] holds: its
/// spans are `u32` offsets.
pub const MAX_BYTES: usize = u32::MAX as usize;

/// Index of a node within its owning [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is, borrowed from its [`Document`]. Attributes are stored
/// inline on elements rather than as separate nodes (they can never have
/// children).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// An element with an interned tag name.
    Element(Sym),
    /// A text node.
    Text(&'a str),
}

/// The tag of a text node.
const TEXT: Sym = Sym(u32::MAX);
/// The parent of the root and of a removed child.
const NO_PARENT: u32 = u32::MAX;

/// A run of one of a document's pools, or a span of its text buffer.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    #[inline]
    fn end(self) -> usize {
        self.start as usize + self.len as usize
    }
}

/// One node of the arena.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The element's tag, or [`TEXT`].
    tag: Sym,
    /// The parent's index, or [`NO_PARENT`].
    parent: u32,
    /// An element's children: a run of the child pool (empty for text).
    children: Run,
    /// Slots after `children` that the run may grow into.
    spare: u32,
    /// An element's attributes, a run of the attribute pool; a text node's
    /// text, a span of the text buffer.
    own: Run,
}

impl Node {
    fn element(tag: Sym, parent: u32) -> Node {
        Node {
            tag,
            parent,
            children: Run::default(),
            spare: 0,
            own: Run::default(),
        }
    }
}

/// Summary statistics of a document (the paper's Figure 7 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocStats {
    /// Number of element nodes.
    pub elements: usize,
    /// Number of text nodes.
    pub texts: usize,
    /// Number of attribute nodes.
    pub attrs: usize,
    /// Height of the tree (root alone = 1).
    pub height: usize,
}

impl DocStats {
    /// Total node count N = E + T + A nodes.
    pub fn nodes(&self) -> usize {
        self.elements + self.texts + self.attrs
    }
}

/// An XML document: an arena of nodes with a single root element.
#[derive(Debug)]
pub struct Document {
    nodes: Vec<Node>,
    children: Vec<NodeId>,
    attrs: Vec<(Sym, Run)>,
    text: String,
    syms: SymbolTable,
}

/// A pool length or text offset as a `u32`.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a document holds fewer than 2^32 nodes and MAX_BYTES of text")
}

impl Document {
    /// Creates a document whose root element is named `root_tag`.
    pub fn new(root_tag: &str) -> Self {
        let mut syms = SymbolTable::new();
        let tag = syms.intern(root_tag);
        Self {
            nodes: vec![Node::element(tag, NO_PARENT)],
            children: Vec::new(),
            attrs: Vec::new(),
            text: String::new(),
            syms,
        }
    }

    /// What a document is left as while a [`Builder`] builds on in it:
    /// nothing, not even a root.
    fn taken() -> Self {
        Self {
            nodes: Vec::new(),
            children: Vec::new(),
            attrs: Vec::new(),
            text: String::new(),
            syms: SymbolTable::new(),
        }
    }

    /// The root element.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Immutable access to the symbol table.
    #[inline]
    pub fn syms(&self) -> &SymbolTable {
        &self.syms
    }

    /// Interns a name in this document's symbol table.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.syms.intern(name)
    }

    /// What node `id` is.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind<'_> {
        let node = &self.nodes[id.index()];
        match node.tag {
            TEXT => NodeKind::Text(&self.text[node.own.range()]),
            tag => NodeKind::Element(tag),
        }
    }

    /// Number of arena slots (elements + text nodes), removed subtrees
    /// included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the arena holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The tag name of an element node as a string.
    ///
    /// # Panics
    /// Panics if `id` is a text node.
    pub fn tag_name(&self, id: NodeId) -> &str {
        match self.kind(id) {
            NodeKind::Element(s) => self.syms.resolve(s),
            NodeKind::Text(_) => panic!("tag_name on text node"),
        }
    }

    /// The text of a text node, or `None` for elements.
    #[inline]
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Text(t) => Some(t),
            NodeKind::Element(_) => None,
        }
    }

    /// Children (E and T nodes) in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.children[self.nodes[id.index()].children.range()]
    }

    /// Parent of a node (None for the root and a removed child).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        match self.nodes[id.index()].parent {
            NO_PARENT => None,
            p => Some(NodeId(p)),
        }
    }

    /// Attribute pairs of an element in document order (none for text).
    #[inline]
    pub fn attrs(&self, id: NodeId) -> impl ExactSizeIterator<Item = (Sym, &str)> + '_ {
        let node = &self.nodes[id.index()];
        let run = match node.tag {
            TEXT => 0..0,
            _ => node.own.range(),
        };
        self.attrs[run]
            .iter()
            .map(|&(name, value)| (name, &self.text[value.range()]))
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        let sym = self.syms.get(name)?;
        self.attrs(id).find(|&(s, _)| s == sym).map(|(_, v)| v)
    }

    /// Appends `s` to the text buffer.
    fn push_text(&mut self, s: &str) -> Run {
        let len = offset(s.len());
        let end = offset(self.text.len() + s.len());
        self.text.push_str(s);
        Run {
            start: end - len,
            len,
        }
    }

    /// Adds a node that is not yet anyone's child.
    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(offset(self.nodes.len()));
        // the last id is the "no parent" mark
        assert!(id.0 != NO_PARENT, "a document holds fewer than 2^32 nodes");
        self.nodes.push(node);
        id
    }

    /// Appends `child` to the child run of `parent`: into a spare slot, at
    /// the end of the pool, or — the run not there — after moving the run
    /// to the end with as many spare slots as it holds.
    fn push_child(&mut self, parent: NodeId, child: NodeId) {
        let pool_len = self.children.len();
        let p = &mut self.nodes[parent.index()];
        let run = p.children;
        if p.spare > 0 {
            self.children[run.end()] = child;
            p.spare -= 1;
        } else if run.end() == pool_len {
            self.children.push(child);
        } else {
            // the moved run, the child, and the spare slots
            let end = pool_len + 2 * run.len as usize + 1;
            p.children.start = offset(pool_len);
            p.spare = offset(end) - p.children.start - run.len - 1;
            self.children.extend_from_within(run.range());
            self.children.push(child);
            self.children.resize(end, NodeId(NO_PARENT));
        }
        p.children.len += 1;
    }

    /// Appends a child element named `tag` to `parent`, returning its id.
    pub fn add_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let sym = self.syms.intern(tag);
        self.add_element_sym(parent, sym)
    }

    /// Appends a child element with an already-interned tag.
    pub fn add_element_sym(&mut self, parent: NodeId, tag: Sym) -> NodeId {
        let id = self.push_node(Node::element(tag, parent.0));
        self.push_child(parent, id);
        id
    }

    /// Appends a text child to `parent`, returning its id.
    ///
    /// Empty text is a no-op returning `parent`: XML cannot represent an
    /// empty text node, so admitting one would make documents that cannot
    /// survive a serialize → parse round trip.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        if text.is_empty() {
            return parent;
        }
        let id = self.push_text_node(parent, text);
        self.push_child(parent, id);
        id
    }

    /// Adds a text node that is not yet anyone's child.
    fn push_text_node(&mut self, parent: NodeId, text: &str) -> NodeId {
        let own = self.push_text(text);
        self.push_node(Node {
            own,
            ..Node::element(TEXT, parent.0)
        })
    }

    /// Convenience: adds `<tag>text</tag>` under `parent` and returns the
    /// element id.
    pub fn add_text_element(&mut self, parent: NodeId, tag: &str, text: &str) -> NodeId {
        let e = self.add_element(parent, tag);
        self.add_text(e, text);
        e
    }

    /// Sets (or replaces) an attribute on an element.
    ///
    /// # Panics
    /// Panics if `id` is a text node.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let sym = self.syms.intern(name);
        self.set_attr_sym(id, sym, value);
    }

    /// Sets (or replaces) an attribute whose name is already interned:
    /// `true` if the element had no attribute of that name.
    ///
    /// # Panics
    /// Panics if `id` is a text node.
    pub fn set_attr_sym(&mut self, id: NodeId, name: Sym, value: &str) -> bool {
        assert!(self.nodes[id.index()].tag != TEXT, "set_attr on text node");
        let value = self.push_text(value);
        let run = self.nodes[id.index()].own;
        if let Some(pair) = self.attrs[run.range()].iter_mut().find(|a| a.0 == name) {
            pair.1 = value;
            return false;
        }
        if run.end() != self.attrs.len() {
            self.nodes[id.index()].own.start = offset(self.attrs.len());
            self.attrs.extend_from_within(run.range());
        }
        self.attrs.push((name, value));
        self.nodes[id.index()].own.len += 1;
        true
    }

    /// Replaces the text of a text node.
    ///
    /// # Panics
    /// Panics if `id` is an element.
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        assert!(self.nodes[id.index()].tag == TEXT, "set_text on element");
        self.nodes[id.index()].own = self.push_text(text);
    }

    /// Removes the child at position `pos` of `parent` (the subtree stays in
    /// the arena but becomes unreachable — documents are write-mostly, which
    /// mirrors the paper's accretive workloads).
    ///
    /// # Panics
    /// Panics if `parent` has no child at `pos`.
    pub fn remove_child(&mut self, parent: NodeId, pos: usize) -> NodeId {
        let p = &mut self.nodes[parent.index()];
        let run = p.children.range();
        assert!(pos < run.len(), "remove_child: no child at {pos}");
        let child = self.children[run.start + pos];
        self.children
            .copy_within(run.start + pos + 1..run.end, run.start + pos);
        p.children.len -= 1;
        p.spare += 1;
        self.nodes[child.index()].parent = NO_PARENT;
        child
    }

    /// Concatenated text of all T-node descendants (document order).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::Element(_) => {
                for &c in self.children(id) {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Child elements of `id` whose tag is `name`, in document order.
    pub fn child_elements<'a>(
        &'a self,
        id: NodeId,
        name: &str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let want = self.syms.get(name);
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| Some(self.nodes[c.index()].tag) == want)
    }

    /// First child element named `name`.
    pub fn first_child_element(&self, id: NodeId, name: &str) -> Option<NodeId> {
        self.child_elements(id, name).next()
    }

    /// Preorder (document-order) traversal of the subtree rooted at `id`.
    pub fn preorder(&self, id: NodeId) -> Preorder<'_> {
        Preorder {
            doc: self,
            stack: vec![id],
        }
    }

    /// Copies the subtree rooted at `src_id` in `src` as a new child of
    /// `parent` in `self`, translating symbols between the two tables.
    /// Returns the id of the copied root (`parent` for empty text, which
    /// [`Document::add_text`] does not add).
    pub fn copy_subtree_from(&mut self, src: &Document, src_id: NodeId, parent: NodeId) -> NodeId {
        let tag = match src.kind(src_id) {
            NodeKind::Text(t) => return self.add_text(parent, t),
            NodeKind::Element(s) => self.syms.intern(src.syms.resolve(s)),
        };
        let copy = self.add_element_sym(parent, tag);
        // the copy's attributes and descendants are built beneath it
        let doc = std::mem::replace(self, Document::taken());
        let mut b = Builder::beneath(doc, copy);
        for (name, value) in src.attrs(src_id) {
            b.attr(src.syms.resolve(name), value);
        }
        // the source elements entered, innermost last, with the position
        // of the next child to copy
        let mut entered = vec![(src_id, 0)];
        while let Some((el, next)) = entered.last_mut() {
            let Some(&c) = src.children(*el).get(*next) else {
                entered.pop();
                b.close();
                continue;
            };
            *next += 1;
            match src.kind(c) {
                NodeKind::Text(t) => {
                    b.text(t);
                }
                NodeKind::Element(s) => {
                    b.open(src.syms.resolve(s));
                    for (name, value) in src.attrs(c) {
                        b.attr(src.syms.resolve(name), value);
                    }
                    entered.push((c, 0));
                }
            }
        }
        *self = b.finish();
        copy
    }

    /// Computes document statistics (paper Fig 7: size, N, height) for the
    /// subtree rooted at the document root.
    pub fn stats(&self) -> DocStats {
        let mut s = DocStats {
            elements: 0,
            texts: 0,
            attrs: 0,
            height: 0,
        };
        self.stats_rec(self.root(), 1, &mut s);
        s
    }

    fn stats_rec(&self, id: NodeId, depth: usize, s: &mut DocStats) {
        s.height = s.height.max(depth);
        match self.kind(id) {
            NodeKind::Element(_) => {
                s.elements += 1;
                s.attrs += self.attrs(id).len();
                for &c in self.children(id) {
                    self.stats_rec(c, depth + 1, s);
                }
            }
            NodeKind::Text(_) => s.texts += 1,
        }
    }

    /// The sequence of tag names from the root down to `id` (inclusive),
    /// e.g. `["db", "dept", "emp"]`. Text nodes contribute nothing.
    pub fn label_path(&self, id: NodeId) -> Vec<String> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            if let NodeKind::Element(s) = self.kind(n) {
                path.push(self.syms.resolve(s).to_owned());
            }
            cur = self.parent(n);
        }
        path.reverse();
        path
    }
}

/// The copy holds what the nodes use and nothing else: no moved-from run,
/// no spare slot, no replaced string.
impl Clone for Document {
    fn clone(&self) -> Self {
        let (mut children, mut attrs, mut text) = (0, 0, 0);
        for node in &self.nodes {
            children += node.children.len as usize;
            match node.tag {
                TEXT => text += node.own.len as usize,
                _ => {
                    attrs += node.own.len as usize;
                    let values = self.attrs[node.own.range()].iter();
                    text += values.map(|a| a.1.len as usize).sum::<usize>();
                }
            }
        }
        let mut copy = Document {
            nodes: Vec::with_capacity(self.nodes.len()),
            children: Vec::with_capacity(children),
            attrs: Vec::with_capacity(attrs),
            text: String::with_capacity(text),
            syms: self.syms.clone(),
        };
        for node in &self.nodes {
            let children = Run {
                start: offset(copy.children.len()),
                len: node.children.len,
            };
            copy.children
                .extend_from_slice(&self.children[node.children.range()]);
            let own = match node.tag {
                TEXT => copy.push_text(&self.text[node.own.range()]),
                _ => {
                    let start = offset(copy.attrs.len());
                    for &(name, value) in &self.attrs[node.own.range()] {
                        let value = copy.push_text(&self.text[value.range()]);
                        copy.attrs.push((name, value));
                    }
                    Run {
                        start,
                        len: node.own.len,
                    }
                }
            };
            copy.nodes.push(Node {
                children,
                spare: 0,
                own,
                ..*node
            });
        }
        copy
    }
}

/// Preorder iterator over a subtree.
pub struct Preorder<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        // push children in reverse so the leftmost is visited first
        for &c in self.doc.children(id).iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

/// Slots of a [`Builder`]'s name cache.
const NAME_SLOTS: usize = 64;

/// The bytes of input per node [`Builder::with_capacity`] reserves for:
/// fewer than the paper's corpora take, 20 to 30 written as XML or as
/// journal payloads.
const INPUT_PER_NODE: usize = 16;

/// Builds a [`Document`] front to back: elements open, take attributes,
/// text and child elements, and close. Ids are assigned at open, so they
/// run in preorder; an element's children are laid down as one run of the
/// child pool when it closes, and [`Builder::finish`] closes what is still
/// open. An attribute named twice keeps its first position and takes the
/// last value; empty text adds nothing. Opening an element, setting an
/// attribute or adding text once the root has closed panics.
#[derive(Debug)]
pub struct Builder {
    doc: Document,
    /// The elements open, innermost last, each with the length `pending`
    /// had when it opened.
    open: Vec<(NodeId, usize)>,
    /// The children of the open elements not yet laid down, outermost
    /// element's first.
    pending: Vec<NodeId>,
    /// Names met so far as symbols, direct-mapped by a hash of the name.
    names: [Option<Sym>; NAME_SLOTS],
}

impl Builder {
    /// A document whose root element, named `root_tag`, is open.
    pub fn new(root_tag: &str) -> Self {
        Self::with_capacity(root_tag, 0)
    }

    /// [`Builder::new`] with room for a document read from `input` bytes:
    /// its text and attribute values, which take at most that many, and
    /// a node per 16 of them. Growing the arrays from empty instead costs
    /// more than the build itself.
    pub fn with_capacity(root_tag: &str, input: usize) -> Self {
        let mut doc = Document::new(root_tag);
        let nodes = input / INPUT_PER_NODE;
        doc.nodes.reserve(nodes);
        doc.children.reserve(nodes);
        doc.text.reserve(input);
        let root = doc.root();
        Self::beneath(doc, root)
    }

    /// Builds on in `doc` beneath `el`, an element with no children yet.
    fn beneath(doc: Document, el: NodeId) -> Self {
        Builder {
            doc,
            open: vec![(el, 0)],
            pending: Vec::new(),
            names: [None; NAME_SLOTS],
        }
    }

    /// `name`'s symbol: the cached one, else the document's — it interns
    /// the name on first sight, in the order names are met — which then
    /// takes the name's cache slot.
    fn sym(&mut self, name: &str) -> Sym {
        let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let slot = (hash >> 58) as usize % NAME_SLOTS;
        match self.names[slot] {
            Some(sym) if self.doc.syms.resolve(sym) == name => sym,
            _ => {
                let sym = self.doc.syms.intern(name);
                self.names[slot] = Some(sym);
                sym
            }
        }
    }

    /// The innermost open element.
    fn innermost(&self) -> NodeId {
        self.open.last().expect("an element is open").0
    }

    /// Opens a child element named `tag` of the innermost open element.
    pub fn open(&mut self, tag: &str) -> NodeId {
        let tag = self.sym(tag);
        let parent = self.innermost();
        let id = self.doc.push_node(Node::element(tag, parent.0));
        self.doc.nodes[id.index()].own.start = offset(self.doc.attrs.len());
        self.pending.push(id);
        self.open.push((id, self.pending.len()));
        id
    }

    /// Sets an attribute of the innermost open element: `true` if it had
    /// none of that name, `false` if `value` replaced one.
    pub fn attr(&mut self, name: &str, value: &str) -> bool {
        let name = self.sym(name);
        let el = self.innermost();
        self.doc.set_attr_sym(el, name, value)
    }

    /// Adds a text child to the innermost open element; `None`, adding
    /// nothing, for empty text.
    pub fn text(&mut self, text: &str) -> Option<NodeId> {
        if text.is_empty() {
            return None;
        }
        let id = self.doc.push_text_node(self.innermost(), text);
        self.pending.push(id);
        Some(id)
    }

    /// Closes the innermost open element, laying down its children.
    pub fn close(&mut self) {
        let Some((el, from)) = self.open.pop() else {
            return;
        };
        let start = offset(self.doc.children.len());
        self.doc.children.extend_from_slice(&self.pending[from..]);
        self.pending.truncate(from);
        let el = &mut self.doc.nodes[el.index()];
        el.children = Run {
            start,
            len: offset(self.doc.children.len()) - start,
        };
        el.spare = 0;
    }

    /// Closes every element still open and returns the document.
    pub fn finish(mut self) -> Document {
        while !self.open.is_empty() {
            self.close();
        }
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn company() -> Document {
        // Version 1 of the paper's Figure 2.
        let mut d = Document::new("db");
        let dept = d.add_element(d.root(), "dept");
        d.add_text_element(dept, "name", "finance");
        d
    }

    #[test]
    fn build_and_navigate() {
        let d = company();
        assert_eq!(d.tag_name(d.root()), "db");
        let dept = d.first_child_element(d.root(), "dept").unwrap();
        let name = d.first_child_element(dept, "name").unwrap();
        assert_eq!(d.text_content(name), "finance");
        assert_eq!(d.parent(name), Some(dept));
        assert_eq!(d.label_path(name).len(), 3);
    }

    #[test]
    fn label_path_works() {
        let d = company();
        let dept = d.first_child_element(d.root(), "dept").unwrap();
        let name = d.first_child_element(dept, "name").unwrap();
        assert_eq!(d.label_path(name), vec!["db", "dept", "name"]);
    }

    #[test]
    fn stats_counts_nodes_and_height() {
        let d = company();
        let s = d.stats();
        assert_eq!(s.elements, 3); // db, dept, name
        assert_eq!(s.texts, 1);
        assert_eq!(s.height, 4); // db > dept > name > text
        assert_eq!(s.nodes(), 4);
    }

    #[test]
    fn attrs_set_and_get() {
        let mut d = Document::new("r");
        let e = d.add_element(d.root(), "item");
        d.set_attr(e, "id", "item1");
        assert_eq!(d.attr(e, "id"), Some("item1"));
        d.set_attr(e, "id", "item2");
        assert_eq!(d.attr(e, "id"), Some("item2"));
        assert_eq!(d.attrs(e).len(), 1);
        assert_eq!(d.attr(e, "missing"), None);
    }

    #[test]
    fn preorder_is_document_order() {
        let mut d = Document::new("a");
        let b = d.add_element(d.root(), "b");
        d.add_element(b, "c");
        d.add_element(b, "d");
        d.add_element(d.root(), "e");
        let tags: Vec<String> = d
            .preorder(d.root())
            .map(|n| d.tag_name(n).to_owned())
            .collect();
        assert_eq!(tags, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn copy_subtree_translates_symbols() {
        let mut src = Document::new("x");
        let e = src.add_element(src.root(), "gene");
        src.set_attr(e, "id", "6230");
        src.add_text(e, "GRTM");

        let mut dst = Document::new("archive");
        // force differing symbol numbering
        dst.intern("unrelated");
        let copied = dst.copy_subtree_from(&src, e, dst.root());
        assert_eq!(dst.tag_name(copied), "gene");
        assert_eq!(dst.attr(copied, "id"), Some("6230"));
        assert_eq!(dst.text_content(copied), "GRTM");
    }

    #[test]
    fn remove_child_detaches() {
        let mut d = Document::new("r");
        let a = d.add_element(d.root(), "a");
        let _b = d.add_element(d.root(), "b");
        let removed = d.remove_child(d.root(), 0);
        assert_eq!(removed, a);
        assert_eq!(d.children(d.root()).len(), 1);
        assert_eq!(d.parent(a), None);
    }

    #[test]
    fn child_elements_filters_by_name() {
        let mut d = Document::new("db");
        d.add_element(d.root(), "dept");
        d.add_element(d.root(), "misc");
        d.add_element(d.root(), "dept");
        assert_eq!(d.child_elements(d.root(), "dept").count(), 2);
        assert_eq!(d.child_elements(d.root(), "absent").count(), 0);
    }

    #[test]
    fn appending_beneath_earlier_parents_moves_runs_with_room_to_grow() {
        let mut d = Document::new("r");
        let recs: Vec<NodeId> = (0..64).map(|_| d.add_element(d.root(), "rec")).collect();
        for round in 0..8 {
            for &rec in &recs {
                d.add_text_element(rec, "f", &round.to_string());
            }
        }
        assert!(recs.iter().all(|&r| d.children(r).len() == 8));
        // each run moved at most once per doubling: the pool stays within
        // a small multiple of the children it holds
        let live = d.len() - 1;
        assert!(
            d.children.len() <= 4 * live,
            "{} > 4 × {live}",
            d.children.len()
        );
        let copy = d.clone();
        assert_eq!(copy.children.len(), live);
        assert_eq!(
            crate::writer::to_compact_string(&copy),
            crate::writer::to_compact_string(&d)
        );
    }
}
