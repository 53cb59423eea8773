//! The arena-based document model.
//!
//! A [`Document`] owns a flat `Vec<Node>` plus a [`SymbolTable`] for tag and
//! attribute names. Nodes are addressed by [`NodeId`] (a `u32` newtype), so
//! tree manipulation never fights the borrow checker and nodes are cheap to
//! copy between documents.
//!
//! The model follows Appendix A of the paper: element nodes (E-nodes) carry
//! a tag, an ordered list of E/T children, and an *unordered* set of
//! attributes (A-nodes); text nodes (T-nodes) carry a string.

use crate::sym::{Sym, SymbolTable};

/// Index of a node within its owning [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The two kinds of tree nodes. Attributes are stored inline on elements
/// rather than as separate arena nodes (they can never have children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with an interned tag name.
    Element(Sym),
    /// A text node.
    Text(String),
}

/// One node of the arena.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    /// Ordered E/T children. Empty for text nodes.
    pub children: Vec<NodeId>,
    /// Attribute name/value pairs in document order. Empty for text nodes.
    pub attrs: Vec<(Sym, String)>,
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
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    syms: SymbolTable,
    root: NodeId,
}

impl Document {
    /// Creates a document whose root element is named `root_tag`.
    pub fn new(root_tag: &str) -> Self {
        let mut syms = SymbolTable::new();
        let tag = syms.intern(root_tag);
        let root = Node {
            kind: NodeKind::Element(tag),
            parent: None,
            children: Vec::new(),
            attrs: Vec::new(),
        };
        Self {
            nodes: vec![root],
            syms,
            root: NodeId(0),
        }
    }

    /// The root element.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
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

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of arena slots (elements + text nodes).
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
        match self.node(id).kind {
            NodeKind::Element(s) => self.syms.resolve(s),
            NodeKind::Text(_) => panic!("tag_name on text node"),
        }
    }

    /// The text of a text node, or `None` for elements.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Text(t) => Some(t),
            NodeKind::Element(_) => None,
        }
    }

    /// Children (E and T nodes) in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// Parent of a node (None for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Attribute pairs of an element in document order.
    #[inline]
    pub fn attrs(&self, id: NodeId) -> &[(Sym, String)] {
        &self.node(id).attrs
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        let sym = self.syms.get(name)?;
        self.node(id)
            .attrs
            .iter()
            .find(|(s, _)| *s == sym)
            .map(|(_, v)| v.as_str())
    }

    /// Appends a child element named `tag` to `parent`, returning its id.
    pub fn add_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let sym = self.syms.intern(tag);
        self.add_element_sym(parent, sym)
    }

    /// Appends a child element with an already-interned tag.
    pub fn add_element_sym(&mut self, parent: NodeId, tag: Sym) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Element(tag),
            parent: Some(parent),
            children: Vec::new(),
            attrs: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
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
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Text(text.to_owned()),
            parent: Some(parent),
            children: Vec::new(),
            attrs: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Convenience: adds `<tag>text</tag>` under `parent` and returns the
    /// element id.
    pub fn add_text_element(&mut self, parent: NodeId, tag: &str, text: &str) -> NodeId {
        let e = self.add_element(parent, tag);
        self.add_text(e, text);
        e
    }

    /// Sets (or replaces) an attribute on an element.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let sym = self.syms.intern(name);
        self.set_attr_sym(id, sym, value);
    }

    /// Sets (or replaces) an attribute whose name is already interned.
    pub fn set_attr_sym(&mut self, id: NodeId, name: Sym, value: &str) {
        let node = &mut self.nodes[id.index()];
        if let Some(pair) = node.attrs.iter_mut().find(|(s, _)| *s == name) {
            pair.1 = value.to_owned();
        } else {
            node.attrs.push((name, value.to_owned()));
        }
    }

    /// Replaces the text of a text node.
    ///
    /// # Panics
    /// Panics if `id` is an element.
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Text(t) => *t = text.to_owned(),
            NodeKind::Element(_) => panic!("set_text on element"),
        }
    }

    /// Removes the child at position `pos` of `parent` (the subtree stays in
    /// the arena but becomes unreachable — documents are write-mostly, which
    /// mirrors the paper's accretive workloads).
    pub fn remove_child(&mut self, parent: NodeId, pos: usize) -> NodeId {
        let child = self.nodes[parent.index()].children.remove(pos);
        self.nodes[child.index()].parent = None;
        child
    }

    /// Concatenated text of all T-node descendants (document order).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
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
            .filter(move |&c| matches!(self.node(c).kind, NodeKind::Element(s) if Some(s) == want))
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
    /// Returns the id of the copied root.
    pub fn copy_subtree_from(&mut self, src: &Document, src_id: NodeId, parent: NodeId) -> NodeId {
        let new_id = match &src.node(src_id).kind {
            NodeKind::Element(s) => {
                let tag = self.syms.intern(src.syms.resolve(*s));
                let e = self.add_element_sym(parent, tag);
                for (a, v) in &src.node(src_id).attrs {
                    let name = src.syms.resolve(*a).to_owned();
                    let sym = self.syms.intern(&name);
                    self.nodes[e.index()].attrs.push((sym, v.clone()));
                }
                e
            }
            NodeKind::Text(t) => {
                let t = t.clone();
                self.add_text(parent, &t)
            }
        };
        for &c in src.children(src_id) {
            self.copy_subtree_from(src, c, new_id);
        }
        new_id
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
        self.stats_rec(self.root, 1, &mut s);
        s
    }

    fn stats_rec(&self, id: NodeId, depth: usize, s: &mut DocStats) {
        s.height = s.height.max(depth);
        match &self.node(id).kind {
            NodeKind::Element(_) => {
                s.elements += 1;
                s.attrs += self.node(id).attrs.len();
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
            if let NodeKind::Element(s) = self.node(n).kind {
                path.push(self.syms.resolve(s).to_owned());
            }
            cur = self.parent(n);
        }
        path.reverse();
        path
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
}
