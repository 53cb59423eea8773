//! The two ways of making a document agree: a random tree built front to
//! back through the [`Builder`] and the same tree made through the
//! mutation API — nodes appended beneath earlier parents, attributes set
//! late and replaced, text set after it was added, children removed, and
//! subtrees copied in from another document — give the same document,
//! node for node. So does a clone of the mutated one, and mutating the
//! clone leaves the original as it was.

use xarch_xml::writer::to_compact_string;
use xarch_xml::{Builder, Document, NodeId, NodeKind};

/// splitmix64: a small seeded generator, so every case replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn value(&mut self) -> String {
        const PIECES: [&str; 8] = ["x", "42", "<", "&amp;", "\"q\"", " ", "é", "long value"];
        (0..self.below(3))
            .map(|_| PIECES[self.below(PIECES.len())])
            .collect()
    }
}

/// A node of the tree both sides make.
#[derive(Debug, Clone)]
enum Tree {
    Element {
        tag: &'static str,
        /// Distinct names, in the order the element takes them.
        attrs: Vec<(&'static str, String)>,
        kids: Vec<Tree>,
        /// Made, then removed from its parent: an orphan in the arena.
        doomed: bool,
        /// Made by `copy_subtree_from` out of another document.
        copied: bool,
    },
    /// Empty text adds no node on either side.
    Text { text: String, doomed: bool },
}

fn tree(rng: &mut Rng, depth: usize, in_copy: bool) -> Tree {
    if depth > 0 && rng.chance(30) {
        let text = if rng.chance(5) {
            String::new()
        } else {
            rng.value() + "t"
        };
        let doomed = !in_copy && rng.chance(10);
        return Tree::Text { text, doomed };
    }
    const TAGS: [&str; 4] = ["a", "b", "rec", "T"];
    let mut names = vec!["id", "k", "n", "t"];
    let mut attrs = Vec::new();
    for _ in 0..rng.below(4) {
        let name = names.swap_remove(rng.below(names.len()));
        attrs.push((name, rng.value()));
    }
    let copied = !in_copy && depth > 0 && rng.chance(15);
    let kids = match depth < 5 {
        true => (0..rng.below(5))
            .map(|_| tree(rng, depth + 1, in_copy || copied))
            .collect(),
        false => Vec::new(),
    };
    Tree::Element {
        tag: TAGS[rng.below(TAGS.len())],
        attrs,
        kids,
        doomed: depth > 0 && !in_copy && rng.chance(8),
        copied,
    }
}

/// Builds `t` into the element open in `b`, recording each doomed node
/// with its parent.
fn build(b: &mut Builder, t: &Tree, parent: NodeId, doomed: &mut Vec<(NodeId, NodeId)>) {
    match t {
        Tree::Text { text, doomed: d } => {
            if let Some(id) = b.text(text) {
                if *d {
                    doomed.push((parent, id));
                }
            }
        }
        Tree::Element {
            tag,
            attrs,
            kids,
            doomed: d,
            ..
        } => {
            let id = b.open(tag);
            for (name, value) in attrs {
                assert!(b.attr(name, value), "distinct names");
            }
            for k in kids {
                build(b, k, id, doomed);
            }
            b.close();
            if *d {
                doomed.push((parent, id));
            }
        }
    }
}

fn remove(doc: &mut Document, parent: NodeId, child: NodeId) {
    let pos = doc.children(parent).iter().position(|&c| c == child);
    doc.remove_child(parent, pos.expect("still a child"));
}

/// The front-to-back document: built whole, then its doomed nodes
/// removed.
fn built(root: &Tree) -> Document {
    let Tree::Element {
        tag, attrs, kids, ..
    } = root
    else {
        unreachable!("the root is an element")
    };
    let mut b = Builder::new(tag);
    for (name, value) in attrs {
        b.attr(name, value);
    }
    let mut doomed = Vec::new();
    for k in kids {
        build(&mut b, k, NodeId(0), &mut doomed);
    }
    let mut doc = b.finish();
    for (parent, child) in doomed {
        remove(&mut doc, parent, child);
    }
    doc
}

/// Work the mutation side leaves for later.
enum Later {
    /// The attributes of an element not yet set, in order.
    Attrs(NodeId, Vec<(&'static str, String)>),
    /// An attribute set to a decoy, to be replaced.
    Replace(NodeId, &'static str, String),
    /// A text added as a decoy, to be set.
    SetText(NodeId, String),
    Remove(NodeId, NodeId),
}

/// A document of its own holding a copy of `t`, made by mutation under a
/// differently numbered symbol table; `t`'s node in it.
fn source_of(t: &Tree) -> (Document, NodeId) {
    fn add(src: &mut Document, parent: NodeId, t: &Tree) -> NodeId {
        match t {
            Tree::Text { text, .. } => src.add_text(parent, text),
            Tree::Element {
                tag, attrs, kids, ..
            } => {
                let id = src.add_element(parent, tag);
                for (name, value) in attrs {
                    src.set_attr(id, name, value);
                }
                for k in kids {
                    add(src, id, k);
                }
                id
            }
        }
    }
    let mut src = Document::new("elsewhere");
    src.intern("unrelated");
    src.add_text_element(src.root(), "before", "x");
    let root = src.root();
    let id = add(&mut src, root, t);
    (src, id)
}

/// The mutation side: nodes made in the builder's order, everything else
/// at random later points.
fn mutated(root: &Tree, rng: &mut Rng) -> Document {
    let Tree::Element {
        tag, attrs, kids, ..
    } = root
    else {
        unreachable!("the root is an element")
    };
    let mut doc = Document::new(tag);
    let mut later = vec![Later::Attrs(doc.root(), attrs.clone())];
    later.retain(|l| !matches!(l, Later::Attrs(_, attrs) if attrs.is_empty()));
    // what is left to make, next last: (parent, node)
    let mut todo: Vec<(NodeId, &Tree)> = kids.iter().rev().map(|k| (doc.root(), k)).collect();
    loop {
        if !later.is_empty() && (todo.is_empty() || rng.chance(40)) {
            let i = rng.below(later.len());
            match later.swap_remove(i) {
                Later::Attrs(el, mut attrs) => {
                    let (name, value) = attrs.remove(0);
                    if rng.chance(30) {
                        doc.set_attr(el, name, "decoy");
                        later.push(Later::Replace(el, name, value));
                    } else {
                        doc.set_attr(el, name, &value);
                    }
                    if !attrs.is_empty() {
                        later.push(Later::Attrs(el, attrs));
                    }
                }
                Later::Replace(el, name, value) => doc.set_attr(el, name, &value),
                Later::SetText(id, text) => doc.set_text(id, &text),
                Later::Remove(parent, child) => remove(&mut doc, parent, child),
            }
            continue;
        }
        let Some((parent, t)) = todo.pop() else {
            break;
        };
        match t {
            Tree::Text { text, .. } if text.is_empty() => {
                assert_eq!(doc.add_text(parent, text), parent);
            }
            Tree::Text { text, doomed } => {
                let id = if rng.chance(30) {
                    let id = doc.add_text(parent, "draft");
                    later.push(Later::SetText(id, text.clone()));
                    id
                } else {
                    doc.add_text(parent, text)
                };
                if *doomed {
                    later.push(Later::Remove(parent, id));
                }
            }
            Tree::Element {
                copied: true,
                doomed,
                ..
            } => {
                let (src, at) = source_of(t);
                let id = doc.copy_subtree_from(&src, at, parent);
                if *doomed {
                    later.push(Later::Remove(parent, id));
                }
            }
            Tree::Element {
                tag,
                attrs,
                kids,
                doomed,
                ..
            } => {
                let id = doc.add_element(parent, tag);
                if !attrs.is_empty() {
                    later.push(Later::Attrs(id, attrs.clone()));
                }
                if *doomed {
                    later.push(Later::Remove(parent, id));
                }
                todo.extend(kids.iter().rev().map(|k| (id, k)));
            }
        }
    }
    doc
}

/// Node for node: every arena slot, orphans included.
fn assert_same(a: &Document, b: &Document, case: &str) {
    assert_eq!(a.len(), b.len(), "{case}: len");
    assert_eq!(to_compact_string(a), to_compact_string(b), "{case}: XML");
    for i in 0..a.len() as u32 {
        let id = NodeId(i);
        let kind = |d: &Document| match d.kind(id) {
            NodeKind::Element(s) => format!("<{}>", d.syms().resolve(s)),
            NodeKind::Text(t) => format!("text {t:?}"),
        };
        assert_eq!(kind(a), kind(b), "{case}: kind of {id:?}");
        assert_eq!(a.text(id), b.text(id), "{case}: text of {id:?}");
        assert_eq!(a.parent(id), b.parent(id), "{case}: parent of {id:?}");
        assert_eq!(a.children(id), b.children(id), "{case}: children of {id:?}");
        let attrs = |d: &Document| -> Vec<(String, String)> {
            let named = d
                .attrs(id)
                .map(|(s, v)| (d.syms().resolve(s).to_owned(), v.to_owned()));
            named.collect()
        };
        assert_eq!(attrs(a), attrs(b), "{case}: attrs of {id:?}");
        assert_eq!(
            a.attrs(id).len(),
            attrs(a).len(),
            "{case}: attr count of {id:?}"
        );
    }
}

#[test]
fn builder_and_mutation_make_the_same_document() {
    let mut shapes = [0usize; 4];
    for seed in 0..400u64 {
        let mut rng = Rng(seed);
        let root = tree(&mut rng, 0, false);
        let case = format!("seed {seed}");
        let want = built(&root);
        let got = mutated(&root, &mut rng);
        assert_same(&want, &got, &case);

        let mut copy = got.clone();
        assert_same(&copy, &got, &format!("{case}, clone"));
        let last = NodeId(copy.len() as u32 - 1);
        match copy.kind(last) {
            NodeKind::Text(_) => copy.set_text(last, "changed"),
            NodeKind::Element(_) => copy.set_attr(last, "id", "changed"),
        }
        let root_id = copy.root();
        copy.set_attr(root_id, "changed", "1");
        copy.add_text_element(root_id, "new", "y");
        copy.remove_child(root_id, 0);
        assert_same(
            &want,
            &got,
            &format!("{case}, original after the clone changed"),
        );
        assert_ne!(to_compact_string(&copy), to_compact_string(&got), "{case}");

        let orphans = (0..want.len() as u32).filter(|&i| i > 0 && want.parent(NodeId(i)).is_none());
        shapes[0] += orphans.count();
        shapes[1] += want.len();
        shapes[2] += (0..want.len() as u32)
            .map(|i| want.attrs(NodeId(i)).len())
            .sum::<usize>();
        shapes[3] += usize::from(to_compact_string(&want).contains("&lt;"));
    }
    // the cases reach what the property claims
    assert!(shapes.iter().all(|&n| n > 100), "{shapes:?}");
}
