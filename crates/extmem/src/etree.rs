//! The in-memory tree fragments the external archiver works with.
//!
//! The external pipeline never materializes a whole document: it streams
//! *spine* nodes (nodes whose subtree exceeds the memory budget) and loads
//! only bounded-size fragments — records, in the datasets' terms — as
//! [`ETree`]s. This mirrors the paper's working assumption that "every
//! root-to-leaf path (including all key values of nodes along the path)
//! can fit in one page"; here the unit is the record subtree.
//!
//! `ETree` carries exactly what Nested Merge needs: the label sort key
//! (tag + key value, §6.2's sort order), the frontier flag, and the
//! timestamp. [`merge_tree`] is the in-memory §6.3 merge applied to a pair
//! of corresponding fragments.

use xarch_core::TimeSet;
use xarch_keys::{Annotations, NodeClass};
use xarch_xml::escape::{escape_attr_into, escape_text_into};
use xarch_xml::{Document, NodeId, NodeKind};

/// Node kinds of an external-archive fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EKind {
    Element {
        tag: String,
        attrs: Vec<(String, String)>,
    },
    Text(String),
    /// A `<T>` alternative beneath a frontier node.
    Stamp,
}

/// One node of a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ETree {
    pub kind: EKind,
    /// Label sort key for keyed elements: `tag \x00 (path \x01 canon \x02)*`.
    pub sort_key: Option<String>,
    pub frontier: bool,
    pub time: Option<TimeSet>,
    pub children: Vec<ETree>,
}

impl ETree {
    /// Builds a fragment from an annotated document subtree.
    pub fn from_doc(doc: &Document, ann: &Annotations, id: NodeId) -> ETree {
        match doc.kind(id) {
            NodeKind::Text(t) => ETree {
                kind: EKind::Text(t.to_owned()),
                sort_key: None,
                frontier: false,
                time: None,
                children: Vec::new(),
            },
            NodeKind::Element(s) => {
                let tag = doc.syms().resolve(s).to_owned();
                let attrs = doc
                    .attrs(id)
                    .map(|(a, v)| (doc.syms().resolve(a).to_owned(), v.to_owned()))
                    .collect();
                let sort_key = ann.key(id).map(|k| {
                    let mut s = tag.clone();
                    s.push('\u{0}');
                    for p in k.parts() {
                        s.push_str(&p.path);
                        s.push('\u{1}');
                        s.push_str(&p.canon);
                        s.push('\u{2}');
                    }
                    s
                });
                ETree {
                    kind: EKind::Element { tag, attrs },
                    sort_key,
                    frontier: ann.class(id) == NodeClass::Frontier,
                    time: None,
                    children: doc
                        .children(id)
                        .iter()
                        .map(|&c| ETree::from_doc(doc, ann, c))
                        .collect(),
                }
            }
        }
    }

    /// Recursively sorts keyed children by sort key (unkeyed children keep
    /// their relative order after the keyed ones). No sorting happens at or
    /// beneath frontier nodes, where order carries meaning.
    pub fn sort(&mut self) {
        if self.frontier || !matches!(self.kind, EKind::Element { .. }) {
            return;
        }
        self.children
            .sort_by(|a, b| match (&a.sort_key, &b.sort_key) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            });
        for c in &mut self.children {
            c.sort();
        }
    }

    /// Canonical form of this subtree (stamps are not canonicalizable).
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.canonical_into(&mut out);
        out
    }

    fn canonical_into(&self, out: &mut String) {
        match &self.kind {
            EKind::Text(t) => escape_text_into(t, out),
            EKind::Stamp => debug_assert!(false, "stamp has no canonical form"),
            EKind::Element { tag, attrs } => {
                out.push('<');
                out.push_str(tag);
                let mut sorted: Vec<&(String, String)> = attrs.iter().collect();
                sorted.sort();
                for (a, v) in sorted {
                    out.push(' ');
                    out.push_str(a);
                    out.push_str("=\"");
                    escape_attr_into(v, out);
                    out.push('"');
                }
                out.push('>');
                for c in &self.children {
                    c.canonical_into(out);
                }
                out.push_str("</");
                out.push_str(tag);
                out.push('>');
            }
        }
    }

    fn content_canonical(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            c.canonical_into(&mut out);
        }
        out
    }
}

/// Merges version fragment `y` into archive fragment `x` (labels equal).
/// `inherited` is the parent's effective timestamp *including* `i`.
pub fn merge_tree(x: &mut ETree, y: &ETree, inherited: &TimeSet, i: u32) {
    let t_cur = match x.time.as_mut() {
        Some(t) => {
            t.insert(i);
            t.clone()
        }
        None => inherited.clone(),
    };
    if y.frontier {
        merge_frontier(x, y, &t_cur, i);
        return;
    }
    // Partition children (they are sorted by sort key on both sides).
    let mut out: Vec<ETree> = Vec::with_capacity(x.children.len().max(y.children.len()));
    let old: Vec<ETree> = std::mem::take(&mut x.children);
    let mut unkeyed_x: Vec<ETree> = Vec::new();
    let mut kx: Vec<ETree> = Vec::new();
    for c in old {
        if c.sort_key.is_some() {
            kx.push(c);
        } else {
            unkeyed_x.push(c);
        }
    }
    let mut ky: Vec<&ETree> = Vec::new();
    let mut unkeyed_y: Vec<&ETree> = Vec::new();
    for c in &y.children {
        if c.sort_key.is_some() {
            ky.push(c);
        } else {
            unkeyed_y.push(c);
        }
    }
    let mut xi = kx.into_iter().peekable();
    let mut yi = ky.into_iter().peekable();
    loop {
        match (xi.peek(), yi.peek()) {
            (Some(xc), Some(yc)) => {
                let ord = xc
                    .sort_key
                    .as_ref()
                    .unwrap()
                    .cmp(yc.sort_key.as_ref().unwrap());
                match ord {
                    std::cmp::Ordering::Equal => {
                        let mut xc = xi.next().unwrap();
                        let yc = yi.next().unwrap();
                        merge_tree(&mut xc, yc, &t_cur, i);
                        out.push(xc);
                    }
                    std::cmp::Ordering::Less => {
                        let mut xc = xi.next().unwrap();
                        terminate(&mut xc, &t_cur, i);
                        out.push(xc);
                    }
                    std::cmp::Ordering::Greater => {
                        let yc = yi.next().unwrap();
                        out.push(insert_new(yc, i));
                    }
                }
            }
            (Some(_), None) => {
                let mut xc = xi.next().unwrap();
                terminate(&mut xc, &t_cur, i);
                out.push(xc);
            }
            (None, Some(_)) => {
                let yc = yi.next().unwrap();
                out.push(insert_new(yc, i));
            }
            (None, None) => break,
        }
    }
    // Unkeyed fallback: value matching on canonical forms.
    let mut remaining: Vec<(String, ETree)> =
        unkeyed_x.into_iter().map(|c| (c.canonical(), c)).collect();
    for yc in unkeyed_y {
        let cy = yc.canonical();
        if let Some(pos) = remaining.iter().position(|(c, _)| *c == cy) {
            let (_, mut xc) = remaining.remove(pos);
            if let Some(t) = xc.time.as_mut() {
                t.insert(i);
            }
            out.push(xc);
        } else {
            out.push(insert_new(yc, i));
        }
    }
    for (_, mut xc) in remaining {
        terminate(&mut xc, &t_cur, i);
        out.push(xc);
    }
    x.children = out;
}

/// Terminates an archive-only fragment at version `i`.
fn terminate(x: &mut ETree, t_cur: &TimeSet, i: u32) {
    if x.time.is_none() {
        let mut t = t_cur.clone();
        t.remove(i);
        x.time = Some(t);
    }
}

/// Copies a version fragment into the archive with timestamp `{i}`.
fn insert_new(y: &ETree, i: u32) -> ETree {
    let mut c = y.clone();
    c.time = Some(TimeSet::from_version(i));
    c
}

fn merge_frontier(x: &mut ETree, y: &ETree, t_cur: &TimeSet, i: u32) {
    let has_stamps = x.children.iter().any(|c| matches!(c.kind, EKind::Stamp));
    let y_content = y.content_canonical();
    if !has_stamps {
        if x.content_canonical() != y_content {
            let old = std::mem::take(&mut x.children);
            let mut t_old = t_cur.clone();
            t_old.remove(i);
            let t1 = ETree {
                kind: EKind::Stamp,
                sort_key: None,
                frontier: false,
                time: Some(t_old),
                children: old,
            };
            let t2 = ETree {
                kind: EKind::Stamp,
                sort_key: None,
                frontier: false,
                time: Some(TimeSet::from_version(i)),
                children: y.children.clone(),
            };
            x.children = vec![t1, t2];
        }
    } else if let Some(sc) = x
        .children
        .iter_mut()
        .find(|c| matches!(c.kind, EKind::Stamp) && c.content_canonical() == y_content)
    {
        sc.time.as_mut().expect("stamp time").insert(i);
    } else {
        x.children.push(ETree {
            kind: EKind::Stamp,
            sort_key: None,
            frontier: false,
            time: Some(TimeSet::from_version(i)),
            children: y.children.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_keys::{annotate, KeySpec};
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    fn tree(src: &str) -> ETree {
        let doc = parse(src).unwrap();
        let ann = annotate(&doc, &spec()).unwrap();
        let mut t = ETree::from_doc(&doc, &ann, doc.root());
        t.sort();
        t
    }

    #[test]
    fn from_doc_captures_keys_and_frontier() {
        let t = tree("<db><rec><id>2</id><val>x</val></rec><rec><id>1</id><val>y</val></rec></db>");
        assert_eq!(t.children.len(), 2);
        // sorted by key: rec{1} before rec{2}
        assert!(
            t.children[0].sort_key.as_ref().unwrap() < t.children[1].sort_key.as_ref().unwrap()
        );
        let rec = &t.children[0];
        let val = rec
            .children
            .iter()
            .find(|c| matches!(&c.kind, EKind::Element{tag,..} if tag=="val"))
            .unwrap();
        assert!(val.frontier);
    }

    #[test]
    fn merge_tree_matches_expectations() {
        let mut a = tree("<db><rec><id>1</id><val>x</val></rec></db>");
        a.time = Some(TimeSet::from_version(1));
        let v2 =
            tree("<db><rec><id>1</id><val>y</val></rec><rec><id>2</id><val>z</val></rec></db>");
        let inherited = TimeSet::from_range(1, 2);
        merge_tree(&mut a, &v2, &inherited, 2);
        assert_eq!(a.time.clone().unwrap().to_string(), "1-2");
        // rec{1} persists, its val split into two stamps
        let rec1 = &a.children[0];
        assert!(rec1.time.is_none(), "rec1 inherits");
        let val = rec1
            .children
            .iter()
            .find(|c| matches!(&c.kind, EKind::Element{tag,..} if tag=="val"))
            .unwrap();
        assert_eq!(val.children.len(), 2);
        assert!(matches!(val.children[0].kind, EKind::Stamp));
        // rec{2} is new with time {2}
        let rec2 = &a.children[1];
        assert_eq!(rec2.time.clone().unwrap().to_string(), "2");
    }

    #[test]
    fn terminate_sets_explicit_time() {
        let mut a = tree("<db><rec><id>1</id><val>x</val></rec></db>");
        a.time = Some(TimeSet::from_version(1));
        let v2 = tree("<db></db>");
        merge_tree(&mut a, &v2, &TimeSet::from_range(1, 2), 2);
        assert_eq!(a.children[0].time.clone().unwrap().to_string(), "1");
    }

    #[test]
    fn canonical_is_stable_under_attr_order() {
        let x = ETree {
            kind: EKind::Element {
                tag: "a".into(),
                attrs: vec![("z".into(), "1".into()), ("b".into(), "2".into())],
            },
            sort_key: None,
            frontier: false,
            time: None,
            children: Vec::new(),
        };
        let y = ETree {
            kind: EKind::Element {
                tag: "a".into(),
                attrs: vec![("b".into(), "2".into()), ("z".into(), "1".into())],
            },
            ..x.clone()
        };
        assert_eq!(x.canonical(), y.canonical());
    }
}
