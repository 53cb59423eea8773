//! The XML representation of archives (Fig 5) and its inverse.
//!
//! "Another interesting aspect of our approach is that our archive can be
//! easily represented as yet another XML document" (§1). A node whose
//! timestamp differs from its parent's is wrapped in a `<T t="...">`
//! element (assumed to live in a separate namespace); stamp nodes beneath
//! frontier nodes render as `<T>` elements directly. [`from_xml`] parses
//! such a document back into an [`Archive`], re-annotating keys with the
//! walk a merge annotates its versions with — so
//! archives can be stored, exchanged, compressed (with the XMill-style
//! compressor of `xarch-compress`) and queried with ordinary XML tools.

use std::fmt;

use xarch_keys::{annotate, Annotations, KeySpec, NodeClass};
use xarch_xml::writer::{to_compact_string, to_pretty_string};
use xarch_xml::{Builder, Document, NodeId, NodeKind};

use crate::archive::{AKind, ANodeId, Archive, Compaction};
use crate::timeset::TimeSet;

/// The timestamp element tag (`<T t="...">`).
pub const STAMP_TAG: &str = "T";
/// The timestamp attribute name.
pub const STAMP_ATTR: &str = "t";

/// Errors raised while reading an archive from XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlRepError(pub String);

impl fmt::Display for XmlRepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "archive XML error: {}", self.0)
    }
}

impl std::error::Error for XmlRepError {}

impl Archive {
    /// Renders the archive as the Fig-5 XML document:
    /// `<T t="1-4"><root> ... </root></T>`.
    pub fn to_xml(&self) -> Document {
        let mut b = Builder::new(STAMP_TAG);
        let t = self.time(self.root()).expect("root carries a timestamp");
        b.attr(STAMP_ATTR, &t.to_string());
        b.open("root");
        self.emit_attrs(self.root(), &mut b);
        self.emit_xml_children(self.root(), &mut b);
        b.finish()
    }

    /// The archive serialized as line-oriented XML text — the form whose
    /// byte length the paper's `archive` size series reports and whose
    /// compression the `xmill(archive)` series measures.
    pub fn to_xml_pretty(&self) -> String {
        to_pretty_string(&self.to_xml(), 0)
    }

    /// Compact single-line serialization.
    pub fn to_xml_compact(&self) -> String {
        to_compact_string(&self.to_xml())
    }

    /// Size of the archive in bytes (pretty XML form).
    pub fn size_bytes(&self) -> usize {
        self.to_xml_pretty().len()
    }

    /// Sets the attributes of `id` on the element open in `b`.
    fn emit_attrs(&self, id: ANodeId, b: &mut Builder) {
        for (name, value) in self.attrs(id) {
            b.attr(self.syms().resolve(name), value);
        }
    }

    /// Emits the children of `id` into the element open in `b`: each
    /// that carries a timestamp within a `<T>` — a stamp node as the
    /// `<T>` of its children.
    fn emit_xml_children(&self, id: ANodeId, b: &mut Builder) {
        for &c in self.children(id) {
            let time = self.time(c);
            if let Some(t) = time {
                b.open(STAMP_TAG);
                b.attr(STAMP_ATTR, &t.to_string());
            }
            match self.kind(c) {
                AKind::Stamp => self.emit_xml_children(c, b),
                AKind::Element(s) => {
                    b.open(self.syms().resolve(s));
                    self.emit_attrs(c, b);
                    self.emit_xml_children(c, b);
                    b.close();
                }
                AKind::Text(txt) => {
                    b.text(txt);
                }
            }
            if time.is_some() {
                b.close();
            }
        }
    }
}

/// Parses a Fig-5 archive document back into an [`Archive`] governed by
/// `spec` and compacted as `compaction` says — the mode decides what a
/// `<T>` beneath a frontier node is: a stamp alternative under
/// [`Compaction::Alternatives`], the timestamp of the child it wraps under
/// [`Compaction::Weave`]. Classes and keys are what [`annotate`](fn@annotate) gives the
/// archive's content with every `<T>` dissolved, so an imported node
/// stores exactly what a merge would have.
pub fn from_xml(
    doc: &Document,
    spec: &KeySpec,
    compaction: Compaction,
) -> Result<Archive, XmlRepError> {
    let root_did = doc.root();
    if doc.tag_name(root_did) != STAMP_TAG {
        return Err(XmlRepError(format!(
            "expected <{STAMP_TAG}> at top level, found <{}>",
            doc.tag_name(root_did)
        )));
    }
    let t = parse_time(doc, root_did)?;
    let latest = t.max().unwrap_or(0);
    let inner: Vec<NodeId> = doc
        .children(root_did)
        .iter()
        .copied()
        .filter(|&c| matches!(doc.kind(c), NodeKind::Element(_)))
        .collect();
    let [root_el] = inner.as_slice() else {
        return Err(XmlRepError(
            "top-level <T> must hold exactly one element".into(),
        ));
    };
    if doc.tag_name(*root_el) != "root" {
        return Err(XmlRepError(format!(
            "expected <root>, found <{}>",
            doc.tag_name(*root_el)
        )));
    }
    let mut a = Archive::with_compaction(spec.clone(), compaction);
    a.set_latest(latest);
    let root_aid = a.root();
    a.set_time(root_aid, t);
    copy_attrs(doc, *root_el, &mut a, root_aid);
    let mut import = Import {
        doc,
        spec,
        compaction,
        plain: vec![NodeId(0); doc.len()],
    };
    for &c in doc.children(*root_el) {
        import.build(c, &mut a, root_aid, false, None)?;
    }
    a.touched.0.clear(); // an import is no merge
    Ok(a)
}

fn parse_time(doc: &Document, el: NodeId) -> Result<TimeSet, XmlRepError> {
    let raw = doc
        .attr(el, STAMP_ATTR)
        .ok_or_else(|| XmlRepError("<T> without t attribute".into()))?;
    TimeSet::parse(raw).map_err(|e| XmlRepError(e.to_string()))
}

fn copy_attrs(doc: &Document, did: NodeId, a: &mut Archive, aid: ANodeId) {
    for (name, value) in doc.attrs(did) {
        let sym = a.intern(doc.syms().resolve(name));
        a.push_attr(aid, sym, value);
    }
}

/// One import: the Fig-5 document, and per node of it its copy in the
/// *plain* document of the subtree being built — the archive's content
/// with every `<T>` dissolved, which is what gets annotated.
struct Import<'d> {
    doc: &'d Document,
    spec: &'d KeySpec,
    compaction: Compaction,
    plain: Vec<NodeId>,
}

impl Import<'_> {
    /// Translates Fig-5 node `did` into the archive under `parent`. An
    /// element or text takes the class and key its plain copy was
    /// annotated with (`ann`; `None` above the document roots, where each
    /// root is copied out and annotated as it is reached). A `<T>` is a
    /// stamp node where `stamps` says so; otherwise its children are built
    /// in its place and take its timestamp.
    fn build(
        &mut self,
        did: NodeId,
        a: &mut Archive,
        parent: ANodeId,
        stamps: bool,
        ann: Option<&Annotations>,
    ) -> Result<(), XmlRepError> {
        let doc = self.doc;
        match doc.kind(did) {
            NodeKind::Text(txt) => {
                let class = ann.map_or(NodeClass::Text, |ann| ann.class(self.plain[did.index()]));
                a.push_node(parent, AKind::Text(txt), class, None);
            }
            NodeKind::Element(s) if doc.syms().resolve(s) == STAMP_TAG => {
                let t = parse_time(doc, did)?;
                if stamps {
                    let stamp = a.push_node(parent, AKind::Stamp, NodeClass::BeyondFrontier, None);
                    a.set_time(stamp, t);
                    for &c in doc.children(did) {
                        self.build(c, a, stamp, true, ann)?;
                    }
                } else {
                    for &c in doc.children(did) {
                        let before = a.children(parent).len();
                        self.build(c, a, parent, false, ann)?;
                        let built: Vec<ANodeId> = a.children(parent)[before..].to_vec();
                        for nc in built {
                            a.set_time(nc, t.clone());
                        }
                    }
                }
            }
            NodeKind::Element(s) => {
                let fresh;
                let ann = match ann {
                    Some(ann) => ann,
                    None => {
                        let mut plain = Builder::new(doc.syms().resolve(s));
                        self.plain[did.index()] = NodeId(0);
                        self.dissolve(did, &mut plain, NodeId(0));
                        let plain = plain.finish();
                        fresh =
                            annotate(&plain, self.spec).map_err(|e| XmlRepError(e.to_string()))?;
                        &fresh
                    }
                };
                let plain = self.plain[did.index()];
                let class = ann.class(plain);
                let tag = a.intern(doc.syms().resolve(s));
                let aid = a.push_node(parent, AKind::Element(tag), class, ann.key(plain).cloned());
                copy_attrs(doc, did, a, aid);
                let stamps = self.compaction == Compaction::Alternatives
                    && matches!(class, NodeClass::Frontier | NodeClass::BeyondFrontier);
                for &c in doc.children(did) {
                    self.build(c, a, aid, stamps, Some(ann))?;
                }
            }
        }
        Ok(())
    }

    /// Copies the children of Fig-5 node `did` into the element `at`, open
    /// in `plain`, each `<T>` replaced by its children, recording every
    /// copy (empty text, which `plain` does not take, as `at`).
    fn dissolve(&mut self, did: NodeId, plain: &mut Builder, at: NodeId) {
        let doc = self.doc;
        for &c in doc.children(did) {
            match doc.kind(c) {
                NodeKind::Text(txt) => self.plain[c.index()] = plain.text(txt).unwrap_or(at),
                NodeKind::Element(s) if doc.syms().resolve(s) == STAMP_TAG => {
                    self.dissolve(c, plain, at)
                }
                NodeKind::Element(s) => {
                    let copy = plain.open(doc.syms().resolve(s));
                    for (name, value) in doc.attrs(c) {
                        plain.attr(doc.syms().resolve(name), value);
                    }
                    self.plain[c.index()] = copy;
                    self.dissolve(c, plain, copy);
                    plain.close();
                }
            }
        }
    }
}
