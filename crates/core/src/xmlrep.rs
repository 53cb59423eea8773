//! The XML representation of archives (Fig 5) and its inverse.
//!
//! "Another interesting aspect of our approach is that our archive can be
//! easily represented as yet another XML document" (§1). A node whose
//! timestamp differs from its parent's is wrapped in a `<T t="...">`
//! element (assumed to live in a separate namespace); stamp nodes beneath
//! frontier nodes render as `<T>` elements directly. [`from_xml`] parses
//! such a document back into an [`Archive`], re-annotating keys — so
//! archives can be stored, exchanged, compressed (with the XMill-style
//! compressor of `xarch-compress`) and queried with ordinary XML tools.

use std::collections::HashMap;
use std::fmt;

use xarch_keys::{KeySpec, NodeClass};
use xarch_xml::writer::{to_compact_string, to_pretty_string};
use xarch_xml::{Document, NodeId, NodeKind};

use crate::archive::{AKind, ANode, ANodeId, Archive};
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
        let mut doc = Document::new(STAMP_TAG);
        let t = self
            .node(self.root())
            .time
            .as_ref()
            .expect("root carries a timestamp");
        let root_did = doc.root();
        doc.set_attr(root_did, STAMP_ATTR, &t.to_string());
        let el = doc.add_element(root_did, "root");
        self.emit_attrs(self.root(), &mut doc, el);
        self.emit_xml_children(self.root(), &mut doc, el);
        doc
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

    fn emit_attrs(&self, id: ANodeId, doc: &mut Document, did: NodeId) {
        let attrs: Vec<(String, String)> = self
            .node(id)
            .attrs
            .iter()
            .map(|(s, v)| (self.syms().resolve(*s).to_owned(), v.clone()))
            .collect();
        for (n, v) in attrs {
            doc.set_attr(did, &n, &v);
        }
    }

    fn emit_xml_children(&self, id: ANodeId, doc: &mut Document, did: NodeId) {
        for &c in self.children(id) {
            let n = self.node(c);
            match &n.kind {
                AKind::Stamp => {
                    let t_el = doc.add_element(did, STAMP_TAG);
                    let t = n.time.as_ref().expect("stamp time");
                    doc.set_attr(t_el, STAMP_ATTR, &t.to_string());
                    self.emit_xml_children(c, doc, t_el);
                }
                AKind::Element(s) => {
                    let tag = self.syms().resolve(*s).to_owned();
                    let parent = match &n.time {
                        Some(t) => {
                            let w = doc.add_element(did, STAMP_TAG);
                            doc.set_attr(w, STAMP_ATTR, &t.to_string());
                            w
                        }
                        None => did,
                    };
                    let el = doc.add_element(parent, &tag);
                    self.emit_attrs(c, doc, el);
                    self.emit_xml_children(c, doc, el);
                }
                AKind::Text(txt) => {
                    let txt = txt.clone();
                    match &n.time {
                        Some(t) => {
                            let w = doc.add_element(did, STAMP_TAG);
                            doc.set_attr(w, STAMP_ATTR, &t.to_string());
                            doc.add_text(w, &txt);
                        }
                        None => {
                            doc.add_text(did, &txt);
                        }
                    }
                }
            }
        }
    }
}

/// Parses a Fig-5 archive document back into an [`Archive`] governed by
/// `spec`. Key values and node classes are re-derived during the walk.
pub fn from_xml(doc: &Document, spec: &KeySpec) -> Result<Archive, XmlRepError> {
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
        .filter(|&c| matches!(doc.node(c).kind, NodeKind::Element(_)))
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
    let mut a = Archive::new(spec.clone());
    a.set_latest(latest);
    let root_aid = a.root();
    a.set_time(root_aid, t);
    // copy attrs of <root> if any
    copy_attrs(doc, *root_el, &mut a, root_aid);

    // Prepare keyed-path lookup for re-annotation.
    let mut keyed: HashMap<Vec<String>, usize> = HashMap::new();
    for (i, k) in spec.keys().iter().enumerate() {
        keyed.insert(k.keyed_path().steps().to_vec(), i);
    }
    let frontier: Vec<Vec<String>> = spec
        .frontier_paths()
        .iter()
        .map(|p| p.steps().to_vec())
        .collect();
    let mut labels: Vec<String> = Vec::new();
    for &c in doc.children(*root_el) {
        build(
            doc,
            c,
            &mut a,
            root_aid,
            spec,
            &keyed,
            &frontier,
            &mut labels,
            false,
        )?;
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
    let attrs: Vec<(String, String)> = doc
        .attrs(did)
        .iter()
        .map(|(s, v)| (doc.syms().resolve(*s).to_owned(), v.clone()))
        .collect();
    for (n, v) in attrs {
        let sym = a.intern(&n);
        a.node_mut(aid).attrs.push((sym, v));
    }
}

/// Recursively translates a document node into the archive, tracking the
/// label path (stamps are transparent) and annotating keys.
#[allow(clippy::too_many_arguments)]
fn build(
    doc: &Document,
    did: NodeId,
    a: &mut Archive,
    parent: ANodeId,
    spec: &KeySpec,
    keyed: &HashMap<Vec<String>, usize>,
    frontier: &[Vec<String>],
    labels: &mut Vec<String>,
    beyond: bool,
) -> Result<(), XmlRepError> {
    match &doc.node(did).kind {
        NodeKind::Text(txt) => {
            a.push_node(
                parent,
                ANode::new(
                    AKind::Text(txt.clone()),
                    if beyond {
                        NodeClass::BeyondFrontier
                    } else {
                        NodeClass::Text
                    },
                ),
            );
            Ok(())
        }
        NodeKind::Element(s) if doc.syms().resolve(*s) == STAMP_TAG => {
            let t = parse_time(doc, did)?;
            // A <T> wrapping a single element above the frontier is an
            // explicit timestamp on that element; a <T> beneath a frontier
            // node is a stamp alternative. We distinguish by `beyond`.
            if beyond {
                let stamp =
                    a.push_node(parent, ANode::new(AKind::Stamp, NodeClass::BeyondFrontier));
                a.set_time(stamp, t);
                for &c in doc.children(did) {
                    build(doc, c, a, stamp, spec, keyed, frontier, labels, true)?;
                }
                Ok(())
            } else {
                // unwrap: children get the explicit time
                for &c in doc.children(did) {
                    let before = a.children(parent).len();
                    build(doc, c, a, parent, spec, keyed, frontier, labels, false)?;
                    let new_children: Vec<ANodeId> = a.children(parent)[before..].to_vec();
                    for nc in new_children {
                        a.set_time(nc, t.clone());
                    }
                }
                Ok(())
            }
        }
        NodeKind::Element(s) => {
            let tag = doc.syms().resolve(*s).to_owned();
            labels.push(tag.clone());
            let (class, key) = if beyond {
                (NodeClass::BeyondFrontier, None)
            } else if let Some(&ki) = keyed.get(labels.as_slice()) {
                let k = &spec.keys()[ki];
                let kv = extract_key(a_doc(doc), did, &k.key_paths)
                    .map_err(|m| XmlRepError(format!("at /{}: {m}", labels.join("/"))))?;
                let is_frontier = frontier.iter().any(|f| f == labels);
                (
                    if is_frontier {
                        NodeClass::Frontier
                    } else {
                        NodeClass::Keyed
                    },
                    Some(kv),
                )
            } else {
                (NodeClass::Unkeyed, None)
            };
            let sym = a.intern(&tag);
            let aid = a.push_node(
                parent,
                ANode {
                    key,
                    ..ANode::new(AKind::Element(sym), class)
                },
            );
            copy_attrs(doc, did, a, aid);
            let child_beyond = beyond || class == NodeClass::Frontier;
            for &c in doc.children(did) {
                build(doc, c, a, aid, spec, keyed, frontier, labels, child_beyond)?;
            }
            labels.pop();
            Ok(())
        }
    }
}

fn a_doc(doc: &Document) -> &Document {
    doc
}

/// Extracts a key value from a *document* node, resolving key paths through
/// element children (stamps must not occur inside key values — key values
/// are immutable while the element exists).
fn extract_key(
    doc: &Document,
    id: NodeId,
    key_paths: &[xarch_xml::Path],
) -> Result<xarch_keys::KeyValue, String> {
    use xarch_keys::KeyPart;
    use xarch_xml::canon::canonical;
    use xarch_xml::escape::escape_attr;

    let fper = xarch_keys::Fingerprinter::default();
    let mut parts = Vec::with_capacity(key_paths.len());
    for p in key_paths {
        let canon = if p.is_empty() {
            canonical(doc, id)
        } else {
            let mut cur = id;
            let steps = p.steps();
            let mut found_attr: Option<String> = None;
            for (i, step) in steps.iter().enumerate() {
                // Key-path nodes are never <T>-wrapped: key values are
                // constant while their element exists, so they always
                // inherit. Resolve among *direct* element children only.
                let matches: Vec<NodeId> = doc.child_elements(cur, step).collect();
                match matches.len() {
                    1 => cur = matches[0],
                    0 if i == steps.len() - 1 => {
                        if let Some(v) = doc.attr(cur, step) {
                            found_attr = Some(format!("@{}=\"{}\"", step, escape_attr(v)));
                            break;
                        }
                        return Err(format!("key path `{p}`: step `{step}` not found"));
                    }
                    0 => return Err(format!("key path `{p}`: step `{step}` not found")),
                    n => return Err(format!("key path `{p}`: step `{step}` matched {n} nodes")),
                }
            }
            found_attr.unwrap_or_else(|| canonical(doc, cur))
        };
        let fp = fper.fp(&canon);
        parts.push(KeyPart {
            path: p.to_string().into(),
            canon,
            fp,
        });
    }
    parts.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(xarch_keys::KeyValue { parts })
}
