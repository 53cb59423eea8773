//! The **Annotate Keys** module (§4.1).
//!
//! Given a document and a key specification, computes for every keyed node
//! its *key value* — the list of values found at the ends of its key paths —
//! together with a classification of every node relative to the frontier.
//! This is the information Nested Merge needs to pair corresponding nodes
//! between an archive and an incoming version.
//!
//! The paper formulates the algorithm as a single document-order scan with
//! a stack per active key path; we traverse the arena recursively (the call
//! stack plays the role of the paper's main stack `M`) and resolve key paths
//! directly against the tree, which performs the same `O(N·h·(Σmᵢ+q))` work
//! with the "pointer" representation of key-path values the paper's analysis
//! assumes. Values are canonicalized and fingerprinted on extraction.
//!
//! The walk reads the spec in its compiled form (`crate::spec::Compiled`):
//! the keyed paths as a trie. Each call carries its parent's trie state
//! down, so a node is classified by one step along an edge — its tag,
//! compared as a `Sym` — and the state says at once which key governs it
//! and whether it is a frontier node. The label path is spelled out only
//! to report an error. There is one walker; what happens to a key that
//! cannot be extracted is its caller's choice ([`annotate`] stops at the
//! first, `validate` records them all), and either way the pass is
//! complete before anyone acts on its result. A caller may also stop the
//! walk at a keyed node once its key is extracted ([`annotate_holding`]):
//! Nested Merge does so at subtrees the archive already holds, and reads
//! what it needs there from the archive instead.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use xarch_xml::canon::{attribute_into, canonical_into};
use xarch_xml::{Document, NodeId, NodeKind, Sym, MAX_DEPTH};

use crate::fingerprint::{fingerprint, Fingerprinter};
use crate::spec::{Compiled, KeyPath, KeySpec, Rule};

/// A key path's name as key parts carry it: an `Arc<str>`, so every part
/// extracted along a path shares the compiled spec's one copy. Reads as
/// the `str`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathName(Arc<str>);

impl Deref for PathName {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<&str> for PathName {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl From<String> for PathName {
    fn from(name: String) -> Self {
        PathName(name.into())
    }
}

impl From<&str> for PathName {
    fn from(name: &str) -> Self {
        PathName(name.into())
    }
}

/// One component of a key value: the key path, the canonical form of the
/// value found at its end, and the fingerprint of that canonical form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPart {
    /// The key path, e.g. `fn` or `Date/Month` (`.` for the empty path).
    pub path: PathName,
    /// Canonical form of the key-path value (attribute values are encoded
    /// as `@name="value"` so they can never collide with element content).
    pub canon: String,
    /// Fingerprint of `canon`.
    pub fp: u128,
}

impl KeyPart {
    /// The part `path = canon` built outside an annotation pass (a query
    /// step, a decoded message), fingerprinted at full width. Comparisons
    /// verify canonical values whenever fingerprints agree, so a part
    /// fingerprinted here orders and equals the same value annotated under
    /// any [`Fingerprinter`].
    pub fn new(path: PathName, canon: String) -> Self {
        let fp = fingerprint(&canon);
        KeyPart { path, canon, fp }
    }
}

/// A node's key value: its key parts sorted by key-path name (the paper's
/// `≤lab` assumes lexicographically ordered `pᵢ`).
///
/// The parts sit behind one shared `Arc`: annotation builds them once,
/// and the archive node, each query step naming it and each range row
/// listing it hold that one copy — cloning a key value bumps a reference
/// count and copies no string. The unit key `{}` holds nothing at all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeyValue {
    parts: Option<Arc<[KeyPart]>>,
}

impl KeyValue {
    /// The empty key value (for `{}` keys — "at most one such node").
    pub fn unit() -> Self {
        Self { parts: None }
    }

    /// The parts, sorted by key-path name.
    pub fn parts(&self) -> &[KeyPart] {
        self.parts.as_deref().unwrap_or_default()
    }

    /// Compares two key values as `≤lab` does after equal tags: by arity,
    /// then per part by path name, then by value.
    ///
    /// Two holders of one shared key value are equal at once. Otherwise
    /// fingerprints short-circuit the common unequal case; on fingerprint
    /// equality the canonical values are compared — this is the §4.3
    /// collision-verification protocol, so a weak fingerprinter can never
    /// cause two distinct keys to be treated as equal.
    pub fn cmp_parts(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (&self.parts, &other.parts) {
            if Arc::ptr_eq(a, b) {
                return Ordering::Equal;
            }
        }
        let (ours, theirs) = (self.parts(), other.parts());
        ours.len().cmp(&theirs.len()).then_with(|| {
            for (a, b) in ours.iter().zip(theirs) {
                let o = a.path.cmp(&b.path);
                if o != Ordering::Equal {
                    return o;
                }
                if a.fp != b.fp || a.canon != b.canon {
                    let o = a.canon.cmp(&b.canon);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
            }
            Ordering::Equal
        })
    }
}

/// The key value of the parts, in the order given — sorted by path
/// wherever it is built from a key, as annotation builds it. One
/// allocation when the iterator knows its length; none for no parts.
impl FromIterator<KeyPart> for KeyValue {
    fn from_iter<I: IntoIterator<Item = KeyPart>>(parts: I) -> Self {
        let parts = parts.into_iter();
        if parts.size_hint().1 == Some(0) {
            return Self::unit();
        }
        let parts: Arc<[KeyPart]> = parts.collect();
        Self {
            parts: (!parts.is_empty()).then_some(parts),
        }
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.parts().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", &*p.path, p.canon)?;
        }
        write!(f, "}}")
    }
}

/// Classification of a node relative to the key structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// Keyed, and some keyed path extends below it.
    Keyed,
    /// Keyed and deepest — a frontier node (§3).
    Frontier,
    /// Below a frontier node (matched by value, not by key).
    BeyondFrontier,
    /// An element above the frontier not covered by any key (the archiver
    /// falls back to value-based matching for these, per §3's discussion).
    Unkeyed,
    /// A text node above the frontier.
    Text,
}

/// An error raised while extracting key values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyError {
    /// Slash-joined label path of the offending node.
    pub at: String,
    pub message: String,
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key error at /{}: {}", self.at, self.message)
    }
}

impl std::error::Error for KeyError {}

/// Per-node key annotations for one document.
#[derive(Debug, Clone)]
pub struct Annotations {
    /// `None`: the walk never reached the node — it lies beneath a node
    /// [`annotate_holding`]'s caller held, or beneath an element nested
    /// past [`MAX_DEPTH`].
    classes: Vec<Option<NodeClass>>,
    keys: Vec<Option<KeyValue>>,
    extracted: usize,
}

impl Annotations {
    /// The classification of `id`.
    ///
    /// # Panics
    /// Panics if the walk left `id` unannotated (see [`Annotations::annotated`]).
    pub fn class(&self, id: NodeId) -> NodeClass {
        self.annotated(id)
            .expect("the node lies beneath a held node and was never annotated")
    }

    /// The classification of `id`, or `None` where the walk did not reach
    /// it: beneath a node held by [`annotate_holding`]'s caller.
    pub fn annotated(&self, id: NodeId) -> Option<NodeClass> {
        self.classes[id.index()]
    }

    /// The key value of `id` (None unless keyed/frontier).
    pub fn key(&self, id: NodeId) -> Option<&KeyValue> {
        self.keys[id.index()].as_ref()
    }

    /// True if `id` is keyed (including frontier nodes).
    pub fn is_keyed(&self, id: NodeId) -> bool {
        matches!(self.class(id), NodeClass::Keyed | NodeClass::Frontier)
    }

    /// True if `id` is a frontier node.
    pub fn is_frontier(&self, id: NodeId) -> bool {
        self.class(id) == NodeClass::Frontier
    }

    /// Number of keyed nodes whose key was extracted.
    pub fn keyed_count(&self) -> usize {
        self.extracted
    }
}

/// Runs Annotate Keys over `doc` with the default (128-bit) fingerprinter.
pub fn annotate(doc: &Document, spec: &KeySpec) -> Result<Annotations, KeyError> {
    annotate_with(doc, spec, Fingerprinter::default())
}

/// Runs Annotate Keys with an explicit fingerprinter (tests use narrow
/// widths to force collisions). The first key-extraction failure aborts
/// the walk.
pub fn annotate_with(
    doc: &Document,
    spec: &KeySpec,
    fper: Fingerprinter,
) -> Result<Annotations, KeyError> {
    Walk::new(doc, spec, fper).run(&mut Err)
}

/// Runs Annotate Keys over `doc` as [`annotate`] does, asking `hold` at
/// every keyed node, once its key is extracted and before its children
/// are walked, whether to stop there. A node `hold` answers `true` for
/// keeps its class and key, and its descendants are left unannotated
/// ([`Annotations::annotated`] answers `None` for them). The walk is in
/// document order, so `hold` has been asked about a node's keyed
/// ancestors before it is asked about the node.
pub fn annotate_holding(
    doc: &Document,
    spec: &KeySpec,
    hold: Hold<'_>,
) -> Result<Annotations, KeyError> {
    let mut walk = Walk::new(doc, spec, Fingerprinter::default());
    walk.hold = Some(hold);
    walk.run(&mut Err)
}

/// Lenient annotation used by [`crate::validate`]: key-extraction failures
/// are recorded as violations instead of aborting, and the offending node is
/// left key-less (it will also not participate in sibling-uniqueness checks).
pub(crate) fn annotate_lenient(
    doc: &Document,
    spec: &KeySpec,
    violations: &mut Vec<crate::validate::Violation>,
) -> Annotations {
    use crate::validate::{Violation, ViolationKind};
    let recorded = Walk::new(doc, spec, Fingerprinter::default()).run(&mut |e: KeyError| {
        let kind = if e.message.contains("not unique") {
            ViolationKind::DuplicateKeyPath
        } else {
            ViolationKind::MissingKeyPath
        };
        violations.push(Violation {
            kind,
            at: e.at,
            detail: e.message,
        });
        Ok(())
    });
    match recorded {
        Ok(ann) => ann,
        Err(_) => unreachable!("the lenient sink records every error and continues"),
    }
}

/// [`annotate_holding`]'s question at a keyed node: hold it?
type Hold<'h> = &'h mut dyn FnMut(NodeId, &KeyValue) -> bool;

/// What a walk does with a key-extraction failure: `Err` ends the walk
/// with it, `Ok` leaves the node key-less and carries on.
type Sink<'s> = &'s mut dyn FnMut(KeyError) -> Result<(), KeyError>;

/// One annotate pass: the document, the compiled spec with its names
/// resolved against the document's symbol table, and the annotations so
/// far.
struct Walk<'a> {
    doc: &'a Document,
    spec: &'a Compiled,
    /// `spec.names` in `doc`'s symbol table (`None`: the document never
    /// uses the name, so no node or attribute can match it).
    syms: Vec<Option<Sym>>,
    fper: Fingerprinter,
    ann: Annotations,
    /// Where canonical forms are built, so each key part is then one
    /// allocation of exactly its length — a batch holds the annotations of
    /// all its documents at once, and slack in every part adds up.
    scratch: String,
    /// Where one key's canonical values wait until every path resolved, so
    /// the key value is then built in one allocation.
    canons: Vec<String>,
    /// [`annotate_holding`]'s question; `None` walks everything.
    hold: Option<Hold<'a>>,
}

impl<'a> Walk<'a> {
    fn new(doc: &'a Document, spec: &'a KeySpec, fper: Fingerprinter) -> Self {
        let spec = spec.compiled();
        Walk {
            doc,
            spec,
            syms: spec.names.iter().map(|n| doc.syms().get(n)).collect(),
            fper,
            ann: Annotations {
                classes: vec![None; doc.len()],
                keys: vec![None; doc.len()],
                extracted: 0,
            },
            scratch: String::new(),
            canons: Vec::new(),
            hold: None,
        }
    }

    fn run(mut self, sink: Sink<'_>) -> Result<Annotations, KeyError> {
        self.node(self.doc.root(), Some(Compiled::ROOT), false, 1, sink)?;
        Ok(self.ann)
    }

    /// A key error at `id`, named by its label path.
    fn error(&self, id: NodeId, message: String) -> KeyError {
        KeyError {
            at: self.doc.label_path(id).join("/"),
            message,
        }
    }

    /// One step down the tree, from a node with trie state `above` (and
    /// `beyond` a frontier node or not) to a child whose tag `is_name`
    /// accepts: the child's state, and whether *its* children lie beyond
    /// the frontier.
    fn step(
        &self,
        above: Option<usize>,
        beyond: bool,
        is_name: impl Fn(usize) -> bool,
    ) -> (Option<usize>, bool) {
        let state = match above {
            Some(s) if !beyond => self.spec.step(s, is_name),
            _ => None,
        };
        let frontier = (state.and_then(|s| self.spec.rule(s))).is_some_and(|rule| rule.frontier);
        (state, beyond || frontier)
    }

    /// Classifies `id` and its subtree. `above` is the parent's trie state
    /// (`None` once the label path has left every keyed path); `beyond`
    /// says a frontier node lies above; `depth` is `id`'s, the root's 1. An
    /// element deeper than [`MAX_DEPTH`] is an error, and not descended:
    /// no archive holds a tree its readers would refuse.
    fn node(
        &mut self,
        id: NodeId,
        above: Option<usize>,
        beyond: bool,
        depth: usize,
        sink: Sink<'_>,
    ) -> Result<(), KeyError> {
        let doc = self.doc;
        let tag = match doc.kind(id) {
            NodeKind::Text(_) => {
                self.ann.classes[id.index()] = Some(if beyond {
                    NodeClass::BeyondFrontier
                } else {
                    NodeClass::Text
                });
                return Ok(());
            }
            NodeKind::Element(s) => s,
        };
        if depth > MAX_DEPTH {
            let message = format!("elements nest deeper than {MAX_DEPTH}");
            return sink(self.error(id, message));
        }
        let (state, child_beyond) = self.step(above, beyond, |name| self.syms[name] == Some(tag));
        self.ann.classes[id.index()] = Some(if beyond {
            NodeClass::BeyondFrontier
        } else if let Some(rule) = state.and_then(|s| self.spec.rule(s)) {
            match self.key_value(id, rule) {
                Ok(kv) => {
                    self.ann.keys[id.index()] = Some(kv);
                    self.ann.extracted += 1;
                }
                Err(message) => sink(self.error(id, message))?,
            }
            if rule.frontier {
                NodeClass::Frontier
            } else {
                NodeClass::Keyed
            }
        } else {
            NodeClass::Unkeyed
        });
        if let (Some(hold), Some(key)) = (&mut self.hold, &self.ann.keys[id.index()]) {
            if hold(id, key) {
                return Ok(());
            }
        }
        for &c in doc.children(id) {
            self.node(c, state, child_beyond, depth + 1, sink)?;
        }
        Ok(())
    }

    /// The key value of keyed node `id`: every key path resolved to a
    /// unique node (or attribute) and its value canonicalized. Fails with
    /// the message of the first key path, as declared, that does not
    /// resolve.
    fn key_value(&mut self, id: NodeId, rule: &Rule) -> Result<KeyValue, String> {
        let mut canons = std::mem::take(&mut self.canons);
        let mut failed: Option<(usize, String)> = None;
        for kp in &rule.key_paths {
            match self.resolve(id, kp) {
                Ok(canon) => canons.push(canon),
                Err(message) => {
                    if failed.as_ref().is_none_or(|f| kp.declared < f.0) {
                        failed = Some((kp.declared, message));
                    }
                }
            }
        }
        let key = match failed {
            None => Ok((rule.key_paths.iter().zip(canons.drain(..)))
                .map(|(kp, canon)| self.part(kp, canon))
                .collect()),
            Some((_, message)) => Err(message),
        };
        canons.clear();
        self.canons = canons;
        key
    }

    /// The part of key path `kp` whose value resolved to `canon`.
    fn part(&self, kp: &KeyPath, canon: String) -> KeyPart {
        KeyPart {
            path: kp.name.clone(),
            fp: self.fper.fp(&canon),
            canon,
        }
    }

    /// Resolves one key path from `id` to the canonical value at its end.
    fn resolve(&mut self, id: NodeId, kp: &KeyPath) -> Result<String, String> {
        let doc = self.doc;
        // `{.}`: an empty path identifies the node by its own value
        let mut cur = id;
        for (i, &step) in kp.steps.iter().enumerate() {
            let want = self.syms[step];
            let mut hits = doc
                .children(cur)
                .iter()
                .filter(|&&c| matches!(doc.kind(c), NodeKind::Element(s) if Some(s) == want));
            match (hits.next(), hits.count()) {
                (Some(&c), 0) => cur = c,
                (None, _) => {
                    // The final step may name an attribute (paths consist of
                    // "node and attribute names", Appendix A.2).
                    let attr = (i == kp.steps.len() - 1)
                        .then(|| doc.attrs(cur).find(|a| Some(a.0) == want))
                        .flatten();
                    let step = &self.spec.names[step];
                    let Some((_, v)) = attr else {
                        return Err(format!("key path `{}`: step `{step}` not found", &*kp.name));
                    };
                    self.scratch.clear();
                    attribute_into(step, v, &mut self.scratch);
                    return Ok(self.scratch.clone());
                }
                (Some(_), more) => {
                    return Err(format!(
                        "key path `{}`: step `{}` is not unique ({} matches)",
                        &*kp.name,
                        self.spec.names[step],
                        more + 1
                    ))
                }
            }
        }
        self.scratch.clear();
        canonical_into(doc, cur, &mut self.scratch);
        Ok(self.scratch.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_xml::parse;

    fn company_spec() -> KeySpec {
        KeySpec::parse(
            "(/, (db, {}))\n\
             (/db, (dept, {name}))\n\
             (/db/dept, (emp, {fn, ln}))\n\
             (/db/dept/emp, (sal, {}))\n\
             (/db/dept/emp, (tel, {.}))",
        )
        .unwrap()
    }

    /// Version 4 of the paper's Figure 2.
    fn version4() -> Document {
        parse(
            "<db><dept><name>finance</name>\
               <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp>\
               <emp><fn>Jane</fn><ln>Smith</ln><sal>95K</sal><tel>123-6789</tel><tel>112-3456</tel></emp>\
             </dept></db>",
        )
        .unwrap()
    }

    #[test]
    fn annotates_figure_3() {
        let doc = version4();
        let spec = company_spec();
        let ann = annotate(&doc, &spec).unwrap();
        let dept = doc.first_child_element(doc.root(), "dept").unwrap();
        let kv = ann.key(dept).unwrap();
        assert_eq!(kv.parts().len(), 1);
        assert_eq!(kv.parts()[0].path, "name");
        assert_eq!(kv.parts()[0].canon, "<name>finance</name>");

        let emps: Vec<NodeId> = doc.child_elements(dept, "emp").collect();
        let john = ann.key(emps[0]).unwrap();
        assert_eq!(john.to_string(), "{fn=<fn>John</fn>, ln=<ln>Doe</ln>}");
        let jane = ann.key(emps[1]).unwrap();
        assert_ne!(john.cmp_parts(jane), Ordering::Equal);
    }

    #[test]
    fn classes_match_paper() {
        let doc = version4();
        let ann = annotate(&doc, &company_spec()).unwrap();
        let dept = doc.first_child_element(doc.root(), "dept").unwrap();
        let emp = doc.first_child_element(dept, "emp").unwrap();
        let sal = doc.first_child_element(emp, "sal").unwrap();
        let tel = doc.first_child_element(emp, "tel").unwrap();
        let fnn = doc.first_child_element(emp, "fn").unwrap();
        assert_eq!(ann.class(doc.root()), NodeClass::Keyed);
        assert_eq!(ann.class(dept), NodeClass::Keyed);
        assert_eq!(ann.class(emp), NodeClass::Keyed);
        assert_eq!(ann.class(sal), NodeClass::Frontier);
        assert_eq!(ann.class(tel), NodeClass::Frontier);
        // fn is a key-path node: the implied key (/db/dept/emp, (fn, {}))
        // makes it a frontier node, exactly as §3 lists /db/dept/emp/fn
        // among the frontier paths.
        assert_eq!(ann.class(fnn), NodeClass::Frontier);
        // text under sal is beyond the frontier
        let sal_text = doc.children(sal)[0];
        assert_eq!(ann.class(sal_text), NodeClass::BeyondFrontier);
    }

    /// A held node keeps its class and key; nothing beneath it is
    /// annotated or asked about, and every other node reads as `annotate`
    /// has it. A walk that holds nothing is `annotate`'s.
    #[test]
    fn a_held_node_keeps_its_annotation_and_leaves_its_subtree_unannotated() {
        let doc = version4();
        let spec = company_spec();
        let whole = annotate(&doc, &spec).unwrap();
        let dept = doc.first_child_element(doc.root(), "dept").unwrap();
        let john = doc.first_child_element(dept, "emp").unwrap();
        let beneath: Vec<NodeId> = doc.preorder(john).skip(1).collect();
        let mut asked = Vec::new();
        let held = annotate_holding(&doc, &spec, &mut |id, key| {
            assert_eq!(Some(key), whole.key(id));
            asked.push(id);
            id == john
        })
        .unwrap();
        let keyed_outside = |id: &NodeId| whole.key(*id).is_some() && !beneath.contains(id);
        let want: Vec<NodeId> = doc.preorder(doc.root()).filter(keyed_outside).collect();
        assert_eq!(
            asked, want,
            "every keyed node outside the held subtree, in order"
        );
        for id in doc.preorder(doc.root()) {
            if beneath.contains(&id) {
                assert_eq!((held.annotated(id), held.key(id)), (None, None));
            } else {
                assert_eq!(held.annotated(id), Some(whole.class(id)));
                assert_eq!(held.key(id), whole.key(id));
            }
        }
        // fn, ln, sal and tel beneath John were never extracted
        assert_eq!(held.keyed_count(), whole.keyed_count() - 4);

        let all = annotate_holding(&doc, &spec, &mut |_, _| false).unwrap();
        for id in doc.preorder(doc.root()) {
            assert_eq!(all.class(id), whole.class(id));
            assert_eq!(all.key(id), whole.key(id));
        }
        assert_eq!(all.keyed_count(), whole.keyed_count());
    }

    #[test]
    #[should_panic(expected = "never annotated")]
    fn an_unannotated_node_has_no_class_to_read() {
        let doc = version4();
        let held = annotate_holding(&doc, &company_spec(), &mut |_, _| true).unwrap();
        let db_child = doc.children(doc.root())[0];
        held.class(db_child);
    }

    #[test]
    fn tel_keyed_by_own_content() {
        let doc = version4();
        let ann = annotate(&doc, &company_spec()).unwrap();
        let dept = doc.first_child_element(doc.root(), "dept").unwrap();
        let jane = doc.child_elements(dept, "emp").nth(1).unwrap();
        let tels: Vec<NodeId> = doc.child_elements(jane, "tel").collect();
        let k1 = ann.key(tels[0]).unwrap();
        let k2 = ann.key(tels[1]).unwrap();
        assert_ne!(k1.cmp_parts(k2), Ordering::Equal);
        assert!(k1.parts()[0].canon.contains("123-6789"));
    }

    #[test]
    fn sal_has_unit_key() {
        let doc = version4();
        let ann = annotate(&doc, &company_spec()).unwrap();
        let dept = doc.first_child_element(doc.root(), "dept").unwrap();
        let emp = doc.first_child_element(dept, "emp").unwrap();
        let sal = doc.first_child_element(emp, "sal").unwrap();
        assert_eq!(ann.key(sal).unwrap(), &KeyValue::unit());
    }

    #[test]
    fn attribute_key_paths() {
        let spec = KeySpec::parse("(/, (site, {}))\n(/site, (item, {id}))").unwrap();
        let doc = parse(r#"<site><item id="i1"/><item id="i2"/></site>"#).unwrap();
        let ann = annotate(&doc, &spec).unwrap();
        let items: Vec<NodeId> = doc.child_elements(doc.root(), "item").collect();
        let k1 = ann.key(items[0]).unwrap();
        assert_eq!(k1.parts()[0].canon, "@id=\"i1\"");
        assert_ne!(k1.cmp_parts(ann.key(items[1]).unwrap()), Ordering::Equal);
    }

    #[test]
    fn missing_key_path_is_error() {
        let spec = company_spec();
        let doc = parse("<db><dept><emp><fn>J</fn><ln>D</ln></emp></dept></db>").unwrap();
        let e = annotate(&doc, &spec).unwrap_err();
        assert!(e.message.contains("name"));
        assert_eq!(e.at, "db/dept");
    }

    #[test]
    fn duplicate_key_path_is_error() {
        let spec = company_spec();
        let doc = parse("<db><dept><name>a</name><name>b</name></dept></db>").unwrap();
        let e = annotate(&doc, &spec).unwrap_err();
        assert!(e.message.contains("not unique"));
    }

    #[test]
    fn the_first_declared_failing_key_path_is_the_one_reported() {
        // parts are extracted in sorted order (`a` before `z`); the error
        // still names the path the key lists first
        let spec = KeySpec::parse("(/, (db, {}))\n(/db, (emp, {z, a}))").unwrap();
        let doc = parse("<db><emp/></db>").unwrap();
        let e = annotate(&doc, &spec).unwrap_err();
        assert_eq!(e.at, "db/emp");
        assert!(e.message.contains("key path `z`"), "{e}");
    }

    #[test]
    fn a_multi_step_target_keys_its_end_not_its_middle() {
        let spec = KeySpec::parse("(/, (db, {}))\n(/db, (list/emp, {id}))").unwrap();
        let doc = parse("<db><list><emp><id>1</id></emp><other/></list><emp/></db>").unwrap();
        let ann = annotate(&doc, &spec).unwrap();
        let list = doc.first_child_element(doc.root(), "list").unwrap();
        let emp = doc.first_child_element(list, "emp").unwrap();
        assert_eq!(ann.class(list), NodeClass::Unkeyed);
        assert_eq!(ann.class(emp), NodeClass::Keyed);
        assert_eq!(ann.class(doc.children(list)[1]), NodeClass::Unkeyed);
        // the same tag off the keyed path is not keyed, nor asked for `id`
        assert_eq!(ann.class(doc.children(doc.root())[1]), NodeClass::Unkeyed);
    }

    #[test]
    fn multi_step_key_paths() {
        let spec = KeySpec::parse(
            "(/, (ROOT, {}))\n(/ROOT, (Contributors, {Name, Date/Month, Date/Year}))",
        )
        .unwrap();
        let doc = parse(
            "<ROOT><Contributors><Name>Paul</Name>\
             <Date><Month>11</Month><Year>2000</Year></Date></Contributors></ROOT>",
        )
        .unwrap();
        let ann = annotate(&doc, &spec).unwrap();
        let c = doc.first_child_element(doc.root(), "Contributors").unwrap();
        let kv = ann.key(c).unwrap();
        assert_eq!(kv.parts().len(), 3);
        // parts sorted by path name
        assert_eq!(kv.parts()[0].path, "Date/Month");
        assert_eq!(kv.parts()[1].path, "Date/Year");
        assert_eq!(kv.parts()[2].path, "Name");
    }

    #[test]
    fn key_value_ordering_is_total_and_consistent() {
        let doc = version4();
        let ann = annotate(&doc, &company_spec()).unwrap();
        let dept = doc.first_child_element(doc.root(), "dept").unwrap();
        let emps: Vec<NodeId> = doc.child_elements(dept, "emp").collect();
        let a = ann.key(emps[0]).unwrap();
        let b = ann.key(emps[1]).unwrap();
        assert_eq!(a.cmp_parts(b), b.cmp_parts(a).reverse());
        assert_eq!(a.cmp_parts(a), Ordering::Equal);
    }

    #[test]
    fn weak_fingerprints_never_merge_distinct_keys() {
        // With a 1-bit fingerprinter nearly all fingerprints collide; the
        // verification step must still distinguish distinct key values.
        let doc = version4();
        let spec = company_spec();
        let ann = annotate_with(&doc, &spec, Fingerprinter::with_bits(1)).unwrap();
        let dept = doc.first_child_element(doc.root(), "dept").unwrap();
        let emps: Vec<NodeId> = doc.child_elements(dept, "emp").collect();
        let a = ann.key(emps[0]).unwrap();
        let b = ann.key(emps[1]).unwrap();
        assert_ne!(a.cmp_parts(b), Ordering::Equal);
    }

    #[test]
    fn keyed_count_counts_all_keyed_nodes() {
        let doc = version4();
        let ann = annotate(&doc, &company_spec()).unwrap();
        // db, dept, name, 2×emp, 2×fn, 2×ln, 2×sal, 3×tel = 14
        assert_eq!(ann.keyed_count(), 14);
    }

    /// A document built deeper than the parser admits is refused at its
    /// first element past `MAX_DEPTH`, and not descended.
    #[test]
    fn a_document_nested_past_max_depth_is_refused() {
        let spec = KeySpec::parse("(/, (db, {}))").unwrap();
        let nested = |depth: usize| {
            let mut doc = Document::new("db");
            let mut at = doc.root();
            for _ in 1..depth {
                at = doc.add_element(at, "a");
            }
            doc
        };
        assert!(annotate(&nested(MAX_DEPTH), &spec).is_ok());
        for e in [
            annotate(&nested(MAX_DEPTH + 1), &spec).unwrap_err(),
            annotate(&nested(50_000), &spec).unwrap_err(),
        ] {
            assert_eq!(e.message, format!("elements nest deeper than {MAX_DEPTH}"));
            assert_eq!(e.at.split('/').count(), MAX_DEPTH + 1, "{}", e.at);
        }
        let mut violations = Vec::new();
        annotate_lenient(&nested(50_000), &spec, &mut violations);
        assert_eq!(violations.len(), 1);
    }
}
