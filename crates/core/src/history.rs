//! Temporal history of keyed elements (§7.2).
//!
//! "Given the key of an element, one might like to retrieve the temporal
//! history of this element, i.e., the times at which this element exists.
//! For example, the history of employee Joe given by the path
//! `/db/dept[name=finance]/emp[fn=John, ln=Doe]` is `3,4`."
//!
//! A query is a sequence of [`KeyQuery`] steps, one per keyed level,
//! resolved by the query kernel ([`crate::kernel`]): the plain archive
//! walks level by level; `xarch-index` provides the sorted-list index that
//! answers the same query in `O(l log d)`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use xarch_keys::{KeyPart, KeyValue};
use xarch_xml::canon::attribute_into;
use xarch_xml::escape::escape_text_into;

use crate::archive::{AKind, ANodeId, Archive};
use crate::timeset::TimeSet;

/// A label — tag name plus key value, the paper's `l{p1=v1, ..., pk=vk}`
/// — read where it is stored: an archive node ([`Archive::label`]), a
/// version being merged, or a query step ([`KeyQuery::label`]).
pub type Label<'a> = (&'a str, &'a KeyValue);

/// The label order `≤lab` of §4.2: tag, then key arity, then key paths,
/// then key values ([`KeyValue::cmp_parts`]). The one comparison the merge
/// pairs children by, both navigators descend by and range rows are
/// sorted by, so range results compare byte for byte across backends.
pub fn cmp_labels(p: Label<'_>, q: Label<'_>) -> Ordering {
    p.0.cmp(q.0).then_with(|| p.1.cmp_parts(q.1))
}

/// One step of a history query: a tag plus the key value it names.
///
/// A step holds the archive's own label types: the tag as the symbol
/// table's shared name and the key as a [`KeyValue`], so the step
/// [`Archive::step_of`] gives for a node — and each range row — shares
/// the node's strings instead of copying them. Equality, hashing and
/// order read the tag and the `(path, canonical value)` pairs, never a
/// fingerprint alone: a step built by [`KeyQuery::with_text`] equals the
/// archive's step for the same label under any `Fingerprinter`.
#[derive(Clone)]
pub struct KeyQuery {
    tag: Arc<str>,
    key: KeyValue,
}

impl KeyQuery {
    /// A step keyed by `{}` (at most one such child), e.g. `sal`.
    pub fn new(tag: &str) -> Self {
        Self::labelled(tag.into(), KeyValue::unit())
    }

    /// The step naming the label `tag` + `key` exactly as given — the
    /// parts in the order they come, as a decoded message carries them.
    pub fn labelled(tag: Arc<str>, key: KeyValue) -> Self {
        Self { tag, key }
    }

    /// Adds a key part whose value is a text-only element, e.g.
    /// `.with_text("fn", "John")` for the key path `fn` ending at
    /// `<fn>John</fn>`.
    pub fn with_text(self, path: &str, text: &str) -> Self {
        let last = path.rsplit('/').next().unwrap_or(path);
        let mut canon = format!("<{last}>");
        escape_text_into(text, &mut canon);
        canon.push_str("</");
        canon.push_str(last);
        canon.push('>');
        self.with_part(path, canon)
    }

    /// Adds a key part that is an attribute, e.g. `.with_attr("id", "i1")`.
    pub fn with_attr(self, name: &str, value: &str) -> Self {
        let mut canon = String::new();
        attribute_into(name, value, &mut canon);
        self.with_part(name, canon)
    }

    /// Adds a key part with an explicit canonical value (for content keys
    /// `{.}` or structured key-path values).
    pub fn with_canon(self, path: &str, canon: &str) -> Self {
        self.with_part(path, canon.to_owned())
    }

    /// Adds the part `path = canon`, keeping the parts sorted by path.
    fn with_part(mut self, path: &str, canon: String) -> Self {
        let mut parts = self.key.parts().to_vec();
        parts.push(KeyPart::new(path.into(), canon));
        parts.sort_by(|a, b| a.path.cmp(&b.path));
        self.key = parts.into_iter().collect();
        self
    }

    /// The element tag, e.g. `emp`.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The key value the step names.
    pub fn key(&self) -> &KeyValue {
        &self.key
    }

    /// The `(key path, canonical value)` pairs, sorted by path, e.g.
    /// `("fn", "<fn>John</fn>")`.
    pub fn parts(&self) -> impl ExactSizeIterator<Item = (&str, &str)> {
        (self.key.parts().iter()).map(|p| (&*p.path, p.canon.as_str()))
    }

    /// The label the step names, for [`cmp_labels`].
    pub fn label(&self) -> Label<'_> {
        (&self.tag, &self.key)
    }
}

impl PartialEq for KeyQuery {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for KeyQuery {}

impl PartialOrd for KeyQuery {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The label order `≤lab` ([`cmp_labels`]).
impl Ord for KeyQuery {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_labels(self.label(), other.label())
    }
}

impl Hash for KeyQuery {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tag.hash(state);
        state.write_usize(self.key.parts().len());
        for pair in self.parts() {
            pair.hash(state);
        }
    }
}

impl fmt::Debug for KeyQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<(&str, &str)> = self.parts().collect();
        f.debug_struct("KeyQuery")
            .field("tag", &self.tag())
            .field("parts", &parts)
            .finish()
    }
}

impl Archive {
    /// The label of archive node `id`, when it is a keyed element.
    pub fn label(&self, id: ANodeId) -> Option<Label<'_>> {
        match (self.kind(id), self.key(id)) {
            (AKind::Element(s), Some(k)) => Some((self.syms().resolve(s), k)),
            _ => None,
        }
    }

    /// The query step addressing archive node `id` — its tag plus key
    /// value, shared with the node rather than copied — or `None` for
    /// text, stamp, and unkeyed fallback nodes, which no key path can
    /// address.
    pub fn step_of(&self, id: ANodeId) -> Option<KeyQuery> {
        match (self.kind(id), self.key(id)) {
            (AKind::Element(s), Some(k)) => Some(KeyQuery::labelled(
                Arc::clone(self.syms().shared(s)),
                k.clone(),
            )),
            _ => None,
        }
    }

    /// The history of a *frontier value*: the versions at which the element
    /// addressed by `steps` had content value-equal to `canon` (canonical
    /// form). Answers questions like "when did John's salary read 90K?".
    pub fn value_history(&self, steps: &[KeyQuery], canon: &str) -> Option<TimeSet> {
        let id = self.find(steps)?;
        let eff = self.effective_time(id);
        let children = self.children(id);
        let has_stamps = children
            .iter()
            .any(|&c| matches!(self.kind(c), AKind::Stamp));
        if !has_stamps {
            // single alternative for the node's whole lifetime
            let content = self.content_canonical(id);
            return if content == canon {
                Some(eff)
            } else {
                Some(TimeSet::new())
            };
        }
        let mut out = TimeSet::new();
        for &c in children {
            if matches!(self.kind(c), AKind::Stamp) && self.content_canonical(c) == canon {
                out = out.union(&self.time(c).expect("stamp time").to_set());
            }
        }
        Some(out)
    }

    /// Canonical form of the (plain) content of a node.
    fn content_canonical(&self, id: ANodeId) -> String {
        let mut out = String::new();
        for &c in self.children(id) {
            out.push_str(&crate::merge::canonical_anode(self, c));
        }
        out
    }

    /// Compares a node's label against a query step in label order
    /// ([`cmp_labels`]): the one comparison both navigators descend by —
    /// the scan tests keyed siblings for `Equal`, the sorted index
    /// binary-searches. A node no key path addresses sorts first.
    pub fn query_cmp(&self, id: ANodeId, step: &KeyQuery) -> Ordering {
        self.label(id)
            .map_or(Ordering::Less, |l| cmp_labels(l, step.label()))
    }
}
