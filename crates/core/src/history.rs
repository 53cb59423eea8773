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

use xarch_xml::escape::{escape_attr, escape_text_into};

use crate::archive::{AKind, ANodeId, Archive};
use crate::timeset::TimeSet;

/// One step of a history query: a tag plus the expected key-part values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyQuery {
    /// Element tag, e.g. `emp`.
    pub tag: String,
    /// `(key path, canonical value)` pairs, e.g.
    /// `("fn", "<fn>John</fn>")`. Kept sorted by path.
    pub parts: Vec<(String, String)>,
}

impl KeyQuery {
    /// A step keyed by `{}` (at most one such child), e.g. `sal`.
    pub fn new(tag: &str) -> Self {
        Self {
            tag: tag.to_owned(),
            parts: Vec::new(),
        }
    }

    /// Adds a key part whose value is a text-only element, e.g.
    /// `.with_text("fn", "John")` for the key path `fn` ending at
    /// `<fn>John</fn>`.
    pub fn with_text(mut self, path: &str, text: &str) -> Self {
        let last = path.rsplit('/').next().unwrap_or(path);
        let mut canon = format!("<{last}>");
        escape_text_into(text, &mut canon);
        canon.push_str("</");
        canon.push_str(last);
        canon.push('>');
        self.parts.push((path.to_owned(), canon));
        self.sort();
        self
    }

    /// Adds a key part that is an attribute, e.g. `.with_attr("id", "i1")`.
    pub fn with_attr(mut self, name: &str, value: &str) -> Self {
        self.parts.push((
            name.to_owned(),
            format!("@{}=\"{}\"", name, escape_attr(value)),
        ));
        self.sort();
        self
    }

    /// Adds a key part with an explicit canonical value (for content keys
    /// `{.}` or structured key-path values).
    pub fn with_canon(mut self, path: &str, canon: &str) -> Self {
        self.parts.push((path.to_owned(), canon.to_owned()));
        self.sort();
        self
    }

    fn sort(&mut self) {
        self.parts.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

impl Archive {
    /// The query step addressing archive node `id` — its tag plus key
    /// value — or `None` for text, stamp, and unkeyed fallback nodes,
    /// which no key path can address.
    pub fn step_of(&self, id: ANodeId) -> Option<KeyQuery> {
        let n = self.node(id);
        let AKind::Element(s) = n.kind else {
            return None;
        };
        let k = n.key.as_ref()?;
        Some(KeyQuery {
            tag: self.syms().resolve(s).to_owned(),
            parts: k
                .parts
                .iter()
                .map(|p| (p.path.to_string(), p.canon.clone()))
                .collect(),
        })
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
            .any(|&c| matches!(self.node(c).kind, AKind::Stamp));
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
            if matches!(self.node(c).kind, AKind::Stamp) && self.content_canonical(c) == canon {
                out = out.union(self.node(c).time.as_ref().expect("stamp time"));
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

    /// Compares a node's label against a query step in label order (`≤lab`):
    /// the one comparison both navigators descend by — the scan tests
    /// keyed siblings for `Equal`, the sorted index binary-searches.
    pub fn query_cmp(&self, id: ANodeId, step: &KeyQuery) -> Ordering {
        let n = self.node(id);
        let AKind::Element(s) = n.kind else {
            return Ordering::Less;
        };
        let tag = self.syms().resolve(s);
        tag.cmp(step.tag.as_str()).then_with(|| {
            let empty: &[xarch_keys::KeyPart] = &[];
            let parts = n.key.as_ref().map_or(empty, |k| k.parts.as_slice());
            parts.len().cmp(&step.parts.len()).then_with(|| {
                for (p, (qp, qv)) in parts.iter().zip(step.parts.iter()) {
                    let o = (*p.path).cmp(qp.as_str());
                    if o != Ordering::Equal {
                        return o;
                    }
                    let o = p.canon.as_str().cmp(qv.as_str());
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                Ordering::Equal
            })
        })
    }
}
