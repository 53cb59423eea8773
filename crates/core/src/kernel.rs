//! The query kernel (§7): descend the keyed tree by key path, then emit
//! the children visible at `v`.
//!
//! Every query over the archive arena is that one idea. The plain archive
//! and the §7-indexed one differ only in *how one key step finds its
//! child* (sibling scan vs binary search over the history index) and *how
//! the children visible at `v` are enumerated* (timestamp filter vs
//! timestamp tree) — the [`Nav`] a caller passes in, statically
//! dispatched. The query kinds themselves are written once, here, as
//! functions over `(&Archive, &impl Nav)`; [`Archive`]'s own methods call
//! them with [`Scan`], `xarch_index::Indexes` with the §7 indexes.
//!
//! The two questions about *change* — [`history_values`] and [`diff`] —
//! are answered from what the archive already stores (§2, §7.2): a node is
//! visible at `v` iff `v` is in its own and every ancestor's timestamp, so
//! an element's content can only change where some timestamp beneath it
//! starts or ends a run. `history_values` cuts the element's lifetime at
//! those change points and emits once per interval of constant content;
//! `diff` emits nothing when no timestamp beneath the element tells the
//! two versions apart. Neither depends on the [`crate::Compaction`] mode.

use std::cmp::Ordering;
use std::ops::RangeInclusive;

use xarch_xml::{Builder, Document};

use crate::archive::{AKind, ANodeId, Archive};
use crate::history::KeyQuery;
use crate::query::{delta, record_value, ElementHistory, RangeEntry, VersionDelta};
use crate::timeset::TimeSet;

/// How a query moves through the arena: one key step down, and across the
/// children alive at a version.
pub trait Nav {
    /// Whether [`Nav::keyed`] lists children in label order (`≤lab`), so
    /// [`range`] need not sort.
    const LABEL_ORDERED: bool;

    /// The child of `parent` that `step` addresses.
    fn child(&self, a: &Archive, parent: ANodeId, step: &KeyQuery) -> Option<ANodeId>;

    /// The children of `parent` visible at version `v` — at which `parent`
    /// itself must exist — in document order.
    fn visible<'a>(
        &'a self,
        a: &'a Archive,
        parent: ANodeId,
        v: u32,
    ) -> impl Iterator<Item = ANodeId> + 'a;

    /// A list holding every keyed child of `parent` (and possibly others).
    fn keyed<'a>(&'a self, a: &'a Archive, parent: ANodeId) -> &'a [ANodeId];
}

/// The index-free navigator: a sibling scan per key step ("the naive
/// lookup walks the archive level by level") and a timestamp test per
/// child (§7.1's "simple scan").
#[derive(Debug, Clone, Copy)]
pub struct Scan;

impl Nav for Scan {
    const LABEL_ORDERED: bool = false;

    fn child(&self, a: &Archive, parent: ANodeId, step: &KeyQuery) -> Option<ANodeId> {
        let addressed = |&c: &ANodeId| a.query_cmp(c, step) == Ordering::Equal;
        a.children(parent).iter().copied().find(addressed)
    }

    fn visible<'a>(
        &'a self,
        a: &'a Archive,
        parent: ANodeId,
        v: u32,
    ) -> impl Iterator<Item = ANodeId> + 'a {
        a.children(parent)
            .iter()
            .copied()
            .filter(move |&c| a.visible(c, v))
    }

    fn keyed<'a>(&'a self, a: &'a Archive, parent: ANodeId) -> &'a [ANodeId] {
        a.children(parent)
    }
}

/// Resolves a key-query path to the archive node it addresses, one
/// [`Nav::child`] per step. The first step addresses the document root
/// (e.g. `db`); the empty path addresses the synthetic root.
pub fn locate(a: &Archive, nav: &impl Nav, steps: &[KeyQuery]) -> Option<ANodeId> {
    steps
        .iter()
        .try_fold(a.root(), |cur, step| nav.child(a, cur, step))
}

/// The document root of version `v`: the element child of the synthetic
/// root visible at `v`. `None` when `v` was never archived *or* the
/// database was empty at `v`.
pub fn doc_root(a: &Archive, nav: &impl Nav, v: u32) -> Option<ANodeId> {
    if !a.has_version(v) {
        return None;
    }
    nav.visible(a, a.root(), v)
        .find(|&c| matches!(a.kind(c), AKind::Element(_)))
}

/// Reconstructs version `v` (§7.1); `None` as for [`doc_root`].
pub fn retrieve(a: &Archive, nav: &impl Nav, v: u32) -> Option<Document> {
    content_at(a, nav, a.root(), v)
}

/// What node `id` held at `v`, a version it exists in: the subtree beneath
/// an element, the whole document (absent from an empty version) beneath
/// the synthetic root — never the synthetic `<root>` wrapper itself.
fn content_at(a: &Archive, nav: &impl Nav, id: ANodeId, v: u32) -> Option<Document> {
    let id = if id == a.root() {
        doc_root(a, nav, v)?
    } else {
        id
    };
    emit(a, nav, id, v)
}

/// The element `id`, visible at `v`, as a standalone document (`None` for
/// a text or stamp node).
fn emit(a: &Archive, nav: &impl Nav, id: ANodeId, v: u32) -> Option<Document> {
    let mut b = Builder::new(a.tag_name(id)?);
    copy_attrs(a, id, &mut b);
    emit_children(a, nav, id, v, &mut b);
    Some(b.finish())
}

/// Sets the attributes of `id` on the element open in `b`.
fn copy_attrs(a: &Archive, id: ANodeId, b: &mut Builder) {
    for (name, value) in a.attrs(id) {
        b.attr(a.syms().resolve(name), value);
    }
}

/// Emits the children of `id` visible at `v` into the element open in `b`.
fn emit_children(a: &Archive, nav: &impl Nav, id: ANodeId, v: u32, b: &mut Builder) {
    for c in nav.visible(a, id, v) {
        match a.kind(c) {
            // transparent: emit the alternative's content in place
            AKind::Stamp => emit_children(a, nav, c, v, b),
            AKind::Element(s) => {
                b.open(a.syms().resolve(s));
                copy_attrs(a, c, b);
                emit_children(a, nav, c, v, b);
                b.close();
            }
            AKind::Text(t) => {
                b.text(t);
            }
        }
    }
}

/// The temporal history of the element addressed by `steps` (§7.2): the
/// set of versions in which it exists, `None` if it was never archived.
pub fn history(a: &Archive, nav: &impl Nav, steps: &[KeyQuery]) -> Option<TimeSet> {
    locate(a, nav, steps).map(|id| a.effective_time(id))
}

/// Partial retrieval (§7.1 applied below the root): the subtree addressed
/// by `steps` as it existed at version `v`, in O(path + answer) — the cost
/// is proportional to the visible subtree, never the archive. An empty
/// path addresses the whole document.
pub fn as_of(a: &Archive, nav: &impl Nav, steps: &[KeyQuery], v: u32) -> Option<Document> {
    if !a.has_version(v) {
        return None;
    }
    let id = locate(a, nav, steps)?;
    if !a.exists_at(id, v) {
        return None;
    }
    content_at(a, nav, id, v)
}

/// Range scan (§7.2 turned sideways): every keyed element child of the
/// node addressed by `prefix` whose lifetime intersects the closed version
/// window, with the lifetime clamped to the window, in label order.
pub fn range<N: Nav>(
    a: &Archive,
    nav: &N,
    prefix: &[KeyQuery],
    versions: RangeInclusive<u32>,
) -> Vec<RangeEntry> {
    let lo = (*versions.start()).max(1);
    let hi = (*versions.end()).min(a.latest());
    let Some(node) = locate(a, nav, prefix) else {
        return Vec::new();
    };
    let inherited = a.effective_time(node);
    let keyed = nav.keyed(a, node);
    // a row shares its label with the archive node and holds a one-run
    // lifetime inline, so the result is the one block the scan allocates
    let mut out = Vec::with_capacity(keyed.len());
    for &c in keyed {
        let own = a.time(c).unwrap_or(inherited.view());
        let time = own.clamp_range(lo, hi);
        if time.is_empty() {
            continue;
        }
        if let Some(step) = a.step_of(c) {
            out.push(RangeEntry { step, time });
        }
    }
    if !N::LABEL_ORDERED {
        out.sort_by(|a, b| a.step.cmp(&b.step));
    }
    out
}

/// The full temporal account of one element: one descent, one sweep of
/// the stored subtree for its change points, then one emit per interval of
/// constant content — by the retrieve scan's own writer, into one buffer,
/// so an interval costs no `Document` and a content already recorded no
/// allocation. Equal contents of separated intervals (A → B → A) fold
/// into one entry, entries ordered by first appearance.
pub fn history_values(a: &Archive, nav: &impl Nav, steps: &[KeyQuery]) -> Option<ElementHistory> {
    let id = locate(a, nav, steps)?;
    let existence = a.effective_time(id);
    let mut cuts = Vec::new();
    change_points(a, id, &mut cuts);
    cuts.sort_unstable();
    cuts.dedup();
    let mut values = Vec::new();
    let mut content = Vec::new();
    for &(lo, hi) in existence.intervals() {
        // the change points that split this run of the element's lifetime
        let inside = &cuts[cuts.partition_point(|&c| c <= lo)..cuts.partition_point(|&c| c <= hi)];
        let starts = [lo].into_iter().chain(inside.iter().copied());
        let ends = inside.iter().map(|&c| c - 1).chain([hi]);
        for (start, end) in starts.zip(ends) {
            // beneath the synthetic root, the document (absent from an
            // empty version)
            let el = match id == a.root() {
                true => doc_root(a, nav, start),
                false => Some(id),
            };
            let Some(el) = el else { continue };
            let AKind::Element(tag) = a.kind(el) else {
                continue; // `locate` and `doc_root` yield elements only
            };
            content.clear();
            a.write_element(nav, el, tag, start, &mut content)
                .expect("a Vec takes every byte");
            let content = std::str::from_utf8(&content).expect("the archive holds UTF-8");
            record_value(&mut values, (start, end), content);
        }
    }
    Some(ElementHistory { existence, values })
}

/// Collects every version at which the visibility of some node beneath
/// `id` changes: the first version of each run of each explicit timestamp,
/// and the first version after it.
fn change_points(a: &Archive, id: ANodeId, cuts: &mut Vec<u32>) {
    for &c in a.children(id) {
        if let Some(t) = a.time(c) {
            for &(lo, hi) in t.intervals() {
                cuts.extend([lo, hi.saturating_add(1)]);
            }
        }
        change_points(a, c, cuts);
    }
}

/// What changed in the element addressed by `steps` between `v1` and `v2`:
/// one descent, and when the element exists at both versions and no
/// timestamp beneath it holds one without the other, "nothing" — said
/// without emitting either side. Otherwise the line diff of the two
/// subtrees ([`delta`]), either of which may be absent.
pub fn diff(a: &Archive, nav: &impl Nav, steps: &[KeyQuery], v1: u32, v2: u32) -> VersionDelta {
    let Some(id) = locate(a, nav, steps) else {
        return delta(None, None, v1, v2);
    };
    let life = a.effective_time(id);
    if life.contains(v1) && life.contains(v2) && !separated(a, id, v1, v2) {
        let present = id != a.root() || doc_root(a, nav, v1).is_some();
        return VersionDelta {
            v1,
            v2,
            present: (present, present),
            removed: 0,
            added: 0,
            script: String::new(),
        };
    }
    let at = |v| match life.contains(v) {
        true => content_at(a, nav, id, v),
        false => None,
    };
    delta(at(v1).as_ref(), at(v2).as_ref(), v1, v2)
}

/// Whether some node beneath `id` is visible at one of `v1`, `v2` and not
/// at the other. `id` is visible at both.
fn separated(a: &Archive, id: ANodeId, v1: u32, v2: u32) -> bool {
    a.children(id).iter().any(|&c| {
        let held = a.time(c);
        match held.map(|t| (t.contains(v1), t.contains(v2))) {
            // invisible at both, and so is everything beneath it
            Some((false, false)) => false,
            Some((at1, at2)) if at1 != at2 => true,
            _ => separated(a, c, v1, v2),
        }
    })
}

impl Archive {
    /// Finds the archive node addressed by a key-query path ([`locate`]).
    pub fn find(&self, steps: &[KeyQuery]) -> Option<ANodeId> {
        locate(self, &Scan, steps)
    }

    /// Reconstructs version `v` with a single scan. `None` when `v` was
    /// never archived *or* the database was empty at `v` (use
    /// [`Archive::has_version`] to distinguish).
    pub fn retrieve(&self, v: u32) -> Option<Document> {
        retrieve(self, &Scan, v)
    }

    /// The versions in which the element addressed by `steps` exists;
    /// `None` if it was never archived ([`history`]).
    pub fn history(&self, steps: &[KeyQuery]) -> Option<TimeSet> {
        history(self, &Scan, steps)
    }

    /// The subtree addressed by `steps` as it existed at `v` ([`as_of`]).
    pub fn as_of(&self, steps: &[KeyQuery], v: u32) -> Option<Document> {
        as_of(self, &Scan, steps, v)
    }

    /// The keyed children of the node addressed by `prefix` alive in the
    /// version window ([`range`]).
    pub fn range(&self, prefix: &[KeyQuery], versions: RangeInclusive<u32>) -> Vec<RangeEntry> {
        range(self, &Scan, prefix, versions)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use xarch_keys::KeySpec;
    use xarch_xml::parse;

    use super::*;
    use crate::archive::Compaction;

    /// [`Scan`], counting the emits of one element: every emit of `target`
    /// asks for its visible children exactly once.
    struct CountingEmits {
        target: ANodeId,
        emits: Cell<usize>,
    }

    impl Nav for CountingEmits {
        const LABEL_ORDERED: bool = false;

        fn child(&self, a: &Archive, parent: ANodeId, step: &KeyQuery) -> Option<ANodeId> {
            Scan.child(a, parent, step)
        }

        fn visible<'a>(
            &'a self,
            a: &'a Archive,
            parent: ANodeId,
            v: u32,
        ) -> impl Iterator<Item = ANodeId> + 'a {
            if parent == self.target {
                self.emits.set(self.emits.get() + 1);
            }
            Scan.visible(a, parent, v)
        }

        fn keyed<'a>(&'a self, a: &'a Archive, parent: ANodeId) -> &'a [ANodeId] {
            Scan.keyed(a, parent)
        }
    }

    fn rec(id: &str) -> Vec<KeyQuery> {
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", id),
        ]
    }

    /// 64 versions: record 1 never changes, record 2 takes a new value at
    /// each version in `changes`, record 3 is there to churn beside them.
    fn archive(compaction: Compaction, changes: &[u32]) -> Archive {
        let spec =
            KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap();
        let mut a = Archive::with_compaction(spec, compaction);
        for v in 1..=64u32 {
            let changed = changes.iter().filter(|&&c| c <= v).count();
            let src = format!(
                "<db><rec><id>1</id><val>still</val></rec>\
                 <rec><id>2</id><val><n>{changed}</n><same/></val></rec>\
                 <rec><id>3</id><val>{v}</val></rec></db>"
            );
            a.add_version(&parse(&src).unwrap()).unwrap();
        }
        a
    }

    fn emits_of(a: &Archive, steps: &[KeyQuery]) -> (usize, ElementHistory) {
        let nav = CountingEmits {
            target: locate(a, &Scan, steps).unwrap(),
            emits: Cell::new(0),
        };
        let h = history_values(a, &nav, steps).unwrap();
        (nav.emits.get(), h)
    }

    #[test]
    fn one_emit_per_interval_of_constant_content() {
        let changes = [9, 10, 33, 64];
        for compaction in [Compaction::Alternatives, Compaction::Weave] {
            let a = archive(compaction, &changes);
            // constant over 64 versions beside a sibling that changes in
            // every one of them: emitted once
            let (emits, h) = emits_of(&a, &rec("1"));
            assert_eq!(emits, 1, "{compaction:?}");
            assert_eq!(h.existence.to_string(), "1-64");
            assert_eq!(h.values.len(), 1);
            assert_eq!(h.values[0].0.to_string(), "1-64");
            // changed k times: k + 1 contents, at most k + 1 emits
            let (emits, h) = emits_of(&a, &rec("2"));
            assert!(
                emits <= changes.len() + 1,
                "{compaction:?}: {emits} emits for {} changes",
                changes.len()
            );
            let held: Vec<String> = h.values.iter().map(|(t, _)| t.to_string()).collect();
            assert_eq!(held, ["1-8", "9", "10-32", "33-63", "64"], "{compaction:?}");
            // and changed in every version: one emit per version, as ever
            assert_eq!(emits_of(&a, &rec("3")).0, 64, "{compaction:?}");
        }
    }

    #[test]
    fn an_unchanged_element_is_diffed_without_an_emit() {
        let a = archive(Compaction::Alternatives, &[9]);
        let diff_of = |id: &str, v1, v2| {
            let steps = rec(id);
            let nav = CountingEmits {
                target: locate(&a, &Scan, &steps).unwrap(),
                emits: Cell::new(0),
            };
            let d = diff(&a, &nav, &steps, v1, v2);
            assert_eq!(
                d,
                delta(
                    as_of(&a, &Scan, &steps, v1).as_ref(),
                    as_of(&a, &Scan, &steps, v2).as_ref(),
                    v1,
                    v2
                )
            );
            (nav.emits.get(), d)
        };
        for (v1, v2) in [(1, 64), (64, 1), (7, 7), (9, 64)] {
            let (emits, d) = diff_of("1", v1, v2);
            assert_eq!(emits, 0, "rec 1, {v1} vs {v2}");
            assert!(d.is_same() && d.present == (true, true));
        }
        assert_eq!(diff_of("2", 9, 64).0, 0, "no change after version 9");
        let (emits, d) = diff_of("2", 8, 9);
        assert_eq!(emits, 2, "a change between the versions emits both sides");
        assert!(!d.is_same());
        // a version the element never saw is an absent side, not a skip
        let (emits, d) = diff_of("1", 64, 65);
        assert_eq!((emits, d.present), (1, (true, false)));
    }
}
