//! The history index of §7.2: "maintain, for each keyed node in the
//! archive, a sorted list of key values of children nodes" — a binary
//! search per level answers a temporal-history query in `O(l log d)`
//! comparisons, where `l` is the key-path length and `d` the maximum
//! degree.
//!
//! The index is maintained *incrementally*: after a merge,
//! [`HistoryIndex::refresh`] re-derives the lists of the nodes the merge
//! wrote ([`Archive::touched`]) — a node's list changes only when its own
//! child list does — so keeping the index current costs what the merge
//! wrote, not O(|version|) or O(|archive|). It *writes* only the lists
//! whose keyed child set actually changed, so the table keeps sharing
//! every other chunk with the views published before the merge.

use std::cmp::Ordering;
use std::sync::Arc;

use xarch_core::{cmp_labels, ANodeId, Archive, CowVec, KeyQuery};
use xarch_obs::Counter;

/// Sorted child-key lists for every keyed node: one slot per archive node
/// (by arena index) holding its keyed children in label order. A list
/// names the children only — per the paper its records carry a "timestamp
/// offset", here the child's own timestamp in the archive, resolved
/// against the parent's during the descent (inheritance, §2) — so a list
/// changes only when a keyed child joins it.
///
/// The table is a copy-on-write [`CowVec`] with `Arc`'d lists: cloning the
/// index shares everything, and the clone shares the comparison counter
/// too — an [`xarch_obs::Counter`] (atomic under the hood), so a built
/// index can be shared across reader threads (`HistoryIndex` is
/// `Send + Sync`; lookups take `&self`) and the same handle can be
/// registered with an observability registry, making the §7 probe
/// accounting read from one source of truth.
#[derive(Debug, Clone, Default)]
pub struct HistoryIndex {
    lists: CowVec<Option<Arc<[ANodeId]>>>,
    comparisons: Counter,
}

impl HistoryIndex {
    /// Builds the index with a single scan of the archive: the list of
    /// every arena node, each derived from its own children.
    pub fn build(archive: &Archive) -> Self {
        let mut keyed = Vec::new();
        let lists = (0..archive.len() as u32)
            .map(|i| {
                keyed_children(archive, ANodeId(i), &mut keyed);
                (!keyed.is_empty()).then(|| keyed.as_slice().into())
            })
            .collect();
        Self {
            lists,
            ..Self::default()
        }
    }

    /// Replace the comparison counter with `counter` (typically one
    /// registered under `index.history.comparisons`), carrying the count
    /// so far into it.
    pub fn bind_counter(&mut self, counter: Counter) {
        counter.add(self.comparisons.get());
        self.comparisons = counter;
    }

    /// Brings the index up to `archive` after a merge that wrote `ids`
    /// (its [`Archive::touched`] log; repeats are fine): re-derives the
    /// list of each, once. Returns how many lists it re-derived.
    pub fn refresh(&mut self, archive: &Archive, ids: &[ANodeId]) -> usize {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let mut keyed = Vec::new();
        for &id in &ids {
            keyed_children(archive, id, &mut keyed);
            if self.list(id) != keyed.as_slice() {
                *self.lists.slot_mut(id.index()) =
                    (!keyed.is_empty()).then(|| keyed.as_slice().into());
            }
        }
        ids.len()
    }

    /// `id`'s keyed children in label order (none for a node without any).
    pub fn list(&self, id: ANodeId) -> &[ANodeId] {
        self.lists
            .get(id.index())
            .and_then(|l| l.as_deref())
            .unwrap_or_default()
    }

    /// The keyed child of `parent` that `step` addresses, by one binary
    /// search over `parent`'s list — the indexed half of a key-path
    /// descent (`xarch_core::kernel::locate`), charged to the comparison
    /// counter.
    pub fn child(&self, archive: &Archive, parent: ANodeId, step: &KeyQuery) -> Option<ANodeId> {
        let list = self.list(parent);
        let mut lo = 0usize;
        let mut hi = list.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.comparisons.inc();
            match archive.query_cmp(list[mid], step) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(list[mid]),
            }
        }
        None
    }

    /// Comparison counter (reset with [`HistoryIndex::reset`]).
    pub fn comparisons(&self) -> usize {
        usize::try_from(self.comparisons.get()).unwrap_or(usize::MAX)
    }

    /// Resets the comparison counter — a measurement-window convenience
    /// for benches; a registry-bound counter should instead be read as a
    /// monotone total and differenced.
    pub fn reset(&self) {
        self.comparisons.reset();
    }

    /// Maximum list length `d` (for the `O(l log d)` bound).
    pub fn max_degree(&self) -> usize {
        self.lists
            .iter()
            .map(|l| l.as_ref().map_or(0, |l| l.len()))
            .max()
            .unwrap_or(0)
    }

    /// `(shared, total)` table chunks this index holds by pointer in
    /// common with `other` — how much a view taken before a merge still
    /// shares with the index after it.
    pub fn shared_chunks(&self, other: &Self) -> (usize, usize) {
        (
            self.lists.shared_chunks(&other.lists),
            self.lists.chunk_count(),
        )
    }
}

/// Derives `id`'s list into `keyed`: its keyed children, sorted by
/// (tag, key value) — the same order `query_cmp` probes.
fn keyed_children(archive: &Archive, id: ANodeId, keyed: &mut Vec<ANodeId>) {
    keyed.clear();
    let children = archive.children(id).iter().copied();
    keyed.extend(children.filter(|&c| archive.key(c).is_some()));
    keyed.sort_by(|&a, &b| cmp_children(archive, a, b));
}

fn cmp_children(archive: &Archive, a: ANodeId, b: ANodeId) -> Ordering {
    match (archive.label(a), archive.label(b)) {
        (Some(p), Some(q)) => cmp_labels(p, q),
        _ => Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use xarch_core::kernel::history;
    use xarch_core::{Archive, KeyQuery};
    use xarch_keys::KeySpec;
    use xarch_xml::parse;

    use crate::Indexes;

    /// `a`, indexed by one full build.
    fn built(a: &Archive) -> Indexes {
        Indexes::build(a)
    }

    fn spec() -> KeySpec {
        KeySpec::parse(
            "(/, (db, {}))\n(/db, (dept, {name}))\n(/db/dept, (emp, {fn, ln}))\n\
             (/db/dept/emp, (sal, {}))",
        )
        .unwrap()
    }

    fn sample() -> Archive {
        let mut a = Archive::new(spec());
        let v1 = parse(
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal></emp></dept></db>",
        )
        .unwrap();
        let v2 = parse(
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal></emp>\
             <emp><fn>Jane</fn><ln>Smith</ln><sal>80K</sal></emp></dept>\
             <dept><name>marketing</name></dept></db>",
        )
        .unwrap();
        a.add_version(&v1).unwrap();
        a.add_version(&v2).unwrap();
        a
    }

    #[test]
    fn indexed_history_matches_naive() {
        let a = sample();
        let idx = built(&a);
        let queries: Vec<Vec<KeyQuery>> = vec![
            vec![KeyQuery::new("db")],
            vec![
                KeyQuery::new("db"),
                KeyQuery::new("dept").with_text("name", "finance"),
            ],
            vec![
                KeyQuery::new("db"),
                KeyQuery::new("dept").with_text("name", "finance"),
                KeyQuery::new("emp")
                    .with_text("fn", "Jane")
                    .with_text("ln", "Smith"),
            ],
            vec![
                KeyQuery::new("db"),
                KeyQuery::new("dept").with_text("name", "marketing"),
            ],
        ];
        for q in &queries {
            assert_eq!(history(&a, &idx, q), a.history(q), "query {q:?}");
        }
    }

    #[test]
    fn incremental_maintenance_matches_full_rebuild() {
        // after every add, an incrementally maintained index must answer
        // exactly like one rebuilt from scratch
        let versions = [
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal></emp></dept></db>",
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal></emp>\
             <emp><fn>Jane</fn><ln>Smith</ln><sal>80K</sal></emp></dept></db>",
            // Jane disappears, marketing appears
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal></emp></dept>\
             <dept><name>marketing</name></dept></db>",
            // Jane returns with a new salary
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>99K</sal></emp>\
             <emp><fn>Jane</fn><ln>Smith</ln><sal>85K</sal></emp></dept></db>",
        ];
        let mut a = Archive::new(spec());
        let mut idx = built(&a);
        for (n, src) in versions.iter().enumerate() {
            a.add_version(&parse(src).unwrap()).unwrap();
            idx.refresh(&a);
            let rebuilt = built(&a);
            let queries: Vec<Vec<KeyQuery>> = vec![
                vec![KeyQuery::new("db")],
                vec![
                    KeyQuery::new("db"),
                    KeyQuery::new("dept").with_text("name", "finance"),
                ],
                vec![
                    KeyQuery::new("db"),
                    KeyQuery::new("dept").with_text("name", "marketing"),
                ],
                vec![
                    KeyQuery::new("db"),
                    KeyQuery::new("dept").with_text("name", "finance"),
                    KeyQuery::new("emp")
                        .with_text("fn", "Jane")
                        .with_text("ln", "Smith"),
                ],
                vec![
                    KeyQuery::new("db"),
                    KeyQuery::new("dept").with_text("name", "finance"),
                    KeyQuery::new("emp")
                        .with_text("fn", "Jane")
                        .with_text("ln", "Smith"),
                    KeyQuery::new("sal"),
                ],
            ];
            for q in &queries {
                assert_eq!(
                    history(&a, &idx, q),
                    history(&a, &rebuilt, q),
                    "after version {}: query {q:?}",
                    n + 1
                );
                assert_eq!(history(&a, &idx, q), a.history(q), "naive, v{}", n + 1);
            }
        }
        // empty versions terminate everything but the root
        a.add_empty_version();
        idx.refresh(&a);
        let rebuilt = built(&a);
        let q = vec![KeyQuery::new("db")];
        assert_eq!(history(&a, &idx, &q), history(&a, &rebuilt, &q));
        assert_eq!(history(&a, &idx, &q), a.history(&q));
    }

    #[test]
    fn locate_and_range_walk_the_lists() {
        let a = sample();
        let idx = built(&a);
        assert_eq!(history(&a, &idx, &[]).unwrap().to_string(), "1-2");
        let prefix = vec![KeyQuery::new("db")];
        let hits = xarch_core::kernel::range(&a, &idx, &prefix, 1..=2);
        assert_eq!(hits.len(), 2, "{hits:?}"); // two departments
        assert_eq!(hits[0].step.tag(), "dept");
        assert_eq!(hits[0].time.to_string(), "1-2"); // finance
        assert_eq!(hits[1].time.to_string(), "2"); // marketing
                                                   // window clamps: only version 1
        let hits = xarch_core::kernel::range(&a, &idx, &prefix, 1..=1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].time.to_string(), "1");
    }

    #[test]
    fn missing_element_is_none() {
        let a = sample();
        let idx = built(&a);
        let q = vec![
            KeyQuery::new("db"),
            KeyQuery::new("dept").with_text("name", "hr"),
        ];
        assert_eq!(history(&a, &idx, &q), None);
        assert_eq!(a.history(&q), None);
    }

    #[test]
    fn comparison_count_is_logarithmic() {
        // Wide sibling list: lookups must do ~log2(d) comparisons per level.
        let mut s = String::from("<db><dept><name>finance</name>");
        for i in 0..256 {
            s.push_str(&format!("<emp><fn>F{i:03}</fn><ln>L{i:03}</ln></emp>"));
        }
        s.push_str("</dept></db>");
        let mut a = Archive::new(spec());
        a.add_version(&parse(&s).unwrap()).unwrap();
        let idx = built(&a);
        idx.reset_probes();
        let q = vec![
            KeyQuery::new("db"),
            KeyQuery::new("dept").with_text("name", "finance"),
            KeyQuery::new("emp")
                .with_text("fn", "F100")
                .with_text("ln", "L100"),
        ];
        let t = history(&a, &idx, &q).unwrap();
        assert_eq!(t.to_string(), "1");
        // 3 levels, d ≤ 257 → well under 3 * (log2(257)+1) ≈ 27
        let hist = idx.history_index();
        assert!(
            hist.comparisons() <= 30,
            "comparisons = {}",
            hist.comparisons()
        );
        assert!(hist.max_degree() >= 256);
    }

    #[test]
    fn history_reflects_reappearance() {
        let mut a = sample();
        // v3: Jane disappears, v4: Jane returns
        let v3 = parse(
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal></emp></dept></db>",
        )
        .unwrap();
        let v4 = parse(
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal></emp>\
             <emp><fn>Jane</fn><ln>Smith</ln><sal>85K</sal></emp></dept></db>",
        )
        .unwrap();
        a.add_version(&v3).unwrap();
        a.add_version(&v4).unwrap();
        let idx = built(&a);
        let q = vec![
            KeyQuery::new("db"),
            KeyQuery::new("dept").with_text("name", "finance"),
            KeyQuery::new("emp")
                .with_text("fn", "Jane")
                .with_text("ln", "Smith"),
        ];
        assert_eq!(history(&a, &idx, &q).unwrap().to_string(), "2,4");
    }
}
