//! The per-version definitions of `history_values` and `diff`, as a test
//! oracle shared by `conformance.rs` (scripted fixture) and
//! `properties.rs` (random edit sequences): whatever a backend does to
//! answer them, it must say what these say.

use xarch::core::query::{delta, find_in_doc, subtree_doc};
use xarch::core::{KeyQuery, TimeSet};
use xarch::xml::writer::to_compact_string;
use xarch::{ElementHistory, StoreReader};

/// `history_values(path)` by definition: per version, `retrieve` →
/// `find_in_doc` → compact string, equal contents folded in order of first
/// appearance. The store must hold at least one version.
pub fn history_values_by_definition(
    store: &dyn StoreReader,
    path: &[KeyQuery],
) -> Option<ElementHistory> {
    let mut existence = TimeSet::new();
    let mut values: Vec<(TimeSet, String)> = Vec::new();
    for v in 1..=store.latest() {
        let whole = store.retrieve(v).unwrap();
        let sub = match whole {
            // the empty path addresses the synthetic root, which exists in
            // every version and reads as the whole document
            Some(doc) if path.is_empty() => Some(doc),
            Some(doc) => find_in_doc(&doc, store.spec(), path).and_then(|id| subtree_doc(&doc, id)),
            None => None,
        };
        if path.is_empty() || sub.is_some() {
            existence.insert(v);
        }
        if let Some(sub) = sub {
            let content = to_compact_string(&sub);
            match values.iter_mut().find(|(_, c)| *c == content) {
                Some((t, _)) => t.insert(v),
                None => values.push((TimeSet::from_version(v), content)),
            }
        }
    }
    // the synthetic root is there before any version is, with an empty
    // existence
    (path.is_empty() || !existence.is_empty()).then_some(ElementHistory { existence, values })
}

/// Holds `store` to both definitions on every path: `history_values`
/// against [`history_values_by_definition`], and `diff` against
/// `delta(as_of(v1), as_of(v2))`, field for field, over every ordered pair
/// of versions from 0 to one past the latest. `Err` says what diverged.
pub fn check_against_definitions(
    store: &dyn StoreReader,
    paths: &[Vec<KeyQuery>],
) -> Result<(), String> {
    for path in paths {
        let got = store.history_values(path).unwrap();
        let want = history_values_by_definition(store, path);
        if got != want {
            return Err(format!(
                "history_values({path:?}) = {got:?}, by definition {want:?}"
            ));
        }
        for v1 in 0..=store.latest() + 1 {
            for v2 in 0..=store.latest() + 1 {
                let got = store.diff(path, v1, v2).unwrap();
                let (a, b) = (
                    store.as_of(path, v1).unwrap(),
                    store.as_of(path, v2).unwrap(),
                );
                let want = delta(a.as_ref(), b.as_ref(), v1, v2);
                if got != want {
                    return Err(format!(
                        "diff({path:?}, {v1}, {v2}) = {got:?}, by definition {want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}
