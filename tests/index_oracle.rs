//! The §7 indexes refreshed from what each merge wrote, against a full
//! build of the same archive, and the kernel's answers through them
//! against the scan's.
//!
//! An indexed store re-derives, after each commit, only the timestamp
//! trees and history lists of the nodes the merge wrote (and, for the
//! trees, of their parents). Every test here commits versions to one —
//! singly, as batches split every way in two, as empty versions, and after
//! a checkpoint restore, in both compaction modes — and wants, after each
//! commit, every node's tree and list exactly as `build` derives them
//! from the archive alone.
//!
//! The differential holds the indexed navigator to the scanning one: every
//! query kind answers alike at every version on every keyed path, and a
//! node has a tree exactly when one of its children has a timestamp of
//! its own — found by a pass over every node, not by the build's descent
//! through the nodes written beneath.

use proptest::prelude::*;
use xarch::core::kernel::{self, Scan};
use xarch::core::state::{decode_archive, encode_archive};
use xarch::core::{ANodeId, Archive, Compaction, KeyQuery, VersionStore};
use xarch::datagen::company::{company_spec, company_versions};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::datagen::swissprot::{swissprot_spec, SwissProtGen};
use xarch::datagen::xmark::{xmark_spec, XmarkGen};
use xarch::index::{HistoryIndex, Indexes, TimestampIndex};
use xarch::keys::KeySpec;
use xarch::xml::writer::to_compact_string;
use xarch::xml::Document;
use xarch::{ArchiveBuilder, Store};

#[path = "../crates/core/src/merge/edit_scripts.rs"]
mod edit_scripts;

const MODES: [Compaction; 2] = [Compaction::Alternatives, Compaction::Weave];

/// Every node's tree and list in `ix` equal a full build's of `a`.
fn assert_built_from(a: &Archive, ix: &Indexes, after: &str) {
    let (trees, lists) = (TimestampIndex::build(a), HistoryIndex::build(a));
    for id in (0..a.len() as u32).map(ANodeId) {
        assert_eq!(
            ix.timestamp_index().tree(id),
            trees.tree(id),
            "{after}: timestamp tree of {id:?}"
        );
        assert_eq!(
            ix.history_index().list(id),
            lists.list(id),
            "{after}: history list of {id:?}"
        );
    }
}

/// Every node's tree and list in the indexed store `s` equal a full
/// build's.
fn assert_as_built(s: &Store, after: &str) {
    assert_built_from(s.archive(), s.indexes().expect("indexed"), after);
}

/// Commits `docs` in every way the store offers and checks the indexes
/// after each commit: one version at a time with an empty version half
/// way; every split into two batches with an empty version between them;
/// and the second half merged one at a time into a store restored from a
/// checkpoint of the first.
fn assert_refresh_equals_build(spec: &KeySpec, docs: &[Document]) {
    let half = docs.len() / 2;
    for mode in MODES {
        let fresh = || {
            ArchiveBuilder::new(spec.clone())
                .compaction(mode)
                .with_index()
                .open()
                .unwrap()
        };

        let mut s = fresh();
        for (i, d) in docs.iter().enumerate() {
            s.add_version(d).unwrap();
            assert_as_built(&s, &format!("{mode:?}, version {}", i + 1));
            if i == half {
                s.add_empty_version().unwrap();
                assert_as_built(&s, &format!("{mode:?}, empty after {}", i + 1));
            }
        }

        for split in 0..=docs.len() {
            let mut s = fresh();
            s.add_versions(&docs[..split]).unwrap();
            assert_as_built(&s, &format!("{mode:?}, first batch of {split}"));
            s.add_empty_version().unwrap();
            assert_as_built(&s, &format!("{mode:?}, empty after {split}"));
            s.add_versions(&docs[split..]).unwrap();
            assert_as_built(&s, &format!("{mode:?}, second batch after {split}"));
        }

        // a reopen restores the archive from its checkpoint, builds the
        // indexes once, and refreshes them per commit from then on
        let mut live = fresh();
        live.add_versions(&docs[..half]).unwrap();
        let state = encode_archive(live.archive());
        let mut restored = decode_archive(&state, spec, mode).unwrap().unwrap();
        let mut ix = Indexes::build(&restored);
        for (i, d) in docs[half..].iter().enumerate() {
            restored.add_version(d).unwrap();
            ix.refresh(&restored);
            assert_built_from(&restored, &ix, &format!("{mode:?}, restored + {}", i + 1));
        }
    }
}

/// The key-query path of every node a path can address — the synthetic
/// root (the empty path) and each keyed element whose ancestors up to the
/// document root are keyed too — and one step off the keyed paths.
fn keyed_paths(a: &Archive) -> Vec<Vec<KeyQuery>> {
    let mut paths = vec![vec![KeyQuery::new("nope")]];
    for id in (0..a.len() as u32).map(ANodeId) {
        let mut path = Vec::new();
        let mut at = Some(id);
        while let Some(node) = at.filter(|&n| n != a.root()) {
            path.push(a.step_of(node));
            at = a.parent(node);
        }
        if let Some(mut path) = path.into_iter().collect::<Option<Vec<_>>>() {
            path.reverse();
            paths.push(path);
        }
    }
    paths
}

/// `ix` holds a timestamp tree for exactly the nodes of `a` that have a
/// child with a timestamp of its own, and every query kind answers
/// through it as the scan does: `retrieve` at every version, and on every
/// keyed path `history`, `history_values`, `as_of` at every version,
/// `diff` between each version and the next and from the first, and
/// `range` over every single version and the whole history.
fn assert_indexed_answers_as_scanned(a: &Archive, ix: &Indexes, after: &str) {
    for id in (0..a.len() as u32).map(ANodeId) {
        let stamped = a.children(id).iter().any(|&c| a.time(c).is_some());
        assert_eq!(
            ix.timestamp_index().tree(id).is_some(),
            stamped,
            "{after}: a tree for {id:?}"
        );
    }
    let xml = |d: Option<Document>| d.map(|d| to_compact_string(&d));
    let versions = 0..=a.latest() + 1;
    for v in versions.clone() {
        assert_eq!(
            xml(kernel::retrieve(a, ix, v)),
            xml(kernel::retrieve(a, &Scan, v)),
            "{after}: retrieve {v}"
        );
    }
    for q in &keyed_paths(a) {
        let at = |what: &str| format!("{after}: {what} of {q:?}");
        assert_eq!(
            kernel::history(a, ix, q),
            kernel::history(a, &Scan, q),
            "{}",
            at("history")
        );
        assert_eq!(
            kernel::history_values(a, ix, q),
            kernel::history_values(a, &Scan, q),
            "{}",
            at("history_values")
        );
        for v in versions.clone() {
            assert_eq!(
                xml(kernel::as_of(a, ix, q, v)),
                xml(kernel::as_of(a, &Scan, q, v)),
                "{}",
                at(&format!("as_of {v}"))
            );
            for (v1, v2) in [(v.saturating_sub(1), v), (1, v)] {
                assert_eq!(
                    kernel::diff(a, ix, q, v1, v2),
                    kernel::diff(a, &Scan, q, v1, v2),
                    "{}",
                    at(&format!("diff {v1} {v2}"))
                );
            }
            assert_eq!(
                kernel::range(a, ix, q, v..=v),
                kernel::range(a, &Scan, q, v..=v),
                "{}",
                at(&format!("range {v}"))
            );
        }
        assert_eq!(
            kernel::range(a, ix, q, versions.clone()),
            kernel::range(a, &Scan, q, versions.clone()),
            "{}",
            at("range")
        );
    }
}

/// Commits `docs` one at a time to an indexed store, an empty version half
/// way, and checks the indexed answers after each commit; then restores
/// a checkpoint of the first half, builds its indexes, checks them, and
/// merges the rest into it one at a time, refreshing and checking.
fn assert_differential(spec: &KeySpec, docs: &[Document]) {
    let half = docs.len() / 2;
    for mode in MODES {
        let mut s = ArchiveBuilder::new(spec.clone())
            .compaction(mode)
            .with_index()
            .open()
            .unwrap();
        let check = |s: &Store, after: &str| {
            assert_indexed_answers_as_scanned(s.archive(), s.indexes().expect("indexed"), after)
        };
        for (i, d) in docs.iter().enumerate() {
            s.add_version(d).unwrap();
            check(&s, &format!("{mode:?}, version {}", i + 1));
            if i == half {
                s.add_empty_version().unwrap();
                check(&s, &format!("{mode:?}, empty after {}", i + 1));
            }
        }

        let mut live = ArchiveBuilder::new(spec.clone())
            .compaction(mode)
            .open()
            .unwrap();
        live.add_versions(&docs[..half]).unwrap();
        let state = encode_archive(live.archive());
        let mut restored = decode_archive(&state, spec, mode).unwrap().unwrap();
        let mut ix = Indexes::build(&restored);
        assert_indexed_answers_as_scanned(&restored, &ix, &format!("{mode:?}, restored"));
        for (i, d) in docs[half..].iter().enumerate() {
            restored.add_version(d).unwrap();
            ix.refresh(&restored);
            let after = format!("{mode:?}, restored + {}", i + 1);
            assert_indexed_answers_as_scanned(&restored, &ix, &after);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The edit scripts Nested Merge's no-op rule is held to: records in
    /// and out, frontier content split into alternatives or woven, keyed
    /// children coming and going, unkeyed mixed content, empty documents.
    #[test]
    fn refresh_equals_build_on_random_edit_scripts(
        scripts in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5), 1..9)
    ) {
        let spec = KeySpec::parse(edit_scripts::SPEC).unwrap();
        assert_refresh_equals_build(&spec, &edit_scripts::versions_of(&scripts));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The indexed navigator against the scanning one on the same edit
    /// scripts, per commit and after a checkpoint restore.
    #[test]
    fn indexed_answers_equal_the_scan_on_random_edit_scripts(
        scripts in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5), 1..9)
    ) {
        let spec = KeySpec::parse(edit_scripts::SPEC).unwrap();
        assert_differential(&spec, &edit_scripts::versions_of(&scripts));
    }
}

#[test]
fn refresh_equals_build_on_omim() {
    let mut gen = OmimGen::new(27);
    gen.ins_ratio = 0.05;
    gen.mod_ratio = 0.05;
    gen.del_ratio = 0.03;
    assert_refresh_equals_build(&omim_spec(), &gen.sequence(30, 6));
}

#[test]
fn refresh_equals_build_on_swissprot() {
    let mut gen = SwissProtGen::new(27);
    gen.ins_ratio = 0.05;
    gen.mod_ratio = 0.05;
    gen.del_ratio = 0.03;
    assert_refresh_equals_build(&swissprot_spec(), &gen.sequence(12, 5));
}

#[test]
fn refresh_equals_build_on_xmark() {
    let mut gen = XmarkGen::new(27);
    assert_refresh_equals_build(&xmark_spec(), &gen.random_change_sequence(20, 5, 10.0));
    assert_refresh_equals_build(&xmark_spec(), &gen.key_mutation_sequence(20, 5, 10.0));
}

#[test]
fn refresh_equals_build_on_the_company_database() {
    assert_refresh_equals_build(&company_spec(), &company_versions());
}

/// A rejected batch rolls the indexed store back whole: its first
/// document merged (a record inserted under a tag name the archive had
/// never interned, another record's content changed) before its second
/// was refused, and the archive, its tally, its symbol table and the
/// indexes are as they were — and refresh from there on the next commit.
#[test]
fn a_rejected_batch_rolls_the_indexes_back_with_the_archive() {
    let spec = KeySpec::parse(edit_scripts::SPEC).unwrap();
    let parse = |s: &str| xarch::xml::parse(s).unwrap();
    let batch = [
        parse(
            "<db><rec><id>1</id><val>z</val></rec>\
             <rec><id>3</id><val>c</val><memo kind=\"new\">unseen</memo></rec></db>",
        ),
        // `grp` without its key path `name`
        parse("<db><rec><id>1</id><val>a</val><grp><item><k>1</k></item></grp></rec></db>"),
    ];
    for mode in MODES {
        let mut s = ArchiveBuilder::new(spec.clone())
            .compaction(mode)
            .with_index()
            .open()
            .unwrap();
        s.add_version(&parse(
            "<db><rec><id>1</id><val>a</val></rec><rec><id>2</id><val>b</val></rec></db>",
        ))
        .unwrap();
        s.add_version(&parse("<db><rec><id>1</id><val>a</val></rec></db>"))
            .unwrap();
        assert_as_built(&s, &format!("{mode:?}, before the batch"));
        let state = |s: &Store| {
            let a = s.archive();
            (
                a.to_xml_pretty(),
                a.latest(),
                a.merge_tally(),
                a.syms().len(),
            )
        };
        let before = state(&s);
        assert!(s.archive().syms().get("memo").is_none());

        assert!(s.add_versions(&batch).is_err());
        assert_eq!(
            state(&s),
            before,
            "{mode:?}: the rejected batch left a trace"
        );
        assert_as_built(&s, &format!("{mode:?}, after the rejected batch"));

        assert_eq!(s.add_version(&batch[0]).unwrap(), 3);
        assert!(s.archive().syms().get("memo").is_some());
        assert_as_built(&s, &format!("{mode:?}, after the next commit"));
    }
}
