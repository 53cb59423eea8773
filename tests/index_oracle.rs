//! The §7 indexes refreshed from what each merge wrote, against a full
//! build of the same archive.
//!
//! An `IndexedArchive` re-derives, after each commit, only the timestamp
//! trees and history lists of the nodes the merge wrote (and, for the
//! trees, of their parents). Every test here commits versions to one —
//! singly, as batches split every way in two, as empty versions, and after
//! a checkpoint restore, in both compaction modes — and wants, after each
//! commit, every node's tree and list exactly as `build` derives them
//! from the archive alone.

use proptest::prelude::*;
use xarch::core::{ANodeId, Compaction, VersionStore};
use xarch::datagen::company::{company_spec, company_versions};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::datagen::swissprot::{swissprot_spec, SwissProtGen};
use xarch::datagen::xmark::{xmark_spec, XmarkGen};
use xarch::index::{HistoryIndex, IndexedArchive, TimestampIndex};
use xarch::keys::KeySpec;
use xarch::xml::Document;

#[path = "../crates/core/src/merge/edit_scripts.rs"]
mod edit_scripts;

const MODES: [Compaction; 2] = [Compaction::Alternatives, Compaction::Weave];

/// Every node's tree and list in `s` equal a full build's.
fn assert_as_built(s: &IndexedArchive, after: &str) {
    let a = s.archive();
    let (trees, lists) = (TimestampIndex::build(a), HistoryIndex::build(a));
    for id in (0..a.len() as u32).map(ANodeId) {
        assert_eq!(
            s.timestamp_index().tree(id),
            trees.tree(id),
            "{after}: timestamp tree of {id:?}"
        );
        assert_eq!(
            s.history_index().list(id),
            lists.list(id),
            "{after}: history list of {id:?}"
        );
    }
}

/// Commits `docs` in every way the store offers and checks the indexes
/// after each commit: one version at a time with an empty version half
/// way; every split into two batches with an empty version between them;
/// and the second half merged one at a time into a store restored from a
/// checkpoint of the first.
fn assert_refresh_equals_build(spec: &KeySpec, docs: &[Document]) {
    let half = docs.len() / 2;
    for mode in MODES {
        let fresh = || IndexedArchive::with_compaction(spec.clone(), mode);

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

        let mut live = fresh();
        live.add_versions(&docs[..half]).unwrap();
        let state = live.checkpoint_state().unwrap().expect("checkpoints");
        let mut restored = fresh();
        assert!(restored.restore_checkpoint(&state).unwrap());
        assert_as_built(&restored, &format!("{mode:?}, restored"));
        for (i, d) in docs[half..].iter().enumerate() {
            restored.add_version(d).unwrap();
            assert_as_built(&restored, &format!("{mode:?}, restored + {}", i + 1));
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
