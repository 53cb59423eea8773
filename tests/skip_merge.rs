//! The no-op rule of Nested Merge across a restore.
//!
//! Whether anything was ever written beneath an archive node is kept in
//! memory only. An archive that comes back from a checkpoint, from a
//! journal replay, or from its XML form has to work it out again — and get
//! it right: too few nodes marked and an unchanged release is skipped over
//! timestamps that needed it, every node marked and the rule never fires.
//! Each test here restores an archive, merges a release into it, and wants
//! what a store that never restarted has.

use xarch::core::state::{decode_archive, encode_archive};
use xarch::core::xmlrep::from_xml;
use xarch::core::{Archive, Compaction};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::storage::scratch_path;
use xarch::xml::Document;
use xarch::ArchiveBuilder;

/// Six OMIM releases with enough churn that records are inserted,
/// modified (stamps beneath `Text`) and deleted along the way.
fn releases() -> Vec<Document> {
    let mut gen = OmimGen::new(21);
    gen.ins_ratio = 0.05;
    gen.mod_ratio = 0.05;
    gen.del_ratio = 0.03;
    gen.sequence(40, 6)
}

/// A live archive of all but the last release; the last release; and the
/// release before it again — the unchanged one.
fn live() -> (Archive, Document, Document) {
    let mut docs = releases();
    let changed = docs.pop().unwrap();
    let unchanged = docs.last().unwrap().clone();
    let mut a = Archive::new(omim_spec());
    for d in &docs {
        a.add_version(d).unwrap();
    }
    (a, unchanged, changed)
}

/// Merges `unchanged` then `changed` into both archives and wants them
/// alike after each: the same Fig-5 XML, and the same subtrees skipped
/// and nodes compared on the way — the restored archive marked exactly
/// the nodes the live one has marked.
fn assert_merges_alike(mut live: Archive, mut restored: Archive, next: [&Document; 2]) {
    restored.check_invariants().unwrap();
    let tally = |a: &Archive, since: xarch::core::MergeTally| {
        let t = a.merge_tally();
        (
            t.subtrees_skipped - since.subtrees_skipped,
            t.nodes_compared - since.nodes_compared,
        )
    };
    for doc in next {
        let (l0, r0) = (live.merge_tally(), restored.merge_tally());
        live.add_version(doc).unwrap();
        restored.add_version(doc).unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(restored.to_xml_pretty(), live.to_xml_pretty());
        assert_eq!(tally(&restored, r0), tally(&live, l0));
        assert!(tally(&live, l0).0 > 30, "most records are skipped");
    }
}

#[test]
fn a_checkpoint_restored_archive_merges_as_the_live_one() {
    let (live, unchanged, changed) = live();
    let restored = decode_archive(
        &encode_archive(&live),
        &omim_spec(),
        Compaction::Alternatives,
    )
    .unwrap()
    .expect("same spec and compaction");
    assert_merges_alike(live, restored, [&unchanged, &changed]);
}

#[test]
fn an_xml_imported_archive_merges_as_the_live_one() {
    let (live, unchanged, changed) = live();
    let imported = from_xml(&live.to_xml(), &omim_spec()).unwrap();
    assert_merges_alike(live, imported, [&unchanged, &changed]);
}

/// The durable store end to end: written with a checkpoint cadence,
/// dropped, reopened (checkpoint restore plus a replayed tail, or a full
/// replay), then an unchanged and a changed release. Its state must be
/// byte for byte the state of a store that never closed.
#[test]
fn a_reopened_durable_store_merges_as_one_that_never_closed() {
    let mut docs = releases();
    let changed = docs.pop().unwrap();
    let unchanged = docs.last().unwrap().clone();
    for cadence in [0, 2, 5] {
        let path = scratch_path("skip-reopen");
        let build = || {
            ArchiveBuilder::new(omim_spec())
                .checkpoint_every(cadence)
                .durable(&path)
                .try_build()
                .unwrap()
        };
        let mut never_closed = ArchiveBuilder::new(omim_spec()).build();
        {
            let mut durable = build();
            for d in &docs {
                never_closed.add_version(d).unwrap();
                durable.add_version(d).unwrap();
            }
        }
        let mut reopened = build();
        for d in [&unchanged, &changed] {
            never_closed.add_version(d).unwrap();
            reopened.add_version(d).unwrap();
            assert_eq!(
                reopened.checkpoint_state().unwrap(),
                never_closed.checkpoint_state().unwrap(),
                "cadence {cadence}"
            );
        }
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }
}
