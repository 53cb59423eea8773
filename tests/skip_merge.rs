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
use xarch::core::{AKind, Archive, Compaction, MergeTally};
use xarch::datagen::company::{company_spec, company_versions};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::datagen::swissprot::{swissprot_spec, SwissProtGen};
use xarch::storage::scratch_path;
use xarch::xml::Document;
use xarch::{ArchiveBuilder, VersionStore};

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
    live_in(Compaction::Alternatives)
}

fn live_in(mode: Compaction) -> (Archive, Document, Document) {
    let mut docs = releases();
    let changed = docs.pop().unwrap();
    let unchanged = docs.last().unwrap().clone();
    let mut a = Archive::with_compaction(omim_spec(), mode);
    for d in &docs {
        a.add_version(d).unwrap();
    }
    (a, unchanged, changed)
}

/// What `a` has tallied since `since`.
fn tally(a: &Archive, since: MergeTally) -> (u64, u64, u64) {
    let t = a.merge_tally();
    (
        t.subtrees_skipped - since.subtrees_skipped,
        t.nodes_compared - since.nodes_compared,
        t.keys_extracted - since.keys_extracted,
    )
}

/// Merges `unchanged` then `changed` into both archives and wants them
/// alike after each: the same Fig-5 XML, and the same subtrees skipped,
/// nodes compared and keys extracted on the way — the restored archive
/// marked exactly the nodes the live one has marked, and holds the keys
/// it holds.
fn assert_merges_alike(mut live: Archive, mut restored: Archive, next: [&Document; 2]) {
    restored.check_invariants().unwrap();
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

/// The two arenas hold the same tree: node for node the same kind,
/// attributes, timestamp, key and class.
fn assert_same_nodes(live: &Archive, other: &Archive, what: &str) {
    let show = |a: &Archive, id| {
        let n = a.node(id);
        let kind = match &n.kind {
            AKind::Element(s) => format!("<{}>", a.syms().resolve(*s)),
            AKind::Text(t) => format!("{t:?}"),
            AKind::Stamp => "<T>".to_owned(),
        };
        let attrs: Vec<(&str, &str)> = (n.attrs.iter())
            .map(|(s, v)| (a.syms().resolve(*s), v.as_str()))
            .collect();
        let time = n.time.as_ref().map(|t| t.to_string());
        let key = n.key.as_ref().map(|k| k.to_string());
        format!("{kind} {attrs:?} t={time:?} key={key:?} {:?}", n.class)
    };
    let mut pairs = vec![(live.root(), other.root())];
    while let Some((x, y)) = pairs.pop() {
        assert_eq!(show(live, x), show(other, y), "{what}");
        assert_eq!(live.children(x).len(), other.children(y).len(), "{what}");
        pairs.extend(
            live.children(x)
                .iter()
                .copied()
                .zip(other.children(y).iter().copied()),
        );
    }
}

/// An archive imported from its Fig-5 XML — OMIM, Swiss-Prot and the
/// paper's company example, in both compaction modes — is the live one
/// node for node, and stays so while every version is merged into both
/// again, with the same tally.
#[test]
fn an_xml_imported_archive_merges_as_the_live_one() {
    for mode in [Compaction::Alternatives, Compaction::Weave] {
        let (live, unchanged, changed) = live_in(mode);
        let imported = from_xml(&live.to_xml(), &omim_spec(), mode).unwrap();
        assert_same_nodes(&live, &imported, "OMIM");
        assert_merges_alike(live, imported, [&unchanged, &changed]);

        let sets = [
            ("OMIM", omim_spec(), releases()),
            (
                "Swiss-Prot",
                swissprot_spec(),
                SwissProtGen::new(5).sequence(20, 5),
            ),
            ("company", company_spec(), company_versions()),
        ];
        for (name, spec, docs) in sets {
            let mut live = Archive::with_compaction(spec.clone(), mode);
            for d in &docs {
                live.add_version(d).unwrap();
            }
            let mut imported = from_xml(&live.to_xml(), &spec, mode).unwrap();
            imported.check_invariants().unwrap();
            assert_same_nodes(&live, &imported, &format!("{name} {mode:?} imported"));
            for (i, d) in docs.iter().enumerate() {
                let what = format!("{name} {mode:?}: version {} merged again", i + 1);
                let (l0, i0) = (live.merge_tally(), imported.merge_tally());
                live.add_version(d).unwrap();
                imported.add_version(d).unwrap();
                imported.check_invariants().unwrap();
                assert_eq!(imported.to_xml_pretty(), live.to_xml_pretty(), "{what}");
                assert_same_nodes(&live, &imported, &what);
                assert_eq!(tally(&imported, i0), tally(&live, l0), "{what}");
            }
        }
    }
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
                .open()
                .unwrap()
        };
        let mut never_closed = ArchiveBuilder::new(omim_spec()).open().unwrap();
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
                encode_archive(reopened.archive()),
                encode_archive(never_closed.archive()),
                "cadence {cadence}"
            );
        }
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }
}
