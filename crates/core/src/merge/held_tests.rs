//! Annotating against the archive against the eager annotation it must
//! equal.
//!
//! Every test here archives the same versions twice — once as shipped,
//! each version annotated against the archive with the subtrees it holds
//! left unannotated, and once with `Archive::eager_annotate` set, so every
//! version is annotated whole — and wants the two alike after every
//! commit: the same Fig-5 XML, node for node the same timestamps, keys and
//! classes, and the same skips and comparisons. Only the keys extracted
//! may differ, and only downwards.

use proptest::prelude::*;
use xarch_keys::{annotate, KeySpec};
use xarch_xml::{parse, Document, NodeKind, MAX_DEPTH};

use super::edit_scripts::{versions_of, SPEC};
use crate::archive::{Archive, Compaction, MergeError, MergeTally};
use crate::state::{decode_archive, encode_archive};
use crate::xmlrep::from_xml;

const MODES: [Compaction; 2] = [Compaction::Alternatives, Compaction::Weave];

fn spec() -> KeySpec {
    KeySpec::parse(SPEC).unwrap()
}

fn archive(mode: Compaction, eager: bool) -> Archive {
    let mut a = Archive::with_compaction(spec(), mode);
    a.eager_annotate = eager;
    a
}

fn parsed(versions: &[&str]) -> Vec<Document> {
    versions.iter().map(|s| parse(s).unwrap()).collect()
}

/// `held` and `eager` hold the same archive, and have tallied the same
/// since `since` (theirs, in that order) but for keys extracted, of which
/// `held` has at most as many.
fn assert_alike(held: &Archive, eager: &Archive, since: [MergeTally; 2], what: &str) {
    held.check_invariants().unwrap();
    assert_eq!(held.to_xml_pretty(), eager.to_xml_pretty(), "{what}");
    let mut pairs = vec![(held.root(), eager.root())];
    while let Some((x, y)) = pairs.pop() {
        assert_eq!(
            (held.time(x), held.key(x), held.class(x)),
            (eager.time(y), eager.key(y), eager.class(y)),
            "{what}"
        );
        assert_eq!(held.children(x).len(), eager.children(y).len(), "{what}");
        pairs.extend(
            held.children(x)
                .iter()
                .copied()
                .zip(eager.children(y).iter().copied()),
        );
    }
    let [h0, e0] = since;
    let (h, e) = (held.merge_tally(), eager.merge_tally());
    assert_eq!(
        (
            h.subtrees_skipped - h0.subtrees_skipped,
            h.nodes_compared - h0.nodes_compared
        ),
        (
            e.subtrees_skipped - e0.subtrees_skipped,
            e.nodes_compared - e0.nodes_compared
        ),
        "{what}"
    );
    assert!(
        h.keys_extracted - h0.keys_extracted <= e.keys_extracted - e0.keys_extracted,
        "{what}"
    );
}

/// Archives `docs` held and eager, serially and as two batches split at
/// every point, in both compaction modes, checking after every commit.
/// Returns the keys each side extracted serially, summed over the modes.
fn assert_same_as_eager(docs: &[Document]) -> [u64; 2] {
    let none = [MergeTally::default(); 2];
    let mut extracted = [0; 2];
    for mode in MODES {
        let (mut held, mut eager) = (archive(mode, false), archive(mode, true));
        for (i, d) in docs.iter().enumerate() {
            held.add_version(d).unwrap();
            eager.add_version(d).unwrap();
            assert_alike(&held, &eager, none, &format!("{mode:?}: version {}", i + 1));
        }
        extracted[0] += held.merge_tally().keys_extracted;
        extracted[1] += eager.merge_tally().keys_extracted;
        for split in 0..=docs.len() {
            let (mut held, mut eager) = (archive(mode, false), archive(mode, true));
            for part in [&docs[..split], &docs[split..]] {
                held.add_versions(part).unwrap();
                eager.add_versions(part).unwrap();
                assert_alike(&held, &eager, none, &format!("{mode:?}: split at {split}"));
            }
        }
    }
    extracted
}

fn edit_scripts() -> impl Strategy<Value = Vec<Vec<(u8, u8)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5),
        1..9,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random edit scripts archive alike whether each version is
    /// annotated against the archive or whole.
    #[test]
    fn annotating_against_the_archive_merges_as_annotating_whole(scripts in edit_scripts()) {
        assert_same_as_eager(&versions_of(&scripts));
    }
}

/// The scripts give holding work: over a fixed run of cases, more than a
/// quarter of the keys an eager annotation extracts never are (every
/// script's first version is annotated whole).
#[test]
fn the_edit_scripts_hold_subtrees() {
    let mut rng = proptest::TestRng::for_case("the_edit_scripts_hold_subtrees", 0);
    let (mut held, mut eager) = (0, 0);
    for _ in 0..16 {
        let [h, e] = assert_same_as_eager(&versions_of(&edit_scripts().generate(&mut rng)));
        held += h;
        eager += e;
    }
    assert!(4 * held < 3 * eager, "{held} of {eager}");
}

// ---------- errors ----------

/// The archive the error cases start from: one version, or two (so `db`
/// has been written beneath and records are decided one by one).
fn rejecting(mode: Compaction, written: bool) -> Archive {
    let first = "<db><rec><id>2</id><val>b</val></rec>\
                 <rec><id>1</id><val>a</val><grp><name>g</name><item><k>1</k><v>1</v></item></grp></rec>\
                 <rec><id>3</id><val>c</val></rec><rec><id>5</id><val>e</val></rec></db>";
    let mut a = archive(mode, false);
    a.add_version(&parse(first).unwrap()).unwrap();
    if written {
        a.add_version(&parse(&first.replace("<rec><id>5</id><val>e</val></rec>", "")).unwrap())
            .unwrap();
    }
    a
}

/// `template` with `{F}` replaced by `fault`; an element `deep` in it
/// then gets `MAX_DEPTH` more nested beneath it (text cannot nest that
/// deep: the parser refuses it first).
fn faulty(template: &str, fault: &str) -> Document {
    let mut doc = parse(&template.replace("{F}", fault)).unwrap();
    let deep = doc
        .preorder(doc.root())
        .find(|&n| matches!(doc.kind(n), NodeKind::Element(_)) && doc.tag_name(n) == "deep");
    if let Some(mut at) = deep {
        for _ in 0..MAX_DEPTH {
            at = doc.add_element(at, "deep");
        }
    }
    doc
}

/// A version annotation refuses is refused with `annotate`'s error —
/// serially and inside a batch — and the archive, tally included, is left
/// as it was: a missing key path, a non-unique step and nesting past
/// `MAX_DEPTH`, each in a record changed besides, in one otherwise
/// unchanged and in an inserted one, between records the archive holds.
#[test]
fn a_rejected_version_returns_annotates_error_and_changes_nothing() {
    let faults = [
        "<item><v>1</v></item>",
        "<item><k>7</k><k>8</k><v>1</v></item>",
        "<item><k>9</k><v><deep/></v></item>",
    ];
    let held = "<rec><id>2</id><val>b</val></rec>";
    let rest = "<rec><id>3</id><val>c</val></rec>";
    let item = "<item><k>1</k><v>1</v></item>";
    let templates = [
        format!("<db>{held}<rec><id>1</id><val>z</val><grp><name>g</name>{item}{{F}}</grp></rec>{rest}</db>"),
        format!("<db>{held}<rec><id>1</id><val>a</val><grp><name>g</name>{item}{{F}}</grp></rec>{rest}</db>"),
        format!("<db>{held}<rec><id>4</id><val>d</val><grp><name>g</name>{{F}}</grp></rec>{rest}</db>"),
    ];
    let good = parse(&format!("<db>{held}{rest}</db>")).unwrap();
    for mode in MODES {
        for written in [false, true] {
            for template in &templates {
                for fault in faults {
                    let doc = faulty(template, fault);
                    let want = MergeError::Key(annotate(&doc, &spec()).unwrap_err());
                    let mut a = rejecting(mode, written);
                    let before = (a.to_xml_pretty(), a.latest(), a.merge_tally());
                    assert_eq!(a.add_version(&doc), Err(want.clone()), "{template} {fault}");
                    let batch = [good.clone(), doc.clone()];
                    assert_eq!(a.add_versions(&batch), Err(want), "{template} {fault}");
                    assert_eq!((a.to_xml_pretty(), a.latest(), a.merge_tally()), before);
                }
            }
        }
    }
}

// ---------- hostile shapes ----------

/// Siblings that (illegally) share a label pair positionally: the one in
/// the archive's position is held, the other is annotated and inserted.
#[test]
fn a_duplicate_label_equal_to_an_archived_subtree_is_held_in_its_place() {
    let one = "<db><rec><id>1</id><val>a</val></rec></db>";
    let after = "<db><rec><id>1</id><val>a</val></rec><rec><id>1</id><val>b</val></rec></db>";
    let before = "<db><rec><id>1</id><val>b</val></rec><rec><id>1</id><val>a</val></rec></db>";
    let twice = "<db><rec><id>1</id><val>a</val></rec><rec><id>1</id><val>a</val></rec></db>";
    assert_same_as_eager(&parsed(&[
        one, after, after, one, before, before, after, one, twice, twice, one,
    ]));

    // db, then the first rec held; the second's rec, id and val extracted —
    // also when it equals the archived record too: that one is taken
    for second in [after, twice] {
        let mut a = archive(Compaction::Alternatives, false);
        a.add_version(&parse(one).unwrap()).unwrap();
        let first = a.merge_tally().keys_extracted;
        a.add_version(&parse(second).unwrap()).unwrap();
        let extracted = a.merge_tally().keys_extracted - first;
        assert_eq!((first, extracted), (4, 1 + 1 + 3), "{second}");
    }
}

/// A batch in which a later version holds a subtree that an earlier
/// version of the same batch changed — a `grp` whose item changed, a
/// frontier `val` whose content changed, a whole record changed and then
/// restored. A batch is serial merges behind a rollback point, so each
/// version is held against the archive the versions before it left, and
/// the result, serially and at every batch split, is the eager archive.
#[test]
fn a_held_node_whose_twin_the_batch_writes_beneath_merges_as_eager() {
    let rec = |val: &str, v: &str, tel: &str| {
        format!(
            "<db><rec><id>1</id><val>{val}</val>{tel}<grp><name>g</name>\
             <item><k>1</k><v>{v}</v></item></grp></rec><rec><id>2</id><val>q</val></rec></db>"
        )
    };
    let base = rec("a", "1", "");
    // grp changed, then held (with val changed beside it)
    let item_changed = rec("a", "2", "");
    let val_changed = rec("b", "1", "");
    // val woven and stamped, then held (with a tel added beside it)
    let woven = rec("x<i>y</i>", "1", "");
    let tel_added = rec("a", "1", "<tel>5</tel>");
    for docs in [
        [&base, &item_changed, &val_changed, &base, &base],
        [&base, &woven, &tel_added, &woven, &base],
        [&base, &val_changed, &base, &base, &item_changed],
    ] {
        let docs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
        assert_same_as_eager(&parsed(&docs));
    }
}

/// A batch that changes a record and then restores it: each version merges
/// in turn behind the batch's rollback point, against the archive the merge
/// before it left. The archive is the eager one, and holding what did not
/// change extracts fewer keys than annotating every version whole.
#[test]
fn a_batch_that_changes_a_record_and_restores_it_merges_as_eager() {
    let a = "<db><rec><id>1</id><val>a</val></rec><rec><id>2</id><val>b</val></rec></db>";
    let b = "<db><rec><id>1</id><val>z</val></rec><rec><id>2</id><val>b</val></rec></db>";
    let [held, eager] = assert_same_as_eager(&parsed(&[a, b, a, a, b, a]));
    assert!(held < eager, "{held} {eager}");
}

/// Archives restored from a checkpoint and imported from their XML hold
/// what they hold as the live archive does: the rest of the versions,
/// serially and as one batch, merge alike with the same tally.
#[test]
fn restored_and_imported_archives_merge_as_the_live_one() {
    let mut rng = proptest::TestRng::for_case("restored_and_imported", 0);
    let scripts = proptest::collection::vec(
        proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5),
        8..9,
    );
    let (mut held_keys, mut eager_keys) = (0, 0);
    for _ in 0..8 {
        let docs = versions_of(&scripts.generate(&mut rng));
        for mode in MODES {
            let mut live = archive(mode, true);
            live.add_versions(&docs[..4]).unwrap();
            let restored = [
                decode_archive(&encode_archive(&live), &spec(), mode)
                    .unwrap()
                    .unwrap(),
                from_xml(&live.to_xml(), &spec(), mode).unwrap(),
            ];
            for (r, how) in restored.into_iter().zip(["checkpoint", "XML"]) {
                let (mut held, mut eager) = (r.clone(), live.clone());
                let since = [held.merge_tally(), eager.merge_tally()];
                for d in &docs[4..] {
                    held.add_version(d).unwrap();
                    eager.add_version(d).unwrap();
                    assert_alike(&held, &eager, since, &format!("{how} {mode:?}"));
                }
                held_keys += held.merge_tally().keys_extracted;
                eager_keys += eager.merge_tally().keys_extracted - since[1].keys_extracted;

                let (mut held, mut eager) = (r, live.clone());
                let since = [held.merge_tally(), eager.merge_tally()];
                held.add_versions(&docs[4..]).unwrap();
                eager.add_versions(&docs[4..]).unwrap();
                assert_alike(&held, &eager, since, &format!("{how} {mode:?} batch"));
            }
        }
    }
    assert!(
        4 * held_keys < 3 * eager_keys,
        "{held_keys} of {eager_keys}"
    );
}
