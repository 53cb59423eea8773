//! The no-op rule against the full walk it must equal.
//!
//! Every test here archives the same versions twice — once as shipped,
//! once with `Archive::full_walk` set so `unchanged` never answers `true`
//! — and wants the two archives byte-identical in their Fig-5 XML form.
//! The rule is an optimisation with no say in the result; these tests are
//! what holds it to that.

use proptest::prelude::*;
use xarch_keys::KeySpec;
use xarch_xml::{parse, Document, NodeId};

use super::edit_scripts::{versions_of, SPEC};
use crate::archive::{AKind, ANodeId, Archive, Compaction, MergeTally};
use crate::equiv::equiv_modulo_key_order;

const MODES: [Compaction; 2] = [Compaction::Alternatives, Compaction::Weave];

fn spec() -> KeySpec {
    KeySpec::parse(SPEC).unwrap()
}

fn archive(mode: Compaction, full_walk: bool) -> Archive {
    let mut a = Archive::with_compaction(spec(), mode);
    a.full_walk = full_walk;
    a
}

/// `written_beneath` exactly as defined: some proper descendant carries a
/// timestamp. Merges keep the bit exact, not merely conservative.
fn assert_bits_exact(a: &Archive) {
    fn stamped(a: &Archive, id: ANodeId) -> bool {
        let mut beneath = false;
        for &c in a.children(id) {
            beneath |= stamped(a, c);
        }
        assert_eq!(a.written_beneath(id), beneath, "bit of {id:?}");
        beneath || a.time(id).is_some()
    }
    stamped(a, a.root());
}

/// Archives `docs` serially with the rule on and with it off, checking
/// after every version that the two agree byte for byte, that the
/// invariants hold and the bits are exact, and at the end that every
/// version reads back; then holds every two-batch split to the same
/// bytes and the same tally. Returns the shipped archive's tally.
fn assert_same_as_full_walk(docs: &[Document]) -> [MergeTally; 2] {
    MODES.map(|mode| {
        let (mut skipping, mut full) = (archive(mode, false), archive(mode, true));
        for (i, d) in docs.iter().enumerate() {
            skipping.add_version(d).unwrap();
            full.add_version(d).unwrap();
            skipping.check_invariants().unwrap();
            assert_bits_exact(&skipping);
            assert_eq!(
                skipping.to_xml_pretty(),
                full.to_xml_pretty(),
                "{mode:?}: diverged from the full walk at version {}",
                i + 1
            );
        }
        let off = full.merge_tally();
        assert_eq!((off.subtrees_skipped, off.nodes_compared), (0, 0));
        for (i, d) in docs.iter().enumerate() {
            let got = skipping.retrieve(i as u32 + 1).unwrap();
            assert!(
                equiv_modulo_key_order(&got, d, skipping.spec()),
                "{mode:?}: version {} does not read back",
                i + 1
            );
        }
        let want = full.to_xml_pretty();
        for split in 0..=docs.len() {
            let mut batched = archive(mode, false);
            batched.add_versions(&docs[..split]).unwrap();
            batched.check_invariants().unwrap();
            batched.add_versions(&docs[split..]).unwrap();
            batched.check_invariants().unwrap();
            assert_bits_exact(&batched);
            assert_eq!(
                batched.to_xml_pretty(),
                want,
                "{mode:?}: batches split at {split} diverged from the full walk"
            );
            assert_eq!(batched.merge_tally(), skipping.merge_tally(), "{mode:?}");
        }
        skipping.merge_tally()
    })
}

fn parsed(versions: &[&str]) -> Vec<Document> {
    versions.iter().map(|s| parse(s).unwrap()).collect()
}

// ---------- (a) random edit scripts ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random edit scripts — insert, delete, re-insert after absence,
    /// modify and revert, an attribute beneath the frontier, reorders that
    /// keep content, empty versions, unkeyed mixed content, versions that
    /// change nothing — archive with the rule exactly as without it, in
    /// both compaction modes, serially and for every batch split.
    #[test]
    fn skipping_merge_is_byte_identical_to_the_full_walk(
        scripts in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5), 1..9)
    ) {
        assert_same_as_full_walk(&versions_of(&scripts));
    }
}

/// The scripts give the rule work: over a fixed run of cases subtrees are
/// skipped by the hundred, and compared more often than skipped (some
/// comparisons end in a descent).
#[test]
fn the_edit_scripts_exercise_the_rule() {
    let mut rng = proptest::TestRng::for_case("the_edit_scripts_exercise_the_rule", 0);
    let scripts = proptest::collection::vec(
        proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5),
        8..9,
    );
    let (mut skipped, mut compared) = (0, 0);
    for _ in 0..16 {
        let docs = versions_of(&scripts.generate(&mut rng));
        for mode in MODES {
            let mut a = archive(mode, false);
            a.add_versions(&docs[..4]).unwrap();
            for d in &docs[4..] {
                a.add_version(d).unwrap();
            }
            skipped += a.merge_tally().subtrees_skipped;
            compared += a.merge_tally().nodes_compared;
        }
    }
    assert!(skipped > 100 && compared > skipped, "{skipped} {compared}");
}

// ---------- (b) every place a timestamp is assigned ----------
//
// Each case ends on a version whose subtree is, node for node, what the
// archive physically holds beneath some node — while a timestamp down
// there says otherwise. An ancestor left unmarked would skip it.

/// `terminate`, then the record comes back as it was.
#[test]
fn a_record_terminated_then_reinstated_is_not_skipped_over() {
    let two = "<db><rec><id>1</id><val>a</val></rec><rec><id>2</id><val>b</val></rec></db>";
    let one = "<db><rec><id>1</id><val>a</val></rec></db>";
    assert_same_as_full_walk(&parsed(&[two, one, two, two]));
}

/// `add_empty_version` terminates the document root itself.
#[test]
fn an_empty_version_marks_the_root() {
    let v = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
    for mode in MODES {
        let (mut skipping, mut full) = (archive(mode, false), archive(mode, true));
        for a in [&mut skipping, &mut full] {
            a.add_version(&v).unwrap();
            a.add_empty_version();
            a.add_version(&v).unwrap();
            a.check_invariants().unwrap();
        }
        assert_bits_exact(&skipping);
        assert_eq!(skipping.to_xml_pretty(), full.to_xml_pretty());
        assert!(skipping.retrieve(2).is_none() && skipping.retrieve(3).is_some());
    }
}

/// `insert_new` beneath a record, then the same children again.
#[test]
fn an_inserted_child_is_augmented_not_skipped() {
    let bare = "<db><rec><id>1</id><val>a</val></rec></db>";
    let tel = "<db><rec><id>1</id><val>a</val><tel>5</tel></rec></db>";
    assert_same_as_full_walk(&parsed(&[bare, tel, tel, bare, tel]));
}

/// Stamp creation: alternatives beneath `val`, then the first again.
#[test]
fn alternatives_beneath_a_frontier_node_are_revisited() {
    let a = "<db><rec><id>1</id><val>a</val></rec></db>";
    let b = "<db><rec><id>1</id><val>b</val></rec></db>";
    assert_same_as_full_walk(&parsed(&[a, b, a, a, b]));
}

/// An attribute beneath the frontier is content: the equality walk must
/// read attribute values, not just names.
#[test]
fn an_attribute_changed_beneath_the_frontier_is_a_change() {
    let k1 = "<db><rec><id>1</id><val>x<b k=\"1\">y</b>z</val></rec></db>";
    let k2 = "<db><rec><id>1</id><val>x<b k=\"2\">y</b>z</val></rec></db>";
    assert_same_as_full_walk(&parsed(&[k1, k2, k1, k1]));
}

/// `weave.rs`: a `Text` that gains a timestamp when it leaves, and an
/// element woven in — either way the next version that lists the
/// children the archive physically holds must still be merged.
#[test]
fn woven_content_that_gained_timestamps_is_revisited() {
    let xy = "<db><rec><id>1</id><val>x<i/>y</val></rec></db>";
    let x = "<db><rec><id>1</id><val>x<i/></val></rec></db>";
    let [_, woven] = assert_same_as_full_walk(&parsed(&[xy, x, xy, xy]));
    assert!(woven.subtrees_skipped > 0, "{woven:?}");

    let one = "<db><rec><id>1</id><val><i>x</i></val></rec></db>";
    let two = "<db><rec><id>1</id><val><i>x</i><i>y</i></val></rec></db>";
    assert_same_as_full_walk(&parsed(&[one, two, two, one, two]));

    // the Text really did gain a stamp of its own
    let mut a = archive(Compaction::Weave, false);
    a.add_versions(&parsed(&[xy, x])).unwrap();
    let texts = (0..a.len() as u32)
        .map(ANodeId)
        .filter(|&n| matches!(a.kind(n), AKind::Text(t) if t == "y") && a.time(n).is_some());
    assert_eq!(texts.count(), 1);
}

/// A record present in only some versions of a batch gets its timestamp
/// there; one the batch never lists is terminated.
#[test]
fn a_batch_marks_what_it_stamps() {
    let two = "<db><rec><id>1</id><val>a</val></rec><rec><id>2</id><val>b</val></rec></db>";
    let one = "<db><rec><id>1</id><val>a</val></rec></db>";
    for tail in [[one, two], [one, one]] {
        let docs = parsed(&[two, tail[0], tail[1], two]);
        for mode in MODES {
            let (mut skipping, mut full) = (archive(mode, false), archive(mode, true));
            for a in [&mut skipping, &mut full] {
                a.add_version(&docs[0]).unwrap();
                a.add_versions(&docs[1..3]).unwrap();
                a.add_version(&docs[3]).unwrap();
                a.check_invariants().unwrap();
            }
            assert_bits_exact(&skipping);
            assert_eq!(skipping.to_xml_pretty(), full.to_xml_pretty(), "{mode:?}");
        }
        assert_same_as_full_walk(&docs);
    }
}

/// A batch tallies as serial merges: every document of it is annotated
/// against the archive the ones before it left, so a record the batch
/// changes and restores is held again (`[a, a, b, a]`), and so is every
/// record an OMIM-shaped release leaves alone — for every two-batch
/// split.
#[test]
fn a_batch_tallies_as_serial_merges() {
    let a = "<db><rec><id>1</id><val>a</val></rec></db>";
    let b = "<db><rec><id>1</id><val>b</val></rec></db>";
    assert_batches_tally_as_serial(&spec(), &parsed(&[a, a, b, a]));

    // releases that change one record's Text, drop one record and add one
    let mut releases = vec![omim(0, 24)];
    for r in 1..8 {
        let mut next = releases[r - 1].clone();
        let root = next.root();
        let rec = next.children(root)[(5 * r) % next.children(root).len()];
        let text = next.first_child_element(rec, "Text").unwrap();
        next.set_text(next.children(text)[0], &format!("revised in {r}"));
        next.remove_child(root, (3 * r) % next.children(root).len());
        let extra = omim(10 * r as u64, 1);
        next.copy_subtree_from(&extra, extra.children(extra.root())[0], root);
        releases.push(next);
    }
    let skipped = assert_batches_tally_as_serial(&omim_spec(), &releases);
    assert!(skipped > 100, "{skipped}");
}

/// Archives `docs` serially and as two batches split at every point, in
/// both compaction modes, and wants the same archive and the same tally.
/// Returns the subtrees the serial merges skipped, summed over the modes.
fn assert_batches_tally_as_serial(spec: &KeySpec, docs: &[Document]) -> u64 {
    let mut skipped = 0;
    for mode in MODES {
        let mut serial = Archive::with_compaction(spec.clone(), mode);
        for d in docs {
            serial.add_version(d).unwrap();
        }
        skipped += serial.merge_tally().subtrees_skipped;
        for split in 0..=docs.len() {
            let mut batched = Archive::with_compaction(spec.clone(), mode);
            batched.add_versions(&docs[..split]).unwrap();
            batched.add_versions(&docs[split..]).unwrap();
            let what = format!("{mode:?}: split at {split}");
            assert_eq!(batched.to_xml_pretty(), serial.to_xml_pretty(), "{what}");
            assert_eq!(batched.merge_tally(), serial.merge_tally(), "{what}");
        }
    }
    skipped
}

// ---------- counts ----------

fn omim(seed: u64, records: usize) -> Document {
    // `xarch_datagen` depends on this crate; this is its record shape
    let mut doc = Document::new("ROOT");
    for n in 0..records {
        let rec = doc.add_element(doc.root(), "Record");
        let num = 100_000 + 7 * n as u64 + seed;
        doc.add_text_element(rec, "Num", &num.to_string());
        doc.add_text_element(rec, "Title", &format!("*{num} TITLE"));
        for alt in 0..n % 3 {
            doc.add_text_element(rec, "AlternativeTitle", &format!("ALT {alt}"));
        }
        doc.add_text_element(rec, "Text", &format!("text of {num}"));
        for (tag, who) in [("Contributors", "Ada"), ("Creation_Date", "Bob")] {
            let c = doc.add_element(rec, tag);
            doc.add_text_element(c, "Name", who);
            if tag == "Contributors" {
                doc.add_text_element(c, "CNtype", "updated");
            }
            let date = doc.add_element(c, "Date");
            for (part, value) in [("Month", "6"), ("Day", "9"), ("Year", "2001")] {
                doc.add_text_element(date, part, value);
            }
        }
    }
    doc
}

fn omim_spec() -> KeySpec {
    KeySpec::parse(
        "(/, (ROOT, {}))\n\
         (/ROOT, (Record, {Num}))\n\
         (/ROOT/Record, (Title, {}))\n\
         (/ROOT/Record, (AlternativeTitle, {\\e}))\n\
         (/ROOT/Record, (Text, {}))\n\
         (/ROOT/Record, (Contributors, {Name, CNtype, Date/Month, Date/Day, Date/Year}))\n\
         (/ROOT/Record/Contributors, (Date, {}))\n\
         (/ROOT/Record, (Creation_Date, {Name, Date/Month, Date/Day, Date/Year}))\n\
         (/ROOT/Record/Creation_Date, (Date, {}))",
    )
    .unwrap()
}

/// Nodes beneath `id`, itself not counted: what an equality walk that
/// runs to the end compares.
fn nodes_beneath(doc: &Document, id: NodeId) -> u64 {
    (doc.children(id).iter())
        .map(|&c| 1 + nodes_beneath(doc, c))
        .sum()
}

/// What merging `next` adds to the tally of an archive holding `base`
/// and then `base` plus one more record — so `ROOT` has been written
/// beneath and the rule is decided record by record. The archive must
/// come out as the full walk builds it.
fn tally_of(base: &Document, next: &Document) -> MergeTally {
    let mut grown = base.clone();
    let extra = omim(3, 1);
    let rec = extra.children(extra.root())[0];
    grown.copy_subtree_from(&extra, rec, grown.root());
    let mut next = next.clone();
    next.copy_subtree_from(&extra, rec, next.root());

    let mut a = Archive::new(omim_spec());
    a.add_versions(&[base.clone(), grown]).unwrap();
    let mut full = a.clone();
    full.full_walk = true;
    let before = a.merge_tally();
    a.add_version(&next).unwrap();
    full.add_version(&next).unwrap();
    assert_eq!(a.to_xml_pretty(), full.to_xml_pretty());
    let after = a.merge_tally();
    MergeTally {
        subtrees_skipped: after.subtrees_skipped - before.subtrees_skipped,
        nodes_compared: after.nodes_compared - before.nodes_compared,
        keys_extracted: after.keys_extracted - before.keys_extracted,
    }
}

/// "O(changed)" as counts that repeat exactly.
#[test]
fn the_tally_counts_what_a_release_changed() {
    let base = omim(0, 300);
    let root = base.root();
    let beneath_root = nodes_beneath(&base, root);
    let extra_record = nodes_beneath(&omim(3, 1), NodeId(0));
    let keyed = xarch_keys::annotate(&base, &omim_spec())
        .unwrap()
        .keyed_count() as u64;

    // a first release archived twice: ROOT itself has never been written
    // beneath, so the rule returns there — one skip, nothing descended,
    // and of the second release's keys only ROOT's extracted (ROOT held)
    let mut a = Archive::new(omim_spec());
    a.add_version(&base).unwrap();
    let first = MergeTally {
        keys_extracted: keyed,
        ..MergeTally::default()
    };
    assert_eq!(a.merge_tally(), first);
    a.add_version(&base).unwrap();
    let once = MergeTally {
        subtrees_skipped: 1,
        nodes_compared: beneath_root,
        keys_extracted: keyed + 1,
    };
    assert_eq!(a.merge_tally(), once);

    // the same three times as one batch into an empty archive: each
    // version is annotated against the archive the ones before it left,
    // so the second and the third are held at ROOT — two skips, nothing
    // descended, and of their keys only ROOT's extracted
    let mut batched = Archive::new(omim_spec());
    batched
        .add_versions(&[base.clone(), base.clone(), base.clone()])
        .unwrap();
    let twice = MergeTally {
        subtrees_skipped: 2,
        nodes_compared: 2 * beneath_root,
        keys_extracted: keyed + 2,
    };
    assert_eq!(batched.merge_tally(), twice);

    // an identical release once ROOT holds a stamped record: every
    // Record skipped, none descended into — each node compared once
    let same = tally_of(&base, &base);
    assert_eq!(same.subtrees_skipped, 301);
    // ROOT's key and each Record's, every Record held
    assert_eq!(same.keys_extracted, 1 + 301);
    assert_eq!(
        same.nodes_compared,
        beneath_root - 300 + extra_record - 1,
        "the walk beneath each Record, Records themselves paired by label"
    );

    // one Text modified: all records but that one skipped; in it, every
    // keyed child but Text
    let mut modified = base.clone();
    let rec = modified.children(root)[17];
    let text = modified.first_child_element(rec, "Text").unwrap();
    modified.set_text(modified.children(text)[0], "a new paragraph");
    let one = tally_of(&base, &modified);
    let siblings = modified.children(rec).len() as u64 - 1;
    assert_eq!(one.subtrees_skipped, 300 + siblings);

    // Records permuted under ROOT: they pair by label, each is skipped
    let mut permuted = Document::new("ROOT");
    for &r in base.children(root).iter().rev() {
        permuted.copy_subtree_from(&base, r, permuted.root());
    }
    let perm = tally_of(&base, &permuted);
    assert_eq!(perm.subtrees_skipped, 301);

    // children reordered inside each Record: no Record is skipped — its
    // keyed children are, one by one — and the archive is what the full
    // walk builds (`tally_of` checks that for every case)
    let mut inside = Document::new("ROOT");
    let mut children = 0;
    for &r in base.children(root) {
        let rec = inside.add_element(inside.root(), "Record");
        for &c in base.children(r).iter().rev() {
            inside.copy_subtree_from(&base, c, rec);
            children += 1;
        }
    }
    assert_eq!(tally_of(&base, &inside).subtrees_skipped, children + 1);
}
