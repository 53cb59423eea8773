//! The `VersionStore` conformance suite: one generic set of contract
//! checks, run against every backend `ArchiveBuilder` can produce. This is
//! where the trait's behavioural fine print lives — version numbering,
//! the `has_version` vs `retrieve -> None` distinction for archived-but-
//! empty versions, history lookups, statistics, and the equivalence of
//! materialized and streamed retrieval.

mod common;

use std::sync::Arc;

use xarch::core::kernel::{locate, Scan};
use xarch::core::query::{find_in_doc, subtree_doc};
use xarch::core::{equiv_modulo_key_order, ANodeId, Archive, Compaction, KeyQuery};
use xarch::datagen::company::{company_spec, company_versions};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::datagen::swissprot::{swissprot_spec, SwissProtGen};
use xarch::datagen::xmark::{xmark_spec, XmarkGen};
use xarch::index::Indexes;
use xarch::keys::{annotate_with, Fingerprinter, KeySpec};
use xarch::xml::writer::to_compact_string;
use xarch::xml::{parse, Document, NodeId, NodeKind};
use xarch::{ArchiveBuilder, ArchiveHandle, Store, StoreReader, VersionStore};

fn spec() -> KeySpec {
    KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
}

/// Removes the scratch segment files when a test finishes (the stores are
/// dropped first — bindings drop in reverse order — and unlink-while-open
/// is fine on unix anyway).
struct ScratchFiles(Vec<std::path::PathBuf>);

impl Drop for ScratchFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A labelled store under test.
type NamedStore = (&'static str, Store);

/// Every backend, built from the facade, as the acceptance criteria
/// require — each storage tier plain, and the in-memory tier with the
/// query indexes maintained (`.with_index()`), so the indexed fast paths
/// answer the same contract suite as the whole-retrieve fallbacks. The durable
/// backends journal to scratch segment files that the returned guard
/// deletes, so the whole contract suite also exercises the persistent
/// tier without littering the temp directory.
fn all_backends(spec: &KeySpec) -> (ScratchFiles, Vec<NamedStore>) {
    let (guard, mut backends) = backends_compacting(spec, Compaction::Alternatives);
    let weave = ArchiveBuilder::new(spec.clone()).compaction(Compaction::Weave);
    backends.insert(1, ("in-memory/weave", weave.open().unwrap()));
    (guard, backends)
}

/// The tier × index × durability configurations, each under the
/// given frontier compaction mode.
fn backends_compacting(spec: &KeySpec, compaction: Compaction) -> (ScratchFiles, Vec<NamedStore>) {
    let durable_path = xarch::storage::scratch_path("conformance");
    let durable_indexed_path = xarch::storage::scratch_path("conformance-indexed");
    let guard = ScratchFiles(vec![durable_path.clone(), durable_indexed_path.clone()]);
    let builder = || ArchiveBuilder::new(spec.clone()).compaction(compaction);
    let durable = |b: ArchiveBuilder, path| b.durable(path).open().expect("durable store");
    let backends = vec![
        ("in-memory", builder().open().unwrap()),
        ("in-memory/indexed", builder().with_index().open().unwrap()),
        ("durable", durable(builder(), durable_path)),
        (
            "durable/indexed",
            durable(builder().with_index(), durable_indexed_path),
        ),
    ];
    (guard, backends)
}

#[test]
fn version_numbering_and_bounds() {
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        assert_eq!(s.latest(), 0, "{label}");
        assert!(!s.has_version(0), "{label}");
        assert!(!s.has_version(1), "{label}");
        assert!(s.retrieve(0).unwrap().is_none(), "{label}");
        assert!(s.retrieve(1).unwrap().is_none(), "{label}");

        let v1 = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
        let v2 = parse("<db><rec><id>1</id><val>b</val></rec></db>").unwrap();
        assert_eq!(s.add_version(&v1).unwrap(), 1, "{label}");
        assert_eq!(s.add_version(&v2).unwrap(), 2, "{label}");
        assert_eq!(s.latest(), 2, "{label}");
        assert!(s.has_version(1) && s.has_version(2), "{label}");
        assert!(!s.has_version(3), "{label}");
        assert!(s.retrieve(3).unwrap().is_none(), "{label}");
    }
}

#[test]
fn snapshots_pin_reads_on_every_backend() {
    // Behind an ArchiveHandle, a snapshot taken at version P keeps
    // answering as of P — byte for byte — while merges continue. The
    // threaded stress variant lives in tests/concurrency.rs; this is the
    // single-threaded contract check across the whole backend matrix.
    let v1 = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
    let v2 = parse(
        "<db><rec><id>1</id><val>b</val></rec>\
         <rec><id>2</id><val>c</val></rec></db>",
    )
    .unwrap();
    let v3 = parse("<db><rec><id>3</id><val>d</val></rec></db>").unwrap();
    let q1 = [
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", "1"),
    ];
    let q3 = [
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", "3"),
    ];
    // everything a snapshot can be asked, rendered: versions 0..=5 as
    // streamed bytes, histories, a range scan, an as-of, and the stats
    let everything = |snap: &xarch::Snapshot| -> String {
        let mut out = format!(
            "latest {} stats {:?}\n",
            snap.latest(),
            snap.stats().unwrap()
        );
        for v in 0..=5 {
            let mut bytes = Vec::new();
            let found = snap.retrieve_into(v, &mut bytes).unwrap();
            out.push_str(&format!(
                "v{v} {found} {}\n",
                String::from_utf8_lossy(&bytes)
            ));
            out.push_str(&format!(
                "as_of {:?}\n",
                snap.as_of(&q1, v).unwrap().is_some()
            ));
        }
        for q in [&q1[..], &q3[..], &[]] {
            out.push_str(&format!("history {:?}\n", snap.history(q).unwrap()));
        }
        let range = snap.range(&[KeyQuery::new("db")], 1..=u32::MAX).unwrap();
        out.push_str(&format!("range {range:?}\n"));
        out
    };
    let (_scratch, backends) = all_backends(&spec());
    for (label, s) in backends {
        let handle = ArchiveHandle::new(s);
        // a snapshot pinned at every version, with what it answered then
        let mut pins = vec![handle.snapshot()];
        handle.add_version(&v1).unwrap();
        pins.push(handle.snapshot());
        handle.add_version(&v2).unwrap();
        pins.push(handle.snapshot());
        let recorded: Vec<String> = pins.iter().map(everything).collect();
        // record what the archive answers at pin level 2 …
        let snap = handle.snapshot();
        assert_eq!(snap.pinned(), 2, "{label}");
        let mut want_v2 = Vec::new();
        assert!(snap.retrieve_into(2, &mut want_v2).unwrap(), "{label}");
        let want_hist = snap.history(&q1).unwrap().unwrap().to_string();
        let want_range = snap.range(&[KeyQuery::new("db")], 1..=u32::MAX).unwrap();
        // … then keep merging behind it
        handle.add_version(&v3).unwrap();
        handle.add_empty_version().unwrap();
        assert_eq!(handle.latest(), 4, "{label}");

        // the snapshot's world has not moved
        assert_eq!(snap.latest(), 2, "{label}");
        assert!(!snap.has_version(3), "{label}");
        assert!(snap.retrieve(3).unwrap().is_none(), "{label}");
        assert!(snap.history(&q3).unwrap().is_none(), "{label}");
        assert!(snap.as_of(&q3, 2).unwrap().is_none(), "{label}");
        let mut got_v2 = Vec::new();
        assert!(snap.retrieve_into(2, &mut got_v2).unwrap(), "{label}");
        assert_eq!(got_v2, want_v2, "{label}: pinned retrieve changed");
        assert_eq!(
            snap.history(&q1).unwrap().unwrap().to_string(),
            want_hist,
            "{label}: pinned history changed"
        );
        assert_eq!(
            snap.range(&[KeyQuery::new("db")], 1..=u32::MAX).unwrap(),
            want_range,
            "{label}: pinned range changed"
        );
        // while a fresh snapshot sees the later merges
        let live = handle.snapshot();
        assert_eq!(live.pinned(), 4, "{label}");
        assert!(live.history(&q3).unwrap().is_some(), "{label}");
        // and every earlier pin answers — stats included — exactly as it
        // did when taken
        for (p, (pin, want)) in pins.iter().zip(&recorded).enumerate() {
            assert_eq!(pin.pinned(), p as u32, "{label}");
            assert_eq!(&everything(pin), want, "{label}: pin {p} moved");
        }
    }
}

#[test]
fn archived_but_empty_versions_are_distinguishable() {
    let doc = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        s.add_version(&doc).unwrap();
        assert_eq!(s.add_empty_version().unwrap(), 2, "{label}");
        // v2 exists…
        assert!(s.has_version(2), "{label}");
        // …but holds no document: retrieve is None, retrieve_into writes
        // nothing — exactly the `Archive::retrieve` contract.
        assert!(s.retrieve(2).unwrap().is_none(), "{label}");
        let mut bytes = Vec::new();
        assert!(!s.retrieve_into(2, &mut bytes).unwrap(), "{label}");
        assert!(bytes.is_empty(), "{label}");
        // the element's history ends at version 1
        let q = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ];
        assert_eq!(s.history(&q).unwrap().unwrap().to_string(), "1", "{label}");
        // archiving resumes cleanly after the gap
        assert_eq!(s.add_version(&doc).unwrap(), 3, "{label}");
        let got = s.retrieve(3).unwrap().expect("resumed");
        assert!(equiv_modulo_key_order(&got, &doc, s.spec()), "{label}");
    }
}

#[test]
fn failed_add_leaves_store_unchanged() {
    // Regression: a rejected document (unkeyed root) must not mutate the
    // store — the chunked backend used to record the bad root tag before
    // merging, poisoning every later add.
    let good = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
    let bad = parse("<nope><rec><id>1</id></rec></nope>").unwrap();
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        assert!(s.add_version(&bad).is_err(), "{label}");
        assert_eq!(s.latest(), 0, "{label}: failed add burned a version");
        // the store still works, with the correct root
        assert_eq!(s.add_version(&good).unwrap(), 1, "{label}");
        assert!(s.add_version(&bad).is_err(), "{label}");
        assert_eq!(s.latest(), 1, "{label}");
        let got = s.retrieve(1).unwrap().expect("archived");
        assert!(equiv_modulo_key_order(&got, &good, s.spec()), "{label}");
    }
}

#[test]
fn history_answers_match_across_backends() {
    let versions = [
        "<db><rec><id>1</id><val>a</val></rec></db>",
        "<db><rec><id>1</id><val>a</val></rec><rec><id>2</id><val>b</val></rec></db>",
        "<db><rec><id>2</id><val>b</val></rec></db>",
    ];
    let queries: Vec<(Vec<KeyQuery>, Option<&str>)> = vec![
        (vec![KeyQuery::new("db")], Some("1-3")),
        (
            vec![
                KeyQuery::new("db"),
                KeyQuery::new("rec").with_text("id", "1"),
            ],
            Some("1-2"),
        ),
        (
            vec![
                KeyQuery::new("db"),
                KeyQuery::new("rec").with_text("id", "2"),
            ],
            Some("2-3"),
        ),
        (
            vec![
                KeyQuery::new("db"),
                KeyQuery::new("rec").with_text("id", "1"),
                KeyQuery::new("val"),
            ],
            Some("1-2"),
        ),
        (
            vec![
                KeyQuery::new("db"),
                KeyQuery::new("rec").with_text("id", "9"),
            ],
            None,
        ),
    ];
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        for src in versions {
            s.add_version(&parse(src).unwrap()).unwrap();
        }
        for (q, want) in &queries {
            let got = s.history(q).unwrap().map(|t| t.to_string());
            assert_eq!(got.as_deref(), *want, "{label}: query {q:?}");
        }
    }
}

#[test]
fn stats_report_storage() {
    let doc = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        let empty = s.stats().unwrap();
        s.add_version(&doc).unwrap();
        let one = s.stats().unwrap();
        assert_eq!(one.versions, 1, "{label}");
        assert!(one.elements > empty.elements, "{label}: {one:?}");
        assert!(one.texts >= 2, "{label}: {one:?}"); // id + val text nodes
        assert!(one.size_bytes > 0, "{label}");
    }
}

#[test]
fn as_of_matches_filtered_retrieve() {
    // the tentpole contract: partial retrieval agrees with filtering a
    // full retrieve, on every backend, for hits, misses, and versions
    // where the element is dead
    let versions = [
        "<db><rec><id>1</id><val>a</val></rec></db>",
        "<db><rec><id>1</id><val>b</val></rec><rec><id>2</id><val>c</val></rec></db>",
        "<db><rec><id>2</id><val>c</val></rec></db>",
    ];
    let paths: Vec<Vec<KeyQuery>> = vec![
        vec![],
        vec![KeyQuery::new("db")],
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ],
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "2"),
        ],
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
            KeyQuery::new("val"),
        ],
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "9"),
        ],
    ];
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        for src in versions {
            s.add_version(&parse(src).unwrap()).unwrap();
        }
        for v in 0..=4u32 {
            for q in &paths {
                let got = s.as_of(q, v).unwrap();
                let whole = s.retrieve(v).unwrap();
                let want = whole.as_ref().and_then(|doc| {
                    if q.is_empty() {
                        Some(doc.clone())
                    } else {
                        find_in_doc(doc, s.spec(), q).and_then(|id| subtree_doc(doc, id))
                    }
                });
                assert_eq!(
                    got.is_some(),
                    want.is_some(),
                    "{label}: as_of presence diverged for {q:?} at v{v}"
                );
                if let (Some(g), Some(w)) = (got, want) {
                    assert!(
                        equiv_modulo_key_order(&g, &w, s.spec()),
                        "{label}: as_of content diverged for {q:?} at v{v}"
                    );
                }
            }
        }
    }
}

#[test]
fn range_scans_clamp_lifetimes() {
    let versions = [
        "<db><rec><id>1</id><val>a</val></rec></db>",
        "<db><rec><id>1</id><val>a</val></rec><rec><id>2</id><val>b</val></rec></db>",
        "<db><rec><id>2</id><val>b</val></rec><rec><id>3</id><val>c</val></rec></db>",
    ];
    let prefix = vec![KeyQuery::new("db")];
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        for src in versions {
            s.add_version(&parse(src).unwrap()).unwrap();
        }
        // whole window: all three records with their lifetimes
        let hits = s.range(&prefix, 1..=3).unwrap();
        let summary: Vec<(String, String)> = hits
            .iter()
            .map(|e| (e.step.key().parts()[0].canon.clone(), e.time.to_string()))
            .collect();
        assert_eq!(
            summary,
            vec![
                ("<id>1</id>".to_owned(), "1-2".to_owned()),
                ("<id>2</id>".to_owned(), "2-3".to_owned()),
                ("<id>3</id>".to_owned(), "3".to_owned()),
            ],
            "{label}"
        );
        // clamped window drops record 3 and trims the others
        let hits = s.range(&prefix, 1..=2).unwrap();
        let summary: Vec<(String, String)> = hits
            .iter()
            .map(|e| (e.step.key().parts()[0].canon.clone(), e.time.to_string()))
            .collect();
        assert_eq!(
            summary,
            vec![
                ("<id>1</id>".to_owned(), "1-2".to_owned()),
                ("<id>2</id>".to_owned(), "2".to_owned()),
            ],
            "{label}"
        );
        // empty prefix addresses the synthetic root: one hit, the doc root
        let hits = s.range(&[], 1..=3).unwrap();
        assert_eq!(hits.len(), 1, "{label}");
        assert_eq!(hits[0].step.tag(), "db", "{label}");
        assert_eq!(hits[0].time.to_string(), "1-3", "{label}");
        // a window beyond the archive is empty
        assert!(s.range(&prefix, 7..=9).unwrap().is_empty(), "{label}");
    }
}

#[test]
fn history_values_and_diff_track_content() {
    let versions = [
        "<db><rec><id>1</id><val>a</val></rec></db>",
        "<db><rec><id>1</id><val>a</val></rec></db>",
        "<db><rec><id>1</id><val>z</val></rec></db>",
    ];
    let q = vec![
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", "1"),
    ];
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        for src in versions {
            s.add_version(&parse(src).unwrap()).unwrap();
        }
        let h = s.history_values(&q).unwrap().expect("archived");
        assert_eq!(h.existence.to_string(), "1-3", "{label}");
        assert_eq!(h.values.len(), 2, "{label}: {:?}", h.values);
        assert_eq!(h.values[0].0.to_string(), "1-2", "{label}");
        assert!(h.values[0].1.contains("<val>a</val>"), "{label}");
        assert_eq!(h.values[1].0.to_string(), "3", "{label}");
        assert!(h.values[1].1.contains("<val>z</val>"), "{label}");
        // diff: unchanged pair, changed pair,
        // element-vs-absent
        assert!(s.diff(&q, 1, 2).unwrap().is_same(), "{label}");
        let d = s.diff(&q, 2, 3).unwrap();
        assert!(!d.is_same(), "{label}");
        assert!(d.removed >= 1 && d.added >= 1, "{label}: {d:?}");
        assert!(d.script.contains('a') || d.script.contains('c'), "{label}");
        let missing = vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "9"),
        ];
        let d = s.diff(&missing, 1, 3).unwrap();
        assert_eq!(d.present, (false, false), "{label}");
        assert!(d.is_same(), "{label}");
        // history_values on a missing element is None
        assert!(s.history_values(&missing).unwrap().is_none(), "{label}");
        // the empty path addresses the whole document: values are document
        // contents (never a synthetic-root wrapper), same on every backend
        let whole = s.history_values(&[]).unwrap().expect("root exists");
        assert_eq!(whole.existence.to_string(), "1-3", "{label}");
        assert_eq!(whole.values.len(), 2, "{label}: {:?}", whole.values);
        for (_, content) in &whole.values {
            assert!(content.starts_with("<db>"), "{label}: {content}");
        }
    }
}

/// The scripted history the oracle tests run: a value that reverts
/// (A → B → A), an element deleted and re-inserted, an empty version in the
/// middle, a change in a nested keyed child and one in an attribute.
/// `None` is an empty version.
fn scripted_history() -> (KeySpec, Vec<Option<Document>>, Vec<Vec<KeyQuery>>) {
    let spec = KeySpec::parse(
        "(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))\n\
         (/db/rec, (item, {name}))\n(/db/rec/item, (qty, {}))",
    )
    .unwrap();
    let rec1 = |unit: &str, val: &str, items: &[(&str, u32)]| {
        let items: String = items
            .iter()
            .map(|(name, qty)| format!("<item><name>{name}</name><qty>{qty}</qty></item>"))
            .collect();
        format!("<rec><id>1</id><val><m unit=\"{unit}\">{val}</m></val>{items}</rec>")
    };
    let rec = |id: u32, val: &str| format!("<rec><id>{id}</id><val>{val}</val></rec>");
    let versions = [
        Some(rec1("kg", "A", &[("x", 1)]) + &rec(2, "p")),
        Some(rec1("kg", "B", &[("x", 1)]) + &rec(2, "p")),
        // rec 1's value reverts
        Some(rec1("kg", "A", &[("x", 1)]) + &rec(2, "p")),
        None,
        // rec 2 is deleted; rec 3 arrives
        Some(rec1("kg", "A", &[("x", 1)]) + &rec(3, "u")),
        // a nested keyed child changes, rec 3's value moves away …
        Some(rec1("kg", "A", &[("x", 2)]) + &rec(3, "w")),
        // … and back; an attribute beneath the frontier changes; rec 2 returns
        Some(rec1("g", "A", &[("x", 2)]) + &rec(2, "p") + &rec(3, "u")),
        // a nested keyed child is inserted
        Some(rec1("g", "A", &[("x", 2), ("y", 7)]) + &rec(2, "p") + &rec(3, "u")),
    ]
    .map(|recs| recs.map(|recs| parse(&format!("<db>{recs}</db>")).unwrap()));
    let rec_path = |id: &str| {
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", id),
        ]
    };
    let item_x = [
        rec_path("1"),
        vec![KeyQuery::new("item").with_text("name", "x")],
    ]
    .concat();
    let paths = vec![
        vec![],
        vec![KeyQuery::new("db")],
        rec_path("1"),
        rec_path("2"),
        rec_path("3"),
        [rec_path("1"), vec![KeyQuery::new("val")]].concat(),
        [item_x.clone(), vec![KeyQuery::new("qty")]].concat(),
        item_x,
        [
            rec_path("1"),
            vec![KeyQuery::new("item").with_text("name", "y")],
        ]
        .concat(),
        // never archived: absent on both sides of every diff
        rec_path("9"),
    ];
    (spec, versions.into(), paths)
}

#[test]
fn history_values_and_diff_equal_their_per_version_definitions() {
    // The arena backends answer both from the stored change points — one
    // emit per interval of constant content, none for an unchanged diff;
    // the definitions are per version. Same answers, on every backend
    // configuration under both compaction modes, for every path and every
    // ordered pair of versions (never-archived 0 and 9 included).
    let (spec, versions, paths) = scripted_history();
    for compaction in [Compaction::Alternatives, Compaction::Weave] {
        let (_scratch, backends) = backends_compacting(&spec, compaction);
        for (label, mut s) in backends {
            for doc in &versions {
                match doc {
                    Some(doc) => s.add_version(doc).unwrap(),
                    None => s.add_empty_version().unwrap(),
                };
            }
            if let Err(diverged) = common::check_against_definitions(&s, &paths) {
                panic!("{label} under {compaction:?}: {diverged}");
            }
            // and the definitions say what the script was written to say
            let held = |path: &[KeyQuery]| -> (String, Vec<String>) {
                let h = s.history_values(path).unwrap().expect("archived");
                let runs = h.values.iter().map(|(t, _)| t.to_string()).collect();
                (h.existence.to_string(), runs)
            };
            let said = |existence: &str, runs: &[&str]| {
                let runs = runs.iter().map(|r| r.to_string()).collect();
                (existence.to_owned(), runs)
            };
            // A → B → A comes back as one entry holding two runs
            assert_eq!(held(&paths[4]), said("5-8", &["5,7-8", "6"]), "{label}");
            // deleted and re-inserted: a gap in existence, one content
            assert_eq!(held(&paths[3]), said("1-3,7-8", &["1-3,7-8"]), "{label}");
            assert_eq!(
                held(&paths[2]),
                said("1-3,5-8", &["1,3,5", "2", "6", "7", "8"]),
                "{label}"
            );
            // the empty version holds no document, yet the root exists in it
            assert_eq!(held(&paths[0]).0, "1-8", "{label}");
            assert_eq!(held(&paths[1]).0, "1-3,5-8", "{label}");
            assert!(s.history_values(&paths[9]).unwrap().is_none(), "{label}");
        }
    }
}

#[test]
fn streamed_retrieval_equivalent_on_omim_workload() {
    // Acceptance criterion: retrieve_into ≡ retrieve (modulo key order) on
    // a datagen workload, for every backend built from the facade.
    let spec = omim_spec();
    let mut g = OmimGen::new(733);
    g.del_ratio = 0.04;
    g.ins_ratio = 0.08;
    g.mod_ratio = 0.04;
    let versions = g.sequence(25, 5);
    let (_scratch, backends) = all_backends(&spec);
    for (label, mut s) in backends {
        for d in &versions {
            s.add_version(d).unwrap();
        }
        for v in 1..=versions.len() as u32 {
            let materialized = s.retrieve(v).unwrap().expect("archived");
            let mut bytes = Vec::new();
            assert!(s.retrieve_into(v, &mut bytes).unwrap(), "{label} v{v}");
            let reparsed = parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
            assert!(
                equiv_modulo_key_order(&reparsed, &materialized, s.spec()),
                "{label}: streamed v{v} diverged from materialized"
            );
        }
    }
}

#[test]
fn streamed_bytes_are_the_compact_writers_on_text_that_needs_escaping() {
    // `retrieve_into` writes bytes itself; `to_compact_string(retrieve(v))`
    // goes through the document writer. Both must produce the same bytes
    // on every escapable character — alone, in runs, first, last, and next
    // to 2-, 3- and 4-byte sequences — and on empty values and content.
    let hostile = [
        "&",
        "<",
        ">",
        "\"",
        "'",
        "&&<<>>\"\"''",
        "<lead",
        "trail>",
        "a&b<c>d\"e'f",
        "é&é<é>é\"é",
        "&é€😀",
        "é€😀&",
        "€<€",
        "😀>\"😀",
        "",
    ];
    let release = |shift: usize| {
        let mut doc = Document::new("db");
        doc.set_attr(doc.root(), "note", hostile[shift % hostile.len()]);
        doc.set_attr(doc.root(), "blank", "");
        for (i, _) in hostile.iter().enumerate() {
            let rec = doc.add_element(doc.root(), "rec");
            doc.set_attr(rec, "a", hostile[(i + shift) % hostile.len()]);
            doc.set_attr(rec, "b", hostile[(i + 2 * shift + 1) % hostile.len()]);
            doc.add_text_element(rec, "id", &format!("k{i}"));
            // an empty string leaves `<val/>`: an element with no content
            doc.add_text_element(rec, "val", hostile[(i + 3 * shift) % hostile.len()]);
        }
        doc
    };
    // later releases move every value, so contents sit under timestamps
    let versions: Vec<Document> = (0..3).map(release).collect();
    let (_scratch, backends) = all_backends(&spec());
    for (label, mut s) in backends {
        for d in &versions {
            s.add_version(d).unwrap();
        }
        for v in 1..=versions.len() as u32 {
            let want = to_compact_string(&s.retrieve(v).unwrap().expect("archived"));
            let mut bytes = Vec::new();
            assert!(s.retrieve_into(v, &mut bytes).unwrap(), "{label} v{v}");
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                want,
                "{label}: streamed v{v} is not the compact writer's bytes"
            );
        }
    }
}

#[test]
fn every_wrapper_reaches_the_inner_fast_path() {
    // The handle and its snapshots forward every reader method to the
    // store's *same-named* method — so the indexed kernel is never
    // silently replaced by the trait's whole-retrieve fallback composing
    // an answer from per-version `retrieve`s. The §7 work a query charges
    // is the witness: the same through every surface as through the store
    // itself. Removing any forward fails this test.
    let q = [
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", "1"),
    ];
    type Call<'a> = &'a dyn Fn(&dyn StoreReader);
    let queries: [(&str, Call); 7] = [
        ("retrieve", &|r| _ = r.retrieve(2).unwrap()),
        ("retrieve_into", &|r| {
            _ = r.retrieve_into(2, &mut Vec::new()).unwrap()
        }),
        ("history", &|r| _ = r.history(&q).unwrap()),
        ("as_of", &|r| _ = r.as_of(&q, 1).unwrap()),
        ("history_values", &|r| _ = r.history_values(&q).unwrap()),
        ("range", &|r| _ = r.range(&q[..1], 1..=2).unwrap()),
        ("diff", &|r| _ = r.diff(&q, 1, 2).unwrap()),
    ];
    let mut store = ArchiveBuilder::new(spec()).with_index().open().unwrap();
    for val in ["a", "b"] {
        let src = format!("<db><rec><id>1</id><val>{val}</val></rec></db>");
        store.add_version(&parse(&src).unwrap()).unwrap();
    }
    let work = |r: &dyn StoreReader, call: Call, index: &Indexes| {
        index.reset_probes();
        call(r);
        (
            index.history_index().comparisons(),
            index.timestamp_index().probes(),
        )
    };
    // (the published copies share the store's probe counters)
    let index = store.indexes().unwrap().clone();
    let own: Vec<_> = queries
        .iter()
        .map(|(_, c)| work(&store, *c, &index))
        .collect();
    assert_eq!(own[1], (0, 0), "retrieve_into is the archive's own scan");
    assert!(own.iter().skip(2).all(|w| w.0 > 0), "{own:?}");
    let handle = ArchiveHandle::new(store);
    let snapshot = handle.snapshot();
    for (label, reader) in [
        ("ArchiveHandle", &handle as &dyn StoreReader),
        ("Snapshot", &snapshot),
    ] {
        for ((method, call), want) in queries.iter().zip(&own) {
            assert_eq!(work(reader, *call, &index), *want, "{label}::{method}");
        }
    }
}

/// The datagen corpora, a few releases each: every key shape the
/// generators produce — `{}`, one text part, several parts along
/// structured paths, attributes, and whole-content keys.
fn corpora() -> Vec<(&'static str, KeySpec, Vec<Document>)> {
    vec![
        ("company", company_spec(), company_versions()),
        ("omim", omim_spec(), OmimGen::new(3).sequence(60, 6)),
        (
            "swissprot",
            swissprot_spec(),
            SwissProtGen::new(5).sequence(30, 5),
        ),
        (
            "xmark",
            xmark_spec(),
            XmarkGen::new(9).key_mutation_sequence(40, 4, 0.1),
        ),
    ]
}

/// The key-query path of archive node `id`: the step of each node from
/// the document root down, or `None` when one of them has no key.
fn path_to(a: &Archive, id: ANodeId) -> Option<Vec<KeyQuery>> {
    let mut steps = Vec::new();
    let mut cur = id;
    while cur != a.root() {
        steps.push(a.step_of(cur)?);
        cur = a.node(cur).parent?;
    }
    steps.reverse();
    Some(steps)
}

/// A step is the node's own label: the path of `step_of`s from the root
/// leads back to the node, by sibling scan and by the sorted index alike.
#[test]
fn every_keyed_node_is_located_by_its_own_steps() {
    for (corpus, spec, docs) in corpora() {
        let mut a = Archive::new(spec);
        a.add_versions(&docs).unwrap();
        let indexed = Indexes::build(&a);
        let a = &a;
        let mut located = 0;
        for id in (0..a.len() as u32).map(ANodeId) {
            let Some(path) = path_to(a, id) else {
                continue;
            };
            assert_eq!(locate(a, &Scan, &path), Some(id), "{corpus}: {path:?}");
            assert_eq!(locate(a, &indexed, &path), Some(id), "{corpus}: {path:?}");
            located += 1;
        }
        assert!(located >= 10, "{corpus}: {located} located");
    }
}

/// The step a caller builds for keyed node `n` of `doc` from what the
/// document shows: `with_text` for a text-only element at the end of a
/// key path, `with_attr` for an attribute, `with_canon` for anything else
/// (content keys, structured values). `used` counts the calls of each.
fn built_step(doc: &Document, n: NodeId, parts: &[(&str, &str)], used: &mut [u32; 3]) -> KeyQuery {
    let mut step = KeyQuery::new(doc.tag_name(n));
    for &(path, canon) in parts {
        let end = path
            .split('/')
            .try_fold(n, |cur, name| doc.first_child_element(cur, name));
        let text_only = end.filter(
            |&e| matches!(doc.children(e), [t] if matches!(doc.kind(*t), NodeKind::Text(_))),
        );
        let (kind, built) = match (text_only, doc.attr(n, path)) {
            (Some(e), _) if path != "." => (0, step.with_text(path, &doc.text_content(e))),
            (None, Some(value)) if canon.starts_with('@') => (1, step.with_attr(path, value)),
            _ => (2, step.with_canon(path, canon)),
        };
        used[kind] += 1;
        step = built;
    }
    step
}

/// Steps built by the public constructors equal, hash and order exactly
/// as the steps an archive holds — here annotated under 8-bit
/// fingerprints, where distinct key values share fingerprints all the
/// time and only the canonical values can tell them apart.
#[test]
fn constructed_steps_equal_held_ones_under_a_narrow_fingerprinter() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash = |q: &KeyQuery| {
        let mut h = DefaultHasher::new();
        q.hash(&mut h);
        h.finish()
    };
    let (mut collisions, mut used) = (0, [0; 3]);
    for (corpus, spec, docs) in corpora() {
        let doc = docs.last().unwrap();
        let ann = annotate_with(doc, &spec, Fingerprinter::with_bits(8)).unwrap();
        let mut pairs = Vec::new();
        for n in (0..doc.len() as u32).map(NodeId) {
            let (NodeKind::Element(s), Some(key)) = (doc.kind(n), ann.key(n)) else {
                continue;
            };
            let held = KeyQuery::labelled(Arc::clone(doc.syms().shared(s)), key.clone());
            let parts: Vec<(&str, &str)> = held.parts().collect();
            let built = built_step(doc, n, &parts, &mut used);
            assert_eq!(built, held, "{corpus}");
            assert_eq!(built.cmp(&held), std::cmp::Ordering::Equal, "{corpus}");
            assert_eq!(hash(&built), hash(&held), "{corpus}");
            pairs.push((held, built));
        }
        assert!(pairs.len() >= 10, "{corpus}: {} keyed nodes", pairs.len());
        // the order of any two held steps is the order of their built twins
        for (h1, b1) in &pairs {
            for (h2, b2) in pairs.iter().step_by(7) {
                assert_eq!(h1.cmp(h2), b1.cmp(b2), "{corpus}: {h1:?} vs {h2:?}");
                let shared_fp = (h1.key().parts().iter().zip(h2.key().parts()))
                    .any(|(p, q)| p.fp == q.fp && p.canon != q.canon);
                collisions += usize::from(shared_fp && h1.tag() == h2.tag());
            }
        }
    }
    assert!(collisions > 0, "8-bit fingerprints collide somewhere");
    assert!(
        used.iter().all(|&n| n > 0),
        "every constructor is exercised: {used:?}"
    );
}
