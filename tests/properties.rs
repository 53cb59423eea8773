//! Property-based tests (proptest) for the system's core invariants.

mod common;

use proptest::prelude::*;

use xarch::core::{equiv_modulo_key_order, Archive, TimeSet};
use xarch::diff::diff_lines;
use xarch::keys::KeySpec;
use xarch::xml::{parse, Document};
use xarch::{ArchiveBuilder, VersionStore};

// ---------- TimeSet vs a BTreeSet model ----------

proptest! {
    #[test]
    fn timeset_matches_model(ops in proptest::collection::vec((0u32..80, any::<bool>()), 0..200)) {
        let mut t = TimeSet::new();
        let mut model = std::collections::BTreeSet::new();
        for (v, insert) in ops {
            if insert {
                t.insert(v);
                model.insert(v);
            } else {
                t.remove(v);
                model.remove(&v);
            }
        }
        let got: Vec<u32> = t.versions().collect();
        let want: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, want);
        // canonical run representation
        for w in t.intervals().windows(2) {
            prop_assert!(w[0].1 + 1 < w[1].0);
        }
        // display/parse round trip
        prop_assert_eq!(TimeSet::parse(&t.to_string()).unwrap(), t);
    }

    #[test]
    fn timeset_union_is_set_union(a in proptest::collection::btree_set(0u32..60, 0..40),
                                  b in proptest::collection::btree_set(0u32..60, 0..40)) {
        let ta: TimeSet = a.iter().copied().collect();
        let tb: TimeSet = b.iter().copied().collect();
        let tu = ta.union(&tb);
        let want: Vec<u32> = a.union(&b).copied().collect();
        let got: Vec<u32> = tu.versions().collect();
        prop_assert_eq!(got, want);
        prop_assert!(tu.is_superset(&ta));
        prop_assert!(tu.is_superset(&tb));
    }
}

// ---------- Myers diff ----------

proptest! {
    #[test]
    fn diff_apply_reaches_target(a in proptest::collection::vec("[a-d]{0,3}", 0..30),
                                 b in proptest::collection::vec("[a-d]{0,3}", 0..30)) {
        let ar: Vec<&str> = a.iter().map(|s| s.as_str()).collect();
        let br: Vec<&str> = b.iter().map(|s| s.as_str()).collect();
        let script = diff_lines(&ar, &br);
        prop_assert_eq!(script.apply(&ar), br);
        // inversion restores the source
        let inv = script.invert(&ar);
        let b_owned = script.apply(&ar);
        let b_refs: Vec<&str> = b_owned.iter().map(|s| s.as_str()).collect();
        prop_assert_eq!(inv.apply(&b_refs), ar);
    }
}

// ---------- compressors ----------

proptest! {
    #[test]
    fn lzss_round_trips(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let c = xarch::compress::compress(&data);
        let back = xarch::compress::decompress(&c);
        prop_assert_eq!(back.as_deref(), Some(&data[..]));
    }

    #[test]
    fn lzss_round_trips_repetitive(seed in proptest::collection::vec(any::<u8>(), 1..40),
                                   reps in 1usize..60) {
        let data: Vec<u8> = seed.iter().cycle().take(seed.len() * reps).copied().collect();
        let c = xarch::compress::compress(&data);
        let back = xarch::compress::decompress(&c);
        prop_assert_eq!(back.as_deref(), Some(&data[..]));
    }
}

// ---------- archiver correctness over random version sequences ----------

/// A named builder configuration, used to parametrize the durable-reopen
/// property over every wrapped backend.
type BackendConfig = (&'static str, fn(KeySpec) -> ArchiveBuilder);

/// A generated mini database: records keyed by id, each with one mutable
/// value field and a variable tel-like multi-set keyed by content.
fn build_version(recs: &[(u8, String, Vec<u8>)]) -> Document {
    let mut doc = Document::new("db");
    for (id, val, tels) in recs {
        let r = doc.add_element(doc.root(), "rec");
        doc.add_text_element(r, "id", &id.to_string());
        doc.add_text_element(r, "val", val);
        let mut seen = std::collections::BTreeSet::new();
        for t in tels {
            if seen.insert(*t) {
                doc.add_text_element(r, "tel", &t.to_string());
            }
        }
    }
    doc
}

/// The first node whose `written_beneath` bit is not exactly "some node
/// beneath carries a timestamp of its own", with the bit it should have.
fn stamped_beneath_but_unmarked(a: &Archive) -> Option<(xarch::core::ANodeId, bool)> {
    // children come after their parents in no fixed order, so derive the
    // bits bottom-up over a preorder
    let mut order = vec![a.root()];
    let mut i = 0;
    while let Some(&id) = order.get(i) {
        order.extend_from_slice(a.children(id));
        i += 1;
    }
    let mut beneath = vec![false; a.len()];
    for &id in order.iter().rev() {
        let below = (a.children(id).iter()).any(|&c| beneath[c.index()] || a.time(c).is_some());
        beneath[id.index()] = below;
        if a.written_beneath(id) != below {
            return Some((id, below));
        }
    }
    None
}

fn mini_spec() -> KeySpec {
    KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))\n(/db/rec, (tel, {.}))")
        .unwrap()
}

/// One version = a set of records with distinct ids.
fn version_strategy() -> impl Strategy<Value = Vec<(u8, String, Vec<u8>)>> {
    proptest::collection::btree_map(
        0u8..12,
        ("[a-c]{0,4}", proptest::collection::vec(0u8..6, 0..3)),
        0..8,
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(id, (val, tels))| (id, val, tels))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn archive_retrieves_every_random_version(
        versions in proptest::collection::vec(version_strategy(), 1..8)
    ) {
        let spec = mini_spec();
        let docs: Vec<Document> = versions.iter().map(|v| build_version(v)).collect();
        let mut a = Archive::new(spec.clone());
        for d in &docs {
            a.add_version(d).unwrap();
            a.check_invariants().unwrap();
        }
        for (i, d) in docs.iter().enumerate() {
            let got = a.retrieve(i as u32 + 1).expect("archived version");
            prop_assert!(
                equiv_modulo_key_order(&got, d, &spec),
                "version {} not reconstructed", i + 1
            );
        }
        // XML round trip preserves everything too
        let xml_text = a.to_xml_pretty();
        let reparsed = parse(&xml_text).unwrap();
        let b = xarch::core::xmlrep::from_xml(&reparsed, &spec, a.compaction()).unwrap();
        for (i, d) in docs.iter().enumerate() {
            let got = b.retrieve(i as u32 + 1).expect("archived version");
            prop_assert!(equiv_modulo_key_order(&got, d, &spec));
        }
    }

    #[test]
    fn streamed_retrieval_matches_materialized_on_every_backend(
        versions in proptest::collection::vec(version_strategy(), 1..6)
    ) {
        // retrieve_into's bytes parse back to a document equivalent
        // (modulo key order) to retrieve's output — on every backend.
        let spec = mini_spec();
        let docs: Vec<Document> = versions.iter().map(|v| build_version(v)).collect();
        let backends: Vec<(&str, Box<dyn VersionStore>)> = vec![
            ("in-memory", ArchiveBuilder::new(spec.clone()).build()),
        ];
        for (label, mut store) in backends {
            for d in &docs {
                store.add_version(d).unwrap();
            }
            for (i, d) in docs.iter().enumerate() {
                let v = i as u32 + 1;
                let materialized = store.retrieve(v).unwrap().expect("archived version");
                prop_assert!(
                    equiv_modulo_key_order(&materialized, d, &spec),
                    "{} v{}: materialized mismatch", label, v
                );
                let mut bytes = Vec::new();
                prop_assert!(store.retrieve_into(v, &mut bytes).unwrap());
                let reparsed = parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
                prop_assert!(
                    equiv_modulo_key_order(&reparsed, &materialized, &spec),
                    "{} v{}: streamed bytes diverged: {}",
                    label, v, String::from_utf8_lossy(&bytes)
                );
            }
        }
    }

    #[test]
    fn durable_reopen_equals_never_closed_store_on_every_backend(
        versions in proptest::collection::vec(version_strategy(), 1..5)
    ) {
        // save → drop → reopen → retrieve(v) must equal the store that
        // never left memory, byte for byte, for every version and every
        // wrapped backend.
        let spec = mini_spec();
        let docs: Vec<Document> = versions.iter().map(|v| build_version(v)).collect();
        let configs: Vec<BackendConfig> = vec![
            ("in-memory", ArchiveBuilder::new),
        ];
        for (label, configure) in configs {
            let path = xarch::storage::scratch_path("prop-reopen");
            let mut live = configure(spec.clone()).build();
            {
                let mut durable = configure(spec.clone())
                    .durable(&path)
                    .try_build()
                    .unwrap();
                for d in &docs {
                    live.add_version(d).unwrap();
                    durable.add_version(d).unwrap();
                }
            } // dropped: simulates the process exiting
            let reopened = configure(spec.clone())
                .durable(&path)
                .try_build()
                .unwrap();
            prop_assert_eq!(reopened.latest(), live.latest(), "{}", label);
            for v in 1..=docs.len() as u32 {
                let mut live_bytes = Vec::new();
                let mut reopened_bytes = Vec::new();
                let live_wrote = live.retrieve_into(v, &mut live_bytes).unwrap();
                let reopened_wrote = reopened.retrieve_into(v, &mut reopened_bytes).unwrap();
                prop_assert_eq!(live_wrote, reopened_wrote, "{} v{}", label, v);
                prop_assert_eq!(
                    &live_bytes, &reopened_bytes,
                    "{} v{}: reopened bytes diverged", label, v
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn checkpointed_reopen_equals_never_closed_store(
        versions in proptest::collection::vec(version_strategy(), 1..6),
        write_every in 0u32..5,
        reopen_every in 0u32..5
    ) {
        // A store written with one RANDOM checkpoint cadence and reopened
        // with another must answer byte-for-byte like the store that never
        // left memory — checkpoints are pure redundancy, so neither the
        // cadence at write time nor at reopen time may leak into answers.
        // The mmap'd cold reader over the same file must agree too.
        use xarch::StoreReader;
        let spec = mini_spec();
        let docs: Vec<Document> = versions.iter().map(|v| build_version(v)).collect();
        let path = xarch::storage::scratch_path("prop-ckpt");
        let mut live = ArchiveBuilder::new(spec.clone()).build();
        {
            let mut durable = ArchiveBuilder::new(spec.clone())
                .checkpoint_every(write_every)
                .durable(&path)
                .try_build()
                .unwrap();
            for d in &docs {
                live.add_version(d).unwrap();
                durable.add_version(d).unwrap();
            }
        } // dropped: simulates the process exiting
        {
            let reopened = ArchiveBuilder::new(spec.clone())
                .checkpoint_every(reopen_every)
                .durable(&path)
                .try_build()
                .unwrap();
            prop_assert_eq!(reopened.latest(), live.latest(), "latest diverged");
            for v in 1..=docs.len() as u32 {
                let mut live_bytes = Vec::new();
                let mut reopened_bytes = Vec::new();
                let live_wrote = live.retrieve_into(v, &mut live_bytes).unwrap();
                let reopened_wrote = reopened.retrieve_into(v, &mut reopened_bytes).unwrap();
                prop_assert_eq!(live_wrote, reopened_wrote, "v{}: presence", v);
                prop_assert_eq!(
                    &live_bytes, &reopened_bytes,
                    "v{}: reopened bytes diverged (write cadence {}, reopen cadence {})",
                    v, write_every, reopen_every
                );
            }
        } // the cold reader refuses files with a live writer — drop first
        let cold = xarch::ColdArchive::open(&path).unwrap();
        prop_assert_eq!(cold.latest(), live.latest(), "cold latest diverged");
        for (i, d) in docs.iter().enumerate() {
            // the cold reader serves each version as originally ingested
            // (it decodes the journal block, not the merged archive), so
            // the contract is value equivalence, not byte equality
            let v = i as u32 + 1;
            let got = StoreReader::retrieve(&cold, v)
                .unwrap()
                .expect("cold version present");
            prop_assert!(
                equiv_modulo_key_order(&got, d, &spec),
                "v{}: cold read diverged (write cadence {})", v, write_every
            );
        }
        drop(cold);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn temporal_queries_agree_with_filtered_retrieve_on_every_backend(
        versions in proptest::collection::vec((version_strategy(), 0u8..8), 1..6)
    ) {
        // `as_of` must equal navigating a full retrieve; `history` must
        // equal the set of versions in which the navigation succeeds;
        // `range` must enumerate exactly the children visible in the
        // window — on every backend, plain and indexed, including *empty*
        // versions (marker 0 turns one in eight versions empty) and
        // records that disappear between versions (deleted subtrees).
        use xarch::core::query::{find_in_doc, subtree_doc};
        use xarch::core::TimeSet;

        let spec = mini_spec();
        let docs: Vec<Option<Document>> = versions
            .iter()
            .map(|(recs, marker)| (*marker != 0).then(|| build_version(recs)))
            .collect();
        let queries: Vec<Vec<xarch::core::KeyQuery>> = {
            use xarch::core::KeyQuery;
            let mut qs = vec![vec![KeyQuery::new("db")]];
            for id in 0..4u8 {
                qs.push(vec![
                    KeyQuery::new("db"),
                    KeyQuery::new("rec").with_text("id", &id.to_string()),
                ]);
                qs.push(vec![
                    KeyQuery::new("db"),
                    KeyQuery::new("rec").with_text("id", &id.to_string()),
                    KeyQuery::new("val"),
                ]);
            }
            qs
        };
        let backends: Vec<(&str, Box<dyn VersionStore>)> = vec![
            ("in-memory", ArchiveBuilder::new(spec.clone()).build()),
            ("in-memory/indexed", ArchiveBuilder::new(spec.clone()).with_index().build()),
        ];
        for (label, mut store) in backends {
            for d in &docs {
                match d {
                    Some(doc) => {
                        store.add_version(doc).unwrap();
                    }
                    None => {
                        store.add_empty_version().unwrap();
                    }
                }
            }
            let n = docs.len() as u32;
            for q in &queries {
                // presence per version via navigation of a full retrieve
                let mut expect_presence = TimeSet::new();
                for v in 1..=n {
                    let whole = store.retrieve(v).unwrap();
                    let navigated = whole
                        .as_ref()
                        .and_then(|doc| find_in_doc(doc, &spec, q))
                        .is_some();
                    if navigated {
                        expect_presence.insert(v);
                    }
                    let got = store.as_of(q, v).unwrap();
                    prop_assert_eq!(
                        got.is_some(), navigated,
                        "{} v{}: as_of presence diverged for {:?}", label, v, q
                    );
                    if let (Some(g), Some(doc)) = (got, whole.as_ref()) {
                        let want = find_in_doc(doc, &spec, q)
                            .and_then(|id| subtree_doc(doc, id))
                            .expect("navigated");
                        prop_assert!(
                            equiv_modulo_key_order(&g, &want, &spec),
                            "{} v{}: as_of content diverged for {:?}", label, v, q
                        );
                    }
                }
                // history == presence set (None allowed iff never present)
                let hist = store.history(q).unwrap();
                match hist {
                    Some(t) => prop_assert_eq!(
                        t, expect_presence.clone(),
                        "{}: history diverged for {:?}", label, q
                    ),
                    None => prop_assert!(
                        expect_presence.is_empty(),
                        "{}: history None but element present for {:?}", label, q
                    ),
                }
            }
            // range over every window ≡ per-version enumeration of docs
            for lo in 1..=n {
                for hi in lo..=n {
                    let hits = store.range(&[xarch::core::KeyQuery::new("db")], lo..=hi).unwrap();
                    let mut expect: std::collections::BTreeMap<xarch::core::KeyQuery, TimeSet> =
                        std::collections::BTreeMap::new();
                    for v in lo..=hi {
                        if let Some(doc) = store.retrieve(v).unwrap() {
                            for step in xarch::core::query::keyed_children_in_doc(
                                &doc, &spec, &[xarch::core::KeyQuery::new("db")],
                            ) {
                                expect.entry(step).or_default().insert(v);
                            }
                        }
                    }
                    let got: Vec<(xarch::core::KeyQuery, TimeSet)> =
                        hits.into_iter().map(|e| (e.step, e.time)).collect();
                    let want: Vec<(xarch::core::KeyQuery, TimeSet)> = expect.into_iter().collect();
                    prop_assert_eq!(
                        got, want,
                        "{}: range {}..={} diverged", label, lo, hi
                    );
                }
            }
        }
    }

    #[test]
    fn history_values_and_diff_equal_their_definitions_on_random_edits(
        // few ids and few values, so records revert, vanish and return
        versions in proptest::collection::vec(
            (
                proptest::collection::btree_map(
                    0u8..4,
                    ("[ab]{0,1}", proptest::collection::vec(0u8..3, 0..2)),
                    0..4,
                ),
                0u8..8,
            ),
            1..8,
        )
    ) {
        // The kernel answers both from the stored change points; the
        // definitions are per version (`common`). Random edit sequences —
        // marker 0 turns one version in eight empty — through the scanning
        // kernel under both compaction modes and the indexed kernel.
        use xarch::core::{Compaction, KeyQuery};

        let spec = mini_spec();
        let mut paths = vec![vec![], vec![KeyQuery::new("db")]];
        for id in 0..4u8 {
            let rec = vec![
                KeyQuery::new("db"),
                KeyQuery::new("rec").with_text("id", &id.to_string()),
            ];
            paths.push([rec.clone(), vec![KeyQuery::new("val")]].concat());
            paths.push([rec.clone(), vec![KeyQuery::new("tel").with_canon(".", "<tel>1</tel>")]].concat());
            paths.push(rec);
        }
        let builder = || ArchiveBuilder::new(spec.clone());
        let backends: Vec<(&str, Box<dyn VersionStore>)> = vec![
            ("in-memory", builder().build()),
            ("in-memory/weave", builder().compaction(Compaction::Weave).build()),
            ("in-memory/indexed", builder().with_index().build()),
            ("in-memory/weave/indexed", builder().compaction(Compaction::Weave).with_index().build()),
        ];
        for (label, mut store) in backends {
            for (recs, marker) in &versions {
                if *marker == 0 {
                    store.add_empty_version().unwrap();
                } else {
                    let recs: Vec<_> = recs
                        .iter()
                        .map(|(id, (val, tels))| (*id, val.clone(), tels.clone()))
                        .collect();
                    store.add_version(&build_version(&recs)).unwrap();
                }
            }
            let checked = common::check_against_definitions(store.as_ref(), &paths);
            prop_assert!(checked.is_ok(), "{}: {}", label, checked.unwrap_err());
        }
    }

    #[test]
    fn checkpoint_restore_re_encodes_the_same_bytes_and_bits(
        versions in proptest::collection::vec(version_strategy(), 1..8),
        cuts in proptest::collection::vec(1usize..4, 1..7),
        next in version_strategy()
    ) {
        // an archive built of RANDOM batches restores from its checkpoint
        // into one that encodes to the same bytes, whose written_beneath
        // bits are exact, and that merges the next version into the same
        // bytes as the archive never checkpointed — in both compactions
        use xarch::core::state::{decode_archive, encode_archive};
        use xarch::core::Compaction;
        let spec = mini_spec();
        let docs: Vec<Document> = versions.iter().map(|v| build_version(v)).collect();
        for compaction in [Compaction::Alternatives, Compaction::Weave] {
            let mut live = Archive::with_compaction(spec.clone(), compaction);
            let mut at = 0;
            for &cut in cuts.iter().cycle() {
                if at == docs.len() {
                    break;
                }
                let take = cut.min(docs.len() - at);
                live.add_versions(&docs[at..at + take]).unwrap();
                at += take;
            }
            let bytes = encode_archive(&live);
            let mut restored = decode_archive(&bytes, &spec, compaction)
                .unwrap()
                .expect("same spec and compaction");
            prop_assert_eq!(&encode_archive(&restored), &bytes, "{:?}", compaction);
            for a in [&live, &restored] {
                prop_assert_eq!(stamped_beneath_but_unmarked(a), None, "{:?}", compaction);
            }
            let next = build_version(&next);
            live.add_version(&next).unwrap();
            restored.add_version(&next).unwrap();
            prop_assert_eq!(
                encode_archive(&restored),
                encode_archive(&live),
                "{:?}: the next merge diverged", compaction
            );
        }
    }

    #[test]
    fn batched_ingest_agrees_with_serial_on_every_backend(
        versions in proptest::collection::vec(version_strategy(), 1..7),
        cuts in proptest::collection::vec(1usize..4, 1..7)
    ) {
        // a RANDOM partition of a random document sequence into batches
        // must agree — retrieve bytes and history answers — with serial
        // one-at-a-time ingestion, on every backend the builder offers;
        // and a batched-then-reopened durable store must agree too.
        let spec = mini_spec();
        let docs: Vec<Document> = versions.iter().map(|v| build_version(v)).collect();
        // turn the random cut list into a partition of `docs`
        let mut batches: Vec<&[Document]> = Vec::new();
        let mut at = 0usize;
        let mut ci = 0usize;
        while at < docs.len() {
            let take = cuts[ci % cuts.len()].min(docs.len() - at);
            batches.push(&docs[at..at + take]);
            at += take;
            ci += 1;
        }
        let configs: Vec<BackendConfig> = vec![
            ("in-memory", ArchiveBuilder::new),
            ("in-memory/indexed", |s| ArchiveBuilder::new(s).with_index()),
        ];
        let queries: Vec<Vec<xarch::core::KeyQuery>> = {
            use xarch::core::KeyQuery;
            (0..6u8)
                .map(|id| vec![
                    KeyQuery::new("db"),
                    KeyQuery::new("rec").with_text("id", &id.to_string()),
                ])
                .collect()
        };
        for (label, configure) in configs {
            let mut serial = configure(spec.clone()).build();
            let mut batched = configure(spec.clone()).build();
            let path = xarch::storage::scratch_path("prop-batch");
            let mut durable = configure(spec.clone())
                .durable(&path)
                .try_build()
                .unwrap();
            for d in &docs {
                serial.add_version(d).unwrap();
            }
            let mut assigned = Vec::new();
            for b in &batches {
                assigned.extend(batched.add_versions(b).unwrap());
                durable.add_versions(b).unwrap();
            }
            prop_assert_eq!(&assigned, &(1..=docs.len() as u32).collect::<Vec<_>>(), "{}", label);
            drop(durable); // "kill" the process; every batch is on disk
            let reopened = configure(spec.clone())
                .durable(&path)
                .try_build()
                .unwrap();
            for v in 1..=docs.len() as u32 {
                let mut want = Vec::new();
                let mut got = Vec::new();
                let mut re = Vec::new();
                let ww = serial.retrieve_into(v, &mut want).unwrap();
                let gw = batched.retrieve_into(v, &mut got).unwrap();
                let rw = reopened.retrieve_into(v, &mut re).unwrap();
                prop_assert_eq!(ww, gw, "{} v{}: presence", label, v);
                prop_assert_eq!(ww, rw, "{} v{}: reopened presence", label, v);
                prop_assert_eq!(&want, &got, "{} v{}: batched bytes diverged", label, v);
                prop_assert_eq!(&want, &re, "{} v{}: reopened bytes diverged", label, v);
            }
            for q in &queries {
                prop_assert_eq!(
                    batched.history(q).unwrap(),
                    serial.history(q).unwrap(),
                    "{}: history {:?}", label, q
                );
                prop_assert_eq!(
                    reopened.history(q).unwrap(),
                    serial.history(q).unwrap(),
                    "{}: reopened history {:?}", label, q
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn canonical_equality_iff_value_equality(
        a in version_strategy(),
        b in version_strategy()
    ) {
        let da = build_version(&a);
        let db = build_version(&b);
        let ca = xarch::xml::canon::canonical(&da, da.root());
        let cb = xarch::xml::canon::canonical(&db, db.root());
        let veq = xarch::xml::value_equal(&da, da.root(), &db, db.root());
        prop_assert_eq!(ca == cb, veq);
    }
}
