//! Model-based differential suite for bulk ingest: on EVERY backend the
//! builder can produce, `add_versions(batch)` must yield a store
//! observably identical — retrieve bytes, `as_of`, `history`,
//! `history_values`, `range`, `diff`, stats version count — to a
//! one-document-at-a-time `add_version` replay of the same sequence.
//! The serial store is the model; the batched store is the implementation
//! under test, across several batch partitions of the same workload,
//! including content-empty documents (`<db/>`) inside a batch.

use std::ops::RangeInclusive;
use std::path::PathBuf;

use xarch::core::KeyQuery;
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::keys::KeySpec;
use xarch::xml::writer::to_compact_string;
use xarch::xml::{parse, Document};
use xarch::{ArchiveBuilder, StoreReader, VersionStore};

fn spec() -> KeySpec {
    KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
}

/// Removes scratch segment files when the test finishes.
struct ScratchFiles(Vec<PathBuf>);

impl Drop for ScratchFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A labelled store factory: each call yields a fresh store of the same
/// configuration.
type StoreFactory = Box<dyn FnMut() -> Box<dyn VersionStore>>;

/// Every backend configuration of the conformance matrix, as a factory so
/// each (config, partition) pair gets a fresh store. Durable factories
/// register their scratch segment with the guard.
fn all_configs(spec: &KeySpec, guard: &mut ScratchFiles) -> Vec<(&'static str, StoreFactory)> {
    use xarch::core::Compaction;
    fn durable_factory(
        spec: KeySpec,
        tag: &'static str,
        configure: fn(ArchiveBuilder) -> ArchiveBuilder,
        guard: &mut ScratchFiles,
    ) -> StoreFactory {
        // a fresh segment per instantiation; register every path for cleanup
        let mut paths: Vec<PathBuf> = (0..16).map(|_| xarch::storage::scratch_path(tag)).collect();
        guard.0.extend(paths.iter().cloned());
        Box::new(move || {
            let path = paths.pop().expect("enough scratch segments");
            configure(ArchiveBuilder::new(spec.clone()))
                .durable(path)
                .try_build()
                .expect("durable store")
        })
    }
    let s = spec.clone();
    let mut out: Vec<(&'static str, StoreFactory)> = Vec::new();
    {
        let s = s.clone();
        out.push((
            "in-memory",
            Box::new(move || ArchiveBuilder::new(s.clone()).build()),
        ));
    }
    {
        let s = s.clone();
        out.push((
            "in-memory/weave",
            Box::new(move || {
                ArchiveBuilder::new(s.clone())
                    .compaction(Compaction::Weave)
                    .build()
            }),
        ));
    }
    {
        let s = s.clone();
        out.push((
            "in-memory/indexed",
            Box::new(move || ArchiveBuilder::new(s.clone()).with_index().build()),
        ));
    }
    out.push((
        "durable",
        durable_factory(s.clone(), "batch-eq-durable", |b| b, guard),
    ));
    out.push((
        "durable/indexed",
        durable_factory(s.clone(), "batch-eq-indexed", |b| b.with_index(), guard),
    ));
    out
}

/// A sequence exercising every merge action across batch boundaries:
/// records appearing / disappearing / reappearing, frontier content
/// changing and repeating, and **content-empty documents** (`<db/>`) —
/// versions that exist but archive an empty database root.
fn tricky_docs() -> Vec<Document> {
    [
        "<db><rec><id>2</id><val>b</val></rec><rec><id>1</id><val>a</val></rec></db>",
        "<db><rec><id>1</id><val>a2</val></rec><rec><id>3</id><val>c</val></rec></db>",
        "<db/>",
        "<db><rec><id>1</id><val>a</val></rec></db>",
        "<db/>",
        "<db><rec><id>3</id><val>c9</val></rec><rec><id>4</id><val>d</val></rec></db>",
        "<db><rec><id>4</id><val>d</val></rec><rec><id>1</id><val>a</val></rec></db>",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect()
}

fn queries() -> Vec<Vec<KeyQuery>> {
    let mut qs = vec![Vec::new(), vec![KeyQuery::new("db")]];
    for id in ["1", "2", "3", "4", "9"] {
        qs.push(vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", id),
        ]);
        qs.push(vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", id),
            KeyQuery::new("val"),
        ]);
    }
    qs
}

/// The model check: every observable answer of `got` equals `want`'s.
fn assert_observably_identical(
    want: &dyn VersionStore,
    got: &dyn VersionStore,
    queries: &[Vec<KeyQuery>],
    label: &str,
) {
    let n = want.latest();
    assert_eq!(got.latest(), n, "{label}: version count");
    assert_eq!(
        got.stats().unwrap().versions,
        want.stats().unwrap().versions,
        "{label}: stats version count"
    );
    let windows: Vec<RangeInclusive<u32>> = vec![1..=n, 1..=1, 2..=n.max(2), n..=n, 1..=u32::MAX];
    for v in 0..=n + 1 {
        assert_eq!(got.has_version(v), want.has_version(v), "{label}: v{v}");
        let mut want_bytes = Vec::new();
        let mut got_bytes = Vec::new();
        let ww = want.retrieve_into(v, &mut want_bytes).unwrap();
        let gw = got.retrieve_into(v, &mut got_bytes).unwrap();
        assert_eq!(gw, ww, "{label}: retrieve_into presence at v{v}");
        assert_eq!(got_bytes, want_bytes, "{label}: retrieve bytes at v{v}");
        let wdoc = want.retrieve(v).unwrap().map(|d| to_compact_string(&d));
        let gdoc = got.retrieve(v).unwrap().map(|d| to_compact_string(&d));
        assert_eq!(gdoc, wdoc, "{label}: retrieve at v{v}");
    }
    for q in queries {
        assert_eq!(
            got.history(q).unwrap(),
            want.history(q).unwrap(),
            "{label}: history {q:?}"
        );
        let whv = want.history_values(q).unwrap();
        let ghv = got.history_values(q).unwrap();
        match (&whv, &ghv) {
            (None, None) => {}
            (Some(w), Some(g)) => {
                assert_eq!(g.existence, w.existence, "{label}: existence {q:?}");
                assert_eq!(g.values, w.values, "{label}: history_values {q:?}");
            }
            _ => panic!("{label}: history_values presence diverged for {q:?}"),
        }
        for v in 1..=n {
            let w = want.as_of(q, v).unwrap().map(|d| to_compact_string(&d));
            let g = got.as_of(q, v).unwrap().map(|d| to_compact_string(&d));
            assert_eq!(g, w, "{label}: as_of {q:?} at v{v}");
        }
        for (v1, v2) in [(1, n), (n, 1), (2, 2)] {
            let w = want.diff(q, v1, v2).unwrap();
            let g = got.diff(q, v1, v2).unwrap();
            assert_eq!(g.present, w.present, "{label}: diff presence {q:?}");
            assert_eq!(g.script, w.script, "{label}: diff script {q:?}");
            assert_eq!(
                (g.added, g.removed),
                (w.added, w.removed),
                "{label}: diff counts {q:?}"
            );
        }
        for win in &windows {
            assert_eq!(
                got.range(q, win.clone()).unwrap(),
                want.range(q, win.clone()).unwrap(),
                "{label}: range {q:?} over {win:?}"
            );
        }
    }
}

#[test]
fn batched_ingest_is_observably_identical_to_serial_replay() {
    let spec = spec();
    let docs = tricky_docs();
    let queries = queries();
    let mut guard = ScratchFiles(Vec::new());
    // partitions of the sequence into batches: one big batch, pairs,
    // triples (leaving a remainder), and singletons through the batch API
    let partitions: Vec<usize> = vec![docs.len(), 2, 3, 1];
    for (label, factory) in all_configs(&spec, &mut guard).iter_mut() {
        let mut serial = factory();
        for d in &docs {
            serial.add_version(d).unwrap();
        }
        for &size in &partitions {
            let mut batched = factory();
            let mut assigned = Vec::new();
            for chunk in docs.chunks(size) {
                assigned.extend(batched.add_versions(chunk).unwrap());
            }
            assert_eq!(
                assigned,
                (1..=docs.len() as u32).collect::<Vec<_>>(),
                "{label}: assigned version numbers"
            );
            assert_observably_identical(
                serial.as_ref(),
                batched.as_ref(),
                &queries,
                &format!("{label}/batch{size}"),
            );
        }
    }
}

#[test]
fn batched_ingest_matches_serial_on_generated_workload() {
    // the same differential at datagen scale: multi-record documents with
    // churn, one whole-sequence batch vs the serial model
    let spec = omim_spec();
    let mut g = OmimGen::new(0xBA7C);
    g.del_ratio = 0.06;
    g.ins_ratio = 0.10;
    g.mod_ratio = 0.06;
    let docs = g.sequence(25, 6);
    let mut guard = ScratchFiles(Vec::new());
    for (label, factory) in all_configs(&spec, &mut guard).iter_mut() {
        let mut serial = factory();
        let mut batched = factory();
        for d in &docs {
            serial.add_version(d).unwrap();
        }
        batched.add_versions(&docs).unwrap();
        assert_eq!(batched.latest(), serial.latest(), "{label}");
        for v in 1..=docs.len() as u32 {
            let mut want = Vec::new();
            let mut got = Vec::new();
            assert_eq!(
                serial.retrieve_into(v, &mut want).unwrap(),
                batched.retrieve_into(v, &mut got).unwrap(),
                "{label}: v{v} presence"
            );
            assert_eq!(got, want, "{label}: v{v} bytes");
        }
    }
}

#[test]
fn empty_batch_is_a_noop_on_every_backend() {
    // regression for the latent bug class: `add_versions(&[])` must be
    // `Ok(vec![])` everywhere — no version burned, no state change, and
    // (checked in tests/durability.rs) no journal block written
    let spec = spec();
    let doc = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
    let mut guard = ScratchFiles(Vec::new());
    for (label, factory) in all_configs(&spec, &mut guard).iter_mut() {
        let mut s = factory();
        assert_eq!(s.add_versions(&[]).unwrap(), Vec::<u32>::new(), "{label}");
        assert_eq!(s.latest(), 0, "{label}: empty batch burned a version");
        s.add_version(&doc).unwrap();
        let mut before = Vec::new();
        s.retrieve_into(1, &mut before).unwrap();
        assert_eq!(s.add_versions(&[]).unwrap(), Vec::<u32>::new(), "{label}");
        assert_eq!(s.latest(), 1, "{label}");
        let mut after = Vec::new();
        s.retrieve_into(1, &mut after).unwrap();
        assert_eq!(after, before, "{label}: empty batch mutated state");
    }
}

#[test]
fn snapshots_never_observe_a_half_applied_batch() {
    // through a shared handle, a batch lands under one write-lock
    // acquisition: any snapshot pins either the pre-batch or the
    // post-batch version — the single-threaded contract (the threaded
    // stress lives in tests/concurrency.rs)
    let spec = spec();
    let docs = tricky_docs();
    let handle = ArchiveBuilder::new(spec).build_shared();
    let before = handle.snapshot();
    assert_eq!(before.pinned(), 0);
    handle.add_versions(&docs[..3]).unwrap();
    let mid = handle.snapshot();
    assert_eq!(mid.pinned(), 3, "snapshot pins the whole batch");
    handle.add_versions(&docs[3..]).unwrap();
    assert_eq!(before.pinned(), 0);
    assert_eq!(mid.pinned(), 3);
    assert_eq!(handle.snapshot().pinned(), docs.len() as u32);
    // the pre-batch snapshot still answers as if the batch never happened
    assert!(mid.retrieve(4).unwrap().is_none());
    assert!(mid.retrieve(3).unwrap().is_some());
}
