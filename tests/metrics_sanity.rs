//! The metrics sanity gate: the observability layer's numbers must match
//! the *structural* promises the backends make, not merely be plausible.
//!
//! * group commit: a 64-version batch through a durable store costs
//!   exactly ONE fsync, read off the registry (`segment.fsyncs`) — the
//!   same invariant `examples/bulk_load.rs` proves from the storage
//!   layer's own accessors, now visible to operators;
//! * after a conformance-style matrix run over every backend, every query
//!   kind has a populated latency histogram and the ingest counters agree
//!   with what was merged.

use xarch::core::KeyQuery;
use xarch::keys::KeySpec;
use xarch::obs::Obs;
use xarch::xml::parse;
use xarch::ArchiveBuilder;

fn spec() -> KeySpec {
    KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
}

/// Version `i` holds records `1..=i`.
fn doc(i: u32) -> xarch::xml::Document {
    let mut s = String::from("<db>");
    for r in 1..=i {
        s.push_str(&format!("<rec><id>{r}</id><val>r{r}v{i}</val></rec>"));
    }
    s.push_str("</db>");
    parse(&s).unwrap()
}

const QUERY_HISTOGRAMS: [&str; 6] = [
    "query.retrieve.duration",
    "query.as_of.duration",
    "query.history.duration",
    "query.history_values.duration",
    "query.range.duration",
    "query.diff.duration",
];

struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn batch_of_64_costs_exactly_one_fsync_via_registry() {
    let path = xarch::storage::scratch_path("metrics-sanity-fsync");
    let _guard = Scratch(path.clone());
    let obs = Obs::disconnected();
    let mut store = ArchiveBuilder::new(spec())
        .durable(&path)
        .with_observability(obs.clone())
        .try_build()
        .expect("durable store opens");

    let batch: Vec<_> = (1..=64).map(doc).collect();
    let assigned = store.add_versions(&batch).expect("batch commits");
    assert_eq!(assigned.len(), 64);

    let r = obs.registry();
    let fsyncs = r.get_counter("segment.fsyncs").expect("registered").get();
    assert_eq!(
        fsyncs, 1,
        "group commit: one multi-version block, one commit word, one \
         fsync for the whole batch (the superblock write at create is \
         not a commit)"
    );
    assert_eq!(
        r.get_counter("segment.blocks_written").unwrap().get(),
        1,
        "the batch landed as one journal block"
    );
    assert_eq!(r.get_counter("ingest.versions").unwrap().get(), 64);
    assert_eq!(r.get_counter("ingest.batches").unwrap().get(), 1);
    assert_eq!(
        r.get_histogram("ingest.batch_merge_duration")
            .unwrap()
            .count(),
        1,
        "one whole-batch latency sample"
    );

    // a serial load for comparison: each commit pays its own fsync
    drop(store);
    let path2 = xarch::storage::scratch_path("metrics-sanity-fsync-serial");
    let _guard2 = Scratch(path2.clone());
    let obs2 = Obs::disconnected();
    let mut serial = ArchiveBuilder::new(spec())
        .durable(&path2)
        .with_observability(obs2.clone())
        .try_build()
        .expect("durable store opens");
    for i in 1..=4 {
        serial.add_version(&doc(i)).expect("commit");
    }
    assert_eq!(
        obs2.registry().get_counter("segment.fsyncs").unwrap().get(),
        4,
        "serial ingest pays one fsync per version"
    );
}

#[test]
fn every_query_kind_populates_its_histogram_on_every_backend() {
    let durable_path = xarch::storage::scratch_path("metrics-sanity-matrix");
    let _guard = Scratch(durable_path.clone());
    let matrix: Vec<(&str, ArchiveBuilder)> = vec![
        ("in-memory", ArchiveBuilder::new(spec())),
        (
            "in-memory/indexed",
            ArchiveBuilder::new(spec()).with_index(),
        ),
        (
            "durable/indexed",
            ArchiveBuilder::new(spec())
                .with_index()
                .durable(&durable_path),
        ),
    ];

    for (label, builder) in matrix {
        let obs = Obs::disconnected();
        let mut store = builder
            .with_observability(obs.clone())
            .try_build()
            .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));

        store.add_version(&doc(1)).expect("v1");
        store.add_versions(&[doc(2), doc(3)]).expect("batch");

        let q = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ];
        assert!(store.retrieve(2).expect("retrieve").is_some(), "{label}");
        assert!(store.as_of(&q, 1).expect("as_of").is_some(), "{label}");
        assert!(store.history(&q).expect("history").is_some(), "{label}");
        assert!(
            store.history_values(&q).expect("history_values").is_some(),
            "{label}"
        );
        assert!(
            !store
                .range(&[KeyQuery::new("db")], 1..=3)
                .expect("range")
                .is_empty(),
            "{label}"
        );
        assert!(!store.diff(&q, 1, 3).expect("diff").is_same(), "{label}");

        let r = obs.registry();
        for name in QUERY_HISTOGRAMS {
            let h = r
                .get_histogram(name)
                .unwrap_or_else(|| panic!("{label}: {name} not registered"));
            assert!(h.count() > 0, "{label}: {name} recorded nothing");
        }
        assert_eq!(
            r.get_counter("ingest.versions").unwrap().get(),
            3,
            "{label}"
        );
        assert_eq!(r.get_counter("ingest.batches").unwrap().get(), 1, "{label}");

        // the exposition writers agree with the registry
        let text = obs.render_prometheus();
        assert!(text.contains("ingest_versions 3"), "{label}:\n{text}");
        assert!(
            text.contains("query_retrieve_duration_count"),
            "{label}:\n{text}"
        );
        let json = obs.render_json();
        assert!(
            json.contains("\"ingest.versions\": {\"kind\": \"counter\""),
            "{label}:\n{json}"
        );
        drop(store);
    }
}

#[test]
fn indexed_probe_counters_flow_through_the_registry() {
    let obs = Obs::disconnected();
    let mut store = ArchiveBuilder::new(spec())
        .with_index()
        .with_observability(obs.clone())
        .try_build()
        .expect("indexed store builds");
    for i in 1..=4 {
        store.add_version(&doc(i)).expect("commit");
    }
    let q = [
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", "2"),
    ];
    assert!(store.as_of(&q, 3).expect("as_of").is_some());
    let r = obs.registry();
    assert!(
        r.get_counter("index.history.comparisons")
            .expect("bound")
            .get()
            > 0,
        "locate spent comparisons"
    );
    assert!(
        r.get_counter("index.timestamp.probes")
            .expect("bound")
            .get()
            > 0,
        "subtree emit spent probes"
    );
}
