//! The shared-read stress suite: one writer merges versions while reader
//! threads hammer the query surface through [`xarch::ArchiveHandle`]
//! snapshots, asserting every answer is **byte-identical to a serial
//! replay** at the snapshot's pinned version.
//!
//! The serial replay records the expected answer for every pin level
//! *while it grows* — after version `P` commits, whatever the store
//! answers is by definition what a snapshot pinned at `P` must answer
//! forever, no matter how many merges land afterwards. Readers then race
//! the writer and compare against those recordings. Run with
//! `--release` (CI does) so the threads genuinely interleave.

use std::sync::Arc;

use xarch::{ArchiveBuilder, ArchiveHandle, Store, StoreReader};

#[path = "common/snapshot_oracle.rs"]
mod oracle;

use oracle::{check_snapshot, serial_replay, spec, version_doc, VERSIONS};

const READERS: usize = 4;

/// The harness: serial replay on one store, then a racing writer and
/// `READERS` snapshot readers on a second store of the same configuration.
fn stress(label: &str, mut serial: Store, live: Store) {
    let exp = Arc::new(serial_replay(&mut serial));
    drop(serial); // releases durable file locks before the race starts
    let handle = ArchiveHandle::new(live);

    std::thread::scope(|s| {
        let writer = handle.clone();
        s.spawn(move || {
            for v in 1..=VERSIONS {
                match version_doc(v) {
                    Some(doc) => assert_eq!(writer.add_version(&doc).unwrap(), v),
                    None => assert_eq!(writer.add_empty_version().unwrap(), v),
                }
                // give readers a chance to land between merges
                std::thread::yield_now();
            }
        });
        for _ in 0..READERS {
            let handle = handle.clone();
            let exp = Arc::clone(&exp);
            s.spawn(move || {
                let mut pins_seen = Vec::new();
                loop {
                    let snap = handle.snapshot();
                    check_snapshot(label, &snap, &exp);
                    // a second look at the same snapshot must repeat the
                    // answers even though the writer moved on
                    check_snapshot(label, &snap, &exp);
                    pins_seen.push(snap.pinned());
                    if snap.pinned() == VERSIONS {
                        break;
                    }
                    std::thread::yield_now();
                }
                // pins never move backwards from a reader's point of view
                assert!(pins_seen.windows(2).all(|w| w[0] <= w[1]), "{label}");
            });
        }
    });

    // after the race, the live store answers exactly like the replay
    let last = handle.snapshot();
    assert_eq!(last.pinned(), VERSIONS, "{label}");
    check_snapshot(label, &last, &exp);
}

/// The group-commit variant of the harness: the writer lands whole
/// *batches* through `ArchiveHandle::add_versions`, so readers must only
/// ever pin a **batch boundary** — a half-applied batch observable at any
/// pin is exactly the bug the single-write-lock design rules out. Every
/// pinned snapshot is still checked byte-for-byte against the serial
/// recordings.
fn stress_batch_writer(label: &str, mut serial: Store, live: Store) {
    // consecutive non-empty runs become batches; the empty version is its
    // own commit. Boundaries: 0, 3, 6, 7, 10, 12 for the 12-version run.
    let mut batches: Vec<Vec<xarch::xml::Document>> = Vec::new();
    let mut boundaries: Vec<u32> = vec![0];
    let mut run: Vec<xarch::xml::Document> = Vec::new();
    for v in 1..=VERSIONS {
        match version_doc(v) {
            Some(doc) => {
                run.push(doc);
                if run.len() == 3 {
                    boundaries.push(v);
                    batches.push(std::mem::take(&mut run));
                }
            }
            None => {
                if !run.is_empty() {
                    boundaries.push(v - 1);
                    batches.push(std::mem::take(&mut run));
                }
                boundaries.push(v);
                batches.push(Vec::new()); // marker: one empty version
            }
        }
    }
    if !run.is_empty() {
        boundaries.push(VERSIONS);
        batches.push(run);
    }

    let exp = Arc::new(serial_replay(&mut serial));
    drop(serial);
    let handle = ArchiveHandle::new(live);
    std::thread::scope(|s| {
        let writer = handle.clone();
        let batches = &batches;
        s.spawn(move || {
            for batch in batches {
                if batch.is_empty() {
                    writer.add_empty_version().unwrap();
                } else {
                    writer.add_versions(batch).unwrap();
                }
                std::thread::yield_now();
            }
        });
        for _ in 0..READERS {
            let handle = handle.clone();
            let exp = Arc::clone(&exp);
            let boundaries = &boundaries;
            s.spawn(move || loop {
                let snap = handle.snapshot();
                assert!(
                    boundaries.contains(&snap.pinned()),
                    "{label}: pinned {} is not a batch boundary {boundaries:?} — \
                     a reader observed a half-applied batch",
                    snap.pinned()
                );
                check_snapshot(label, &snap, &exp);
                if snap.pinned() == VERSIONS {
                    break;
                }
                std::thread::yield_now();
            });
        }
    });
    let last = handle.snapshot();
    assert_eq!(last.pinned(), VERSIONS, "{label}");
    check_snapshot(label, &last, &exp);
}

struct Scratch(Vec<std::path::PathBuf>);

impl Drop for Scratch {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn stress_in_memory() {
    stress(
        "in-memory",
        ArchiveBuilder::new(spec()).open().unwrap(),
        ArchiveBuilder::new(spec()).open().unwrap(),
    );
}

#[test]
fn stress_in_memory_indexed() {
    stress(
        "in-memory/indexed",
        ArchiveBuilder::new(spec()).with_index().open().unwrap(),
        ArchiveBuilder::new(spec()).with_index().open().unwrap(),
    );
}

#[test]
fn stress_in_memory_weave() {
    // weave compaction is the one mode where a merge *rewrites* the
    // stored representation beneath frontier nodes of earlier versions,
    // so it is the config most likely to expose a lock-coverage
    // regression in "reads of v <= P are unaffected by concurrent
    // merges"
    use xarch::core::Compaction;
    stress(
        "in-memory/weave",
        ArchiveBuilder::new(spec())
            .compaction(Compaction::Weave)
            .open()
            .unwrap(),
        ArchiveBuilder::new(spec())
            .compaction(Compaction::Weave)
            .open()
            .unwrap(),
    );
}

#[test]
fn stress_batch_writer_in_memory() {
    stress_batch_writer(
        "in-memory/batched",
        ArchiveBuilder::new(spec()).open().unwrap(),
        ArchiveBuilder::new(spec()).open().unwrap(),
    );
}

#[test]
fn stress_batch_writer_in_memory_indexed() {
    // a batch refreshes the §7 indexes over every node it wrote before
    // the view is published, so no pin may see versions the timestamp
    // trees and history index do not yet cover
    stress_batch_writer(
        "in-memory/indexed/batched",
        ArchiveBuilder::new(spec()).with_index().open().unwrap(),
        ArchiveBuilder::new(spec()).with_index().open().unwrap(),
    );
}

#[test]
fn stress_batch_writer_durable() {
    let serial_path = xarch::storage::scratch_path("stress-batch-serial");
    let live_path = xarch::storage::scratch_path("stress-batch-live");
    let _guard = Scratch(vec![serial_path.clone(), live_path.clone()]);
    stress_batch_writer(
        "durable/batched",
        ArchiveBuilder::new(spec())
            .durable(serial_path)
            .open()
            .expect("serial durable store"),
        ArchiveBuilder::new(spec())
            .durable(live_path)
            .open()
            .expect("live durable store"),
    );
}

#[test]
fn stress_durable() {
    let serial_path = xarch::storage::scratch_path("stress-durable-serial");
    let live_path = xarch::storage::scratch_path("stress-durable-live");
    let _guard = Scratch(vec![serial_path.clone(), live_path.clone()]);
    stress(
        "durable",
        ArchiveBuilder::new(spec())
            .durable(serial_path)
            .open()
            .expect("serial durable store"),
        ArchiveBuilder::new(spec())
            .durable(live_path)
            .open()
            .expect("live durable store"),
    );
}

/// The observability hot path raced directly: writer threads hammer a
/// shared [`Counter`] and [`Histogram`] (lock-free relaxed atomics) while
/// reader threads snapshot concurrently. Every reader-visible view must
/// be *coherent*: counters never move backwards, and a histogram
/// snapshot's `count` always equals the sum of its buckets — the count is
/// derived from the buckets by construction, so no interleaving can show
/// a sample that is counted but not bucketed (or vice versa).
#[test]
fn observability_primitives_stay_coherent_under_races() {
    use xarch::obs::{Counter, Histogram};
    const WRITERS: usize = 4;
    const RECORDS_PER_WRITER: u64 = 5_000;

    let counter = Counter::new();
    let hist = Histogram::new();
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let counter = counter.clone();
            let hist = hist.clone();
            s.spawn(move || {
                for i in 0..RECORDS_PER_WRITER {
                    counter.inc();
                    hist.record((w as u64 + 1) * (i % 1_000));
                }
            });
        }
        for _ in 0..READERS {
            let counter = counter.clone();
            let hist = hist.clone();
            s.spawn(move || {
                let (mut last_count, mut last_sum, mut last_hcount) = (0, 0, 0);
                for _ in 0..2_000 {
                    let c = counter.get();
                    assert!(c >= last_count, "counter moved backwards");
                    last_count = c;

                    let snap = hist.snapshot();
                    let bucketed: u64 = snap.buckets.iter().sum();
                    assert_eq!(
                        snap.count, bucketed,
                        "histogram count diverged from its buckets mid-race"
                    );
                    assert!(snap.count >= last_hcount, "histogram count went backwards");
                    assert!(snap.sum >= last_sum, "histogram sum went backwards");
                    last_hcount = snap.count;
                    last_sum = snap.sum;
                }
            });
        }
    });
    let total = (WRITERS as u64) * RECORDS_PER_WRITER;
    assert_eq!(counter.get(), total);
    assert_eq!(hist.count(), total, "no record was lost");
    assert_eq!(hist.buckets().iter().sum::<u64>(), total);
}

/// The same coherence through the full stack: a writer merges versions
/// through an observed [`ArchiveHandle`] while readers query snapshots
/// *and* watch the registry — every registered counter stays monotone and
/// every histogram readout stays count == Σ buckets while samples land.
#[test]
fn registry_readouts_stay_coherent_while_observed_store_runs() {
    use xarch::obs::Obs;

    let obs = Obs::disconnected();
    let handle = ArchiveBuilder::new(spec())
        .with_index()
        .with_observability(obs.clone())
        .try_build_shared()
        .expect("observed in-memory store cannot fail to build");

    std::thread::scope(|s| {
        let writer = handle.clone();
        s.spawn(move || {
            for v in 1..=VERSIONS {
                match version_doc(v) {
                    Some(doc) => assert_eq!(writer.add_version(&doc).unwrap(), v),
                    None => assert_eq!(writer.add_empty_version().unwrap(), v),
                }
                std::thread::yield_now();
            }
        });
        for _ in 0..READERS {
            let handle = handle.clone();
            let obs = obs.clone();
            s.spawn(move || {
                let ingested = obs
                    .registry()
                    .get_counter("ingest.versions")
                    .expect("registered at build time");
                let retrieve = obs
                    .registry()
                    .get_histogram("query.retrieve.duration")
                    .expect("registered at build time");
                let mut last_ingested = 0;
                let mut last_queries = 0;
                loop {
                    let snap = handle.snapshot();
                    let p = snap.pinned();
                    if p > 0 {
                        let _ = snap.retrieve(p).unwrap();
                    }

                    let i = ingested.get();
                    assert!(i >= last_ingested, "ingest.versions moved backwards");
                    assert!(i <= u64::from(VERSIONS), "over-counted ingests");
                    last_ingested = i;

                    let h = retrieve.snapshot();
                    assert_eq!(h.count, h.buckets.iter().sum::<u64>());
                    assert!(h.count >= last_queries, "query count went backwards");
                    last_queries = h.count;

                    if p == VERSIONS {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
    });

    let r = obs.registry();
    assert_eq!(
        r.get_counter("ingest.versions").unwrap().get(),
        u64::from(VERSIONS)
    );
    assert!(
        r.get_counter("handle.snapshot_pins").unwrap().get() >= READERS as u64,
        "every reader pinned at least one snapshot"
    );
    assert!(
        r.get_histogram("query.retrieve.duration").unwrap().count() > 0,
        "readers exercised the query path"
    );
    assert_eq!(
        r.get_histogram("handle.write_lock_hold").unwrap().count(),
        u64::from(VERSIONS),
        "one hold-time sample per mutation"
    );
}

#[test]
fn stress_durable_indexed() {
    let serial_path = xarch::storage::scratch_path("stress-durable-idx-serial");
    let live_path = xarch::storage::scratch_path("stress-durable-idx-live");
    let _guard = Scratch(vec![serial_path.clone(), live_path.clone()]);
    stress(
        "durable/indexed",
        ArchiveBuilder::new(spec())
            .with_index()
            .durable(serial_path)
            .open()
            .expect("serial durable store"),
        ArchiveBuilder::new(spec())
            .with_index()
            .durable(live_path)
            .open()
            .expect("live durable store"),
    );
}
