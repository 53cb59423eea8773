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

use xarch::core::KeyQuery;
use xarch::keys::KeySpec;
use xarch::xml::parse;
use xarch::{ArchiveBuilder, ArchiveHandle, RangeEntry, StoreReader, VersionStore};

/// Versions the writer merges (version `EMPTY_VERSION` is archived
/// empty); record `r` is present in version `v` iff `(v + r) % 4 != 0`,
/// so records churn — inserted, deleted, reinserted — across the run.
const VERSIONS: u32 = 12;
const EMPTY_VERSION: u32 = 7;
const RECORDS: u32 = 8;
const READERS: usize = 4;

fn spec() -> KeySpec {
    KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
}

fn version_doc(v: u32) -> Option<xarch::xml::Document> {
    if v == EMPTY_VERSION {
        return None;
    }
    let mut s = String::from("<db>");
    for r in 1..=RECORDS {
        if (v + r).is_multiple_of(4) {
            continue;
        }
        s.push_str(&format!("<rec><id>{r}</id><val>r{r}v{v}</val></rec>"));
    }
    s.push_str("</db>");
    Some(parse(&s).unwrap())
}

fn queries() -> Vec<Vec<KeyQuery>> {
    let rec = |id: &str| {
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", id),
        ]
    };
    vec![
        rec("1"),
        rec("2"),
        rec("99"), // never archived
        vec![],    // the synthetic root
    ]
}

fn compact(doc: &xarch::xml::Document) -> String {
    xarch::xml::writer::to_compact_string(doc)
}

/// Everything a snapshot pinned at `P` must answer, recorded from the
/// serial store the moment version `P` committed. Index 0 is the empty
/// archive.
struct Expected {
    /// `bytes[v]`: the streamed serialization of version `v` (`None` for
    /// empty versions). Recorded once — committed versions are immutable.
    bytes: Vec<Option<Vec<u8>>>,
    /// `as_of[qi][v]`: the addressed subtree at version `v`, compact.
    as_of: Vec<Vec<Option<String>>>,
    /// `history[qi][pin]`: the existence set (displayed) at each pin.
    history: Vec<Vec<Option<String>>>,
    /// `range[pin]`: keyed children of `<db>` over the whole window.
    range: Vec<Vec<RangeEntry>>,
}

/// Grows `store` through the full version sequence, recording the
/// expected answer set at every pin level.
fn serial_replay(store: &mut Box<dyn VersionStore>) -> Expected {
    let qs = queries();
    let prefix = [KeyQuery::new("db")];
    let mut exp = Expected {
        bytes: vec![None],
        as_of: vec![vec![None]; qs.len()],
        history: vec![Vec::new(); qs.len()],
        range: Vec::new(),
    };
    // pin 0: the empty archive
    for (qi, q) in qs.iter().enumerate() {
        exp.history[qi].push(store.history(q).unwrap().map(|t| t.to_string()));
    }
    exp.range.push(store.range(&prefix, 1..=u32::MAX).unwrap());
    for v in 1..=VERSIONS {
        match version_doc(v) {
            Some(doc) => assert_eq!(store.add_version(&doc).unwrap(), v),
            None => assert_eq!(store.add_empty_version().unwrap(), v),
        }
        let mut bytes = Vec::new();
        let wrote = store.retrieve_into(v, &mut bytes).unwrap();
        exp.bytes.push(wrote.then_some(bytes));
        for (qi, q) in qs.iter().enumerate() {
            exp.as_of[qi].push(store.as_of(q, v).unwrap().map(|d| compact(&d)));
            exp.history[qi].push(store.history(q).unwrap().map(|t| t.to_string()));
        }
        exp.range.push(store.range(&prefix, 1..=u32::MAX).unwrap());
    }
    exp
}

/// One reader thread: snapshot, then interrogate it and compare every
/// answer with the serial recordings at the pinned version.
fn check_snapshot(label: &str, snap: &xarch::Snapshot, exp: &Expected) {
    let p = snap.pinned();
    assert_eq!(snap.latest(), p, "{label}");
    let qs = queries();

    // reads beyond the pin never leak, even while the writer is ahead
    assert!(!snap.has_version(p + 1), "{label} pin {p}");
    assert!(snap.retrieve(p + 1).unwrap().is_none(), "{label} pin {p}");
    let mut sink = Vec::new();
    assert!(!snap.retrieve_into(p + 1, &mut sink).unwrap());

    // full retrieval: byte-identical to the serial replay
    for v in 1..=p {
        let mut got = Vec::new();
        let wrote = snap.retrieve_into(v, &mut got).unwrap();
        let want = &exp.bytes[v as usize];
        assert_eq!(wrote, want.is_some(), "{label} retrieve v{v} pin {p}");
        if let Some(want) = want {
            assert_eq!(&got, want, "{label} retrieve v{v} pin {p}");
        }
    }

    for (qi, q) in qs.iter().enumerate() {
        // history pinned: equal to what the serial store said at pin P
        let got = snap.history(q).unwrap().map(|t| t.to_string());
        assert_eq!(
            got, exp.history[qi][p as usize],
            "{label} history q{qi} pin {p}"
        );
        // as_of at every version up to the pin
        for v in 1..=p {
            let got = snap.as_of(q, v).unwrap().map(|d| compact(&d));
            assert_eq!(
                got, exp.as_of[qi][v as usize],
                "{label} as_of q{qi} v{v} pin {p}"
            );
        }
        // as_of beyond the pin is absent
        assert!(snap.as_of(q, p + 1).unwrap().is_none(), "{label} q{qi}");
    }

    // range over an unbounded window clamps to the pin
    let got = snap.range(&[KeyQuery::new("db")], 1..=u32::MAX).unwrap();
    assert_eq!(got, exp.range[p as usize], "{label} range pin {p}");

    assert_eq!(snap.stats().unwrap().versions, p, "{label} stats pin {p}");
}

/// The harness: serial replay on one store, then a racing writer and
/// `READERS` snapshot readers on a second store of the same configuration.
fn stress(label: &str, mut serial: Box<dyn VersionStore>, live: Box<dyn VersionStore>) {
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
fn stress_batch_writer(
    label: &str,
    mut serial: Box<dyn VersionStore>,
    live: Box<dyn VersionStore>,
) {
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
        ArchiveBuilder::new(spec()).build(),
        ArchiveBuilder::new(spec()).build(),
    );
}

#[test]
fn stress_in_memory_indexed() {
    stress(
        "in-memory/indexed",
        ArchiveBuilder::new(spec()).with_index().build(),
        ArchiveBuilder::new(spec()).with_index().build(),
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
            .build(),
        ArchiveBuilder::new(spec())
            .compaction(Compaction::Weave)
            .build(),
    );
}

#[test]
fn stress_batch_writer_in_memory() {
    stress_batch_writer(
        "in-memory/batched",
        ArchiveBuilder::new(spec()).build(),
        ArchiveBuilder::new(spec()).build(),
    );
}

#[test]
fn stress_batch_writer_in_memory_indexed() {
    // a batch refreshes the §7 indexes over every node it wrote before
    // the view is published, so no pin may see versions the timestamp
    // trees and history index do not yet cover
    stress_batch_writer(
        "in-memory/indexed/batched",
        ArchiveBuilder::new(spec()).with_index().build(),
        ArchiveBuilder::new(spec()).with_index().build(),
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
            .try_build()
            .expect("serial durable store"),
        ArchiveBuilder::new(spec())
            .durable(live_path)
            .try_build()
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
            .try_build()
            .expect("serial durable store"),
        ArchiveBuilder::new(spec())
            .durable(live_path)
            .try_build()
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
            .try_build()
            .expect("serial durable store"),
        ArchiveBuilder::new(spec())
            .with_index()
            .durable(live_path)
            .try_build()
            .expect("live durable store"),
    );
}

/// A backend wrapper that parks inside every merge until readers have
/// completed `need` probes that began and ended while it was parked. Its
/// views come from the trait's *default* `view` (serial replay into an
/// in-memory archive), so this doubles as racing coverage for replay-built
/// views.
struct StallingStore {
    inner: Box<dyn VersionStore>,
    latch: Arc<Latch>,
}

/// Where a parked merge and the readers meet. `merge` counts merge starts
/// and ends, so it is odd while a merge is parked; `probes` counts the
/// probes completed within the current one.
struct Latch {
    state: std::sync::Mutex<(u64, u64)>,
    probed: std::sync::Condvar,
    need: u64,
}

/// How long a merge waits for the readers before it fails the test.
const LATCH_BOUND: std::time::Duration = std::time::Duration::from_secs(10);

impl Latch {
    /// The merge a probe starting now begins in (odd: one is parked).
    fn merge(&self) -> u64 {
        self.state
            .lock()
            .expect("a thread panicked holding the latch")
            .0
    }

    /// A probe that began in `began` has ended: it counts if that merge is
    /// still parked.
    fn probed(&self, began: u64) -> bool {
        let mut state = self
            .state
            .lock()
            .expect("a thread panicked holding the latch");
        let inside = began % 2 == 1 && state.0 == began;
        if inside {
            state.1 += 1;
            self.probed.notify_all();
        }
        inside
    }

    /// Parks the calling merge until `need` probes have completed inside
    /// it; fails with the count after [`LATCH_BOUND`].
    fn park(&self) {
        let mut state = self
            .state
            .lock()
            .expect("a thread panicked holding the latch");
        *state = (state.0 + 1, 0);
        let (mut state, waited) = (self.probed)
            .wait_timeout_while(state, LATCH_BOUND, |s| s.1 < self.need)
            .expect("a thread panicked holding the latch");
        assert!(
            !waited.timed_out(),
            "readers completed only {} of {} probes while merge {} was parked",
            state.1,
            self.need,
            state.0 / 2 + 1
        );
        state.0 += 1;
    }
}

impl xarch::core::Layer for StallingStore {
    type Inner = dyn VersionStore;

    fn inner(&self) -> &(dyn VersionStore + 'static) {
        self.inner.as_ref()
    }
}

impl VersionStore for StallingStore {
    fn add_version(&mut self, doc: &xarch::xml::Document) -> Result<u32, xarch::StoreError> {
        self.latch.park();
        self.inner.add_version(doc)
    }
    fn add_empty_version(&mut self) -> Result<u32, xarch::StoreError> {
        self.latch.park();
        self.inner.add_empty_version()
    }
}

/// The reader-latency regression: readers must keep completing *inside* a
/// writer's stall, not queue behind it. Every merge parks, holding the
/// handle's writer side, until readers have completed probes of the
/// byte-compare invariant that began **and** ended while it was parked.
/// Under the old global-RwLock handle a reader that arrived mid-merge
/// parked until the merge released the write lock, so no such probe could
/// complete and the first merge fails after [`LATCH_BOUND`]; with
/// wait-free publication every merge is released by the readers, with no
/// dependence on how the threads are scheduled.
#[test]
fn stress_reader_latency_under_writer_stall() {
    use std::sync::atomic::{AtomicU64, Ordering};

    const STALL_READERS: usize = 8;
    const PROBES_PER_MERGE: u64 = 2;

    let mut serial: Box<dyn VersionStore> = ArchiveBuilder::new(spec()).build();
    let exp = Arc::new(serial_replay(&mut serial));
    let latch = Arc::new(Latch {
        state: std::sync::Mutex::new((0, 0)),
        probed: std::sync::Condvar::new(),
        need: PROBES_PER_MERGE,
    });
    let handle = ArchiveHandle::new(Box::new(StallingStore {
        inner: ArchiveBuilder::new(spec()).build(),
        latch: Arc::clone(&latch),
    }));
    let mid_merge_reads = AtomicU64::new(0);

    std::thread::scope(|s| {
        let writer = handle.clone();
        s.spawn(move || {
            for v in 1..=VERSIONS {
                match version_doc(v) {
                    Some(doc) => assert_eq!(writer.add_version(&doc).unwrap(), v),
                    None => assert_eq!(writer.add_empty_version().unwrap(), v),
                }
            }
        });
        for _ in 0..STALL_READERS {
            let handle = handle.clone();
            let exp = Arc::clone(&exp);
            let latch = Arc::clone(&latch);
            let mid = &mid_merge_reads;
            s.spawn(move || {
                let mut probes = 0u64;
                loop {
                    let began = latch.merge();
                    let snap = handle.snapshot();
                    let p = snap.pinned();
                    // cheap probe: the streamed bytes at the pin must
                    // match the serial recording, merge in flight or not
                    if p > 0 {
                        let mut sink = Vec::new();
                        let wrote = snap.retrieve_into(p, &mut sink).unwrap();
                        assert_eq!(wrote.then_some(sink), exp.bytes[p as usize]);
                    }
                    if latch.probed(began) {
                        mid.fetch_add(1, Ordering::Relaxed);
                    }
                    probes += 1;
                    if probes.is_multiple_of(32) {
                        // periodic full byte-compare across the query surface
                        check_snapshot("stalled-writer", &snap, &exp);
                    }
                    if p == VERSIONS {
                        break;
                    }
                }
            });
        }
    });

    assert_eq!(handle.latest(), VERSIONS);
    check_snapshot("stalled-writer/final", &handle.snapshot(), &exp);
    let mid = mid_merge_reads.load(Ordering::Relaxed);
    assert!(
        mid >= u64::from(VERSIONS) * PROBES_PER_MERGE,
        "every merge is released by probes completed inside it, but only {mid} were"
    );
}

#[test]
fn stalling_store_is_shareable_across_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StallingStore>();
}
