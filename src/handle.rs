//! The concurrent service layer: one writer, many readers, over any
//! backend — one archive instance, published as immutable views.
//!
//! The paper's archive is *append-only*: merging version `i` decides only
//! whether `i` belongs to each element's timestamp, and — timestamps being
//! inherited — writes only the changed nodes and their ancestor paths. So
//! the archive as of version `P` is fixed the moment `P` commits *and*
//! almost entirely shared with the archive as of `P + 1`: what an online
//! archive needs to serve heavy read traffic while curation continues.
//!
//! * [`ArchiveHandle`] is cheaply clonable (an [`Arc`]), `Send + Sync`,
//!   and owns **one** store. Writes are single-writer, serialized on a
//!   mutex that **readers never touch**, and each mutation is applied
//!   once — journal and fsync included;
//! * after a mutation commits, the writer takes the store's
//!   [`VersionStore::view`] — an immutable reader sharing every unchanged
//!   chunk with the store, so it costs O(changed) — and **publishes** it
//!   with one pointer swap, whose lock is never held across a merge, an
//!   fsync or a query: a reader never waits behind a writer, and a writer
//!   panic cannot touch what readers see;
//! * [`ArchiveHandle::snapshot`] returns a [`Snapshot`]: a [`StoreReader`]
//!   holding the published view — a pinned root, not a window over live
//!   storage. Taking one copies no archive data, and every query through
//!   it, `stats` included, answers from exactly the archive as of the pin
//!   while merges keep landing behind it.
//!
//! ```
//! use xarch::keys::KeySpec;
//! use xarch::xml::parse;
//! use xarch::{ArchiveBuilder, StoreReader};
//!
//! let spec = KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))")?;
//! let handle = ArchiveBuilder::new(spec).build_shared();
//! handle.add_version(&parse("<db><rec><id>1</id></rec></db>")?)?;
//!
//! let snap = handle.snapshot(); // pinned at version 1
//! handle.add_version(&parse("<db><rec><id>2</id></rec></db>")?)?;
//!
//! // the snapshot still sees the world as of version 1 …
//! assert_eq!(snap.latest(), 1);
//! assert!(!snap.has_version(2));
//! // … while the handle serves the live archive
//! assert_eq!(handle.latest(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A mutation that *fails cleanly* (key rejection, oversized payload)
//! leaves the store untouched and publishes nothing. One that *panics* may
//! leave the store half-merged: the handle **quarantines** its write side
//! — later writes return [`StoreError::Backend`] — while reads keep
//! serving the last published view indefinitely.

use std::io::Write;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use xarch_core::{
    Archive, ElementHistory, KeyQuery, RangeEntry, StoreError, StoreReader, StoreStats, StoreView,
    TimeSet, VersionDelta, VersionStore,
};
use xarch_keys::KeySpec;
use xarch_obs::{Counter, Histogram, Obs};
use xarch_xml::Document;

/// The canonical `handle.*` metric handles.
#[derive(Clone, Debug, Default)]
struct HandleMetrics {
    /// `handle.snapshot_pins` — snapshots taken (repeatable-read pins).
    snapshot_pins: Counter,
    /// `handle.write_lock_hold` — writer section per mutation (µs):
    /// apply (durability included), take the view, publish.
    write_lock_hold: Histogram,
    /// `handle.publications` — views published, one per committed mutation.
    publications: Counter,
}

impl HandleMetrics {
    fn registered(obs: &Obs) -> Self {
        let r = obs.registry();
        Self {
            snapshot_pins: r.counter(
                "handle.snapshot_pins",
                "snapshots",
                "repeatable-read snapshots pinned off the shared handle",
            ),
            write_lock_hold: r.histogram(
                "handle.write_lock_hold",
                "micros",
                "writer-section duration per mutation through the shared handle",
            ),
            publications: r.counter(
                "handle.publications",
                "publications",
                "immutable views published (pointer swaps) through the shared handle",
            ),
        }
    }
}

/// The write side: the one store, and — once it may be inconsistent (a
/// panic mid-merge) or ahead of what could be published — why writes stop.
struct Writer {
    store: Box<dyn VersionStore>,
    fault: Option<String>,
}

/// The state one handle and all its clones share.
struct Shared {
    /// Serializes writers and owns the store. Readers never touch it.
    writer: Mutex<Writer>,
    /// The view every read path answers from. Locked only to clone or
    /// swap the `Arc` — never across a merge, an fsync or a query.
    published: RwLock<StoreView>,
    /// Cached: `StoreReader::spec` returns a borrow, which no guard may back.
    spec: KeySpec,
    metrics: HandleMetrics,
}

impl Shared {
    /// The published view: one `Arc` clone. (A poisoned lock still holds
    /// a valid pointer — the only write under it is `publish`'s swap.)
    fn current(&self) -> StoreView {
        Arc::clone(&self.published.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// The publication point: one pointer swap; the displaced view drops
    /// after the guard (freeing a last reference can be slow). The analyzer
    /// keeps lock guards off this call (`lock-discipline`); only the writer
    /// mutex, which no reader takes, spans it.
    fn publish(&self, view: StoreView) {
        let mut slot = self.published.write().unwrap_or_else(|p| p.into_inner());
        let _displaced = std::mem::replace(&mut *slot, view);
        drop(slot);
        self.metrics.publications.inc();
    }

    /// Enters the writer section. Poison is unreachable (`mutate` catches
    /// merge panics before the guard drops) and refused rather than
    /// recovered: a store abandoned mid-update must not be written again.
    fn writer(&self) -> Result<MutexGuard<'_, Writer>, StoreError> {
        self.writer
            .lock()
            .map_err(|_| StoreError::Backend("archive handle writer lock is poisoned".into()))
    }

    /// One serialized mutation: apply `op` to the store once, take the
    /// resulting view, publish it.
    fn mutate<T>(
        &self,
        op: impl FnOnce(&mut dyn VersionStore) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut w = self.writer()?;
        if let Some(why) = &w.fault {
            return Err(StoreError::Backend(format!(
                "archive handle is quarantined ({why}); reads keep serving the published \
                 version, writes are refused"
            )));
        }
        // declared after the guard, so it records the whole writer section
        let _hold = self.metrics.write_lock_hold.start_timer();
        let store = w.store.as_mut();
        let applied = catch_unwind(AssertUnwindSafe(|| {
            // a clean rejection returns here, the store untouched: backends
            // validate before mutating
            let value = op(store)?;
            Ok((value, store.view()))
        }));
        let why = match applied {
            Ok(Ok((value, Ok(view)))) => {
                self.publish(view);
                return Ok(value);
            }
            Ok(Err(rejected)) => return Err(rejected),
            // committed (durably, if the store journals) but unpublishable:
            // a later write would publish a view that skips a version
            Ok(Ok((_, Err(e)))) => format!("committed version could not be published: {e}"),
            // half-applied merge: the store may be inconsistent. Readers
            // stay on the last published view; writes stop here.
            Err(panic) => format!("writer panicked mid-merge: {}", panic_msg(&panic)),
        };
        w.fault = Some(why.clone());
        Err(StoreError::Backend(why))
    }
}

/// Best-effort panic payload message for quarantine diagnostics.
fn panic_msg(p: &(dyn std::any::Any + Send)) -> &str {
    p.downcast_ref::<&'static str>()
        .copied()
        .or_else(|| p.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// A cheaply-clonable, thread-safe handle to a shared archive:
/// single-writer / multi-reader over any [`VersionStore`] backend, with
/// reads that never wait behind a writer (see the module docs).
///
/// Reads through the handle (it implements [`StoreReader`]) are *live* —
/// each query answers from whatever view is published when it starts; for
/// consistency across several queries take an [`ArchiveHandle::snapshot`].
/// Constructed by [`crate::ArchiveBuilder::build_shared`] /
/// [`crate::ArchiveBuilder::try_build_shared`], or from any boxed store
/// with [`ArchiveHandle::new`].
#[derive(Clone)]
pub struct ArchiveHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ArchiveHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArchiveHandle {{ latest: {} }}", self.latest())
    }
}

impl ArchiveHandle {
    /// Wraps `store` for shared use with detached (unregistered) handle
    /// metrics, publishing a [`VersionStore::view`] of it at once. If that
    /// view cannot be built (a foreign backend whose replay fails), the
    /// handle starts quarantined over an empty view: writes are refused.
    pub fn new(store: Box<dyn VersionStore>) -> Self {
        Self::with_metrics(store, HandleMetrics::default())
    }

    /// Like [`ArchiveHandle::new`], with `handle.*` registered in `obs`.
    pub fn observed(store: Box<dyn VersionStore>, obs: &Obs) -> Self {
        Self::with_metrics(store, HandleMetrics::registered(obs))
    }

    fn with_metrics(store: Box<dyn VersionStore>, metrics: HandleMetrics) -> Self {
        let spec = store.spec().clone();
        let (view, fault) = match store.view() {
            Ok(view) => (view, None),
            Err(e) => (
                Arc::new(Archive::new(spec.clone())) as StoreView,
                Some(format!("initial view construction failed: {e}")),
            ),
        };
        Self {
            shared: Arc::new(Shared {
                writer: Mutex::new(Writer { store, fault }),
                published: RwLock::new(view),
                spec,
                metrics,
            }),
        }
    }

    /// Merges `doc` as the next version. Concurrent writes serialize on
    /// the writer mutex; readers keep answering from the published view
    /// until the merge publishes, and earlier snapshots are unaffected.
    pub fn add_version(&self, doc: &Document) -> Result<u32, StoreError> {
        self.shared.mutate(|s| s.add_version(doc))
    }

    /// Archives an *empty* database as the next version.
    pub fn add_empty_version(&self) -> Result<u32, StoreError> {
        self.shared.mutate(|s| s.add_empty_version())
    }

    /// Bulk ingest as **one** writer section with **one** publication:
    /// the backend's batch fast path runs while readers keep answering
    /// from the published view, and a snapshot pins either the pre-batch
    /// or the post-batch version, never a prefix.
    pub fn add_versions(&self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        self.shared.mutate(|s| s.add_versions(docs))
    }

    /// A read-only view pinned at the currently-published version. Taking
    /// a snapshot copies no archive data — one `Arc` clone and a counter —
    /// and proceeds at full speed while a merge is in flight.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.metrics.snapshot_pins.inc();
        Snapshot {
            view: self.shared.current(),
        }
    }
}

/// Live reads: each query answers from the view published as it starts.
/// That view is an owned `Arc` taken under the publication lock, not a
/// borrow [`xarch_core::Layer::inner`] could hand out — hence the
/// forwards spelled out.
impl StoreReader for ArchiveHandle {
    fn spec(&self) -> &KeySpec {
        &self.shared.spec
    }
    fn latest(&self) -> u32 {
        self.shared.current().latest()
    }
    fn has_version(&self, v: u32) -> bool {
        self.shared.current().has_version(v)
    }
    fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError> {
        self.shared.current().retrieve(v)
    }
    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> Result<bool, StoreError> {
        self.shared.current().retrieve_into(v, out)
    }
    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        self.shared.current().history(steps)
    }
    fn stats(&self) -> Result<StoreStats, StoreError> {
        self.shared.current().stats()
    }
    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        self.shared.current().as_of(steps, v)
    }
    fn history_values(&self, steps: &[KeyQuery]) -> Result<Option<ElementHistory>, StoreError> {
        self.shared.current().history_values(steps)
    }
    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: RangeInclusive<u32>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        self.shared.current().range(prefix, versions)
    }
    fn diff(&self, steps: &[KeyQuery], v1: u32, v2: u32) -> Result<VersionDelta, StoreError> {
        self.shared.current().diff(steps, v1, v2)
    }
}

/// Pinned reads: every query is the held view's own.
impl xarch_core::Layer for Snapshot {
    type Inner = dyn StoreReader + Send + Sync;

    fn inner(&self) -> &(dyn StoreReader + Send + Sync + 'static) {
        self.view.as_ref()
    }
}

/// The handle is itself a [`VersionStore`], so it can slot into any code
/// written against the trait (conformance suites, generic drivers). The
/// `&mut` receivers are a formality — writes really synchronize on the
/// internal writer mutex.
impl VersionStore for ArchiveHandle {
    fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
        ArchiveHandle::add_version(self, doc)
    }

    fn add_empty_version(&mut self) -> Result<u32, StoreError> {
        ArchiveHandle::add_empty_version(self)
    }

    fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        // NOT the trait's default loop: the whole batch must land as one
        // writer section and one publication so readers never interleave
        ArchiveHandle::add_versions(self, docs)
    }

    fn checkpoint_state(&self) -> Result<Option<Vec<u8>>, StoreError> {
        // a read of the store itself: it queues behind a running writer
        self.shared.writer()?.store.checkpoint_state()
    }

    fn restore_checkpoint(&mut self, state: &[u8]) -> Result<bool, StoreError> {
        self.shared.mutate(|s| s.restore_checkpoint(state))
    }

    fn view(&self) -> Result<StoreView, StoreError> {
        Ok(self.shared.current())
    }
}

/// A read-only view of a shared archive pinned at one version `P`.
///
/// The snapshot *is* the archive as of `P`: `latest()` answers `P`,
/// versions and elements first archived after `P` do not exist, and
/// [`StoreReader::stats`] counts exactly the nodes and bytes a serial
/// replay of versions `1..=P` would hold — however many merges commit
/// after it was taken. Snapshots are cheap (one `Arc`), `Clone`, and
/// `Send + Sync`: hand one to each request handler thread. A snapshot
/// holds no lock, so a long-lived one never stalls the writer; it keeps
/// alive only the chunks later merges have since rewritten.
#[derive(Clone)]
pub struct Snapshot {
    view: StoreView,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot {{ pinned: {} }}", self.pinned())
    }
}

impl Snapshot {
    /// The version this snapshot is pinned at (0 over an empty archive).
    pub fn pinned(&self) -> u32 {
        self.view.latest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ArchiveBuilder;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    /// Version `i` holds records 1..=i, so earlier records live on.
    fn doc(i: u32) -> Document {
        let mut s = String::from("<db>");
        for r in 1..=i {
            s.push_str(&format!("<rec><id>{r}</id><val>v{i}</val></rec>"));
        }
        s.push_str("</db>");
        parse(&s).unwrap()
    }

    #[test]
    fn handle_and_snapshot_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<ArchiveHandle>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn handle_is_clonable_and_live() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        let other = handle.clone();
        handle.add_version(&doc(1)).unwrap();
        assert_eq!(other.latest(), 1);
        assert!(other.retrieve(1).unwrap().is_some());
    }

    #[test]
    fn snapshot_pins_every_query() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        handle.add_version(&doc(1)).unwrap();
        handle.add_version(&doc(2)).unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap.pinned(), 2);
        handle.add_version(&doc(3)).unwrap();
        handle.add_empty_version().unwrap();

        // version axis
        assert_eq!(snap.latest(), 2);
        assert!(snap.has_version(2));
        assert!(!snap.has_version(3));
        assert!(snap.retrieve(3).unwrap().is_none());
        let mut bytes = Vec::new();
        assert!(!snap.retrieve_into(3, &mut bytes).unwrap());
        assert!(snap.retrieve(2).unwrap().is_some());

        // history clamps; elements born after the pin don't exist
        let q3 = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "3"),
        ];
        assert!(snap.history(&q3).unwrap().is_none());
        assert!(snap.as_of(&q3, 2).unwrap().is_none());
        let q1 = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ];
        // rec 1 lives on in v3 of the live archive; the snapshot clamps
        assert_eq!(snap.history(&q1).unwrap().unwrap().to_string(), "1-2");
        assert_eq!(
            handle.history(&q1).unwrap().unwrap().to_string(),
            "1-3",
            "live handle sees the later merge"
        );

        // range windows clamp to the pin
        let hits = snap.range(&[KeyQuery::new("db")], 1..=9).unwrap();
        assert_eq!(hits.len(), 2, "{hits:?}");
        for h in &hits {
            assert!(h.time.versions().all(|v| v <= 2), "{hits:?}");
        }

        // history_values drops post-pin contents
        let hv = snap.history_values(&q1).unwrap().unwrap();
        assert_eq!(hv.existence.to_string(), "1-2");
        assert!(hv.values.iter().all(|(t, _)| t.versions().all(|v| v <= 2)));

        // diff composes from the clamped as_of
        let d = snap.diff(&q1, 1, 3).unwrap();
        assert!(!d.is_same(), "v3 reads as absent from the snapshot");

        // stats report the pinned version count
        assert_eq!(snap.stats().unwrap().versions, 2);
    }

    #[test]
    fn snapshot_stats_are_exact_at_the_pin_and_repeatable() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        handle.add_version(&doc(1)).unwrap();
        handle.add_version(&doc(2)).unwrap();
        let snap = handle.snapshot();
        let first = snap.stats().unwrap();

        // exact: node counts equal a serial replay of versions 1..=2
        let mut replay = Archive::new(spec());
        replay.add_version(&doc(1)).unwrap();
        replay.add_version(&doc(2)).unwrap();
        let expected = replay.stats();
        assert_eq!(first.versions, 2);
        assert_eq!(first.elements, expected.elements);
        assert_eq!(first.texts, expected.texts);
        assert_eq!(first.stamps, expected.stamps);

        // repeatable: later merges — including an empty version, which
        // terminates every element and promotes inherited timestamps to
        // explicit ones in the live tree — change nothing at the pin
        handle.add_version(&doc(3)).unwrap();
        handle.add_empty_version().unwrap();
        let second = snap.stats().unwrap();
        assert_eq!(first, second, "pinned stats moved under later merges");
        let live = handle.stats().unwrap();
        assert_eq!(live.versions, 4);
        assert!(
            live.elements >= first.elements && live.size_bytes >= first.size_bytes,
            "the live archive only grows"
        );
    }

    #[test]
    fn snapshot_of_empty_archive() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        let snap = handle.snapshot();
        handle.add_version(&doc(1)).unwrap();
        assert_eq!(snap.pinned(), 0);
        assert_eq!(snap.latest(), 0);
        assert!(!snap.has_version(1));
        assert!(snap.retrieve(1).unwrap().is_none());
        // the synthetic root exists with an empty existence set
        assert_eq!(snap.history(&[]).unwrap().unwrap().to_string(), "");
        assert!(snap.range(&[], 1..=9).unwrap().is_empty());
    }

    #[test]
    fn handle_serves_trait_driven_code() {
        // the handle is a VersionStore itself
        let mut store: Box<dyn VersionStore> = Box::new(ArchiveBuilder::new(spec()).build_shared());
        store.add_version(&doc(1)).unwrap();
        assert_eq!(store.latest(), 1);
        assert!(store.retrieve(1).unwrap().is_some());
    }

    #[test]
    fn snapshots_and_handles_cross_threads() {
        let handle = ArchiveBuilder::new(spec()).with_index().build_shared();
        handle.add_version(&doc(1)).unwrap();
        let snap = handle.snapshot();
        let writer = handle.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 2..=5 {
                    writer.add_version(&doc(i)).unwrap();
                }
            });
            for _ in 0..4 {
                let snap = snap.clone();
                let handle = handle.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(snap.latest(), 1);
                        assert!(snap.retrieve(1).unwrap().is_some());
                        let live = handle.snapshot();
                        let p = live.pinned();
                        assert!((1..=5).contains(&p));
                        assert!(live.retrieve(p).unwrap().is_some());
                    }
                });
            }
        });
        assert_eq!(handle.latest(), 5);
    }

    /// The test doubles below wrap an [`Archive`] as `inner` and intercept
    /// only mutations; their reads are the archive's.
    macro_rules! reads_from_inner {
        ($ty:ty) => {
            impl xarch_core::Layer for $ty {
                type Inner = Archive;
                fn inner(&self) -> &Archive {
                    &self.inner
                }
            }
        };
    }

    /// A store whose merges rendezvous with the test on barriers while
    /// `stall` is set, holding the writer section open deterministically.
    struct GatedStore {
        inner: Archive,
        stall: Arc<AtomicBool>,
        entered: Arc<Barrier>,
        released: Arc<Barrier>,
    }

    reads_from_inner!(GatedStore);

    impl VersionStore for GatedStore {
        fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
            if self.stall.load(Ordering::Acquire) {
                self.entered.wait();
                self.released.wait();
            }
            VersionStore::add_version(&mut self.inner, doc)
        }
        fn add_empty_version(&mut self) -> Result<u32, StoreError> {
            VersionStore::add_empty_version(&mut self.inner)
        }
    }

    /// Satellite regression: pinning snapshots (and every read) must be
    /// wait-free while a slow merge holds the write path. Deterministic —
    /// the merge is parked on a barrier, not a timer: with the old global
    /// RwLock this test would deadlock at `handle.snapshot()`.
    #[test]
    fn snapshots_pin_while_a_slow_merge_is_in_flight() {
        let stall = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(Barrier::new(2));
        let released = Arc::new(Barrier::new(2));
        let handle = ArchiveHandle::new(Box::new(GatedStore {
            inner: Archive::new(spec()),
            stall: Arc::clone(&stall),
            entered: Arc::clone(&entered),
            released: Arc::clone(&released),
        }));
        handle.add_version(&doc(1)).unwrap();
        stall.store(true, Ordering::Release);

        std::thread::scope(|s| {
            let writer = handle.clone();
            s.spawn(move || {
                writer.add_version(&doc(2)).unwrap();
            });
            // the merge is now parked inside the store, writer mutex held …
            entered.wait();
            // … and every read path still answers instantly
            let snap = handle.snapshot();
            assert_eq!(snap.pinned(), 1);
            assert!(snap.retrieve(1).unwrap().is_some());
            assert_eq!(handle.latest(), 1);
            assert!(handle.retrieve(1).unwrap().is_some());
            stall.store(false, Ordering::Release);
            released.wait();
        });
        assert_eq!(handle.latest(), 2);
        assert!(handle.retrieve(2).unwrap().is_some());
    }

    /// A store that counts the mutations that reach it.
    struct CountingStore {
        inner: Archive,
        singles: Arc<AtomicUsize>,
        batches: Arc<AtomicUsize>,
    }

    reads_from_inner!(CountingStore);

    impl VersionStore for CountingStore {
        fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
            self.singles.fetch_add(1, Ordering::Relaxed);
            VersionStore::add_version(&mut self.inner, doc)
        }
        fn add_empty_version(&mut self) -> Result<u32, StoreError> {
            self.singles.fetch_add(1, Ordering::Relaxed);
            VersionStore::add_empty_version(&mut self.inner)
        }
        fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            VersionStore::add_versions(&mut self.inner, docs)
        }
        fn view(&self) -> Result<StoreView, StoreError> {
            self.inner.view()
        }
    }

    /// One instance: a mutation through the handle reaches the wrapped
    /// store exactly once.
    #[test]
    fn each_mutation_is_applied_to_the_store_exactly_once() {
        let singles = Arc::new(AtomicUsize::new(0));
        let batches = Arc::new(AtomicUsize::new(0));
        let handle = ArchiveHandle::new(Box::new(CountingStore {
            inner: Archive::new(spec()),
            singles: Arc::clone(&singles),
            batches: Arc::clone(&batches),
        }));
        handle.add_version(&doc(1)).unwrap();
        handle.add_empty_version().unwrap();
        handle.add_versions(&[doc(2), doc(3)]).unwrap();
        assert_eq!(handle.add_versions(&[]).unwrap(), Vec::<u32>::new());
        assert_eq!(singles.load(Ordering::Relaxed), 2);
        assert_eq!(batches.load(Ordering::Relaxed), 2);
        assert_eq!(handle.latest(), 4);
        assert_eq!(handle.snapshot().pinned(), 4);
    }

    /// A store that panics mid-merge when the incoming document carries
    /// the poison marker.
    struct FaultyStore {
        inner: Archive,
    }

    reads_from_inner!(FaultyStore);

    impl VersionStore for FaultyStore {
        fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
            if xarch_xml::writer::to_compact_string(doc).contains("boom") {
                panic!("injected merge fault");
            }
            VersionStore::add_version(&mut self.inner, doc)
        }
        fn add_empty_version(&mut self) -> Result<u32, StoreError> {
            VersionStore::add_empty_version(&mut self.inner)
        }
    }

    /// Satellite regression: a writer panic must not cascade into the
    /// readers. With the old handle the panic poisoned the global RwLock
    /// and every later read panicked too; now readers keep serving the
    /// published version and the write side degrades to `Backend` errors.
    #[test]
    fn writer_panic_quarantines_writes_but_readers_keep_answering() {
        let handle = ArchiveHandle::new(Box::new(FaultyStore {
            inner: Archive::new(spec()),
        }));
        handle.add_version(&doc(1)).unwrap();
        let snap = handle.snapshot();

        let poison = parse("<db><rec><id>boom</id></rec></db>").unwrap();
        let err = handle.add_version(&poison).unwrap_err();
        assert!(
            matches!(err, StoreError::Backend(ref m) if m.contains("panicked")),
            "{err}"
        );

        // reads survive — from the handle, from old snapshots, from new
        assert_eq!(handle.latest(), 1);
        assert!(handle.retrieve(1).unwrap().is_some());
        assert_eq!(snap.pinned(), 1);
        assert!(snap.retrieve(1).unwrap().is_some());
        assert_eq!(handle.snapshot().pinned(), 1);

        // the write side stays down: quarantined, never panicking
        let err = handle.add_version(&doc(2)).unwrap_err();
        assert!(
            matches!(err, StoreError::Backend(ref m) if m.contains("quarantined")),
            "{err}"
        );
        assert!(handle.add_empty_version().is_err());
    }

    /// A clean rejection (no panic) must leave the handle fully live:
    /// nothing is published and later writes succeed.
    #[test]
    fn rejected_merges_do_not_quarantine() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        handle.add_version(&doc(1)).unwrap();
        // an unkeyed root is rejected by validation before any mutation
        let bad = parse("<wrong><x>1</x></wrong>").unwrap();
        assert!(matches!(
            handle.add_version(&bad).unwrap_err(),
            StoreError::Merge(_)
        ));
        assert_eq!(handle.latest(), 1);
        handle.add_version(&doc(2)).unwrap();
        assert_eq!(handle.latest(), 2);
        assert!(handle.retrieve(2).unwrap().is_some());
    }
}
